"""The benchmark's workloads: which public call one operation makes, on
which code, and the output summary that is checked against the reference.

All codes are n = 512, r = 16 (N = 8192), k = 80, p = 6, CRC 0x43, made
once by ``hybridpolar construct`` (see specs/README.md).

Inputs come from a fixed pool of ``CASES`` cases per workload.  Operation
i of a run draws its case from the stream (seed, i); case c runs the
public call with program seed c.  Every case has a committed reference
output, so every operation of every seed is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
REFERENCES = HERE / "reference"

CASES = 64
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    spec_file: str
    frames_per_op: int   # frames decoded by one operation
    work_unit: str       # what one of those frames is called on this workload
    run: object          # (modules, spec, program_seed, warmup) -> public-call result
    summarize: object    # result -> JSON-ready summary compared with the reference


def _record_summary(rec) -> list:
    return [rec.frames, rec.frame_errors, rec.bit_errors]


def _sparse(values) -> dict:
    return {str(i): int(v) for i, v in enumerate(values) if v}


def _histogram(hist) -> dict:
    return {str(w): int(c) for w, c in sorted(hist.counts.items())}


def _fer_gf16(m, spec, seed, warmup):
    return m.cli.simulate_point(spec, ebn0_db=1.5, list_size=8, seed=seed,
                                max_frames=8 if warmup else 120, target_errors=0)


def _fer_baseline(m, spec, seed, warmup):
    return m.cli.simulate_point(spec, ebn0_db=4.0, list_size=8, seed=seed,
                                max_frames=8 if warmup else 240, target_errors=0,
                                channel_kind="rayleigh_block", fading_blocks=16)


def _construct_gf4(m, spec, seed, warmup):
    return m.codespec.first_error_counts(spec, trials=64 if warmup else 512, seed=seed)


def _weights_gf16(m, spec, seed, warmup):
    return m.analysis.enumerate_low_weight(spec, 16 if warmup else 1024, 40.0, seed)


WORKLOADS = {w.name: w for w in (
    # Criterion-7 point: the symbol engine (Stage-2 min-plus, list handling)
    # does most of the work, so path memory and rate-0 skipping show here.
    Workload("fer_gf16_awgn", "gf16_n512.spec", 120, "frames",
             _fer_gf16, _record_summary),
    # Criterion-8 point: only the binary engine runs, and this is the one
    # workload on the fading branch; symbol-domain changes must not move it.
    Workload("fer_baseline_rayleigh", "baseline_n512.spec", 240, "frames",
             _fer_baseline, _record_summary),
    # Genie SC: no list, no CRC, no frozen bits.  Frame generation, repetition
    # combining and channel LLRs dominate, with the q = 4 kernels.
    Workload("construct_gf4", "gf4_n512.spec", 512, "trials",
             _construct_gf4, _sparse),
    # The same decoder used differently (1 frame x 1024 paths), plus the
    # analysis layer's re-encode loop; the only workload that runs it.
    Workload("weights_gf16", "gf16_n512.spec", 1, "spectra",
             _weights_gf16, _histogram),
)}


def case_for(seed: int, index: int) -> int:
    """The pool case that operation ``index`` of a run with ``seed`` uses."""
    import numpy as np
    return int(np.random.default_rng(np.random.SeedSequence((seed, index))).integers(CASES))


def reference_path(name: str) -> Path:
    return REFERENCES / f"{name}.json"
