"""Seeded outputs of the three frame-pipeline callers, kept as golden values.

``data/golden_outputs.json`` stores what ``cli.simulate_point`` (CSV row
without ``wall_seconds``), ``codespec.first_error_counts`` and
``analysis.enumerate_low_weight`` returned for the cases below when the
file was recorded.  ``test_golden_outputs.py`` requires the current code
to reproduce every value exactly, so a change to the frame pipeline that
moves a single random draw or LLR bit shows up there.

Re-record only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/golden_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path

from hybridpolar import analysis, cli, codespec
from hybridpolar.codespec import CodeSpec, default_frozen_set

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

N, K, P, R = 64, 20, 6, 4
CRC6 = 0b1000011


def spec_for(scheme: str, t: int, n: int = N, k: int = K, p: int = P,
             r: int = R) -> CodeSpec:
    return CodeSpec(scheme=scheme, n=n, k=k, t=t, r=r, p=p,
                    crc_poly=CRC6 if p else 0,
                    frozen_set=default_frozen_set(n, k, p), design_snr=1.0)


# name -> (scheme, t, simulate_point keyword arguments)
SIMULATE_CASES = {
    "hybrid_awgn": ("hybrid", 2, dict(ebn0_db=1.0, list_size=4, seed=11,
                                      max_frames=300, target_errors=40)),
    "hybrid_rayleigh_b4": ("hybrid", 2, dict(ebn0_db=3.0, list_size=4, seed=12,
                                             max_frames=300, target_errors=40,
                                             channel_kind="rayleigh_block",
                                             fading_blocks=4)),
    "hybrid_pinned": ("hybrid", 2, dict(ebn0_db=1.0, list_size=4, seed=13,
                                        max_frames=150, target_errors=0,
                                        pin_coefficients=True)),
    "baseline_rayleigh_b4": ("polar_repetition", 1,
                             dict(ebn0_db=3.0, list_size=4, seed=14, max_frames=300,
                                  target_errors=40, channel_kind="rayleigh_block",
                                  fading_blocks=4)),
}

# name -> (scheme, t, first_error_counts keyword arguments)
CONSTRUCTION_CASES = {
    "hybrid_t2": ("hybrid", 2, dict(trials=600, seed=21)),
    "baseline": ("polar_repetition", 1, dict(trials=600, seed=22)),
}

# name -> (spec keyword arguments, enumerate_low_weight keyword arguments)
WEIGHT_CASES = {
    "hybrid_t2_n32": (dict(scheme="hybrid", t=2, n=32, k=10, p=0),
                      dict(list_size=128, high_snr_db=40.0, seed=31)),
}


def simulate_row(name: str) -> str:
    scheme, t, kwargs = SIMULATE_CASES[name]
    row = cli.simulate_point(spec_for(scheme, t), **kwargs).csv_row()
    return ",".join(row.split(",")[:-1])


def construction_counts(name: str) -> list:
    scheme, t, kwargs = CONSTRUCTION_CASES[name]
    return [int(c) for c in codespec.first_error_counts(spec_for(scheme, t), **kwargs)]


def weight_histogram(name: str) -> dict:
    spec_kwargs, kwargs = WEIGHT_CASES[name]
    hist = analysis.enumerate_low_weight(spec_for(**spec_kwargs), **kwargs)
    return {str(w): int(c) for w, c in sorted(hist.counts.items())}


def record() -> dict:
    return {
        "simulate_point": {name: simulate_row(name) for name in SIMULATE_CASES},
        "first_error_counts": {name: construction_counts(name)
                               for name in CONSTRUCTION_CASES},
        "enumerate_low_weight": {name: weight_histogram(name) for name in WEIGHT_CASES},
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
