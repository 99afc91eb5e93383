"""Seeded decode corpus: its cases, their inputs and the decode call.

``data/decode_corpus.npz`` stores, for every case in :data:`CASES`, the
channel inputs and what the decoder returned for them when the corpus
was recorded.  ``test_decode_corpus.py`` requires the current decoder
to reproduce every stored array, exactly except for path metrics, which
may differ by float regrouping only, so any change to the decoder's
decisions shows up there.

Re-record only for a change that is meant to alter decisions:

    PYTHONPATH=src python tests/decode_corpus.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import oracles
from hybridpolar import channel as ch
from hybridpolar import encoder as enc
from hybridpolar.codespec import CodeSpec, default_frozen_set
from hybridpolar.decoder import baseline_decode_batch, genie_first_errors, scl_decode_batch

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "decode_corpus.npz"

N, K, P, R = 32, 10, 6, 2
FRAMES = 6
EBN0_DB = 1.0
CRC6 = 0b1000011

# A frozen set that is not one contiguous block.  Read at t = 1, 2 and 4 it
# puts all-frozen spans in the right half (bits 24..31), freezes only some
# bits of a symbol (bits 4..6 of 4..7, bit 12 of 12..15) and sets spans with
# no frozen bit (16..23, symbols 4..5 at t = 4) next to all-frozen ones.
SCATTERED_FROZEN = (0, 1, 2, 3, 4, 5, 6, 12, *range(24, 32))

# (family name, scheme, t, Stage-1 variant, frozen set); the lowest-index
# families come first, so each family keeps its input seed (its index).
FAMILIES = [(f"hybrid-t{t}-{v}", "hybrid", t, v, None)
            for t in (1, 2, 4) for v in ("flat", "recursive")]
FAMILIES.append(("baseline", "polar_repetition", 1, "flat", None))
FAMILIES += [(f"{name}-scattered", scheme, t, v, SCATTERED_FROZEN)
             for name, scheme, t, v, _ in FAMILIES[:7]]

# (mode, list size, crc_on) for every family
MODES = [("list", L, crc) for L in (1, 4, 16) for crc in (True, False)]
MODES += [("genie", 1, False)]

CASES = [(fam, mode, L, crc) for fam, *_ in FAMILIES for mode, L, crc in MODES]

# Each family's "sc" case was recorded by a plain successive-cancellation rule that
# reported every metric as 0.  That rule is the list decoder at L = 1, which must
# reproduce the case's decisions; its metrics are not compared.
SC_CASES = [(fam, "sc", 1, False) for fam, *_ in FAMILIES]

# Path metrics may differ from the recorded ones by float rounding only:
# rate-0 subtrees add their penalties as one closed-form sum.
PM_TOL = 1e-12


def case_name(family: str, mode: str, list_size: int, crc_on: bool) -> str:
    if mode == "genie":
        return f"{family}-genie"
    return f"{family}-{mode}-L{list_size}-crc{int(crc_on)}"


def family_spec(scheme: str, t: int, variant: str, frozen=None) -> CodeSpec:
    """The family's code; ``frozen`` None means the lowest-index frozen set."""
    return CodeSpec(scheme=scheme, n=N, k=K, t=t, r=R, p=P, crc_poly=CRC6,
                    frozen_set=default_frozen_set(N, K, P) if frozen is None else frozen,
                    design_snr=2.0, encoder_variant=variant)


def _received(spec: CodeSpec, tables, symbols, coefficients, rng) -> np.ndarray:
    """Decoder input for one transmitted symbol stream.

    Hybrid frames are combined in the symbol domain, as when the corpus was
    recorded: ``combine_repetitions`` rounds differently (by about 1e-15).
    """
    cfg = ch.ChannelConfig("awgn", EBN0_DB, spec.rate)
    if spec.scheme == "hybrid":
        y, h = ch.transmit(ch.bpsk_modulate(symbols, spec.t), cfg, rng)
        return oracles.permute_and_add(oracles.symbol_llrs(y, h, cfg.sigma2, spec.t),
                                       coefficients, tables)
    y, h = ch.transmit(1.0 - 2.0 * symbols, cfg, rng)
    return ch.initial_llrs(y, h, cfg.sigma2)


def family_inputs(index: int) -> dict:
    """Seeded inputs of one family: noisy codewords and genie frames.

    ``decode`` holds CRC-coded frames for the list cases;
    ``genie`` holds frames of fully random u vectors with ``genie_u``,
    as the Monte-Carlo construction draws them.
    """
    _, scheme, t, variant, frozen = FAMILIES[index]
    spec = family_spec(scheme, t, variant, frozen)
    tables = spec.field_tables()
    rng = np.random.default_rng(np.random.SeedSequence((2024, index)))
    n2 = spec.n // spec.t
    decode, genie, genie_u = [], [], []
    for _ in range(FRAMES):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        if scheme == "hybrid":
            cw = enc.encode_hybrid(info, spec, tables, rng=rng)
            decode.append(_received(spec, tables, cw.symbols, cw.coefficients, rng))
        else:
            cw = enc.encode_baseline(info, spec)
            decode.append(_received(spec, tables, cw.symbols, None, rng))
        u = rng.integers(0, 2, size=spec.n, dtype=np.int8)
        coeffs = enc.draw_coefficients(n2, spec.r, tables, rng) if scheme == "hybrid" else None
        symbols = oracles.channel_stream(u, spec, tables, coeffs)
        genie.append(_received(spec, tables, symbols, coeffs, rng))
        genie_u.append(u)
    return {"decode": np.stack(decode), "genie": np.stack(genie),
            "genie_u": np.stack(genie_u)}


def run_case(family: str, mode: str, list_size: int, crc_on: bool,
             inputs: dict) -> dict:
    """Decode one case; returns the arrays the corpus stores for it."""
    _, scheme, t, variant, frozen = next(f for f in FAMILIES if f[0] == family)
    spec = family_spec(scheme, t, variant, frozen)
    if mode == "genie":
        return {"first_error": genie_first_errors(spec, inputs["genie"],
                                                  inputs["genie_u"])}
    decode = scl_decode_batch if scheme == "hybrid" else baseline_decode_batch
    out = decode(spec, inputs["decode"], list_size, crc_on=crc_on, return_paths=True)
    # Survivors in lexicographic order of their u vectors, metrics alongside,
    # so the stored set does not depend on the order paths are kept in.
    order = np.stack([np.lexsort(u.T[::-1]) for u in out.all_u])
    return {"u_hat": out.u_hat, "crc_pass": out.crc_pass,
            "chosen_pm": out.chosen_pm, "list_rank": out.list_rank,
            "all_u": np.take_along_axis(out.all_u, order[:, :, None], axis=1),
            "all_pm": np.take_along_axis(out.all_pm, order, axis=1)}


def record(path: Path = CORPUS_PATH) -> None:
    arrays = {}
    for index, (family, *_) in enumerate(FAMILIES):
        inputs = family_inputs(index)
        for key, value in inputs.items():
            arrays[f"{family}__input__{key}"] = value
        for fam, mode, L, crc in CASES + SC_CASES:
            if fam != family:
                continue
            name = case_name(fam, mode, L, crc)
            for key, value in run_case(fam, mode, L, crc, inputs).items():
                arrays[f"{name}__{key}"] = value
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    record()
    print(f"wrote {CORPUS_PATH}")
