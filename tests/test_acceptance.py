"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 7 and 8 are statistical frame-error comparisons at full block
length and run for a long time; they carry the ``extended`` marker.
Deselect them with ``-m 'not extended'`` for quick runs.
"""

import time

import numpy as np
import pytest

import oracles
from hybridpolar import cli
from hybridpolar import channel as ch
from hybridpolar import decoder as dec
from hybridpolar import encoder as enc
from hybridpolar.analysis import brute_force_weights, enumerate_low_weight
from hybridpolar.codespec import (CodeSpec, construct_code, default_frozen_set,
                                  load_spec, monte_carlo_construct)
from hybridpolar.galois import build_field

CRC6 = 0b1000011


# ---------------------------------------------------------------------------
# batched frame pipeline used by the statistical criteria
# ---------------------------------------------------------------------------

def run_hybrid_frames(spec, tables, info, coeffs, cfg, rng):
    """Encode, transmit and decode-ready LLRs for a batch of frames.

    One generator serves the whole batch, as when the criteria were set.
    """
    symbols = oracles.channel_stream(enc.message_u(info, spec), spec, tables, coeffs)
    x = ch.bpsk_modulate(symbols, spec.t)
    y, h = ch.transmit(x, cfg, rng)
    return dec.combine_repetitions(ch.initial_llrs(y, h, cfg.sigma2), coeffs, tables)


# ---------------------------------------------------------------------------
# criterion 1: operation-count table
# ---------------------------------------------------------------------------

def test_criterion_1_complexity_table(capsys):
    t0 = time.perf_counter()
    assert cli.main(["complexity", "--all-table1"]) == 0
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    for total in (19200, 13056, 10304, 42240, 25408, 17920,
                  260160, 129152, 71792):
        assert str(total) in out
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: golden encoder vectors
# ---------------------------------------------------------------------------

def test_criterion_2_golden_vectors():
    gf16 = build_field(4, 0b10011)
    u = np.array([0, 0, 1, 1, 1, 0, 1, 1], dtype=np.int8)
    rho = np.array([[gf16.alpha_power(8), gf16.alpha_power(6)],
                    [gf16.alpha_power(4), gf16.alpha_power(1)]])
    z_flat = enc.encode_stage2(enc.encode_stage1(u, 4, "flat"))
    cw_flat = enc.multiplicative_repeat(z_flat, 3, gf16, coefficients=rho)
    assert list(cw_flat.symbols) == [gf16.alpha_power(e)
                                     for e in (0, 13, 8, 4, 4, 14)]
    z_rec = enc.encode_stage2(enc.encode_stage1(u, 4, "recursive"))
    cw_rec = enc.multiplicative_repeat(z_rec, 3, gf16, coefficients=rho)
    assert list(cw_rec.symbols) == [gf16.alpha_power(e)
                                    for e in (0, 7, 8, 13, 4, 8)]


# ---------------------------------------------------------------------------
# criterion 3: optimized updates match enumeration oracles
# ---------------------------------------------------------------------------

def test_criterion_3_update_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_vectors = 10_000
    for t in (2, 4):
        q = 1 << t
        maps = {v: oracles.stage1_map_matrix(t, v) for v in ("flat", "recursive")}
        sp = rng.normal(size=(n_vectors, q)) * 4
        sm = rng.normal(size=(n_vectors, q)) * 4
        sp[:, 0] = sm[:, 0] = 0.0
        u0s = rng.integers(0, q, size=n_vectors)
        plus = dec.stage2_plus(sp, sm)
        minus = dec.stage2_minus(sp, sm, u0s)
        for i in range(n_vectors):
            assert np.allclose(plus[i], oracles.stage2_plus_enum(sp[i], sm[i]),
                               atol=1e-9)
            assert np.allclose(minus[i],
                               oracles.stage2_minus_enum(sp[i], sm[i], int(u0s[i])),
                               atol=1e-9)
        # Stage-1 extraction on every vector, random bit and prefix.
        for i in range(n_vectors):
            s = sp[i]
            bit = int(rng.integers(0, t))
            prefix = list(rng.integers(0, 2, size=bit))
            variant = ("flat", "recursive")[i % 2]
            got = dec.stage1_bit_llr(s, prefix, bit, t, variant)
            pfx_val = sum(b << j for j, b in enumerate(prefix))
            best = [np.inf, np.inf]
            for beta in (0, 1):
                for c in range(1 << (t - 1 - bit)):
                    w = pfx_val | (beta << bit) | (c << (bit + 1))
                    best[beta] = min(best[beta], s[maps[variant][w]])
            assert abs(got - (best[1] - best[0])) <= 1e-9
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4: degenerate equivalence with the baseline scheme
# ---------------------------------------------------------------------------

def test_criterion_4_degenerate_equivalence():
    n, k, p, r, frames = 128, 40, 6, 4, 1000
    frozen = monte_carlo_construct(
        CodeSpec("polar_repetition", n=n, k=k, t=1, r=r, p=p, crc_poly=CRC6,
                 frozen_set=default_frozen_set(n, k, p), design_snr=1.0),
        trials=2000, seed=99)
    spec_b = CodeSpec("polar_repetition", n=n, k=k, t=1, r=r, p=p,
                      crc_poly=CRC6, frozen_set=frozen, design_snr=1.0)
    spec_h = CodeSpec("hybrid", n=n, k=k, t=1, r=r, p=p, crc_poly=CRC6,
                      frozen_set=frozen, design_snr=1.0)
    gf2 = build_field(1)
    ones = np.ones((frames, r - 1, n), dtype=np.int64)
    cfg = ch.ChannelConfig("awgn", 1.0, spec_b.rate)
    rng = np.random.default_rng(501)
    info = rng.integers(0, 2, size=(frames, k), dtype=np.int8)
    u = enc.message_u(info, spec_b)

    x_b = 1.0 - 2.0 * oracles.channel_stream(u, spec_b, None)
    symbols_h = oracles.channel_stream(u, spec_h, gf2, ones)
    x_h = ch.bpsk_modulate(symbols_h, 1)
    assert np.array_equal(x_b, x_h)  # bit-identical channel streams

    y, h = ch.transmit(x_b, cfg, rng)
    llrs = ch.initial_llrs(y, h, cfg.sigma2)
    s_inner = dec.combine_repetitions(llrs, ones, gf2)
    for L in (1, 4):
        out_b = dec.baseline_decode_batch(spec_b, llrs, L)
        out_h = dec.scl_decode_batch(spec_h, s_inner, L)
        assert np.array_equal(out_b.u_hat, out_h.u_hat)
        assert np.array_equal(out_b.crc_pass, out_h.crc_pass)


# ---------------------------------------------------------------------------
# criterion 5: noiseless round trips
# ---------------------------------------------------------------------------

def test_criterion_5_noiseless_roundtrip():
    rng = np.random.default_rng(77)
    frames = 1000
    for n in (64, 128, 256):
        for t in (1, 2, 4):
            for variant in ("flat", "recursive"):
                k = n // 2
                spec = CodeSpec("hybrid", n=n, k=k, t=t, r=2, p=0, crc_poly=0,
                                frozen_set=default_frozen_set(n, k, 0),
                                design_snr=2.0, encoder_variant=variant)
                tables = spec.field_tables()
                cfg = ch.ChannelConfig("awgn", 60.0, spec.rate)
                info = rng.integers(0, 2, size=(frames, k), dtype=np.int8)
                coeffs = rng.integers(1, 1 << t,
                                      size=(frames, spec.r - 1, n // t))
                s_inner = run_hybrid_frames(spec, tables, info, coeffs, cfg, rng)
                unfrozen = spec.unfrozen_indices()[:k]
                for L in (1, 4, 16):
                    out = dec.scl_decode_batch(spec, s_inner, L, crc_on=False)
                    assert np.array_equal(out.u_hat[:, unfrozen], info), \
                        f"decode failure at n={n}, t={t}, {variant}, L={L}"


# ---------------------------------------------------------------------------
# criterion 6: weight-spectrum oracle
# ---------------------------------------------------------------------------

def test_criterion_6_weight_spectrum_oracle():
    t0 = time.perf_counter()
    spec = CodeSpec("hybrid", n=16, k=6, t=2, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(16, 6, 0), design_snr=2.0)
    exact = brute_force_weights(spec, seed=42)
    est = enumerate_low_weight(spec, list_size=1024, high_snr_db=40.0, seed=42)
    assert est.min_weight == exact.min_weight
    assert est.counts[est.min_weight] == exact.counts[exact.min_weight]
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criteria 7 and 8: frame-error orderings at full block length
# ---------------------------------------------------------------------------

_FULL_SCALE = dict(n=512, k=80, p=6, r=16)


@pytest.fixture(scope="module")
def full_scale_specs():
    """The three N=8192 codes, Monte-Carlo constructed at gamma = 2 dB.

    20k ranking trials: the resulting frozen sets are identical to the
    50k-trial ones at these parameters and construction stays fast.
    """
    out = {}
    for name, scheme, t in (("baseline", "polar_repetition", 1),
                            ("gf4", "hybrid", 2), ("gf16", "hybrid", 4)):
        params = CodeSpec(scheme, n=_FULL_SCALE["n"], k=_FULL_SCALE["k"], t=t,
                          r=_FULL_SCALE["r"], p=_FULL_SCALE["p"], crc_poly=CRC6,
                          frozen_set=default_frozen_set(
                              _FULL_SCALE["n"], _FULL_SCALE["k"], _FULL_SCALE["p"]),
                          design_snr=2.0)
        out[name] = construct_code(params, trials=20_000, seed=1000)
    return out


def _ci95(errors: int, frames: int) -> tuple:
    p = errors / frames
    half = 1.96 * np.sqrt(p * (1 - p) / frames)
    return p - half, p + half


@pytest.mark.extended
def test_criterion_7_awgn_fer_ordering(full_scale_specs):
    from hybridpolar.cli import simulate_point

    results = {}
    for name in ("baseline", "gf16"):
        rec = simulate_point(full_scale_specs[name], ebn0_db=1.5, list_size=8,
                             seed=5, max_frames=1_000_000, target_errors=200)
        assert rec.frame_errors >= 200
        results[name] = rec
    lo_base, _ = _ci95(results["baseline"].frame_errors, results["baseline"].frames)
    _, hi_gf16 = _ci95(results["gf16"].frame_errors, results["gf16"].frames)
    assert results["gf16"].fer < results["baseline"].fer
    assert hi_gf16 < lo_base, (
        f"confidence intervals overlap: gf16 up to {hi_gf16:.4g}, "
        f"baseline from {lo_base:.4g}")


@pytest.mark.extended
def test_criterion_8_rayleigh_fer_ordering(full_scale_specs):
    from hybridpolar.cli import simulate_point

    results = {}
    for name in ("baseline", "gf4", "gf16"):
        rec = simulate_point(full_scale_specs[name], ebn0_db=4.0, list_size=8,
                             seed=5, max_frames=1_000_000, target_errors=100,
                             channel_kind="rayleigh_block", fading_blocks=16)
        assert rec.frame_errors >= 100
        results[name] = rec
    assert results["gf16"].fer < results["gf4"].fer < results["baseline"].fer, (
        {name: rec.fer for name, rec in results.items()})


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns
# ---------------------------------------------------------------------------

def _strip_wall(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().splitlines())


def test_criterion_9_determinism(tmp_path):
    config = """\
scheme = hybrid
n = 64
k = 20
t = 2
r = 4
list_size = 4
crc_poly = 0x43
crc_len = 6
channel = {channel}
fading_blocks = {blocks}
design_snr = 1.0
ebn0_list = 1.0,3.0
seed = 2718
max_frames = 150
target_errors = 25
encoder_variant = flat
pin_coefficients = false
"""
    for channel, blocks in (("awgn", 0), ("rayleigh_block", 4)):
        cfg_path = tmp_path / f"{channel}.cfg"
        cfg_path.write_text(config.format(channel=channel, blocks=blocks))
        spec_path = tmp_path / f"{channel}.spec"
        assert cli.main(["construct", str(cfg_path), "-o", str(spec_path),
                         "--trials", "500"]) == 0
        outs = []
        for run in range(2):
            out = tmp_path / f"{channel}-{run}.csv"
            assert cli.main(["simulate", str(cfg_path), "--spec", str(spec_path),
                             "-o", str(out)]) == 0
            outs.append(out.read_text())
        assert _strip_wall(outs[0]) == _strip_wall(outs[1])
