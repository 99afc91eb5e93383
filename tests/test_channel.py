import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridpolar import encoder
from hybridpolar.channel import (ChannelConfig, bpsk_modulate, initial_llrs, pinned_coefficients,
                                 seeded_rng, transmit, transmit_frames)
from hybridpolar.codespec import CodeSpec, default_frozen_set
from hybridpolar.decoder import combine_repetitions
from hybridpolar.galois import build_field, unpack_symbol_array


def test_bpsk_zero_symbol_all_plus_one():
    x = bpsk_modulate(np.array([0]), 4)
    assert np.array_equal(x, np.ones(4))


def test_bpsk_t1_bit_one_maps_to_minus_one():
    assert bpsk_modulate(np.array([1]), 1)[0] == -1.0


def test_bpsk_gf4_alpha():
    # alpha = 0b10: alpha^0 coefficient 0 -> +1 first, then -1.
    x = bpsk_modulate(np.array([0b10]), 2)
    assert list(x) == [1.0, -1.0]


@pytest.mark.parametrize("t", [1, 2, 4])
def test_bpsk_matches_unpacked_bits(t):
    # The table lookup gives the samples 1 - 2 * bit, alpha^0 coefficient first.
    symbols = np.random.default_rng(t).integers(0, 1 << t, size=(3, 5))
    expected = 1.0 - 2.0 * unpack_symbol_array(symbols, t).astype(np.float64)
    assert np.array_equal(bpsk_modulate(symbols, t), expected.reshape(3, 5 * t))


def test_awgn_noiseless_is_identity():
    cfg = ChannelConfig("awgn", ebn0_db=400.0, rate=0.5)
    x = np.array([1.0, -1.0, 1.0, 1.0])
    y, h = transmit(x, cfg, np.random.default_rng(0))
    assert np.allclose(y, x, atol=1e-60)
    assert np.array_equal(h, np.ones(4))


def test_rayleigh_noiseless_is_scaled_identity():
    cfg = ChannelConfig("rayleigh_block", ebn0_db=400.0, rate=0.5, fading_blocks=2)
    x = np.ones(8)
    y, h = transmit(x, cfg, np.random.default_rng(1))
    assert np.allclose(y, h * x, atol=1e-60)
    # gains constant within each block
    assert len(set(h[:4])) == 1 and len(set(h[4:])) == 1


def test_awgn_noise_variance_estimate():
    cfg = ChannelConfig("awgn", ebn0_db=0.0, rate=0.5)
    x = np.zeros(1_000_000)
    y, _ = transmit(x, cfg, np.random.default_rng(2))
    assert abs(np.var(y) - cfg.sigma2) / cfg.sigma2 < 0.01


def test_rayleigh_gain_second_moment():
    cfg = ChannelConfig("rayleigh_block", ebn0_db=400.0, rate=0.5,
                        fading_blocks=1_000_000)
    x = np.zeros(1_000_000)
    _, h = transmit(x, cfg, np.random.default_rng(3))
    assert abs(np.mean(h ** 2) - 1.0) < 0.01


def test_rayleigh_block_count_must_divide():
    cfg = ChannelConfig("rayleigh_block", ebn0_db=0.0, rate=0.5, fading_blocks=3)
    with pytest.raises(ValueError, match="fading_blocks=3 does not divide sample count 8"):
        transmit(np.ones(8), cfg, np.random.default_rng(0))


@pytest.mark.parametrize("scheme, t", [("polar_repetition", 1), ("hybrid", 2)])
def test_transmit_frames_rejects_block_count_before_any_draw(scheme, t):
    spec = CodeSpec(scheme=scheme, n=16, k=8, t=t, r=2, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(16, 8, 0), design_snr=1.0)
    cfg = ChannelConfig("rayleigh_block", ebn0_db=0.0, rate=spec.rate, fading_blocks=3)
    rngs = [seeded_rng(1, 0, j) for j in range(2)]
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ValueError, match="fading_blocks=3 does not divide sample count 32"):
        transmit_frames(spec, cfg, np.zeros((2, 16), dtype=np.int8), rngs)
    assert [rng.bit_generator.state for rng in rngs] == states


def test_sigma2_formula():
    cfg = ChannelConfig("awgn", ebn0_db=0.0, rate=0.5)
    assert cfg.sigma2 == 1.0
    cfg = ChannelConfig("awgn", ebn0_db=3.0, rate=0.25)
    assert np.isclose(cfg.sigma2, 1.0 / (2 * 0.25 * 10 ** 0.3))


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig("laplace", 0.0, 0.5)
    with pytest.raises(ValueError):
        ChannelConfig("awgn", 0.0, 0.0)
    with pytest.raises(ValueError):
        ChannelConfig("rayleigh_block", 0.0, 0.5, fading_blocks=0)


@pytest.mark.parametrize("ebn0_db", [float("nan"), float("inf"), -float("inf"),
                                     4000.0, -4000.0, 3080.0, 1600.0])
def test_config_rejects_unusable_snr(ebn0_db):
    # nan gives a nan sigma^2; +-4000 dB overflows or underflows 10^(Eb/N0/10);
    # 3080 dB gives a finite sigma^2 whose LLR scale overflows the decoder's
    # sums, and 1600 dB an LLR scale of 2e160, over the bound.
    with pytest.raises(ValueError, match="Eb/N0"):
        ChannelConfig("awgn", ebn0_db, 0.5)


def symbol_llrs(y, h, sigma2, t):
    """The (n_symbols, 2^t) symbol LLRs of one unrepeated observation."""
    bits = initial_llrs(y, h, sigma2)
    return combine_repetitions(bits, np.zeros((0, bits.size // t), dtype=np.int64),
                               build_field(t))


def test_initial_llrs_reference_entry_zero():
    rng = np.random.default_rng(4)
    y = rng.normal(size=12)
    s = symbol_llrs(y, np.ones(12), 0.7, 4)
    assert s.shape == (3, 16)
    assert np.array_equal(s[:, 0], np.zeros(3))


def test_initial_llrs_t1_against_density_oracle():
    s = symbol_llrs(np.array([1.0]), np.array([1.0]), 1.0, 1)
    assert np.isclose(s[0, 1], 2.0)
    assert np.isclose(s[0, 1], oracles.density_bit_llr(1.0, 1.0, 1.0))
    assert np.isclose(initial_llrs(np.array([1.0]), np.array([1.0]), 1.0)[0],
                      oracles.density_bit_llr(1.0, 1.0, 1.0))


def test_initial_llrs_match_density_oracle():
    rng = np.random.default_rng(5)
    for t in (1, 2, 4):
        y = rng.normal(size=4 * t)
        h = rng.uniform(0.2, 2.0, size=4 * t)
        sigma2 = 0.37
        s = symbol_llrs(y, h, sigma2, t)
        for i in range(4):
            ref = oracles.density_symbol_llr(y[i * t:(i + 1) * t],
                                             h[i * t:(i + 1) * t], sigma2, t)
            assert np.allclose(s[i], ref, atol=1e-9)


def test_initial_llrs_fading_with_unit_gain_equals_awgn():
    # Block fading draws one positive gain per block of N/B samples, and the
    # receiver's LLRs are (2/sigma^2) * h * y; with unit gains that is the AWGN rule.
    rng = np.random.default_rng(6)
    x = bpsk_modulate(rng.integers(0, 4, size=32), 2)            # N = 64 samples
    cfg = ChannelConfig("rayleigh_block", ebn0_db=2.0, rate=0.5, fading_blocks=4)
    y, h = transmit(x, cfg, rng)
    blocks = h.reshape(4, 16)
    assert (h > 0).all() and (blocks == blocks[:, :1]).all()
    assert len(np.unique(blocks[:, 0])) == 4
    lam = initial_llrs(y, h, cfg.sigma2)
    np.testing.assert_allclose(lam, (2.0 / cfg.sigma2) * h * y, rtol=1e-15, atol=0)
    awgn = initial_llrs(y, np.ones_like(h), cfg.sigma2)
    np.testing.assert_allclose(awgn, (2.0 / cfg.sigma2) * y, rtol=1e-15, atol=0)


def test_transmitted_symbol_attains_minimum_llr_at_low_noise():
    rng = np.random.default_rng(7)
    symbols = rng.integers(0, 16, size=32)
    x = bpsk_modulate(symbols, 4)
    cfg = ChannelConfig("awgn", ebn0_db=20.0, rate=0.5)
    y, h = transmit(x, cfg, rng)
    s = symbol_llrs(y, h, cfg.sigma2, 4)
    assert np.array_equal(np.argmin(s, axis=1), symbols)


def test_llr_additive_over_disjoint_bit_supports():
    rng = np.random.default_rng(8)
    y = rng.normal(size=4)
    s = symbol_llrs(y, np.ones(4), 1.3, 4)[0]
    for a in range(16):
        for b in range(16):
            if a & b == 0:
                assert np.isclose(s[a ^ b], s[a] + s[b], atol=1e-12)


def test_initial_llrs_rejects_nonpositive_sigma2():
    with pytest.raises(ValueError):
        initial_llrs(np.ones(2), np.ones(2), 0.0)


def test_initial_llrs_rejects_bad_length():
    # Five samples are not a whole number of t = 2 symbols.
    with pytest.raises(ValueError):
        symbol_llrs(np.ones(5), np.ones(5), 1.0, 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), size=st.integers(1, 300),
       sigma2=st.floats(1e-12, 1e12, allow_subnormal=False))
def test_scaled_standard_normal_is_normal_bitwise(seed, size, sigma2):
    # The channel draws its noise as sigma * standard_normal into a reused buffer; that is
    # rng.normal(0, sigma) bit for bit, and leaves the stream at the same place.
    sigma = np.sqrt(sigma2)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = a.normal(0.0, sigma, size)
    buf = np.empty(size)
    b.standard_normal(out=buf)
    buf *= sigma
    assert buf.tobytes() == expected.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def frame_by_frame(spec, cfg, u, rngs, pinned):
    """The single-frame chain per generator: coefficients, encode, modulate, transmit, LLRs."""
    hybrid = spec.scheme == "hybrid"
    tables = spec.field_tables() if hybrid else None
    rows = []
    for u_row, rng in zip(u, rngs):
        rho = None
        if hybrid:
            rho = pinned if pinned is not None else encoder.draw_coefficients(
                spec.n // spec.t, spec.r, tables, rng)
        symbols = encoder.encode_u_vector(u_row, spec, tables, rho)
        y, h = transmit(bpsk_modulate(symbols, spec.t if hybrid else 1), cfg, rng)
        llrs = initial_llrs(y, h, cfg.sigma2)
        rows.append(combine_repetitions(llrs, rho, tables) if hybrid else llrs)
    return np.stack(rows)


@pytest.mark.parametrize("kind, blocks", [("awgn", 0), ("rayleigh_block", 4)])
@pytest.mark.parametrize("scheme, t, pin", [("polar_repetition", 1, False),
                                            ("hybrid", 1, False), ("hybrid", 1, True),
                                            ("hybrid", 2, False), ("hybrid", 2, True),
                                            ("hybrid", 4, False), ("hybrid", 4, True)])
def test_transmit_frames_equals_the_single_frame_chain(kind, blocks, scheme, t, pin):
    # Bit for bit, whatever the batch: one call, two calls on a split batch, and the
    # public per-frame functions stacked.
    spec = CodeSpec(scheme=scheme, n=32, k=16, t=t, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(32, 16, 0), design_snr=1.0)
    cfg = ChannelConfig(kind, ebn0_db=-1.0, rate=spec.rate, fading_blocks=blocks)
    pinned = pinned_coefficients(spec, 5) if pin else None

    def generators():
        """The u vectors and the frame generators past their u draw, as a simulation has them."""
        rngs = [seeded_rng(5, 0, j) for j in range(5)]
        return np.stack([rng.integers(0, 2, size=spec.n, dtype=np.int8) for rng in rngs]), rngs

    u, rngs = generators()
    whole = transmit_frames(spec, cfg, u, rngs, pinned)
    u, rngs = generators()
    split = np.concatenate([transmit_frames(spec, cfg, u[:2], rngs[:2], pinned),
                            transmit_frames(spec, cfg, u[2:], rngs[2:], pinned)])
    u, rngs = generators()
    reference = frame_by_frame(spec, cfg, u, rngs, pinned)
    assert whole.shape == ((5, spec.n // t, 1 << t) if scheme == "hybrid" else (5, spec.N))
    assert whole.tobytes() == split.tobytes() == reference.tobytes()
