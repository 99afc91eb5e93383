import numpy as np
import pytest

import oracles
from hybridpolar.channel import ChannelConfig, bpsk_modulate, initial_llrs, transmit
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
    with pytest.raises(ValueError):
        transmit(np.ones(8), cfg, np.random.default_rng(0))


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
    rng = np.random.default_rng(6)
    y = rng.normal(size=16)
    s_awgn = symbol_llrs(y, np.ones(16), 0.5, 2)
    s_fade = symbol_llrs(y, np.ones(16), 0.5, 2)
    assert np.array_equal(s_awgn, s_fade)


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
