import numpy as np
import pytest

import oracles
from hybridpolar.galois import build_field, pack_bits_array, unpack_symbol_array


def test_gf16_alpha_fourth_power_is_alpha_plus_one():
    gf = build_field(4, 0b10011)
    assert gf.exp[4] == 0b0011


def test_gf4_exp_table():
    gf = build_field(2, 0b111)
    assert list(gf.exp) == [1, 2, 3]


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError):
        build_field(4, 0b10001)  # x^4 + 1 = (x+1)^4


def test_irreducible_but_not_primitive_rejected():
    # x^4+x^3+x^2+x+1 is irreducible but its root has order 5, not 15.
    with pytest.raises(ValueError):
        build_field(4, 0b11111)


def test_wrong_degree_rejected():
    with pytest.raises(ValueError):
        build_field(4, 0b111)
    with pytest.raises(ValueError):
        build_field(3)


def test_build_field_is_cached_and_read_only():
    gf = build_field(4)
    assert build_field(4) is gf
    for table in (gf.exp, gf.log, gf.mul):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        gf.mul[2, 3] = 0
    assert gf.mul[2, 3] == oracles.gf_mul(2, 3, gf)


def test_bad_modulus_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            build_field(4, 0b11111)


def test_gf2_degenerate_field():
    gf = build_field(1)
    assert gf.q == 2
    assert list(gf.exp) == [1]
    assert gf.mul[1, 1] == 1


def test_gf_mul_exponent_arithmetic():
    gf = build_field(4)
    a13, a8, a6 = gf.exp[13], gf.exp[8], gf.exp[6]
    assert gf.mul[a13, a8] == a6
    assert gf.mul[0, a8] == 0
    assert gf.mul[gf.exp[1], gf.exp[14]] == 1


def test_gf_add():
    # Field addition is XOR of the coefficient bits: alpha + 1 = alpha^4 under x^4 + x + 1.
    gf = build_field(4)
    assert gf.exp[1] ^ gf.exp[0] == gf.exp[4]


def test_mul_table_matches_scalar():
    for t in (2, 4):
        gf = build_field(t)
        for a in range(gf.q):
            for b in range(gf.q):
                assert gf.mul[a, b] == oracles.gf_mul(a, b, gf)


def test_every_nonzero_element_invertible():
    for t in (2, 4):
        gf = build_field(t)
        inverse = gf.exp[-gf.log[1:] % (gf.q - 1)]   # alpha^(-log a)
        for a, b in zip(range(1, gf.q), inverse):
            assert oracles.gf_mul(a, int(b), gf) == 1
        # Each nonzero element has exactly one inverse in the table; 0 has none.
        assert ((gf.mul == 1).sum(axis=1) == [0] + [1] * (gf.q - 1)).all()


def test_distributivity_exhaustive():
    for t in (2, 4):
        gf = build_field(t)
        for a in range(gf.q):
            for b in range(gf.q):
                for c in range(gf.q):
                    lhs = oracles.gf_mul(a, b ^ c, gf)
                    rhs = oracles.gf_mul(a, b, gf) ^ oracles.gf_mul(a, c, gf)
                    assert lhs == rhs


def test_exp_table_is_permutation_of_nonzero():
    for t in (1, 2, 4):
        gf = build_field(t)
        assert sorted(gf.exp) == list(range(1, gf.q))
        for j in range(gf.q - 1):
            assert gf.log[gf.exp[j]] == j


def test_pack_convention_first_bit_is_alpha0():
    assert pack_bits_array(np.array([[1, 0, 0, 0], [0, 0, 0, 0]])).tolist() == [0b0001, 0]
    assert pack_bits_array(np.array([0, 1])) == 0b10


def test_pack_unpack_bijection_t4():
    bits = unpack_symbol_array(np.arange(16), 4)
    assert bits.shape == (16, 4) and set(bits.ravel()) == {0, 1}
    assert len({tuple(row) for row in bits}) == 16
    assert pack_bits_array(bits).tolist() == list(range(16))


def test_array_pack_roundtrip():
    vals = np.arange(16)
    bits = unpack_symbol_array(vals, 4)
    assert np.array_equal(pack_bits_array(bits), vals)
