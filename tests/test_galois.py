import numpy as np
import pytest

from hybridpolar.galois import (build_field, gf_add, gf_mul, pack_bits,
                                pack_bits_array, unpack_symbol,
                                unpack_symbol_array)


def test_gf16_alpha_fourth_power_is_alpha_plus_one():
    gf = build_field(4, 0b10011)
    assert gf.alpha_power(4) == 0b0011


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
    assert gf.mul[2, 3] == gf_mul(2, 3, gf)


def test_bad_modulus_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            build_field(4, 0b11111)


def test_gf2_degenerate_field():
    gf = build_field(1)
    assert gf.q == 2
    assert list(gf.exp) == [1]
    assert gf_mul(1, 1, gf) == 1


def test_gf_mul_exponent_arithmetic():
    gf = build_field(4)
    a13, a8, a6 = gf.alpha_power(13), gf.alpha_power(8), gf.alpha_power(6)
    assert gf_mul(a13, a8, gf) == a6
    assert gf_mul(0, a8, gf) == 0
    assert gf_mul(gf.alpha_power(1), gf.alpha_power(14), gf) == 1


def test_gf_add():
    gf = build_field(4)
    for a in range(16):
        assert gf_add(a, a) == 0
        assert gf_add(a, 0) == a
    assert gf_add(0b10, 0b01) == gf.alpha_power(4)  # alpha + 1 = alpha^4


def test_mul_table_matches_scalar():
    for t in (2, 4):
        gf = build_field(t)
        for a in range(gf.q):
            for b in range(gf.q):
                assert gf.mul[a, b] == gf_mul(a, b, gf)


def test_every_nonzero_element_invertible():
    for t in (2, 4):
        gf = build_field(t)
        for a in range(1, gf.q):
            assert gf_mul(a, gf.inverse(a), gf) == 1
    with pytest.raises(ZeroDivisionError):
        build_field(2).inverse(0)


def test_distributivity_exhaustive():
    for t in (2, 4):
        gf = build_field(t)
        for a in range(gf.q):
            for b in range(gf.q):
                for c in range(gf.q):
                    lhs = gf_mul(a, gf_add(b, c), gf)
                    rhs = gf_add(gf_mul(a, b, gf), gf_mul(a, c, gf))
                    assert lhs == rhs


def test_exp_table_is_permutation_of_nonzero():
    for t in (1, 2, 4):
        gf = build_field(t)
        assert sorted(gf.exp) == list(range(1, gf.q))
        for j in range(gf.q - 1):
            assert gf.log[gf.exp[j]] == j


def test_pack_convention_first_bit_is_alpha0():
    assert pack_bits((1, 0, 0, 0)) == 0b0001
    assert pack_bits((0, 0, 0, 0)) == 0
    assert pack_bits((0, 1)) == 0b10


def test_pack_unpack_bijection_t4():
    seen = set()
    for s in range(16):
        bits = unpack_symbol(s, 4)
        assert pack_bits(bits) == s
        seen.add(bits)
    assert len(seen) == 16


def test_pack_rejects_bad_input():
    with pytest.raises(ValueError):
        pack_bits((0, 2))
    with pytest.raises(ValueError):
        unpack_symbol(16, 4)


def test_array_pack_roundtrip():
    vals = np.arange(16)
    bits = unpack_symbol_array(vals, 4)
    assert np.array_equal(pack_bits_array(bits), vals)
