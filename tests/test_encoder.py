import numpy as np
import pytest

import oracles
from hybridpolar.codespec import CodeSpec, default_frozen_set
from hybridpolar.encoder import (bit_reversal_permutation, crc_attach, crc_check,
                                 crc_remainder_matrix, draw_coefficients, encode_baseline,
                                 encode_hybrid, encode_stage1, encode_stage2, message_u,
                                 multiplicative_repeat, polar_transform, stage1_block_map)
from hybridpolar.galois import build_field

GF16 = build_field(4)
CRC6 = 0b1000011

# Inputs recovered from the two worked encoder examples (n=8, r=3, t=4):
# both examples share the same message bits and repetition coefficients.
EXAMPLE_U = np.array([0, 0, 1, 1, 1, 0, 1, 1], dtype=np.int8)
EXAMPLE_RHO = np.array([[GF16.exp[8], GF16.exp[6]],
                        [GF16.exp[4], GF16.exp[1]]])


def spec_for(scheme="hybrid", n=16, k=8, t=2, r=2, p=0, variant="flat"):
    return CodeSpec(scheme=scheme, n=n, k=k, t=t, r=r, p=p,
                    crc_poly=CRC6 if p else 0,
                    frozen_set=default_frozen_set(n, k, p),
                    design_snr=2.0, encoder_variant=variant)


# --- CRC ---------------------------------------------------------------------

def test_crc_zero_message_gives_zero_crc():
    out = crc_attach(np.zeros(10, dtype=np.int8), CRC6, 6)
    assert not out.any()


def test_crc_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        msg = rng.integers(0, 2, size=rng.integers(1, 40))
        assert crc_check(crc_attach(msg, CRC6, 6), CRC6, 6)


def test_crc_single_one_matches_long_division():
    msg = [1]
    got = crc_attach(np.array(msg, dtype=np.int8), CRC6, 6)[1:]
    assert list(got) == oracles.crc_longdiv(msg, CRC6, 6)
    # x^6 mod (x^6 + x + 1) = x + 1
    assert list(got) == [0, 0, 0, 0, 1, 1]


def test_crc_matches_long_division_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        msg = list(rng.integers(0, 2, size=rng.integers(1, 30)))
        got = crc_attach(np.array(msg, dtype=np.int8), CRC6, 6)
        assert list(got[len(msg):]) == oracles.crc_longdiv(msg, CRC6, 6)
        assert oracles.crc_check_longdiv(list(got), CRC6, 6)
    # Batched over leading axes: every row is its own message.
    for length in (1, 7, 80):
        msgs = rng.integers(0, 2, size=(3, 4, length), dtype=np.int8)
        got = crc_attach(msgs, CRC6, 6)
        assert got.shape == (3, 4, length + 6)
        assert crc_check(got, CRC6, 6).all()
        for msg, block in zip(msgs.reshape(-1, length), got.reshape(-1, length + 6)):
            assert list(block[:length]) == list(msg)
            assert list(block[length:]) == oracles.crc_longdiv(list(msg), CRC6, 6)


def test_crc_detects_corruption():
    rng = np.random.default_rng(2)
    for _ in range(100):
        block = crc_attach(rng.integers(0, 2, size=20), CRC6, 6)
        flip = rng.integers(0, block.size)
        block[flip] ^= 1
        assert not crc_check(block, CRC6, 6)


def test_crc_remainder_matrix_consistent():
    rng = np.random.default_rng(3)
    m = crc_remainder_matrix(26, CRC6, 6)
    for _ in range(100):
        block = rng.integers(0, 2, size=26)
        synd = block @ m % 2
        assert (not synd.any()) == crc_check(block, CRC6, 6)


@pytest.mark.parametrize("poly, p", [(CRC6, 6), (0b11, 1), (0x1021 | 1 << 16, 16), (0, 0)])
@pytest.mark.parametrize("length", [1, 7, 86, 1030])
def test_crc_float_products_equal_the_int64_reference(poly, p, length):
    # crc_attach and crc_check multiply in float64; over random batches (all-ones rows
    # included) they give the int64 product's bits and verdicts exactly, and p = 0 passes
    # every block through unchanged.
    rng = np.random.default_rng(length + p)
    bits = rng.integers(0, 2, size=(5, 3, length), dtype=np.int8)
    bits[0, 0] = 1
    if p == 0:
        assert np.array_equal(crc_attach(bits, poly, p), bits)
        assert crc_check(bits, poly, p).all() and crc_check(bits, poly, p).shape == (5, 3)
        return
    attached = crc_attach(bits, poly, p)
    m = crc_remainder_matrix(length + p, poly, p).astype(np.int64)
    reference = bits.astype(np.int64) @ m[:length] % 2
    assert attached.dtype == np.int8
    assert attached.tobytes() == np.concatenate([bits, reference.astype(np.int8)], -1).tobytes()
    corrupted = attached.copy()
    corrupted[1] ^= rng.integers(0, 2, size=corrupted[1].shape, dtype=np.int8)
    for block in (attached, corrupted):
        expected = ~(block.astype(np.int64) @ m % 2).any(axis=-1)
        assert np.array_equal(crc_check(block, poly, p), expected)


# --- Polar transforms ----------------------------------------------------------

def test_polar_transform_zero():
    assert not polar_transform(np.zeros(16, dtype=np.int8)).any()


def test_polar_transform_last_unit_vector_gives_all_ones():
    e = np.zeros(16, dtype=np.int8)
    e[15] = 1
    assert polar_transform(e).all()


def test_polar_transform_kernel_n2():
    out = polar_transform(np.array([1, 0], dtype=np.int8))
    assert list(out) == [1, 0]
    out = polar_transform(np.array([0, 1], dtype=np.int8))
    assert list(out) == [1, 1]
    out = polar_transform(np.array([1, 1], dtype=np.int8))
    assert list(out) == [0, 1]


def test_polar_transform_matches_kron_matrix():
    rng = np.random.default_rng(4)
    for n in (2, 4, 8, 16, 32):
        for _ in range(20):
            u = rng.integers(0, 2, size=n, dtype=np.int8)
            assert np.array_equal(polar_transform(u),
                                  oracles.matrix_polar_transform(u))


def test_polar_transform_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, dtype=np.int8))


def test_bit_reversal_permutation():
    assert list(bit_reversal_permutation(4)) == [0, 2, 1, 3]
    assert list(bit_reversal_permutation(2)) == [0, 1]


# --- Stage 1 -------------------------------------------------------------------

def test_stage1_zero_input():
    assert not encode_stage1(np.zeros(16, dtype=np.int8), 4, "flat").any()
    assert not encode_stage1(np.zeros(16, dtype=np.int8), 4, "recursive").any()


def test_stage1_t1_identity():
    u = np.array([1, 0, 1, 1])
    assert np.array_equal(encode_stage1(u, 1, "flat"), u)
    assert np.array_equal(encode_stage1(u, 1, "recursive"), u)


def test_stage1_flat_example_symbols():
    a = encode_stage1(EXAMPLE_U, 4, "flat")
    assert list(a) == [GF16.exp[6], GF16.exp[13]]


def test_stage1_recursive_example_symbols():
    a = encode_stage1(EXAMPLE_U, 4, "recursive")
    assert list(a) == [GF16.exp[9], GF16.exp[7]]


def test_stage1_variants_agree_for_t2():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.integers(0, 2, size=32)
        assert np.array_equal(encode_stage1(u, 2, "flat"),
                              encode_stage1(u, 2, "recursive"))


def test_stage1_block_map_matches_matrix_oracle():
    for t in (1, 2, 4):
        for variant in ("flat", "recursive"):
            block_map = stage1_block_map(t, variant)
            assert list(block_map) == oracles.stage1_map_matrix(t, variant)
            # Cached: the same read-only table on every call.
            assert stage1_block_map(t, variant) is block_map
            assert not block_map.flags.writeable


@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("variant", ["flat", "recursive"])
def test_stage1_batch_matches_matrix_oracle(t, variant):
    # Every t-bit group of a (frames, n) batch maps through the dense-matrix kernel.
    oracle = oracles.stage1_map_matrix(t, variant)
    u = np.random.default_rng(11 + t).integers(0, 2, size=(5, 64), dtype=np.int8)
    a = encode_stage1(u, t, variant)
    assert a.shape == (5, 64 // t)
    for f, i in np.ndindex(a.shape):
        group = u[f, i * t:(i + 1) * t]
        assert a[f, i] == oracle[sum(int(b) << j for j, b in enumerate(group))]


def test_stage1_rejects_bad_length():
    with pytest.raises(ValueError):
        encode_stage1(np.zeros(10, dtype=np.int8), 4, "flat")


# --- Stage 2 -------------------------------------------------------------------

def test_stage2_pair_kernel():
    out = encode_stage2(np.array([3, 5]))
    assert list(out) == [6, 5]


def test_stage2_zero():
    assert not encode_stage2(np.zeros(8, dtype=np.int64)).any()


def test_stage2_equals_bitplane_transform():
    # XOR butterflies act independently on each bit plane, so unpacking
    # the symbol transform must equal per-plane binary transforms.
    rng = np.random.default_rng(6)
    for n2 in (2, 4, 8, 16):
        for t in (2, 4):
            a = rng.integers(0, 1 << t, size=n2)
            z = encode_stage2(a)
            for plane in range(t):
                a_bits = (a >> plane) & 1
                z_bits = (z >> plane) & 1
                assert np.array_equal(z_bits, oracles.matrix_polar_transform(a_bits))


# --- Inner codes ---------------------------------------------------------------

def test_repeat_r1_passthrough():
    z = np.array([3, 7, 1, 0])
    rho = draw_coefficients(4, 1, GF16, None)   # r = 1 draws nothing
    assert rho.shape == (0, 4)
    assert np.array_equal(multiplicative_repeat(z, 1, GF16, rho), z)


def test_repeat_unit_coefficients_plain_repetition():
    z = np.array([3, 7, 1, 0])
    ones = np.ones((2, 4), dtype=np.int64)
    assert np.array_equal(multiplicative_repeat(z, 3, GF16, ones), np.tile(z, 3))


def test_repeat_example1_golden_codeword():
    z = encode_stage2(encode_stage1(EXAMPLE_U, 4, "flat"))
    expect = [GF16.exp[e] for e in (0, 13, 8, 4, 4, 14)]
    assert list(multiplicative_repeat(z, 3, GF16, EXAMPLE_RHO)) == expect


def test_repeat_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        multiplicative_repeat(np.array([1, 2]), 2, GF16, np.array([[0, 1]]))


def test_repeat_rejects_a_negative_coefficient():
    # A negative index would wrap to the last row of the multiplication table.
    with pytest.raises(ValueError, match="nonzero field elements"):
        multiplicative_repeat(np.array([1, 2]), 2, GF16, np.array([[-1, 1]]))


def test_repeat_rejects_bad_shape():
    with pytest.raises(ValueError):
        multiplicative_repeat(np.array([1, 2]), 3, GF16, np.ones((1, 2), dtype=np.int64))


# --- Full chains -----------------------------------------------------------------

def test_encode_hybrid_zero_message_zero_codeword():
    spec = spec_for(n=16, k=8, t=4, r=4)
    rho = draw_coefficients(4, 4, GF16, np.random.default_rng(0))
    assert not encode_hybrid(np.zeros(8, dtype=np.int8), spec, rho).any()


def test_encode_hybrid_example2_golden_codeword():
    # n=8, unfrozen everywhere, recursive Stage 1.
    spec = CodeSpec(scheme="hybrid", n=8, k=8, t=4, r=3, p=0, crc_poly=0,
                    frozen_set=(), design_snr=2.0, encoder_variant="recursive")
    expect = [GF16.exp[e] for e in (0, 7, 8, 13, 4, 8)]
    assert list(encode_hybrid(EXAMPLE_U, spec, EXAMPLE_RHO)) == expect


def test_flat_and_recursive_differ_on_example():
    spec_f = CodeSpec(scheme="hybrid", n=8, k=8, t=4, r=3, p=0, crc_poly=0,
                      frozen_set=(), design_snr=2.0, encoder_variant="flat")
    spec_r = CodeSpec(scheme="hybrid", n=8, k=8, t=4, r=3, p=0, crc_poly=0,
                      frozen_set=(), design_snr=2.0, encoder_variant="recursive")
    assert not np.array_equal(encode_hybrid(EXAMPLE_U, spec_f, EXAMPLE_RHO),
                              encode_hybrid(EXAMPLE_U, spec_r, EXAMPLE_RHO))


def test_encode_baseline_properties():
    spec = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=3)
    assert not encode_baseline(np.zeros(8, dtype=np.int8), spec).any()
    spec1 = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=1)
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, size=8, dtype=np.int8)
    assert np.array_equal(encode_baseline(info, spec1), polar_transform(message_u(info, spec1)))


def test_hybrid_t1_unit_rho_equals_baseline_stream():
    n, k, p, r = 64, 24, 6, 4
    spec_h = spec_for(n=n, k=k, t=1, r=r, p=p)
    spec_b = spec_for(scheme="polar_repetition", n=n, k=k, t=1, r=r, p=p)
    ones = np.ones((r - 1, n), dtype=np.int64)
    rng = np.random.default_rng(8)
    for _ in range(100):
        info = rng.integers(0, 2, size=k, dtype=np.int8)
        assert np.array_equal(encode_hybrid(info, spec_h, ones), encode_baseline(info, spec_b))


def test_outer_chain_gf2_linearity_fixed_rho():
    spec = CodeSpec(scheme="hybrid", n=16, k=16, t=4, r=3, p=0, crc_poly=0,
                    frozen_set=(), design_snr=2.0)
    rng = np.random.default_rng(9)
    rho = rng.integers(1, 16, size=(2, 4))
    for _ in range(50):
        u1 = rng.integers(0, 2, size=16, dtype=np.int8)
        u2 = rng.integers(0, 2, size=16, dtype=np.int8)
        cw1 = encode_hybrid(u1, spec, rho)
        cw2 = encode_hybrid(u2, spec, rho)
        assert np.array_equal(encode_hybrid(u1 ^ u2, spec, rho), cw1 ^ cw2)


def test_repeated_blocks_share_zero_pattern():
    spec = spec_for(n=16, k=8, t=2, r=4)
    tables = build_field(2)
    rng = np.random.default_rng(10)
    for _ in range(20):
        info = rng.integers(0, 2, size=8, dtype=np.int8)
        rho = draw_coefficients(8, 4, tables, rng)
        blocks = encode_hybrid(info, spec, rho).reshape(4, -1)
        for j in range(1, 4):
            assert np.array_equal(blocks[j] != 0, blocks[0] != 0)


# --- Message framing ---------------------------------------------------------------

def test_message_frame_layout():
    spec = spec_for(n=16, k=6, t=2, r=2, p=6)
    info = np.array([1, 0, 1, 1, 0, 1], dtype=np.int8)
    u = message_u(info, spec)
    assert u.shape == (16,)
    assert not u[list(spec.frozen_set)].any()
    unfrozen = spec.unfrozen_indices()
    assert np.array_equal(u[unfrozen[:6]], info)
    assert crc_check(u[unfrozen], CRC6, 6)


def test_message_frame_rejects_wrong_length():
    spec = spec_for(n=16, k=6, t=2, r=2, p=6)
    with pytest.raises(ValueError):
        message_u(np.zeros(5, dtype=np.int8), spec)

