import dataclasses
import functools
import gc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from decode_corpus import PM_TOL
from hybridpolar import channel as ch
from hybridpolar import decoder
from hybridpolar import encoder as enc
from hybridpolar.codespec import CodeSpec, default_frozen_set, load_spec
from hybridpolar.decoder import (_f_bin, _finalize, _g_bin, _gather_paths, _PathState,
                                 _rate0_bin, baseline_decode_batch, combine_baseline,
                                 combine_repetitions, genie_first_errors, scl_decode_batch,
                                 stage1_bit_llr, stage2_minus, stage2_plus,
                                 stage2_rate0_penalty)
from hybridpolar.galois import build_field

GF4 = build_field(2)
GF16 = build_field(4)
CRC6 = 0b1000011


def spec_for(scheme="hybrid", n=16, k=8, t=2, r=2, p=0, variant="flat", frozen=None):
    return CodeSpec(scheme=scheme, n=n, k=k, t=t, r=r, p=p,
                    crc_poly=CRC6 if p else 0,
                    frozen_set=default_frozen_set(n, k, p) if frozen is None else frozen,
                    design_snr=2.0, encoder_variant=variant)


@st.composite
def frozen_sets(draw, n):
    """Frozen sets with scattered bits plus whole aligned blocks anywhere.

    The blocks make all-frozen (rate-0) subtrees of every size land in
    either half, next to partly frozen and unfrozen ones.
    """
    frozen = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    for _ in range(draw(st.integers(0, 3))):
        size = 1 << draw(st.integers(1, n.bit_length() - 2))
        start = size * draw(st.integers(0, n // size - 1))
        frozen |= set(range(start, start + size))
    return sorted(frozen)


def hybrid_channel_llrs(spec, tables, info, rng, ebn0_db, coefficients=None):
    cw = enc.encode_hybrid(info, spec, tables, rng=rng, coefficients=coefficients)
    x = ch.bpsk_modulate(cw.symbols, spec.t)
    cfg = ch.ChannelConfig("awgn", ebn0_db, spec.rate)
    y, h = ch.transmit(x, cfg, rng)
    return combine_repetitions(ch.initial_llrs(y, h, cfg.sigma2), cw.coefficients, tables)


# --- permutations and repetition combining -----------------------------------

def depermute(lam, rho, tables):
    """The combined LLRs of one symbol seen as bit LLRs (0, lam) with coefficient rho.

    Entry v is S[rho * v], S being the symbol LLR vector of lam.
    """
    return combine_repetitions(np.concatenate([np.zeros_like(lam), lam]),
                               np.array([[rho]]), tables)[0]


def expand(lam, t):
    """Symbol LLR vectors of bit LLRs, by the symbol-domain oracle (scale 2/2 = 1)."""
    return oracles.symbol_llrs(lam, np.ones_like(lam), 2.0, t)


def test_permute_identity():
    lam = np.array([1.0, 2.0])
    assert np.array_equal(depermute(lam, 1, GF4), [0.0, 1.0, 2.0, 3.0])


def test_permute_gf4_alpha_cycles():
    lam = np.array([10.0, 20.0])            # symbol LLRs [0, 10, 20, 30]
    out = depermute(lam, 0b10, GF4)
    assert list(out) == [0.0, 20.0, 30.0, 10.0]


def test_permute_group_action():
    # Integer-valued bit LLRs: every sum is exact whatever its order.
    rng = np.random.default_rng(0)
    lam = rng.integers(-50, 51, size=4).astype(np.float64)
    for r1 in range(1, 16):
        for r2 in range(1, 16):
            lhs = depermute(lam, r1, GF16)[GF16.mul[r2]]
            rhs = depermute(lam, int(GF16.mul[r1, r2]), GF16)
            assert np.array_equal(lhs, rhs)


def test_combine_r1_passthrough():
    lam = np.array([1.0, 2.0, -3.0, 5.0])
    out = combine_repetitions(lam, np.zeros((0, 2), dtype=np.int64), GF4)
    assert np.array_equal(out, expand(lam, 2))
    assert np.array_equal(out, [[0.0, 1.0, 2.0, 3.0], [0.0, -3.0, 5.0, 2.0]])


def test_combine_unit_rho_triples():
    lam1 = np.array([1.0, 2.0])             # symbol LLRs [0, 1, 2, 3]
    out = combine_repetitions(np.tile(lam1, 3), np.ones((2, 1), dtype=np.int64), GF4)
    assert np.allclose(out, 3 * np.array([[0.0, 1.0, 2.0, 3.0]]))


def test_combine_matches_joint_density_oracle():
    rng = np.random.default_rng(1)
    r, n2, t = 3, 4, 2
    sigma2 = 0.8
    z = rng.integers(0, 4, size=n2)
    rho = rng.integers(1, 4, size=(r - 1, n2))
    symbols = np.concatenate([z] + [GF4.mul[rho[j], z] for j in range(r - 1)])
    x = ch.bpsk_modulate(symbols, t)
    y = x + rng.normal(0, np.sqrt(sigma2), size=x.size)
    got = combine_repetitions(ch.initial_llrs(y, np.ones_like(y), sigma2), rho, GF4)
    # Oracle: joint Gaussian log densities over the r observations.
    for i in range(n2):
        for v in range(4):
            total = 0.0
            for j in range(r):
                scale = 1 if j == 0 else rho[j - 1, i]
                yb = y[(j * n2 + i) * t:(j * n2 + i + 1) * t]
                cand = int(GF4.mul[scale, v])
                for b in range(t):
                    mean0 = 1.0
                    meanv = 1.0 - 2.0 * ((cand >> b) & 1)
                    total += oracles.gauss_logpdf(yb[b], mean0, sigma2) - \
                        oracles.gauss_logpdf(yb[b], meanv, sigma2)
            assert np.isclose(got[i, v], total, atol=1e-9)


def test_combine_rejects_length_mismatch():
    # r * n2 * t = 2 * 2 * 2 = 8 bit LLRs expected.
    with pytest.raises(ValueError):
        combine_repetitions(np.zeros(10), np.ones((1, 2), dtype=np.int64), GF4)
    # Coefficients for fewer frames than LLRs: one frame's offsets would
    # otherwise be reused for every frame.
    with pytest.raises(ValueError, match="shape"):
        combine_repetitions(np.zeros((3, 8)), np.ones((1, 2), dtype=np.int64), GF4)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("bad", [0, 4])
def test_combine_rejects_coefficient_out_of_range(bad, pinned):
    # A 0 would drop its observation (0 * v = 0 for every v) and a value >= q
    # would add it to the next symbol's sums.
    rho = np.ones((3, 2, 4), dtype=np.int64)
    if pinned:
        row = np.ones((2, 4), dtype=np.int64)
        row[1, 2] = bad
        rho = np.broadcast_to(row, rho.shape)
    else:
        rho[2, 1, 2] = bad
    with pytest.raises(ValueError, match="nonzero field elements"):
        combine_repetitions(np.zeros((3, 3 * 4 * 2)), rho, GF4)


@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("r", [1, 3])
def test_combine_matches_take_along_axis(t, r):
    # The bit-domain combine equals expanding every repeat to its symbol LLR
    # vector and gathering with take_along_axis, for per-frame and for pinned
    # (broadcast) coefficients alike.  Integer-valued bit LLRs keep it exact.
    gf, q, n2 = build_field(t), 1 << t, 8
    rng = np.random.default_rng(30 + 3 * t + r)
    lam = rng.integers(-20, 21, size=(5, r * n2 * t)).astype(np.float64)
    per_frame = rng.integers(1, q, size=(5, r - 1, n2))
    pinned = np.broadcast_to(per_frame[0], per_frame.shape)
    blocks = expand(lam, t).reshape(5, r, n2, q)
    for rho in (per_frame, pinned):
        rest = np.take_along_axis(blocks[:, 1:], gf.mul[rho], axis=-1)
        expected = blocks[:, 0] + rest.sum(axis=1)
        assert np.array_equal(combine_repetitions(lam, rho, gf), expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([1, 2, 4]),
       r=st.sampled_from([1, 2, 3, 16]), n2=st.integers(1, 6),
       frames=st.sampled_from([None, 1, 3]), pinned=st.booleans(),
       integer=st.booleans())
def test_combine_matches_permute_and_add(seed, t, r, n2, frames, pinned, integer):
    # The bit-domain combine against the symbol-domain oracle: expand each
    # repeat to its 2^t LLR vector, de-permute by its coefficient, add.
    gf = build_field(t)
    rng = np.random.default_rng(seed)
    lead = () if frames is None else (frames,)
    if integer:
        lam = rng.integers(-1000, 1001, size=lead + (r * n2 * t,)).astype(np.float64)
    else:
        lam = rng.normal(0.0, 5.0, size=lead + (r * n2 * t,))
    if pinned:
        rho = np.broadcast_to(rng.integers(1, gf.q, size=(r - 1, n2)), lead + (r - 1, n2))
    else:
        rho = rng.integers(1, gf.q, size=lead + (r - 1, n2))
    got = combine_repetitions(lam, rho, gf)
    expected = oracles.permute_and_add(expand(lam, t), rho, gf)
    assert got.shape == lead + (n2, gf.q)
    if integer:
        assert np.array_equal(got, expected)
    else:
        # Sums of opposite signs cancel; their rounding is relative to the summands.
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-12 * r * t * np.abs(lam).max())


# --- Stage-2 updates -----------------------------------------------------------

def test_stage2_zero_vectors_give_zero():
    z = np.zeros(4)
    assert np.array_equal(stage2_plus(z, z), z)
    assert np.array_equal(stage2_minus(z, z, 0), z)


def test_stage2_minus_iden_when_plus_flat():
    s_minus = np.array([0.0, 1.5, -2.0, 0.5])
    out = stage2_minus(np.zeros(4), s_minus, 0)
    assert np.allclose(out, s_minus)


def test_stage2_gf4_frozen_values():
    s_plus = np.array([0.0, 1.0, 2.0, 3.0])
    s_minus = np.array([0.0, 0.5, 1.5, 2.5])
    plus = stage2_plus(s_plus, s_minus)
    assert np.allclose(plus, [0.0, 0.5, 1.5, 2.5])
    minus = stage2_minus(s_plus, s_minus, 1)
    assert np.allclose(minus, [0.0, -0.5, 3.5, 3.5])


def test_stage2_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    for t in (1, 2, 4):
        q = 1 << t
        for _ in range(300):
            sp = rng.normal(size=q) * 3
            sm = rng.normal(size=q) * 3
            sp[0] = sm[0] = 0.0
            assert np.allclose(stage2_plus(sp, sm),
                               oracles.stage2_plus_enum(sp, sm), atol=1e-9)
            u0 = int(rng.integers(0, q))
            assert np.allclose(stage2_minus(sp, sm, u0),
                               oracles.stage2_minus_enum(sp, sm, u0), atol=1e-9)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_stage2_minus_matches_take_along_axis(q):
    # _span passes strided halves of one array; one vector may also meet
    # a batch of decided symbols.
    rng = np.random.default_rng(40 + q)
    s = rng.normal(size=(3, 4, 10, q))
    s_plus, s_minus = s[:, :, :5], s[:, :, 5:]
    u0 = rng.integers(0, q, size=(3, 4, 5))
    shifted = np.take_along_axis(s_plus, u0[..., None] ^ np.arange(q), axis=-1)
    expected = shifted + s_minus - shifted[..., :1] - s_minus[..., :1]
    assert np.array_equal(stage2_minus(s_plus, s_minus, u0), expected)
    a, b, u = s_plus[0, 0, 0], s_minus[0, 0, 0], u0[0, 0]
    shifted = np.take_along_axis(np.broadcast_to(a, (5, q)), u[:, None] ^ np.arange(q), axis=-1)
    assert np.array_equal(stage2_minus(a, b, u), shifted + b - shifted[:, :1] - b[0])


@pytest.mark.parametrize("q", [2, 4, 16])
def test_stage2_minus_of_a_scalar_zero_is_the_all_zero_result(q):
    # A frozen left child passes u0 = 0 instead of an all-zero array: no gather, same bytes.
    # The binary kernel g takes the same scalar.
    rng = np.random.default_rng(60 + q)
    s = rng.normal(size=(3, 4, 10, q))
    s_plus, s_minus = s[:, :, :5], s[:, :, 5:]
    zeros = np.zeros((3, 4, 5), dtype=np.int8)
    expected = stage2_minus(s_plus, s_minus, zeros)
    assert stage2_minus(s_plus, s_minus, 0).tobytes() == expected.tobytes()
    a, b = s[..., 0], s[..., 1]
    assert _g_bin(a, b, 0).tobytes() == _g_bin(a, b, np.zeros(a.shape, dtype=np.int8)).tobytes()


@pytest.mark.parametrize("q", [1, 2, 4, 16])
def test_minus_kernels_select_paths_as_a_gather_would(q):
    # _span hands the variable update the parent's halves and the left child's parent map:
    # the result is the update of the gathered halves, byte for byte, also for u0 = 0.
    rng = np.random.default_rng(80 + q)
    s = rng.normal(size=(3, 4, 10, q))
    kernel, u0 = stage2_minus, rng.integers(0, q, size=(3, 7, 5))
    if q == 1:   # the baseline kernel over scalar LLRs, with decided bits
        s, kernel, u0 = s[..., 0], _g_bin, rng.integers(0, 2, size=(3, 7, 5))
    a, b, origin = s[:, :, :5], s[:, :, 5:], rng.integers(0, 12, size=(3, 7))
    for u in (u0, 0):
        expected = kernel(_gather_paths(a, origin), _gather_paths(b, origin), u)
        assert kernel(a, b, u, origin).tobytes() == expected.tobytes()


def test_stage2_vectorised_over_leading_axes():
    rng = np.random.default_rng(3)
    sp = rng.normal(size=(3, 5, 4))
    sm = rng.normal(size=(3, 5, 4))
    sp[..., 0] = sm[..., 0] = 0.0
    u0 = rng.integers(0, 4, size=(3, 5))
    plus = stage2_plus(sp, sm)
    minus = stage2_minus(sp, sm, u0)
    for i in range(3):
        for j in range(5):
            assert np.allclose(plus[i, j], oracles.stage2_plus_enum(sp[i, j], sm[i, j]))
            assert np.allclose(minus[i, j],
                               oracles.stage2_minus_enum(sp[i, j], sm[i, j], u0[i, j]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([1, 2, 4]),
       lead=st.sampled_from([(), (5,), (2, 3, 4), (3, 1, 1), (1, 2, 8)]))
def test_stage2_plus_matches_gather_oracle(seed, t, lead):
    # The symbol-major kernel forms the same sums and exact minima as the
    # vector-major gather, so the two agree bit for bit, also on the
    # strided halves s[:, :, :half] that _span passes.
    rng = np.random.default_rng(seed)
    q = 1 << t
    if len(lead) == 3:
        s = rng.normal(0.5, 3.0, size=lead[:2] + (2 * lead[2], q))
        s_plus, s_minus = s[:, :, :lead[2]], s[:, :, lead[2]:]
    else:
        s_plus, s_minus = rng.normal(0.5, 3.0, size=(2,) + lead + (q,))
    got = stage2_plus(s_plus, s_minus)
    assert got.shape == lead + (q,) and got.flags.c_contiguous
    assert np.array_equal(got, oracles.stage2_plus_gather(s_plus, s_minus))


# --- Stage-1 updates -------------------------------------------------------------

def test_stage1_t1_is_entry_one():
    s = np.array([0.0, -2.5])
    assert stage1_bit_llr(s, [], 0, 1) == -2.5


def test_stage1_zero_vector_gives_zero():
    for i, pfx in [(0, []), (1, [1])]:
        assert stage1_bit_llr(np.zeros(4), pfx, i, 2) == 0.0


def test_stage1_gf4_frozen_value():
    s = np.array([0.0, 2.0, -1.0, 3.0])
    assert stage1_bit_llr(s, [], 0, 2) == -1.0
    assert stage1_bit_llr(s, [0], 1, 2) == 3.0
    assert stage1_bit_llr(s, [1], 1, 2) == -3.0


def test_stage1_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    for t in (2, 4):
        for variant in ("flat", "recursive"):
            for _ in range(100):
                s = rng.normal(size=1 << t) * 2
                s[0] = 0.0
                for i in range(t):
                    prefix = list(rng.integers(0, 2, size=i))
                    got = stage1_bit_llr(s, prefix, i, t, variant)
                    ref = oracles.stage1_bit_llr_enum(s, prefix, i, t, variant)
                    assert np.isclose(got, ref, atol=1e-9)


def test_stage1_rejects_bad_prefix():
    with pytest.raises(ValueError):
        stage1_bit_llr(np.zeros(4), [0, 1], 1, 2)
    with pytest.raises(ValueError):
        stage1_bit_llr(np.zeros(4), [], 2, 2)


@pytest.mark.parametrize("s,prefix,t", [(np.arange(16.0), [-1], 4), (np.arange(16.0), [2], 4),
                                        (np.zeros(8), [0], 4), (np.zeros(16), [1], 2),
                                        (np.zeros((2, 4)), [0], 2)])
def test_stage1_rejects_bad_bits_and_lengths(s, prefix, t):
    # A prefix bit outside {0, 1} or a vector that is not 2^t long is refused,
    # not wrapped into another symbol's entry or left to an IndexError.
    with pytest.raises(ValueError):
        stage1_bit_llr(s, prefix, 1, t)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([1, 2, 4]),
       variant=st.sampled_from(["flat", "recursive"]))
def test_stage1_min_tree_matches_gather_and_enumeration(seed, t, variant):
    # Each bit LLR is a difference of two exact minima over the same sets as
    # the per-bit gather and the enumeration, so all three agree bit for bit.
    rng = np.random.default_rng(seed)
    q = 1 << t
    s = rng.normal(0.5, 3.0, size=(3, 5, q))
    s[0, 0] = rng.integers(-2, 3, size=q)          # ties between completions
    tree = decoder._stage1_min_tree(s, enc.stage1_block_map(t, variant))
    assert tree.shape == (3, 5, 2 * q - 2)
    for j in range(t):
        for pfx in range(1 << j):
            prefix = np.full((3, 5), pfx)
            got = decoder._stage1_bit(tree, prefix, j)
            assert np.array_equal(got, oracles.stage1_bit_llr_gather(s, prefix, j, t, variant))
            bits = [pfx >> b & 1 for b in range(j)]
            for f, a in np.ndindex(3, 5):
                ref = oracles.stage1_bit_llr_enum(s[f, a], bits, j, t, variant)
                assert got[f, a] == ref == stage1_bit_llr(s[f, a], bits, j, t, variant)


def test_stage1_recursive_tprime1_reduces_to_binary_minsum():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = rng.normal(size=2) * 4
        s = np.array([0.0, a, b, a + b])
        plus = oracles.stage1_recursive_update(s, "plus")
        assert np.isclose(plus[1], oracles.binary_f(a, b), atol=1e-12)
        assert np.isclose(plus[1], stage1_bit_llr(s, [], 0, 2, "recursive"), atol=1e-12)
        for u0 in (0, 1):
            minus = oracles.stage1_recursive_update(s, "minus", u0)
            assert np.isclose(minus[1], oracles.binary_g(a, b, u0), atol=1e-12)
            assert np.isclose(minus[1], stage1_bit_llr(s, [u0], 1, 2, "recursive"),
                              atol=1e-12)


def test_stage1_recursive_zero_vectors():
    assert np.array_equal(oracles.stage1_recursive_update(np.zeros(16), "plus"), np.zeros(4))
    assert np.array_equal(oracles.stage1_recursive_update(np.zeros(16), "minus", 0), np.zeros(4))


def test_stage1_recursive_needs_u0_for_minus():
    with pytest.raises(ValueError):
        oracles.stage1_recursive_update(np.zeros(4), "minus")
    with pytest.raises(ValueError):
        oracles.stage1_recursive_update(np.zeros(8), "plus")


def test_recursive_layering_equals_one_shot_extraction():
    # Composing the layered updates bit by bit must reproduce the one-shot
    # table lookup the decoder runs for the recursive-variant kernel map:
    # normalisation constants cancel in every bit-LLR difference.
    rng = np.random.default_rng(6)
    for _ in range(200):
        s = rng.normal(size=16) * 3
        s[0] = 0.0
        for bits in range(16):
            u = [(bits >> j) & 1 for j in range(4)]
            # bit 0: plus down two layers
            s_low = oracles.stage1_recursive_update(s, "plus")
            b0 = oracles.stage1_recursive_update(s_low, "plus")[1]
            assert np.isclose(b0, stage1_bit_llr(s, [], 0, 4, "recursive"),
                              atol=1e-9)
            # bit 1 given u0
            b1 = oracles.stage1_recursive_update(s_low, "minus", u[0])[1]
            assert np.isclose(b1, stage1_bit_llr(s, u[:1], 1, 4, "recursive"),
                              atol=1e-9)
            # bits 2 and 3 after feeding back the first half-symbol
            w0 = (u[0] ^ u[1]) | (u[1] << 1)
            s_high = oracles.stage1_recursive_update(s, "minus", w0)
            b2 = oracles.stage1_recursive_update(s_high, "plus")[1]
            assert np.isclose(b2, stage1_bit_llr(s, u[:2], 2, 4, "recursive"),
                              atol=1e-9)
            b3 = oracles.stage1_recursive_update(s_high, "minus", u[2])[1]
            assert np.isclose(b3, stage1_bit_llr(s, u[:3], 3, 4, "recursive"),
                              atol=1e-9)


# --- Path metric ------------------------------------------------------------------

def test_pm_update_examples():
    # The batched branch and frozen-bit penalties of decide_bit against the
    # scalar oracle, sign(0) = +1 included.
    assert oracles.pm_update(1.0, 3.0, 1) == 4.0
    assert oracles.pm_update(0.0, -1.5, 0) == 1.5
    with pytest.raises(ValueError):
        oracles.pm_update(-1.0, 0.0, 0)
    pm = np.array([1.0, 1.0, 2.0, 0.0, 0.5, 3.0])
    s = np.array([3.0, -3.0, 0.0, -1.5, -0.0, 2.5])
    branch = _PathState(len(pm), 2, 2, np.zeros(2, dtype=bool))
    branch.pm = pm[:, None].copy()
    branch.decide_bit(s[:, None], 0)
    frozen = _PathState(len(pm), 2, 2, np.array([True, False]))
    frozen.pm = pm[:, None].copy()
    bits, _ = frozen.decide_bit(s[:, None], 0)
    assert not bits.any()
    for f in range(len(pm)):
        assert branch.pm[f].tolist() == [oracles.pm_update(pm[f], s[f], 0),
                                         oracles.pm_update(pm[f], s[f], 1)]
        assert frozen.pm[f, 0] == oracles.pm_update(pm[f], s[f], 0)


def test_pruning_keeps_l_smallest_with_stable_ties():
    spec = spec_for(scheme="polar_repetition", n=4, k=4, t=1, r=1)
    state = _PathState(1, 4, 2, np.zeros(4, dtype=bool))
    # Force four paths with crafted metrics via two branchings.
    state.decide_bit(np.array([[1.0]]), 0)            # -> pms [0, 1]
    state.decide_bit(np.array([[0.5, 0.5]]), 1)       # -> candidates [0,.5,1,1.5]
    assert np.allclose(state.pm, [[0.0, 0.5]])
    # Survivors (u0, u1) = (0, 0) and (0, 1).  Branching bit 2 on a tie
    # keeps both children of path 0 and drops path 1, so u1 = 1 must not
    # reach either backtracked vector.
    state.decide_bit(np.array([[0.0, -3.0]]), 2)      # -> candidates [0,0,3.5,.5]
    assert np.allclose(state.pm, [[0.0, 0.0]])
    out = _finalize(spec, state, crc_on=False, return_paths=True)
    assert out.all_u.tolist() == [[[0, 0, 0, 0], [0, 0, 1, 0]]]
    assert out.u_hat.tolist() == [[0, 0, 0, 0]]
    # Tie case: equal penalties keep the lower path index.
    state2 = _PathState(1, 4, 2, np.zeros(4, dtype=bool))
    state2.decide_bit(np.array([[0.0]]), 0)           # pms [0, 0] tie
    bits, _ = state2.decide_bit(np.array([[0.0, 0.0]]), 1)
    assert np.allclose(state2.pm, 0.0)
    # survivors are the first two children in index order
    assert list(state2.trace[-1][2][0]) == [0, 0]
    out = _finalize(spec, state2, crc_on=False, return_paths=True)
    assert out.all_u.tolist() == [[[0, 0, 0, 0], [0, 1, 0, 0]]]


def test_finalize_reads_bit_and_block_entries_back():
    # A hand-built log of two frames at L = 2: bit 0, then bits 1-3 as one block,
    # as _symbol_node logs a span, then bit 4; bits 5-7 are frozen.  Frame 0's
    # block keeps only children of path 1 (a prune), frame 1's keeps both paths.
    spec = spec_for(scheme="polar_repetition", n=8, k=8, t=1, r=1)
    state = _PathState(2, 8, 2, np.zeros(8, dtype=bool))
    state.trace = [
        (0, np.array([[0], [1], [0], [1]]), np.array([[0, 0], [1, 1]])),
        (1, np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0], [0, 0, 1]]), np.array([[1, 1], [2, 3]])),
        (4, np.array([[1], [0], [0], [1]]), np.array([[0, 1], [2, 3]])),
    ]
    state.pm = np.array([[0.5, 0.2], [0.1, 0.3]])
    assert np.array_equal(state.origin_since(1), [[1, 1], [2, 3]])
    out = _finalize(spec, state, crc_on=False, return_paths=True)
    assert out.all_u.tolist() == [[[1, 0, 1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0]],
                                  [[0, 1, 1, 0, 0, 0, 0, 0], [1, 0, 0, 1, 1, 0, 0, 0]]]
    assert out.u_hat.tolist() == [[1, 1, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0]]
    assert out.list_rank.tolist() == [0, 0] and out.chosen_pm.tolist() == [0.2, 0.1]


def test_a_listed_span_is_one_log_entry(monkeypatch):
    # With the GF(16), n = 512 benchmark code's frozen set, the 86 unfrozen bits are
    # logged as 8 entries: each node call writes one block, each other bit one entry.
    spec = load_spec(Path(__file__).resolve().parent.parent / "perfbench/specs/gf16_n512.spec")
    entries, finalize = [], decoder._finalize

    def spy(spec, state, *args):
        entries.append(state.trace)
        return finalize(spec, state, *args)

    monkeypatch.setattr(decoder, "_finalize", spy)
    s = np.random.default_rng(23).normal(0.0, 2.0, size=(2, spec.n // spec.t, 16))
    scl_decode_batch(spec, s, 8)
    (trace,) = entries
    assert len(trace) == 8
    assert sum(bits.shape[1] for _, bits, _ in trace) == spec.k + spec.p == 86
    unfrozen = [start + d for start, bits, _ in trace for d in range(bits.shape[1])]
    assert unfrozen == spec.unfrozen_indices().tolist()


@pytest.mark.parametrize("shape", [(3, 5), (3, 5, 7), (3, 5, 4, 6)])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "swapped"])
def test_gather_paths_matches_take_along_axis(shape, layout):
    # A flat parent map is the per-frame map offset by frame * paths.
    rng = np.random.default_rng(20)
    f, a = shape[:2]
    views = {
        "contiguous": rng.normal(size=shape),
        "strided": rng.normal(size=(f, 2 * a) + shape[2:])[:, ::2],
        "swapped": rng.normal(size=(a, f) + shape[2:]).swapaxes(0, 1),
    }
    arr = views[layout]
    assert arr.shape == shape
    for n_out in (1, 4, 9):
        origin = rng.integers(0, a, size=(f, n_out))
        flat = origin + a * np.arange(f)[:, None]
        idx = origin.reshape(origin.shape + (1,) * (arr.ndim - 2))
        expected = np.take_along_axis(arr, idx, axis=1)
        assert np.array_equal(_gather_paths(arr, flat), expected)
        ints = (arr > 0).astype(np.int8)
        assert np.array_equal(_gather_paths(ints, flat),
                              np.take_along_axis(ints, idx, axis=1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), list_size=st.sampled_from([2, 3, 4]),
       epoch=st.integers(0, 3))
def test_origin_since_matches_per_frame_composition(seed, list_size, epoch):
    # Five branchings of three frames: the list is pruned once it passes L, so
    # origin_since composes maps across prunes.  Composing the per-frame maps
    # one step at a time with take_along_axis gives the same paths.
    rng = np.random.default_rng(seed)
    state = _PathState(3, 5, list_size, np.zeros(5, dtype=bool))
    rows = np.arange(3)[:, None]
    per_frame, widths = [], []
    for i in range(5):
        widths.append(state.paths)
        state.decide_bit(rng.normal(0.0, 2.0, size=(3, widths[-1])), i)
        per_frame.append(state.trace[-1][2] - widths[-1] * rows)
        assert ((per_frame[-1] >= 0) & (per_frame[-1] < widths[-1])).all()
    assert state.paths == list_size
    expected = per_frame[epoch]
    for later in per_frame[epoch + 1:]:
        expected = np.take_along_axis(expected, later, axis=1)
    assert np.array_equal(state.origin_since(epoch), expected + widths[epoch] * rows)
    assert state.origin_since(5) is None


# --- Rate-0 (all-frozen) spans ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([1, 2, 4]),
       length=st.sampled_from([1, 2, 4, 8]), variant=st.sampled_from(["flat", "recursive"]))
def test_symbol_rate0_penalty_matches_bitwise_sc(seed, t, length, variant):
    # The closed form equals the frozen-bit penalties of a plain one-path
    # SC pass, also for unnormalised inputs (entry 0 nonzero, as at the root).
    rng = np.random.default_rng(seed)
    s = rng.normal(0.5, 3.0, size=(2, 3, length, 1 << t))
    leaf = functools.partial(oracles.frozen_symbol_penalty, t=t, variant=variant,
                             bit_llr=stage1_bit_llr)
    got = stage2_rate0_penalty(s)
    assert got.shape == (2, 3)
    for f, a in np.ndindex(2, 3):
        expected = oracles.frozen_span_penalty(s[f, a], stage2_plus, stage2_minus, leaf)
        assert np.isclose(got[f, a], expected, rtol=PM_TOL, atol=PM_TOL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([1, 2, 4, 8, 16]))
def test_binary_rate0_penalty_matches_bitwise_sc(seed, length):
    rng = np.random.default_rng(seed)
    alpha = rng.normal(0.0, 3.0, size=(2, 3, length))
    got = _rate0_bin(alpha)
    for f, a in np.ndindex(2, 3):
        expected = oracles.frozen_span_penalty(alpha[f, a], _f_bin, _g_bin,
                                               lambda x: max(-x, 0.0))
        assert np.isclose(got[f, a], expected, rtol=PM_TOL, atol=PM_TOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from([1, 2, 4, "baseline"]),
       half=st.sampled_from([1, 2, 4]))
def test_frozen_left_child_price(seed, family, half):
    # A frozen left child is priced without its check update: the metric grows
    # by rate0(plus(A, B)).  No node kernel, so the frozen-free right half recurses.
    rng = np.random.default_rng(seed)
    if family == "baseline":
        plus, minus, rate0 = _f_bin, _g_bin, _rate0_bin
        s = rng.normal(0.0, 3.0, size=(2, 3, 2 * half))
    else:
        plus, minus, rate0 = stage2_plus, stage2_minus, stage2_rate0_penalty
        s = rng.normal(0.5, 3.0, size=(2, 3, 2 * half, 1 << family))
    state = _PathState(2, 2 * half, 8, np.arange(2 * half) < half)
    state.pm = np.zeros((2, 3))
    leaves = []

    def leaf(state, s_i, i):   # decides 0 and leaves the metric alone
        leaves.append(i)
        return np.zeros(s_i.shape[:2], dtype=np.int64)

    x = decoder._span(state, s, plus, minus, leaf, rate0, None, 0)
    assert leaves == list(range(half, 2 * half)) and not x.any()
    expected = rate0(plus(s[:, :, :half], s[:, :, half:]))
    np.testing.assert_allclose(state.pm, expected, rtol=PM_TOL, atol=PM_TOL)


def test_rate0_subtrees_are_not_descended(monkeypatch):
    # With the lowest half of the leaves frozen, the check update runs only along
    # the unfrozen right half; genie mode freezes nothing.  A right half with no
    # frozen bit is decided by the node kernel without any check update, in either scheme.
    def counted(name):
        calls = []
        kernel = getattr(decoder, name)
        monkeypatch.setattr(decoder, name, lambda *a: calls.append(1) or kernel(*a))
        return calls
    plus_calls, f_calls = counted("stage2_plus"), counted("_f_bin")
    rng = np.random.default_rng(22)
    spec_h = spec_for(n=16, k=8, t=2, r=2)                      # symbols 0..3 frozen
    spec_b = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=2)
    scl_decode_batch(spec_h, rng.normal(size=(2, 8, 4)), 4)
    baseline_decode_batch(spec_b, combine_baseline(rng.normal(size=(2, 32)), 2), 4)
    # 7 and 15 without skipping; the root's check update only fed its frozen left child,
    # and the node lists each right half whole (the baseline's took 7 f updates bit by bit).
    assert (len(plus_calls), len(f_calls)) == (0, 0)
    # Nonnegative LLR vectors decode to the all-zero truth without error, so the
    # genie pass, which stops only once every trial has erred, visits all 7 nodes.
    clean = np.abs(rng.normal(size=(2, 8, 4)))
    clean[..., 0] = 0.0
    assert (genie_first_errors(spec_h, clean, np.zeros((2, 16), dtype=np.int8)) == -1).all()
    assert len(plus_calls) == 7


# --- One-step decoding of a span with no frozen bit ----------------------------------

def node_state(frames, pm, list_size, bits):
    state = _PathState(frames, bits, list_size, np.zeros(bits, dtype=bool))
    state.pm = pm
    return state


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([1, 2, 4]),
       variant=st.sampled_from(["flat", "recursive"]), m=st.sampled_from([2, 4]),
       list_size=st.sampled_from([1, 2, 4, 8]), paths=st.integers(1, 3),
       frames=st.integers(1, 2), integer=st.booleans(), bits=st.booleans())
def test_symbol_node_matches_span_enumeration(seed, t, variant, m, list_size, paths, frames,
                                              integer, bits):
    # After a span with no frozen bit the list is the enumerator's top L, ordered by
    # parent and then u bits.  Integer LLRs in -2..2 tie often: there the node may
    # instead return None, and then it must have written nothing.  ``bits`` feeds the
    # baseline's (frames, paths, m) bit LLRs over a twice longer span.
    if bits:
        t, variant, m = 1, "flat", 2 * m
    paths, q, first = min(paths, list_size), 1 << t, 3
    shape = (frames, paths, m) if bits else (frames, paths, m, q)
    rng = np.random.default_rng(seed)
    if integer:
        s = rng.integers(-2, 3, size=shape).astype(np.float64)
        pm = rng.integers(0, 3, size=(frames, paths)).astype(np.float64)
    else:
        s = rng.normal(0.0, 2.0, size=shape)
        pm = rng.exponential(size=(frames, paths))
    state = node_state(frames, pm, list_size, (first + m) * t)
    x = decoder._symbol_node(np.argsort(enc.stage1_block_map(t, variant)).astype(np.int8),
                             state, s, first)
    if x is None:
        assert integer and state.pm is pm and state.trace == []
        return
    ((start, u, parent),) = state.trace   # one entry: the span's m*t bits per path
    assert start == first * t and u.shape == (parent.size, m * t) and u.dtype == np.int8
    assert x.dtype == np.int8 or not bits   # int8 bits keep the span re-encodings narrow
    u = u.reshape(parent.shape + (m * t,))
    for g in range(frames):
        metric, from_path, u_top, x_top, unique = oracles.span_top_list(
            s[g], pm[g], list_size, t, variant)
        assert unique
        order = np.lexsort(np.vstack([u_top.T[::-1], from_path]))
        assert np.array_equal(parent[g], g * paths + from_path[order])
        assert np.array_equal(u[g], u_top[order]) and np.array_equal(x[g], x_top[order])
        np.testing.assert_allclose(state.pm[g], metric[order], rtol=PM_TOL, atol=PM_TOL)


@pytest.mark.parametrize("list_size, s, pm", [
    (1, [[[0, 0], [0, 3]]], [[0.0]]),                    # K = 0 and a second zero cost
    (2, [[[0, 1], [0, 1]]], [[0.0]]),                    # equal reliabilities at places 1, 2
    (2, [[[0, 1], [0, 2]], [[0, 1], [0, 2]]], [[0.0, 1.0]]),   # metrics 0, 1, 1, 2 at fork 1
    (1, [[0, 3]], [[0.0]]),                              # bit LLRs: a zero costs both values 0
    (2, [[1, -1]], [[0.0]]),                             # bit LLRs: equal |alpha|
], ids=["second-zero-cost", "reliability-tie", "fork-tie", "bit-zero-llr", "bit-reliability-tie"])
def test_symbol_node_fallback_writes_nothing(list_size, s, pm):
    pm, before = np.array(pm), np.array(pm)
    state = node_state(1, pm, list_size, 8)
    trace = [(0, np.zeros((1, 1)), np.zeros((1, 1)))]
    state.trace = list(trace)
    assert decoder._symbol_node(np.arange(2), state, np.array(s, dtype=float)[None], 2) is None
    assert state.pm is pm and np.array_equal(pm, before)
    assert state.trace == trace


NODE_FAMILIES = [("hybrid", 1), ("hybrid", 2), ("hybrid", 4), ("polar_repetition", 1)]
NODE_FAMILY_PARAMS = [pytest.param(f, id=str(f[1]) if f[0] == "hybrid" else "baseline")
                      for f in NODE_FAMILIES]


def family_spec(family, variant="flat", **fields):
    """A spec of ``family`` (scheme, t), its decoder, and its integer-LLR input shape."""
    scheme, t = family
    variant = variant if scheme == "hybrid" else "flat"
    spec = spec_for(scheme=scheme, t=t, variant=variant, **fields)
    if scheme == "hybrid":
        return spec, scl_decode_batch, (spec.n // t, 1 << t)
    return spec, baseline_decode_batch, (spec.n,)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(32),
       family=st.sampled_from(NODE_FAMILIES), variant=st.sampled_from(["flat", "recursive"]),
       list_size=st.sampled_from([1, 2, 4, 8, 16]), frames=st.integers(1, 4),
       integer=st.booleans(), crc_on=st.booleans(), data=st.data())
def test_symbol_node_decodes_as_the_recursion(seed, frozen, family, variant, list_size, frames,
                                              integer, crc_on, data):
    # The node changes no decision, survivor, order or rank; metrics move by rounding only.
    # Two aligned leaves are unfrozen so that a span reaches the node; the drawn frozen
    # set still leaves symbols partly frozen elsewhere.  Over the baseline's bit LLRs,
    # integer LLRs in -2..2 make zeros and equal |alpha| that force the fallback, and
    # L = 1 makes the node SC's sign decision.
    t = family[1]
    start = 2 * t * data.draw(st.integers(0, 32 // (2 * t) - 1))
    frozen = sorted(set(frozen) - set(range(start, start + 2 * t)))
    p = 6 if len(frozen) <= 32 - 6 else 0
    spec, decode, shape = family_spec(family, variant, n=32, k=32 - len(frozen) - p, r=2,
                                      p=p, frozen=frozen)
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(-2, 3, size=(frames,) + shape).astype(np.float64)
    else:
        x = random_decoder_input(spec, rng, frames)
    calls = []
    node = decoder._symbol_node

    def spy(*args):
        calls.append(1)
        return node(*args)

    with mock.patch.object(decoder, "_symbol_node", spy):
        fast = decode(spec, x, list_size, crc_on=crc_on, return_paths=True)
    with mock.patch.object(decoder, "_symbol_node", lambda *args: None):
        slow = decode(spec, x, list_size, crc_on=crc_on, return_paths=True)
    assert calls
    for field in ("u_hat", "crc_pass", "list_rank", "all_u", "all_x"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field)), field
    for field in ("chosen_pm", "all_pm"):
        np.testing.assert_allclose(getattr(fast, field), getattr(slow, field),
                                   rtol=PM_TOL, atol=PM_TOL, err_msg=field)


@pytest.mark.parametrize("family", NODE_FAMILY_PARAMS[1:])
@pytest.mark.parametrize("list_size", [64, 256])
@pytest.mark.parametrize("frames", [1, 2])
def test_symbol_node_decodes_as_the_recursion_at_a_wide_list(family, list_size, frames):
    # Bit 0 alone is frozen, so the left half of the code grows a full list of L paths and
    # the right half, with no frozen bit, reaches the node with all of them: every fork
    # prunes q * L children back to L, and all m symbols fork (K = min(L - 1, m) = m).
    spec, decode, _ = family_spec(family, n=32, k=31, r=2, frozen=[0])
    x = random_decoder_input(spec, np.random.default_rng(100 * spec.t + list_size + frames),
                             frames)
    wide, node = [], decoder._symbol_node

    def spy(inverse_map, state, s, first):
        out = node(inverse_map, state, s, first)
        wide.append(out is not None and s.shape[1] == list_size)
        return out

    with mock.patch.object(decoder, "_symbol_node", spy):
        fast = decode(spec, x, list_size, crc_on=False, return_paths=True)
    with mock.patch.object(decoder, "_symbol_node", lambda *args: None):
        slow = decode(spec, x, list_size, crc_on=False, return_paths=True)
    assert any(wide)
    for field in ("u_hat", "crc_pass", "list_rank", "all_u", "all_x"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field)), field
    for field in ("chosen_pm", "all_pm"):
        np.testing.assert_allclose(getattr(fast, field), getattr(slow, field),
                                   rtol=PM_TOL, atol=PM_TOL, err_msg=field)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(32),
       family=st.sampled_from([("hybrid", 1), ("hybrid", 2), ("hybrid", 4),
                               ("polar_repetition", 1)]),
       variant=st.sampled_from(["flat", "recursive"]), list_size=st.sampled_from([1, 4, 64]),
       frames=st.integers(1, 3), integer=st.booleans(), data=st.data())
def test_returned_codewords_are_the_paths_encodings(seed, frozen, family, variant, list_size,
                                                    frames, integer, data):
    # all_x is the decoder's own re-encoding of every survivor: the outer codeword of its
    # u vector, row by row.  A span of 2 * size bits whose left half is frozen is added,
    # and integer LLRs in -2..2 make the node fall back on ties.
    scheme, t = family
    variant = variant if scheme == "hybrid" else "flat"
    size = 1 << data.draw(st.integers(0, 3))
    start = 2 * size * data.draw(st.integers(0, 32 // (2 * size) - 1))
    frozen = sorted(set(frozen) | set(range(start, start + size)))
    spec = spec_for(scheme=scheme, n=32, k=32 - len(frozen), t=t, r=2, variant=variant,
                    frozen=frozen)
    rng = np.random.default_rng(seed)
    x = random_decoder_input(spec, rng, frames)
    if integer:
        x = rng.integers(-2, 3, size=x.shape).astype(np.float64)
    decode = scl_decode_batch if scheme == "hybrid" else baseline_decode_batch
    out = decode(spec, x, list_size, crc_on=False, return_paths=True)
    assert out.all_x.shape == out.all_u.shape[:2] + (spec.n // t,)
    assert np.array_equal(out.all_x, enc.encode_u_vector(out.all_u, spec))
    assert decode(spec, x, list_size).all_x is None


@pytest.mark.parametrize("family", NODE_FAMILY_PARAMS)
@pytest.mark.parametrize("list_size", [2, 4, 8])
def test_symbol_node_not_retried_below_a_fallback(monkeypatch, family, list_size):
    # With no frozen bit the root is the only span that reaches the node, and integer
    # LLRs in -2..2 make it tie: a fallback decodes the whole tree bit by bit, so the
    # node runs once per fallen-back span, not again at every level below it.
    spec, decode, shape = family_spec(family, n=32, k=32, r=2)
    x = np.random.default_rng(24).integers(-2, 3, size=(3,) + shape).astype(float)
    results, node = [], decoder._symbol_node

    def spy(*args):
        results.append(node(*args))
        return results[-1]

    monkeypatch.setattr(decoder, "_symbol_node", spy)
    fast = decode(spec, x, list_size, return_paths=True)
    assert len(results) == 1 and results[0] is None
    monkeypatch.setattr(decoder, "_symbol_node", lambda *args: None)
    slow = decode(spec, x, list_size, return_paths=True)
    for field in ("u_hat", "list_rank", "all_u", "all_x"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field)), field


def test_genie_stays_on_the_recursion(monkeypatch):
    # A genie pass corrects every bit, so neither scheme's enters the node kernel; a
    # baseline list decode does, for the right half (bits 8..15) with no frozen bit.
    def refuse(*args):
        raise AssertionError("the node kernel was entered")

    node = decoder._symbol_node
    monkeypatch.setattr(decoder, "_symbol_node", refuse)
    rng = np.random.default_rng(23)
    spec_h = spec_for(n=16, k=8, t=2, r=2)
    spec_b = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=2)
    truth = np.zeros((2, 16), dtype=np.int8)
    genie_first_errors(spec_h, rng.normal(size=(2, 8, 4)), truth)
    genie_first_errors(spec_b, combine_baseline(rng.normal(size=(2, 32)), 2), truth)
    spans = []
    monkeypatch.setattr(decoder, "_symbol_node",
                        lambda *args: spans.append((args[3], args[2].shape)) or node(*args))
    baseline_decode_batch(spec_b, combine_baseline(rng.normal(size=(2, 32)), 2), 4)
    assert spans == [(8, (2, 1, 8))]   # the frozen left half leaves one path per frame


# --- End-to-end decoding ------------------------------------------------------------

def test_noiseless_roundtrip_sweep():
    rng = np.random.default_rng(8)
    for t, variant in [(1, "flat"), (2, "flat"), (2, "recursive"),
                       (4, "flat"), (4, "recursive")]:
        spec = spec_for(n=64, k=30, t=t, r=2, p=6, variant=variant)
        tables = spec.field_tables()
        for L in (1, 4):
            info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
            s_inner = hybrid_channel_llrs(spec, tables, info, rng, ebn0_db=60.0)
            res = scl_decode_batch(spec, s_inner[None], L)
            got = res.u_hat[0, spec.unfrozen_indices()[:spec.k]]
            assert np.array_equal(got, info)
            assert res.crc_pass[0]


def test_all_frozen_code_decodes_to_zero():
    spec = spec_for(n=16, k=0, t=2, r=2, p=0)
    rng = np.random.default_rng(9)
    s_inner = rng.normal(size=(8, 4))
    s_inner[:, 0] = 0.0
    res = scl_decode_batch(spec, s_inner[None], 4, crc_on=False)
    assert not res.u_hat.any()


def test_decision_scaling_invariance():
    rng = np.random.default_rng(10)
    spec = spec_for(n=32, k=16, t=4, r=2, p=0)
    tables = spec.field_tables()
    for _ in range(20):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        s_inner = hybrid_channel_llrs(spec, tables, info, rng, ebn0_db=0.0)
        r1 = scl_decode_batch(spec, s_inner[None], 4, crc_on=False, return_paths=True)
        r2 = scl_decode_batch(spec, 2.5 * s_inner[None], 4, crc_on=False,
                              return_paths=True)
        assert np.array_equal(r1.u_hat, r2.u_hat)
        # identical survivor sets under positive scaling
        assert np.array_equal(np.sort(r1.all_u[0], axis=0),
                              np.sort(r2.all_u[0], axis=0))


def test_coefficient_transparency_noiseless():
    rng = np.random.default_rng(11)
    spec = spec_for(n=32, k=12, t=2, r=3, p=0)
    tables = spec.field_tables()
    ones = np.ones((spec.r - 1, spec.n // spec.t), dtype=np.int64)
    for _ in range(20):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        rho = rng.integers(1, 4, size=(spec.r - 1, spec.n // spec.t))
        s_rho = hybrid_channel_llrs(spec, tables, info, rng, 60.0, coefficients=rho)
        s_one = hybrid_channel_llrs(spec, tables, info, rng, 60.0, coefficients=ones)
        r_rho = scl_decode_batch(spec, s_rho[None], 2, crc_on=False)
        r_one = scl_decode_batch(spec, s_one[None], 2, crc_on=False)
        assert np.array_equal(r_rho.u_hat, r_one.u_hat)


def test_coefficient_transparency_statistical():
    # Random and unit coefficients must land in the same FER regime.
    # They are NOT exactly equidistributed: the multipliers reshape the
    # effective code (that reshaping is the entire point of the scheme),
    # and with enough frames the random-coefficient arm measures
    # slightly BETTER.  Exact transparency holds per noise realisation
    # at sigma^2 -> 0 (tested above); here we bound the finite-SNR gap.
    spec = spec_for(n=32, k=12, t=2, r=2, p=0)
    tables = spec.field_tables()
    n2 = spec.n // spec.t
    frames = 10_000
    fer = {}
    for use_rho in (True, False):
        rng = np.random.default_rng(13)
        info = rng.integers(0, 2, size=(frames, spec.k), dtype=np.int8)
        coeffs = rng.integers(1, 4, size=(frames, spec.r - 1, n2)) if use_rho \
            else np.ones((frames, spec.r - 1, n2), dtype=np.int64)
        u = np.zeros((frames, spec.n), dtype=np.int8)
        u[:, spec.unfrozen_indices()] = info
        z = enc.encode_stage2(enc.encode_stage1(u, spec.t, spec.encoder_variant))
        blocks = [z] + [tables.mul[coeffs[:, j], z] for j in range(spec.r - 1)]
        x = ch.bpsk_modulate(np.concatenate(blocks, axis=-1), spec.t)
        cfg = ch.ChannelConfig("awgn", -2.0, spec.rate)
        y, h = ch.transmit(x, cfg, rng)
        s_inner = combine_repetitions(ch.initial_llrs(y, h, cfg.sigma2), coeffs, tables)
        out = scl_decode_batch(spec, s_inner, 1, crc_on=False)
        errs = (out.u_hat[:, spec.unfrozen_indices()] != info).any(axis=1).sum()
        fer[use_rho] = errs / frames
    p1, p2 = fer[True], fer[False]
    se = np.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / frames)
    assert abs(p1 - p2) < 0.15 * max(p1, p2) + 5 * se
    assert p1 <= p2 + 3 * se  # randomisation must never measurably hurt


def test_chosen_path_respects_crc_selection():
    rng = np.random.default_rng(14)
    spec = spec_for(n=32, k=10, t=2, r=2, p=6)
    tables = spec.field_tables()
    picked_rank_gt0 = 0
    for _ in range(200):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        s_inner = hybrid_channel_llrs(spec, tables, info, rng, ebn0_db=-1.0)
        res = scl_decode_batch(spec, s_inner[None], 8)
        if res.crc_pass[0]:
            payload = res.u_hat[0, spec.unfrozen_indices()]
            assert enc.crc_check(payload, spec.crc_poly, spec.p)
        picked_rank_gt0 += int(res.list_rank[0] > 0)
    assert picked_rank_gt0 > 0  # CRC must actually rescue some frames


# --- Baseline decoder -----------------------------------------------------------------

def test_baseline_copy_combining():
    llrs = np.tile(np.array([1.5, -2.0, 0.5, 3.0]), 4)
    assert np.allclose(combine_baseline(llrs, 4), 4 * np.array([1.5, -2.0, 0.5, 3.0]))


def test_baseline_noiseless_roundtrip():
    rng = np.random.default_rng(15)
    spec = spec_for(scheme="polar_repetition", n=64, k=30, t=1, r=4, p=6)
    cfg = ch.ChannelConfig("awgn", 60.0, spec.rate)
    for L in (1, 4):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        x = 1.0 - 2.0 * enc.encode_baseline(info, spec).symbols
        y, h = ch.transmit(x, cfg, rng)
        llrs = ch.initial_llrs(y, h, cfg.sigma2)
        res = baseline_decode_batch(spec, combine_baseline(llrs, spec.r)[None], L)
        assert np.array_equal(res.u_hat[0, spec.unfrozen_indices()[:spec.k]], info)


def test_hybrid_t1_unit_rho_matches_baseline_decisions():
    rng = np.random.default_rng(17)
    n, k, p, r = 64, 24, 6, 4
    spec_h = spec_for(n=n, k=k, t=1, r=r, p=p)
    spec_b = spec_for(scheme="polar_repetition", n=n, k=k, t=1, r=r, p=p)
    gf2 = build_field(1)
    ones = np.ones((r - 1, n), dtype=np.int64)
    cfg = ch.ChannelConfig("awgn", 0.0, spec_h.rate)
    s_inner, llrs = [], []
    for _ in range(200):
        info = rng.integers(0, 2, size=k, dtype=np.int8)
        cw = enc.encode_hybrid(info, spec_h, gf2, coefficients=ones)
        x = ch.bpsk_modulate(cw.symbols, 1)
        y, h = ch.transmit(x, cfg, rng)
        llrs.append(ch.initial_llrs(y, h, cfg.sigma2))
        s_inner.append(combine_repetitions(llrs[-1], ones, gf2))
    for L in (1, 4):
        res_h = scl_decode_batch(spec_h, np.stack(s_inner), L)
        res_b = baseline_decode_batch(spec_b, combine_baseline(np.stack(llrs), r), L)
        for row_h, row_b in zip(res_h.u_hat, res_b.u_hat):
            assert np.array_equal(row_h, row_b)


# --- Genie pass ------------------------------------------------------------------------

def test_genie_no_errors_when_noiseless():
    rng = np.random.default_rng(18)
    spec = spec_for(n=32, k=32, t=2, r=2, p=0)
    tables = spec.field_tables()
    u = rng.integers(0, 2, size=(4, spec.n), dtype=np.int8)
    a = enc.encode_stage1(u, spec.t, spec.encoder_variant)
    z = enc.encode_stage2(a)
    rho = np.ones((4, spec.r - 1, spec.n // spec.t), dtype=np.int64)
    symbols = np.concatenate([z, z], axis=-1)
    y = ch.bpsk_modulate(symbols, spec.t)
    s_inner = combine_repetitions(ch.initial_llrs(y, np.ones_like(y), 1e-4), rho, tables)
    firsts = genie_first_errors(spec, s_inner, u)
    assert np.array_equal(firsts, -np.ones(4))


@pytest.mark.parametrize("scheme,t,kernel", [("hybrid", 2, "stage2_plus"),
                                             ("hybrid", 4, "stage2_plus"),
                                             ("polar_repetition", 1, "_f_bin")])
def test_genie_stops_once_every_trial_has_erred(monkeypatch, scheme, t, kernel):
    # Noisy trials with a random truth all err early.  Decoded alone, the batch
    # stops there; one clean trial appended keeps the pass running to the end,
    # and the noisy trials' counts must not change.
    calls = []
    counted = getattr(decoder, kernel)
    monkeypatch.setattr(decoder, kernel, lambda *a: calls.append(1) or counted(*a))
    spec = spec_for(scheme=scheme, n=64, k=32, t=t, r=2)
    rng = np.random.default_rng(23)
    noisy = random_decoder_input(spec, rng, frames=6)
    truth = rng.integers(0, 2, size=(6, spec.n), dtype=np.int8)
    clean = np.abs(random_decoder_input(spec, rng, frames=1))   # decodes to all-zero
    alone = genie_first_errors(spec, noisy, truth)
    alone_calls = len(calls)
    padded = genie_first_errors(spec, np.concatenate([noisy, clean]),
                                np.concatenate([truth, np.zeros((1, spec.n), dtype=np.int8)]))
    assert (alone >= 0).all() and padded[-1] == -1
    assert np.array_equal(padded[:-1], alone)
    assert len(calls) - alone_calls == spec.n // t - 1     # every node of the tree
    assert alone_calls < spec.n // t - 1


def test_batch_and_single_frame_agree():
    rng = np.random.default_rng(19)
    spec = spec_for(n=32, k=12, t=4, r=2, p=6)
    tables = spec.field_tables()
    s_list = []
    for _ in range(5):
        info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
        s_list.append(hybrid_channel_llrs(spec, tables, info, rng, 0.0))
    batch = scl_decode_batch(spec, np.stack(s_list), 4)
    for f in range(5):
        single = scl_decode_batch(spec, s_list[f][None], 4)
        assert np.array_equal(batch.u_hat[f], single.u_hat[0])
        assert batch.chosen_pm[f] == single.chosen_pm[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(2, 7),
       data=st.data(), list_size=st.sampled_from([1, 2, 4, 8]),
       family=st.sampled_from([("hybrid", 2, "flat"), ("hybrid", 4, "recursive"),
                               ("polar_repetition", 1, "flat")]),
       crc_on=st.booleans())
def test_batch_split_invariance(seed, frames, data, list_size, family, crc_on):
    # Decoding F frames in one call equals decoding them in two calls.
    scheme, t, variant = family
    spec = spec_for(scheme=scheme, n=32, k=10, t=t, r=2, p=6, variant=variant)
    rng = np.random.default_rng(seed)
    if scheme == "hybrid":
        x = rng.normal(1.0, 2.0, size=(frames, spec.n // t, 1 << t))
        x[..., 0] = 0.0
        decode = scl_decode_batch
    else:
        x = combine_baseline(rng.normal(1.0, 2.0, size=(frames, spec.N)), spec.r)
        decode = baseline_decode_batch
    cut = data.draw(st.integers(1, frames - 1))
    whole = decode(spec, x, list_size, crc_on=crc_on, return_paths=True)
    parts = [decode(spec, x[sl], list_size, crc_on=crc_on, return_paths=True)
             for sl in (slice(None, cut), slice(cut, None))]
    for field in ("u_hat", "crc_pass", "chosen_pm", "list_rank", "all_u", "all_pm"):
        joined = np.concatenate([getattr(p, field) for p in parts])
        assert np.array_equal(getattr(whole, field), joined), field


def random_decoder_input(spec, rng, frames):
    """Noisy decoder input of the right shape for either scheme."""
    if spec.scheme == "hybrid":
        x = rng.normal(1.0, 2.0, size=(frames, spec.n // spec.t, 1 << spec.t))
        x[..., 0] = 0.0
        return x
    return combine_baseline(rng.normal(1.0, 2.0, size=(frames, spec.N)), spec.r)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(32),
       scheme=st.sampled_from(["hybrid", "polar_repetition"]), t=st.sampled_from([1, 2, 4]),
       variant=st.sampled_from(["flat", "recursive"]), integer=st.booleans())
def test_sc_equals_list_size_one(seed, frozen, scheme, t, variant, integer):
    # A list of one path decides every bit by the scalar SC sign rule.  Integer
    # LLRs stay exact through every update, so they make exact ties (0 wins).
    t, variant = (t, variant) if scheme == "hybrid" else (1, "flat")
    spec = spec_for(scheme=scheme, n=32, k=32 - len(frozen), t=t, r=2, variant=variant,
                    frozen=frozen)
    x = random_decoder_input(spec, np.random.default_rng(seed), frames=3)
    if integer:
        x = np.round(x)
    decode = scl_decode_batch if scheme == "hybrid" else baseline_decode_batch
    u_hat = decode(spec, x, 1, crc_on=False).u_hat
    assert [oracles.sc_decode(frame, spec) for frame in x] == u_hat.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(64), list_size=st.sampled_from([1, 4]),
       family=st.sampled_from([("hybrid", 1, "flat"), ("hybrid", 2, "flat"),
                               ("hybrid", 2, "recursive"), ("hybrid", 4, "flat"),
                               ("hybrid", 4, "recursive"), ("polar_repetition", 1, "flat")]))
def test_noiseless_roundtrip(seed, frozen, list_size, family):
    # Nearly noiseless frames from the frame pipeline decode to their payload
    # and pass the CRC (a code without CRC reports no pass).
    scheme, t, variant = family
    n, r = 64, 2
    p = 6 if len(frozen) <= n - 6 else 0
    spec = spec_for(scheme=scheme, n=n, k=n - p - len(frozen), t=t, r=r, p=p,
                    variant=variant, frozen=frozen)
    rngs = [ch.seeded_rng(seed, 0, i) for i in range(3)]
    info = np.stack([rng.integers(0, 2, size=spec.k, dtype=np.int8) for rng in rngs])
    cfg = ch.ChannelConfig("awgn", 60.0, 0.5)                  # sigma^2 = 1e-6, also for k = 0
    x = ch.transmit_frames(spec, cfg, enc.message_u(info, spec), rngs)
    decode = scl_decode_batch if scheme == "hybrid" else baseline_decode_batch
    out = decode(spec, x, list_size)
    assert np.array_equal(out.u_hat[:, spec.unfrozen_indices()[:spec.k]], info)
    assert out.crc_pass.all() == (p > 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(32),
       list_size=st.sampled_from([1, 2, 4, 8]), crc_on=st.booleans())
def test_hybrid_t1_unit_rho_equals_baseline(seed, frozen, list_size, crc_on):
    # Over GF(2) with unit coefficients the hybrid code is the baseline code.
    n, r = 32, 2
    p = 6 if len(frozen) <= n - 6 else 0
    spec_h, spec_b = (spec_for(scheme=scheme, n=n, k=n - p - len(frozen), t=1, r=r, p=p,
                               frozen=frozen) for scheme in ("hybrid", "polar_repetition"))
    llrs = np.random.default_rng(seed).normal(1.0, 2.0, size=(4, r * n))
    s_inner = combine_repetitions(llrs, np.ones((4, r - 1, n), dtype=np.int64), build_field(1))
    hyb = scl_decode_batch(spec_h, s_inner, list_size, crc_on=crc_on, return_paths=True)
    base = baseline_decode_batch(spec_b, combine_baseline(llrs, r), list_size, crc_on=crc_on,
                                 return_paths=True)
    for field in ("u_hat", "crc_pass", "list_rank", "all_u"):
        assert np.array_equal(getattr(hyb, field), getattr(base, field)), field
    for field in ("chosen_pm", "all_pm"):
        np.testing.assert_allclose(getattr(hyb, field), getattr(base, field),
                                   rtol=PM_TOL, atol=PM_TOL, err_msg=field)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frozen=frozen_sets(32),
       family=st.sampled_from([("hybrid", 1), ("hybrid", 2), ("hybrid", 4),
                               ("polar_repetition", 1)]),
       list_size=st.sampled_from([2, 8, 64]))
def test_surviving_paths_are_distinct(seed, frozen, family, list_size):
    # Two survivors differ at the bit where their lineages split, and pruning
    # only drops paths, so weight enumeration needs no deduplication.
    assume(len(frozen) < 32)                                  # a rate-0 code has no SNR
    scheme, t = family
    spec = spec_for(scheme=scheme, n=32, k=32 - len(frozen), t=t, r=2, frozen=frozen)
    cfg = ch.ChannelConfig("awgn", 40.0, spec.rate)
    x = ch.transmit_frames(spec, cfg, np.zeros((1, spec.n), dtype=np.int8),
                           [ch.seeded_rng(seed, 0)], ch.pinned_coefficients(spec, seed))
    decode = scl_decode_batch if scheme == "hybrid" else baseline_decode_batch
    paths = decode(spec, x, list_size, crc_on=False, return_paths=True).all_u[0]
    assert len(np.unique(paths, axis=0)) == len(paths)


def test_list_size_budget_counts_reachable_paths(monkeypatch):
    # k + p = 3 unfrozen bits reach at most 8 paths; a hybrid path holds
    # n/t * 2^t = 32 LLR entries, a baseline path n = 16.
    spec_h = spec_for(n=16, k=3, t=2, r=2)
    spec_b = spec_for(scheme="polar_repetition", n=16, k=3, t=1, r=2)
    x_h, x_b = np.ones((1, 8, 4)), combine_baseline(np.ones((1, 32)), 2)
    monkeypatch.setattr(decoder, "MAX_PATH_ENTRIES", 4 * 32)
    scl_decode_batch(spec_h, x_h, 4)
    baseline_decode_batch(spec_b, x_b, 8)
    with pytest.raises(ValueError, match="list size 5"):
        scl_decode_batch(spec_h, x_h, 5)
    monkeypatch.setattr(decoder, "MAX_PATH_ENTRIES", 8 * 32)
    scl_decode_batch(spec_h, x_h, 2**40)
    monkeypatch.setattr(decoder, "MAX_PATH_ENTRIES", 8 * 16 - 1)
    with pytest.raises(ValueError, match="list size"):
        baseline_decode_batch(spec_b, x_b, 2**40)


def test_every_decoder_reads_only_outer_code_llrs():
    # One input contract for both schemes and all three entry points: (frames, n/t, 2^t)
    # symbol or (frames, n) bit LLRs, the r repeats already combined.
    spec_h = spec_for(n=16, k=8, t=2, r=2)
    spec_b = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=2)
    truth = np.zeros((2, 16), dtype=np.int8)
    for spec, wrong in ((spec_b, np.ones((2, 32))), (spec_b, np.ones((2, 16, 1))),
                        (spec_h, np.ones((2, 8, 2))), (spec_h, np.ones((2, 16)))):
        decode = scl_decode_batch if spec.scheme == "hybrid" else baseline_decode_batch
        for call in (lambda: decode(spec, wrong, 4), lambda: genie_first_errors(spec, wrong, truth)):
            with pytest.raises(ValueError, match="decoder input has shape"):
                call()


def test_frame_batch_keeps_the_benchmark_batches():
    # N = 8192 codes at L = 8 keep their chunks, one 512-trial construction batch
    # stays whole, and an unpinned hybrid frame's coefficients and keys count at N = 2^21.
    gf16, gf4, base = (spec_for(scheme=s, n=512, k=80, t=t, r=16)
                       for s, t in (("hybrid", 4), ("hybrid", 2), ("polar_repetition", 1)))
    assert decoder.frame_batch(gf16, 8, pinned=False) == 122
    assert decoder.frame_batch(base, 8, pinned=False) == 488
    assert decoder.frame_batch(gf4, 1, pinned=True) >= 512
    long_gf4 = dataclasses.replace(gf4, r=4096)
    assert decoder.frame_batch(long_gf4, 8, pinned=False) == 1
    assert decoder.frame_batch(long_gf4, 8, True) == decoder.frame_batch(gf4, 8, True) == 244


def test_decode_leaves_no_path_state_behind():
    # A decode's _PathState (its trace and parent maps) must be freed when
    # the call returns, not held by a reference cycle until the cyclic
    # collector runs.
    rng = np.random.default_rng(21)
    spec_h = spec_for(n=16, k=8, t=2, r=2)
    spec_b = spec_for(scheme="polar_repetition", n=16, k=8, t=1, r=2)
    gc.collect()
    gc.disable()
    try:
        scl_decode_batch(spec_h, rng.normal(size=(3, 8, 4)), 4)
        baseline_decode_batch(spec_b, combine_baseline(rng.normal(size=(3, 32)), 2), 4)
        assert not any(isinstance(o, _PathState) for o in gc.get_objects())
    finally:
        gc.enable()
