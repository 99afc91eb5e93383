import numpy as np
import pytest

import oracles
from hybridpolar.analysis import (_WEIGHT_CHUNK, WeightHistogram, _codeword_weights,
                                  brute_force_weights, count_operations,
                                  enumerate_low_weight, pinned_coefficients, q_function,
                                  union_bound)
from hybridpolar.codespec import CodeSpec, default_frozen_set

CRC6 = 0b1000011

# (n, r) -> expected (inner, outer, total) for the baseline scheme.
BASELINE_ROWS = {
    (512, 16): (7680, 11520, 19200),
    (256, 32): (7936, 5120, 13056),
    (128, 64): (8064, 2240, 10304),
}
# (n, r, t) -> expected (inner, stage2, stage1, total) for the hybrid scheme.
HYBRID_ROWS = {
    (512, 16, 2): (11520, 29696, 1024, 42240),
    (256, 32, 2): (11904, 12992, 512, 25408),
    (128, 64, 2): (12096, 5568, 256, 17920),
    (512, 16, 4): (28800, 228032, 3328, 260160),
    (256, 32, 4): (29760, 97728, 1664, 129152),
    (128, 64, 4): (30240, 40720, 832, 71792),
}


def test_baseline_operation_counts():
    for (n, r), (inner, outer, total) in BASELINE_ROWS.items():
        rep = count_operations("polar_repetition", n, r)
        assert (rep.inner_ops, rep.stage2_ops, rep.total_ops) == (inner, outer, total)
        assert rep.stage1_ops == 0


def test_hybrid_operation_counts():
    for (n, r, t), (inner, s2, s1, total) in HYBRID_ROWS.items():
        rep = count_operations("hybrid", n, r, t)
        assert (rep.inner_ops, rep.stage2_ops, rep.stage1_ops) == (inner, s2, s1)
        assert rep.total_ops == total


def test_count_operations_rejects_bad_input():
    with pytest.raises(ValueError):
        count_operations("hybrid", 100, 4, 2)
    with pytest.raises(ValueError):
        count_operations("hybrid", 128, 4, 3)
    with pytest.raises(ValueError):
        count_operations("ldpc", 128, 4)


def small_hybrid_spec():
    # n=16, t=2, r=4, k=6, p=0: small enough for exhaustive enumeration.
    return CodeSpec(scheme="hybrid", n=16, k=6, t=2, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(16, 6, 0), design_snr=2.0)


def test_brute_force_empty_for_k0():
    spec = CodeSpec(scheme="hybrid", n=16, k=0, t=2, r=1, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(16, 0, 0), design_snr=2.0)
    hist = brute_force_weights(spec, seed=0)
    assert hist.counts == {}


def test_brute_force_total_counts_all_nonzero_messages():
    spec = small_hybrid_spec()
    hist = brute_force_weights(spec, seed=0)
    assert hist.total() == 2 ** 6 - 1
    assert 0 not in hist.counts


def test_brute_force_guard():
    spec = CodeSpec(scheme="polar_repetition", n=4096, k=30, t=1, r=1, p=0,
                    crc_poly=0, frozen_set=default_frozen_set(4096, 30, 0),
                    design_snr=2.0)
    with pytest.raises(ValueError):
        brute_force_weights(spec, seed=0)


def test_baseline_weights_are_multiples_of_r():
    spec = CodeSpec(scheme="polar_repetition", n=16, k=6, t=1, r=4, p=0,
                    crc_poly=0, frozen_set=default_frozen_set(16, 6, 0),
                    design_snr=2.0)
    hist = brute_force_weights(spec, seed=0)
    assert all(w % 4 == 0 for w in hist.counts)


def test_single_all_ones_row_codeword():
    # Freezing everything except the last input leaves one codeword of
    # weight N: the all-ones row repeated r times.
    spec = CodeSpec(scheme="polar_repetition", n=16, k=1, t=1, r=3, p=0,
                    crc_poly=0, frozen_set=tuple(range(15)), design_snr=2.0)
    hist = brute_force_weights(spec, seed=0)
    assert hist.counts == {48: 1}


def test_enumeration_matches_brute_force_minimum():
    spec = small_hybrid_spec()
    exact = brute_force_weights(spec, seed=7)
    est = enumerate_low_weight(spec, list_size=1024, high_snr_db=40.0, seed=7)
    assert est.min_weight == exact.min_weight
    assert est.counts[est.min_weight] == exact.counts[exact.min_weight]
    # with L covering the whole message space the spectra agree entirely
    assert est.counts == exact.counts


def test_enumeration_subset_of_brute_force():
    spec = small_hybrid_spec()
    exact = brute_force_weights(spec, seed=3)
    est = enumerate_low_weight(spec, list_size=16, high_snr_db=40.0, seed=3)
    for w, count in est.counts.items():
        assert count <= exact.counts.get(w, 0)


def test_enumeration_baseline_scheme():
    spec = CodeSpec(scheme="polar_repetition", n=16, k=5, t=1, r=2, p=0,
                    crc_poly=0, frozen_set=default_frozen_set(16, 5, 0),
                    design_snr=2.0)
    exact = brute_force_weights(spec, seed=1)
    est = enumerate_low_weight(spec, list_size=64, high_snr_db=40.0, seed=1)
    assert est.counts == exact.counts


@pytest.mark.parametrize("scheme,t", [("hybrid", 1), ("hybrid", 2), ("hybrid", 4),
                                      ("polar_repetition", 1)])
@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, _WEIGHT_CHUNK, _WEIGHT_CHUNK + 1])
def test_codeword_weights_match_per_row_oracle(scheme, t, r, rows):
    spec = CodeSpec(scheme=scheme, n=32, k=16, t=t, r=r, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(32, 16, 0), design_snr=2.0)
    tables = spec.field_tables()
    u = np.random.default_rng(rows + 10 * r + 100 * t).integers(0, 2, size=(rows, 32),
                                                                dtype=np.int8)
    rho = pinned_coefficients(spec, 5)
    expected = [oracles.codeword_weight(row, spec, tables, rho) for row in u]
    assert _codeword_weights(u, spec, tables, rho).tolist() == expected


@pytest.mark.parametrize("scheme,t,r", [("hybrid", 2, 4), ("hybrid", 4, 3),
                                        ("polar_repetition", 1, 4)])
def test_brute_force_matches_per_codeword_loop(scheme, t, r):
    # k = 8: 255 messages, so the payloads span two chunks.
    spec = CodeSpec(scheme=scheme, n=16, k=8, t=t, r=r, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(16, 8, 0), design_snr=2.0)
    rho = pinned_coefficients(spec, 2)
    assert brute_force_weights(spec, seed=2).counts == \
        oracles.brute_force_weight_counts(spec, rho)


def test_histogram_rejects_zero_weight():
    hist = WeightHistogram()
    with pytest.raises(ValueError):
        hist.add(0)


def test_histogram_csv_format():
    hist = WeightHistogram()
    hist.add(12, 3)
    hist.add(8, 1)
    assert hist.to_csv() == "weight,count\n8,1\n12,3\n"


def test_union_bound_empty_histogram():
    assert union_bound(WeightHistogram(), rate=0.5, ebn0_db=0.0) == 0.0


def test_union_bound_single_codeword():
    hist = WeightHistogram()
    hist.add(4, 1)
    got = union_bound(hist, rate=0.5, ebn0_db=0.0)
    assert np.isclose(got, oracles.q_function_erfc(2.0), atol=1e-12)
    assert np.isclose(got, 0.022750131948179, atol=1e-12)


def test_union_bound_monotone_in_snr():
    spec = small_hybrid_spec()
    hist = brute_force_weights(spec, seed=0)
    values = [union_bound(hist, spec.rate, db) for db in np.linspace(-5, 10, 31)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_q_function_values():
    assert np.isclose(q_function(0.0), 0.5)
    assert q_function(10.0) < 1e-20
