import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpolar import codespec, decoder
from hybridpolar.codespec import (MAX_FRAME_SAMPLES, CodeSpec, construct_code, default_frozen_set,
                                  first_error_counts, load_spec, save_spec)

CRC6 = 0b1000011


def valid_spec(**overrides):
    base = dict(scheme="hybrid", n=32, k=12, t=2, r=4, p=6, crc_poly=CRC6,
                frozen_set=default_frozen_set(32, 12, 6), design_snr=2.0)
    base.update(overrides)
    return CodeSpec(**base)


# --- validation ----------------------------------------------------------------

def test_valid_spec_derives_defaults():
    spec = valid_spec()
    assert spec.N == 128
    assert spec.primitive_poly == 0b111
    assert np.isclose(spec.rate, 12 / 128)


def test_rejects_non_power_of_two_n():
    with pytest.raises(ValueError, match="'n'"):
        valid_spec(n=24, frozen_set=default_frozen_set(24, 12, 6))


def test_rejects_a_baseline_over_a_larger_field():
    # The polar repetition scheme is binary: a t that it would ignore is refused.
    assert valid_spec(scheme="polar_repetition", t=1).primitive_poly == 0b11
    for t in (2, 4):
        with pytest.raises(ValueError, match="^invalid CodeSpec field 't'"):
            valid_spec(scheme="polar_repetition", t=t)


@pytest.mark.parametrize("scheme,t,poly", [("hybrid", 4, 0b11111), ("hybrid", 2, 0b101),
                                           ("polar_repetition", 1, 0b10)])
def test_load_rejects_a_non_primitive_polynomial(tmp_path, scheme, t, poly):
    # Each modulus has degree t but no primitive root alpha: refused at load, for both
    # schemes, and not first by the channel of the first frame.
    path = tmp_path / "code.spec"
    save_spec(valid_spec(scheme=scheme, t=t), path)
    path.write_text(re.sub(r"primitive_poly = \w+", f"primitive_poly = {poly:#x}",
                           path.read_text()))
    with pytest.raises(ValueError, match="^invalid CodeSpec field 'primitive_poly'"):
        load_spec(path)


def test_rejects_more_channel_samples_than_the_bound():
    widest = MAX_FRAME_SAMPLES // 32
    assert valid_spec(r=widest).N == MAX_FRAME_SAMPLES
    with pytest.raises(ValueError, match=f"'r': N = n\\*r = {MAX_FRAME_SAMPLES + 32} exceeds"):
        valid_spec(r=widest + 1)


def test_rejects_bad_frozen_size():
    with pytest.raises(ValueError, match="'frozen_set'"):
        valid_spec(frozen_set=(0, 1, 2))


def test_rejects_out_of_range_frozen_index():
    bad = tuple(list(default_frozen_set(32, 12, 6)[:-1]) + [32])
    with pytest.raises(ValueError, match="'frozen_set'"):
        valid_spec(frozen_set=bad)


def test_rejects_overfull_payload():
    with pytest.raises(ValueError, match="'k'"):
        valid_spec(k=30, frozen_set=())


@pytest.mark.parametrize("name,overrides", [
    ("k", dict(k=-3, frozen_set=default_frozen_set(32, -3, 6))),
    ("p", dict(p=-2, crc_poly=0, frozen_set=default_frozen_set(32, 12, -2)))])
def test_rejects_negative_payload_length(name, overrides):
    # Not "k+p = ... exceeds n": the message names the negative field.
    with pytest.raises(ValueError, match=f"field '{name}': -[0-9]+ is negative"):
        valid_spec(**overrides)


def test_rejects_crc_poly_degree_mismatch():
    with pytest.raises(ValueError, match="'crc_poly'"):
        valid_spec(crc_poly=0b1011)


@pytest.mark.parametrize("p", [0, 6])
def test_rejects_negative_crc_poly(p):
    # -0x43 has bit length 7, so at p = 6 the degree check alone passed it, and
    # save_spec then wrote "0x-43", which load_spec refuses.
    with pytest.raises(ValueError, match="'crc_poly': -67 is negative"):
        valid_spec(p=p, crc_poly=-0x43, frozen_set=default_frozen_set(32, 12, p))


def test_rejects_unknown_scheme_and_variant():
    with pytest.raises(ValueError, match="'scheme'"):
        valid_spec(scheme="turbo")
    with pytest.raises(ValueError, match="'encoder_variant'"):
        valid_spec(encoder_variant="zigzag")


def test_rejects_bad_symbol_degree():
    with pytest.raises(ValueError, match="'t'"):
        valid_spec(t=3)


def test_unfrozen_indices_complement():
    spec = valid_spec()
    assert len(spec.unfrozen_indices()) == spec.k + spec.p
    assert not set(spec.unfrozen_indices()) & set(spec.frozen_set)


# --- persistence ------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    spec = valid_spec(encoder_variant="recursive", design_snr=1.75)
    path = tmp_path / "code.spec"
    save_spec(spec, path)
    assert load_spec(path) == spec


@st.composite
def any_specs(draw):
    """Valid specs of both schemes: any frozen-set size, p in {0, 3, 6}, any finite SNR."""
    scheme = draw(st.sampled_from(["hybrid", "polar_repetition"]))
    t = draw(st.sampled_from([1, 2, 4])) if scheme == "hybrid" else 1
    n = draw(st.sampled_from([8, 16, 32, 64]))
    p = draw(st.sampled_from([0, 3, 6]))
    crc_poly = (1 << p) | draw(st.integers(0, (1 << p) - 1)) if p else draw(st.integers(0, 255))
    frozen = draw(st.sets(st.integers(0, n - 1), max_size=n - p))
    # -0.0 must keep its sign, 0.1 + 0.2 needs all 17 significant digits, 5e-324 is subnormal.
    snr = draw(st.one_of(st.sampled_from([-0.0, 0.1 + 0.2, 5e-324]),
                         st.floats(allow_nan=False, allow_infinity=False)))
    return CodeSpec(scheme=scheme, n=n, k=n - p - len(frozen), t=t, r=draw(st.integers(1, 16)),
                    p=p, crc_poly=crc_poly, frozen_set=frozen, design_snr=snr,
                    encoder_variant=draw(st.sampled_from(["flat", "recursive"])))


@settings(max_examples=200, deadline=None)
@given(spec=any_specs())
def test_save_load_roundtrip_property(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.spec")
        save_spec(spec, path)
        loaded = load_spec(path)
    assert loaded == spec
    assert math.copysign(1.0, loaded.design_snr) == math.copysign(1.0, spec.design_snr)


def test_load_rejects_wrong_frozen_size(tmp_path):
    spec = valid_spec()
    path = tmp_path / "code.spec"
    save_spec(spec, path)
    text = path.read_text().replace(
        "frozen_set = " + ",".join(str(i) for i in spec.frozen_set),
        "frozen_set = 0,1,2")
    path.write_text(text)
    with pytest.raises(ValueError, match="frozen_set"):
        load_spec(path)


def test_load_rejects_non_power_of_two_n(tmp_path):
    spec = valid_spec()
    path = tmp_path / "code.spec"
    save_spec(spec, path)
    path.write_text(path.read_text().replace("n = 32", "n = 24"))
    with pytest.raises(ValueError, match="'n'"):
        load_spec(path)


@pytest.mark.parametrize("old,new,message", [
    ("N = 128", "N = 64", "invalid CodeSpec field 'N': 64 != n*r = 128"),
    ("N = 128", "N = x", "{path}: N = 'x' is not a valid int"),
    ("design_snr = 2.0", "design_snr = abc", "{path}: design_snr = 'abc' is not a valid float"),
    ("k = 12", "k = 12.0", "{path}: k = '12.0' is not a valid int"),
    ("frozen_set = 0,", "frozen_set = a,", "{path}: frozen_set = 'a' is not a valid int")])
def test_load_rejects_a_wrong_n_or_an_unreadable_value(tmp_path, old, new, message):
    # N is derived from n * r, and a saved N line must agree with it.
    path = tmp_path / "code.spec"
    save_spec(valid_spec(), path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
        load_spec(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "broken.spec"
    path.write_text("scheme = hybrid\nn = 32\n")
    with pytest.raises(ValueError, match="missing"):
        load_spec(path)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "broken.spec"
    path.write_text("scheme hybrid\n")
    with pytest.raises(ValueError, match="key = value"):
        load_spec(path)


@pytest.mark.parametrize("extra,message", [("bogus_key = 5", "unknown spec key 'bogus_key'"),
                                           ("k = 11", "repeated key 'k'")])
def test_load_rejects_unknown_and_repeated_keys(tmp_path, extra, message):
    path = tmp_path / "code.spec"
    save_spec(valid_spec(), path)
    lines = path.read_text().count("\n")
    path.write_text(path.read_text() + extra + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lines + 1}: {message}")):
        load_spec(path)


# --- construction ------------------------------------------------------------------

def test_construction_noise_free_uses_tie_break():
    # At an extreme design SNR no genie decision ever fails, so every
    # counter stays zero and the tie-break freezes the lowest indices.
    spec = valid_spec(design_snr=300.0)
    frozen = construct_code(spec, trials=25, seed=3).frozen_set
    assert frozen == default_frozen_set(32, 12, 6)


def test_construction_full_payload_empty_frozen_set():
    spec = valid_spec(k=26, p=6, frozen_set=())
    assert construct_code(spec, trials=5, seed=0).frozen_set == ()


def test_construction_deterministic():
    spec = valid_spec(design_snr=0.0)
    f1 = construct_code(spec, trials=300, seed=11).frozen_set
    f2 = construct_code(spec, trials=300, seed=11).frozen_set
    assert f1 == f2


def test_construction_batch_size_invariant(monkeypatch):
    spec = valid_spec(design_snr=0.0)
    f1 = construct_code(spec, trials=100, seed=5).frozen_set   # one batch by the rule
    monkeypatch.setattr(decoder, "frame_batch", lambda spec, list_size, pinned: 7)
    f2 = construct_code(spec, trials=100, seed=5).frozen_set
    assert f1 == f2


def test_construction_seed_changes_details():
    spec = valid_spec(design_snr=0.0)
    c1 = first_error_counts(spec, trials=200, seed=1)
    c2 = first_error_counts(spec, trials=200, seed=2)
    assert not np.array_equal(c1, c2)


def test_counter_sum_bounded_by_trials():
    for scheme, t in (("hybrid", 2), ("polar_repetition", 1)):
        spec = valid_spec(scheme=scheme, t=t, design_snr=-2.0)
        counts = first_error_counts(spec, trials=400, seed=9)
        assert counts.sum() <= 400


def test_worst_bit_channel_smoke():
    # Index 0 is the weakest synthetic channel and must collect at
    # least as many first errors as the strongest index n-1.
    spec = valid_spec(scheme="polar_repetition", t=1, r=1, design_snr=0.0,
                      frozen_set=default_frozen_set(32, 12, 6))
    counts = first_error_counts(spec, trials=10_000, seed=4)
    assert counts[0] >= counts[-1]


def test_construct_code_returns_valid_spec():
    params = valid_spec(design_snr=1.0)
    spec = construct_code(params, trials=200, seed=21)
    assert spec.frozen_set != ()
    assert len(spec.frozen_set) == 32 - 12 - 6
    assert dataclasses.replace(spec, frozen_set=params.frozen_set) == params


def test_construction_hybrid_gf16():
    params = valid_spec(t=4, design_snr=0.0)
    spec = construct_code(params, trials=200, seed=8)
    assert len(spec.frozen_set) == 14
