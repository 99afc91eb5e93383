import dataclasses
import importlib
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridpolar import channel, decoder, encoder
from hybridpolar.channel import (ChannelConfig, bpsk_modulate, initial_llrs, pinned_coefficients,
                                 seeded_rng, transmit, transmit_frames)
from hybridpolar.codespec import CodeSpec, default_frozen_set
from hybridpolar.decoder import combine_baseline, combine_repetitions
from hybridpolar.galois import build_field, unpack_symbol_array
from test_perfbench_layers import load_layers


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
        symbols = oracles.channel_stream(u_row, spec, tables, rho)
        y, h = transmit(bpsk_modulate(symbols, spec.t if hybrid else 1), cfg, rng)
        llrs = initial_llrs(y, h, cfg.sigma2)
        rows.append(combine_repetitions(llrs, rho, tables) if hybrid
                    else combine_baseline(llrs, spec.r))
    return np.stack(rows)


def test_pinned_coefficients_are_none_for_the_baseline():
    spec = CodeSpec(scheme="polar_repetition", n=32, k=16, t=1, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(32, 16, 0), design_snr=1.0)
    assert pinned_coefficients(spec, 5) is None
    hybrid = dataclasses.replace(spec, scheme="hybrid")
    assert pinned_coefficients(hybrid, 5).shape == (3, 32)


@pytest.mark.parametrize("kind, blocks", [("awgn", 0), ("rayleigh_block", 4)])
@pytest.mark.parametrize("scheme, t, pin", [("polar_repetition", 1, False),
                                            ("hybrid", 1, False), ("hybrid", 1, True),
                                            ("hybrid", 2, False), ("hybrid", 2, True),
                                            ("hybrid", 4, False), ("hybrid", 4, True)])
def test_transmit_frames_equals_the_single_frame_chain(kind, blocks, scheme, t, pin):
    # Bit for bit, whatever the batch: one call, two calls on a split batch, and the
    # public per-frame functions stacked; for one frame, two frames, and more frames
    # than the helper thread's ring of noise buffers holds.
    spec = CodeSpec(scheme=scheme, n=32, k=16, t=t, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(32, 16, 0), design_snr=1.0)
    cfg = ChannelConfig(kind, ebn0_db=-1.0, rate=spec.rate, fading_blocks=blocks)
    pinned = pinned_coefficients(spec, 5) if pin else None
    for frames in (1, 2, 2 * channel._RING + 1):
        u, rngs = frame_generators(spec, frames)
        whole = transmit_frames(spec, cfg, u, rngs, pinned)
        u, rngs = frame_generators(spec, frames)
        cut = (frames + 1) // 2
        split = [transmit_frames(spec, cfg, u[:cut], rngs[:cut], pinned)]
        if cut < frames:
            split.append(transmit_frames(spec, cfg, u[cut:], rngs[cut:], pinned))
        u, rngs = frame_generators(spec, frames)
        reference = frame_by_frame(spec, cfg, u, rngs, pinned)
        shape = (frames, spec.n // t, 1 << t) if scheme == "hybrid" else (frames, spec.n)
        assert whole.shape == shape
        assert whole.tobytes() == np.concatenate(split).tobytes() == reference.tobytes()


def frame_generators(spec, frames):
    """The u vectors and the frame generators past their u draw, as a simulation has them."""
    rngs = [seeded_rng(5, 0, j) for j in range(frames)]
    return np.stack([rng.integers(0, 2, size=spec.n, dtype=np.int8) for rng in rngs]), rngs


class FailingNoise:
    """A frame generator whose noise draw raises."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, out):
        raise RuntimeError("noise draw failed")


PIPELINE_SPECS = [("polar_repetition", 1, "rayleigh_block"), ("hybrid", 2, "awgn"),
                  ("hybrid", 4, "rayleigh_block")]


def pipeline_case(scheme, t, kind):
    spec = CodeSpec(scheme=scheme, n=32, k=16, t=t, r=4, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(32, 16, 0), design_snr=1.0)
    return spec, ChannelConfig(kind, ebn0_db=-1.0, rate=spec.rate, fading_blocks=4)


def bounded_call(fn, *args, timeout=60.0):
    """Run fn(*args) on a thread that must finish within ``timeout``; returns (result, error)."""
    done = {}

    def target():
        try:
            done["result"] = fn(*args)
        except Exception as exc:
            done["error"] = exc

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "transmit_frames did not return"
    return done.get("result"), done.get("error")


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
def test_transmit_frames_raises_a_helper_error_and_ends_the_helper(scheme, t, kind):
    # The draw of frame 3 of 2 * ring + 1 fails, on whichever thread claims it: the call
    # raises that error, no thread is left behind, and the next call gives the same output.
    spec, cfg = pipeline_case(scheme, t, kind)
    frames = 2 * channel._RING + 1
    u, rngs = frame_generators(spec, frames)
    expected = transmit_frames(spec, cfg, u, rngs)
    threads = threading.active_count()
    u, rngs = frame_generators(spec, frames)
    rngs[3] = FailingNoise(rngs[3])
    _, error = bounded_call(transmit_frames, spec, cfg, u, rngs)
    assert isinstance(error, RuntimeError) and str(error) == "noise draw failed"
    assert threading.active_count() == threads
    u, rngs = frame_generators(spec, frames)
    assert transmit_frames(spec, cfg, u, rngs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
def test_transmit_frames_raises_a_calling_thread_error_and_ends_the_helper(
        scheme, t, kind, monkeypatch):
    # The calling thread's work on the fourth frame it takes fails (the hybrid combine, or
    # the baseline's signal add) while frames are still undrawn: the call raises, and no
    # thread is left behind.
    spec, cfg = pipeline_case(scheme, t, kind)
    frames = 2 * channel._RING + 1
    name = "combine_keyed" if scheme == "hybrid" else "_receive"
    module = decoder if scheme == "hybrid" else channel
    original, calls = getattr(module, name), []

    def failing(*args):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("frame 3 failed")
        return original(*args)

    monkeypatch.setattr(module, name, failing)
    threads = threading.active_count()
    u, rngs = frame_generators(spec, frames)
    _, error = bounded_call(transmit_frames, spec, cfg, u, rngs)
    assert isinstance(error, RuntimeError) and str(error) == "frame 3 failed"
    assert len(calls) == 4
    assert threading.active_count() == threads


def test_transmit_frames_is_exact_under_fast_thread_switching():
    # More callers than cores, each with its own helper thread, and a thread switch every
    # microsecond: every call still gives the single-frame chain's bytes.
    spec, cfg = pipeline_case("hybrid", 2, "rayleigh_block")
    frames = 4 * channel._RING + 3
    u, rngs = frame_generators(spec, frames)
    reference = frame_by_frame(spec, cfg, u, rngs, None)
    calls = [frame_generators(spec, frames) for _ in range(4)]
    results = [None] * len(calls)

    def run(i):
        results[i] = transmit_frames(spec, cfg, *calls[i])

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(out is not None and out.tobytes() == reference.tobytes() for out in results)


@pytest.mark.parametrize("t", [1, 2, 4])
def test_repeat_sample_table_is_bpsk_of_the_products(t):
    # Row rho*q + c of the pipeline's table holds the samples of rho * c, which is c * rho.
    gf = build_field(t)
    q = gf.q
    table = channel._bpsk_table(t, gf.primitive_poly)
    assert not table.flags.writeable
    products = table.reshape(q, q, t)
    assert np.array_equal(products, bpsk_modulate(gf.mul[..., None], t))
    assert np.array_equal(products, products.transpose(1, 0, 2))


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
@pytest.mark.parametrize("pin", [False, True])
def test_traced_layers_run_on_the_calling_thread(scheme, t, kind, pin, monkeypatch):
    # The benchmark's tracer keeps one span stack, so every function it wraps must run on
    # the thread that calls transmit_frames; only the draws run on either thread.
    modules = [importlib.import_module(f"hybridpolar.{name}") for name in
               ("analysis", "channel", "cli", "codespec", "decoder", "encoder", "galois")]
    seen = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    for layer in (*load_layers(), "channel._draw"):
        home, attr = layer.split(".")
        original = getattr(importlib.import_module(f"hybridpolar.{home}"), attr)
        wrapped = recording(layer, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapped)
    spec, cfg = pipeline_case(scheme, t, kind)
    pinned = pinned_coefficients(spec, 5) if pin else None
    u, rngs = frame_generators(spec, 2 * channel._RING + 1)
    seen.clear()
    transmit_frames(spec, cfg, u, rngs, pinned)
    caller = threading.get_ident()
    draws = seen.pop("channel._draw")
    assert "encoder.encode_u_vector" in seen
    assert all(threads == {caller} for threads in seen.values()), seen
    assert 1 <= len(draws) <= 2


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
@pytest.mark.parametrize("pin", [False, True])
def test_one_frame_starts_no_thread(scheme, t, kind, pin, monkeypatch):
    # A one-frame call makes the helper's draw on the calling thread, before its loop:
    # the same bytes as the single-frame chain and as the first row of a threaded call,
    # and a failing draw still raises its own error.
    spec, cfg = pipeline_case(scheme, t, kind)
    pinned = pinned_coefficients(spec, 5) if pin else None
    u, rngs = frame_generators(spec, 2)
    threaded = transmit_frames(spec, cfg, u, rngs, pinned)[:1]
    u, rngs = frame_generators(spec, 1)
    reference = frame_by_frame(spec, cfg, u, rngs, pinned)

    def refuse(self):
        raise AssertionError("a one-frame call started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    u, rngs = frame_generators(spec, 1)
    out = transmit_frames(spec, cfg, u, rngs, pinned)
    assert out.tobytes() == reference.tobytes() == threaded.tobytes()
    u, rngs = frame_generators(spec, 1)
    with pytest.raises(RuntimeError, match="noise draw failed"):
        transmit_frames(spec, cfg, u, [FailingNoise(rngs[0])], pinned)


def drawing_threads(monkeypatch, hold=lambda draws, caller: None):
    """Record the thread of each channel._draw, calling ``hold(draws, caller)`` before it.

    Returns (draws, caller, call): ``call`` runs transmit_frames and puts its thread in
    ``caller``.
    """
    original, draws, caller = channel._draw, [], []

    def recording(*args):
        draws.append(threading.get_ident())
        hold(draws, caller[0])
        return original(*args)

    def call(*args):
        caller.append(threading.get_ident())
        return transmit_frames(*args)

    monkeypatch.setattr(channel, "_draw", recording)
    return draws, caller, call


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
def test_the_calling_thread_draws_while_the_helper_is_held(scheme, t, kind, monkeypatch):
    # The helper's draws wait until the calling thread has drawn two frames itself: the
    # calling thread claims undrawn frames instead of waiting, and the bytes do not move.
    spec, cfg = pipeline_case(scheme, t, kind)
    frames = 2 * channel._RING + 1
    reference = frame_by_frame(spec, cfg, *frame_generators(spec, frames), None)
    released = threading.Event()

    def hold(draws, caller):
        if threading.get_ident() == caller:
            if draws.count(caller) == 2:
                released.set()
        elif not released.wait(5.0):
            released.set()   # the calling thread is not drawing: let the helper go on

    draws, caller, call = drawing_threads(monkeypatch, hold)
    out, error = bounded_call(call, spec, cfg, *frame_generators(spec, frames))
    assert error is None and out.tobytes() == reference.tobytes()
    assert draws.count(caller[0]) >= 2 and len(draws) == frames


def test_a_failing_draw_on_the_calling_thread_ends_the_helper(monkeypatch):
    # The helper is held, so the calling thread draws a frame itself, and that draw fails:
    # the call raises its error and leaves no thread behind.
    spec, cfg = pipeline_case("hybrid", 4, "rayleigh_block")
    released = threading.Event()

    def hold(draws, caller):
        if threading.get_ident() == caller:
            released.set()
            raise RuntimeError("own draw failed")
        released.wait(5.0)

    _, _, call = drawing_threads(monkeypatch, hold)
    threads = threading.active_count()
    _, error = bounded_call(call, spec, cfg, *frame_generators(spec, 2 * channel._RING + 1))
    assert isinstance(error, RuntimeError) and str(error) == "own draw failed"
    assert threading.active_count() == threads


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
def test_the_helper_draws_most_frames_behind_a_slow_combine(scheme, t, kind, monkeypatch):
    # While the calling thread sleeps in every combine, the helper fills the ring ahead of
    # it, so the calling thread finds a drawn frame ready nearly every time.
    spec, cfg = pipeline_case(scheme, t, kind)
    frames = 4 * channel._RING + 3
    reference = frame_by_frame(spec, cfg, *frame_generators(spec, frames), None)
    name = "combine_keyed" if scheme == "hybrid" else "combine_baseline"
    original = getattr(decoder, name)

    def slow(*args):
        time.sleep(0.002)
        return original(*args)

    monkeypatch.setattr(decoder, name, slow)
    draws, caller, call = drawing_threads(monkeypatch)
    out, error = bounded_call(call, spec, cfg, *frame_generators(spec, frames))
    assert error is None and out.tobytes() == reference.tobytes()
    assert len(draws) == frames and draws.count(caller[0]) < frames // 2, draws


@pytest.mark.parametrize("scheme, t, kind", PIPELINE_SPECS)
def test_a_one_slot_ring_starts_no_thread(scheme, t, kind, monkeypatch):
    # When the ring holds one N-sample buffer, the calling thread draws every frame itself.
    class Unstarted(threading.Thread):
        def start(self):
            raise AssertionError("a one-slot ring started a thread")

    monkeypatch.setattr(channel, "threading", types.SimpleNamespace(Thread=Unstarted))
    spec, cfg = pipeline_case(scheme, t, kind)
    monkeypatch.setattr(channel, "_RING_SAMPLES", spec.N)
    frames = 2 * channel._RING + 1
    reference = frame_by_frame(spec, cfg, *frame_generators(spec, frames), None)
    out, error = bounded_call(transmit_frames, spec, cfg, *frame_generators(spec, frames))
    assert error is None and out.tobytes() == reference.tobytes()


def test_a_baseline_frame_holds_three_frame_sized_arrays():
    # One baseline frame at N = 2^21 holds its noise buffer, its sample index and its
    # samples (16 MiB each); it builds no ones, rho or combine-key array of N entries.
    spec = CodeSpec(scheme="polar_repetition", n=512, k=64, t=1, r=4096, p=0, crc_poly=0,
                    frozen_set=default_frozen_set(512, 64, 0), design_snr=1.0)
    cfg = ChannelConfig("awgn", ebn0_db=1.0, rate=spec.rate)
    u, rngs = frame_generators(spec, 1)
    tracemalloc.start()
    try:
        out = transmit_frames(spec, cfg, u, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 512)
    assert peak < 4 * spec.N * 8
