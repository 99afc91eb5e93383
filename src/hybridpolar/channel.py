"""BPSK transmission over AWGN and Rayleigh block-fading channels.

:func:`transmit_frames` is the one transmit chain of every simulation,
construction and spectrum run.  It forms each frame's bit LLRs lambda =
ln W(y | 0) - ln W(y | 1) = 2*h*y/sigma^2 in place, with perfect channel
state h, and sums the r repeats of each outer-code position: a baseline
bit's LLRs by :func:`hybridpolar.decoder.combine_baseline`, a hybrid
symbol's by :func:`hybridpolar.decoder.combine_keyed`.  A hybrid symbol s
has the LLR S[s] = ln W(y | 0) - ln W(y | s), the sum of lambda over the
bits where s has a 1, so S[0] = 0 and the likeliest symbol attains the
minimum; these 2^t vectors are formed only after the repeats are summed,
and no (frames, N) array exists.  Frame i draws from its own generator,
in this order: the caller's u vector, its repetition coefficients (unless
pinned), its fading gains, its noise.  A helper thread draws the gains and noise
of each frame, in order, after the calling thread has drawn every frame's
coefficients; no generator is ever used by two threads, so no stream, and no
output bit, depends on their timing.  A call of one frame starts no thread: the
calling thread makes the same draw itself.
"""

from __future__ import annotations

import functools
import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import decoder as _decoder
from . import encoder as _encoder
from .galois import build_field, unpack_symbol_array

if TYPE_CHECKING:  # pragma: no cover
    from .codespec import CodeSpec


def check_channel_kind(kind: str, fading_blocks: int) -> None:
    """Reject an unknown channel kind or block fading without blocks."""
    if kind not in ("awgn", "rayleigh_block"):
        raise ValueError(f"unknown channel kind {kind!r}")
    if kind == "rayleigh_block" and fading_blocks < 1:
        raise ValueError("rayleigh_block needs fading_blocks >= 1")


# Largest accepted LLR scale 2/sigma^2 (Eb/N0 up to ~1500 dB).  The decoder
# sums channel LLRs over repetitions, Stage-2 spans and path metrics; near
# the float64 maximum those sums overflow to inf and inf - inf gives NaN
# metrics.  1e150 leaves ~10^158 of headroom for the sums and for |h*y|.
MAX_LLR_SCALE = 1e150


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters for one operating point.

    ``sigma2`` is derived from the per-information-bit SNR as
    1 / (2 * R * 10^(ebn0_db/10)) with R = k/N counting information
    bits only.  ``fading_blocks`` is the number of independent fading
    realisations per frame (Rayleigh only); each block spans
    N_sym / fading_blocks consecutive symbols.
    """

    kind: str
    ebn0_db: float
    rate: float
    fading_blocks: int = 0

    def __post_init__(self):
        check_channel_kind(self.kind, self.fading_blocks)
        if self.rate <= 0:
            raise ValueError("code rate must be positive")
        try:
            usable = 0.0 < 2.0 / self.sigma2 <= MAX_LLR_SCALE
        except (OverflowError, ZeroDivisionError):
            usable = False
        if not usable:
            raise ValueError(f"Eb/N0 = {self.ebn0_db} dB gives no LLR scale 2/sigma^2 "
                             f"in (0, {MAX_LLR_SCALE:g}]")

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


@functools.lru_cache(maxsize=None)
def _bpsk_table(t: int, primitive_poly: int | None = None) -> np.ndarray:
    """Read-only (q*q, t) table: row rho*q + c (= c*q + rho) holds the samples of rho * c."""
    table = 1.0 - 2.0 * unpack_symbol_array(build_field(t, primitive_poly).mul.ravel(), t)
    table.setflags(write=False)
    return table


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def bpsk_modulate(symbols: np.ndarray, t: int) -> np.ndarray:
    """Unpack symbols to bits (alpha^0 coefficient first) and map 0 -> +1, 1 -> -1."""
    x = np.take(_bpsk_table(t), np.add(symbols, 1 << t), axis=0)   # the rows of rho = 1
    return x.reshape(*x.shape[:-2], -1)


def _check_blocks(cfg: ChannelConfig, n: int) -> None:
    if cfg.kind != "awgn" and n % cfg.fading_blocks:
        raise ValueError(f"fading_blocks={cfg.fading_blocks} does not divide sample count {n}")


def _draw(cfg: ChannelConfig, rng, y: np.ndarray):
    """Draw the gains h (..., B, 1; AWGN: 1.0), then the noise into ``y``; returns h."""
    h = 1.0
    if cfg.kind != "awgn":
        h = rng.rayleigh(scale=np.sqrt(0.5), size=(*y.shape[:-1], cfg.fading_blocks, 1))
    rng.standard_normal(out=y)   # sigma * z is rng.normal(0, sigma) bit for bit
    return h


def _receive(x: np.ndarray, h, cfg: ChannelConfig, y: np.ndarray) -> None:
    """Turn the noise ``y`` into sigma * y + h * x in place; scales C-ordered ``x`` by h."""
    if cfg.kind != "awgn":
        blocks = x.reshape(h.shape[:-1] + (-1,))
        blocks *= h
    y *= np.sqrt(cfg.sigma2)
    y += x


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def transmit(x: np.ndarray, cfg: ChannelConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Send modulated samples through the configured channel.

    Returns (y, h) where h is the per-sample gain seen by the receiver
    (all ones for AWGN).  Fading gains are real magnitudes with
    E[h^2] = 1, constant over each block of t * tau_f samples; perfect
    channel state information is assumed, so h is returned as-is.
    """
    x = np.array(x, dtype=np.float64, order="C")   # a copy: _receive scales it by h
    _check_blocks(cfg, x.shape[-1])
    y = np.empty_like(x)
    h = _draw(cfg, rng, y)
    _receive(x, h, cfg, y)
    return y, (np.ones_like(x).reshape(np.shape(h)[:-1] + (-1,)) * h).reshape(x.shape)


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def initial_llrs(y: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    """Bit LLRs (2/sigma^2) * h * y from channel output and gains."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive to form LLRs")
    return (2.0 / sigma2) * np.asarray(h, dtype=np.float64) * np.asarray(y, dtype=np.float64)


def seeded_rng(seed: int, *path: int):
    """Generator of the stream (seed, *path): (seed, 0, i) is frame i's."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(path)))


def pinned_coefficients(spec: "CodeSpec", seed: int) -> np.ndarray | None:
    """The (r-1, n/t) multipliers a hybrid run pins, from the stream (seed, 1); baseline: None."""
    if spec.scheme != "hybrid":
        return None
    return _encoder.draw_coefficients(spec.n // spec.t, spec.r, spec.field_tables(),
                                      seeded_rng(seed, 1))


_RING = 4   # N-sample noise buffers in flight between the two threads
_RING_SAMPLES = 1 << 24   # most samples in the ring: a frame of N = 2^24 gets one buffer


def _draw_frames(cfg: ChannelConfig, rngs, ring: np.ndarray, free, ready) -> None:
    """Helper thread, generator calls only: draw each frame into the ring slot ``free`` gives."""
    try:
        for rng, slot in zip(rngs, iter(free.get, None)):
            ready.put((_draw(cfg, rng, ring[slot]), slot))   # a None slot ends the loop
    except BaseException as exc:   # sent in place of a frame; the calling thread raises it
        ready.put((exc, None))


def transmit_frames(spec: "CodeSpec", cfg: ChannelConfig, u: np.ndarray, rngs,
                    pinned: np.ndarray | None = None) -> np.ndarray:
    """Encode, modulate and transmit a (frames, n) batch of u vectors into decoder input.

    ``rngs`` holds one generator per frame; hybrid frames draw their coefficients from it
    unless ``pinned`` (r-1, n/t) fixes them.  Then a helper thread (none for one frame) draws
    each frame's gains and noise into a reused N-sample buffer, while this thread adds the
    samples of rho * c, read from a table, forms the LLRs in place and sums the r repeats into
    the frame's (frames, n/t, 2^t) symbol LLRs (hybrid) or (frames, n) bit LLRs (baseline).
    """
    hybrid = spec.scheme == "hybrid"
    _check_blocks(cfg, spec.N)
    tables = spec.field_tables()
    q, n2 = tables.q, spec.n // spec.t
    rho = np.broadcast_to(1, (1, spec.r, n2))   # the baseline repeats with rho = 1
    if hybrid:
        coefficients = np.asarray(pinned)[None] if pinned is not None else np.stack(
            [_encoder.draw_coefficients(n2, spec.r, tables, rng) for rng in rngs])
        rho = _encoder.block_coefficients(coefficients, spec.r, n2, q)   # (frames or 1, r, n2)
        keys = rho + q * np.arange(n2)   # the combine keys i*q + rho
    outer = q * _encoder.encode_u_vector(u, spec)   # c*q: row c*q + rho holds rho * c
    samples = _bpsk_table(spec.t, spec.primitive_poly)
    out = np.empty((len(rngs), n2, q) if hybrid else (len(rngs), spec.n))
    ring = np.empty((min(_RING, len(rngs), max(1, _RING_SAMPLES // spec.N)), spec.N))
    free, ready = queue.SimpleQueue(), queue.SimpleQueue()
    for slot in range(len(ring)):
        free.put(slot)
    helper = threading.Thread(target=_draw_frames, args=(cfg, rngs, ring, free, ready),
                              daemon=True)
    (helper.start if len(rngs) > 1 else helper.run)()   # one frame: drawn here, no thread
    try:
        for row in range(len(rngs)):
            x = np.take(samples, outer[row] + rho[row % len(rho)], axis=0).reshape(-1)
            h, slot = ready.get()
            if slot is None:
                raise h
            y = ring[slot]
            _receive(x, h, cfg, y)
            blocks = y.reshape(np.shape(h)[:-1] + (-1,))
            blocks *= 2.0 / cfg.sigma2 * h   # (2/sigma^2 * h) * y, as initial_llrs rounds it
            out[row] = (_decoder.combine_keyed(y, keys[row % len(keys)], tables) if hybrid
                        else _decoder.combine_baseline(y, spec.r))
            free.put(slot)
    finally:
        free.put(None)
        if helper.ident is not None:
            helper.join()
    return out
