"""BPSK transmission over AWGN and Rayleigh block-fading channels.

Symbol LLR convention: a symbol observation is summarised by a vector
of length 2^t indexed by candidate symbol value s, holding

    S[s] = ln W(y | 0 transmitted) - ln W(y | s transmitted),

so S[0] is identically zero and the most likely symbol attains the
minimum.  For BPSK in Gaussian noise the vector decomposes over the
bits of s: S[s] = sum of 2*h_j*y_j/sigma^2 over the bit positions j
where s has a 1.

:func:`transmit_frames` is the one transmit chain of every simulation,
construction and spectrum run.  Frame i draws from its own generator,
in this order: the caller's u vector, its repetition coefficients
(unless pinned), its fading gains, its noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import decoder as _decoder
from . import encoder as _encoder
from .galois import unpack_symbol_array

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


def bpsk_modulate(symbols: np.ndarray, t: int) -> np.ndarray:
    """Unpack symbols to bits (alpha^0 coefficient first) and map 0 -> +1, 1 -> -1."""
    bits = unpack_symbol_array(np.asarray(symbols, dtype=np.int64), t)
    x = 1.0 - 2.0 * bits.astype(np.float64)
    return x.reshape(*x.shape[:-2], -1)


def transmit(x: np.ndarray, cfg: ChannelConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Send modulated samples through the configured channel.

    Returns (y, h) where h is the per-sample gain seen by the receiver
    (all ones for AWGN).  Fading gains are real magnitudes with
    E[h^2] = 1, constant over each block of t * tau_f samples; perfect
    channel state information is assumed, so h is returned as-is.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.kind == "awgn":
        h = np.ones_like(x)
    else:
        b = cfg.fading_blocks
        n_samples = x.shape[-1]
        if n_samples % b:
            raise ValueError(f"fading_blocks={b} does not divide sample count {n_samples}")
        gains = rng.rayleigh(scale=np.sqrt(0.5), size=(*x.shape[:-1], b))
        h = np.repeat(gains, n_samples // b, axis=-1)
    return h * x + rng.normal(0.0, np.sqrt(cfg.sigma2), size=x.shape), h


def initial_llrs(y: np.ndarray, h: np.ndarray, sigma2: float, t: int) -> np.ndarray:
    """Per-symbol LLR vectors from channel output and gains.

    Input arrays run over the flattened bit stream (t samples per
    symbol); the result has shape (..., n_symbols, 2^t) with entry 0
    pinned to zero.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive to form LLRs")
    y = np.asarray(y, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if y.shape[-1] % t:
        raise ValueError(f"sample count {y.shape[-1]} is not a multiple of t={t}")
    bit_llrs = (2.0 / sigma2) * h * y
    bit_llrs = bit_llrs.reshape(*y.shape[:-1], -1, t)
    membership = unpack_symbol_array(np.arange(1 << t, dtype=np.int64), t)
    return bit_llrs @ membership.T.astype(np.float64)


def seeded_rng(seed: int, *path: int):
    """Generator of the stream (seed, *path): (seed, 0, i) is frame i's."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(path)))


def pinned_coefficients(spec: "CodeSpec", seed: int) -> np.ndarray:
    """The (r-1, n/t) repetition multipliers a run pins, from the stream (seed, 1)."""
    return _encoder.draw_coefficients(spec.n // spec.t, spec.r, spec.field_tables(),
                                      seeded_rng(seed, 1))


def transmit_frames(spec: "CodeSpec", cfg: ChannelConfig, u: np.ndarray, rngs,
                    pinned: np.ndarray | None = None) -> np.ndarray:
    """Encode, modulate and transmit a (frames, n) batch of u vectors.

    ``rngs`` holds one generator per frame.  Hybrid frames draw their
    repetition coefficients from it unless ``pinned`` (r-1, n/t) fixes
    them for every frame.  Returns the decoder input: the combined
    (frames, n/t, 2^t) symbol LLRs for the hybrid scheme, the
    (frames, N) bit LLRs (2/sigma^2) * h * y for the baseline.
    """
    hybrid = spec.scheme == "hybrid"
    tables = spec.field_tables() if hybrid else None
    coefficients = None
    if hybrid and pinned is not None:
        coefficients = np.broadcast_to(pinned, (len(rngs),) + pinned.shape)
    elif hybrid:
        n2 = spec.n // spec.t
        coefficients = np.stack([_encoder.draw_coefficients(n2, spec.r, tables, rng)
                                 for rng in rngs])
    t = spec.t if hybrid else 1
    y = bpsk_modulate(_encoder.encode_u_vector(u, spec, tables, coefficients), t)
    h = np.empty_like(y)
    for row, rng in enumerate(rngs):
        y[row], h[row] = transmit(y[row], cfg, rng)
    if hybrid:
        s_in = initial_llrs(y, h, cfg.sigma2, spec.t)
        del y, h  # the repetition combine is the chain's memory peak
        return _decoder.combine_repetitions(s_in, coefficients, tables)
    return (2.0 / cfg.sigma2) * h * y
