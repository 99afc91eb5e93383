"""Decoding operation counts, weight-spectrum estimation, union bound.

Operation counts tally the summations and comparisons a successive
cancellation pass spends on LLR updates, split by decoder part:

* baseline: n(r-1) for the inner repetition combining plus
  2.5 * n * log2(n) for the outer polar code;
* hybrid:   (n(r-1)/t)(2^t - 1) for the inner multiplicative
  repetition, (2^{2t} - 3/2) * (n/t) * log2(n/t) for the symbol-level
  Stage-2 updates, and (n/t) * sum_{i=1..t} (2(2^{t-i} - 1) + 1) for
  the Stage-1 bit extraction.

These are the paper's bit-by-bit SC updates, not the work the decoder
executes: it skips rate-0 spans and decodes spans with no frozen bit in
one step.

Weight spectra are estimated by decoding an all-zero transmission at
very high SNR with a large-list decoder and weighing the outer codeword
it returns for every surviving path; the exhaustive encoder
(:func:`brute_force_weights`) serves as ground truth on small codes.
Both take a seed and weigh a hybrid code under the repetition
multipliers :func:`pinned_coefficients` draws from it, so the two agree
for the same seed.  Weights are measured in modulated channel bits for
both schemes, so the two spectra are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as _channel
from . import decoder as _decoder
from . import encoder as _encoder
from .channel import pinned_coefficients
from .codespec import CodeSpec
from .galois import unpack_symbol_array


@dataclass(frozen=True)
class ComplexityReport:
    """Exact LLR-update operation counts for one parameter set."""

    scheme: str
    n: int
    r: int
    t: int
    inner_ops: int
    stage2_ops: int
    stage1_ops: int

    @property
    def total_ops(self) -> int:
        return self.inner_ops + self.stage2_ops + self.stage1_ops


def count_operations(scheme: str, n: int, r: int, t: int = 1) -> ComplexityReport:
    """Summation/comparison counts for one SC pass of the given scheme."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"n={n} is not a power of two")
    if r < 1:
        raise ValueError("r must be >= 1")
    log_n = n.bit_length() - 1
    if scheme == "polar_repetition":
        inner = n * (r - 1)
        outer = 5 * n * log_n // 2
        return ComplexityReport(scheme=scheme, n=n, r=r, t=1,
                                inner_ops=inner, stage2_ops=outer, stage1_ops=0)
    if scheme == "hybrid":
        if t not in (1, 2, 4) or n % t:
            raise ValueError(f"invalid symbol degree t={t} for n={n}")
        n2 = n // t
        log_n2 = n2.bit_length() - 1
        inner = (n * (r - 1) // t) * ((1 << t) - 1)
        stage2 = ((1 << (2 * t + 1)) - 3) * n2 * log_n2 // 2
        stage1 = n2 * sum(2 * ((1 << (t - i)) - 1) + 1 for i in range(1, t + 1))
        return ComplexityReport(scheme=scheme, n=n, r=r, t=t,
                                inner_ops=inner, stage2_ops=stage2, stage1_ops=stage1)
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass
class WeightHistogram:
    """Codeword-weight multiplicities (all-zero codeword excluded)."""

    counts: dict = field(default_factory=dict)

    def add(self, weight: int, count: int = 1) -> None:
        if weight <= 0:
            raise ValueError("only nonzero codeword weights are recorded")
        self.counts[weight] = self.counts.get(weight, 0) + count

    @property
    def min_weight(self) -> int:
        if not self.counts:
            raise ValueError("empty histogram has no minimum weight")
        return min(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{w},{self.counts[w]}" for w in sorted(self.counts)]
        return "\n".join(lines) + "\n"


# Messages brute force encodes per batch.
_WEIGHT_CHUNK = 128
# Largest k+p brute force enumerates: 2^20 messages.
_EXHAUSTIVE_GUARD = 20


def _codeword_weights(outer, spec: CodeSpec, coefficients) -> np.ndarray:
    """Channel-bit weights of (rows, n/t) outer codewords, or the baseline's (rows, n) bits.

    ``coefficients`` is the pinned (r-1, n/t) array every row shares (None for the baseline).
    Outer symbol i of value v sends W[i, v] = popcount(v) + sum_j popcount(rho_{j,i} * v)
    bits over its r repeats.
    """
    if spec.scheme != "hybrid":
        return spec.r * np.sum(outer, axis=-1, dtype=np.int64)
    n2, tables = spec.n // spec.t, spec.field_tables()
    popcount = unpack_symbol_array(np.arange(tables.q), spec.t).sum(-1, dtype=np.int64)
    table = popcount + popcount[tables.mul[coefficients]].sum(0)           # W, (n2, q)
    return table[np.arange(n2), outer].sum(-1)


def _add_weights(hist: WeightHistogram, weights: np.ndarray) -> None:
    for weight, count in zip(*np.unique(weights, return_counts=True)):
        hist.add(int(weight), int(count))


def enumerate_low_weight(spec: CodeSpec, list_size: int, high_snr_db: float,
                         seed: int) -> WeightHistogram:
    """Estimate the low-weight spectrum from a large-list decode of zero.

    The all-zero codeword is transmitted at ``high_snr_db``; every path
    surviving the list decode (no CRC filtering) is weighed under the
    coefficients pinned from ``seed`` and its nonzero bit weight
    recorded.  No dedup is needed: two paths differ at the bit where
    their lineages split, and pruning only drops paths.  Nothing is
    re-encoded: the decoder returns every path's outer codeword
    (``all_x``), and a per-symbol table gives each outer symbol's bits
    over its r repeats.
    """
    coefficients = pinned_coefficients(spec, seed)
    cfg = _channel.ChannelConfig(kind="awgn", ebn0_db=high_snr_db, rate=spec.rate)
    channel_input = _channel.transmit_frames(spec, cfg, np.zeros((1, spec.n), dtype=np.int8),
                                             [_channel.seeded_rng(seed, 0)], coefficients)
    hybrid = spec.scheme == "hybrid"
    decode = _decoder.scl_decode_batch if hybrid else _decoder.baseline_decode_batch
    out = decode(spec, channel_input, list_size, crc_on=False, return_paths=True)

    weights = _codeword_weights(out.all_x[0], spec, coefficients)
    hist = WeightHistogram()
    _add_weights(hist, weights[weights > 0])
    return hist


def brute_force_weights(spec: CodeSpec, seed: int) -> WeightHistogram:
    """Exact weight enumerator over every nonzero unfrozen assignment.

    All 2^{k+p} fillings of the unfrozen positions are encoded under the
    coefficients pinned from ``seed``: this is the code a list decoder
    without CRC filtering actually explores, so it is the right ground
    truth for :func:`enumerate_low_weight` at the same seed.  ``seed``
    only pins the hybrid multipliers; a baseline result does not depend on it.
    """
    n_payload = spec.k + spec.p
    if n_payload > _EXHAUSTIVE_GUARD:
        raise ValueError(f"k+p = {n_payload} exceeds the exhaustive guard "
                         f"of {_EXHAUSTIVE_GUARD}")
    coefficients = pinned_coefficients(spec, seed)
    hist = WeightHistogram()
    unfrozen = spec.unfrozen_indices()
    for start in range(1, 1 << n_payload, _WEIGHT_CHUNK):
        msgs = np.arange(start, min(start + _WEIGHT_CHUNK, 1 << n_payload))
        u = np.zeros((len(msgs), spec.n), dtype=np.int8)
        u[:, unfrozen] = (msgs[:, None] >> np.arange(n_payload)) & 1
        outer = _encoder.encode_u_vector(u, spec)
        _add_weights(hist, _codeword_weights(outer, spec, coefficients))
    return hist


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def union_bound(hist: WeightHistogram, rate: float, ebn0_db: float) -> float:
    """Truncated union bound on block error probability under ML decoding.

    Sums A_w * Q(sqrt(2 w R Eb/N0)) over the recorded weights.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return sum(count * q_function(math.sqrt(2.0 * w * rate * ebn0))
               for w, count in hist.counts.items())
