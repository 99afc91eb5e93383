"""SC and CRC-aided SCL decoding for both repetition schemes.

Decoding a hybrid frame has four parts:

1. the inner multiplicative repetition collapses to a permutation of
   each repeated symbol's LLR vector (multiplication by a nonzero
   field element cyclically shifts the nonzero symbols) followed by a
   plain sum over the r observations of each outer symbol;
2. Stage 2 runs successive cancellation over the symbol-level Arikan
   kernel, propagating whole LLR vectors through min-sum check and
   variable updates (:func:`stage2_plus` / :func:`stage2_minus`);
3. at each Stage-2 leaf, Stage 1 peels the t bits of the symbol one at
   a time, turning the symbol LLR vector into scalar bit LLRs by
   minimising over the still-undecided bits of the group;
4. decided bits update the path metric, list paths branch two ways on
   every unfrozen bit and are pruned back to the L smallest metrics,
   and the re-packed symbol is fed back into the Stage-2 recursion.
   No path copies its decisions: each is stored once with its parent
   pointers, and one backtrack at the end reads out every survivor.

The same machinery with scalar LLRs and the binary min-sum pair f/g
decodes the baseline polar-repetition scheme.

Everything here is vectorised across list paths and across a batch of
independent frames: one decoder invocation carries arrays shaped
(frames, paths, ...), which is also how the Monte-Carlo construction
and the frame-error simulations get their throughput.  Path pruning
keeps exactly the L smallest metrics with ties resolved toward the
lower path index, so results are reproducible and independent of the
batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .encoder import crc_remainder_matrix, stage1_block_map
from .galois import FieldTables

if TYPE_CHECKING:  # pragma: no cover
    from .codespec import CodeSpec


# ---------------------------------------------------------------------------
# Elementary LLR-vector operations
# ---------------------------------------------------------------------------

def permute_llr(s: np.ndarray, rho: int, tables: FieldTables) -> np.ndarray:
    """Reindex an LLR vector for an observation scaled by rho.

    out[v] = s[rho * v]; entry 0 is fixed and the nonzero entries shift
    cyclically in the exponent domain.
    """
    if rho == 0:
        raise ValueError("repetition coefficient must be nonzero")
    return np.asarray(s)[..., tables.mul[rho]]


def combine_repetitions(s_in: np.ndarray, coefficients: np.ndarray,
                        tables: FieldTables) -> np.ndarray:
    """Sum the r observations of each outer symbol after de-permuting.

    ``s_in`` has shape (..., r*n2, 2^t) and ``coefficients`` shape
    (..., r-1, n2); the result is the (..., n2, 2^t) LLR input of the
    outer decoder.
    """
    s_in = np.asarray(s_in, dtype=np.float64)
    coefficients = np.asarray(coefficients, dtype=np.int64)
    r_minus_1, n2 = coefficients.shape[-2], coefficients.shape[-1]
    r = r_minus_1 + 1
    if s_in.shape[-2] != r * n2:
        raise ValueError(
            f"expected {r * n2} symbol LLR vectors, got {s_in.shape[-2]}"
        )
    blocks = s_in.reshape(*s_in.shape[:-2], r, n2, s_in.shape[-1])
    if r == 1:
        return blocks[..., 0, :, :].copy()
    perms = tables.mul[coefficients]                      # (..., r-1, n2, Q)
    rest = np.take_along_axis(blocks[..., 1:, :, :], perms, axis=-1)
    return blocks[..., 0, :, :] + rest.sum(axis=-3)


def stage2_plus(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Min-sum check-node update for the first input of a symbol kernel.

    out[s] = min_u(s_plus[s^u] + s_minus[u]) - min_u(s_plus[u] + s_minus[u]);
    entry 0 is exactly zero.
    """
    s_plus = np.asarray(s_plus, dtype=np.float64)
    s_minus = np.asarray(s_minus, dtype=np.float64)
    q = s_plus.shape[-1]
    values = np.arange(q)
    acc = s_plus + s_minus[..., :1]
    for u in range(1, q):
        cand = s_plus[..., values ^ u] + s_minus[..., u:u + 1]
        np.minimum(acc, cand, out=acc)
    return acc - acc[..., :1]


def stage2_minus(s_plus: np.ndarray, s_minus: np.ndarray,
                 u0: np.ndarray | int) -> np.ndarray:
    """Variable-node update for the second input, given the decided first.

    out[s] = s_plus[u0^s] + s_minus[s] - s_plus[u0] - s_minus[0];
    entry 0 is exactly zero.
    """
    s_plus = np.asarray(s_plus, dtype=np.float64)
    s_minus = np.asarray(s_minus, dtype=np.float64)
    q = s_plus.shape[-1]
    u0 = np.asarray(u0, dtype=np.int64)
    idx = u0[..., None] ^ np.arange(q)
    shifted = np.take_along_axis(np.broadcast_to(s_plus, idx.shape[:-1] + (q,)),
                                 idx, axis=-1)
    base = np.take_along_axis(np.broadcast_to(s_plus, idx.shape[:-1] + (q,)),
                              u0[..., None], axis=-1)
    return shifted + s_minus - base - s_minus[..., :1]


def stage1_bit_llr(s: np.ndarray, u_prefix, i: int, t: int,
                   variant: str = "flat") -> float:
    """Scalar LLR of bit i of a symbol group, given the decided prefix.

    Minimises the symbol LLR vector over all completions of the group
    that are consistent with (prefix, bit=1) versus (prefix, bit=0),
    mapping each completion through the Stage-1 kernel of ``variant``.
    """
    if not 0 <= i < t:
        raise ValueError(f"bit index {i} out of range for t={t}")
    u_prefix = list(u_prefix)
    if len(u_prefix) != i:
        raise ValueError(f"prefix must hold exactly {i} decided bits")
    s = np.asarray(s, dtype=np.float64)
    block_map = stage1_block_map(t, variant)
    pfx = 0
    for j, b in enumerate(u_prefix):
        pfx |= int(b) << j
    n_free = 1 << (t - 1 - i)
    best = [np.inf, np.inf]
    for beta in (0, 1):
        for c in range(n_free):
            w = pfx | (beta << i) | (c << (i + 1))
            best[beta] = min(best[beta], float(s[block_map[w]]))
    return best[1] - best[0]


def stage1_recursive_update(s: np.ndarray, direction: str,
                            u0: np.ndarray | int | None = None) -> np.ndarray:
    """One layer of the recursive Stage-1 update.

    The input vector is indexed by pairs of half-size symbols packed
    low-half first; the output vector lives over the half-size field.
    ``plus`` produces the LLRs of the first half-symbol, ``minus``
    those of the second given the decided first one.
    """
    s = np.asarray(s, dtype=np.float64)
    q2 = s.shape[-1]
    tp = (q2.bit_length() - 1) // 2
    if 1 << (2 * tp) != q2:
        raise ValueError(f"input length {q2} is not the square of a field size")
    q = 1 << tp
    values = np.arange(q)
    if direction == "plus":
        acc = np.full(s.shape[:-1] + (q,), np.inf)
        for u1 in range(q):
            idx = (values ^ u1) | (u1 << tp)
            np.minimum(acc, s[..., idx], out=acc)
        return acc - acc[..., :1]
    if direction == "minus":
        if u0 is None:
            raise ValueError("minus update needs the decided first half-symbol")
        u0 = np.asarray(u0, dtype=np.int64)
        idx = (u0[..., None] ^ values) | (values << tp)
        picked = np.take_along_axis(np.broadcast_to(s, idx.shape[:-1] + (q2,)),
                                    idx, axis=-1)
        base = np.take_along_axis(np.broadcast_to(s, idx.shape[:-1] + (q2,)),
                                  u0[..., None], axis=-1)
        return picked - base
    raise ValueError(f"direction must be 'plus' or 'minus', got {direction!r}")


def pm_update(pm: float, s: float, u: int) -> float:
    """Path-metric step: add |s| when the decision contradicts sign(s).

    sign(0) counts as +1, so s = 0 with u = 0 adds nothing.
    """
    if pm < 0:
        raise ValueError("path metric must be non-negative")
    sign = 1.0 if s >= 0 else -1.0
    if u != (1 - sign) / 2:
        return pm + abs(s)
    return pm


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one frame."""

    u_hat: np.ndarray
    crc_pass: bool
    chosen_pm: float
    list_rank: int


@dataclass(frozen=True)
class BatchDecodeResult:
    """Vectorised outcome for a batch of frames.

    ``all_u`` / ``all_pm`` hold every surviving path (frames, paths, n)
    when the decoder is asked to keep them, e.g. for weight-spectrum
    enumeration.
    """

    u_hat: np.ndarray
    crc_pass: np.ndarray
    chosen_pm: np.ndarray
    list_rank: np.ndarray
    all_u: np.ndarray | None = None
    all_pm: np.ndarray | None = None

    def frame(self, f: int) -> DecodeResult:
        return DecodeResult(
            u_hat=self.u_hat[f].copy(),
            crc_pass=bool(self.crc_pass[f]),
            chosen_pm=float(self.chosen_pm[f]),
            list_rank=int(self.list_rank[f]),
        )


# ---------------------------------------------------------------------------
# Shared path state (list handling, metrics, decisions)
# ---------------------------------------------------------------------------

class _PathState:
    """Per-decode bookkeeping shared by the symbol and binary engines.

    Paths live on axis 1 of every array.  Whenever the list branches or
    is pruned, the parent-index map is appended to ``origins`` so that
    recursion frames holding older arrays can re-gather them lazily.
    Each unfrozen decision is appended to ``trace`` as (bit index, bits,
    parent map or None), the Tal-Vardy path memory that _finalize walks back.
    """

    def __init__(self, n_frames: int, n: int, list_size: int, frozen_mask: np.ndarray,
                 mode: str, genie_u: np.ndarray | None = None):
        self.F = n_frames
        self.n = n
        self.L = list_size
        self.mode = mode
        self.frozen_mask = frozen_mask
        self.pm = np.zeros((n_frames, 1))
        self.trace: list[tuple] = []
        self.origins: list[np.ndarray] = []
        self.leaf_cursor = 0
        self.genie_u = genie_u
        self.first_error = np.full(n_frames, -1, dtype=np.int64)

    @property
    def paths(self) -> int:
        return self.pm.shape[1]

    def epoch(self) -> int:
        return len(self.origins)

    def origin_since(self, epoch: int) -> np.ndarray | None:
        """Composed parent map from the current paths back to ``epoch``."""
        if len(self.origins) == epoch:
            return None
        idx = self.origins[epoch]
        for later in self.origins[epoch + 1:]:
            idx = _gather_paths(idx, later)
        return idx

    def decide_bit(self, s_b: np.ndarray, global_idx: int):
        """Decide bit ``global_idx`` from its per-path LLRs.

        Returns (bits, origin): the decisions for the (possibly new)
        path set and the parent map if the path set changed.
        """
        if self.frozen_mask[global_idx]:
            if self.mode == "list":
                self.pm += np.maximum(-s_b, 0.0)
            bits = np.zeros_like(s_b, dtype=np.int64)
            return bits, None
        if self.mode == "genie":
            truth = self.genie_u[:, global_idx].astype(np.int64)
            wrong = ((s_b[:, 0] < 0).astype(np.int64) != truth) & (self.first_error < 0)
            self.first_error[wrong] = global_idx
            return truth[:, None], None
        if self.mode == "sc":
            # Hard sign rule; the decision never contradicts its own LLR,
            # so the metric stays at zero.
            bits = (s_b < 0).astype(np.int64)
            self.trace.append((global_idx, bits, None))
            return bits, None
        # List mode: branch every path two ways, keep the L smallest metrics.
        a = self.paths
        pm0 = self.pm + np.maximum(-s_b, 0.0)
        pm1 = self.pm + np.maximum(s_b, 0.0)
        pm2 = np.stack([pm0, pm1], axis=2).reshape(self.F, 2 * a)
        if 2 * a <= self.L:
            keep = np.broadcast_to(np.arange(2 * a), (self.F, 2 * a)).copy()
        else:
            order = np.argsort(pm2, axis=1, kind="stable")[:, :self.L]
            keep = np.sort(order, axis=1)
        parent = keep >> 1
        bits = keep & 1
        self.pm = np.take_along_axis(pm2, keep, axis=1)
        self.trace.append((global_idx, bits, parent))
        self.origins.append(parent)
        return bits, parent


def _gather_paths(arr: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Select rows of the path axis (axis 1) by parent index, as one flat take."""
    f, a = arr.shape[:2]
    flat = origin + (a * np.arange(f))[:, None]
    return np.take(arr.reshape(f * a, *arr.shape[2:]), flat, axis=0)


# ---------------------------------------------------------------------------
# Symbol-domain engine (hybrid scheme)
# ---------------------------------------------------------------------------

class _SymbolEngine:
    """Stage-2 recursion plus Stage-1 leaf processing over GF(2^t)."""

    def __init__(self, spec: "CodeSpec", state: _PathState):
        self.t = spec.t
        self.q = 1 << spec.t
        self.state = state
        self.block_map = stage1_block_map(spec.t, spec.encoder_variant)
        # v_idx[j][prefix, beta, c] = symbol index consistent with the
        # decided prefix, bit j = beta and free completion c.
        self.v_idx = []
        for j in range(spec.t):
            n_pfx, n_free = 1 << j, 1 << (spec.t - 1 - j)
            tab = np.zeros((n_pfx, 2, n_free), dtype=np.int64)
            for pfx in range(n_pfx):
                for beta in range(2):
                    for c in range(n_free):
                        w = pfx | (beta << j) | (c << (j + 1))
                        tab[pfx, beta, c] = self.block_map[w]
            self.v_idx.append(tab)

    def decode(self, s_root: np.ndarray) -> np.ndarray:
        """Run the full outer decode; returns the re-encoded symbol estimate."""
        return self._span(s_root[:, None, :, :])

    def _span(self, s: np.ndarray) -> np.ndarray:
        length = s.shape[2]
        if length == 1:
            return self._leaf(s[:, :, 0, :])[:, :, None]
        half = length // 2
        state = self.state
        # The left half of the span carries the XOR of the two virtual
        # inputs, the right half the second one alone.
        s_left = stage2_plus(s[:, :, :half], s[:, :, half:])
        epoch = state.epoch()
        x_left = self._span(s_left)
        origin = state.origin_since(epoch)
        if origin is not None:
            s = _gather_paths(s, origin)
        s_right = stage2_minus(s[:, :, :half], s[:, :, half:], x_left)
        epoch = state.epoch()
        x_right = self._span(s_right)
        origin = state.origin_since(epoch)
        if origin is not None:
            x_left = _gather_paths(x_left, origin)
        return np.concatenate([x_left ^ x_right, x_right], axis=2)

    def _leaf(self, s: np.ndarray) -> np.ndarray:
        """Peel the t bits of one Stage-2 symbol; returns the re-packed symbol."""
        state = self.state
        i = state.leaf_cursor
        state.leaf_cursor += 1
        prefix = np.zeros(s.shape[:2], dtype=np.int64)
        for j in range(self.t):
            f, a = s.shape[0], s.shape[1]
            idx = self.v_idx[j][prefix]                       # (F, A, 2, n_free)
            flat = s.reshape(f * a, self.q)
            cand = flat[np.arange(f * a)[:, None], idx.reshape(f * a, -1)]
            mins = cand.reshape(f, a, 2, -1).min(axis=-1)
            s_b = mins[..., 1] - mins[..., 0]
            bits, origin = state.decide_bit(s_b, i * self.t + j)
            if origin is not None:
                s = _gather_paths(s, origin)
                prefix = _gather_paths(prefix, origin)
            prefix = prefix | (bits << j)
        return self.block_map[prefix]


# ---------------------------------------------------------------------------
# Bit-domain engine (baseline scheme)
# ---------------------------------------------------------------------------

def _f_bin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _g_bin(a: np.ndarray, b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    return b + (1.0 - 2.0 * u0) * a


class _BinaryEngine:
    """Plain binary min-sum SC/SCL over scalar LLRs."""

    def __init__(self, state: _PathState):
        self.state = state

    def decode(self, llr_root: np.ndarray) -> np.ndarray:
        return self._span(llr_root[:, None, :])

    def _span(self, s: np.ndarray) -> np.ndarray:
        length = s.shape[2]
        state = self.state
        if length == 1:
            idx = state.leaf_cursor
            state.leaf_cursor += 1
            bits, _ = state.decide_bit(s[:, :, 0], idx)
            return bits[:, :, None].astype(np.int8)
        half = length // 2
        s_left = _f_bin(s[:, :, :half], s[:, :, half:])
        epoch = state.epoch()
        x_left = self._span(s_left)
        origin = state.origin_since(epoch)
        if origin is not None:
            s = _gather_paths(s, origin)
        s_right = _g_bin(s[:, :, :half], s[:, :, half:], x_left)
        epoch = state.epoch()
        x_right = self._span(s_right)
        origin = state.origin_since(epoch)
        if origin is not None:
            x_left = _gather_paths(x_left, origin)
        return np.concatenate([x_left ^ x_right, x_right], axis=2)


# ---------------------------------------------------------------------------
# Public decoding entry points
# ---------------------------------------------------------------------------

def _finalize(spec: "CodeSpec", state: _PathState, crc_on: bool,
              return_paths: bool) -> BatchDecodeResult:
    f = state.F
    pm = state.pm
    # Walk the decision trace back once, from the final paths to bit 0.
    u_all = np.zeros((f, state.paths, state.n), dtype=np.int8)
    idx = np.broadcast_to(np.arange(state.paths), pm.shape)
    for global_idx, bits, parent in reversed(state.trace):
        u_all[:, :, global_idx] = _gather_paths(bits, idx)
        idx = idx if parent is None else _gather_paths(parent, idx)
    order = np.argsort(pm, axis=1, kind="stable")
    unfrozen = spec.unfrozen_indices()
    if spec.p > 0:
        payload = u_all[:, :, unfrozen]
        m = crc_remainder_matrix(spec.k + spec.p, spec.crc_poly, spec.p)
        synd = payload.astype(np.int64) @ m.astype(np.int64) % 2
        pass_mask = ~synd.any(axis=2)
    else:
        pass_mask = np.zeros(pm.shape, dtype=bool)
    if crc_on and spec.p > 0:
        ranked_pass = np.take_along_axis(pass_mask, order, axis=1)
        has_pass = ranked_pass.any(axis=1)
        rank = np.where(has_pass, np.argmax(ranked_pass, axis=1), 0)
    else:
        rank = np.zeros(f, dtype=np.int64)
    rows = np.arange(f)
    chosen = order[rows, rank]
    return BatchDecodeResult(
        u_hat=u_all[rows, chosen],
        crc_pass=pass_mask[rows, chosen],
        chosen_pm=pm[rows, chosen],
        list_rank=rank,
        all_u=u_all if return_paths else None,
        all_pm=pm if return_paths else None,
    )


def scl_decode_batch(spec: "CodeSpec", s_inner: np.ndarray, list_size: int,
                     crc_on: bool = True, return_paths: bool = False,
                     mode: str = "list") -> BatchDecodeResult:
    """Decode a batch of hybrid frames from combined symbol LLR vectors.

    ``s_inner`` has shape (frames, n/t, 2^t).  ``mode`` selects the
    list decoder ("list") or plain successive cancellation ("sc").
    """
    s_inner = np.asarray(s_inner, dtype=np.float64)
    n2 = spec.n // spec.t
    if s_inner.ndim != 3 or s_inner.shape[1] != n2 or s_inner.shape[2] != (1 << spec.t):
        raise ValueError(
            f"s_inner must have shape (frames, {n2}, {1 << spec.t}), got {s_inner.shape}"
        )
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    state = _PathState(s_inner.shape[0], spec.n, list_size,
                       spec.frozen_mask(), mode)
    _SymbolEngine(spec, state).decode(s_inner)
    return _finalize(spec, state, crc_on, return_paths)


def scl_decode(spec: "CodeSpec", s_inner: np.ndarray, list_size: int,
               crc_on: bool = True) -> DecodeResult:
    """Single-frame wrapper around :func:`scl_decode_batch`."""
    return scl_decode_batch(spec, np.asarray(s_inner)[None], list_size,
                            crc_on=crc_on).frame(0)


def sc_decode(spec: "CodeSpec", s_inner: np.ndarray) -> DecodeResult:
    """Plain successive cancellation (hard sign rule on every unfrozen bit)."""
    return scl_decode_batch(spec, np.asarray(s_inner)[None], 1,
                            crc_on=False, mode="sc").frame(0)


def combine_baseline(bit_llrs: np.ndarray, r: int) -> np.ndarray:
    """Sum the r repeated copies of each coded bit's LLR."""
    bit_llrs = np.asarray(bit_llrs, dtype=np.float64)
    n = bit_llrs.shape[-1] // r
    if bit_llrs.shape[-1] != n * r:
        raise ValueError("LLR length is not a multiple of r")
    return bit_llrs.reshape(*bit_llrs.shape[:-1], r, n).sum(axis=-2)


def baseline_decode_batch(spec: "CodeSpec", bit_llrs: np.ndarray, list_size: int,
                          crc_on: bool = True, return_paths: bool = False,
                          mode: str = "list") -> BatchDecodeResult:
    """Decode baseline frames from the N per-bit channel LLRs."""
    bit_llrs = np.asarray(bit_llrs, dtype=np.float64)
    if bit_llrs.ndim != 2 or bit_llrs.shape[1] != spec.N:
        raise ValueError(f"bit_llrs must have shape (frames, {spec.N})")
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    combined = combine_baseline(bit_llrs, spec.r)
    state = _PathState(bit_llrs.shape[0], spec.n, list_size,
                       spec.frozen_mask(), mode)
    _BinaryEngine(state).decode(combined)
    return _finalize(spec, state, crc_on, return_paths)


def baseline_decode(spec: "CodeSpec", bit_llrs: np.ndarray, list_size: int,
                    crc_on: bool = True) -> DecodeResult:
    """Single-frame wrapper around :func:`baseline_decode_batch`."""
    return baseline_decode_batch(spec, np.asarray(bit_llrs)[None], list_size,
                                 crc_on=crc_on).frame(0)


def baseline_sc_decode(spec: "CodeSpec", bit_llrs: np.ndarray) -> DecodeResult:
    """Baseline counterpart of :func:`sc_decode`."""
    return baseline_decode_batch(spec, np.asarray(bit_llrs)[None], 1,
                                 crc_on=False, mode="sc").frame(0)


def genie_first_errors(spec: "CodeSpec", channel_input, true_u: np.ndarray) -> np.ndarray:
    """Genie-aided SC pass used by the Monte-Carlo code construction.

    Every bit decision is corrected to the true value right after its
    LLR is formed; the returned array holds, per frame, the index of
    the first wrong decision or -1 if the whole frame decoded cleanly.
    All n positions are treated as unfrozen while ranking.
    """
    true_u = np.asarray(true_u, dtype=np.int8)
    state = _PathState(true_u.shape[0], spec.n, 1,
                       np.zeros(spec.n, dtype=bool), "genie", genie_u=true_u)
    if spec.scheme == "hybrid":
        _SymbolEngine(spec, state).decode(np.asarray(channel_input, dtype=np.float64))
    else:
        combined = combine_baseline(np.asarray(channel_input, dtype=np.float64), spec.r)
        _BinaryEngine(state).decode(combined)
    return state.first_error
