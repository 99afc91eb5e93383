"""CRC-aided SCL decoding for both repetition schemes; ``list_size = 1`` is SC.

The frame pipeline, :func:`hybridpolar.channel.transmit_frames`, forms each frame's bit
LLRs in place and sums its r repeats (a baseline bit's by :func:`combine_baseline`, a
hybrid symbol's by :func:`combine_keyed`), so the decoders read outer-code LLRs only.
Of a hybrid frame's four parts, the pipeline runs the first:

1. the r observations of each outer symbol combine straight from
   the bit LLRs: those of the repeats that share a coefficient rho are
   added, by one bincount over bit keys, and one product with a table of
   the bits of rho * v gives the symbol LLR vector, so no 2^t vector is
   formed per repeat;
2. Stage 2 runs successive cancellation over the symbol-level Arikan
   kernel, propagating whole LLR vectors through min-sum check and
   variable updates (:func:`stage2_plus`, a min-plus run symbol-major,
   and :func:`stage2_minus`);
3. at each Stage-2 leaf, Stage 1 puts the symbol LLR vector in input-tuple
   order and halves it into a tree of minima once, so each of the t bits,
   peeled one at a time, is a difference of two of its entries;
4. decided bits update the path metric, list paths branch two ways on
   every unfrozen bit and are pruned back to the L smallest metrics,
   and the re-packed symbol is fed back into the Stage-2 recursion.
   A frozen (rate-0) subtree is skipped: it decodes to zero with a
   closed-form penalty (:func:`stage2_rate0_penalty`), and a frozen left
   child skips even its check update.  A subtree of two or more symbols
   with no frozen bit is listed in one step (:func:`_symbol_node`): the
   paths fork q ways on their least reliable symbols only, and an exact
   tie sends the subtree back to the bit-by-bit recursion, so decisions
   do not change.  Decisions are not copied per path: each bit's, or each
   listed span's, block of decisions is logged once with its parent map,
   and one backtrack at the end reads out every survivor.

One recursion, :func:`_span`, serves both schemes: the baseline polar-repetition
scheme swaps in scalar LLRs and binary kernels (min-sum f/g, one-bit leaf, rate-0 penalty),
and the same :func:`_symbol_node` lists its spans with no frozen bit over bit LLRs.
A genie pass corrects every decision, so it always goes bit by bit, in frame blocks of at
most :data:`GENIE_BLOCK_ENTRIES` root LLRs, and stops a block once each of its trials has erred.

Everything here is vectorised across list paths and across a batch of
independent frames: one decoder invocation carries arrays shaped
(frames, paths, ...), which is also how the Monte-Carlo construction
and the frame-error simulations get their throughput.  Path pruning
keeps exactly the L smallest metrics with ties resolved toward the
lower path index, so results are reproducible and independent of the
batch size.  The entry points are batch-only (:func:`scl_decode_batch`,
:func:`baseline_decode_batch`, :func:`genie_first_errors`): a single
frame x decodes as x[None], and its result is row 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .encoder import block_coefficients, crc_check, polar_transform, stage1_block_map
from .galois import FieldTables, build_field, unpack_symbol_array

if TYPE_CHECKING:  # pragma: no cover
    from .codespec import CodeSpec


# ---------------------------------------------------------------------------
# Elementary LLR-vector operations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _repetition_bit_table(t: int, primitive_poly: int) -> np.ndarray:
    """Read-only (q*t, q) table whose row rho*t + b holds bit b of rho*v for every v."""
    bits = unpack_symbol_array(build_field(t, primitive_poly).mul, t)   # [rho, v, b]
    table = bits.transpose(0, 2, 1).reshape(-1, 1 << t).astype(np.float64)
    table.setflags(write=False)
    return table


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def combine_repetitions(bit_llrs: np.ndarray, coefficients: np.ndarray,
                        tables: FieldTables) -> np.ndarray:
    """:func:`combine_keyed` of (..., r*n2*t) bit LLRs and checked (..., r-1, n2) rho."""
    coefficients = np.asarray(coefficients)
    q, t = tables.q, tables.t
    lead, r, n2 = coefficients.shape[:-2], coefficients.shape[-2] + 1, coefficients.shape[-1]
    if np.shape(bit_llrs) != lead + (r * n2 * t,):
        raise ValueError(f"bit LLR shape {np.shape(bit_llrs)} is not {lead + (r * n2 * t,)}")
    keys = block_coefficients(coefficients, r, n2, q)
    keys += q * np.arange(keys.size // r).reshape(lead + (1, n2))   # (frame*n2 + i)*q + rho
    keys = (keys[..., None] * t + np.arange(t)).reshape(lead + (r, n2 * t))
    return combine_keyed(bit_llrs, keys, tables).reshape(lead + (n2, q))


def combine_baseline(bit_llrs: np.ndarray, r: int) -> np.ndarray:
    """Sum the r repeated copies of each coded bit's LLR: (..., r*n) to (..., n)."""
    bit_llrs = np.asarray(bit_llrs, dtype=np.float64)
    return bit_llrs.reshape(*bit_llrs.shape[:-1], r, -1).sum(axis=-2)


def combine_keyed(bit_llrs: np.ndarray, keys: np.ndarray, tables: FieldTables) -> np.ndarray:
    """Combined (symbols, 2^t) symbol LLRs from bit LLRs and prebuilt, unchecked bit keys.

    ``keys`` (..., r, n2*t) holds (symbol*q + rho)*t + b in bit-LLR order, symbols counted
    over all axes (block 0 has rho = 1).  Repeat j of symbol i scores v by sum_b
    bit_b(rho_j * v) * lambda_{j,b}.  The LLRs of the repeats sharing a bit key are summed
    first, in repeat order, by one bincount, then one product with the bits of rho * v.
    """
    t, q = tables.t, tables.q
    sums = np.bincount(keys.ravel(), weights=np.asarray(bit_llrs, dtype=np.float64).ravel(),
                       minlength=keys.size // keys.shape[-2] * q)
    return sums.reshape(-1, q * t) @ _repetition_bit_table(t, tables.primitive_poly)


def stage2_plus(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Min-sum check-node update for the first input of a symbol kernel.

    out[s] = min_u(s_plus[s^u] + s_minus[u]) - min_u(s_plus[u] + s_minus[u]);
    entry 0 is exactly zero.  It runs symbol-major on (q, M) copies: row v holds entry v
    of every vector, and s ^ u flips the bit axes of their (2,)*t + (M,) view.
    """
    q = np.shape(s_plus)[-1]
    t = q.bit_length() - 1
    a, b = (np.ascontiguousarray(np.moveaxis(x, -1, 0), dtype=np.float64).reshape(q, -1)
            for x in (s_plus, s_minus))
    a_bits = a.reshape((2,) * t + (-1,))
    acc = a + b[0]
    cand = np.empty_like(acc)
    for u in range(1, q):
        flips = tuple(t - 1 - j for j in range(t) if u >> j & 1)   # axis 0 holds bit t-1
        np.add(np.flip(a_bits, axis=flips), b[u], out=cand.reshape(a_bits.shape))
        np.minimum(acc, cand, out=acc)
    return np.subtract(acc.T, acc[:1].T, order="C").reshape(np.shape(s_plus))


def stage2_minus(s_plus: np.ndarray, s_minus: np.ndarray, u0: np.ndarray | int,
                 origin: np.ndarray | None = None) -> np.ndarray:
    """Variable-node update for the second input, given the decided first.

    out[s] = s_plus[u0^s] + s_minus[s] - s_plus[u0] - s_minus[0];
    entry 0 is exactly zero.  A scalar u0 = 0 (a frozen first input) needs no gather.
    A parent map ``origin`` selects the paths of (frames, paths, ...) inputs within the take.
    """
    s_plus = np.asarray(s_plus, dtype=np.float64)
    s_minus = np.asarray(s_minus, dtype=np.float64)
    q = s_plus.shape[-1]
    if np.ndim(u0) or u0 or origin is not None:
        # One flat take of s_plus[..., u0 ^ s]: row i's offset q*i plus u0 ^ s is (q*i + u0) ^ s.
        # out[..., 0] is s_plus[u0 ^ 0] = s_plus[u0].
        rows = _gather_paths(q * np.arange(s_plus.size // q).reshape(s_plus.shape[:-1]), origin)
        out = np.take(s_plus, (rows + u0)[..., None] ^ np.arange(q))
        shifted0 = out[..., :1].copy()
        s_minus = _gather_paths(s_minus, origin)   # after the take has freed its index
        out += s_minus
    else:
        shifted0, out = s_plus[..., :1], s_plus + s_minus
    out -= shifted0   # (a + b) - a0 - b0, the order of the unfused expression
    out -= s_minus[..., :1]
    return out


def stage2_rate0_penalty(s: np.ndarray) -> np.ndarray:
    """Sum of the frozen-bit penalties max(-llr, 0) of an all-frozen span.

    For the (..., length, q) input it is sum_i (s_i[0] - min s_i), by induction on the length.
    At a leaf S, bit j costs M_{j+1} - M_j (M_j: min of S over the symbols whose first j inputs
    are 0), which telescopes to S[0] - min S.  Halves A, B cost, per symbol pair, min(a + b) -
    min a - min b in the left child stage2_plus(A, B) and a[0] + b[0] - min(a + b) in the right
    child stage2_minus(A, B, 0): a[0] + b[0] - min a - min b in all.  No step needs s_i[0] = 0.
    The minimum takes t halvings of the q axis, not an inner-axis reduce; it is exact.
    """
    low = s
    while low.shape[-1] > 1:
        low = np.minimum(low[..., :low.shape[-1] // 2], low[..., low.shape[-1] // 2:])
    return (s[..., 0] - low[..., 0]).sum(axis=-1)


def _stage1_min_tree(s: np.ndarray, block_map: np.ndarray) -> np.ndarray:
    """Halving minima of (..., q) symbol LLRs in Stage-1 input order, as (..., 2q - 2).

    Level k = 1..t sits at offset 2^k - 2: its entry w < 2^k is the minimum of
    s[block_map[w']] over every input tuple w' whose low k bits are w.
    """
    q = s.shape[-1]
    tree = np.empty(s.shape[:-1] + (2 * q - 2,))
    tree[..., q - 2:] = s[..., block_map]
    h = q // 2
    while h > 1:   # level k from level k + 1, with h = 2^k
        np.minimum(tree[..., 2 * h - 2:3 * h - 2], tree[..., 3 * h - 2:4 * h - 2],
                   out=tree[..., h - 2:2 * h - 2])
        h //= 2
    return tree


def _stage1_bit(tree: np.ndarray, prefix, j: int) -> np.ndarray:
    """LLR of input bit j given the packed prefix of bits 0..j-1: two reads of level j + 1."""
    prefix = np.asarray(prefix)
    lo = (2 << j) - 2 + prefix + tree.shape[-1] * np.arange(prefix.size).reshape(prefix.shape)
    flat = tree.reshape(-1)
    return flat[lo + (1 << j)] - flat[lo]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchDecodeResult:
    """Vectorised outcome for a batch of frames.

    When the decoder is asked to keep every surviving path, e.g. for weight-spectrum
    enumeration, ``all_u`` holds their (frames, paths, n) u vectors, ``all_pm`` their
    metrics and ``all_x`` their outer codewords, the decoder's own re-encoding: (frames,
    paths, n/t) Stage-2 symbols for a hybrid code, (frames, paths, n) bits for the baseline.
    """

    u_hat: np.ndarray
    crc_pass: np.ndarray
    chosen_pm: np.ndarray
    list_rank: np.ndarray
    all_u: np.ndarray | None = None
    all_pm: np.ndarray | None = None
    all_x: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Shared path state (list handling, metrics, decisions)
# ---------------------------------------------------------------------------

class _PathState:
    """Per-decode bookkeeping of the recursion, the same for both schemes.

    Paths live on axis 1 of every array.  ``trace`` is the Tal-Vardy path memory: each
    listed decision appends one block (first bit, (frames * paths, width) bits, parent map),
    one bit from :meth:`decide_bit`, a whole span from :func:`_symbol_node`.  A parent map
    indexes the flattened (frames * paths) axes, so maps compose by ``np.take``: recursion
    frames holding older arrays re-gather them lazily, and _finalize walks the log back.
    A set ``genie_u`` makes a genie pass: decisions corrected to the truth, no metric.
    """

    def __init__(self, n_frames: int, n: int, list_size: int, frozen_mask: np.ndarray,
                 genie_u: np.ndarray | None = None):
        self.F = n_frames
        self.n = n
        self.L = list_size
        self.frozen_mask = frozen_mask
        # Per recursion leaf (_decode sets them per scheme): all its bits frozen / any.
        self.leaf_frozen = self.leaf_has_frozen = frozen_mask
        self.pm = np.zeros((n_frames, 1))
        self.trace: list[tuple] = []
        self.genie_u = genie_u
        self.first_error = np.full(n_frames, -1, dtype=np.int64)

    @property
    def paths(self) -> int:
        return self.pm.shape[1]

    def origin_since(self, epoch: int) -> np.ndarray | None:
        """Composed parent map from the current paths back to ``epoch``."""
        if len(self.trace) == epoch:
            return None
        return functools.reduce(np.take, [entry[2] for entry in self.trace[epoch + 1:]],
                                self.trace[epoch][2])

    def decide_bit(self, s_b: np.ndarray, global_idx: int):
        """Decide bit ``global_idx`` from its per-path LLRs.

        Returns (bits, origin): the decisions for the (possibly new)
        path set and the parent map if the path set changed.
        """
        if self.frozen_mask[global_idx]:
            self.pm += np.maximum(-s_b, 0.0)
            return np.zeros_like(s_b, dtype=np.int64), None
        if self.genie_u is not None:
            truth = self.genie_u[:, global_idx].astype(np.int64)
            wrong = ((s_b[:, 0] < 0).astype(np.int64) != truth) & (self.first_error < 0)
            self.first_error[wrong] = global_idx
            return truth[:, None], None
        # Branch every path two ways, keep the L smallest metrics.
        a = self.paths
        pm0 = self.pm + np.maximum(-s_b, 0.0)
        pm1 = self.pm + np.maximum(s_b, 0.0)
        pm2 = np.stack([pm0, pm1], axis=2).reshape(self.F, 2 * a)
        keep = np.sort(np.argsort(pm2, axis=1, kind="stable")[:, :self.L], axis=1)
        keep += 2 * a * np.arange(self.F)[:, None]
        # keep indexes the flattened (frames * 2a) children, so keep >> 1 is the flat parent map.
        parent = keep >> 1
        bits = keep & 1
        self.pm = np.take(pm2, keep)
        self.trace.append((global_idx, bits.reshape(-1, 1), parent))
        return bits, parent


def _gather_paths(arr: np.ndarray, origin: np.ndarray | None) -> np.ndarray:
    """Select paths of (frames, paths, ...) ``arr`` by the flat parent map ``origin``, if any."""
    if origin is None:
        return arr
    return np.take(arr.reshape((-1,) + arr.shape[2:]), origin, axis=0)


# ---------------------------------------------------------------------------
# The SC/SCL recursion and its per-scheme kernels
# ---------------------------------------------------------------------------

def _span(state: _PathState, s: np.ndarray, plus, minus, leaf, rate0, node,
          first: int) -> np.ndarray:
    """Decode the span ``s`` (frames, paths, length, ...) whose first leaf is ``first``.

    ``plus``/``minus`` are the kernel's check and variable updates (``minus`` also selects the
    paths the left child kept), ``leaf(state, s, i)`` decides leaf i, ``rate0(s)`` prices an
    all-frozen span, and ``node(state, s, first)``, if not None, decides a span with no frozen
    bit in one step or returns None to recurse bit by bit.  Returns the re-encoding.
    """
    genie = state.genie_u is not None   # a genie pass freezes nothing and keeps no metric
    if state.leaf_frozen[first:first + s.shape[2]].all():   # rate 0: every decision is 0
        state.pm += rate0(s)
        return np.zeros(s.shape[:3], dtype=np.int8)
    half = s.shape[2] // 2
    if half == 0:
        return leaf(state, s[:, :, 0], first)[:, :, None]
    if node is not None and not state.leaf_has_frozen[first:first + 2 * half].any():
        x = node(state, s, first)
        if x is not None:
            return x
        node = None
    # The left half of the span carries the XOR of the two virtual
    # inputs, the right half the second one alone.
    left_frozen, origin = state.leaf_frozen[first:first + half].all(), None
    if left_frozen:
        x_left = 0   # the kernels take a scalar 0 for an all-zero first input
    else:
        epoch = len(state.trace)
        x_left = _span(state, plus(s[:, :, :half], s[:, :, half:]), plus, minus, leaf, rate0,
                       node, first)
        origin = state.origin_since(epoch)   # minus reads these paths of s: no gathered copy
        # Once every genie trial has erred, no later decision can move first_error:
        # the right child is skipped and decodes to zero.
        if genie and (state.first_error >= 0).all():
            return np.concatenate([x_left, np.zeros_like(x_left)], axis=2)
    s_right = minus(s[:, :, :half], s[:, :, half:], x_left, origin)
    if left_frozen:   # the span's rate-0 penalty less the right child's
        state.pm += rate0(s) - rate0(s_right)
    epoch = len(state.trace)
    x_right = _span(state, s_right, plus, minus, leaf, rate0, node, first + half)
    origin = state.origin_since(epoch)
    if origin is not None and not left_frozen:
        x_left = _gather_paths(x_left, origin)
    return np.concatenate([x_left ^ x_right, x_right], axis=2)


def _symbol_leaf(block_map: np.ndarray, state: _PathState, s: np.ndarray,
                 i: int) -> np.ndarray:
    """Peel the t bits of Stage-2 symbol i; returns the re-packed symbol."""
    t = s.shape[-1].bit_length() - 1
    tree = _stage1_min_tree(s, block_map)
    prefix = np.zeros(s.shape[:2], dtype=np.int64)
    for j in range(t):
        bits, origin = state.decide_bit(_stage1_bit(tree, prefix, j), i * t + j)
        tree, prefix = _gather_paths(tree, origin), _gather_paths(prefix, origin)
        prefix = prefix | (bits << j)
    return block_map[prefix]


def _symbol_node(inverse_map: np.ndarray, state: _PathState, s: np.ndarray,
                 first: int) -> np.ndarray | None:
    """List the span ``s`` of Stage-2 symbols or of bits, none frozen, in one step.

    ``s`` holds (frames, paths, m, q) symbol LLR vectors S_i or (frames, paths, m) bit LLRs
    a_i, which score like S_i = [0, a_i].  A path's metric grows by sum_i (S_i[x_i] - min S_i)
    over the span codeword x, so in the top L only its K = min(L - 1, m) least reliable
    symbols (smallest second-lowest cost, |a_i| for a bit) can leave their best value.  Each
    path forks q ways on those, one at a time, keeping the L smallest metrics after each fork;
    the survivors are ordered by parent, then u bits in decision order, as bit-by-bit pruning
    keeps them.  An exact tie at a selection boundary returns None before any state is
    written, and the recursion decodes the span.
    """
    f, a, m = s.shape[:3]
    q, L, k = 2 if s.ndim == 3 else s.shape[3], state.L, min(state.L - 1, m)
    t, flat = q.bit_length() - 1, s.reshape((f * a,) + s.shape[2:])
    if s.ndim == 3:   # int8, so the span re-encodings stay int8
        best, reliability = (flat < 0).astype(np.int8), np.abs(flat)
    else:
        best = flat.argmin(axis=-1)                                        # (f*a, m)
        low, second = np.partition(flat, 1, axis=-1)[..., :2].transpose(2, 0, 1).copy()
        reliability = second - low
    order = np.argsort(reliability, axis=-1, kind="stable")
    if k < m:   # the K-th lowest reliability (0 for K = 0) must be below the (K+1)-th
        edge = np.take_along_axis(reliability, order[:, max(k - 1, 0):k + 1], axis=-1)
        if ((edge[:, 0] if k else 0) == edge[:, -1]).any():
            return None
    pm, parent, forks = state.pm, np.arange(f * a).reshape(f, a), []
    for j in range(k):
        pos = order[parent, j]
        if s.ndim == 3:   # bit value 0 costs max(-a, 0), value 1 max(a, 0)
            pm = pm[..., None] + np.maximum(flat[parent, pos][..., None] * [-1.0, 1.0], 0.0)
        else:
            pm = pm[..., None] + flat[parent, pos] - low[parent, pos][..., None]
        pm = pm.reshape(f, -1)
        keep = np.arange(pm.size)   # flat (frame, path, value) indices of the kept children
        if pm.shape[1] > L:
            bound = np.partition(pm, L - 1, axis=1)
            if (bound[:, L - 1] == bound[:, L:].min(axis=1)).any():   # L-th = (L+1)-th metric
                return None
            keep = np.flatnonzero(pm <= bound[:, L - 1:L])   # L per frame, in list order
            pm = np.take(pm, keep).reshape(f, L)
        forks.append(np.divmod(keep, q))   # each kept child's flat parent index and value
        parent = np.take(parent, forks[-1][0]).reshape(f, -1)
    # Read the forked values back once, from the last fork to the first.
    vals, idx = np.empty(parent.shape + (k,), dtype=np.int64), np.arange(parent.size)
    for j in reversed(range(k)):
        vals[..., j] = np.take(forks[j][1], idx).reshape(parent.shape)
        idx = np.take(forks[j][0], idx)
    x = best[parent]                                                   # (f, paths, m)
    np.put_along_axis(x, order[parent, :k], vals, axis=-1)
    u = (inverse_map[polar_transform(x)][..., None] >> np.arange(t, dtype=np.int8)) & 1
    u = u.reshape(-1, m * t)
    rank = np.lexsort(np.vstack([np.packbits(u, axis=-1).T[::-1], parent.reshape(1, -1)]))
    # Commit: one log entry, the span's m*t bits of each path with its parent.
    shape = pm.shape
    state.pm, parent = np.take(pm, rank).reshape(shape), np.take(parent, rank).reshape(shape)
    state.trace.append((first * t, u[rank], parent))
    return np.take(x.reshape(-1, m), rank, axis=0).reshape(shape + (m,))


def _bit_leaf(state: _PathState, s: np.ndarray, i: int) -> np.ndarray:
    return state.decide_bit(s, i)[0].astype(np.int8)


def _f_bin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _g_bin(a: np.ndarray, b: np.ndarray, u0: np.ndarray | int, origin=None) -> np.ndarray:
    return _gather_paths(b, origin) + (1.0 - 2.0 * u0) * _gather_paths(a, origin)


def _rate0_bin(a: np.ndarray) -> np.ndarray:
    # max(-f, 0) + max(-(a + b), 0) = max(-a, 0) + max(-b, 0) for f = _f_bin(a, b).
    return np.maximum(-a, 0.0).sum(axis=-1)


def _decode(spec: "CodeSpec", state: _PathState, channel_input) -> np.ndarray:
    """Run the recursion of ``spec.scheme`` over (frames, n/t, 2^t) or (frames, n) LLRs.

    Returns the final paths' outer codewords.  The kernels are looked up at call time, so a
    wrapped module attribute is used.
    """
    root = np.asarray(channel_input, dtype=np.float64)
    shape = (spec.n // spec.t, 1 << spec.t) if spec.scheme == "hybrid" else (spec.n,)
    if root.shape[1:] != shape:
        raise ValueError(f"decoder input has shape {root.shape}, not (frames,) + {shape}")
    # A genie pass corrects every bit, so it stays on the recursion.
    genie = state.genie_u is not None
    if spec.scheme == "hybrid":
        block_map = stage1_block_map(spec.t, spec.encoder_variant)
        leaf = functools.partial(_symbol_leaf, block_map)
        node = None if genie else functools.partial(
            _symbol_node, np.argsort(block_map).astype(np.int8))   # int8: the node logs u in it
        frozen = state.frozen_mask.reshape(-1, spec.t)
        state.leaf_frozen, state.leaf_has_frozen = frozen.all(axis=1), frozen.any(axis=1)
        return _span(state, root[:, None], stage2_plus, stage2_minus, leaf,
                     stage2_rate0_penalty, node, 0)
    node = None if genie else functools.partial(_symbol_node, np.arange(2, dtype=np.int8))
    return _span(state, root[:, None], _f_bin, _g_bin, _bit_leaf, _rate0_bin, node, 0)


# ---------------------------------------------------------------------------
# Public decoding entry points
# ---------------------------------------------------------------------------

def _finalize(spec: "CodeSpec", state: _PathState, crc_on: bool, return_paths: bool,
              x: np.ndarray | None = None) -> BatchDecodeResult:
    """Select each frame's path; ``return_paths`` keeps every path and its codeword ``x``."""
    f = state.F
    pm = state.pm
    # Walk the decision log back once, from the final paths to bit 0.
    u_all = np.zeros((f, state.paths, state.n), dtype=np.int8)
    u_flat, idx = u_all.reshape(pm.size, state.n), np.arange(pm.size)
    for start, bits, parent in reversed(state.trace):
        u_flat[:, start:start + bits.shape[1]] = bits[idx]
        idx = np.take(parent, idx)
    order = np.argsort(pm, axis=1, kind="stable")
    ranked = order if crc_on else order[:, :1]   # without the CRC, rank 0 is chosen
    rows = np.arange(f)
    pass_mask = np.zeros(ranked.shape, dtype=bool)
    if spec.p > 0:
        blocks = u_all[rows[:, None], ranked][..., spec.unfrozen_indices()]
        pass_mask = crc_check(blocks, spec.crc_poly, spec.p)
    # The best path that passes the CRC, or rank 0 if none does (argmax of all False).
    rank = np.argmax(pass_mask, axis=1)
    chosen = ranked[rows, rank]
    return BatchDecodeResult(
        u_hat=u_all[rows, chosen],
        crc_pass=pass_mask[rows, rank],
        chosen_pm=pm[rows, chosen],
        list_rank=rank,
        all_u=u_all if return_paths else None,
        all_pm=pm if return_paths else None,
        all_x=x if return_paths else None,
    )


MAX_PATH_ENTRIES = 1 << 24   # most LLRs in one frame's widest path array, the full-width root span
GENIE_BLOCK_ENTRIES = 1 << 17   # root LLRs per genie block: 1 MiB of float64, half a 2 MiB L2


def frame_path_entries(spec: "CodeSpec", list_size: int) -> int:
    """LLR entries of a frame's root span over its min(L, 2^(k+p)) live paths.

    Raises ValueError past :data:`MAX_PATH_ENTRIES`.
    """
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    per_path = (spec.n // spec.t) << spec.t if spec.scheme == "hybrid" else spec.n
    entries = min(list_size, 2 ** (spec.k + spec.p)) * per_path
    if entries > MAX_PATH_ENTRIES:
        raise ValueError(f"list size {list_size} needs more than {MAX_PATH_ENTRIES} "
                         f"path LLR entries per frame ({per_path} per path)")
    return entries


def frame_batch(spec: "CodeSpec", list_size: int, pinned: bool) -> int:
    """Frames per batch of every frame loop, about 4e6 array entries; no output depends on it.

    A frame's decode holds under twice :func:`frame_path_entries`; before it, the channel of
    an unpinned hybrid frame holds its int64 (r-1, n/t) multipliers and (r, n/t) rho and symbol
    keys, and its combine takes N = r*n int64 bit keys (t times its symbol keys, one frame's
    at a time, counted for every frame).
    """
    entries = 2 * frame_path_entries(spec, list_size)
    if spec.scheme == "hybrid" and not pinned:
        entries = max(entries, (3 * spec.r - 1) * (spec.n // spec.t) + spec.N)
    return int(np.clip(4_000_000 // entries, 1, 2048))


def _list_decode(spec: "CodeSpec", channel_input: np.ndarray, list_size: int,
                 crc_on: bool, return_paths: bool) -> BatchDecodeResult:
    frame_path_entries(spec, list_size)
    state = _PathState(len(channel_input), spec.n, list_size, spec.frozen_mask())
    x = _decode(spec, state, channel_input)
    return _finalize(spec, state, crc_on, return_paths, x)


def scl_decode_batch(spec: "CodeSpec", s_inner: np.ndarray, list_size: int,
                     crc_on: bool = True, return_paths: bool = False) -> BatchDecodeResult:
    """Decode a batch of hybrid frames from (frames, n/t, 2^t) combined symbol LLR vectors.

    ``list_size = 1`` is plain successive cancellation: the one path keeps the cheaper
    child of each bit, which is the sign decision (0 on a tie).
    """
    return _list_decode(spec, s_inner, list_size, crc_on, return_paths)


def baseline_decode_batch(spec: "CodeSpec", bit_llrs: np.ndarray, list_size: int,
                          crc_on: bool = True, return_paths: bool = False) -> BatchDecodeResult:
    """Decode baseline frames from (frames, n) bit LLRs, each the sum of its r repeats."""
    return _list_decode(spec, bit_llrs, list_size, crc_on, return_paths)


def genie_first_errors(spec: "CodeSpec", channel_input, true_u: np.ndarray) -> np.ndarray:
    """Genie-aided SC pass used by the Monte-Carlo code construction.

    Every bit decision is corrected to the true value right after its
    LLR is formed; the returned array holds, per frame, the index of
    the first wrong decision or -1 if the whole frame decoded cleanly.
    All n positions are treated as unfrozen while ranking.
    """
    true_u = np.asarray(true_u, dtype=np.int8)
    first_error = np.empty(len(true_u), dtype=np.int64)
    step = max(1, GENIE_BLOCK_ENTRIES // max(1, int(np.prod(np.shape(channel_input)[1:]))))
    for lo in range(0, len(true_u), step):
        block = true_u[lo:lo + step]
        state = _PathState(len(block), spec.n, 1, np.zeros(spec.n, dtype=bool), genie_u=block)
        _decode(spec, state, channel_input[lo:lo + step])
        first_error[lo:lo + step] = state.first_error
    return first_error
