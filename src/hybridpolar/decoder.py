"""SC and CRC-aided SCL decoding for both repetition schemes.

Decoding a hybrid frame has four parts:

1. the r observations of each outer symbol combine straight from
   the bit LLRs: those of the repeats that share a coefficient rho are
   added, and one product with a table of the bits of rho * v gives
   the symbol LLR vector (:func:`combine_repetitions`), so no 2^t
   vector is formed per repeat;
2. Stage 2 runs successive cancellation over the symbol-level Arikan
   kernel, propagating whole LLR vectors through min-sum check and
   variable updates (:func:`stage2_plus` / :func:`stage2_minus`);
3. at each Stage-2 leaf, Stage 1 peels the t bits of the symbol one at
   a time, turning the symbol LLR vector into scalar bit LLRs by
   minimising over the still-undecided bits of the group;
4. decided bits update the path metric, list paths branch two ways on
   every unfrozen bit and are pruned back to the L smallest metrics,
   and the re-packed symbol is fed back into the Stage-2 recursion.
   A frozen (rate-0) subtree is skipped: it decodes to zero with a
   closed-form penalty (:func:`stage2_rate0_penalty`).  Decisions are
   stored once with their parent pointers, not copied per path, and
   one backtrack at the end reads out every survivor.

One recursion, :func:`_span`, serves both schemes: the baseline polar-repetition
scheme swaps in scalar LLRs and binary kernels (min-sum f/g, one-bit leaf, rate-0 penalty).

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

from .encoder import crc_check, stage1_block_map
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


def combine_repetitions(bit_llrs: np.ndarray, coefficients: np.ndarray,
                        tables: FieldTables) -> np.ndarray:
    """Combined (..., n2, 2^t) symbol LLRs from (..., r*n2*t) bit LLRs and (..., r-1, n2) rho.

    Repeat j of symbol i scores v by sum_b bit_b(rho_j * v) * lambda_{j,b}.  The bit-b
    LLRs of the repeats sharing a coefficient rho (block 0 has rho = 1) are summed
    first, by one bincount per bit, then one product with the bits of rho * v.
    """
    coefficients = np.asarray(coefficients)
    q, t = tables.q, tables.t
    lead, r, n2 = coefficients.shape[:-2], coefficients.shape[-2] + 1, coefficients.shape[-1]
    if np.shape(bit_llrs) != lead + (r * n2 * t,):
        raise ValueError(f"bit LLR shape {np.shape(bit_llrs)} is not {lead + (r * n2 * t,)}")
    if coefficients.size and not (coefficients.min() >= 1 and coefficients.max() < q):
        raise ValueError("repetition coefficients must be nonzero field elements")
    keys = np.empty(lead + (r, n2), dtype=np.int64)   # C order even for a broadcast rho
    keys[..., 0, :], keys[..., 1:, :] = 1, coefficients
    keys += q * np.arange(keys.size // r).reshape(lead + (1, n2))   # (frame*n2 + i)*q + rho
    lam = np.asarray(bit_llrs, dtype=np.float64).reshape(-1, t)
    sums = np.empty((keys.size // r * q, t))
    for b in range(t):
        sums[:, b] = np.bincount(keys.ravel(), weights=lam[:, b], minlength=len(sums))
    out = sums.reshape(-1, q * t) @ _repetition_bit_table(t, tables.primitive_poly)
    return out.reshape(lead + (n2, q))


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
    # One flat take of s_plus[..., u0 ^ s]: each row's offset plus u0 ^ s within the row.
    # shifted[..., 0] is s_plus[u0 ^ 0] = s_plus[u0].
    rows = q * np.arange(s_plus.size // q).reshape(s_plus.shape[:-1] + (1,))
    shifted = np.take(s_plus, rows + (np.asarray(u0, dtype=np.int64)[..., None] ^ np.arange(q)))
    return shifted + s_minus - shifted[..., :1] - s_minus[..., :1]


def stage2_rate0_penalty(s: np.ndarray) -> np.ndarray:
    """Sum of the frozen-bit penalties max(-llr, 0) of an all-frozen span.

    For the (..., length, q) input it is sum_i (s_i[0] - min s_i), by induction on the length.
    At a leaf S, bit j costs M_{j+1} - M_j (M_j: min of S over the symbols whose first j inputs
    are 0), which telescopes to S[0] - min S.  Halves A, B cost, per symbol pair, min(a + b) -
    min a - min b in the left child stage2_plus(A, B) and a[0] + b[0] - min(a + b) in the right
    child stage2_minus(A, B, 0): a[0] + b[0] - min a - min b in all.  No step needs s_i[0] = 0.
    """
    return (s[..., 0] - s.min(axis=-1)).sum(axis=-1)


@functools.lru_cache(maxsize=None)
def stage1_leaf_table(t: int, variant: str) -> tuple:
    """Per-bit symbol indices that Stage-1 extraction minimises over.

    Entry j is a read-only (2^j, 2, 2^(t-1-j)) array whose element
    [prefix, beta, c] is the symbol produced by the group whose first j
    bits are ``prefix``, whose bit j is beta and whose remaining bits
    are the free completion c.
    """
    block_map = stage1_block_map(t, variant)
    table = []
    for j in range(t):
        pfx, beta, free = np.ogrid[:1 << j, :2, :1 << (t - 1 - j)]
        idx = block_map[pfx | (beta << j) | (free << (j + 1))]
        idx.setflags(write=False)
        table.append(idx)
    return tuple(table)


def stage1_bit_llr(s: np.ndarray, u_prefix, i: int, t: int,
                   variant: str = "flat") -> float:
    """Scalar LLR of bit i of a symbol group, given the decided prefix.

    Minimises the symbol LLR vector over all completions of the group
    that are consistent with (prefix, bit=1) versus (prefix, bit=0),
    mapping each completion through the Stage-1 kernel of ``variant``.
    This reads the same :func:`stage1_leaf_table` the decoder uses.
    """
    if not 0 <= i < t:
        raise ValueError(f"bit index {i} out of range for t={t}")
    u_prefix = list(u_prefix)
    if len(u_prefix) != i:
        raise ValueError(f"prefix must hold exactly {i} decided bits")
    pfx = sum(int(b) << j for j, b in enumerate(u_prefix))
    mins = np.asarray(s, dtype=np.float64)[stage1_leaf_table(t, variant)[i][pfx]].min(axis=-1)
    return float(mins[1] - mins[0])


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Shared path state (list handling, metrics, decisions)
# ---------------------------------------------------------------------------

class _PathState:
    """Per-decode bookkeeping of the recursion, the same for both schemes.

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
        self.leaf_frozen = frozen_mask  # per recursion leaf; _decode sets it per scheme
        self.pm = np.zeros((n_frames, 1))
        self.trace: list[tuple] = []
        self.origins: list[np.ndarray] = []
        self.genie_u = genie_u
        self.first_error = np.full(n_frames, -1, dtype=np.int64)

    @property
    def paths(self) -> int:
        return self.pm.shape[1]

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
            return np.zeros_like(s_b, dtype=np.int64), None
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
# The SC/SCL recursion and its per-scheme kernels
# ---------------------------------------------------------------------------

def _span(state: _PathState, s: np.ndarray, plus, minus, leaf, rate0, first: int) -> np.ndarray:
    """Decode the span ``s`` (frames, paths, length, ...) whose first leaf is ``first``.

    ``plus``/``minus`` are the kernel's check and variable updates, ``leaf(state, s, i)``
    decides leaf i and ``rate0(s)`` prices an all-frozen span; returns the re-encoding.
    """
    erred = state.mode == "genie" and (state.first_error >= 0).all()
    if erred or state.leaf_frozen[first:first + s.shape[2]].all():
        # Rate 0: every decision is 0; SC metrics ignore frozen bits.  Once every
        # genie trial has erred, no later decision can move first_error.
        if state.mode == "list":
            state.pm += rate0(s)
        return np.zeros(s.shape[:3], dtype=np.int8)
    half = s.shape[2] // 2
    if half == 0:
        return leaf(state, s[:, :, 0], first)[:, :, None]
    # The left half of the span carries the XOR of the two virtual
    # inputs, the right half the second one alone.
    s_left = plus(s[:, :, :half], s[:, :, half:])
    epoch = len(state.origins)
    x_left = _span(state, s_left, plus, minus, leaf, rate0, first)
    origin = state.origin_since(epoch)
    if origin is not None:
        s = _gather_paths(s, origin)
    s_right = minus(s[:, :, :half], s[:, :, half:], x_left)
    epoch = len(state.origins)
    x_right = _span(state, s_right, plus, minus, leaf, rate0, first + half)
    origin = state.origin_since(epoch)
    if origin is not None:
        x_left = _gather_paths(x_left, origin)
    return np.concatenate([x_left ^ x_right, x_right], axis=2)


def _symbol_leaf(block_map: np.ndarray, v_idx: tuple, state: _PathState,
                 s: np.ndarray, i: int) -> np.ndarray:
    """Peel the t bits of Stage-2 symbol i; returns the re-packed symbol."""
    t, q = len(v_idx), s.shape[-1]
    prefix = np.zeros(s.shape[:2], dtype=np.int64)
    for j in range(t):
        f, a = s.shape[0], s.shape[1]
        idx = v_idx[j][prefix]                                # (F, A, 2, n_free)
        flat = s.reshape(f * a, q)
        cand = flat[np.arange(f * a)[:, None], idx.reshape(f * a, -1)]
        mins = cand.reshape(f, a, 2, -1).min(axis=-1)
        s_b = mins[..., 1] - mins[..., 0]
        bits, origin = state.decide_bit(s_b, i * t + j)
        if origin is not None:
            s = _gather_paths(s, origin)
            prefix = _gather_paths(prefix, origin)
        prefix = prefix | (bits << j)
    return block_map[prefix]


def _bit_leaf(state: _PathState, s: np.ndarray, i: int) -> np.ndarray:
    return state.decide_bit(s, i)[0].astype(np.int8)


def _f_bin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _g_bin(a: np.ndarray, b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    return b + (1.0 - 2.0 * u0) * a


def _rate0_bin(a: np.ndarray) -> np.ndarray:
    # max(-f, 0) + max(-(a + b), 0) = max(-a, 0) + max(-b, 0) for f = _f_bin(a, b).
    return np.maximum(-a, 0.0).sum(axis=-1)


def _decode(spec: "CodeSpec", state: _PathState, channel_input) -> None:
    """Run the recursion of ``spec.scheme`` over (frames, n/t, 2^t) or (frames, N) LLRs.

    The kernels are looked up at call time, so a wrapped module attribute is used.
    """
    root = np.asarray(channel_input, dtype=np.float64)
    if spec.scheme == "hybrid":
        variant = spec.encoder_variant
        leaf = functools.partial(_symbol_leaf, stage1_block_map(spec.t, variant),
                                 stage1_leaf_table(spec.t, variant))
        state.leaf_frozen = state.frozen_mask.reshape(-1, spec.t).all(axis=1)
        _span(state, root[:, None], stage2_plus, stage2_minus, leaf, stage2_rate0_penalty, 0)
    else:
        _span(state, combine_baseline(root, spec.r)[:, None], _f_bin, _g_bin, _bit_leaf,
              _rate0_bin, 0)


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
    if spec.p > 0:
        pass_mask = crc_check(u_all[:, :, spec.unfrozen_indices()], spec.crc_poly, spec.p)
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


def _list_decode(spec: "CodeSpec", channel_input: np.ndarray, list_size: int,
                 crc_on: bool, return_paths: bool, mode: str) -> BatchDecodeResult:
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    if mode not in ("list", "sc"):
        raise ValueError(f"decoder mode must be 'list' or 'sc', got {mode!r}")
    state = _PathState(channel_input.shape[0], spec.n, list_size,
                       spec.frozen_mask(), mode)
    _decode(spec, state, channel_input)
    return _finalize(spec, state, crc_on, return_paths)


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
    return _list_decode(spec, s_inner, list_size, crc_on, return_paths, mode)


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
    return _list_decode(spec, bit_llrs, list_size, crc_on, return_paths, mode)


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
    _decode(spec, state, channel_input)
    return state.first_error
