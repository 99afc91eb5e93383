"""Independent reference implementations used as test oracles.

Everything here is written naively and separately from the package
internals: CRC by explicit long division over coefficient lists, polar
transforms by dense Kronecker matrices, LLRs from Gaussian densities,
and the min-sum updates by direct enumeration of the defining formulas
(plus the vector-major check update that the decoder runs symbol-major).
The layered Stage-1 update and the scalar path-metric step are the
textbook per-layer and per-bit rules that the decoder replaces with one
min tree per leaf (Stage 1) and one batched branch (the metric); the
per-bit gather over every completion is the leaf without a min tree.
The frozen-span penalty is the bit-by-bit SC sum that the decoder
replaces with a closed form when it skips an all-frozen subtree, and the
scalar SC decoder is the sign rule that the list decoder at L = 1 replaces
with a branch-and-prune of one path.  The span enumerator scores every
codeword of a span with no frozen bit for every incoming path; the decoder
forks only the least reliable symbols of such a span instead.  The
symbol-domain repetition combine expands every repeat to a 2^t LLR
vector and adds the de-permuted vectors; the decoder replaces it with
per-coefficient sums of bit LLRs and one table product.  The exhaustive
weight enumerator is the one-codeword-at-a-time loop over full
re-encodings that the analysis module replaces with a batched outer
encode and a per-symbol weight table.
"""

import math

import numpy as np

from hybridpolar.encoder import encode_u_vector, multiplicative_repeat
from hybridpolar.galois import unpack_symbol_array


# --- CRC by long division over coefficient lists ---------------------------

def crc_longdiv(bits, poly: int, p: int):
    """Remainder of bits * x^p modulo poly, MSB-first coefficient list."""
    poly_bits = [(poly >> (p - i)) & 1 for i in range(p + 1)]
    work = list(bits) + [0] * p
    for i in range(len(bits)):
        if work[i]:
            for j in range(p + 1):
                work[i + j] ^= poly_bits[j]
    return work[-p:]


def crc_check_longdiv(bits, poly: int, p: int) -> bool:
    poly_bits = [(poly >> (p - i)) & 1 for i in range(p + 1)]
    work = list(bits)
    for i in range(len(work) - p):
        if work[i]:
            for j in range(p + 1):
                work[i + j] ^= poly_bits[j]
    return not any(work[-p:])


# --- Dense polar transform matrices ----------------------------------------

def kron_polar_matrix(n: int) -> np.ndarray:
    g = np.array([[1, 0], [1, 1]], dtype=np.int64)
    m = np.array([[1]], dtype=np.int64)
    while m.shape[0] < n:
        m = np.kron(g, m)
    return m


def matrix_polar_transform(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    return u @ kron_polar_matrix(u.shape[-1]) % 2


def bitrev_indices(n: int) -> list:
    m = n.bit_length() - 1
    out = []
    for i in range(n):
        r = 0
        for b in range(m):
            r = (r << 1) | ((i >> b) & 1)
        out.append(r)
    return out


def stage1_map_matrix(t: int, variant: str) -> list:
    """u-tuple (packed, LSB-first) -> Stage-1 symbol, via dense matrices."""
    g = kron_polar_matrix(t)
    out = []
    for w in range(1 << t):
        u = [(w >> j) & 1 for j in range(t)]
        if variant == "flat" and t > 1:
            u = [u[i] for i in bitrev_indices(t)]
        x = (np.asarray(u) @ g) % 2
        out.append(sum(int(x[j]) << j for j in range(t)))
    return out


# --- Gaussian density LLRs ---------------------------------------------------

def gauss_logpdf(y: float, mean: float, sigma2: float) -> float:
    return -0.5 * math.log(2 * math.pi * sigma2) - (y - mean) ** 2 / (2 * sigma2)


def density_bit_llr(y: float, h: float, sigma2: float) -> float:
    """ln W(y | bit 0) - ln W(y | bit 1) with BPSK 0 -> +h, 1 -> -h."""
    return gauss_logpdf(y, h, sigma2) - gauss_logpdf(y, -h, sigma2)


def density_symbol_llr(y_bits, h_bits, sigma2: float, t: int) -> np.ndarray:
    """Symbol LLR vector from per-bit densities; entry s compares s to 0."""
    out = np.zeros(1 << t)
    for s in range(1 << t):
        total = 0.0
        for j in range(t):
            bit = (s >> j) & 1
            mean0 = h_bits[j]
            means = h_bits[j] * (1.0 - 2.0 * bit)
            total += gauss_logpdf(y_bits[j], mean0, sigma2) - \
                gauss_logpdf(y_bits[j], means, sigma2)
        out[s] = total
    return out


# --- Min-sum update enumeration ----------------------------------------------

def stage2_plus_enum(s_plus, s_minus) -> np.ndarray:
    q = len(s_plus)
    base = min(s_plus[u] + s_minus[u] for u in range(q))
    return np.array([
        min(s_plus[s ^ u] + s_minus[u] for u in range(q)) - base
        for s in range(q)
    ])


def stage2_plus_gather(s_plus, s_minus) -> np.ndarray:
    """The vector-major check update: one gather of every (..., q) row per u.

    Its operands and the order of its exact minima are those of the
    decoder's symbol-major kernel, so the two agree bit for bit.
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


def stage2_minus_enum(s_plus, s_minus, u0: int) -> np.ndarray:
    q = len(s_plus)
    return np.array([
        s_plus[u0 ^ s] + s_minus[s] - s_plus[u0] - s_minus[0]
        for s in range(q)
    ])


def stage1_bit_llr_enum(s, prefix, i: int, t: int, variant: str) -> float:
    block_map = stage1_map_matrix(t, variant)
    pfx = sum(int(b) << j for j, b in enumerate(prefix))
    best = {0: math.inf, 1: math.inf}
    for beta in (0, 1):
        for c in range(1 << (t - 1 - i)):
            w = pfx | (beta << i) | (c << (i + 1))
            best[beta] = min(best[beta], s[block_map[w]])
    return best[1] - best[0]


def stage1_leaf_table(t: int, variant: str) -> list:
    """Per-bit symbol indices that a gather-based Stage-1 extraction minimises over.

    Entry j is a (2^j, 2, 2^(t-1-j)) array whose element [prefix, beta, c]
    is the symbol produced by the group whose first j bits are ``prefix``,
    whose bit j is beta and whose remaining bits are the free completion c.
    """
    block_map = np.asarray(stage1_map_matrix(t, variant))
    table = []
    for j in range(t):
        pfx, beta, free = np.ogrid[:1 << j, :2, :1 << (t - 1 - j)]
        table.append(block_map[pfx | (beta << j) | (free << (j + 1))])
    return table


def stage1_bit_llr_gather(s, prefix, j: int, t: int, variant: str) -> np.ndarray:
    """Bit-j LLRs of (..., q) vectors given (...) packed prefixes, by one gather per bit.

    Every completion of (prefix, beta) is gathered from its vector and
    minimised: the Stage-1 leaf without a min tree.
    """
    s = np.asarray(s, dtype=np.float64)
    prefix = np.asarray(prefix, dtype=np.int64)
    flat = s.reshape(-1, s.shape[-1])
    idx = stage1_leaf_table(t, variant)[j][prefix.reshape(-1)]        # (M, 2, n_free)
    mins = flat[np.arange(len(flat))[:, None, None], idx].min(axis=-1)
    return (mins[:, 1] - mins[:, 0]).reshape(prefix.shape)


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


def frozen_span_penalty(s, plus, minus, leaf_penalty) -> float:
    """Total frozen-bit penalty of an all-frozen span under one-path SC.

    ``s`` is the span's (length, ...) input.  The span is decoded leaf by
    leaf with the check update ``plus``, the variable update ``minus``
    (every decision is 0, so the left half re-encodes to zeros) and
    ``leaf_penalty`` for the summed penalties of one leaf.
    """
    if len(s) == 1:
        return leaf_penalty(s[0])
    a, b = s[:len(s) // 2], s[len(s) // 2:]
    zeros = np.zeros(len(a), dtype=np.int64)
    return (frozen_span_penalty(plus(a, b), plus, minus, leaf_penalty)
            + frozen_span_penalty(minus(a, b, zeros), plus, minus, leaf_penalty))


def frozen_symbol_penalty(s, t: int, variant: str, bit_llr) -> float:
    """Sum of max(-llr, 0) over the t frozen bits of one symbol, bit by bit.

    ``bit_llr(s, prefix, j, t, variant)`` gives the LLR of bit j after the
    decided (all-zero) prefix.
    """
    return sum(max(-bit_llr(s, [0] * j, j, t, variant), 0.0) for j in range(t))


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


def binary_f(a: float, b: float) -> float:
    sa = 1.0 if a > 0 else (-1.0 if a < 0 else 0.0)
    sb = 1.0 if b > 0 else (-1.0 if b < 0 else 0.0)
    return sa * sb * min(abs(a), abs(b))


def binary_g(a: float, b: float, u0: int) -> float:
    return b + (1 - 2 * u0) * a


def sc_decode(x, spec) -> list:
    """The u of one frame by successive cancellation: the sign rule, 0 on a tie.

    ``x`` is the frame's decoder input: combined (n/t, 2^t) symbol LLRs for
    the hybrid scheme, the n combined bit LLRs for the baseline.  Frozen
    bits decide 0.  The baseline runs ``binary_f`` / ``binary_g``; the
    hybrid code runs the enumerated Stage-2 updates and
    reads each symbol's bits with ``stage1_bit_llr_enum``.
    """
    frozen = set(spec.frozen_set)
    u = []

    def decide(llr) -> int:
        u.append(0 if len(u) in frozen or not llr < 0 else 1)
        return u[-1]

    if spec.scheme == "hybrid":
        t, variant = spec.t, spec.encoder_variant
        block_map = stage1_map_matrix(t, variant)
        plus, minus = stage2_plus_enum, stage2_minus_enum

        def leaf(s):
            prefix = []
            for j in range(t):
                prefix.append(decide(stage1_bit_llr_enum(s, prefix, j, t, variant)))
            return block_map[sum(b << j for j, b in enumerate(prefix))]

        root = [np.asarray(v, dtype=np.float64) for v in x]
    else:
        plus, minus, leaf = binary_f, binary_g, decide
        root = [float(v) for v in x]

    def span(s) -> list:
        if len(s) == 1:
            return [leaf(s[0])]
        h = len(s) // 2
        left = span([plus(a, b) for a, b in zip(s[:h], s[h:])])
        right = span([minus(a, b, v) for a, b, v in zip(s[:h], s[h:], left)])
        return [a ^ b for a, b in zip(left, right)] + right

    span(root)
    return u


def q_function_erfc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# --- Repetition combining in the symbol domain -------------------------------

def symbol_llrs(y: np.ndarray, h: np.ndarray, sigma2: float, t: int) -> np.ndarray:
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


def permute_and_add(s_in: np.ndarray, coefficients: np.ndarray, tables) -> np.ndarray:
    """Sum the r observations of each outer symbol after de-permuting.

    ``s_in`` has shape (..., r*n2, 2^t) and ``coefficients`` shape
    (..., r-1, n2); the result is the (..., n2, 2^t) LLR input of the
    outer decoder.
    """
    s_in = np.asarray(s_in, dtype=np.float64)
    coefficients = np.asarray(coefficients, dtype=np.int64)
    r, n2 = coefficients.shape[-2] + 1, coefficients.shape[-1]
    if s_in.shape[:-1] != coefficients.shape[:-2] + (r * n2,):
        raise ValueError(f"expected symbol LLR vectors of shape "
                         f"{coefficients.shape[:-2] + (r * n2,)}, got {s_in.shape[:-1]}")
    q = s_in.shape[-1]
    blocks = s_in.reshape(*s_in.shape[:-2], r, n2, q)
    if r == 1:
        return blocks[..., 0, :, :].copy()
    # One flat take.  Each LLR vector's row offset in s_in goes into the fresh
    # index array in place, one axis at a time, so no index-sized temporary is made.
    idx = tables.mul[coefficients]
    view = idx.reshape(-1, r - 1, n2, q)
    view += q * n2 * (r * np.arange(len(view))[:, None] + np.arange(1, r))[..., None, None]
    view += q * np.arange(n2)[:, None]
    rest = np.take(blocks, idx)
    return blocks[..., 0, :, :] + rest.sum(axis=-3)


# --- Exhaustive list extension through a span with no frozen bit -------------

def span_top_list(s, pm, list_size: int, t: int, variant: str):
    """The L best extensions of a list through a span with no frozen bit, by scoring all.

    ``s`` holds each incoming path's (m, 2^t) span input, or its (m,) bit LLRs
    alpha at t = 1, and ``pm`` its metric.  Every path extends by each of the
    q^m span codewords x, at metric pm + sum_i (s_i[x_i] - min s_i), or
    pm + sum_i max(-(1 - 2 x_i) alpha_i, 0) for bits.  The span's m*t decided
    bits u are, for each symbol of the polar transform of x (dense matrices,
    bit plane by bit plane), its Stage-1 input tuple: bit j of symbol i sits
    at i*t + j.  Returns the (metric, parent, u, x) of the L smallest
    extensions, in the order (metric, parent, u bits), and whether the L-th
    metric is strictly below the next one (True when nothing is cut).
    """
    s = np.asarray(s, dtype=np.float64)
    paths, m = s.shape[:2]
    q = 2 if s.ndim == 2 else s.shape[2]
    x = np.indices((q,) * m).reshape(m, -1).T                         # (q^m, m)
    if s.ndim == 2:
        cost = np.maximum(-(1 - 2 * x) * s[:, None, :], 0.0).sum(axis=-1)
    else:
        cost = (s[:, np.arange(m), x] - s.min(axis=-1)[:, None, :]).sum(axis=-1)
    w = sum(matrix_polar_transform((x >> b) & 1) << b for b in range(t))
    tuples = np.argsort(stage1_map_matrix(t, variant))[w]            # symbol -> tuple
    u = ((tuples[..., None] >> np.arange(t)) & 1).reshape(len(x), m * t)
    metric = (np.asarray(pm, dtype=np.float64)[:, None] + cost).ravel()
    parent = np.repeat(np.arange(paths), len(x))
    u_all = np.tile(u, (paths, 1))
    order = np.lexsort(np.vstack([u_all.T[::-1], parent, metric]))
    top = order[:list_size]
    unique = len(order) <= list_size or metric[order[list_size - 1]] < metric[order[list_size]]
    return metric[top], parent[top], u_all[top], np.tile(x, (paths, 1))[top], unique


# --- Exhaustive weight enumeration, one codeword at a time --------------------

def channel_stream(u, spec, tables, coefficients=None) -> np.ndarray:
    """The (..., N/t) channel symbols of (..., n) u vectors: the outer codeword, repeated r times."""
    outer = encode_u_vector(u, spec)
    if spec.scheme == "polar_repetition":
        return np.tile(outer, spec.r)
    return multiplicative_repeat(outer, spec.r, tables, coefficients=coefficients).symbols


def codeword_weight(u, spec, tables, coefficients) -> int:
    """Channel-bit weight of the codeword of one u vector."""
    symbols = channel_stream(u, spec, tables, coefficients)
    return int(unpack_symbol_array(symbols, spec.t if spec.scheme == "hybrid" else 1).sum())


def brute_force_weight_counts(spec, coefficients=None) -> dict:
    """Weight -> multiplicity over every nonzero filling of the unfrozen positions."""
    n_payload = spec.k + spec.p
    tables = spec.field_tables()
    unfrozen = spec.unfrozen_indices()
    counts = {}
    for msg in range(1, 1 << n_payload):
        u = np.zeros(spec.n, dtype=np.int8)
        u[unfrozen] = [(msg >> j) & 1 for j in range(n_payload)]
        w = codeword_weight(u, spec, tables, coefficients)
        counts[w] = counts.get(w, 0) + 1
    return counts
