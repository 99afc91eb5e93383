"""Encoders for the two repetition schemes.

The hybrid scheme builds its outer code in two stages.  Stage 1 applies
a small binary kernel to each group of t input bits, after which every
group is packed into one GF(2^t) symbol (first bit of the group is the
alpha^0 coefficient).  Stage 2 applies the binary Arikan kernel to the
n/t symbols, with the 0/1 kernel entries acting by field addition, i.e.
symbol XOR.  The inner code repeats the n/t outer symbols r times, each
repeated symbol scaled by a random nonzero field coefficient.

Two Stage-1 variants exist and produce different codes for t = 4:

* ``flat``      : each t-tuple is multiplied by B_t G_2^{(x) m'}, that
                  is, the Kronecker-power kernel with bit-reversed rows.
* ``recursive`` : G_2 is applied pairwise over growing subfields and
                  the outputs regrouped layer by layer, which works out
                  to the plain Kronecker power without bit reversal.

Either kernel is tabulated once over all 2^t tuples
(:func:`stage1_block_map`), so Stage-1 encoding is one table lookup.

The baseline scheme is an ordinary binary polar code whose codeword is
repeated r times verbatim.  Every transform here works on the last
axis, batched over any leading axes.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .galois import FieldTables, pack_bits_array, unpack_symbol_array

if TYPE_CHECKING:  # pragma: no cover
    from .codespec import CodeSpec


# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------

def crc_attach(info_bits: np.ndarray, crc_poly: int, p: int) -> np.ndarray:
    """Append the p-bit remainder of info_bits * x^p modulo crc_poly.

    Works on the last axis, batched over any leading axes.  The first
    entry of the returned CRC block is the x^{p-1} coefficient of the
    remainder, so an all-zero message yields an all-zero CRC.
    """
    info_bits = np.asarray(info_bits, dtype=np.int8)
    if p == 0:
        return info_bits.copy()
    k = info_bits.shape[-1]
    # The syndrome of (info, 0^p) is the remainder of info * x^p.
    m = crc_remainder_matrix(k + p, crc_poly, p)[:k]
    crc = info_bits.astype(np.int64) @ m.astype(np.int64) % 2
    return np.concatenate([info_bits, crc.astype(np.int8)], axis=-1)


def crc_check(bits: np.ndarray, crc_poly: int, p: int) -> np.ndarray:
    """True where the trailing p bits are a valid CRC of the leading bits.

    Works on the last axis, batched over any leading axes.
    """
    bits = np.asarray(bits, dtype=np.int8)
    if p == 0:
        return np.ones(bits.shape[:-1], dtype=bool)
    m = crc_remainder_matrix(bits.shape[-1], crc_poly, p)
    return ~(bits.astype(np.int64) @ m.astype(np.int64) % 2).any(axis=-1)


_CRC_MATRIX_CACHE: dict = {}


def crc_remainder_matrix(length: int, crc_poly: int, p: int) -> np.ndarray:
    """(length, p) GF(2) matrix M with M[i] = CRC contribution of bit i.

    ``bits @ M % 2`` is the remainder of the length-``length`` block
    (most-significant degree first) modulo crc_poly: the syndrome that
    :func:`crc_check` tests for zero, and the CRC that
    :func:`crc_attach` appends.  Cached (read-only) since the decoder
    asks for the same matrix on every batch.
    """
    if crc_poly.bit_length() != p + 1:
        raise ValueError(f"crc_poly 0x{crc_poly:x} does not have degree {p}")
    key = (length, crc_poly, p)
    cached = _CRC_MATRIX_CACHE.get(key)
    if cached is not None:
        return cached
    m = np.zeros((length, p), dtype=np.int8)
    # Bit i stands for x^(length-1-i): divide by crc_poly one degree at a time.
    reg = 1
    for i in reversed(range(length)):
        m[i] = [(reg >> (p - 1 - j)) & 1 for j in range(p)]
        reg <<= 1
        if reg >> p:
            reg ^= crc_poly
    m.setflags(write=False)
    _CRC_MATRIX_CACHE[key] = m
    return m


# ---------------------------------------------------------------------------
# Polar transforms
# ---------------------------------------------------------------------------

def polar_transform(v: np.ndarray) -> np.ndarray:
    """u @ G_2^{(x) m} over the last axis, natural order, XOR arithmetic.

    Works on bit arrays and on packed GF(2^t) symbol arrays alike since
    the kernel entries only ever add (XOR) elements.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    out = v.copy()
    width = 2
    while width <= n:
        half = width // 2
        blocks = out.reshape(*out.shape[:-1], n // width, width)
        blocks[..., :half] ^= blocks[..., half:]
        width *= 2
    return out


def bit_reversal_permutation(t: int) -> np.ndarray:
    """Index permutation reversing the binary digits of 0..t-1."""
    m = t.bit_length() - 1
    if t != 1 << m:
        raise ValueError(f"{t} is not a power of two")
    idx = np.arange(t)
    rev = np.zeros(t, dtype=np.int64)
    for _ in range(m):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@functools.lru_cache(maxsize=None)
def stage1_block_map(t: int, variant: str) -> np.ndarray:
    """Lookup table from a packed t-bit input tuple to its Stage-1 symbol.

    Entry w is the packed transform of the tuple whose j-th bit is
    (w >> j) & 1.  :func:`encode_stage1` is one lookup in it, and the
    decoder uses the same table to re-pack decided bits into the symbol
    fed back to Stage 2.  Cached and read-only.
    """
    if variant not in ("flat", "recursive"):
        raise ValueError(f"unknown encoder variant {variant!r}")
    tuples = unpack_symbol_array(np.arange(1 << t, dtype=np.int64), t)
    if variant == "flat" and t > 1:
        tuples = tuples[:, bit_reversal_permutation(t)]
    block_map = pack_bits_array(polar_transform(tuples))
    block_map.setflags(write=False)
    return block_map


def encode_stage1(u: np.ndarray, t: int, variant: str) -> np.ndarray:
    """Transform (..., n) input bits into (..., n/t) Stage-1 symbols.

    Each group of t bits is packed and mapped through
    :func:`stage1_block_map`.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    if n % t:
        raise ValueError(f"t={t} does not divide n={n}")
    return stage1_block_map(t, variant)[pack_bits_array(u.reshape(*u.shape[:-1], n // t, t))]


def encode_stage2(a: np.ndarray) -> np.ndarray:
    """Apply the Arikan kernel to the symbol vector (field-XOR butterflies)."""
    return polar_transform(np.asarray(a, dtype=np.int64))


# ---------------------------------------------------------------------------
# Message assembly
# ---------------------------------------------------------------------------

def message_u(info_bits: np.ndarray, spec: "CodeSpec") -> np.ndarray:
    """CRC-extend (..., k) payloads and scatter them into (..., n) u vectors.

    Unfrozen positions are filled in ascending index order, info bits
    first and CRC bits last; frozen positions stay zero.
    """
    info_bits = np.asarray(info_bits, dtype=np.int8)
    if info_bits.shape[-1:] != (spec.k,):
        raise ValueError(f"expected {spec.k} information bits, got {info_bits.shape}")
    u = np.zeros(info_bits.shape[:-1] + (spec.n,), dtype=np.int8)
    u[..., spec.unfrozen_indices()] = crc_attach(info_bits, spec.crc_poly, spec.p)
    return u


# ---------------------------------------------------------------------------
# Inner codes and full chains
# ---------------------------------------------------------------------------

def draw_coefficients(n_symbols: int, r: int, tables: FieldTables, rng) -> np.ndarray:
    """(r-1, n_symbols) multipliers drawn uniformly from the nonzero elements.

    For r = 1 there is nothing to draw and ``rng`` is left untouched.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return np.zeros((0, n_symbols), dtype=np.int64)
    return rng.integers(1, tables.q, size=(r - 1, n_symbols), dtype=np.int64)


def block_coefficients(coefficients: np.ndarray, r: int, n_symbols: int, q: int) -> np.ndarray:
    """The multipliers of all r blocks (block 0's are 1) from checked (..., r-1, n_symbols) rho."""
    if coefficients.shape[-2:] != (r - 1, n_symbols):
        raise ValueError(f"coefficient array must have shape (..., {r - 1}, {n_symbols}), "
                         f"got {coefficients.shape}")
    if coefficients.size and not (coefficients.min() >= 1 and coefficients.max() < q):
        raise ValueError("repetition coefficients must be nonzero field elements")
    rho = np.empty(coefficients.shape[:-2] + (r, n_symbols), dtype=np.int64)   # C order
    rho[..., 0, :], rho[..., 1:, :] = 1, coefficients
    return rho


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def multiplicative_repeat(z: np.ndarray, r: int, tables: FieldTables,
                          coefficients: np.ndarray) -> np.ndarray:
    """The (..., r*n2) channel symbols: the outer symbols repeated r times, scaled elementwise.

    Block 1 is z itself; block j >= 2 is rho_j * z with rho_j the j-th
    row of coefficients.  ``z`` is (..., n2) and the coefficients are
    (..., r-1, n2), batched over the same leading axes.
    """
    z = np.asarray(z, dtype=np.int64)
    rho = block_coefficients(np.asarray(coefficients, dtype=np.int64), r, z.shape[-1], tables.q)
    blocks = tables.mul[rho, z[..., None, :]]                                # (..., r, n2)
    return blocks.reshape(blocks.shape[:-2] + (-1,))


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def encode_hybrid(info_bits: np.ndarray, spec: "CodeSpec", coefficients: np.ndarray) -> np.ndarray:
    """Full hybrid chain: CRC, frozen insertion, both stages, repetition."""
    if spec.scheme != "hybrid":
        raise ValueError(f"spec scheme is {spec.scheme!r}, expected 'hybrid'")
    return multiplicative_repeat(encode_u_vector(message_u(info_bits, spec), spec), spec.r,
                                 spec.field_tables(), coefficients)


# No run path calls it; kept while perfbench/layers.py wraps it (ROADMAP G drops it).
def encode_baseline(info_bits: np.ndarray, spec: "CodeSpec") -> np.ndarray:
    """Binary polar codeword repeated r times verbatim."""
    if spec.scheme != "polar_repetition":
        raise ValueError(f"spec scheme is {spec.scheme!r}, expected 'polar_repetition'")
    return np.tile(encode_u_vector(message_u(info_bits, spec), spec), spec.r)


def encode_u_vector(u: np.ndarray, spec: "CodeSpec") -> np.ndarray:
    """Outer transform of (..., n) u vectors (no CRC, no frozen checks).

    Returns the (..., n/t) Stage-2 symbols, or the baseline's (..., n) bits; the callers
    repeat them (:func:`hybridpolar.channel.transmit_frames` by a sample table lookup).
    """
    if spec.scheme == "polar_repetition":
        return polar_transform(np.asarray(u, dtype=np.int8))
    return encode_stage2(encode_stage1(u, spec.t, spec.encoder_variant))
