"""Arithmetic over the binary extension fields GF(2^t), t in {1, 2, 4}.

Elements are stored as integers whose binary digits are polynomial
coefficients: bit j of the integer is the coefficient of alpha^j.  Each
field's tables are built once per process and are read-only, so a single
:class:`FieldTables` instance is shared freely between concurrent
encoders and decoders.

Bit/symbol packing convention used by the whole codec: when a group of
t bits (b0, b1, ..., b_{t-1}) is turned into a symbol, the *first* bit
of the group is the alpha^0 coefficient, i.e. value = sum_j b_j << j.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Default primitive polynomials, one per supported degree.
#   t=1: x + 1        (degenerate GF(2) case)
#   t=2: x^2 + x + 1  (the only degree-2 choice)
#   t=4: x^4 + x + 1
DEFAULT_PRIMITIVE_POLY = {1: 0b11, 2: 0b111, 4: 0b10011}

SUPPORTED_DEGREES = (1, 2, 4)


@dataclass(frozen=True)
class FieldTables:
    """Log/antilog tables for GF(2^t) generated by alpha = 0b10.

    Attributes
    ----------
    t : field degree, bits per symbol.
    q : field size 2^t.
    primitive_poly : coefficient bitmask of the modulus polynomial.
    exp : ndarray of length q-1, exp[j] = alpha^j.
    log : ndarray of length q, inverse of exp on nonzero elements
        (log[0] is set to -1 and must never be used).
    mul : full q-by-q multiplication table, mul[a, b] = a*b.
    """

    t: int
    q: int
    primitive_poly: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    mul: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=None)
def build_field(t: int, primitive_poly: int | None = None) -> FieldTables:
    """Build GF(2^t) tables, rejecting reducible or non-primitive moduli.

    The exp table is filled by repeated multiplication by alpha; if any
    element repeats before all q-1 nonzero elements have appeared, the
    polynomial does not have a primitive root at alpha (or is reducible)
    and a ValueError is raised, on every call: only built tables are cached.
    """
    if t not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported field degree t={t}; must be one of {SUPPORTED_DEGREES}")
    if primitive_poly is None:
        primitive_poly = DEFAULT_PRIMITIVE_POLY[t]
    if primitive_poly.bit_length() != t + 1:
        raise ValueError(
            f"primitive polynomial 0x{primitive_poly:x} does not have degree {t}"
        )
    q = 1 << t
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    x = 1
    for j in range(q - 1):
        if log[x] != -1:
            raise ValueError(
                f"0x{primitive_poly:x} is not primitive over GF(2): "
                f"element {x} repeats while filling the antilog table"
            )
        exp[j] = x
        log[x] = j
        x <<= 1
        if x & q:
            x ^= primitive_poly
    if x != 1:
        # Multiplicative order of alpha does not divide q-1 cleanly.
        raise ValueError(f"0x{primitive_poly:x} is not primitive over GF(2)")

    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(1, q):
        for b in range(1, q):
            mul[a, b] = exp[(log[a] + log[b]) % (q - 1)]
    for table in (exp, log, mul):
        table.setflags(write=False)
    return FieldTables(t=t, q=q, primitive_poly=primitive_poly, exp=exp, log=log, mul=mul)


def pack_bits_array(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of t bits into symbol values, the first bit the alpha^0 coefficient."""
    t = bits.shape[-1]
    weights = (1 << np.arange(t)).astype(np.int64)
    return bits.astype(np.int64) @ weights


def unpack_symbol_array(symbols: np.ndarray, t: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_array`: appends a trailing axis of t bits."""
    shifts = np.arange(t, dtype=np.int64)
    return (symbols[..., None] >> shifts) & 1
