"""Tour of the GF(2^t) arithmetic layer and the bit/symbol convention.

Run with:  python demos/01_field_and_packing.py
"""

import numpy as np

from hybridpolar import build_field
from hybridpolar.galois import pack_bits_array, unpack_symbol_array

print("GF(16) with modulus x^4 + x + 1")
gf16 = build_field(4)
print(f"  exp table: {[hex(v) for v in gf16.exp]}")
print(f"  alpha^4 = {int(gf16.exp[4]):#06b}  (equals alpha + 1, as the modulus forces)")

print("\nExponent arithmetic behind the multiplication table:")
a, b = gf16.exp[13], gf16.exp[8]
prod = gf16.mul[a, b]
print(f"  alpha^13 * alpha^8 = alpha^{gf16.log[prod]}   (13 + 8 = 21 = 6 mod 15)")

print("\nAddition is coefficient-wise XOR:")
print(f"  alpha + 1 = {0b10 ^ 0b01:#06b} = alpha^{gf16.log[0b10 ^ 0b01]}")

print("\nBit groups pack with the first bit as the alpha^0 coefficient:")
groups = np.array([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1)])
symbols = pack_bits_array(groups)
for bits, s, back in zip(groups.tolist(), symbols.tolist(),
                         unpack_symbol_array(symbols, 4).tolist()):
    print(f"  {tuple(bits)} -> value {s:#06b}, unpacks back to {tuple(back)}")

print("\nA reducible modulus is rejected while the antilog table is filled:")
try:
    build_field(4, 0b10001)  # x^4 + 1 = (x + 1)^4
except ValueError as exc:
    print(f"  ValueError: {exc}")

print("\nMultiplication by a fixed nonzero element permutes the nonzero")
print("elements cyclically; this is what turns the inner repetition code")
print("into plain LLR-vector permutations at the decoder:")
rho = gf16.exp[5]
orbit = [1]
for _ in range(5):
    orbit.append(gf16.mul[orbit[-1], rho])
print("  1 ->", " -> ".join(f"a^{gf16.log[v]}" for v in orbit[1:]))
