"""Step-by-step encoding of the small worked example (n=8, r=3, GF(16)).

Shows both Stage-1 variants producing different codewords from the same
message bits and the same repetition coefficients.

Run with:  python demos/02_encoding_walkthrough.py
"""

import numpy as np

from hybridpolar import build_field, encode_stage1, encode_stage2
from hybridpolar.encoder import block_coefficients

gf16 = build_field(4)


def show(name, symbols):
    pretty = ", ".join("0" if s == 0 else ("1" if s == 1 else f"a^{gf16.log[s]}")
                       for s in symbols)
    print(f"  {name}: ({pretty})")


u = np.array([0, 0, 1, 1, 1, 0, 1, 1], dtype=np.int8)
rho = gf16.exp[[[8, 6], [4, 1]]]

print(f"message bits u = {list(u)}")
print(f"repetition multipliers rho = (a^8, a^6), (a^4, a^1)\n")

for variant in ("flat", "recursive"):
    print(f"--- {variant} Stage-1 kernel ---")
    a = encode_stage1(u, 4, variant)
    show("stage-1 symbols a", a)
    z = encode_stage2(a)
    show("stage-2 output  z", z)
    # Block j of the codeword is rho_j * z elementwise, with rho_1 = 1; the frame
    # pipeline reads the BPSK samples of each product from a table of the same products.
    c = gf16.mul[block_coefficients(rho, 3, len(z), gf16.q), z].ravel()
    show("codeword      c", c)
    print("symbols:", " ".join(f"{int(s):x}" for s in c))
    print("rho_exp:", " ".join(str(int(gf16.log[v])) for v in rho.ravel()))
    print()

print("The flat kernel multiplies each 4-bit group by the bit-reversed")
print("Kronecker power; the recursive construction applies the 2x2 kernel")
print("over growing subfields, which drops the bit reversal. Both share")
print("the same Stage 2 and inner code, so only block 1 symbols differ")
print("before the multipliers spread the difference across the repeats.")
