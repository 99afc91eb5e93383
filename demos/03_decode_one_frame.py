"""Decode one noisy frame, watching the list decoder at work.

Run with:  python demos/03_decode_one_frame.py
"""

import numpy as np

from hybridpolar import ChannelConfig, bpsk_modulate, initial_llrs, scl_decode_batch, transmit
from hybridpolar.codespec import CodeSpec, construct_code, default_frozen_set
from hybridpolar.decoder import combine_repetitions
from hybridpolar.encoder import encode_hybrid

rng = np.random.default_rng(3)

params = CodeSpec("hybrid", n=64, k=16, t=4, r=8, p=6, crc_poly=0x43,
                  frozen_set=default_frozen_set(64, 16, 6), design_snr=1.0)
print("constructing a small GF(16) code by Monte-Carlo ranking ...")
spec = construct_code(params, trials=4000, seed=11)
tables = spec.field_tables()
print(f"frozen set holds {len(spec.frozen_set)} of {spec.n} positions")

info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
cw = encode_hybrid(info, spec, tables, rng=rng)
x = bpsk_modulate(cw.symbols, spec.t)

cfg = ChannelConfig("awgn", ebn0_db=1.0, rate=spec.rate)
y, h = transmit(x, cfg, rng)
print(f"\nEb/N0 = 1 dB, noise variance per sample = {cfg.sigma2:.2f}")

s_in = initial_llrs(y, h, cfg.sigma2, spec.t)
s_inner = combine_repetitions(s_in, cw.coefficients, tables)
print(f"combined the {spec.r} repeated observations into "
      f"{s_inner.shape[0]} symbol LLR vectors of length {s_inner.shape[1]}")

# The decoder works on batches: one frame goes in as a batch of one, row 0.
for L in (1, 2, 8):
    res = scl_decode_batch(spec, s_inner[None], L)
    decoded = res.u_hat[0, spec.unfrozen_indices()[:spec.k]]
    ok = np.array_equal(decoded, info)
    print(f"L = {L:2d}: decoded {'correctly' if ok else 'WRONG'}, "
          f"crc_pass = {res.crc_pass[0]}, path metric = {res.chosen_pm[0]:.2f}, "
          f"picked list rank {res.list_rank[0]}")

out = scl_decode_batch(spec, s_inner[None], 8, return_paths=True)
print("\nfinal path metrics of the L = 8 survivors:")
print("  " + ", ".join(f"{v:.2f}" for v in sorted(out.all_pm[0])))
