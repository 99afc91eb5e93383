"""Decode one noisy frame, watching the list decoder at work.

Run with:  python demos/03_decode_one_frame.py
"""

import numpy as np

from hybridpolar import ChannelConfig, scl_decode_batch
from hybridpolar.channel import transmit_frames
from hybridpolar.codespec import CodeSpec, construct_code, default_frozen_set
from hybridpolar.encoder import message_u

rng = np.random.default_rng(3)

params = CodeSpec("hybrid", n=64, k=16, t=4, r=8, p=6, crc_poly=0x43,
                  frozen_set=default_frozen_set(64, 16, 6), design_snr=1.0)
print("constructing a small GF(16) code by Monte-Carlo ranking ...")
spec = construct_code(params, trials=4000, seed=11)
print(f"frozen set holds {len(spec.frozen_set)} of {spec.n} positions")

info = rng.integers(0, 2, size=spec.k, dtype=np.int8)
cfg = ChannelConfig("awgn", ebn0_db=1.0, rate=spec.rate)
print(f"\nEb/N0 = 1 dB, noise variance per sample = {cfg.sigma2:.2f}")

# The frame pipeline takes a batch of u vectors and one generator per frame: it draws
# the frame's repetition coefficients and noise, forms the bit LLRs and sums the repeats.
s_inner = transmit_frames(spec, cfg, message_u(info, spec)[None], [rng])
print(f"combined the {spec.r} repeated observations ({spec.N} bit LLRs) into "
      f"{s_inner.shape[1]} symbol LLR vectors of length {s_inner.shape[2]}")

# The decoder works on batches: one frame goes in as a batch of one, row 0.
for L in (1, 2, 8):
    res = scl_decode_batch(spec, s_inner, L)
    decoded = res.u_hat[0, spec.unfrozen_indices()[:spec.k]]
    ok = np.array_equal(decoded, info)
    print(f"L = {L:2d}: decoded {'correctly' if ok else 'WRONG'}, "
          f"crc_pass = {res.crc_pass[0]}, path metric = {res.chosen_pm[0]:.2f}, "
          f"picked list rank {res.list_rank[0]}")

out = scl_decode_batch(spec, s_inner, 8, return_paths=True)
print("\nfinal path metrics of the L = 8 survivors:")
print("  " + ", ".join(f"{v:.2f}" for v in sorted(out.all_pm[0])))
