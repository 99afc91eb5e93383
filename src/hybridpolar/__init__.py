"""Hybrid non-binary repeated polar codes: encoding, decoding, analysis.

The package implements two low-rate coding schemes built from an outer
polar code and an inner repetition code, plus everything needed to
construct, simulate and analyse them:

* ``galois``   -- GF(2^t) tables and the bit/symbol packing convention
* ``codespec`` -- code parameters, Monte-Carlo construction, persistence
* ``encoder``  -- CRC, two-stage outer encoding, both inner codes
* ``channel``  -- BPSK over AWGN / Rayleigh block fading, symbol LLRs
* ``decoder``  -- batched SC and CRC-aided SCL decoding for both schemes
* ``analysis`` -- operation counts, weight spectra, union bound
* ``cli``      -- the ``hybridpolar`` command-line harness
"""

from .analysis import (ComplexityReport, WeightHistogram, brute_force_weights,
                       count_operations, enumerate_low_weight, union_bound)
from .channel import ChannelConfig, bpsk_modulate, initial_llrs, transmit
from .codespec import (CodeSpec, construct_code, default_frozen_set, load_spec,
                       monte_carlo_construct, save_spec)
from .decoder import (baseline_decode_batch, combine_repetitions, scl_decode_batch,
                      stage1_bit_llr, stage2_minus, stage2_plus)
from .encoder import (Codeword, crc_attach, crc_check, encode_baseline, encode_hybrid,
                      encode_stage1, encode_stage2, multiplicative_repeat)
from .galois import (FieldTables, build_field, gf_add, gf_mul, pack_bits,
                     unpack_symbol)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
