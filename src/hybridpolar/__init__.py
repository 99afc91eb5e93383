"""Hybrid non-binary repeated polar codes: encoding, decoding, analysis.

The package implements two low-rate coding schemes built from an outer
polar code and an inner repetition code, plus everything needed to
construct, simulate and analyse them:

* ``galois``   -- GF(2^t) tables and the bit/symbol packing convention
* ``codespec`` -- code parameters, Monte-Carlo construction, persistence
* ``encoder``  -- CRC, two-stage outer encoding, both inner codes
* ``channel``  -- the frame pipeline: BPSK over AWGN / Rayleigh fading to combined LLRs
* ``decoder``  -- batched SC and CRC-aided SCL decoding for both schemes
* ``analysis`` -- operation counts, weight spectra, union bound
* ``cli``      -- the ``hybridpolar`` command-line harness
"""

from .analysis import (ComplexityReport, WeightHistogram, brute_force_weights,
                       count_operations, enumerate_low_weight, union_bound)
from .channel import ChannelConfig
from .codespec import CodeSpec, construct_code, default_frozen_set, load_spec, save_spec
from .decoder import baseline_decode_batch, scl_decode_batch, stage2_minus, stage2_plus
from .encoder import crc_attach, crc_check, encode_stage1, encode_stage2
from .galois import FieldTables, build_field

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
