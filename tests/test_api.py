"""The package exports its batch API and nothing else.

A scalar or single-frame helper that no run path calls is not public: the
frame pipeline, the batch decoders and the construction run are the API.
"""

import hybridpolar

BATCH_API = {
    # modules
    "analysis", "channel", "codespec", "decoder", "encoder", "galois",
    # field tables
    "FieldTables", "build_field",
    # code parameters, construction and persistence
    "CodeSpec", "construct_code", "default_frozen_set", "load_spec", "save_spec",
    # batched outer encoding and CRC
    "crc_attach", "crc_check", "encode_stage1", "encode_stage2",
    # channel parameters (the frame pipeline is channel.transmit_frames)
    "ChannelConfig",
    # batch decoders and the Stage-2 kernels
    "baseline_decode_batch", "scl_decode_batch", "stage2_minus", "stage2_plus",
    # analysis
    "ComplexityReport", "WeightHistogram", "brute_force_weights", "count_operations",
    "enumerate_low_weight", "union_bound",
}


def test_public_names_are_the_batch_api():
    assert set(hybridpolar.__all__) == BATCH_API
