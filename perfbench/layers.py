"""Which package functions the traced run wraps, and the per-layer metrics.

Each entry of ``LAYERS`` is "<module>.<function>", named after the module
that defines the function, with an optional observer that derives counts
from the call's arguments and result.  Every per-layer metric is given per
timed operation, except the ``setup.*`` ones, which cover one set-up.
"""

from __future__ import annotations


def _stage2_plus(counters, args, kwargs, out):
    # One min-plus candidate per output element and field value.
    counters["decoder.stage2_plus.ops"] += out.size * out.shape[-1]
    counters["decoder.stage2_plus.bytes"] += args[0].nbytes + args[1].nbytes + out.nbytes


def _stage2_minus(counters, args, kwargs, out):
    # One gathered sum per output element.
    counters["decoder.stage2_minus.ops"] += out.size
    counters["decoder.stage2_minus.bytes"] += (args[0].nbytes + args[1].nbytes
                                               + getattr(args[2], "nbytes", 8) + out.nbytes)


def _decode_result(counters, args, kwargs, out):
    counters["decoder.frames"] += out.crc_pass.size
    counters["decoder.crc_pass"] += int(out.crc_pass.sum())
    counters["decoder.list_rank0"] += int((out.list_rank == 0).sum())
    counters["decoder.list_calls"] += 1


LAYERS = {
    # The public entry points the workloads call.
    "cli.simulate_point": None,
    "codespec.first_error_counts": None,
    "analysis.enumerate_low_weight": None,
    "codespec.load_spec": None,
    # Decoder: recursion, leaves, list handling and CRC selection stay in the
    # self time of the three batch entry points; the kernels are split out.
    "decoder.scl_decode_batch": _decode_result,
    "decoder.baseline_decode_batch": _decode_result,
    "decoder.genie_first_errors": None,
    "decoder.stage2_plus": _stage2_plus,
    "decoder.stage2_minus": _stage2_minus,
    "decoder.combine_repetitions": None,
    "encoder.crc_remainder_matrix": None,
    # Frame generation.
    "channel.transmit": None,
    "channel.bpsk_modulate": None,
    "channel.initial_llrs": None,
    "encoder.encode_hybrid": None,
    "encoder.encode_baseline": None,
    "encoder.crc_attach": None,
    "encoder.encode_stage1": None,
    "encoder.encode_stage2": None,
    "encoder.multiplicative_repeat": None,
    "encoder.draw_coefficients": None,
    "encoder.encode_u_vector": None,
    "galois.build_field": None,
}

OP = "bench.op"
SETUP = "bench.setup"

COUNTERS = ("decoder.stage2_plus.ops", "decoder.stage2_plus.bytes",
            "decoder.stage2_minus.ops", "decoder.stage2_minus.bytes")


def per_layer_metrics(tracer, counters: dict, n_ops: int, loop_wall_s: float) -> dict:
    """Per-layer metrics from the spans and from ``counters`` of the timed loop."""
    ops_roots = {i for i, s in enumerate(tracer.spans) if s[0] == OP}
    setup_roots = {i for i, s in enumerate(tracer.spans) if s[0] == SETUP}
    timed = tracer.self_times(ops_roots)
    setup = tracer.self_times(setup_roots)
    out = {}
    for name in (OP, *LAYERS):
        self_s, calls = timed.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s / n_ops
        out[f"{name}.calls"] = calls / n_ops
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / n_ops
    # Unique surviving paths: analysis re-encodes each one once.
    inside = tracer.subtree(ops_roots)
    spans = tracer.spans
    out["analysis.paths"] = sum(
        1 for i, (name, _s, _e, parent) in enumerate(spans)
        if inside[i] and name == "encoder.encode_u_vector"
        and parent >= 0 and spans[parent][0] == "analysis.enumerate_low_weight") / n_ops
    frames = counters.get("decoder.frames", 0)
    calls = counters.get("decoder.list_calls", 0)
    out["decoder.crc_pass_share"] = counters.get("decoder.crc_pass", 0) / frames if frames else 0.0
    out["decoder.list_rank0_share"] = counters.get("decoder.list_rank0", 0) / frames if frames else 0.0
    out["decoder.frames_per_call"] = frames / calls if calls else 0.0
    for name in ("codespec.load_spec", "galois.build_field"):
        out[f"setup.{name}.self_s"] = setup.get(name, (0.0, 0))[0]
    out["trace.self_sum_share"] = sum(s for s, _ in timed.values()) / loop_wall_s
    return out

