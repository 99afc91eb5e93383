"""Command-line harness: construction, FER sweeps, complexity, weights.

Subcommands
-----------
construct   build a frozen set by Monte-Carlo ranking and save the spec
simulate    run seeded FER/BER sweeps and emit CSV rows
complexity  print exact operation-count tables
weights     estimate a weight spectrum and emit weight,count CSV
roundtrip   encode/decode smoke run at one operating point

Simulation, construction and weight enumeration send their frames
through one batched chain, :func:`hybridpolar.channel.transmit_frames`:
each caller draws only its u vectors (info bits plus CRC here, random
bits in construction, zeros in enumeration), and the chain adds the
repetition coefficients, encoding, BPSK, the channel and the decoder's
LLRs.  All randomness flows from the config's ``seed``: frame i draws
its message, then its coefficients, fading and noise, from the stream
(seed, 0, i); pinned coefficients come from (seed, 1).  Every draw
depends only on array shapes, so results are reproducible and
independent of how frames are batched internally.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import analysis as _analysis
from . import channel as _channel
from . import codespec as _codespec
from . import decoder as _decoder
from . import encoder as _encoder
from .codespec import CodeSpec, default_frozen_set, load_spec, save_spec

@dataclass(frozen=True)
class SimRecord:
    """One FER measurement row."""

    scheme: str
    n: int
    N: int
    k: int
    t: int
    r: int
    L: int
    channel: str
    B: int
    ebn0_db: float
    seed: int
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    wall_seconds: float

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f.name)) if not isinstance(getattr(self, f.name), float)
                        else repr(getattr(self, f.name))
                        for f in dataclass_fields(self))


CSV_HEADER = ",".join(f.name for f in dataclass_fields(SimRecord))


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "list_size": "1",
    "crc_poly": "0x43",
    "crc_len": "6",
    "channel": "awgn",
    "fading_blocks": "0",
    "ebn0_list": "",
    "max_frames": "1000000",
    "target_errors": "100",
    "encoder_variant": "flat",
    "pin_coefficients": "false",
}

_REQUIRED_KEYS = ("scheme", "n", "k", "t", "r", "design_snr", "seed")
CONFIG_KEYS = _REQUIRED_KEYS + tuple(_CONFIG_DEFAULTS)


@dataclass(frozen=True)
class SimConfig:
    """A parsed config: the code it names, with a placeholder frozen set, and its run settings."""

    code: CodeSpec
    list_size: int
    channel: str
    fading_blocks: int
    ebn0_list: tuple
    seed: int
    max_frames: int
    target_errors: int
    pin_coefficients: bool


def parse_config(path) -> SimConfig:
    raw = _codespec.read_key_values(path, CONFIG_KEYS, "config")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValueError(f"config {path} is missing required key {key!r}")
    merged = dict(_CONFIG_DEFAULTS)
    merged.update(raw)

    def number(key, kind=int):
        return _codespec.parse_value(path, key, merged[key], kind)

    ebn0 = tuple(_codespec.parse_value(path, "ebn0_list", tok, float)
                 for tok in merged["ebn0_list"].split(",") if tok.strip())
    for value in ebn0:
        if not math.isfinite(value):
            raise ValueError(f"config {path}: ebn0_list entry {value} is not a finite Eb/N0")
    pin = merged["pin_coefficients"].lower()
    if pin not in ("true", "false", "0", "1"):
        raise ValueError(f"pin_coefficients must be boolean, got {pin!r}")
    n, k, p = number("n"), number("k"), number("crc_len")
    cfg = SimConfig(
        code=CodeSpec(scheme=merged["scheme"], n=n, k=k, t=number("t"), r=number("r"), p=p,
                      crc_poly=number("crc_poly"), frozen_set=default_frozen_set(n, k, p),
                      design_snr=number("design_snr", float),
                      encoder_variant=merged["encoder_variant"]),
        list_size=number("list_size"),
        channel=merged["channel"],
        fading_blocks=number("fading_blocks"),
        ebn0_list=ebn0,
        seed=number("seed"),
        max_frames=number("max_frames"),
        target_errors=number("target_errors"),
        pin_coefficients=pin in ("true", "1"),
    )
    for key, low in (("max_frames", 1), ("target_errors", 0), ("list_size", 1), ("seed", 0)):
        if getattr(cfg, key) < low:
            raise ValueError(f"config {path}: {key} must be >= {low}, got {getattr(cfg, key)}")
    _channel.check_channel_kind(cfg.channel, cfg.fading_blocks)
    if cfg.channel == "rayleigh_block" and cfg.code.N % cfg.fading_blocks:
        raise ValueError(f"config {path}: fading_blocks = {cfg.fading_blocks} "
                         f"does not divide N = {cfg.code.N}")
    return cfg


def check_config_matches_spec(cfg: SimConfig, spec: CodeSpec) -> None:
    """Require the spec to agree with the config on every code field a config sets."""
    for name in ("scheme", "n", "k", "t", "r", "p", "crc_poly", "encoder_variant"):
        a, b = getattr(cfg.code, name), getattr(spec, name)
        if a != b:
            raise ValueError(f"spec/config mismatch on {name}: config {a!r} vs spec {b!r}")


# ---------------------------------------------------------------------------
# Frame-error simulation
# ---------------------------------------------------------------------------

def simulate_point(spec: CodeSpec, ebn0_db: float, list_size: int, seed: int,
                   max_frames: int, target_errors: int, channel_kind: str = "awgn",
                   fading_blocks: int = 0, pin_coefficients: bool = False) -> SimRecord:
    """Measure FER/BER at one operating point with the exact stop rule.

    Frames are processed in index order; the run stops at max_frames or
    right at the frame where the cumulative error count first reaches
    target_errors (a target of 0 disables the error stop), so emitted
    counts never depend on the internal batch size.
    """
    if max_frames < 1:
        raise ValueError(f"max_frames must be >= 1, got {max_frames}")
    t0 = time.perf_counter()
    cfg = _channel.ChannelConfig(kind=channel_kind, ebn0_db=ebn0_db,
                                 rate=spec.rate, fading_blocks=fading_blocks)
    pinned = _channel.pinned_coefficients(spec, seed) if pin_coefficients else None
    hybrid = spec.scheme == "hybrid"
    decode = _decoder.scl_decode_batch if hybrid else _decoder.baseline_decode_batch
    chunk = _decoder.frame_batch(spec, list_size, pinned is not None)
    frames = frame_errors = bit_errors = 0
    while frames < max_frames:
        m = min(chunk, max_frames - frames)
        rngs = [_channel.seeded_rng(seed, 0, frames + j) for j in range(m)]
        info = np.stack([rng.integers(0, 2, size=spec.k, dtype=np.int8) for rng in rngs])
        channel_input = _channel.transmit_frames(spec, cfg, _encoder.message_u(info, spec),
                                                 rngs, pinned)
        out = decode(spec, channel_input, list_size, crc_on=spec.p > 0)
        decoded_info = out.u_hat[:, spec.unfrozen_indices()[:spec.k]]
        bit_err = (decoded_info != info).sum(axis=1)
        frame_err = bit_err > 0

        if target_errors > 0:
            cum = frame_errors + np.cumsum(frame_err)
            crossing = np.flatnonzero(cum >= target_errors)
            if crossing.size:
                cut = int(crossing[0]) + 1
                frames += cut
                frame_errors = int(cum[cut - 1])
                bit_errors += int(bit_err[:cut].sum())
                break
        frames += m
        frame_errors += int(frame_err.sum())
        bit_errors += int(bit_err.sum())

    return SimRecord(
        scheme=spec.scheme, n=spec.n, N=spec.N, k=spec.k, t=spec.t, r=spec.r,
        L=list_size, channel=channel_kind, B=fading_blocks, ebn0_db=ebn0_db,
        seed=seed, frames=frames, frame_errors=frame_errors, bit_errors=bit_errors,
        fer=frame_errors / frames, ber=bit_errors / (frames * spec.k) if spec.k else 0.0,
        wall_seconds=time.perf_counter() - t0,
    )


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    cfg = parse_config(args.config)
    # Refuse what simulate would stop on (list size, Eb/N0) before any trial runs.
    _decoder.frame_path_entries(cfg.code, cfg.list_size)
    for ebn0 in cfg.ebn0_list:
        _channel.ChannelConfig(cfg.channel, ebn0, cfg.code.rate, cfg.fading_blocks)
    if not args.counts:
        spec = _codespec.construct_code(cfg.code, trials=args.trials, seed=cfg.seed)
    else:
        counts = _codespec.first_error_counts(cfg.code, args.trials, cfg.seed)
        spec = _codespec.freeze_highest(cfg.code, counts)
        frozen = spec.frozen_mask()
        with open(args.counts, "w") as fh:
            fh.write("position,first_errors,frozen\n")
            fh.writelines(f"{i},{c},{int(f)}\n" for i, (c, f) in enumerate(zip(counts, frozen)))
        if frozen.any() and not frozen.all():   # ties at the boundary freeze the lower index
            print(f"freeze boundary: lowest frozen count {counts[frozen].min()}, "
                  f"highest unfrozen count {counts[~frozen].max()}")
    save_spec(spec, args.output)
    print(f"wrote {args.output} (|F| = {len(spec.frozen_set)})")
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    spec = load_spec(args.spec)
    check_config_matches_spec(cfg, spec)
    if not cfg.ebn0_list:
        raise ValueError("config has an empty ebn0_list")
    csv_text = records_to_csv([
        simulate_point(spec, ebn0, cfg.list_size, cfg.seed, cfg.max_frames, cfg.target_errors,
                       channel_kind=cfg.channel, fading_blocks=cfg.fading_blocks,
                       pin_coefficients=cfg.pin_coefficients)
        for ebn0 in cfg.ebn0_list])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


_TABLE1_ROWS = ((512, 16), (256, 32), (128, 64))


def format_table1() -> str:
    lines = []
    for scheme, t, title in (("polar_repetition", 1, "Repetition scheme"),
                             ("hybrid", 2, "Hybrid scheme over GF(4)"),
                             ("hybrid", 4, "Hybrid scheme over GF(16)")):
        lines.append(title)
        lines.append(f"{'parameters':<22}{'inner rep.':>12}{'stage 2':>12}"
                     f"{'stage 1':>12}{'total':>12}")
        for n, r in _TABLE1_ROWS:
            rep = _analysis.count_operations(scheme, n, r, t)
            label = f"n={n}, r={r}" + (f", t={t}" if scheme == "hybrid" else "")
            lines.append(f"{label:<22}{rep.inner_ops:>12}{rep.stage2_ops:>12}"
                         f"{rep.stage1_ops:>12}{rep.total_ops:>12}")
        lines.append("")
    return "\n".join(lines)


def cmd_complexity(args) -> int:
    if args.all_table1:
        sys.stdout.write(format_table1())
        return 0
    if not args.scheme:
        raise ValueError("complexity needs --all-table1 or --scheme")
    rep = _analysis.count_operations(args.scheme, args.n, args.r, args.t)
    print(f"{'scheme':<12}{rep.scheme}")
    print(f"{'inner_ops':<12}{rep.inner_ops}")
    print(f"{'stage2_ops':<12}{rep.stage2_ops}")
    print(f"{'stage1_ops':<12}{rep.stage1_ops}")
    print(f"{'total_ops':<12}{rep.total_ops}")
    return 0


def cmd_weights(args) -> int:
    spec = load_spec(args.spec)
    hist = _analysis.enumerate_low_weight(spec, args.list_size, args.snr, args.seed)
    csv_text = hist.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_roundtrip(args) -> int:
    spec = load_spec(args.spec)
    record = simulate_point(spec, args.ebn0, args.list_size, args.seed,
                            max_frames=args.frames, target_errors=0)
    print(f"{record.frames} frames at Eb/N0 = {args.ebn0} dB: "
          f"{record.frame_errors} frame errors (fer = {record.fer})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridpolar",
        description="Non-binary repeated polar code construction and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="Monte-Carlo construct a frozen set")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, help="spec file to write")
    p.add_argument("--trials", type=int, default=_codespec.DEFAULT_CONSTRUCTION_TRIALS)
    p.add_argument("--counts", help="CSV of each position's first-error count and frozen flag")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run an FER sweep")
    p.add_argument("config")
    p.add_argument("--spec", required=True, help="constructed spec file")
    p.add_argument("-o", "--output", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("complexity", help="operation-count tables")
    p.add_argument("--all-table1", action="store_true",
                   help="print all nine reference parameter sets")
    p.add_argument("--scheme", choices=("hybrid", "polar_repetition"))
    p.add_argument("-n", type=int, default=512)
    p.add_argument("-r", type=int, default=16)
    p.add_argument("-t", type=int, default=1)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("weights", help="weight-spectrum estimation")
    p.add_argument("--spec", required=True)
    p.add_argument("--list-size", type=int, default=1024)
    p.add_argument("--snr", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("roundtrip", help="encode/decode smoke run")
    p.add_argument("--spec", required=True)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--ebn0", type=float, default=20.0)
    p.add_argument("--list-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
