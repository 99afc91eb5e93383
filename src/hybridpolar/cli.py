"""Command-line harness: construction, FER sweeps, complexity, weights.

Subcommands
-----------
construct   build a frozen set by Monte-Carlo ranking and save the spec
simulate    run seeded FER/BER sweeps and emit CSV rows
complexity  print exact operation-count tables
weights     estimate a weight spectrum and emit weight,count CSV
roundtrip   encode/decode smoke run at one operating point

All randomness flows from the config's ``seed``: frame i draws its
message, coefficients, fading and noise from a stream derived from
(seed, 0, i), so results are reproducible and independent of how
frames are batched internally.
"""

from __future__ import annotations

import argparse
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

CSV_HEADER = ("scheme,n,N,k,t,r,L,channel,B,ebn0_db,seed,frames,"
              "frame_errors,bit_errors,fer,ber,wall_seconds")


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


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

CONFIG_KEYS = ("scheme", "n", "k", "t", "r", "list_size", "crc_poly", "crc_len",
               "channel", "fading_blocks", "design_snr", "ebn0_list", "seed",
               "max_frames", "target_errors", "encoder_variant", "pin_coefficients")

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


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    n: int
    k: int
    t: int
    r: int
    list_size: int
    crc_poly: int
    crc_len: int
    channel: str
    fading_blocks: int
    design_snr: float
    ebn0_list: tuple
    seed: int
    max_frames: int
    target_errors: int
    encoder_variant: str
    pin_coefficients: bool


def parse_config(path) -> SimConfig:
    raw: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = value.strip()
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValueError(f"config {path} is missing required key {key!r}")
    merged = dict(_CONFIG_DEFAULTS)
    merged.update(raw)
    ebn0 = tuple(float(tok) for tok in merged["ebn0_list"].split(",") if tok.strip())
    pin = merged["pin_coefficients"].lower()
    if pin not in ("true", "false", "0", "1"):
        raise ValueError(f"pin_coefficients must be boolean, got {pin!r}")
    for key, low in (("max_frames", 1), ("target_errors", 0), ("list_size", 1)):
        if int(merged[key], 0) < low:
            raise ValueError(f"config {path}: {key} must be >= {low}, got {merged[key]}")
    return SimConfig(
        scheme=merged["scheme"],
        n=int(merged["n"], 0),
        k=int(merged["k"], 0),
        t=int(merged["t"], 0),
        r=int(merged["r"], 0),
        list_size=int(merged["list_size"], 0),
        crc_poly=int(merged["crc_poly"], 0),
        crc_len=int(merged["crc_len"], 0),
        channel=merged["channel"],
        fading_blocks=int(merged["fading_blocks"], 0),
        design_snr=float(merged["design_snr"]),
        ebn0_list=ebn0,
        seed=int(merged["seed"], 0),
        max_frames=int(merged["max_frames"], 0),
        target_errors=int(merged["target_errors"], 0),
        encoder_variant=merged["encoder_variant"],
        pin_coefficients=pin in ("true", "1"),
    )


def spec_from_config(cfg: SimConfig) -> CodeSpec:
    """CodeSpec matching the config, with a placeholder frozen set."""
    return CodeSpec(
        scheme=cfg.scheme, n=cfg.n, k=cfg.k, t=cfg.t, r=cfg.r,
        p=cfg.crc_len, crc_poly=cfg.crc_poly,
        frozen_set=default_frozen_set(cfg.n, cfg.k, cfg.crc_len),
        design_snr=cfg.design_snr, encoder_variant=cfg.encoder_variant,
    )


def check_config_matches_spec(cfg: SimConfig, spec: CodeSpec) -> None:
    pairs = [
        ("scheme", cfg.scheme, spec.scheme), ("n", cfg.n, spec.n),
        ("k", cfg.k, spec.k), ("t", cfg.t, spec.t), ("r", cfg.r, spec.r),
        ("crc_len", cfg.crc_len, spec.p), ("crc_poly", cfg.crc_poly, spec.crc_poly),
        ("encoder_variant", cfg.encoder_variant, spec.encoder_variant),
    ]
    for name, a, b in pairs:
        if a != b:
            raise ValueError(f"spec/config mismatch on {name}: config {a!r} vs spec {b!r}")


# ---------------------------------------------------------------------------
# Frame-error simulation
# ---------------------------------------------------------------------------

def _frame_rng(seed: int, index: int):
    return np.random.default_rng(np.random.SeedSequence((int(seed), 0, int(index))))


def _chunk_size(spec: CodeSpec, list_size: int) -> int:
    per_frame = max(1, 2 * list_size) * spec.n * (1 << spec.t) // max(1, spec.t)
    return int(np.clip(4_000_000 // max(per_frame, 1), 8, 2048))


def simulate_point(spec: CodeSpec, ebn0_db: float, list_size: int, seed: int,
                   max_frames: int, target_errors: int, channel_kind: str = "awgn",
                   fading_blocks: int = 0, pin_coefficients: bool = False,
                   decoder_mode: str = "list") -> SimRecord:
    """Measure FER/BER at one operating point with the exact stop rule.

    Frames are processed in index order; the run stops at max_frames or
    right at the frame where the cumulative error count first reaches
    target_errors (a target of 0 disables the error stop), so emitted
    counts never depend on the internal batch size.
    """
    if max_frames < 1:
        raise ValueError(f"max_frames must be >= 1, got {max_frames}")
    t0 = time.perf_counter()
    tables = spec.field_tables()
    n2 = spec.n // spec.t
    cfg = _channel.ChannelConfig(kind=channel_kind, ebn0_db=ebn0_db,
                                 rate=spec.rate, fading_blocks=fading_blocks)
    pinned = None
    if pin_coefficients and spec.scheme == "hybrid" and spec.r > 1:
        pin_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1)))
        pinned = _encoder.draw_coefficients(n2, spec.r, tables, pin_rng)

    chunk = _chunk_size(spec, list_size)
    frames = frame_errors = bit_errors = 0
    crc_on = spec.p > 0
    while frames < max_frames:
        m = min(chunk, max_frames - frames)
        info = np.zeros((m, spec.k), dtype=np.int8)
        coeffs = np.zeros((m, max(spec.r - 1, 0), n2), dtype=np.int64)
        ys = np.zeros((m, spec.N))
        hs = np.zeros((m, spec.N))
        for j in range(m):
            rng = _frame_rng(seed, frames + j)
            info[j] = rng.integers(0, 2, size=spec.k, dtype=np.int8)
            if spec.scheme == "hybrid":
                if pinned is not None:
                    coeffs[j] = pinned
                elif spec.r > 1:
                    coeffs[j] = _encoder.draw_coefficients(n2, spec.r, tables, rng)
                cw = _encoder.encode_hybrid(info[j], spec, tables,
                                            coefficients=coeffs[j])
                x = _channel.bpsk_modulate(cw.symbols, spec.t)
            else:
                x = 1.0 - 2.0 * _encoder.encode_baseline(info[j], spec).symbols
            ys[j], hs[j] = _channel.transmit(x, cfg, rng)

        if spec.scheme == "hybrid":
            s_in = _channel.initial_llrs(ys, hs, cfg.sigma2, spec.t)
            s_inner = _decoder.combine_repetitions(s_in, coeffs, tables)
            out = _decoder.scl_decode_batch(spec, s_inner, list_size,
                                            crc_on=crc_on, mode=decoder_mode)
        else:
            llrs = (2.0 / cfg.sigma2) * hs * ys
            out = _decoder.baseline_decode_batch(spec, llrs, list_size,
                                                 crc_on=crc_on, mode=decoder_mode)
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


def run_sweep(spec: CodeSpec, cfg: SimConfig, decoder_mode: str = "list") -> list:
    records = []
    for ebn0 in cfg.ebn0_list:
        records.append(simulate_point(
            spec, ebn0, cfg.list_size, cfg.seed, cfg.max_frames,
            cfg.target_errors, channel_kind=cfg.channel,
            fading_blocks=cfg.fading_blocks,
            pin_coefficients=cfg.pin_coefficients,
            decoder_mode=decoder_mode,
        ))
    return records


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    cfg = parse_config(args.config)
    params = spec_from_config(cfg)
    spec = _codespec.construct_code(params, trials=args.trials, seed=cfg.seed)
    save_spec(spec, args.output)
    print(f"wrote {args.output} (|F| = {len(spec.frozen_set)})")
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    spec = load_spec(args.spec)
    check_config_matches_spec(cfg, spec)
    if not cfg.ebn0_list:
        raise ValueError("config has an empty ebn0_list")
    mode = "sc" if args.decoder == "sc" else "list"
    records = run_sweep(spec, cfg, decoder_mode=mode)
    csv_text = records_to_csv(records)
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
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run an FER sweep")
    p.add_argument("config")
    p.add_argument("--spec", required=True, help="constructed spec file")
    p.add_argument("-o", "--output", help="CSV output path (default stdout)")
    p.add_argument("--decoder", choices=("scl", "sc"), default="scl")
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
