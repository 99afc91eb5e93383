"""Codec benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload fer_gf16_awgn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is a closed loop with one caller, in one worker process
with BLAS pinned to one thread.  Operation i draws its input case from
the stream (seed, i) and makes one public call (``cli.simulate_point``,
``codespec.first_error_counts`` or ``analysis.enumerate_low_weight``) on
a code read with ``codespec.load_spec``.  Every output is compared with
the committed reference; if any differs, every operation of the run
counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up is
measured in ``SETUP_RUNS`` fresh processes and reported as their median.
With ``--trace 1`` it spends half of ``--seconds`` untraced and half
with every layer wrapped by the tracer, and reports the per-layer
metrics, the tracing overhead, and whether both halves gave identical
outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the same metrics for people, with the environment.  Details
(every operation's time, the environment) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"frames_per_s_p90": "1/s", "op_s_p90": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# Printed and kept in the details, but not bounded: on a shared host they
# follow how long the host spent in its slow phases during the run.
UNBOUNDED_UNITS = {"frames_per_s": "1/s", "op_s_p50": "s"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last == "bytes":
        return "B"
    if last.endswith("_share"):
        return "share"
    if last.endswith("_per_s"):
        return "1/s"
    return "count"


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds),
           str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())], stdout=subprocess.PIPE,
                              cwd=ROOT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def frames_per_s(wl, ops: list) -> float:
    """Frames decoded per second over all timed operations."""
    return wl.frames_per_op * len(ops) / sum(op["seconds"] for op in ops)


def check(name: str, reports: list) -> bool:
    cases = reference.load(name)
    return all(not reference.mismatches(r["ops"], cases) for r in reports)


def run_untraced(wl, seed: int, seconds: float, deadline: float) -> tuple:
    """(metrics, worker reports, details, outputs identical across reports)"""
    setups = [spawn(wl.name, seed, 0, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    report = spawn(wl.name, seed, seconds, 0, deadline)
    setups.append(report["setup_s"])
    times = [op["seconds"] for op in report["ops"]]
    op_s_p90 = p90(times)
    metrics = {"frames_per_s_p90": wl.frames_per_op / op_s_p90,
               "op_s_p90": op_s_p90,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": report["peak_rss_mb"]}
    unbounded = {"frames_per_s": frames_per_s(wl, report["ops"]),
                 "op_s_p50": statistics.median(times)}
    details = {"setup_s_samples": setups, "unbounded": unbounded, **report}
    return metrics, [report], details, True


def run_traced(wl, seed: int, seconds: float, deadline: float) -> tuple:
    plain = spawn(wl.name, seed, seconds / 2, 0, deadline)
    traced = spawn(wl.name, seed, seconds / 2, 1, deadline)
    metrics = dict(traced["layers"])
    plain_rate = frames_per_s(wl, plain["ops"])
    traced_rate = frames_per_s(wl, traced["ops"])
    metrics["trace.untraced_frames_per_s"] = plain_rate
    metrics["trace.traced_frames_per_s"] = traced_rate
    metrics["trace.overhead_frames_per_s"] = plain_rate - traced_rate
    metrics["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate
    # Same seed, so both halves run the same cases in the same order.
    common = min(len(plain["ops"]), len(traced["ops"]))
    identical = all(plain["ops"][i]["summary"] == traced["ops"][i]["summary"]
                    for i in range(common))
    if not identical:
        print("tracing changed the outputs", file=sys.stderr)
    if not 0.95 <= metrics["trace.self_sum_share"] <= 1.05:
        print(f"warning: traced self times cover {metrics['trace.self_sum_share']:.3f} "
              f"of the loop wall time", file=sys.stderr)
    details = {"untraced": plain, "traced": traced, "outputs_identical": identical}
    return metrics, [plain, traced], details, identical


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    run = run_traced if trace else run_untraced
    metrics, reports, details, identical = run(wl, seed, seconds, deadline)
    correct = identical and check(name, reports)
    attempted = sum(len(r["ops"]) for r in reports)
    env = {"python": platform.python_version(), **reports[-1]["env"],
           "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}

    print(f"# {name}: seed {seed}, {seconds:g} s, trace {trace}, {attempted} operations "
          f"of {wl.frames_per_op} {wl.work_unit}, outputs "
          f"{'match' if correct else 'DIFFER FROM'} the reference")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    units = END_TO_END_UNITS if not trace else {k: layer_unit(k) for k in metrics}
    for key, value in metrics.items():
        alias = ""
        if key.startswith("frames_per_s") and wl.work_unit != "frames":
            alias = f"  ({wl.work_unit}{key[6:]})"
        print(f"{key:<44} {value:>14.6g} {units[key]}{alias}")
    for key, value in details.get("unbounded", {}).items():
        print(f"{key:<44} {value:>14.6g} {UNBOUNDED_UNITS[key]}  (no bound)")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "correct": correct, "env": env, "metrics": metrics, "details": details}))
    return {"correct": correct, "attempted": attempted,
            "failed": 0 if correct else attempted,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hybridpolar" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'hybridpolar'}", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
