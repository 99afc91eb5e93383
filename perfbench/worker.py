"""One benchmark process: set up, warm up, run the closed loop, report.

``run.py`` starts it as

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

SPAWNED_AT is ``time.monotonic()`` in the parent right before the spawn.
That clock is system-wide, so the reported set-up time runs from before
interpreter start to the first timed call: imports, ``load_spec``, the
field tables and the warm-up call.  The last line of standard output is
one JSON object with the set-up time, every timed operation (case,
seconds, output summary), peak memory and, with TRACE = 1, the
per-layer metrics; the spans themselves go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread; only effective before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> tuple:
    """The package from this checkout's ``src``: (namespace, all its modules)."""
    sys.path.insert(0, str(ROOT / "src"))
    import hybridpolar
    from hybridpolar import analysis, channel, cli, codespec, decoder, encoder, galois
    modules = (hybridpolar, analysis, channel, cli, codespec, decoder, encoder, galois)
    return SimpleNamespace(cli=cli, codespec=codespec, analysis=analysis), modules


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pin_blas()
    m, modules = import_package()
    import layers
    import workloads
    from tracer import Tracer, install
    imported_at = time.monotonic()
    wl = workloads.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    restore = install(tracer, modules, layers.LAYERS) if tracer else None
    setup_span = tracer.begin(layers.SETUP) if tracer else None
    spec = m.codespec.load_spec(workloads.SPECS / wl.spec_file)
    spec.field_tables()
    warm_start = time.perf_counter()
    wl.run(m, spec, workloads.case_for(args.seed, 0), True)
    warmup_s = time.perf_counter() - warm_start
    if tracer:
        tracer.end(setup_span)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "import_s": imported_at - args.spawned_at, "warmup_s": warmup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer:
        tracer.counters.clear()
    ops = []
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while True:
        case = workloads.case_for(args.seed, len(ops))
        start = time.perf_counter()
        try:
            if tracer:
                out = tracer.call(layers.OP, wl.run, m, spec, case, False)
            else:
                out = wl.run(m, spec, case, False)
            summary = wl.summarize(out)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            summary = None
        ops.append({"case": case, "seconds": time.perf_counter() - start, "summary": summary})
        if time.perf_counter() >= deadline:
            break
    loop_wall_s = time.perf_counter() - loop_start

    result.update(ops=ops, loop_wall_s=loop_wall_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  env=environment())
    if tracer:
        restore()
        result["layers"] = layers.per_layer_metrics(tracer, tracer.counters, len(ops),
                                                    loop_wall_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_json()))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
