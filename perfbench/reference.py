"""Committed reference outputs, and the check every run makes against them.

Each ``reference/<workload>.json`` holds the output summary of every case
in the workload's pool: the ``SimRecord`` frames, frame errors and bit
errors; the nonzero entries of the first-error count vector; or the
weight histogram.  Regenerate them (only when the program's outputs are
meant to change) with

    python3 perfbench/reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys

import workloads


def load(name: str) -> list:
    """The reference summaries of ``name``, indexed by case."""
    with open(workloads.reference_path(name)) as fh:
        cases = json.load(fh)["cases"]
    if len(cases) != workloads.CASES:
        raise ValueError(f"{name}: reference holds {len(cases)} cases, "
                         f"expected {workloads.CASES}")
    return cases


def mismatches(ops: list, cases: list) -> list:
    """Indices of the operations whose summary differs from the reference."""
    return [i for i, op in enumerate(ops) if op["summary"] != cases[op["case"]]]


def write(name: str, m) -> None:
    wl = workloads.WORKLOADS[name]
    spec = m.codespec.load_spec(workloads.SPECS / wl.spec_file)
    cases = [wl.summarize(wl.run(m, spec, case, False)) for case in range(workloads.CASES)]
    # One case per line keeps the file readable and its diffs small.
    body = ",\n".join(json.dumps(c, sort_keys=True) for c in cases)
    workloads.reference_path(name).parent.mkdir(exist_ok=True)
    workloads.reference_path(name).write_text(
        f'{{"workload": "{name}",\n "cases": [\n{body}\n]}}\n')
    print(f"wrote {workloads.reference_path(name)}")


def main(argv) -> int:
    import worker
    worker.pin_blas()
    m, _ = worker.import_package()
    for name in argv or workloads.WORKLOADS:
        write(name, m)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
