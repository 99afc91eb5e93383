"""Tests of the benchmark itself: tracer arithmetic, the reference check,
and a one-operation smoke run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def at(t):
        clock.now = t

    outer = tr.begin("outer")            # 0 .. 10
    at(1); a = tr.begin("a")             # 1 .. 4
    at(2); g = tr.begin("leaf")          # 2 .. 3
    at(3); tr.end(g)
    at(4); tr.end(a)
    at(5); b = tr.begin("leaf")          # 5 .. 9
    at(9); tr.end(b)
    at(10); tr.end(outer)
    times = tr.self_times()
    assert times == {"outer": (3.0, 1), "a": (2.0, 1), "leaf": (5.0, 2)}
    assert sum(s for s, _ in times.values()) == 10.0
    assert tr.self_times({a}) == {"a": (2.0, 1), "leaf": (1.0, 1)}


def test_spans_must_close_in_order():
    tr = Tracer()
    first = tr.begin("first")
    tr.begin("second")
    with pytest.raises(RuntimeError):
        tr.end(first)


def test_install_wraps_every_name_bound_to_the_function():
    home = types.ModuleType("pkg.home")
    user = types.ModuleType("pkg.user")

    def kernel(x):
        return 2 * x

    home.kernel = kernel
    user.kernel = kernel        # as after "from .home import kernel"
    user.run = lambda x: user.kernel(x) + 1
    seen = []
    tr = Tracer()
    restore = install(tr, [home, user], {
        "home.kernel": lambda counters, args, kwargs, out: seen.append((args, out))})
    assert user.run(3) == 7 and home.kernel(1) == 2
    assert [s[0] for s in tr.spans] == ["home.kernel", "home.kernel"]
    assert seen == [((3,), 6), ((1,), 2)]
    restore()
    assert home.kernel is kernel and user.kernel is kernel


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_check_catches_a_corrupted_record(name):
    cases = reference.load(name)
    ops = [{"case": c, "seconds": 1.0, "summary": cases[c]} for c in (3, 0, 3)]
    assert reference.mismatches(ops, cases) == []
    bad = json.loads(json.dumps(ops))
    summary = bad[1]["summary"]
    if isinstance(summary, list):
        summary[1] += 1                  # one more frame error
    else:
        key = next(iter(summary))
        summary[key] += 1
    assert reference.mismatches(bad, cases) == [1]


def test_cases_are_drawn_from_the_seed():
    first = [workloads.case_for(1, i) for i in range(20)]
    assert first == [workloads.case_for(1, i) for i in range(20)]
    assert first != [workloads.case_for(2, i) for i in range(20)]
    assert all(0 <= c < workloads.CASES for c in first)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, trace, capsys):
    result = run.run_one(name, seed=7, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.95 <= values["trace.self_sum_share"] <= 1.05
        if name.startswith("fer_baseline"):
            assert values["decoder.stage2_plus.ops"] == 0
        else:
            assert values["decoder.stage2_plus.ops"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "construct_gf4", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
