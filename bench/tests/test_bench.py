"""Self-tests of the benchmark: span arithmetic, output checks, smoke runs.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def span(name, start, end, parent=None, thread=1):
    s = Span(name, start, parent, None, thread, 0)
    s.end = end
    return s


def test_self_times_of_a_nested_tree():
    root = span("root", 0.0, 10.0)
    a = span("a", 1.0, 4.0, root)
    b = span("b", 5.0, 9.0, root)
    leaf = span("leaf", 6.0, 7.0, b)
    own = tracer.self_times([root, a, b, leaf])
    assert own[root] == pytest.approx(3.0)
    assert own[a] == pytest.approx(3.0)
    assert own[b] == pytest.approx(3.0)
    assert own[leaf] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_children_on_two_threads_count_their_union_once():
    root = span("root", 0.0, 10.0, thread=1)
    w1 = span("w", 1.0, 6.0, root, thread=2)
    w2 = span("w", 2.0, 8.0, root, thread=3)
    own = tracer.self_times([root, w1, w2])
    assert own[root] == pytest.approx(3.0)
    assert own[w1] + own[w2] == pytest.approx(11.0)


def test_a_child_outside_its_parent_is_rejected():
    root = span("root", 0.0, 5.0)
    late = span("late", 4.0, 6.0, root)
    with pytest.raises(tracer.TraceError):
        tracer.self_times([root, late])


def test_worker_threads_keep_their_own_stacks():
    rec = tracer.Tracer()
    outer = rec.open("outer")
    barrier = threading.Barrier(2)

    def work():
        s = rec.open("worker")
        barrier.wait(timeout=5)
        inner = rec.open("inner")
        rec.close(inner)
        rec.close(s)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    rec.close(outer)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    assert all(s.parent is outer for s in by_name["worker"])
    assert {s.parent for s in by_name["inner"]} == set(by_name["worker"])
    own = tracer.self_times(rec.spans)
    assert all(v >= 0 for v in own.values())


def test_installer_wraps_every_binding_and_restores_it():
    from dropfed import cli, harness

    original = harness.build_schedule
    installer = tracer.Installer()
    rec = tracer.Tracer()
    installer.install(rec, tracer.SETUP)
    try:
        assert cli.build_schedule is harness.build_schedule
        assert harness.build_schedule is not original
        cfg = harness.ExperimentConfig(clients=3, iterations=4)
        cli.build_schedule(cfg, 5)
    finally:
        installer.uninstall()
    assert cli.build_schedule is harness.build_schedule is original
    assert [(s.name, s.trial) for s in rec.spans] == [("harness.build_schedule", 5)]


REFERENCE_CSV = BENCH / "references" / "logistic_wide" / "mimic_static_seed1.csv"


def _perturbed_copy(tmp_path, column, row, change):
    cols = outcheck.read_csv(REFERENCE_CSV)
    cols[column][row] = change(cols[column][row])
    path = tmp_path / REFERENCE_CSV.name
    names = list(cols)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for j in range(len(cols["t"])):
            fh.write(",".join(cols[c][j] for c in names) + "\n")
    return path


def test_output_check_accepts_an_identical_copy(tmp_path):
    copy = tmp_path / REFERENCE_CSV.name
    shutil.copyfile(REFERENCE_CSV, copy)
    assert outcheck.compare_csv(copy, REFERENCE_CSV) == []


def test_output_check_accepts_an_ulp_move(tmp_path):
    path = _perturbed_copy(
        tmp_path, "loss", 7, lambda v: repr(float(np.nextafter(float(v), math.inf)))
    )
    assert outcheck.compare_csv(path, REFERENCE_CSV) == []


@pytest.mark.parametrize(
    "column, change",
    [
        ("loss", lambda v: repr(float(v) * (1 + 1e-6))),
        ("E_t", lambda v: repr(float(v) * (1 + 1e-7))),
        ("n_active", lambda v: str(int(v) + 1)),
    ],
)
def test_output_check_rejects_one_perturbed_value(tmp_path, column, change):
    path = _perturbed_copy(tmp_path, column, 7, change)
    problems = outcheck.compare_csv(path, REFERENCE_CSV)
    assert len(problems) == 1 and f"{column}[7]" in problems[0]


def test_report_check_rejects_a_changed_count():
    text = (BENCH / "references" / "audit_scale" / "audit.txt").read_text()
    assert outcheck.compare_report(text, text, "audit") == []
    changed = text.replace("growth_failures = 0", "growth_failures = 1")
    assert outcheck.compare_report(changed, text, "audit")


BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
