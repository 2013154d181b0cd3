"""Tests of the benchmark itself: metric naming, tracing, golden digests."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, tracer, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _all_metrics():
    rows = [(name, unit) for name, unit in run.END_TO_END]
    rows += [(name, unit) for name, unit, _, _ in tracer.PER_LAYER]
    rows += [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    rows += list(tracer.PROCESS_METRICS)
    return rows


def test_metric_names_are_well_formed_and_have_units():
    rows = _all_metrics()
    names = [name for name, _ in rows]
    assert len(names) == len(set(names))
    for name, unit in rows:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = [(name, unit) for name, unit, json_, _ in tracer.PER_LAYER if json_]
    reported += [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    reported += list(tracer.PROCESS_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == reported
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def _fake_labopt():
    calls = []

    def present(x):
        calls.append(x)
        return x * 2

    module = types.SimpleNamespace(present=present)
    targets = (
        tracer.Target("fake.present", "engine", "present", ("fake",), span=True),
        tracer.Target("fake.gone", "engine", "gone", ("fake",)),
        tracer.Target("fake.module_gone", "engine", "x", ("nowhere",)),
    )
    return module, targets, calls


def test_missing_wrapped_function_is_absent_not_a_crash():
    module, targets, calls = _fake_labopt()
    t = tracer.Tracer()
    t.install(targets, resolve=lambda owner: module if owner == "fake" else None)
    try:
        assert module.present(3) == 6
    finally:
        t.uninstall()
    assert module.present.__name__ == "present"
    assert calls == [3]
    assert t.absent == ["fake.gone", "fake.module_gone"]
    dump = t.dump()
    assert dump["stats"]["fake.present"]["calls"] == 1

    # A real metric whose target is absent reads as absent, others still evaluate.
    values = {
        name: value
        for name, value, _, _ in tracer.layer_metrics({}, ["engine.run", "problem.evaluate"])
    }
    assert isinstance(values["engine.run.calls"], tracer.Absent)
    assert isinstance(values["engine.self_us_per_eval"], tracer.Absent)
    assert isinstance(values["problem.evaluate.busy_s"], tracer.Absent)
    assert values["machining.get.calls"] == 0


def test_self_time_excludes_nested_layers_but_keeps_parts():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace()
    ns.leaf = lambda: None
    ns.phase = lambda: ns.leaf()
    ns.outer = lambda: ns.phase()
    t.install(
        (
            tracer.Target("outer", "engine", "outer", ("ns",), span=True),
            tracer.Target("phase", "engine", "phase", ("ns",), part=True),
            tracer.Target("leaf", "problem", "leaf", ("ns",)),
        ),
        resolve=lambda owner: ns,
    )
    try:
        ns.outer()  # clock: outer 0, phase 1, leaf 2..3, phase ends 4, outer ends 5
    finally:
        t.uninstall()
    stats = t.dump()["stats"]
    assert stats["leaf"]["busy"] == 1 and stats["leaf"]["self"] == 1
    assert stats["phase"]["busy"] == 3
    assert stats["outer"]["busy"] == 5 and stats["outer"]["self"] == 4
    assert tracer.layer_self(stats) == {**dict.fromkeys(tracer.LAYERS, 0.0),
                                        "engine": 4.0, "problem": 1.0}


def test_merge_flags_counts_that_do_not_repeat():
    def dump(calls, written):
        stat = {"layer": "persist", "part": False, "calls": calls, "busy": 1.0,
                "self": 1.0, "extra": {"bytes": written}, "durations": [0.1]}
        return {"stats": {"persist.write_trace": stat}, "absent": [], "spans": []}

    merged, absent, unsteady = run.merge_traces([dump(2, 100), dump(2, 101)])
    assert unsteady == [] and absent == []
    assert merged["persist.write_trace"]["durations"] == [0.1, 0.1]
    _, _, unsteady = run.merge_traces([dump(2, 100), dump(3, 100)])
    assert unsteady == ["persist.write_trace.calls"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracer.tail([1.0] * 19) is None
    assert tracer.tail([float(i) for i in range(100)]) == (90.0, 89.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reproduces_golden_digest_untraced_and_traced(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(matches golden)" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab-study", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
