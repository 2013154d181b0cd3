"""The names ``perfbench/tracer.py`` wraps, checked on the live package.

A traced benchmark run differs from an untraced one only in that the
tracer wraps named functions, so a renamed or deleted function silently
drops the metrics ``BENCHMARK.json`` reports from the traced result.
"""
import json
import math
import sys
from pathlib import Path

from labopt import cli

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


def test_every_function_behind_a_reported_metric_is_there_to_trace(tmp_path, capsys):
    reported = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    traced = tracer.Tracer()
    traced.install()
    try:
        for argv in (
            ["run", "--problem", "edm:MRR", "--iters", "3", "--runs", "2"],
            ["run", "--problem", "edm:MRR", "--algo", "sa", "--budget", "40", "--runs", "2"],
            ["compare", str(tmp_path)],
            ["oracle", "--problem", "edm:MRR", "--points", "3"],
        ):
            out = [] if argv[0] == "compare" else ["--out", str(tmp_path)]
            assert cli.main([*argv, *out]) == 0, argv
    finally:
        traced.uninstall()
    # Today only the engine's proposal and ranking phases are absent, and
    # BENCHMARK.json reports no metric of theirs.
    metrics = tracer.layer_metrics(traced.dump()["stats"], traced.absent)
    lost = [name for name, value, _, _ in metrics
            if name in reported and isinstance(value, tracer.Absent)]
    assert lost == [], traced.absent
    values = {name: value for name, value, _, _ in metrics if name in reported}
    assert set(values) == {n for n in reported if not n.startswith(("process.", "trace."))}
    assert all(v is None or math.isfinite(v) for v in values.values()), values
    json.dumps(values, allow_nan=False)  # the result line is strict JSON
