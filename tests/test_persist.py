import dataclasses
import errno
import json
import math

import numpy as np
import pytest

from labopt import persist
from labopt.baselines import ALGORITHM_RANDOM, BaselineConfig, run_baseline
from labopt.benchmarks import build_problem
from labopt.engine import IterationRecord, LabConfig, RunTrace, run, TERMINATION_MAX_ITERATIONS
from labopt.persist import (
    format_report_text,
    read_summary,
    read_trace,
    write_comparison,
    write_convergence,
    write_oracle,
    write_summary,
    write_trace,
)
from labopt.problem import Sense
from labopt.stats import pairwise_compare, summarize


def strip_timing(trace):
    return (
        trace.problem,
        trace.algorithm,
        trace.sense,
        trace.seed,
        tuple(
            (r.iteration, r.global_best, r.leaders, r.best_so_far)
            for r in trace.records
        ),
        trace.best_fitness,
        trace.best_position,
        trace.n_evaluations,
        trace.termination,
    )


def small_lab_trace(seed=0):
    problem = build_problem("F10")
    config = LabConfig(num_groups=2, group_size=3, max_iterations=6, seed=seed)
    return run(problem, config)


def test_trace_round_trip_preserves_every_double(tmp_path):
    trace = small_lab_trace()
    path = write_trace(trace, tmp_path / "t.csv")
    back = read_trace(path)
    assert strip_timing(back) == strip_timing(trace)
    assert back.runtime_seconds == 0.0


def test_trace_rewrite_is_byte_identical(tmp_path):
    trace = small_lab_trace(seed=7)
    p1 = write_trace(trace, tmp_path / "a.csv")
    p2 = write_trace(read_trace(p1), tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_baseline_trace_has_no_leader_columns(tmp_path):
    trace = run_baseline(
        build_problem("F25"),
        BaselineConfig(algorithm=ALGORITHM_RANDOM, budget=45, seed=2),
    )
    path = write_trace(trace, tmp_path / "rs.csv")
    header = [
        l for l in path.read_text().splitlines() if l.startswith("iteration,")
    ][0]
    assert header == "iteration,global_best,best_so_far"
    assert strip_timing(read_trace(path)) == strip_timing(trace)


def test_awkward_floats_survive(tmp_path):
    trace = RunTrace(
        problem="p",
        algorithm="alg",
        sense=Sense.MINIMIZE,
        seed=0,
        records=(
            IterationRecord(0, math.pi, (1e-308, -0.0), math.pi),
            IterationRecord(1, 2.0 / 3.0, (1.1e300, 5e-324), 2.0 / 3.0),
        ),
        best_fitness=2.0 / 3.0,
        best_position=(0.1 + 0.2, -1.0 / 3.0),
        n_evaluations=4,
        termination=TERMINATION_MAX_ITERATIONS,
    )
    back = read_trace(write_trace(trace, tmp_path / "x.csv"))
    assert back.best_position == trace.best_position
    assert back.records[0].leaders == (1e-308, -0.0)
    assert back.records[1].leaders == (1.1e300, 5e-324)
    assert back.best_fitness == 2.0 / 3.0


def test_read_trace_rejects_malformed_files(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("# problem=p\niteration,global_best,best_so_far\n0,1.0,1.0\n")
    with pytest.raises(ValueError, match="missing metadata"):
        read_trace(missing)
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("# problem=p\n0,1.0,1.0\n")
    with pytest.raises(ValueError, match="before header"):
        read_trace(headerless)


class DiskFullHalfway:
    """A text file whose write stores half of the text, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_the_earlier_file_and_leaves_no_partial_file(
    tmp_path, monkeypatch
):
    path = write_trace(small_lab_trace(seed=1), tmp_path / "run" / "trace.csv")
    before = path.read_bytes()
    later = small_lab_trace(seed=2)
    with monkeypatch.context() as m:
        m.setattr(persist, "open", lambda *a, **k: DiskFullHalfway(open(*a, **k)),
                  raising=False)
        for target in (path, tmp_path / "run" / "new.csv"):
            with pytest.raises(OSError):
                write_trace(later, target)
    with pytest.raises(UnicodeEncodeError):
        write_trace(dataclasses.replace(later, problem="F10\udc80"), path)
    assert path.read_bytes() == before
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["trace.csv"]


def test_summary_round_trip(tmp_path):
    traces = [small_lab_trace(seed=s) for s in (0, 1, 2)]
    summary = summarize(traces)
    back = read_summary(write_summary(summary, tmp_path / "s.json"))
    assert back == summary
    raw = json.loads((tmp_path / "s.json").read_text())
    assert raw["num_runs"] == 3
    assert raw["sense"] == "min"
    assert len(raw["finals"]) == 3


def test_convergence_table_pads_short_runs(tmp_path):
    def fake(seed, series):
        return RunTrace(
            problem="p",
            algorithm="alg",
            sense=Sense.MINIMIZE,
            seed=seed,
            records=tuple(
                IterationRecord(i, v, (), v) for i, v in enumerate(series)
            ),
            best_fitness=series[-1],
            best_position=(0.0,),
            n_evaluations=len(series),
            termination=TERMINATION_MAX_ITERATIONS,
        )

    path = write_convergence(
        [fake(0, [3.0, 2.0, 1.0]), fake(1, [5.0, 4.0])], tmp_path / "c.csv"
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,seed0,seed1,median,q25,q75"
    assert len(lines) == 4
    last = lines[3].split(",")
    assert last[0] == "2"
    assert float(last[1]) == 1.0
    assert float(last[2]) == 4.0  # carried forward
    assert float(last[3]) == 2.5
    assert float(last[4]) == pytest.approx(1.75)
    assert float(last[5]) == pytest.approx(3.25)
    with pytest.raises(ValueError):
        write_convergence([], tmp_path / "empty.csv")


def test_convergence_stats_equal_per_row_numpy_calls(tmp_path):
    # the stats columns are computed for all rows at once; each must be
    # bit-equal to np.median / np.quantile of that row alone
    rng = np.random.default_rng(21)
    for trial in range(40):
        runs = int(rng.integers(1, 9))
        traces = []
        for seed in range(runs):
            n = int(rng.integers(1, 30))
            values = np.round(rng.normal(size=n), int(rng.integers(0, 4)))
            traces.append(
                RunTrace(
                    problem="p",
                    algorithm="alg",
                    sense=Sense.MINIMIZE,
                    seed=seed,
                    records=tuple(
                        IterationRecord(i, v, (), v)
                        for i, v in enumerate(values.tolist())
                    ),
                    best_fitness=float(values[-1]),
                    best_position=(0.0,),
                    n_evaluations=n,
                    termination=TERMINATION_MAX_ITERATIONS,
                )
            )
        path = write_convergence(traces, tmp_path / f"c{trial}.csv")
        for line in path.read_text().splitlines()[1:]:
            cells = [float(v) for v in line.split(",")[1:]]
            col = np.array(cells[:runs])
            assert cells[runs:] == [
                float(np.median(col)),
                float(np.quantile(col, 0.25)),
                float(np.quantile(col, 0.75)),
            ]


def comparison_report():
    rng = np.random.default_rng(3)
    summaries = []
    for p in ("p1", "p2"):
        base = rng.normal(size=8)
        for algo, shift in (("good", -1.0), ("bad", 0.0)):
            finals = tuple(float(v) for v in base + shift)
            summaries.append(
                summarize(
                    [
                        RunTrace(
                            problem=p,
                            algorithm=algo,
                            sense=Sense.MINIMIZE,
                            seed=i,
                            records=(IterationRecord(0, f, (), f),),
                            best_fitness=f,
                            best_position=(0.0,),
                            n_evaluations=10,
                            termination=TERMINATION_MAX_ITERATIONS,
                            runtime_seconds=0.1,
                        )
                        for i, f in enumerate(finals)
                    ]
                )
            )
    return pairwise_compare(summaries)


def test_comparison_artifacts(tmp_path):
    report = comparison_report()
    paths = write_comparison(report, tmp_path / "cmp")
    assert set(paths) == {"report_json", "per_problem_csv", "pairwise_csv", "report_txt"}
    for p in paths.values():
        assert p.exists()

    data = json.loads(paths["report_json"].read_text())
    assert data["algorithms"] == ["good", "bad"]
    assert data["pairwise"][0]["wins_a"] == 2

    text = paths["report_txt"].read_text()
    assert "(+/-/=)" in text
    assert "good vs bad: 2/0/0" in text
    assert format_report_text(report) == text

    per_lines = paths["per_problem_csv"].read_text().splitlines()
    assert per_lines[0].startswith("problem,algo_a,algo_b,")
    assert len(per_lines) == 3
    pair_lines = paths["pairwise_csv"].read_text().splitlines()
    assert len(pair_lines) == 2


def test_oracle_payload_round_trips(tmp_path):
    payload = {
        "key": "edm:MRR",
        "sense": "max",
        "points_per_axis": 51,
        "best_value": 201.3714,
        "best_point": [12.5, 45.0, 132.0, 40.0],
    }
    path = write_oracle(payload, tmp_path / "oracle.json")
    assert json.loads(path.read_text()) == payload
