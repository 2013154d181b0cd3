import dataclasses
import errno
import hashlib
import json
import math
import re

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
from labopt.problem import ConfigError, Sense
from labopt.stats import pairwise_compare, summarize


def small_lab_trace(seed=0):
    problem = build_problem("F10")
    config = LabConfig(num_groups=2, group_size=3, max_iterations=6, seed=seed)
    return run(problem, config)


def test_trace_round_trip_preserves_every_double(tmp_path):
    trace = small_lab_trace()
    path = write_trace(trace, tmp_path / "t.csv")
    back = read_trace(path)
    assert back == trace
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
    assert read_trace(path) == trace


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
            message = f"{target}: cannot be written (No space left on device)"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
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


def series_trace(seed, series, sense=Sense.MINIMIZE):
    """A hand-built run whose rows hold ``series`` as their best-so-far."""
    return RunTrace(
        problem="p",
        algorithm="alg",
        sense=sense,
        seed=seed,
        records=tuple(IterationRecord(i, v, (), v) for i, v in enumerate(series)),
        best_fitness=series[-1],
        best_position=(0.0,),
        n_evaluations=len(series),
        termination=TERMINATION_MAX_ITERATIONS,
    )


def test_convergence_table_pads_short_runs(tmp_path):
    path = write_convergence(
        [series_trace(0, [3.0, 2.0, 1.0]), series_trace(1, [5.0, 4.0])],
        tmp_path / "c.csv",
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


def fixed_summary(problem, algorithm, sense, finals):
    """``summarize`` over hand-built runs with a fixed runtime each."""
    return summarize(
        [
            RunTrace(
                problem=problem,
                algorithm=algorithm,
                sense=sense,
                seed=i,
                records=(IterationRecord(0, f, (), f),),
                best_fitness=f,
                best_position=(0.0,),
                n_evaluations=10 + i,
                termination=TERMINATION_MAX_ITERATIONS,
                runtime_seconds=0.25 * (i + 1),
            )
            for i, f in enumerate(finals)
        ]
    )


def pinned_summaries():
    """Three algorithms on a minimize and a maximize problem, 14 runs each.

    Per problem, the pairs cover the degenerate, exact and normal
    branches and all three verdicts; magnitudes are rounded so that
    ranks tie.
    """
    rng = np.random.default_rng(11)
    base = np.round(rng.normal(size=14), 1)
    near = base.copy()
    near[:3] += 0.3  # three nonzero differences: degenerate
    partial = base.copy()
    partial[:10] -= np.round(rng.uniform(0.1, 0.9, 10), 1)  # ten: exact
    finals = {
        ("pmin", Sense.MINIMIZE): {"a": base - 0.5, "b": base, "c": near},
        ("pmax", Sense.MAXIMIZE): {"a": base, "b": partial, "c": base + 0.5},
    }
    return [
        fixed_summary(problem, algo, sense, tuple(float(v) for v in values))
        for (problem, sense), by_algo in finals.items()
        for algo, values in by_algo.items()
    ]


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of every comparison file, frozen before the harness was
# simplified; any change to a test's numbers, the verdict tally, the
# order of problems or pairs, or a file's layout shows up here.
COMPARISON_SHA256 = {
    False: {
        "report_json": "0d9f641fe16669198dc5313025a3f667d12512d914a448cd79f1917726925a40",
        "per_problem_csv": "600e1a901a679872b1c6b83db2719d5e0c8b9dbe346a062b3abca69bda85f753",
        "pairwise_csv": "48e54c62fcc04920606a1ec1d2c46918525d013a8d737aaed12f1a7b77c191d1",
        "report_txt": "c867a81c66f1f198e19d60bada6f196f32f6b73461f890bbd53927cafb5d5adb",
    },
    True: {
        "report_json": "8d8beaca2b910d61807b22603861423c47e786be450ecca5846bc8cc589c8d7e",
        "per_problem_csv": "600e1a901a679872b1c6b83db2719d5e0c8b9dbe346a062b3abca69bda85f753",
        "pairwise_csv": "c513db422a5b263d7148bb934da9af76f4421607dff51ef84753acfd967bb6f2",
        "report_txt": "c26d71311ba62641d8a8825ee0887cb507821677992c4417e9b873e6475a491c",
    },
}


@pytest.mark.parametrize("use_raw_pairs", [False, True], ids=["means", "raw-pairs"])
def test_comparison_bytes_are_frozen(tmp_path, use_raw_pairs):
    report = pairwise_compare(pinned_summaries(), use_raw_pairs=use_raw_pairs)
    assert {t.result.method for t in report.per_problem} == {
        "degenerate", "exact", "normal"
    }
    assert {t.result.verdict for t in report.per_problem} == {"less", "greater", "equal"}
    paths = write_comparison(report, tmp_path)
    assert {name: sha256_of(p) for name, p in paths.items()} == COMPARISON_SHA256[
        use_raw_pairs
    ]


SUMMARY_SHA256 = [
    "dcb11e4216c63996a375831c0e5b24b1905d36ba556a14c8a84da98966e8f532",
    "8cb11c44b97f8aeb58edca44e78f4ec752917f2ce1bb558a4877df0249526516",
    "9b357822e1018967b0316af6d2fed4a9062c83abd9f62045d285e33905666296",
    "0b33951f8dcb7b73666600572142876c9d84f4936ceab27ef073fd58b0cdeb8b",
    "db86c5d871ecf84e979aaf46d2c4411e36d4642ac78e0edb63270413ea77919c",
    "cb701ba89aa10b9380210df6c3559c2c7c5b6bc1f4983835817ddf24ebb07123",
    "67588fb174027fd538b309c6aa24f0f5f79a1ee65b0ed7d1b202f775d9495c1d",
    "aae45e3040d505e577eba32051ab2d8bab79354889b1fc512fb067b5e8adb4f7",
]


def test_summary_bytes_are_frozen(tmp_path):
    # Signed zeros tie: the best final is the first of them in either sense.
    summaries = pinned_summaries() + [
        fixed_summary("zmin", "a", Sense.MINIMIZE, (1.0, -0.0, 0.0)),
        fixed_summary("zmax", "a", Sense.MAXIMIZE, (-1.0, 0.0, -0.0)),
    ]
    digests = [
        sha256_of(write_summary(s, tmp_path / f"{s.problem}_{s.algorithm}.json"))
        for s in summaries
    ]
    assert digests == SUMMARY_SHA256


# sha256 of convergence.csv for hand-built runs, frozen before the
# writer converted its table at once: runs of unequal length (padded),
# ties, signed zeros and values whose repr needs 17 digits, in a
# minimize and a maximize table.
CONVERGENCE_RUNS = {
    Sense.MINIMIZE: [
        [3.0, 2.0, 0.1 + 0.2, -0.0],
        [5.0, 4.0],
        [3.0, 2.0, 2.0, 0.0, 0.0],
        [1.0000000000000002, 1.0000000000000002, 1 / 3],
    ],
    Sense.MAXIMIZE: [
        [-1.0, 0.5, 0.5, 1.0000000000000002],
        [-2.0, -0.0],
        [-1.0, 0.1 + 0.7, 2 / 3, 2 / 3, 2 / 3, 7.0],
        [-3.0, -0.0, -0.0],
    ],
}
CONVERGENCE_SHA256 = {
    Sense.MINIMIZE: "f6a40bfdb4234dcf2413c21b301aa2a7542fcb6d5609b3b5d5e6a1d4a22f95b4",
    Sense.MAXIMIZE: "8428c90b2143787c1e649017876369963d69a8844aac2f921cea36e1d8fee86b",
}


@pytest.mark.parametrize("sense", list(Sense), ids=lambda s: s.value)
def test_convergence_bytes_are_frozen(tmp_path, sense):
    traces = [
        series_trace(seed, series, sense)
        for seed, series in enumerate(CONVERGENCE_RUNS[sense])
    ]
    path = write_convergence(traces, tmp_path / "convergence.csv")
    assert sha256_of(path) == CONVERGENCE_SHA256[sense]
