"""The verdicts of ``bench/pairs.py``, the parent-versus-change measurement,
and the equality gate of ``bench/one_seed.py``'s in-process pairs."""
import dataclasses
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from labopt import baselines, benchmarks, cli, engine, machining
from perfbench.workloads import WORKLOADS

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("bench_pairs", _BENCH / "pairs.py")
sys.modules.setdefault("pairs", pairs)  # one_seed.py imports it from bench/
one_seed = _load("bench_one_seed", _BENCH / "one_seed.py")

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}


def _side(wall, exit=0, correct=True, failed=0, metric="wall_s"):
    metrics = {} if wall is None else {metric: wall}
    return {"exit": exit, "correct": correct, "failed": failed, "metrics": metrics}


def _runs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_ten_clean_wins_are_a_gain():
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)],
                 [_side(1.5 + 0.01 * i) for i in range(10)])
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "10/10"
    assert verdict["verdict"] == "gain"


def test_ten_clean_wins_below_a_tenth_of_the_bound_are_not_a_gain():
    # A change that moved no memory read baselines-oracle's peak RSS
    # 40.594 -> 40.566 MB in 10 of 10 pairs, against a parent IQR of
    # 0.006 MB: a gap above the IQR, but 0.07% against a 5% bound.
    spread = [-0.005, -0.004, -0.003, -0.003, -0.001, 0.001, 0.003, 0.003, 0.004, 0.005]
    runs = _runs([_side(40.594 + d, metric="peak_rss_mb") for d in spread],
                 [_side(40.566 + d, metric="peak_rss_mb") for d in spread])
    verdict = pairs.verdicts(runs, [RSS])["peak_rss_mb"]
    assert verdict["wins"] == "10/10"
    assert verdict["parent"]["median"] == pytest.approx(40.594)
    assert verdict["parent"]["iqr"] == pytest.approx(0.006)
    assert verdict["change"]["median"] == pytest.approx(40.566)
    assert verdict["verdict"] == "within bound"


def test_five_clean_wins_are_not_a_gain():
    # Five pairs cannot tell a gain from the machine's drift, however clean.
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(5)],
                 [_side(1.5 + 0.01 * i) for i in range(5)])
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "5/5"
    assert verdict["change_sound"]
    assert verdict["verdict"] == "within bound"


def test_a_crashed_change_run_counts_as_a_lost_pair_and_blocks_a_gain():
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(None, exit=1, correct=False)]
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)], change)
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "9/10"
    assert len(verdict["change"]["values"]) == 9
    assert not verdict["change_sound"]
    assert verdict["verdict"] != "gain"


@pytest.mark.parametrize(
    "bad",
    [dict(correct=False), dict(exit=2), dict(failed=1)],
    ids=["wrong digest", "non-zero exit", "more failed operations"],
)
def test_an_unsound_change_run_is_never_a_gain(bad):
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(1.6, **bad)]
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)], change)
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "10/10"
    assert verdict["verdict"] != "gain"


def test_a_failed_parent_operation_does_not_block_the_change():
    parent = [_side(2.0 + 0.01 * i) for i in range(9)] + [_side(2.1, failed=1)]
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(1.6, failed=1)]
    verdict = pairs.verdicts(_runs(parent, change), [WALL])["wall_s"]
    assert verdict["verdict"] == "gain"


# --- bench/one_seed.py's equality gate ---------------------------------------

MODULES = (engine, machining, benchmarks, baselines, cli)
FIRST = machining.machining_registry()[5]


def _specs(modules, seed):
    """Three models of 3 and 2 variables, whose 51-point oracles are quick."""
    return modules[1].machining_registry()[5:8]


def _models(modules, seed):
    return [spec.problem for spec in _specs(modules, seed)]


def _stacks(modules, seed):
    return [[problem] * 2 for problem in _models(modules, seed)]


def _commands(modules, seed):
    """Each baseline's ``labopt run`` of the first model, two seeds at two batches."""
    key = _specs(modules, seed)[0].key
    return [["run", "--problem", key, "--algo", algo, "--runs", "2", "--budget", "40"]
            for algo in one_seed.BASELINES]


# One-seed, stacked, oracle and CLI passes, each over three models or commands.
GATE_PASSES = {
    "one seed": (_models, one_seed.baseline_pass("random_search")),
    "stacked": (_stacks, one_seed.baseline_stack_pass("random_search")),
    "oracle": (_specs, one_seed.run_oracle),
    "cli": (_commands, one_seed.run_cli),
}


def _nudged(trace):
    """``trace`` with its last row's best so far one ulp higher."""
    last = trace.records[-1]
    row = dataclasses.replace(last, best_so_far=np.nextafter(last.best_so_far, np.inf))
    return dataclasses.replace(trace, records=(*trace.records[:-1], row))


def _changed_side():
    """Modules whose runs change one recorded value on the first of the
    three models: its oracle value, its lone trace, or the last trace of
    its stack; and a ``labopt`` whose every ``run`` changes one byte of
    the first trace it writes."""

    def grid_oracle(spec, points):
        value, point = machining.grid_oracle(spec, points)
        return (np.nextafter(value, np.inf) if spec is FIRST else value), point

    def run_baseline(problem, config):
        trace = baselines.run_baseline(problem, config)
        return _nudged(trace) if problem.name == FIRST.key else trace

    def run_baseline_seeds(problems, config):
        traces = list(baselines.run_baseline_seeds(problems, config))
        if problems[0].name == FIRST.key:
            traces[-1] = _nudged(traces[-1])
        return traces

    def main(argv):
        code = cli.main(argv)
        trace = min(Path(argv[argv.index("--out") + 1]).rglob("trace_seed*.csv"))
        data = bytearray(trace.read_bytes())
        data[-2] ^= 1  # a digit of the last row
        trace.write_bytes(bytes(data))
        return code

    return (
        engine,
        SimpleNamespace(machining_registry=machining.machining_registry,
                        grid_oracle=grid_oracle),
        benchmarks,
        SimpleNamespace(BaselineConfig=baselines.BaselineConfig,
                        run_baseline=run_baseline, run_baseline_seeds=run_baseline_seeds),
        SimpleNamespace(main=main),
    )


@pytest.mark.parametrize("case", sorted(GATE_PASSES))
def test_one_seed_pair_is_equal_only_when_every_recorded_value_is(case):
    items, run_one = GATE_PASSES[case]
    same = dict.fromkeys(pairs.SIDES, MODULES)
    changed = {"parent": MODULES, "change": _changed_side()}
    for flip in (0, 1):
        total, equal = one_seed.pair(same, 3, flip, items, run_one)
        assert equal and sorted(total) == sorted(pairs.SIDES)
        assert not one_seed.pair(changed, 3, flip, items, run_one)[1]


def test_the_cli_pass_compares_artifacts_without_their_timings():
    # Two runs of one command differ only in summary.json's timings,
    # which the fingerprint drops as perfbench's digests do; reading the
    # artifacts removes the output root.
    command = ["run", "--problem", "F10", "--runs", "2"]
    first, second = (one_seed.run_cli(MODULES, command, 3) for _ in range(2))
    files = one_seed.fingerprint(first)
    assert files == one_seed.fingerprint(second)
    assert not first.exists() and not second.exists()
    assert sorted(files) == [f"F10__lab/{name}" for name in (
        "convergence.csv", "summary.json", "trace_seed3.csv", "trace_seed4.csv")]
    assert b"runtime" not in files["F10__lab/summary.json"]


def test_the_baselines_study_pass_runs_baselines_oracles_run_commands():
    ops = WORKLOADS["baselines-oracle"].build(3, "full", Path("out"))
    # each workload command ends in --seed 3 --out out
    runs = [list(op.argv[:-4]) for op in ops if op.argv[0] == "run"]
    assert len(runs) == 3
    assert one_seed.PASSES["baselines_study"] == (one_seed.baseline_commands, one_seed.run_cli)
    assert one_seed.baseline_commands(MODULES, 3) == runs

