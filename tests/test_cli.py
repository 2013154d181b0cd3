import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from labopt import benchmarks, cli, machining
from labopt.baselines import BaselineConfig, run_baseline
from labopt.persist import read_summary, read_trace
from labopt.problem import EvaluationError


def run_cli(argv):
    return cli.main(argv)


def test_list_problems_text(capsys):
    assert run_cli(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "benchmark functions (27)" in out
    assert "machining models (23)" in out
    assert "F10" in out
    assert "micro_drilling:Bh:0.5mm" in out
    assert "mm/min" in out


def test_list_problems_json(capsys):
    assert run_cli(["list-problems", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["benchmarks"]) == 27
    assert len(data["machining"]) == 23
    assert data["benchmarks"][0]["id"] == "F1"


# sha256 of both list-problems outputs, frozen on the catalogs as they
# were before the lookups were indexed; any change to either catalog's
# contents or formatting shows up here.
LIST_PROBLEMS_SHA256 = {
    "text": "35435ff07d2dc6d684ef57271f82da1818fc3cbccb14bf18dcaf3655a6466b2c",
    "json": "0d43f104f7c421aea1e5be23b468c3c8a5c43a6a2931e9c14ab3deb3b8b85e71",
}


@pytest.mark.parametrize("fmt", sorted(LIST_PROBLEMS_SHA256))
def test_list_problems_output_is_frozen(capsys, fmt):
    assert run_cli(["list-problems", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_PROBLEMS_SHA256[fmt]


def test_run_writes_expected_files(tmp_path, capsys):
    code = run_cli(
        ["run", "--problem", "F10", "--runs", "3", "--iters", "10",
         "--out", str(tmp_path)]
    )
    assert code == 0
    run_dir = tmp_path / "F10__lab"
    for seed in (0, 1, 2):
        assert (run_dir / f"trace_seed{seed}.csv").exists()
    summary = read_summary(run_dir / "summary.json")
    assert summary.problem == "F10"
    assert summary.algorithm == "lab"
    assert summary.num_runs == 3
    assert summary.seeds == (0, 1, 2)
    # 4 groups of 5, 10 iterations: (10 + 1) * 20 evaluations per run
    assert summary.mean_function_evaluations == 220.0
    lines = (run_dir / "convergence.csv").read_text().splitlines()
    assert len(lines) == 12
    out = capsys.readouterr().out
    assert "F10 [lab] runs=3" in out


def test_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run_cli(
            ["run", "--problem", "F25", "--runs", "2", "--iters", "8",
             "--seed", "5", "--out", str(tmp_path / sub)]
        ) == 0
    for name in ("trace_seed5.csv", "trace_seed6.csv", "convergence.csv"):
        fa = (tmp_path / "a" / "F25__lab" / name).read_bytes()
        fb = (tmp_path / "b" / "F25__lab" / name).read_bytes()
        assert fa == fb, name
    # summaries carry wall-clock timing; everything else must agree
    sa = json.loads((tmp_path / "a" / "F25__lab" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "F25__lab" / "summary.json").read_text())
    for skip in ("mean_runtime_seconds", "runtimes"):
        sa.pop(skip)
        sb.pop(skip)
    assert sa == sb


@pytest.mark.parametrize("budget", ["400", "37"])  # 37: a partial last batch
@pytest.mark.parametrize("problem", ["edm:MRR", "F10", "F32"])  # F32: noise per seed
@pytest.mark.parametrize("algo", ["random_search", "sa", "pso"])
def test_baseline_runs_of_several_seeds_write_each_seeds_lone_trace(
    tmp_path, algo, problem, budget
):
    common = ["run", "--problem", problem, "--algo", algo, "--budget", budget]
    assert run_cli([*common, "--runs", "5", "--seed", "3", "--out", str(tmp_path / "all")]) == 0
    for seed in range(3, 8):
        lone = tmp_path / f"seed{seed}"
        assert run_cli([*common, "--seed", str(seed), "--out", str(lone)]) == 0
        [run_dir] = (tmp_path / "all").iterdir()
        name = f"trace_seed{seed}.csv"
        assert (run_dir / name).read_bytes() == (lone / run_dir.name / name).read_bytes()


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LABOPT_OUT", str(tmp_path / "envroot"))
    assert run_cli(["run", "--problem", "F25", "--iters", "5"]) == 0
    assert (tmp_path / "envroot" / "F25__lab" / "summary.json").exists()
    # An empty value means unset, as an empty --out does: ./out, not ./
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LABOPT_OUT", "")
    assert run_cli(["run", "--problem", "F25", "--iters", "5"]) == 0
    assert (tmp_path / "out" / "F25__lab" / "summary.json").exists()
    assert not (tmp_path / "F25__lab").exists()


def test_baseline_budget_defaults_to_population_spend(tmp_path):
    assert run_cli(
        ["run", "--problem", "F25", "--algo", "random_search", "--iters", "10",
         "--runs", "2", "--out", str(tmp_path)]
    ) == 0
    summary = read_summary(tmp_path / "F25__random_search" / "summary.json")
    assert summary.mean_function_evaluations == 220.0

    assert run_cli(
        ["run", "--problem", "F25", "--algo", "sa", "--budget", "97",
         "--out", str(tmp_path)]
    ) == 0
    summary = read_summary(tmp_path / "F25__sa" / "summary.json")
    assert summary.mean_function_evaluations == 97.0


def test_machining_selector_and_slug(tmp_path):
    assert run_cli(
        ["run", "--problem", "micro_milling:Ra:0.7mm", "--iters", "5",
         "--out", str(tmp_path)]
    ) == 0
    run_dir = tmp_path / "micro_milling-Ra-0.7mm__lab"
    assert (run_dir / "summary.json").exists()
    trace = read_trace(run_dir / "trace_seed0.csv")
    assert trace.problem == "micro_milling:Ra:0.7mm"
    assert trace.sense.value == "min"


def test_dimension_override_selector(tmp_path):
    assert run_cli(
        ["run", "--problem", "F44@5", "--iters", "5", "--out", str(tmp_path)]
    ) == 0
    summary = read_summary(tmp_path / "F44@5__lab" / "summary.json")
    assert summary.problem == "F44@5"


def test_bundle_selectors_cover_their_catalogs(tmp_path, capsys):
    # Each command prints one line per catalog entry, in catalog order,
    # and writes that entry's run directory or oracle file.
    machining_keys = [spec.key for spec in machining.machining_registry()]
    benchmark_ids = [spec.id for spec in benchmarks.registry()]
    commands = [
        (["run", "--problem", "all-machining", "--algo", "random_search",
          "--budget", "20"], machining_keys, "random_search"),
        (["run", "--problem", "all-benchmarks", "--runs", "2", "--iters", "1"],
         benchmark_ids, "lab"),
        (["oracle", "--problem", "all-machining", "--points", "2"],
         machining_keys, None),
    ]
    for argv, names, algo in commands:
        assert run_cli([*argv, "--out", str(tmp_path)]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(names), argv
        for name, line in zip(names, lines):
            assert line.split()[0] in (name, f"{name}:"), (argv, line)
            if algo is None:
                assert (tmp_path / "oracles" / f"oracle_{cli._slug(name)}.json").is_file()
            else:
                assert (tmp_path / f"{cli._slug(name)}__{algo}" / "summary.json").is_file()
    assert (len(machining_keys), len(benchmark_ids)) == (23, 27)


def test_unknown_problem_exits_2(tmp_path, capsys):
    assert run_cli(["run", "--problem", "F99", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown problem")
    assert "list-problems" in err


def test_bad_dimension_override_exits_2(tmp_path, capsys):
    assert run_cli(["run", "--problem", "F10@5", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--problem", "F44@abc"], "problem 'F44@abc'; expected <id>@<dim>"),
        (["--problem", "F44@"], "problem 'F44@'; expected <id>@<dim>"),
        (["--problem", "F10", "--runs", "0"], "--runs must be at least 1"),
        (["--problem", "F10", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ],
    ids=["non-integer-dim", "empty-dim", "zero-runs", "negative-seed"],
)
def test_bad_run_input_exits_2_naming_it(tmp_path, capsys, argv, expected):
    assert run_cli(["run", *argv, "--iters", "1", "--out", str(tmp_path)]) == 2
    assert expected in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_end_to_end(tmp_path, capsys):
    out = tmp_path / "runs"
    for algo in ("lab", "random_search"):
        assert run_cli(
            ["run", "--problem", "F10", "--algo", algo, "--runs", "6",
             "--iters", "10", "--out", str(out)]
        ) == 0
    capsys.readouterr()
    assert run_cli(["compare", str(out)]) == 0
    text = capsys.readouterr().out
    assert "(+/-/=)" in text
    assert "lab vs random_search" in text
    cmp_dir = out / "comparison"
    for name in ("report.json", "per_problem.csv", "pairwise.csv", "report.txt"):
        assert (cmp_dir / name).exists()
    report = json.loads((cmp_dir / "report.json").read_text())
    assert report["algorithms"] == ["lab", "random_search"]
    assert report["per_problem"][0]["n_effective"] <= 6


@pytest.mark.parametrize(
    "runs, alpha, note",
    [
        (5, "0.05", "note: lab vs random_search: 1 of 1 per-problem tests "
                    "cannot reach p < 0.05 with 5 nonzero differences"),
        (6, "0.05", None),
        (6, "0.03125", "note: lab vs random_search: 1 of 1 per-problem tests "
                    "cannot reach p < 0.03125 with 6 nonzero differences"),
    ],
)
def test_compare_notes_the_verdicts_its_runs_cannot_reach(tmp_path, capsys, runs, alpha, note):
    # Without ties, n runs give n nonzero differences, and the exact
    # test's smallest p is 2 / 2^n: 0.0625 at 5 runs, 0.03125 at 6, so
    # 6 runs can reach p < 0.05 but not p < 0.03125.
    out = tmp_path / "runs"
    for algo in ("lab", "random_search"):
        assert run_cli(
            ["run", "--problem", "F10", "--algo", algo, "--runs", str(runs),
             "--iters", "10", "--out", str(out)]
        ) == 0
    capsys.readouterr()
    assert run_cli(["compare", str(out), "--alpha", alpha]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
    assert notes == ([note] if note else [])
    report = json.loads((out / "comparison" / "report.json").read_text())
    assert report["per_problem"][0]["n_effective"] == runs
    assert "p_floor" not in report["per_problem"][0]


def test_compare_relabels_duplicate_algorithms(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli(
        ["run", "--problem", "F25", "--runs", "6", "--iters", "10",
         "--out", str(out)]
    ) == 0
    capsys.readouterr()
    code = run_cli(
        ["compare", str(out), str(out), "--out", str(tmp_path / "cmp")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "note: duplicate algorithm label" in text
    report = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert report["algorithms"] == ["lab", "lab@2"]
    # identical runs under two labels tie everywhere
    row = report["pairwise"][0]
    assert (row["wins_a"], row["wins_b"], row["ties"]) == (0, 0, 1)


def test_compare_relabels_duplicates_within_one_root(tmp_path, capsys):
    # two F10 lab runs under one root used to overwrite each other
    root = tmp_path / "root"
    for sub, seed in (("x", "0"), ("y", "100")):
        assert run_cli(
            ["run", "--problem", "F10", "--runs", "6", "--iters", "10",
             "--seed", seed, "--out", str(root / sub)]
        ) == 0
    assert run_cli(
        ["run", "--problem", "F10", "--algo", "random_search", "--runs", "6",
         "--budget", "220", "--out", str(root / "x")]
    ) == 0
    capsys.readouterr()
    assert run_cli(["compare", str(root), "--out", str(tmp_path / "cmp")]) == 0
    text = capsys.readouterr().out
    assert f"note: duplicate algorithm label, lab from {root} -> lab@2" in text
    report = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert report["algorithms"] == ["lab", "lab@2", "random_search"]


def test_compare_without_summaries_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert run_cli(["compare", str(tmp_path / "empty")]) == 2
    assert "no summary.json" in capsys.readouterr().err


def _without_finals(text):
    summary = json.loads(text)
    del summary["finals"]
    return json.dumps(summary)


def _with(key, value):
    def damage(text):
        summary = json.loads(text)
        summary[key] = value
        return json.dumps(summary)

    return damage


@pytest.mark.parametrize(
    "damage, expected",
    [
        (lambda text: text[:1], "not valid JSON"),
        (_without_finals, "missing keys ['finals']"),
        (_with("seeds", 5), "bad 'seeds' ("),
        (_with("sense", "up"), "bad 'sense' ('up' is not a valid Sense)"),
        (_with("problem", ["F10"]), "bad 'problem' (expected str, got ['F10'])"),
        (_with("finals", "1"), "bad 'finals' (expected list, got '1')"),
        (_with("num_runs", 1.5), "bad 'num_runs' (expected int, got 1.5)"),
        (_with("finals", [float("nan")]), "'finals' must hold num_runs (>= 1) finite values"),
        (_with("num_runs", 2), "'finals' must hold num_runs (>= 1) finite values"),
        (None, "cannot be read (Is a directory)"),
        (_with("finals", ["1.0", "2.0"]), "bad 'finals' (expected number, got '1.0')"),
        (_with("seeds", [True, False]), "bad 'seeds' (expected int, got True)"),
        (_with("best", "inf"), "bad 'best' (expected number, got 'inf')"),
        (_with("std_dev", True), "bad 'std_dev' (expected number, got True)"),
        (_with("num_runs", True), "bad 'num_runs' (expected int, got True)"),
        (_with("mean", 10**400), "bad 'mean' (int too large to convert to float)"),
    ],
    ids=[
        "truncated", "missing-finals", "int-seeds", "unknown-sense", "list-problem",
        "string-finals", "float-num-runs", "nan-final", "short-finals", "directory",
        "string-finals-values", "bool-seeds", "string-best", "bool-std-dev",
        "bool-num-runs", "huge-int-mean",
    ],
)
def test_compare_on_a_broken_summary_exits_2_naming_it(
    tmp_path, capsys, damage, expected
):
    out = tmp_path / "runs"
    assert run_cli(["run", "--problem", "F10", "--iters", "1", "--out", str(out)]) == 0
    path = out / "F10__lab" / "summary.json"
    if damage is None:  # a directory where the file should be
        path.unlink()
        path.mkdir()
    else:
        path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert run_cli(["compare", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert expected in err


@pytest.mark.parametrize("command", ["run", "oracle", "compare"])
def test_an_out_path_that_is_a_regular_file_exits_2_naming_it(
    tmp_path, capsys, command
):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    if command == "run":
        argv = ["run", "--problem", "F10", "--iters", "1"]
        target = blocker / "F10__lab"
    elif command == "oracle":
        argv = ["oracle", "--problem", "edm:MRR", "--points", "3"]
        target = blocker / "oracles"
    else:
        runs = tmp_path / "runs"
        for algo in ("lab", "random_search"):
            assert run_cli(
                ["run", "--problem", "F10", "--algo", algo, "--runs", "6",
                 "--iters", "2", "--out", str(runs)]
            ) == 0
        capsys.readouterr()
        argv = ["compare", str(runs)]
        target = blocker
    assert run_cli([*argv, "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {target}: cannot be written (")
    assert captured.err.endswith(")\n") and captured.err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


def test_oracle_single_model(tmp_path, capsys):
    code = run_cli(
        ["oracle", "--problem", "edm:MRR", "--points", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "edm:MRR" in capsys.readouterr().out
    payload = json.loads((tmp_path / "oracles" / "oracle_edm-MRR.json").read_text())
    assert payload["points_per_axis"] == 5
    assert payload["grid_evaluations"] == 5**4
    assert payload["sense"] == "max"
    assert len(payload["best_point"]) == 4


def test_oracle_refinement_improves(tmp_path):
    for points, sub in ((3, "c"), (5, "f")):
        assert run_cli(
            ["oracle", "--problem", "mql_turning:L", "--points", str(points),
             "--out", str(tmp_path / sub)]
        ) == 0
    coarse = json.loads((tmp_path / "c" / "oracles" / "oracle_mql_turning-L.json").read_text())
    fine = json.loads((tmp_path / "f" / "oracles" / "oracle_mql_turning-L.json").read_text())
    assert fine["best_value"] <= coarse["best_value"]  # 5-grid nests the 3-grid


def test_oracle_rejects_benchmarks(tmp_path, capsys):
    assert run_cli(["oracle", "--problem", "F10", "--out", str(tmp_path)]) == 2
    assert "machining models only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dirs, alpha, expected",
    [
        (["lab"], "0.05", "need at least two algorithms to compare, found lab"),
        (["lab", "rs3"], "0.05",
         "run counts differ on F10 (lab: 2, random_search: 3); pairing needs equal counts"),
        (["lab", "rs2"], "1.5", "alpha must be in (0, 1), got 1.5"),
        (["lab", "rs2"], "0", "alpha must be in (0, 1), got 0.0"),
        # Path.rglob finds nothing under a missing path, so unchecked, a
        # typo would drop that input and compare the others.
        (["lab", "rs2", "typo"], "0.05", "compare input {tmp}/typo is not a directory"),
        (["typo", "lab", "rs2"], "0.05", "compare input {tmp}/typo is not a directory"),
    ],
    ids=["one-algorithm", "unequal-runs", "alpha-above-1", "alpha-0",
         "missing-last", "missing-first"],
)
def test_bad_compare_input_exits_2_naming_it(tmp_path, capsys, dirs, alpha, expected):
    for sub, algo, runs in (("lab", "lab", 2), ("rs2", "random_search", 2),
                            ("rs3", "random_search", 3)):
        assert run_cli(
            ["run", "--problem", "F10", "--algo", algo, "--runs", str(runs),
             "--iters", "1", "--budget", "5", "--out", str(tmp_path / sub)]
        ) == 0
    capsys.readouterr()
    code = run_cli(
        ["compare", *(str(tmp_path / d) for d in dirs), "--alpha", alpha,
         "--out", str(tmp_path / "cmp")]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "cmp").exists()


def test_oracle_with_one_point_per_axis_exits_2_naming_it(tmp_path, capsys):
    code = run_cli(
        ["oracle", "--problem", "edm:MRR", "--points", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: points_per_axis must be >= 2, got 1\n"


def nan_per_point(x):
    """A batched objective, like the catalog's, that is NaN at every point."""
    return np.full(np.shape(x)[:-1], np.nan)


def test_nonfinite_objective_exits_2_naming_problem_seed_and_position(
    tmp_path, capsys, monkeypatch
):
    real_build = cli.benchmarks.build_problem

    def nan_build(spec_id, dim=None, noise_seed=None):
        problem = real_build(spec_id, dim=dim, noise_seed=noise_seed)
        problem.objective = nan_per_point
        return problem

    monkeypatch.setattr(cli.benchmarks, "build_problem", nan_build)
    code = run_cli(
        ["run", "--problem", "F10", "--runs", "2", "--seed", "3",
         "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    problem = real_build("F10")
    first = np.random.default_rng(3).uniform(problem.lower, problem.upper, (20, 2))[0]
    position = ", ".join(repr(v) for v in first.tolist())
    assert err.startswith("error: F10 [lab] seed 3: ")
    assert "returned nan (batch row 0)" in err
    assert err.rstrip().endswith(f"at position ({position})")
    assert "Traceback" not in err


def test_failed_seed_keeps_finished_traces_and_writes_no_summary(
    tmp_path, capsys, monkeypatch
):
    real_build = cli.benchmarks.build_problem

    def nan_on_seed_1(spec_id, dim=None, noise_seed=None):
        problem = real_build(spec_id, dim=dim, noise_seed=noise_seed)
        if noise_seed == 1:
            problem.objective = nan_per_point
        return problem

    monkeypatch.setattr(cli.benchmarks, "build_problem", nan_on_seed_1)
    code = run_cli(["run", "--problem", "F10", "--runs", "2", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: F10 [lab] seed 1: ")
    run_dir = tmp_path / "F10__lab"
    assert sorted(p.name for p in run_dir.iterdir()) == ["trace_seed0.csv"]
    # the kept trace is the one a clean run of seed 0 writes
    monkeypatch.setattr(cli.benchmarks, "build_problem", real_build)
    assert run_cli(["run", "--problem", "F10", "--out", str(tmp_path / "clean")]) == 0
    clean = tmp_path / "clean" / "F10__lab" / "trace_seed0.csv"
    assert (run_dir / "trace_seed0.csv").read_bytes() == clean.read_bytes()


def nan_from_iteration(objective, iteration, row):
    """``objective`` with batch ``row`` NaN from LAB iteration ``iteration`` on.

    A LAB run makes one objective call per iteration, the initial
    population being iteration 0.
    """
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        values = np.array(objective(x), dtype=float)
        if calls[0] > iteration:
            values[row] = np.nan
        return values

    return wrapped


def build_per_seed(monkeypatch, objectives):
    """Make the CLI's F10 use ``objectives[seed]`` for the listed seeds."""
    real_build = cli.benchmarks.build_problem

    def build(spec_id, dim=None, noise_seed=None):
        problem = real_build(spec_id, dim=dim, noise_seed=noise_seed)
        if noise_seed in objectives:
            problem.objective = objectives[noise_seed](problem.objective)
        return problem

    monkeypatch.setattr(cli.benchmarks, "build_problem", build)


def test_nonfinite_objective_error_names_the_iteration(tmp_path, capsys, monkeypatch):
    build_per_seed(monkeypatch, {3: lambda f: nan_per_point, 4: lambda f: nan_per_point})
    code = run_cli(
        ["run", "--problem", "F10", "--runs", "2", "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: F10 [lab] seed 3: iteration 0: objective of 'F10' returned nan "
        "(batch row 0) at position ("
    )


def test_seed_failing_mid_run_keeps_the_lower_seeds_trace(tmp_path, capsys, monkeypatch):
    build_per_seed(monkeypatch, {1: lambda f: nan_from_iteration(f, 2, row=5)})
    code = run_cli(["run", "--problem", "F10", "--runs", "3", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: F10 [lab] seed 1: iteration 2: objective of 'F10' returned nan "
        "(batch row 5) at position ("
    )
    run_dir = tmp_path / "F10__lab"
    assert sorted(p.name for p in run_dir.iterdir()) == ["trace_seed0.csv"]


def test_lower_seed_failing_after_a_higher_one_finished_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    # Seed 1's constant objective stalls after 21 iterations; seed 0's
    # keeps improving by 1 per iteration and turns NaN at iteration 40.
    def improving(objective):
        calls = [0]

        def wrapped(x):
            calls[0] += 1
            return np.full(len(x), -float(calls[0]))

        return nan_from_iteration(wrapped, 40, row=7)

    build_per_seed(
        monkeypatch, {0: improving, 1: lambda f: lambda x: np.full(len(x), 2.0)}
    )
    code = run_cli(["run", "--problem", "F10", "--runs", "2", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: F10 [lab] seed 0: iteration 40: objective of 'F10' returned nan "
        "(batch row 7) at position ("
    )
    assert not (tmp_path / "F10__lab").exists()


def test_nonfinite_value_at_an_sa_move_is_reported_as_a_batch_row(
    tmp_path, capsys, monkeypatch
):
    # SA's first batch has many rows; each of its moves is a one-row batch.
    moves = []

    def nan_on_one_row(objective):
        def wrapped(x):
            if len(x) > 1:
                return objective(x)
            moves.append(x[0].copy())
            return np.full(1, np.nan)

        return wrapped

    build_per_seed(monkeypatch, {4: nan_on_one_row})
    code = run_cli(
        ["run", "--problem", "F10", "--algo", "sa", "--runs", "2", "--seed", "4",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert len(moves) == 1
    position = ", ".join(repr(v) for v in moves[0].tolist())
    assert capsys.readouterr().err == (
        "error: F10 [sa] seed 4: objective of 'F10' returned nan (batch row 0) "
        f"at position ({position})\n"
    )


@pytest.mark.parametrize("algo, center", [("random_search", -3.0), ("sa", 5.5), ("pso", 7.5)])
def test_a_baseline_seed_failing_in_a_shared_objective_is_named_with_its_own_error(
    tmp_path, capsys, monkeypatch, algo, center
):
    # One objective for every seed, NaN in a band of F10 that seed 1
    # alone meets after its first batch and seed 0 alone never meets.
    real_build = cli.benchmarks.build_problem
    f10 = real_build("F10").objective

    def nan_in_a_band(x):
        return np.where(np.abs(x[:, 0] - center) < 0.05, np.nan, f10(x))

    def build(spec_id, dim=None, noise_seed=None):
        problem = real_build(spec_id, dim=dim, noise_seed=noise_seed)
        problem.objective = nan_in_a_band
        return problem

    monkeypatch.setattr(cli.benchmarks, "build_problem", build)
    with pytest.raises(EvaluationError) as alone:
        run_baseline(build("F10"), BaselineConfig(algorithm=algo, budget=400, seed=1))
    code = run_cli(
        ["run", "--problem", "F10", "--algo", algo, "--budget", "400", "--runs", "3",
         "--out", str(tmp_path)]
    )
    assert code == 2
    position = ", ".join(repr(v) for v in alone.value.position.tolist())
    assert capsys.readouterr().err == (
        f"error: F10 [{algo}] seed 1: {alone.value} at position ({position})\n"
    )
    run_dir = tmp_path / f"F10__{algo}"
    assert sorted(p.name for p in run_dir.iterdir()) == ["trace_seed0.csv"]


def test_value_error_inside_an_objective_gives_a_traceback(tmp_path, monkeypatch):
    # Only input errors (ConfigError) exit 2; a bug in an objective is not one.
    def raising(objective):
        def wrapped(x):
            raise ValueError("objective bug")

        return wrapped

    build_per_seed(monkeypatch, {0: raising})
    with pytest.raises(ValueError, match="objective bug"):
        run_cli(["run", "--problem", "F10", "--out", str(tmp_path)])
