import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from labopt import cli
from labopt.persist import read_summary, read_trace


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


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LABOPT_OUT", str(tmp_path / "envroot"))
    assert run_cli(["run", "--problem", "F25", "--iters", "5"]) == 0
    assert (tmp_path / "envroot" / "F25__lab" / "summary.json").exists()


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
    ],
    ids=["non-integer-dim", "empty-dim", "zero-runs"],
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
