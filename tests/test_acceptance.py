"""End-to-end acceptance checks, one test per advertised guarantee.

Each test here exercises the package through its public surface the
way the README describes it, at the tolerances the project commits
to.  Failure messages carry the full per-row measurements so a red
run documents exactly what was achieved.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from labopt import cli, machining
from labopt.baselines import ALGORITHM_RANDOM, BaselineConfig, run_baseline_seeds
from labopt.benchmarks import build_problem, get as get_benchmark
from labopt.engine import LabConfig, draw_weights, init, run_seeds, step
from labopt.machining import grid_oracle, machining_registry
from labopt.persist import read_summary, read_trace
from labopt.problem import Sense, oriented
from labopt.stats import METHOD_EXACT, wilcoxon_two_sided

from conftest import in_box, reference_exact_p

SEEDS = range(30)


# --- 1. structural invariants of the population engine ---------------------

def support_widths(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return (points @ directions.T).max(axis=0)


def test_engine_property_suite():
    probes = [
        build_problem("F10"),
        build_problem("F19"),
        build_problem("F44", dim=5),
        machining.get("edm:MRR").problem,
    ]
    config = LabConfig(stall_epsilon=0.0)  # run all 100 iterations
    for problem in probes:
        dir_rng = np.random.default_rng(1234)
        directions = dir_rng.normal(size=(64, problem.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

        rows = []  # the row count of every batch the objective gets

        def counted(x, objective=problem.objective):
            rows.append(len(x))
            return objective(x)

        problem = dataclasses.replace(problem, objective=counted)
        state = init([problem], config)
        population = config.population
        prev_widths = None
        for t in range(config.max_iterations + 1):
            assert state.pos.shape == (population, problem.dim)
            assert sorted(state.order.ravel().tolist()) == list(range(population))
            (order,) = state.order
            positions = state.pos

            # feasibility: in the box, and clamping is a no-op
            assert all(in_box(problem, x) for x in positions)
            for x in positions:
                assert np.array_equal(np.clip(x, problem.lower, problem.upper), x)

            # role ordering inside each group, best leader first globally
            for row in order:
                fits = state.fit[row].tolist()  # minimize-space
                assert fits == sorted(fits)
            # column 0 leaders, column 1 advocates, the rest believers
            assert order.shape == (config.num_groups, config.group_size)
            assert order[:, 2:].shape[1] == config.group_size - 2
            leader_fits = state.fit[order[:, 0]].tolist()
            assert leader_fits == sorted(leader_fits)
            # the first group's leader is the best of the whole population
            everyone = state.fit.tolist()
            assert everyone[order[0, 0]] == min(everyone)

            # every evaluation is accounted for: one population per iteration
            assert rows == [population] * (t + 1)

            # recombination never leaves the current convex hull
            widths = support_widths(positions, directions)
            if prev_widths is not None:
                assert np.all(widths <= prev_widths + 1e-9)
            prev_widths = widths

            if t < config.max_iterations:
                step(state, config)

    # weight sampler: ordered, strictly inside (0, 1), unit sum
    rng = np.random.default_rng(99)
    (w,), _ = draw_weights([rng], 100_000, 3)
    assert np.all((0.0 < w[:, 2]) & (w[:, 2] < w[:, 1]) & (w[:, 1] < w[:, 0]))
    assert np.all(w[:, 0] < 1.0)
    assert np.all(np.abs(w[:, 0] + w[:, 1] + w[:, 2] - 1.0) <= 1e-12)
    _, (u,) = draw_weights([rng], 10_000, 3)
    assert np.all((0.5 <= u) & (u < 1.0))
    assert np.all(u + (1.0 - u) == 1.0)


# --- 2. desk-scale optima on the classic test functions --------------------

def test_benchmark_desk_scale_optima():
    rows = [
        ("F7", None, 0.0, 1e-3),
        ("F8", None, 0.0, 1e-3),
        ("F9", None, 0.0, 1e-3),
        ("F10", None, 0.0, 1e-3),
        ("F25", None, 0.0, 1e-3),
        ("F35", None, 0.0, 5e-2),
        ("F43", None, get_benchmark("F43").known_best, 1e-3),
        ("F44", 5, 0.0, 1e-3),
        ("F47", 5, 0.0, 1e-3),
    ]
    report = []
    failures = []
    for spec_id, dim, target, tol in rows:
        problems = [build_problem(spec_id, dim=dim) for _ in SEEDS]
        finals = [
            trace.best_fitness
            for trace in run_seeds(problems, LabConfig(seed=SEEDS[0]))
        ]
        median = float(np.median(finals))
        gap = median - target
        ok = gap <= tol
        label = spec_id if dim is None else f"{spec_id}@{dim}"
        report.append(
            f"{label}: median={median:.6g} target={target:.6g} "
            f"gap={gap:.3g} tol={tol:g} {'ok' if ok else 'MISSED'}"
        )
        if not ok:
            failures.append(label)
    message = "median best fitness over 30 seeds\n" + "\n".join(report)
    assert not failures, message


# --- 3. machining models solved to exhaustive-grid quality -----------------

# grid_oracle at 51 points per axis, frozen; recomputed live below
FROZEN_GRID_OPTIMA = {
    "awjm:Ra": (4.382607499999999, (1.25, 1.5, 20.0, 600.0)),
    "awjm:kerf": (-0.3448473000000003, (1.25, 0.95, 96.0, 600.0)),
    "edm:MRR": (201.3714, (12.5, 45.0, 132.0, 40.0)),
    "edm:Ra": (2.3520000000000003, (7.5, 45.0, 50.0, 60.0)),
    "edm:REWR": (-4.184023999999965, (8.0, 45.0, 144.0, 40.0)),
    "micro_turning:fb": (0.6339025011362025, (25.0, 5.0, 30.0)),
    "micro_turning:Ra": (0.4542019033851082, (37.0, 5.0, 30.0)),
    "micro_milling:Ra:0.7mm": (-0.001657999999999979, (1500.0, 1.0)),
    "micro_milling:Mt:0.7mm": (3.3452399999999978, (1500.0, 3.0)),
    "micro_milling:Ra:1mm": (0.026699999999999998, (1500.0, 1.0)),
    "micro_milling:Mt:1mm": (3.229900000000001, (1500.0, 3.0)),
    "micro_drilling:Bh:0.5mm": (99.29715519999996, (1780.0, 2.26)),
    "micro_drilling:Bt:0.5mm": (11.909223999999988, (1870.0, 2.44)),
    "micro_drilling:Bh:0.6mm": (74.81866399999998, (2110.0, 3.4)),
    "micro_drilling:Bt:0.6mm": (21.246176000000002, (1480.0, 1.0)),
    "micro_drilling:Bh:0.8mm": (235.736, (1000.0, 1.0)),
    "micro_drilling:Bt:0.8mm": (26.63944, (1540.0, 2.62)),
    "micro_drilling:Bh:0.9mm": (305.07746000000003, (1930.0, 3.4)),
    "micro_drilling:Bt:0.9mm": (41.89452399999999, (1330.0, 1.6)),
    "mql_turning:Fc": (475713.261956, (200.0, 0.2, 90.0)),
    "mql_turning:VBmax": (479.82060334000005, (200.0, 0.2, 60.0)),
    "mql_turning:Ra": (739.9224766666, (200.0, 0.2, 60.0)),
    "mql_turning:L": (186.17483490700002, (200.0, 0.1, 90.0)),
}

# responses whose optimum sits at an analytic box corner
CORNER_TARGETS = {
    "micro_turning:fb": (25.0, 5.0, 30.0),
    "micro_turning:Ra": (37.0, 5.0, 30.0),
}


def test_machining_grid_oracle_equivalence():
    assert {s.key for s in machining_registry()} == set(FROZEN_GRID_OPTIMA)
    report = []
    failures = []
    for spec in machining_registry():
        value, point = grid_oracle(spec, 51)
        frozen_value, frozen_point = FROZEN_GRID_OPTIMA[spec.key]
        assert value == frozen_value, spec.key
        assert tuple(point) == frozen_point, spec.key

        problem = spec.problem
        best_fit = None
        best_pos = None
        for trace in run_seeds([problem] * len(SEEDS), LabConfig(seed=SEEDS[0])):
            if best_fit is None or (
                oriented(trace.best_fitness, spec.sense) < oriented(best_fit, spec.sense)
            ):
                best_fit = trace.best_fitness
                best_pos = np.array(trace.best_position)
        tol = 1e-3 * abs(value)
        if spec.sense is Sense.MAXIMIZE:
            ok = best_fit >= value - tol
        else:
            ok = best_fit <= value + tol
        report.append(
            f"{spec.key}: best={best_fit:.8g} oracle={value:.8g} "
            f"tol={tol:.3g} {'ok' if ok else 'MISSED'}"
        )
        if not ok:
            failures.append(spec.key)

        if spec.key in CORNER_TARGETS:
            corner = np.array(CORNER_TARGETS[spec.key])
            span = np.array(spec.upper) - np.array(spec.lower)
            off = np.abs(best_pos - corner) / span
            if not np.all(off <= 0.01):
                failures.append(spec.key + " (corner)")
                report.append(
                    f"{spec.key}: best point {best_pos.tolist()} is "
                    f"{off.max():.3%} of the box away from {corner.tolist()}"
                )
    message = "best of 30 seeds against the 51-point grid oracle\n" + "\n".join(report)
    assert not failures, message


# --- 4. signed-rank test is exact where it claims to be --------------------

def test_signed_rank_exactness():
    rng = np.random.default_rng(777)

    # exact branch equals full enumeration, ties and all
    checked = 0
    while checked < 200:
        n = int(rng.integers(5, 13))
        a = rng.integers(0, 5, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        res = wilcoxon_two_sided(a, b)
        if res.method != METHOD_EXACT:
            continue
        diffs = [x - y for x, y in zip(a, b) if x != y]
        assert res.p_value == reference_exact_p(diffs)
        checked += 1

    # rank-sum identity
    for _ in range(1000):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 6, n).astype(float) + rng.normal(size=n) * (
            rng.random() < 0.5
        )
        b = rng.integers(0, 6, n).astype(float)
        res = wilcoxon_two_sided(a, b)
        m = res.n_effective
        assert res.t_plus + res.t_minus == m * (m + 1) / 2.0

    # antisymmetry under swapping the samples
    for _ in range(1000):
        n = int(rng.integers(5, 25))
        a = rng.normal(size=n) + rng.integers(0, 3, n)
        b = rng.normal(size=n)
        fwd = wilcoxon_two_sided(a, b)
        rev = wilcoxon_two_sided(b, a)
        assert fwd.t_plus == rev.t_minus
        assert fwd.t_minus == rev.t_plus
        assert fwd.p_value == rev.p_value


# --- 5. better than blind sampling at the same budget -----------------------

# 30 seeds are too few here: over disjoint blocks of seeds 0-1199 the
# verdict held in 27 of 40 blocks of 30, 11 of 12 blocks of 100 and in
# every block of 150 or 200, so this test alone uses 200 seeds.
EQUAL_BUDGET_SEEDS = range(200)


def test_beats_random_search_at_equal_budget():
    """LAB's median beats uniform random search on most 2-D functions.

    Random search always spends the full budget of a 100-iteration
    run, while the stall rule stops LAB early (after a median of
    1,040-1,520 evaluations per function over seeds 0-1199), so the
    comparison favours random search.  The report prints LAB's median
    spend per function.
    """
    problems = ("F7", "F8", "F9", "F10", "F25", "F35", "F43")
    config = LabConfig()
    budget = config.population * (config.max_iterations + 1)
    report = []
    wins = 0
    for spec_id in problems:
        lab_finals = []
        lab_evals = []
        rs_finals = []
        lab = run_seeds(
            [build_problem(spec_id) for _ in EQUAL_BUDGET_SEEDS],
            LabConfig(seed=EQUAL_BUDGET_SEEDS[0]),
        )
        rs = run_baseline_seeds(
            [build_problem(spec_id) for _ in EQUAL_BUDGET_SEEDS],
            BaselineConfig(
                algorithm=ALGORITHM_RANDOM, budget=budget, seed=EQUAL_BUDGET_SEEDS[0]
            ),
        )
        for trace, rs_trace in zip(lab, rs, strict=True):
            lab_finals.append(trace.best_fitness)
            lab_evals.append(trace.n_evaluations)
            rs_finals.append(rs_trace.best_fitness)
        lab_med = float(np.median(lab_finals))
        rs_med = float(np.median(rs_finals))
        won = lab_med < rs_med  # all seven problems minimize
        wins += won
        report.append(
            f"{spec_id}: lab={lab_med:.6g} random={rs_med:.6g} "
            f"lab_evals={np.median(lab_evals):g} {'win' if won else 'LOSS'}"
        )
    needed = math.ceil(0.8 * len(problems))
    message = (
        f"median-of-{len(EQUAL_BUDGET_SEEDS)} wins at {budget} evaluations "
        f"for random search: {wins}/{len(problems)} (need {needed})\n"
        + "\n".join(report)
    )
    assert wins >= needed, message


# --- 6. reruns are byte-identical and every artifact parses back ------------

def test_deterministic_byte_identical_artifacts(tmp_path):
    jobs = [
        ("F10", "lab"),
        ("F10", "random_search"),
        ("micro_drilling:Bh:0.5mm", "lab"),
        ("F44@5", "pso"),
    ]
    for sub in ("first", "second"):
        for selector, algo in jobs:
            code = cli.main(
                ["run", "--problem", selector, "--algo", algo, "--runs", "2",
                 "--iters", "30", "--seed", "11", "--out", str(tmp_path / sub)]
            )
            assert code == 0

    first = sorted((tmp_path / "first").rglob("*"))
    second = sorted((tmp_path / "second").rglob("*"))
    rel_first = [p.relative_to(tmp_path / "first") for p in first if p.is_file()]
    rel_second = [p.relative_to(tmp_path / "second") for p in second if p.is_file()]
    assert rel_first == rel_second
    for rel in rel_first:
        a = (tmp_path / "first" / rel).read_bytes()
        b = (tmp_path / "second" / rel).read_bytes()
        if rel.name == "summary.json":
            da = json.loads(a)
            db = json.loads(b)
            for key in ("mean_runtime_seconds", "runtimes"):  # wall clock
                da.pop(key)
                db.pop(key)
            assert da == db, rel
        else:
            assert a == b, rel

    # everything written must parse back
    for path in first:
        if not path.is_file():
            continue
        if path.name.startswith("trace_"):
            trace = read_trace(path)
            assert trace.records
        elif path.name == "summary.json":
            assert read_summary(path).num_runs == 2
        elif path.name == "convergence.csv":
            lines = path.read_text().splitlines()
            assert lines[0].startswith("iteration,seed")
            assert len(lines) > 1
