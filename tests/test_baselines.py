from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labopt import benchmarks, machining
from labopt.baselines import (
    ALGORITHM_PSO,
    ALGORITHM_RANDOM,
    ALGORITHM_SA,
    BASELINE_ALGORITHMS,
    BATCH,
    PSO_COGNITIVE,
    PSO_INERTIA,
    PSO_SOCIAL,
    SA_STEP_FRACTION,
    BaselineConfig,
    run_baseline,
    run_baseline_seeds,
)
from labopt.benchmarks import build_problem
from labopt.engine import TERMINATION_BUDGET, LabConfig, run
from labopt.problem import ConfigError, Problem, Sense

from conftest import in_box


def sphere(dim: int = 2, half_width: float = 5.0) -> Problem:
    return Problem(
        name=f"sphere{dim}",
        dim=dim,
        lower=np.full(dim, -half_width),
        upper=np.full(dim, half_width),
        sense=Sense.MINIMIZE,
        objective=lambda x: np.sum(x * x, axis=-1),
    )


def counting_sphere(dim: int = 2) -> tuple[Problem, list[int]]:
    calls = [0]

    def objective(x):
        # counts points: SA evaluates one point at a time, as a one-row batch
        calls[0] += int(np.prod(np.shape(x)[:-1]))
        return np.sum(x * x, axis=-1)

    return (
        Problem(
            name="counted",
            dim=dim,
            lower=np.full(dim, -5.0),
            upper=np.full(dim, 5.0),
            sense=Sense.MINIMIZE,
            objective=objective,
        ),
        calls,
    )


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
@pytest.mark.parametrize("budget", [1, 20, 21, 37, 2020])
def test_budget_spent_exactly(algorithm, budget):
    problem, calls = counting_sphere()
    trace = run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=budget, seed=3))
    assert calls[0] == budget
    assert trace.n_evaluations == budget
    assert trace.termination == TERMINATION_BUDGET


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
def test_trace_contract(algorithm):
    problem = sphere()
    trace = run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=107, seed=9))
    assert trace.problem == "sphere2"
    assert trace.algorithm == algorithm
    assert trace.seed == 9
    assert [r.iteration for r in trace.records] == list(range(len(trace.records)))
    assert all(r.leaders == () for r in trace.records)
    assert trace.records[-1].best_so_far == trace.best_fitness
    assert in_box(problem, np.array(trace.best_position))
    assert trace.best_fitness == problem.evaluate(np.array(trace.best_position))


# Objectives over z, the point rescaled to [-2, 2] per coordinate.
SHAPES = {
    "wiggly": lambda z: np.sum(np.sin(3 * z) + 0.1 * z * z, axis=-1),
    "tied": lambda z: np.round(np.sum(z * z, axis=-1)),
    "constant": lambda z: np.full(np.shape(z)[:-1], 2.5),
}


@st.composite
def random_runs(draw):
    """An algorithm, its config, and a problem with a random box and sense."""
    dim = draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)))
    span = 10.0 ** np.array(
        draw(st.lists(st.floats(-9.0, 9.0), min_size=dim, max_size=dim))
    )
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    problem = Problem(
        name="random",
        dim=dim,
        lower=lower,
        upper=lower + span,
        sense=draw(st.sampled_from(Sense)),
        objective=lambda x: shape(4.0 * (x - lower) / span - 2.0),
    )
    algorithm = draw(st.sampled_from(("lab", *BASELINE_ALGORITHMS)))
    seed = draw(st.integers(0, 2**32 - 1))
    if algorithm == "lab":
        config = LabConfig(
            num_groups=draw(st.integers(2, 5)),
            group_size=draw(st.integers(3, 7)),
            max_iterations=draw(st.integers(1, 30)),
            stall_window=draw(st.integers(1, 10)),
            seed=seed,
        )
    else:
        config = BaselineConfig(
            algorithm=algorithm, budget=draw(st.integers(1, 250)), seed=seed
        )
    return problem, config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_runs())
def test_trace_contract_over_random_shapes_boxes_and_senses(case):
    problem, config = case
    if isinstance(config, LabConfig):
        trace = run(problem, config)
        assert trace.n_evaluations == config.population * (trace.iterations + 1)
    else:
        trace = run_baseline(problem, config)
        assert trace.n_evaluations == config.budget
    series = [r.best_so_far for r in trace.records]
    if problem.sense is Sense.MAXIMIZE:
        assert all(b >= a for a, b in zip(series, series[1:]))
    else:
        assert all(b <= a for a, b in zip(series, series[1:]))
    best = np.array(trace.best_position)
    assert (
        trace.best_fitness.hex()
        == series[-1].hex()
        == problem.evaluate(best).hex()
    )
    assert in_box(problem, best)
    assert [r.iteration for r in trace.records] == list(range(len(trace.records)))


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
def test_best_so_far_is_monotone_both_senses(algorithm):
    for sense in (Sense.MINIMIZE, Sense.MAXIMIZE):
        problem = Problem(
            name="wiggly",
            dim=3,
            lower=np.full(3, -4.0),
            upper=np.full(3, 4.0),
            sense=sense,
            objective=lambda x: np.sum(np.sin(3 * x) + 0.1 * x * x, axis=-1),
        )
        trace = run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=200, seed=5))
        series = [r.best_so_far for r in trace.records]
        if sense is Sense.MAXIMIZE:
            assert all(b >= a for a, b in zip(series, series[1:]))
        else:
            assert all(b <= a for a, b in zip(series, series[1:]))
        assert trace.best_fitness == series[-1]


def test_record_count_matches_batching():
    problem = sphere()
    for budget, rows in [(2020, 101), (101, 6), (100, 5), (37, 2), (20, 1), (7, 1), (1, 1)]:
        for algorithm in BASELINE_ALGORITHMS:
            trace = run_baseline(
                problem, BaselineConfig(algorithm=algorithm, budget=budget)
            )
            assert len(trace.records) == rows, (algorithm, budget)


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
def test_same_seed_reproduces_different_seed_differs(algorithm):
    problem = sphere()
    config = BaselineConfig(algorithm=algorithm, budget=120, seed=21)
    a = run_baseline(problem, config)
    b = run_baseline(problem, config)
    assert a == b
    c = run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=120, seed=22))
    assert a != c


@pytest.mark.parametrize("budget", [1, 7, 20])
@pytest.mark.parametrize(
    "make_problem",
    [lambda: build_problem("F10"), lambda: machining.get("edm:MRR").problem],
    ids=["F10", "edm:MRR"],
)
def test_one_batch_budgets_give_one_trace_for_every_algorithm(make_problem, budget):
    # Every algorithm starts from the same uniform batch drawn from the
    # seed's generator, so up to one batch the traces agree but for the name.
    problem = make_problem()
    traces = [
        run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=budget, seed=11))
        for algorithm in BASELINE_ALGORITHMS
    ]
    assert len(traces[0].records) == 1
    for trace in traces[1:]:
        assert replace(trace, algorithm=traces[0].algorithm) == traces[0]


CATALOG_BUILDERS = [
    pytest.param(lambda seed, spec=spec: spec.problem, id=spec.key)
    for spec in machining.machining_registry()
] + [
    pytest.param(lambda seed, spec=spec: build_problem(spec.id, None, seed), id=spec.id)
    for spec in benchmarks.registry()
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build", CATALOG_BUILDERS)
def test_every_algorithm_starts_from_the_same_batch_as_lab(build, seed):
    # At the default population, LAB's initial population and every
    # baseline's first batch are the same uniform draw from the seed's
    # generator, so the objective gets the same bytes first and the
    # first trace row agrees bit for bit.  F32 gets the seed's noise
    # stream, fresh, on every side.
    assert LabConfig().population == BATCH

    def watched(problem):
        """The problem, and the batches its objective receives, in order."""
        batches = []

        def objective(x):
            batches.append(x.copy())
            return problem.objective(x)

        return replace(problem, objective=objective), batches

    def first_row(trace):
        row = trace.records[0]
        return row.global_best.hex(), row.best_so_far.hex()

    problem, lab_batches = watched(build(seed))
    lab = first_row(run(problem, LabConfig(seed=seed, max_iterations=1)))
    initial = lab_batches[0]
    assert initial.shape == (BATCH, problem.dim)
    for algorithm in BASELINE_ALGORITHMS:
        problem, batches = watched(build(seed))
        config = BaselineConfig(algorithm=algorithm, budget=BATCH, seed=seed)
        assert first_row(run_baseline(problem, config)) == lab, algorithm
        assert batches[0].dtype == initial.dtype, algorithm
        assert batches[0].tobytes() == initial.tobytes(), algorithm


@pytest.mark.parametrize(
    "sense, tie, other",
    [(Sense.MINIMIZE, 5.0, 8.0), (Sense.MAXIMIZE, 15.0, 12.0)],
    ids=["min", "max"],
)
def test_sa_records_a_stage_by_its_first_best_move(sense, tie, other):
    # Budget 40 is the calibration batch and one temperature stage of
    # BATCH one-point moves; moves 3 and 7 of the stage tie for its best.
    batches = []

    def scripted(x):
        batches.append(x.copy())
        if len(batches) == 1:
            return np.full(len(x), 10.0)
        return np.array([tie if len(batches) - 2 in (3, 7) else other])

    problem = Problem(
        name="scripted",
        dim=2,
        lower=np.full(2, -1.0),
        upper=np.full(2, 1.0),
        sense=sense,
        objective=scripted,
    )
    trace = run_baseline(problem, BaselineConfig(algorithm=ALGORITHM_SA, budget=40, seed=6))
    assert [len(b) for b in batches] == [BATCH] + [1] * BATCH
    assert not np.array_equal(batches[1 + 3], batches[1 + 7])
    assert trace.records[1].global_best == tie
    assert trace.best_fitness == tie
    assert np.array_equal(trace.best_position, batches[1 + 3][0])


def test_sa_flat_calibration_falls_back_to_unit_temperature():
    flat = Problem(
        name="flat",
        dim=2,
        lower=np.full(2, -1.0),
        upper=np.full(2, 1.0),
        sense=Sense.MINIMIZE,
        objective=lambda x: np.full(np.shape(x)[:-1], 7.0),
    )
    # a flat first batch has no spread; T0 falls back to 1.0 instead of 0
    trace = run_baseline(flat, BaselineConfig(algorithm=ALGORITHM_SA, budget=90, seed=4))
    assert trace.best_fitness == 7.0


def recording_constant() -> tuple[Problem, list[np.ndarray]]:
    """A flat objective that keeps a copy of every batch it is given."""
    batches = []

    def objective(x):
        batches.append(x.copy())
        return np.full(len(x), 3.0)

    problem = Problem(
        name="flat",
        dim=2,
        lower=np.array([-1.0, 0.0]),
        upper=np.array([1.0, 4.0]),
        sense=Sense.MINIMIZE,
        objective=objective,
    )
    return problem, batches


def test_sa_draws_its_acceptance_uniform_on_a_tie():
    # On a flat objective every move has delta == 0.  It is not downhill,
    # so SA draws its acceptance uniform, and exp(0) = 1 accepts the move.
    problem, batches = recording_constant()
    run_baseline(problem, BaselineConfig(algorithm=ALGORITHM_SA, budget=BATCH + 6, seed=9))
    rng = np.random.default_rng(9)
    current = rng.uniform(problem.lower, problem.upper, (BATCH, 2))[0]  # the first best
    step = SA_STEP_FRACTION * (problem.upper - problem.lower)
    moves = []
    for _ in range(6):
        current = (current + rng.standard_normal(2) * step).clip(problem.lower, problem.upper)
        moves.append(current)
        rng.random()  # the acceptance draw
    assert [len(b) for b in batches] == [BATCH] + [1] * 6
    assert np.concatenate(batches[1:]).tobytes() == np.array(moves).tobytes()


def test_pso_keeps_a_particles_first_position_as_its_best_on_a_tie():
    # On a flat objective no position is strictly better, so each
    # particle's best stays its first position, as does the swarm's best
    # (particle 0's), and the first batch fixes the second step's points.
    problem, batches = recording_constant()
    run_baseline(problem, BaselineConfig(algorithm=ALGORITHM_PSO, budget=3 * BATCH, seed=9))
    rng = np.random.default_rng(9)
    lower, upper = problem.lower, problem.upper
    pulls = np.array([PSO_COGNITIVE, PSO_SOCIAL])[:, None, None]
    first = rng.uniform(lower, upper, (BATCH, 2))
    best = first[0]
    velocity, position = np.zeros_like(first), first
    for _ in range(2):
        pull = rng.random((2, BATCH, 2)) * pulls
        velocity = (
            PSO_INERTIA * velocity
            + pull[0] * (first - position)
            + pull[1] * (best - position)
        )
        position = (position + velocity).clip(lower, upper)
    assert [len(b) for b in batches] == [BATCH] * 3
    assert batches[2].tobytes() == position.tobytes()


def test_pso_polishes_a_smooth_bowl():
    finals = []
    for seed in range(30):
        trace = run_baseline(
            sphere(), BaselineConfig(algorithm=ALGORITHM_PSO, budget=2020, seed=seed)
        )
        finals.append(trace.best_fitness)
    assert float(np.median(finals)) <= 1e-3


def test_small_budget_shrinks_swarm():
    problem, calls = counting_sphere()
    trace = run_baseline(problem, BaselineConfig(algorithm=ALGORITHM_PSO, budget=7, seed=0))
    assert calls[0] == 7
    assert len(trace.records) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="hill_climb", budget=10),
        dict(algorithm=ALGORITHM_RANDOM, budget=0),
    ],
)
def test_invalid_configs_are_rejected(kwargs):
    with pytest.raises(ConfigError):
        run_baseline(sphere(), BaselineConfig(**kwargs))


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
def test_a_baseline_seeds_cost_is_its_share_of_each_step(step_clock, algorithm):
    # Each objective call takes one second: 1 + 20 calls for SA at
    # budget 40, one call per batch (2 batches) for the other two.
    clock = step_clock
    problem = sphere()
    problem.objective = clock.ticking(problem.objective)
    config = BaselineConfig(algorithm=algorithm, budget=40, seed=3)
    calls = 21.0 if algorithm == ALGORITHM_SA else 2.0
    assert run_baseline(problem, config).runtime_seconds == calls == clock.now
    clock.now = 0.0
    costs = [trace.runtime_seconds for trace in run_baseline_seeds([problem] * 4, config)]
    assert costs == [calls / 4] * 4
    assert sum(costs) == clock.now


def test_stacked_seeds_of_problems_that_differ_yield_each_lone_trace():
    # One stack of five problems that differ in dimension, box, name and
    # sense, each seed in its own box, padded to the widest.
    p = sphere()
    problems = [p, sphere(dim=3), sphere(half_width=4.0), replace(p, name="other"),
                replace(p, sense=Sense.MAXIMIZE)]
    for algorithm in BASELINE_ALGORITHMS:
        config = BaselineConfig(algorithm=algorithm, budget=2 * BATCH + 3, seed=4)
        stacked = list(run_baseline_seeds(problems, config))
        assert stacked == [
            run_baseline(problem, replace(config, seed=4 + k))
            for k, problem in enumerate(problems)
        ], algorithm
    with pytest.raises(ConfigError):
        run_baseline_seeds([], config)
    with pytest.raises(ConfigError):
        run_baseline_seeds([p], replace(config, budget=0))
    with pytest.raises(ConfigError):
        run_baseline_seeds([p], config, seeds=[1, 2])
