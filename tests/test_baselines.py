import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labopt.baselines import (
    ALGORITHM_PSO,
    ALGORITHM_RANDOM,
    ALGORITHM_SA,
    BASELINE_ALGORITHMS,
    BaselineConfig,
    run_baseline,
)
from labopt.engine import TERMINATION_BUDGET, LabConfig, run
from labopt.problem import ConfigError, Problem, Sense


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
        # counts points: SA evaluates one (dim,) point at a time
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
    assert problem.contains(np.array(trace.best_position))
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
    assert problem.contains(best)
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
    assert strip_timing(a) == strip_timing(b)
    c = run_baseline(problem, BaselineConfig(algorithm=algorithm, budget=120, seed=22))
    assert strip_timing(a) != strip_timing(c)


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
