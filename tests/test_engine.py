import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labopt import benchmarks, machining
from labopt.baselines import (
    ALGORITHM_PSO,
    ALGORITHM_RANDOM,
    ALGORITHM_SA,
    BATCH,
    BaselineConfig,
    run_baseline_seeds,
)
from labopt.benchmarks import build_problem
from labopt.engine import (
    ALGORITHM_LAB,
    LabConfig,
    Stack,
    State,
    TERMINATION_MAX_ITERATIONS,
    TERMINATION_STALLED,
    believer_mean,
    draw_weights,
    init,
    propose,
    rank,
    run,
    run_seeds,
    step,
    weights_valid,
)
from labopt.persist import write_trace
from labopt.problem import ConfigError, EvaluationError, Problem, Sense, oriented

from conftest import in_box


def sphere(x):
    return np.sum(x**2, axis=-1)


def box_problem(dim=2, half=10.0, sense=Sense.MINIMIZE, objective=sphere, name="sq"):
    return Problem(
        name=name,
        dim=dim,
        lower=np.full(dim, -half),
        upper=np.full(dim, half),
        sense=sense,
        objective=objective,
    )


def counting(objective, rows):
    """``objective``, appending the row count of every batch it gets to ``rows``."""

    def counted(x):
        rows.append(len(x))
        return objective(x)

    return counted


def one_d_problem():
    return box_problem(dim=1, half=100.0)


def make_state(groups, problem):
    """A one-seed state whose ranked groups hold ``groups`` as given, ids in order."""
    pos = np.array(
        [np.atleast_1d(np.asarray(p, dtype=float)) for g in groups for p in g]
    )
    order = np.arange(len(pos)).reshape(1, len(groups), len(groups[0]))
    return State(
        pos=pos,
        fit=problem.evaluate_batch(pos),
        order=order,
        stack=Stack([problem], 0),
        iteration=0,
    )


def proposals_of(state, leader_w, u):
    """propose() of a one-seed state reshaped to (group, member, dim)."""
    _, num_groups, group_size = state.order.shape
    return propose(
        state, np.array([leader_w], dtype=float), np.array([u], dtype=float)
    ).reshape(num_groups, group_size, state.pos.shape[1])


def best(state, j=0):
    """Id of live seed ``j``'s global leader."""
    return state.order[j, 0, 0]


# filler weights for groups a test does not look at
LEADER_W = [0.5, 0.3, 0.2]


# --- weights ---------------------------------------------------------------

def test_role_weights_validation():
    assert weights_valid(np.array([[0.5, 0.3, 0.2]]), np.array([[0.7]]))
    # leader triple not decreasing
    assert not weights_valid(np.array([[0.3, 0.5, 0.2]]), np.array([[0.7]]))
    # u = 0.5 gives (0.5, 0.5): not strictly decreasing
    assert not weights_valid(np.array([[0.5, 0.3, 0.2]]), np.array([[0.5]]))
    # leader triple sum != 1
    assert not weights_valid(np.array([[0.6, 0.3, 0.2]]), np.array([[0.7]]))
    # ... even by 1e-10, while a sum 5 ulp off 1 is rounding
    assert not weights_valid(np.array([[0.5, 0.3, 0.2 + 1e-10]]), np.array([[0.7]]))
    assert weights_valid(np.array([[0.5, 0.3, 0.2 + 1e-15]]), np.array([[0.7]]))
    # u = 1.2 gives (1.2, -0.2): outside (0, 1)
    assert not weights_valid(np.array([[0.5, 0.3, 0.2]]), np.array([[1.2]]))


def test_sample_weights_contract_holds_over_many_draws():
    rng = np.random.default_rng(7)
    n = 100_000
    (leader,), _ = draw_weights([rng], n, 3)
    w1s, w2s, w3s = leader[:, 0], leader[:, 1], leader[:, 2]
    assert np.all((0.0 < w3s) & (w3s < w2s) & (w2s < w1s) & (w1s < 1.0))
    assert np.all(np.abs(w1s + w2s + w3s - 1.0) <= 1e-12)
    assert w1s.mean() > w2s.mean() > w3s.mean()

    _, (u,) = draw_weights([rng], 10_000, 3)
    assert np.all((0.5 < u) & (u < 1.0))
    assert u.shape == (10_000, 2)  # one u (a weight pair) per non-leader
    assert np.all(u + (1.0 - u) == 1.0)  # exact: 1 - u is exact for u in (0.5, 1)


# --- update equations ------------------------------------------------------

def test_leader_update_hand_value():
    p = one_d_problem()
    # group 0 holds the global leader at 0; group 1 is leader, advocate, believer
    state = make_state([[[0.0], [9.0], [9.0]], [[5.0], [1.0], [2.0]]], p)
    new = proposals_of(state, [LEADER_W, [0.5, 0.3, 0.2]], [[0.7, 0.7]] * 2)
    assert new[1, 0, 0] == pytest.approx(0.7, abs=1e-15)


def test_advocate_update_hand_value():
    p = one_d_problem()
    state = make_state([[[10.0], [7.0], [0.0]], [[10.0], [7.0], [0.0]]], p)
    new = proposals_of(state, [LEADER_W] * 2, [[0.8, 0.7]] * 2)
    assert new[1, 1, 0] == pytest.approx(8.0, abs=1e-15)


def test_believer_update_hand_value():
    p = one_d_problem()
    state = make_state([[[2.0], [4.0], [9.0]], [[2.0], [4.0], [9.0]]], p)
    new = proposals_of(state, [LEADER_W] * 2, [[0.7, 0.75]] * 2)
    assert new[1, 2, 0] == pytest.approx(2.5, abs=1e-15)


def test_believer_mean_is_over_believers_only():
    p = one_d_problem()
    state = make_state(
        [[[100.0], [50.0], [1.0], [2.0], [3.0]], [[0.0], [0.0], [0.0], [0.0], [9.0]]],
        p,
    )
    assert believer_mean(state)[0, 0, 0] == pytest.approx(2.0, abs=1e-15)


def test_updates_clamp_to_box():
    p = box_problem(dim=1, half=1.0)
    # the global leader sits outside the box; anchors are normally feasible
    state = make_state([[[5.0], [1.0], [1.0]], [[1.0], [1.0], [1.0]]], p)
    new = proposals_of(state, [[0.9, 0.06, 0.04]] * 2, [[0.7, 0.7]] * 2)
    assert new[1, 0, 0] == 1.0


# --- ranking ---------------------------------------------------------------

def leader_fits(state, j=0):
    return state.fit[state.order[j, :, 0]].tolist()


def test_rank_group_orders_by_fitness():
    p = one_d_problem()
    state = make_state([[[3.0], [1.0], [2.0]]], p)
    rank(state)
    assert state.fit[state.order[0, 0]].tolist() == [1.0, 4.0, 9.0]
    state.fit = -state.fit  # the values of the maximized objective, in minimize-space
    rank(state)
    assert state.fit[best(state)] == -9.0


def test_rank_group_breaks_ties_by_lower_id():
    p = box_problem(dim=1, half=10.0, objective=lambda x: np.full(np.shape(x)[:-1], 1.0))
    state = make_state([[[0.0]] * 10 + [[3.0], [1.0], [2.0]]], p)
    state.order = np.array([[[12, 10, 11]]])
    rank(state)
    assert state.order[0, 0].tolist() == [10, 11, 12]


def test_rank_global_orders_groups_and_reindexes():
    p = one_d_problem()
    state = make_state(
        [[[5.0], [6.0], [7.0]], [[2.0], [6.0], [7.0]], [[7.0], [8.0], [9.0]]], p
    )
    rank(state)
    assert leader_fits(state) == [4.0, 25.0, 49.0]
    # row g of order is the group ranked g + 1
    assert state.order[0].tolist() == [[3, 4, 5], [0, 1, 2], [6, 7, 8]]
    assert state.fit[best(state)] == 4.0


# --- initialization --------------------------------------------------------

def test_initialize_society_shape_and_accounting():
    rows = []
    p = box_problem(dim=3, objective=counting(sphere, rows))
    cfg = LabConfig(num_groups=4, group_size=5, seed=11)
    state = init([p], cfg)
    assert rows == [20]  # the whole population, in one call
    assert state.pos.shape == (20, 3)
    assert state.order.shape == (1, 4, 5)
    assert sorted(state.order.ravel().tolist()) == list(range(20))
    assert state.iteration == 0
    for i in range(20):
        assert in_box(p, state.pos[i])
        assert state.fit[i] == p.evaluate(state.pos[i])
    # groups are ranked locally and globally
    for row in state.order[0]:
        fits = state.fit[row].tolist()
        assert fits == sorted(fits)
    assert leader_fits(state) == sorted(leader_fits(state))


def test_initialize_is_deterministic_per_seed():
    p = box_problem()
    a = init([p], LabConfig(seed=5))
    b = init([p], LabConfig(seed=5))
    assert np.array_equal(a.pos, b.pos)
    c = init([p], LabConfig(seed=6))
    assert not all(np.array_equal(pa, pc) for pa, pc in zip(a.pos, c.pos))


def test_initialize_keeps_only_the_seeds_below_a_first_batch_failure():
    # Each seed has its own objective, and seed 1's fails on its first
    # batch: seeds 1 and 2 leave, and the state holds seed 0's alone.
    problems = [
        box_problem(objective=counting(sphere, [])),
        box_problem(objective=nan_from_call(1)),
        box_problem(objective=counting(sphere, [])),
    ]
    cfg = LabConfig(seed=2)
    state = init(problems, cfg)
    assert state.stack.seeds == [0]
    assert state.order.shape[0] == 1
    assert state.pos.shape == (cfg.population, 2)
    assert state.fit.shape == (cfg.population,)
    assert np.isfinite(state.fit).all()


# --- step semantics --------------------------------------------------------

class StubGenerator:
    """Serves fixed ``random`` blocks, then defers to a real generator.

    A stubbed block still advances the real stream by its size.
    """

    def __init__(self, blocks, real):
        self.blocks = list(blocks)
        self.real = real

    def random(self, size=None, out=None):
        drawn = self.real.random(size, out=out)
        if self.blocks:
            drawn[...] = np.reshape(self.blocks.pop(0), drawn.shape)
        return drawn


def replay_step(p, cfg, seeds=1, block=None, stubbed=0):
    """Recompute one step of a stack of ``seeds`` seeds by hand.

    Each seed's weights are drawn on their own from a mirror of its
    generator, in the documented order, with ``uniform(0, 1, 3)`` for a
    leader (redrawn on a zero draw or a tie) and ``uniform(0.5, 1)``
    for every other member, and mixed per group with per-group believer
    means.  With ``block``, stack seed ``stubbed``'s first ``random``
    block is replaced by it and its mirror skips one block, so its
    replay is built from the next real block.  Returns the state after
    ``step``, the expected positions by id and the mirror generators.
    """
    state = init([p] * seeds, cfg)

    mirrors = []
    for rng in state.stack.rngs:
        mirrors.append(np.random.default_rng())
        mirrors[-1].bit_generator.state = rng.bit_generator.state
    if block is not None:
        state.stack.rngs[stubbed] = StubGenerator([block], state.stack.rngs[stubbed])
        mirrors[stubbed].random(np.shape(block))

    expected: dict[int, np.ndarray] = {}
    for groups, mirror in zip(state.order.tolist(), mirrors):
        gstar = state.pos[groups[0][0]]
        for row in groups:
            leader, advocate, believers = row[0], row[1], row[2:]
            lead = state.pos[leader]
            adv = state.pos[advocate]
            bmean = np.mean([state.pos[b] for b in believers], axis=0)

            while True:
                draws = mirror.uniform(0.0, 1.0, size=3)
                w = np.sort(draws / draws.sum())[::-1]
                if np.all(draws > 0.0) and w[0] > w[1] > w[2] > 0.0:
                    break
            expected[leader] = np.clip(
                w[0] * gstar + w[1] * adv + w[2] * bmean, p.lower, p.upper
            )
            u = float(mirror.uniform(0.5, 1.0))
            expected[advocate] = np.clip(
                u * lead + (1.0 - u) * bmean, p.lower, p.upper
            )
            for believer in believers:
                u = float(mirror.uniform(0.5, 1.0))
                expected[believer] = np.clip(
                    u * lead + (1.0 - u) * adv, p.lower, p.upper
                )

    step(state, cfg)
    return state, expected, mirrors


def test_step_replays_documented_update_rules():
    """Recompute one full step by hand from the same generator state.

    Verifies the anchor choices, the weight construction, synchronous
    application, and unconditional replacement all at once: every
    individual's new position must match the hand-computed convex
    combination bitwise.
    """
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=3, group_size=4, seed=42)
    state, expected, _ = replay_step(p, cfg)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i


REPLAY_SHAPES = [(2, 3, 1), (5, 12, 1), (4, 11, 6), (3, 20, 2)]


@pytest.mark.parametrize("num_groups, group_size, dim", REPLAY_SHAPES)
def test_step_replay_holds_for_other_shapes(num_groups, group_size, dim):
    # groups of 10+ believers reach numpy's unrolled summation; the
    # batched believer mean must still round like the per-group one
    p = box_problem(dim=dim)
    cfg = LabConfig(
        num_groups=num_groups, group_size=group_size, seed=num_groups + group_size + dim
    )
    state, expected, _ = replay_step(p, cfg)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i


@pytest.mark.parametrize("num_groups, group_size, dim", REPLAY_SHAPES)
def test_step_replay_holds_for_stacked_seeds(num_groups, group_size, dim):
    # the stack's leading seed axis must not change how any seed's
    # believer mean or mix rounds
    p = box_problem(dim=dim)
    cfg = LabConfig(num_groups=num_groups, group_size=group_size, seed=dim)
    state, expected, _ = replay_step(p, cfg, seeds=3)
    assert state.pos.shape == (3 * cfg.population, dim)
    assert sorted(state.order.ravel().tolist()) == list(range(3 * cfg.population))
    for i in range(3 * cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i


REJECTED_CELLS = pytest.mark.parametrize(
    "cell, value",
    [((1, 0), 0.0), ((1, slice(0, 2)), 0.25), ((2, slice(0, 3)), 0.3), ((0, 5), 0.0)],
    ids=["zero-leader-draw", "leader-tie", "leader-triple-tie", "u-on-its-end"],
)


@REJECTED_CELLS
def test_rejected_block_is_redrawn_whole(cell, value):
    # A zero leader draw, a tie or u = 0.5 + 0.5 * 0 rejects the block,
    # which no seeded run reaches (about 2**-53 per draw).  The step
    # must draw the next block whole and move exactly like the replay
    # built from it.
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=3, group_size=4, seed=7)
    block = np.random.default_rng(0).uniform(0.2, 0.8, (3, 6))
    block[cell] = value
    state, expected, (mirror,) = replay_step(p, cfg, block=block)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i
    # the stream continues where the replay left it
    assert state.stack.rngs[0].random(1) == mirror.random(1)


@REJECTED_CELLS
def test_rejected_block_in_one_seed_is_redrawn_for_that_seed_only(cell, value):
    # Seed 1 of a 3-seed stack gets the bad block: it alone draws a
    # second block, and every seed still moves like its own replay.
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=3, group_size=4, seed=7)
    block = np.random.default_rng(0).uniform(0.2, 0.8, (3, 6))
    block[cell] = value
    state, expected, mirrors = replay_step(p, cfg, seeds=3, block=block, stubbed=1)
    for i in range(3 * cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i
    for rng, mirror in zip(state.stack.rngs, mirrors):
        assert rng.random(1) == mirror.random(1)


def test_step_counts_evaluations_and_increments_iteration():
    rows = []
    p = box_problem(objective=counting(sphere, rows))
    cfg = LabConfig()
    state = init([p], cfg)
    step(state, cfg)
    assert state.iteration == 1
    assert rows == [20, 20]
    step(state, cfg)
    assert state.iteration == 2
    assert rows == [20, 20, 20]


def test_step_keeps_rankings_valid():
    p = box_problem()
    cfg = LabConfig(seed=3)
    state = init([p], cfg)
    for _ in range(5):
        step(state, cfg)
        for row in state.order[0]:
            fits = state.fit[row].tolist()
            assert fits == sorted(fits)
        assert leader_fits(state) == sorted(leader_fits(state))


def test_collapsed_society_is_a_fixed_point():
    p = box_problem()
    cfg = LabConfig()
    state = init([p], cfg)
    spot = np.array([1.5, -2.5])
    state.pos[:] = spot
    state.fit[:] = p.evaluate(spot)
    rank(state)
    step(state, cfg)
    # exact in real arithmetic; each w1*x + w2*x + w3*x re-rounds in floats
    for position in state.pos:
        assert np.allclose(position, spot, rtol=1e-14, atol=0.0)


def test_greedy_acceptance_never_worsens_the_global_leader():
    p = box_problem()
    cfg = LabConfig(greedy_acceptance=True, seed=9)
    state = init([p], cfg)
    prev = state.fit[best(state)]
    for _ in range(30):
        step(state, cfg)
        cur = state.fit[best(state)]
        assert cur <= prev
        prev = cur


def test_nongreedy_global_leader_can_regress_but_runs_track_best():
    p = box_problem()
    trace = run(p, LabConfig(seed=2, stall_epsilon=0.0))
    bests = [r.global_best for r in trace.records]
    regressed = any(b2 > b1 for b1, b2 in zip(bests, bests[1:]))
    assert regressed  # unconditional replacement loses ground sometimes
    so_far = [r.best_so_far for r in trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(so_far, so_far[1:]))
    assert trace.best_fitness == min(bests)


def test_step_propagates_evaluation_errors():
    batches = []

    def sometimes_nan(x):
        # every point after the 20th evaluates to nan
        numbers = sum(map(len, batches)) + 1 + np.arange(len(x))
        batches.append(x.copy())
        return np.where(numbers > 20, np.nan, sphere(x))

    p = box_problem(objective=sometimes_nan)
    cfg = LabConfig()
    state = init([p], cfg)
    # the failing seed was the only one: its error is raised at once
    with pytest.raises(EvaluationError) as raised:
        step(state, cfg)
    error = raised.value
    assert error.iteration == 1
    assert "returned nan (batch row 0)" in str(error)
    assert np.array_equal(error.position, batches[1][0])


# --- config validation -----------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        {"num_groups": 1},
        {"group_size": 2},
        {"max_iterations": 0},
        {"stall_window": 0},
        {"stall_epsilon": -1e-9},
    ],
)
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        LabConfig(**kw).validate()


def test_population_property():
    assert LabConfig().population == 20
    assert LabConfig(num_groups=3, group_size=7).population == 21


# --- run -------------------------------------------------------------------


def test_run_is_deterministic_apart_from_wall_clock():
    p = box_problem()
    a = run(p, LabConfig(seed=123))
    b = run(p, LabConfig(seed=123))
    assert a == b


def test_run_record_structure_and_accounting():
    p = box_problem()
    cfg = LabConfig(seed=1, stall_epsilon=0.0)
    trace = run(p, cfg)
    assert trace.records[0].iteration == 0
    assert trace.iterations == cfg.max_iterations
    assert len(trace.records) == cfg.max_iterations + 1
    assert trace.n_evaluations == 20 * (cfg.max_iterations + 1)
    assert trace.termination == TERMINATION_MAX_ITERATIONS
    assert all(len(r.leaders) == cfg.num_groups for r in trace.records)
    assert trace.algorithm == "lab"
    assert trace.sense is Sense.MINIMIZE
    assert in_box(p, np.array(trace.best_position))
    assert trace.best_fitness == p.evaluate(np.array(trace.best_position))


def test_run_single_iteration_limit():
    p = box_problem()
    trace = run(p, LabConfig(seed=0, max_iterations=1))
    assert trace.iterations == 1
    assert trace.termination == TERMINATION_MAX_ITERATIONS


def test_constant_objective_stalls_after_window_plus_one():
    p = box_problem(objective=lambda x: np.full(np.shape(x)[:-1], 4.25))
    cfg = LabConfig(seed=0, stall_window=20)
    trace = run(p, cfg)
    assert trace.termination == TERMINATION_STALLED
    assert trace.iterations == cfg.stall_window + 1
    assert trace.best_fitness == 4.25


def test_stall_window_length_controls_stopping_time():
    p = box_problem(objective=lambda x: np.full(np.shape(x)[:-1], 0.0))
    trace = run(p, LabConfig(seed=0, stall_window=7))
    assert trace.iterations == 8
    assert trace.termination == TERMINATION_STALLED


def test_zero_epsilon_disables_stall():
    p = box_problem(objective=lambda x: np.full(np.shape(x)[:-1], 1.0))
    trace = run(p, LabConfig(seed=0, stall_epsilon=0.0))
    assert trace.termination == TERMINATION_MAX_ITERATIONS
    assert trace.iterations == 100


def test_maximize_runs_improve_in_the_right_direction():
    p = box_problem(sense=Sense.MAXIMIZE, objective=lambda x: -sphere(x))
    trace = run(p, LabConfig(seed=4))
    so_far = [r.best_so_far for r in trace.records]
    assert all(b2 >= b1 for b1, b2 in zip(so_far, so_far[1:]))
    assert trace.best_fitness >= so_far[0]
    assert trace.best_fitness <= 0.0


def test_run_stays_feasible_throughout():
    p = box_problem(dim=4, half=3.0)
    cfg = LabConfig(seed=8, stall_epsilon=0.0)
    state = init([p], cfg)
    for _ in range(40):
        step(state, cfg)
        for position in state.pos:
            assert in_box(p, position)


def test_population_hull_never_expands():
    # every update is a convex combination of current members, so the
    # support function over any direction must be non-increasing
    p = box_problem(dim=3, half=5.0)
    cfg = LabConfig(seed=13, stall_epsilon=0.0)
    state = init([p], cfg)
    rng = np.random.default_rng(99)
    dirs = rng.normal(size=(128, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    prev = state.pos.copy()
    for _ in range(30):
        step(state, cfg)
        cur = state.pos.copy()
        hi_prev = (dirs @ prev.T).max(axis=1)
        hi_cur = (dirs @ cur.T).max(axis=1)
        assert np.all(hi_cur <= hi_prev + 1e-9)
        prev = cur



# Objectives over z, the point rescaled to [-2, 2] per coordinate.
INVARIANT_SHAPES = {
    "bowl": lambda z: np.sum(z * z, axis=-1),
    "tied": lambda z: np.floor(np.sum(z * z, axis=-1)),
    "constant": lambda z: np.full(np.shape(z)[:-1], 1.5),
}

# The support widths may grow by this share of the box span.  A convex
# mix is exact in real arithmetic; in floats it rounds relative to the
# coordinates' magnitude, so the box sits within a thousand spans of the
# origin and that rounding stays some thousand times below the bound.
WIDTH_TOLERANCE = 1e-9


@st.composite
def engine_runs(draw):
    """A problem with a random shape, box span and sense; a config; seeds; steps."""
    dim = draw(st.integers(1, 4))
    span = 10.0 ** np.array(
        draw(st.lists(st.floats(-9.0, 9.0), min_size=dim, max_size=dim))
    )
    lower = span * np.array(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
    )
    name = draw(st.sampled_from(sorted(INVARIANT_SHAPES)))
    shape = INVARIANT_SHAPES[name]
    problem = Problem(
        name=name,
        dim=dim,
        lower=lower,
        upper=lower + span,
        sense=draw(st.sampled_from(Sense)),
        objective=lambda x: shape(4.0 * (x - lower) / span - 2.0),
    )
    config = LabConfig(
        num_groups=draw(st.integers(2, 4)),
        group_size=draw(st.integers(3, 7)),
        greedy_acceptance=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return problem, config, draw(st.integers(1, 3)), draw(st.integers(1, 12))


def support_widths(state, seeds):
    """Each seed's bounding-box width per coordinate, shape ``(seeds, dim)``."""
    pos = state.pos.reshape(seeds, -1, state.pos.shape[-1])
    return pos.max(axis=1) - pos.min(axis=1)


def assert_state_invariants(state, problem, config, rows):
    """Box, evaluations and ranking of a state none of whose seeds failed.

    ``rows`` holds the row count of every batch the objective was given.
    """
    pop = config.population
    assert rows == [len(state.stack.seeds) * pop] * (state.iteration + 1)
    assert np.array_equal(state.pos.clip(problem.lower, problem.upper), state.pos)
    assert all(in_box(problem, x) for x in state.pos)
    key = state.fit.tolist()  # minimize-space
    for k, groups in zip(state.stack.seeds, state.order.tolist()):
        ids = [i for row in groups for i in row]
        assert sorted(ids) == list(range(k * pop, (k + 1) * pop))
        for row in groups:
            assert row == sorted(row, key=lambda i: (key[i], i))
        leaders = [row[0] for row in groups]
        assert leaders == sorted(leaders, key=lambda i: (key[i], i))
        if problem.name == "constant":
            assert ids == list(range(k * pop, (k + 1) * pop))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(engine_runs())
def test_engine_invariants_over_random_shapes_boxes_and_senses(case):
    problem, config, seeds, steps = case
    rows = []
    problem = dataclasses.replace(problem, objective=counting(problem.objective, rows))
    problems = [problem] * seeds
    tolerance = WIDTH_TOLERANCE * (problem.upper - problem.lower)
    state = init(problems, config)
    assert state.stack.seeds == list(range(seeds))
    assert_state_invariants(state, problem, config, rows)
    widths = support_widths(state, seeds)
    for _ in range(steps):
        step(state, config)
        assert state.stack.seeds == list(range(seeds))
        assert_state_invariants(state, problem, config, rows)
        now = support_widths(state, seeds)
        assert np.all(now <= widths + tolerance)
        widths = now


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(engine_runs())
def test_best_so_far_is_the_running_best_of_rank_slot_zero(case):
    # The stall rule reads only each rank slot's best leader so far; slot
    # 0's must be the best fitness, bit for bit, with the earlier value
    # kept on a tie as min() keeps it.
    problem, config, seeds, steps = case
    config = dataclasses.replace(config, max_iterations=4 * steps, stall_window=steps)
    for trace in run_seeds([problem] * seeds, config):
        slot0 = None
        for record in trace.records:
            value = oriented(record.leaders[0], problem.sense)
            slot0 = value if slot0 is None else min(slot0, value)
            assert oriented(record.best_so_far, problem.sense).hex() == slot0.hex()


# --- stacked seeds ---------------------------------------------------------

def trace_bytes(trace, tmp_path):
    return write_trace(trace, tmp_path / "trace.csv").read_bytes()


def machining_problem(key):
    return lambda seed: machining.get(key).problem


def benchmark_problem(spec_id):
    return lambda seed: build_problem(spec_id, noise_seed=seed)


STACK_CASES = {
    "edm:MRR (maximize)": (machining_problem("edm:MRR"), {}),
    "edm:MRR greedy": (machining_problem("edm:MRR"), {"greedy_acceptance": True}),
    "micro_turning:Ra 3x7": (
        machining_problem("micro_turning:Ra"), {"num_groups": 3, "group_size": 7}
    ),
    "F10": (benchmark_problem("F10"), {}),
    "F10 greedy": (benchmark_problem("F10"), {"greedy_acceptance": True}),
    "F19 2x3": (benchmark_problem("F19"), {"num_groups": 2, "group_size": 3}),
    "F32 per-seed noise": (benchmark_problem("F32"), {}),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_run_seeds_yields_what_run_returns_for_each_seed(case, tmp_path):
    make, overrides = STACK_CASES[case]
    config = LabConfig(seed=3, **overrides)
    stacked = list(run_seeds([make(3 + k) for k in range(4)], config))
    assert [t.seed for t in stacked] == [3, 4, 5, 6]
    for k, trace in enumerate(stacked):
        alone = run(make(3 + k), dataclasses.replace(config, seed=3 + k))
        assert trace_bytes(trace, tmp_path) == trace_bytes(alone, tmp_path), k


def run_stack(problems, config):
    """``problems`` as one stack of ``config``'s algorithm: LAB's or a baseline's."""
    if isinstance(config, LabConfig):
        return run_seeds(problems, config)
    return run_baseline_seeds(problems, config)


def stack_config(algorithm, seed, budget=400, max_iterations=LabConfig().max_iterations):
    """LAB for ``max_iterations``, or a baseline at ``budget``, from ``seed``."""
    if algorithm == ALGORITHM_LAB:
        return LabConfig(max_iterations=max_iterations, seed=seed)
    return BaselineConfig(algorithm, budget=budget, seed=seed)


ALGORITHMS = (ALGORITHM_LAB, ALGORITHM_RANDOM, ALGORITHM_SA, ALGORITHM_PSO)

# Every catalog entry's per-seed problem, as `labopt run` builds it.
CATALOG = {
    **{spec.key: machining_problem(spec.key) for spec in machining.machining_registry()},
    **{spec.id: benchmark_problem(spec.id) for spec in benchmarks.registry()},
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_catalog_entry_stacked_yields_each_seeds_lone_trace(algorithm):
    # A baseline spends two full batches and a partial one.  F32 gives
    # each seed its own noise stream, so its stack takes per-seed calls;
    # every other entry shares one call.
    config = stack_config(algorithm, 2, budget=2 * BATCH + 17, max_iterations=5)
    for name, make in CATALOG.items():
        stacked = list(run_stack([make(2 + k) for k in range(3)], config))
        assert [t.seed for t in stacked] == [2, 3, 4], name
        for k, trace in enumerate(stacked):
            (alone,) = run_stack([make(2 + k)], dataclasses.replace(config, seed=2 + k))
            assert trace == alone, (name, k)


@dataclasses.dataclass(frozen=True)
class Negated:
    """The negation of ``objective``; equal when the objectives are, so
    a flipped stack takes the shared call exactly when its original does."""

    objective: object

    def __call__(self, x):
        return -self.objective(x)


def flipped(problem):
    """``problem`` in the opposite sense, with its objective negated."""
    sense = Sense.MINIMIZE if problem.sense is Sense.MAXIMIZE else Sense.MAXIMIZE
    return dataclasses.replace(problem, sense=sense, objective=Negated(problem.objective))


def trace_values(trace):
    """Every fitness value of ``trace``: its best, then each row's, in order."""
    values = [trace.best_fitness]
    for record in trace.records:
        values += [record.global_best, *record.leaders, record.best_so_far]
    return values


def trace_rest(trace):
    """Everything of ``trace`` but its sense and fitness values."""
    return (trace.problem, trace.algorithm, trace.seed, trace.best_position,
            trace.n_evaluations, trace.termination,
            [(r.iteration, len(r.leaders)) for r in trace.records])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_catalog_entry_run_in_the_opposite_sense_mirrors_its_trace(algorithm):
    # Every algorithm minimizes the values the stack hands it, so flipping
    # the sense and negating the objective must negate every trace value
    # bit for bit (signed zeros too) and change nothing else.  Each run
    # builds its problems afresh, so F32's seeds each flip their own
    # problem with a fresh noise stream.
    config = stack_config(algorithm, 5, budget=157, max_iterations=30)
    for name, make in CATALOG.items():
        traces = list(run_stack([make(5 + k) for k in range(3)], config))
        mirrored = list(run_stack([flipped(make(5 + k)) for k in range(3)], config))
        assert len(traces) == len(mirrored) == 3, name
        for trace, mirror in zip(traces, mirrored):
            assert mirror.sense is not trace.sense, name
            assert [v.hex() for v in trace_values(trace)] == [
                (-v).hex() for v in trace_values(mirror)
            ], (name, trace.seed)
            assert trace_rest(trace) == trace_rest(mirror), (name, trace.seed)


@st.composite
def stacks(draw, algorithm):
    """A maker of seed ``k``'s problem, with a random box and sense; a
    count of 2-5 seeds (one seed is its own lone run); and ``algorithm``'s
    config.

    A baseline's budget is below one batch, whole batches, or ends on a
    partial batch.  The seeds share one objective or each get their
    own, so both the shared and the per-seed call are taken.  Any
    objective may be NaN in a band of its first coordinate.  A seed's
    own objective may also add noise from a stream seeded by its seed
    index, as the noisy Quartic does, and may turn its last row NaN from
    a drawn call on; a shared one does neither, since it would see the
    whole stack's batch.  The maker builds each seed's own objective
    afresh, so a lone run sees what the stacked seed saw.
    """
    seeds = draw(st.integers(2, 5))
    shared, noisy = draw(st.sampled_from(((True, False), (False, False), (False, True))))
    dim = draw(st.integers(1, 4))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    span = 10.0 ** np.array(
        draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    )
    center = draw(st.floats(-3.0, 3.0))
    # (centre, half-width) of the NaN band, as shares of the first span
    band = draw(st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0005, 0.02)))
    nan_from = [None] * seeds
    if not shared:
        nan_from = draw(st.lists(st.none() | st.integers(2, 5), min_size=seeds, max_size=seeds))

    def objective(k):
        noise = np.random.default_rng(k)
        calls = [0]

        def f(x):
            calls[0] += 1
            values = np.sum((4.0 * (x - lower) / span - 2.0 - center) ** 2, axis=-1)
            if band:
                values[np.abs((x[:, 0] - lower[0]) / span[0] - band[0]) < band[1]] = np.nan
            if noisy:
                values += noise.uniform(0.0, 1.0, len(x))
            if nan_from[k] is not None and calls[0] >= nan_from[k]:
                values[-1] = np.nan
            return values

        return f

    problem = Problem(
        name="random",
        dim=dim,
        lower=lower,
        upper=lower + span,
        sense=draw(st.sampled_from(Sense)),
        objective=objective(0),
    )

    def make(k):
        return problem if shared else dataclasses.replace(problem, objective=objective(k))

    seed = draw(st.integers(0, 2**32 - 1))
    if algorithm != ALGORITHM_LAB:
        budget = draw(st.one_of(
            st.integers(1, BATCH - 1),
            st.integers(1, 5).map(lambda n: n * BATCH),
            st.integers(BATCH + 1, 5 * BATCH).filter(lambda b: b % BATCH),
        ))
        return make, seeds, BaselineConfig(algorithm, budget=budget, seed=seed)
    config = LabConfig(
        num_groups=draw(st.integers(2, 4)),
        group_size=draw(st.integers(3, 8)),
        max_iterations=draw(st.integers(1, 25)),
        stall_window=draw(st.integers(1, 6)),
        greedy_acceptance=draw(st.booleans()),
        seed=seed,
    )
    return make, seeds, config


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_seeds_match_lone_runs_over_random_shapes_boxes_and_senses(algorithm, data):
    # Each seed's lone outcome, in seed order: the traces of the seeds
    # below the lowest failing one, then that seed's own error, then no
    # more.
    make, seeds, config = data.draw(stacks(algorithm))
    stack = run_stack([make(k) for k in range(seeds)], config)
    for k in range(seeds):
        try:
            alone = next(run_stack([make(k)], dataclasses.replace(config, seed=config.seed + k)))
        except EvaluationError as error:
            with pytest.raises(EvaluationError) as got:
                next(stack)
            assert str(got.value) == str(error), k
            assert np.array_equal(got.value.position, error.position), k
            assert got.value.iteration == error.iteration, k
            break
        assert next(stack) == alone, k
    with pytest.raises(StopIteration):
        next(stack)


def nan_from_call(call, row=3):
    """A sphere objective whose ``row`` turns NaN from its ``call``-th call on."""
    calls = [0]

    def objective(x):
        calls[0] += 1
        values = sphere(x)
        if calls[0] >= call:
            values[row] = np.nan
        return values

    return objective


# A band of F10 where the objective is NaN, |x0 - center| < 0.05, placed
# per algorithm so that seed 1 alone meets it after its first batch (for
# SA at a move, a one-row batch) and seed 0 alone never does.
NAN_BANDS = {ALGORITHM_LAB: 1.2, ALGORITHM_RANDOM: -3.0, ALGORITHM_SA: 5.5, ALGORITHM_PSO: 7.5}


def f10_with_nan_band(center, calls):
    """F10 whose objective is NaN where ``|x0 - center| < 0.05``; it logs batch sizes."""
    f10 = build_problem("F10")

    def objective(x):
        calls.append(len(x))
        return np.where(np.abs(x[:, 0] - center) < 0.05, np.nan, f10.objective(x))

    return dataclasses.replace(f10, objective=objective)


@pytest.mark.parametrize("algorithm", sorted(NAN_BANDS))
def test_every_stack_raises_the_lowest_failing_seeds_lone_error(algorithm):
    calls = []
    problem = f10_with_nan_band(NAN_BANDS[algorithm], calls)
    (lone,) = run_stack([problem], stack_config(algorithm, 0))
    calls.clear()
    with pytest.raises(EvaluationError) as alone:
        next(run_stack([problem], stack_config(algorithm, 1)))
    lone_calls = list(calls)
    assert len(lone_calls) > 1
    assert lone_calls[-1] == (1 if algorithm == ALGORITHM_SA else BATCH)
    # LAB's error carries its iteration, the baselines' none
    assert (alone.value.iteration is None) == (algorithm != ALGORITHM_LAB)

    # Seed 0's trace, then seed 1's error in place of its trace.
    calls.clear()
    stack = run_stack([problem] * 3, stack_config(algorithm, 0))
    assert next(stack) == lone
    with pytest.raises(EvaluationError) as got:
        next(stack)
    assert calls[0] == 3 * BATCH  # one call scores the seeds' first batches
    assert str(got.value) == str(alone.value)
    assert np.array_equal(got.value.position, alone.value.position)
    assert got.value.iteration == alone.value.iteration
    with pytest.raises(StopIteration):
        next(stack)

    # Seed 1 as the lowest live seed: its error is raised at once, and the
    # last objective call is its own share of the batch that failed.
    calls.clear()
    with pytest.raises(EvaluationError) as got:
        next(run_stack([problem] * 2, stack_config(algorithm, 1)))
    assert str(got.value) == str(alone.value)
    assert np.array_equal(got.value.position, alone.value.position)
    assert got.value.iteration == alone.value.iteration
    assert calls[-1] == lone_calls[-1]


def test_lowest_failing_seed_raises_its_own_error_after_lower_traces():
    # Seed 2 fails first (iteration 3), seed 1 later (iteration 7) and
    # seed 0 never: trace 0 comes out, then seed 1's error, the same
    # one a run of seed 1 alone raises.
    config = LabConfig(seed=4, stall_epsilon=0.0)
    calls = (10**9, 8, 4)  # call t + 1 evaluates iteration t
    stack = run_seeds([box_problem(objective=nan_from_call(c)) for c in calls], config)
    assert next(stack).seed == 4
    with pytest.raises(EvaluationError) as stacked:
        next(stack)
    with pytest.raises(EvaluationError) as alone:
        run(box_problem(objective=nan_from_call(8)), LabConfig(seed=5, stall_epsilon=0.0))
    assert stacked.value.iteration == alone.value.iteration == 7
    assert str(stacked.value) == str(alone.value)
    assert "(batch row 3)" in str(stacked.value)
    assert np.array_equal(stacked.value.position, alone.value.position)


def test_failure_in_a_shared_objective_names_the_seeds_own_row():
    # One pure objective scores the whole stack in one call; when that
    # call meets a NaN, the error must still be the lowest failing
    # seed's own, with its own batch row and iteration.
    def nan_in_a_band(x):
        return np.where(np.abs(x[:, 0] - 1.0) < 0.05, np.nan, sphere(x))

    p = box_problem(objective=nan_in_a_band)
    failed_at = set()
    for first in range(10):
        config = LabConfig(seed=first, num_groups=2, group_size=3)
        outcomes = []
        for k in range(3):
            try:
                outcomes.append(run(p, dataclasses.replace(config, seed=first + k)))
            except EvaluationError as exc:
                outcomes.append(exc)
                break
        stack = run_seeds([p] * 3, config)
        for expected in outcomes:
            if isinstance(expected, EvaluationError):
                with pytest.raises(EvaluationError) as got:
                    next(stack)
                assert str(got.value) == str(expected)
                assert got.value.iteration == expected.iteration
                assert np.array_equal(got.value.position, expected.position)
                failed_at.add(expected.iteration)
            else:
                assert next(stack) == expected
    assert failed_at == {0, 2, 3}  # initial populations and later steps


def test_a_failing_shared_call_is_evaluated_again_only_up_to_the_failing_seed():
    # The documented cost of the shared call: on a NaN, the failing
    # seed's batch and those below it are evaluated a second time, the
    # seeds above it are not; a lone seed's batch is evaluated once.
    sizes = []

    def nan_beyond_one(x):
        sizes.append(len(x))
        return np.where(x[:, 0] > 1.0, np.nan, sphere(x))

    p = box_problem(half=1.0, objective=nan_beyond_one)
    config = LabConfig(num_groups=2, group_size=3)
    X = np.zeros((3 * config.population, 2))
    X[config.population + 4, 0] = 2.0  # row 4 of seed 1's batch
    stack = Stack([p] * 3, 0)
    values = stack.evaluate(X, 5)
    assert sizes == [18, 6, 6]
    assert values.shape == (6,)
    assert stack.seeds == [0]
    assert stack.failed.iteration == 5
    assert np.array_equal(stack.failed.position, X[config.population + 4])
    assert "(batch row 4)" in str(stack.failed)

    # a lone seed has none below it: its error is raised at once
    sizes.clear()
    with pytest.raises(EvaluationError) as lone:
        Stack([p], 0).evaluate(X[6:12])
    assert sizes == [6]
    assert lone.value.iteration is None
    assert np.array_equal(lone.value.position, X[config.population + 4])


def test_the_shared_call_is_decided_when_the_stack_is_built():
    # One call per evaluate for shared objectives, also after keep; one
    # per live seed for distinct ones; no objective compared per call.
    rows, compared = [], []

    class Objective:
        def __call__(self, x):
            rows.append(len(x))
            return sphere(x)

        def __eq__(self, other):
            compared.append(1)
            return self is other

    X = np.zeros((9, 2))
    shared = box_problem(objective=Objective())
    distinct = [box_problem(objective=Objective()) for _ in range(3)]
    for problems, calls, kept in (([shared] * 3, [9], [6]), (distinct, [3] * 3, [3] * 2)):
        stack = Stack(problems, 0)
        built = len(compared)
        rows.clear()
        stack.evaluate(X)
        assert rows == calls
        stack.keep([0, 2])
        rows.clear()
        stack.evaluate(X[:6])
        assert rows == kept
        assert len(compared) == built


def test_stack_observe_keeps_each_seeds_rows_and_first_strict_best():
    # The problem is maximized, so observe takes the negated (minimize-
    # space) values, and the rows and bests hold them in the user's sense.
    # All of them are positive, so a best that did not start at inf would
    # never take the first observation.
    p = box_problem(sense=Sense.MAXIMIZE, objective=lambda x: -1.0 - sphere(x))
    stack = Stack([p, p], 0)
    point = np.array([1.0, 2.0])
    stack.observe(0, 5.0, point, (5.0, 6.0))
    stack.observe(1, 9.0, np.array([3.0, 3.0]))
    point[:] = 7.0  # the stack holds its own copy
    stack.observe(0, 5.0, np.array([0.0, 0.0]))  # a tie keeps the first point
    stack.observe(0, 7.0, np.array([4.0, 4.0]))
    first = list(stack.finish({0: "first"}, "algo", 10))
    assert stack.seeds == [1]
    assert stack.best_fitness == [9.0] and len(stack.records[0]) == 1
    stack.observe(0, 2.0, np.array([5.0, 5.0]))  # live seed 0 is seed 1 now
    stack.observe(0, 3.0, np.array([6.0, 6.0]))
    second = list(stack.finish({0: "second"}, "algo", 20))
    assert stack.seeds == stack.records == stack.best_position == []

    (first,), (second,) = first, second
    assert (first.problem, first.algorithm, first.sense, first.seed) == (
        "sq", "algo", Sense.MAXIMIZE, 0
    )
    assert (first.n_evaluations, first.termination) == (10, "first")
    assert first.best_fitness == -5.0 and first.best_position == (1.0, 2.0)
    assert [(r.iteration, r.global_best, r.best_so_far) for r in first.records] == [
        (0, -5.0, -5.0), (1, -5.0, -5.0), (2, -7.0, -5.0)
    ]
    assert [r.leaders for r in first.records] == [(-5.0, -6.0), (), ()]
    assert (second.seed, second.n_evaluations, second.termination) == (1, 20, "second")
    assert second.best_fitness == -2.0 and second.best_position == (5.0, 5.0)
    assert [(r.iteration, r.global_best, r.best_so_far) for r in second.records] == [
        (0, -9.0, -9.0), (1, -2.0, -2.0), (2, -3.0, -2.0)
    ]


def test_a_seeds_cost_is_its_share_of_each_step_it_took(step_clock):
    # Seed 0's constant objective stalls at iteration 21, seed 1 runs to
    # 40; each objective call takes one second.  Both seeds take the 22
    # steps 0..21, of two calls each, and seed 1 alone the 19 after them.
    clock = step_clock
    config = LabConfig(num_groups=2, group_size=3, max_iterations=40)
    flat = box_problem(objective=clock.ticking(lambda x: np.full(len(x), 4.25)))
    bowl = box_problem(objective=clock.ticking(sphere))
    stack = run_seeds([flat, bowl], config)
    first = next(stack)
    clock.now += 100.0  # the caller's time with a trace is no seed's cost
    second = next(stack)
    assert first.iterations == 21 and second.iterations == 40
    assert first.runtime_seconds == 22.0
    assert second.runtime_seconds == 22.0 + 19.0
    assert first.runtime_seconds + second.runtime_seconds == clock.now - 100.0

    # A lone seed's cost is its wall time, on a shared call or its own.
    for seeds in ([bowl], [bowl, bowl]):
        clock.now = 0.0
        costs = [trace.runtime_seconds for trace in run_seeds(seeds, config)]
        assert sum(costs) == pytest.approx(clock.now) and clock.now == 41.0
        assert costs == [pytest.approx(41.0 / len(seeds))] * len(seeds)


def test_run_seeds_rejects_problems_that_differ():
    p = box_problem()
    for other in (
        box_problem(name="other"),
        box_problem(dim=3),
        box_problem(half=5.0),
        box_problem(sense=Sense.MAXIMIZE),
    ):
        with pytest.raises(ConfigError):
            run_seeds([p, other], LabConfig())
    with pytest.raises(ConfigError):
        run_seeds([], LabConfig())
    with pytest.raises(ConfigError):
        run_seeds([p], LabConfig(num_groups=1))
