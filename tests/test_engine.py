import numpy as np
import pytest

from labopt.engine import (
    LabConfig,
    State,
    TERMINATION_MAX_ITERATIONS,
    TERMINATION_STALLED,
    believer_mean,
    draw_weights,
    init,
    propose,
    rank,
    run,
    step,
    weights_valid,
)
from labopt.problem import ConfigError, EvaluationError, Problem, Sense


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


def one_d_problem():
    return box_problem(dim=1, half=100.0)


def make_state(groups, problem):
    """A state whose ranked groups hold ``groups`` as given, ids in order."""
    pos = np.array(
        [np.atleast_1d(np.asarray(p, dtype=float)) for g in groups for p in g]
    )
    order = np.arange(len(pos)).reshape(len(groups), len(groups[0]))
    return State(
        pos=pos,
        fit=problem.evaluate_batch(pos),
        order=order,
        rng=np.random.default_rng(0),
        iteration=0,
        n_evaluations=len(pos),
    )


def proposals_of(state, problem, leader_w, u):
    """propose() reshaped to (group, member, dim)."""
    num_groups, group_size = state.order.shape
    return propose(
        state, problem, np.array(leader_w, dtype=float), np.array(u, dtype=float)
    ).reshape(num_groups, group_size, problem.dim)


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
    # u = 1.2 gives (1.2, -0.2): outside (0, 1)
    assert not weights_valid(np.array([[0.5, 0.3, 0.2]]), np.array([[1.2]]))


def test_sample_weights_contract_holds_over_many_draws():
    rng = np.random.default_rng(7)
    n = 100_000
    leader, u = draw_weights(rng, n, 3)
    w1s, w2s, w3s = leader[:, 0], leader[:, 1], leader[:, 2]
    assert np.all((0.0 < w3s) & (w3s < w2s) & (w2s < w1s) & (w1s < 1.0))
    assert np.all(np.abs(w1s + w2s + w3s - 1.0) <= 1e-12)
    assert w1s.mean() > w2s.mean() > w3s.mean()

    _, u = draw_weights(rng, 10_000, 3)
    assert np.all((0.5 < u) & (u < 1.0))
    assert u.shape == (10_000, 2)  # one u (a weight pair) per non-leader
    assert np.all(u + (1.0 - u) == 1.0)  # exact: 1 - u is exact for u in (0.5, 1)


# --- update equations ------------------------------------------------------

def test_leader_update_hand_value():
    p = one_d_problem()
    # group 0 holds the global leader at 0; group 1 is leader, advocate, believer
    state = make_state([[[0.0], [9.0], [9.0]], [[5.0], [1.0], [2.0]]], p)
    new = proposals_of(state, p, [LEADER_W, [0.5, 0.3, 0.2]], [[0.7, 0.7]] * 2)
    assert new[1, 0, 0] == pytest.approx(0.7, abs=1e-15)


def test_leader_update_requires_three_weights():
    p = one_d_problem()
    state = make_state([[[5.0], [1.0], [2.0]], [[5.0], [1.0], [2.0]]], p)
    with pytest.raises(ConfigError):
        proposals_of(state, p, [[0.7, 0.3]] * 2, [[0.7, 0.7]] * 2)


def test_advocate_update_hand_value():
    p = one_d_problem()
    state = make_state([[[10.0], [7.0], [0.0]], [[10.0], [7.0], [0.0]]], p)
    new = proposals_of(state, p, [LEADER_W] * 2, [[0.8, 0.7]] * 2)
    assert new[1, 1, 0] == pytest.approx(8.0, abs=1e-15)


def test_believer_update_hand_value():
    p = one_d_problem()
    state = make_state([[[2.0], [4.0], [9.0]], [[2.0], [4.0], [9.0]]], p)
    new = proposals_of(state, p, [LEADER_W] * 2, [[0.7, 0.75]] * 2)
    assert new[1, 2, 0] == pytest.approx(2.5, abs=1e-15)


def test_believer_mean_is_over_believers_only():
    p = one_d_problem()
    state = make_state(
        [[[100.0], [50.0], [1.0], [2.0], [3.0]], [[0.0], [0.0], [0.0], [0.0], [9.0]]],
        p,
    )
    assert believer_mean(state)[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_updates_clamp_to_box():
    p = box_problem(dim=1, half=1.0)
    # the global leader sits outside the box; anchors are normally feasible
    state = make_state([[[5.0], [1.0], [1.0]], [[1.0], [1.0], [1.0]]], p)
    new = proposals_of(state, p, [[0.9, 0.06, 0.04]] * 2, [[0.7, 0.7]] * 2)
    assert new[1, 0, 0] == 1.0


# --- ranking ---------------------------------------------------------------

def leader_fits(state):
    return state.fit[state.order[:, 0]].tolist()


def test_rank_group_orders_by_fitness():
    p = one_d_problem()
    state = make_state([[[3.0], [1.0], [2.0]]], p)
    rank(state, Sense.MINIMIZE)
    assert state.fit[state.order[0]].tolist() == [1.0, 4.0, 9.0]
    rank(state, Sense.MAXIMIZE)
    assert state.fit[state.best] == 9.0


def test_rank_group_breaks_ties_by_lower_id():
    p = box_problem(dim=1, half=10.0, objective=lambda x: np.full(np.shape(x)[:-1], 1.0))
    state = make_state([[[0.0]] * 10 + [[3.0], [1.0], [2.0]]], p)
    state.order = np.array([[12, 10, 11]])
    rank(state, Sense.MINIMIZE)
    assert state.order[0].tolist() == [10, 11, 12]


def test_rank_global_orders_groups_and_reindexes():
    p = one_d_problem()
    state = make_state(
        [[[5.0], [6.0], [7.0]], [[2.0], [6.0], [7.0]], [[7.0], [8.0], [9.0]]], p
    )
    rank(state, Sense.MINIMIZE)
    assert leader_fits(state) == [4.0, 25.0, 49.0]
    # row g of order is the group ranked g + 1
    assert state.order.tolist() == [[3, 4, 5], [0, 1, 2], [6, 7, 8]]
    assert state.fit[state.best] == 4.0


# --- initialization --------------------------------------------------------

def test_initialize_society_shape_and_accounting():
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=4, group_size=5)
    state = init(p, cfg, seed=11)
    assert state.pos.shape == (20, 3)
    assert state.order.shape == (4, 5)
    assert sorted(state.order.ravel().tolist()) == list(range(20))
    assert state.n_evaluations == 20
    assert state.iteration == 0
    for i in range(20):
        assert p.contains(state.pos[i])
        assert state.fit[i] == p.evaluate(state.pos[i])
    # groups are ranked locally and globally
    for row in state.order:
        fits = state.fit[row].tolist()
        assert fits == sorted(fits)
    assert leader_fits(state) == sorted(leader_fits(state))


def test_initialize_is_deterministic_per_seed():
    p = box_problem()
    a = init(p, LabConfig(), 5)
    b = init(p, LabConfig(), 5)
    assert np.array_equal(a.pos, b.pos)
    c = init(p, LabConfig(), 6)
    assert not all(np.array_equal(pa, pc) for pa, pc in zip(a.pos, c.pos))


# --- step semantics --------------------------------------------------------

class StubGenerator:
    """Serves fixed ``random`` blocks, then defers to a real generator.

    A stubbed block still advances the real stream by its size.
    """

    def __init__(self, blocks, real):
        self.blocks = list(blocks)
        self.real = real

    def random(self, size):
        drawn = self.real.random(size)
        if self.blocks:
            return np.asarray(self.blocks.pop(0), dtype=float).reshape(size)
        return drawn


def replay_step(p, cfg, seed, block=None):
    """Recompute one step by hand from the same generator state.

    Draws each weight on its own, in the documented order, with
    ``uniform(0, 1, 3)`` for a leader (redrawn on a zero draw or a tie)
    and ``uniform(0.5, 1)`` for every other member, and mixes per group
    with per-group believer means.  With ``block``, the step's first
    ``random`` block is replaced by it and the mirror skips one block,
    so the replay is built from the next real block.  Returns the state
    after ``step``, the expected positions by id and the mirror
    generator.
    """
    state = init(p, cfg, seed=seed)

    mirror = np.random.default_rng()
    mirror.bit_generator.state = state.rng.bit_generator.state
    if block is not None:
        state.rng = StubGenerator([block], state.rng)
        mirror.random(np.shape(block))

    expected: dict[int, np.ndarray] = {}
    gstar = state.pos[state.best]
    for row in state.order.tolist():
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

    step(state, p, cfg)
    return state, expected, mirror


def test_step_replays_documented_update_rules():
    """Recompute one full step by hand from the same generator state.

    Verifies the anchor choices, the weight construction, synchronous
    application, and unconditional replacement all at once: every
    individual's new position must match the hand-computed convex
    combination bitwise.
    """
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=3, group_size=4)
    state, expected, _ = replay_step(p, cfg, seed=42)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i


@pytest.mark.parametrize(
    "num_groups, group_size, dim", [(2, 3, 1), (5, 12, 1), (4, 11, 6), (3, 20, 2)]
)
def test_step_replay_holds_for_other_shapes(num_groups, group_size, dim):
    # groups of 10+ believers reach numpy's unrolled summation; the
    # batched believer mean must still round like the per-group one
    p = box_problem(dim=dim)
    cfg = LabConfig(num_groups=num_groups, group_size=group_size)
    state, expected, _ = replay_step(p, cfg, seed=num_groups + group_size + dim)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i


@pytest.mark.parametrize(
    "cell, value",
    [((1, 0), 0.0), ((1, slice(0, 2)), 0.25), ((2, slice(0, 3)), 0.3), ((0, 5), 0.0)],
    ids=["zero-leader-draw", "leader-tie", "leader-triple-tie", "u-on-its-end"],
)
def test_rejected_block_is_redrawn_whole(cell, value):
    # A zero leader draw, a tie or u = 0.5 + 0.5 * 0 rejects the block,
    # which no seeded run reaches (about 2**-53 per draw).  The step
    # must draw the next block whole and move exactly like the replay
    # built from it.
    p = box_problem(dim=3)
    cfg = LabConfig(num_groups=3, group_size=4)
    block = np.random.default_rng(0).uniform(0.2, 0.8, (3, 6))
    block[cell] = value
    state, expected, mirror = replay_step(p, cfg, seed=7, block=block)
    for i in range(cfg.population):
        assert np.array_equal(state.pos[i], expected[i]), i
    # the stream continues where the replay left it
    assert state.rng.random(1) == mirror.random(1)


def test_step_counts_evaluations_and_increments_iteration():
    p = box_problem()
    cfg = LabConfig()
    state = init(p, cfg, 0)
    step(state, p, cfg)
    assert state.iteration == 1
    assert state.n_evaluations == 40
    step(state, p, cfg)
    assert state.n_evaluations == 60


def test_step_keeps_rankings_valid():
    p = box_problem()
    cfg = LabConfig()
    state = init(p, cfg, 3)
    for _ in range(5):
        step(state, p, cfg)
        for row in state.order:
            fits = state.fit[row].tolist()
            assert fits == sorted(fits)
        assert leader_fits(state) == sorted(leader_fits(state))


def test_collapsed_society_is_a_fixed_point():
    p = box_problem()
    cfg = LabConfig()
    state = init(p, cfg, 0)
    spot = np.array([1.5, -2.5])
    state.pos[:] = spot
    state.fit[:] = p.evaluate(spot)
    rank(state, p.sense)
    step(state, p, cfg)
    # exact in real arithmetic; each w1*x + w2*x + w3*x re-rounds in floats
    for position in state.pos:
        assert np.allclose(position, spot, rtol=1e-14, atol=0.0)


def test_greedy_acceptance_never_worsens_the_global_leader():
    p = box_problem()
    cfg = LabConfig(greedy_acceptance=True)
    state = init(p, cfg, 9)
    prev = state.fit[state.best]
    for _ in range(30):
        step(state, p, cfg)
        cur = state.fit[state.best]
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
    calls = {"n": 0}

    def sometimes_nan(x):
        # every point after the 20th evaluates to nan
        numbers = calls["n"] + 1 + np.arange(len(x))
        calls["n"] += len(x)
        return np.where(numbers > 20, np.nan, sphere(x))

    p = box_problem(objective=sometimes_nan)
    cfg = LabConfig()
    state = init(p, cfg, 0)
    with pytest.raises(EvaluationError):
        step(state, p, cfg)


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


def test_run_is_deterministic_apart_from_wall_clock():
    p = box_problem()
    a = run(p, LabConfig(seed=123))
    b = run(p, LabConfig(seed=123))
    assert strip_timing(a) == strip_timing(b)


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
    assert p.contains(np.array(trace.best_position))
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
    state = init(p, cfg, 8)
    for _ in range(40):
        step(state, p, cfg)
        for position in state.pos:
            assert p.contains(position)


def test_population_hull_never_expands():
    # every update is a convex combination of current members, so the
    # support function over any direction must be non-increasing
    p = box_problem(dim=3, half=5.0)
    cfg = LabConfig(seed=13, stall_epsilon=0.0)
    state = init(p, cfg, 13)
    rng = np.random.default_rng(99)
    dirs = rng.normal(size=(128, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    prev = state.pos.copy()
    for _ in range(30):
        step(state, p, cfg)
        cur = state.pos.copy()
        hi_prev = (dirs @ prev.T).max(axis=1)
        hi_cur = (dirs @ cur.T).max(axis=1)
        assert np.all(hi_cur <= hi_prev + 1e-9)
        prev = cur
