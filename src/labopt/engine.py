"""Leader-Advocate-Believer (LAB) population engine.

A society of ``num_groups * group_size`` individuals is split into
groups.  After ranking, the best member of each group is its leader,
the second best its advocate, and the rest are believers.  Groups are
then ordered globally so that the first group holds the global leader.

Each iteration every individual moves to a fresh convex combination of
role-specific anchors:

* leader:   global leader, own advocate, own believer mean
* advocate: own leader, own believer mean
* believer: own leader, own advocate

Weights are redrawn independently for every individual on every
iteration.  All moves are computed from the iteration-start snapshot
and applied synchronously, after which both rankings are rebuilt.

The population is held in three arrays indexed by individual id:
``pos`` (positions), ``fit`` (fitness) and ``order``, whose rows list
each group's member ids best-first with the rows in group rank order.
One step draws every weight in one block, builds every proposal by
broadcasting and evaluates them in one batch, in ``order.ravel()``
order.
"""
from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .problem import ConfigError, Problem, Sense, is_better, oriented

# Weight sums are checked against this; normalization error is a few ulp.
_WEIGHT_SUM_TOL = 1e-12


@dataclass
class State:
    """The population and its run state.

    ``pos`` has shape ``(population, dim)`` and ``fit`` shape
    ``(population,)``, both indexed by individual id; ids never change
    and break fitness ties.  ``order`` has shape ``(num_groups,
    group_size)``: row ``g`` holds the ids of the ``g``-th ranked group,
    leader first, then advocate, then believers.
    """

    pos: np.ndarray
    fit: np.ndarray
    order: np.ndarray
    rng: np.random.Generator
    iteration: int
    n_evaluations: int

    @property
    def best(self) -> int:
        """Id of the global leader, the leader of the first-ranked group."""
        return int(self.order[0, 0])


@dataclass(frozen=True)
class LabConfig:
    """Engine parameters.

    ``group_size`` counts the leader and advocate, so it must be at
    least 3 to leave one believer.  ``stall_epsilon = 0`` disables the
    stall criterion (no improvement is ever strictly below zero).
    """

    num_groups: int = 4
    group_size: int = 5
    max_iterations: int = 100
    stall_window: int = 20
    stall_epsilon: float = 1e-6
    greedy_acceptance: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.num_groups < 2:
            raise ConfigError(f"num_groups must be >= 2, got {self.num_groups}")
        if self.group_size < 3:
            raise ConfigError(f"group_size must be >= 3, got {self.group_size}")
        if self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.stall_window < 1:
            raise ConfigError(f"stall_window must be >= 1, got {self.stall_window}")
        if not self.stall_epsilon >= 0.0:
            raise ConfigError(
                f"stall_epsilon must be >= 0, got {self.stall_epsilon}"
            )

    @property
    def population(self) -> int:
        return self.num_groups * self.group_size


@dataclass(frozen=True)
class IterationRecord:
    """State summary recorded after initialization and after each step."""

    iteration: int
    global_best: float
    leaders: tuple[float, ...]
    best_so_far: float


@dataclass(frozen=True)
class RunTrace:
    """Everything a single optimization run produced.

    ``global_best`` in the records is the fitness of the current global
    leader and may regress when ``greedy_acceptance`` is off;
    ``best_so_far`` never regresses.  Fitness values are reported in
    the user's sense (maximization values are not negated).
    ``runtime_seconds`` is the run's wall time, initialization
    included; it is not persisted and takes no part in equality.
    """

    problem: str
    algorithm: str
    sense: Sense
    seed: int
    records: tuple[IterationRecord, ...]
    best_fitness: float
    best_position: tuple[float, ...]
    n_evaluations: int
    termination: str
    runtime_seconds: float = field(default=0.0, compare=False)

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration


class Recorder:
    """One run's records, its best point so far and its wall time.

    The clock starts when the recorder is made.  ``observe`` is called
    once after initialization and once per step, with that step's best
    point; ``trace`` builds the finished run.
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.records: list[IterationRecord] = []
        self.best_fitness: float | None = None
        self.best_position: np.ndarray | None = None
        self._start = time.perf_counter()

    def observe(
        self, fitness: float, position: np.ndarray, leaders: Sequence[float] = ()
    ) -> None:
        """Record one step whose best point is ``position``, of value ``fitness``."""
        if self.best_fitness is None or is_better(
            fitness, self.best_fitness, self.problem.sense
        ):
            self.best_fitness = fitness
            self.best_position = np.array(position, dtype=float)
        self.records.append(
            IterationRecord(
                iteration=len(self.records),
                global_best=fitness,
                leaders=tuple(leaders),
                best_so_far=self.best_fitness,
            )
        )

    def trace(
        self, algorithm: str, seed: int, n_evaluations: int, termination: str
    ) -> RunTrace:
        return RunTrace(
            problem=self.problem.name,
            algorithm=algorithm,
            sense=self.problem.sense,
            seed=seed,
            records=tuple(self.records),
            best_fitness=self.best_fitness,
            best_position=tuple(float(v) for v in self.best_position),
            n_evaluations=n_evaluations,
            termination=termination,
            runtime_seconds=time.perf_counter() - self._start,
        )


TERMINATION_MAX_ITERATIONS = "max_iterations"
TERMINATION_STALLED = "stalled"
TERMINATION_BUDGET = "budget_exhausted"


def weights_valid(leader: np.ndarray, u: np.ndarray) -> bool:
    """The weight contract, checked for every group at once.

    Leader triples lie strictly inside (0, 1), strictly decrease and
    sum to one; ``u`` lies strictly inside (0.5, 1), so ``(u, 1 - u)``
    strictly decreases and sums to one exactly.
    """
    w1, w2, w3 = leader.T
    unit_sum = np.abs(w1 + w2 + w3 - 1.0) <= _WEIGHT_SUM_TOL
    return bool(
        ((w1 < 1.0) & (w1 > w2) & (w2 > w3) & (w3 > 0.0) & unit_sum).all()
        and ((u > 0.5) & (u < 1.0)).all()
    )


def draw_weights(
    rng: np.random.Generator, num_groups: int, group_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one step's update weights for every group.

    Returns the leader weights, shape ``(num_groups, 3)``: three
    uniforms normalized to unit sum and sorted in decreasing order.
    And ``u``, shape ``(num_groups, group_size - 1)``: column 0 is the
    advocate's and the rest are the believers' draws from (0.5, 1); a
    move with ``u`` uses the weights ``(u, 1 - u)``.

    The whole step is one ``rng.random`` block, consumed in the order
    of a per-group draw: leader, advocate, believers.  A block with a
    zero leader draw, a tie or a ``u`` on an end of its interval is
    redrawn whole.  Its entries are i.i.d. uniform, so rejecting the
    block until every group passes conditions each leader triple and
    each ``u`` on being valid, which is the distribution a per-weight
    redraw gives; only the stream consumed after a rejection differs.
    A rejection needs an event of about 2**-53 per draw.
    """
    while True:
        block = rng.random((num_groups, group_size + 2))
        draws = block[:, :3]
        leader = np.sort(draws / draws.sum(axis=1, keepdims=True), axis=1)[:, ::-1]
        u = 0.5 + 0.5 * block[:, 3:]  # bit-equal to rng.uniform(0.5, 1.0)
        if (draws > 0.0).all() and weights_valid(leader, u):
            return leader, u


def rank(state: State, sense: Sense) -> None:
    """Rebuild ``order``: members best-first, then groups by leader.

    Members sort by (oriented fitness, id) and groups by their leader's
    (oriented fitness, id).  The sorts are plain Python: at these sizes
    numpy's argsort or lexsort gains nothing, and their first call
    loads sort kernels that raise the process's peak memory.
    """
    key = state.fit.tolist()
    if sense is Sense.MAXIMIZE:
        key = [-v for v in key]
    rows = [sorted(row, key=lambda i: (key[i], i)) for row in state.order.tolist()]
    rows.sort(key=lambda row: (key[row[0]], row[0]))
    state.order = np.array(rows)


def init(problem: Problem, config: LabConfig, seed: int) -> State:
    """Sample, evaluate, and rank the initial population.

    Individuals are drawn uniformly over the box and dealt into
    ``num_groups`` groups of ``group_size`` by id; both ranking passes
    are applied before the state is returned.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    pop = config.population
    pos = rng.uniform(problem.lower, problem.upper, size=(pop, problem.dim))
    state = State(
        pos=pos,
        fit=problem.evaluate_batch(pos),
        order=np.arange(pop).reshape(config.num_groups, config.group_size),
        rng=rng,
        iteration=0,
        n_evaluations=pop,
    )
    rank(state, problem.sense)
    return state


def believer_mean(state: State) -> np.ndarray:
    """Mean position of each group's believers, shape ``(num_groups, dim)``."""
    return np.mean(state.pos[state.order[:, 2:]], axis=1)


def propose(
    state: State, problem: Problem, leader_w: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Every member's clamped candidate position, in ``order.ravel()`` order.

    ``leader_w`` and ``u`` are laid out as ``draw_weights`` returns
    them.  The first-ranked group's leader is the global leader, so its
    move anchors on its own position.
    """
    num_groups, group_size = state.order.shape
    if leader_w.shape != (num_groups, 3) or u.shape != (num_groups, group_size - 1):
        raise ConfigError(
            "need three leader weights and group_size - 1 values of u per group"
        )
    pos, order = state.pos, state.order
    lead = pos[order[:, 0]]
    adv = pos[order[:, 1]]
    bmean = believer_mean(state)
    mix = np.empty((num_groups, group_size, problem.dim))
    mix[:, 0] = (
        leader_w[:, 0:1] * pos[order[0, 0]]
        + leader_w[:, 1:2] * adv
        + leader_w[:, 2:3] * bmean
    )
    mix[:, 1] = u[:, 0:1] * lead + (1.0 - u[:, 0:1]) * bmean
    ub = u[:, 1:, None]
    mix[:, 2:] = ub * lead[:, None] + (1.0 - ub) * adv[:, None]
    return np.clip(mix, problem.lower, problem.upper).reshape(-1, problem.dim)


def step(state: State, problem: Problem, config: LabConfig) -> State:
    """Advance the population by one synchronous iteration.

    All candidate positions are computed from the current (unmutated)
    state, then evaluated in one batch and applied.  With greedy
    acceptance an individual keeps its old position unless the
    candidate is strictly better; otherwise candidates replace
    unconditionally.  Every individual is re-evaluated each iteration,
    so the evaluation count grows by the population size regardless of
    acceptance.
    """
    proposals = propose(state, problem, *draw_weights(state.rng, *state.order.shape))
    ids = state.order.ravel()
    fit = problem.evaluate_batch(proposals)
    state.n_evaluations += len(ids)
    if config.greedy_acceptance:
        keep = is_better(fit, state.fit[ids], problem.sense)
        ids, proposals, fit = ids[keep], proposals[keep], fit[keep]
    state.pos[ids] = proposals
    state.fit[ids] = fit

    rank(state, problem.sense)
    state.iteration += 1
    return state


def _stalled(history: list[list[float]], window: int, epsilon: float) -> bool:
    # history rows hold oriented best-so-far values, one row per
    # iteration, row 0 being the initial population.  The window is
    # only compared against post-step iterations so initialization luck
    # does not count.
    t = len(history) - 1
    if t - window < 1:
        return False
    return all(a - b < epsilon for a, b in zip(history[t - window], history[t]))


def run(problem: Problem, config: LabConfig | None = None) -> RunTrace:
    """Run LAB on a problem and return its trace.

    The run stops at ``max_iterations``, or earlier when neither the
    global best nor the best leader of any group rank has improved by
    at least ``stall_epsilon`` over the last ``stall_window``
    iterations.  The per-rank series follow rank slots, not groups:
    slot ``k`` is whichever group ranks ``k``-th after each step, and
    its series is the best leader fitness ever seen in that slot.

    Parameters
    ----------
    problem : Problem
        Objective, box, and sense.
    config : LabConfig, optional
        Engine parameters; defaults are used when omitted.

    Returns
    -------
    RunTrace
        Per-iteration records plus the final best point, evaluation
        count, and termination reason.
    """
    if config is None:
        config = LabConfig()
    sense = problem.sense
    recorder = Recorder(problem)
    state = init(problem, config, config.seed)
    history: list[list[float]] = []

    def observe() -> None:
        leaders = state.fit[state.order[:, 0]].tolist()
        recorder.observe(leaders[0], state.pos[state.best], leaders)
        current = [oriented(v, sense) for v in leaders]
        if history:
            current = [min(a, b) for a, b in zip(history[-1][1:], current)]
        history.append([oriented(recorder.best_fitness, sense), *current])

    observe()
    termination = TERMINATION_MAX_ITERATIONS
    while state.iteration < config.max_iterations:
        step(state, problem, config)
        observe()
        if state.iteration < config.max_iterations and _stalled(
            history, config.stall_window, config.stall_epsilon
        ):
            termination = TERMINATION_STALLED
            break

    return recorder.trace("lab", config.seed, state.n_evaluations, termination)
