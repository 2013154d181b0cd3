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

The seeds of one problem run as one stack: the populations of all
seeds share three arrays indexed by individual id, ``pos`` (positions),
``fit`` (fitness) and ``order``, whose ``[j, g]`` row lists the member
ids of live seed ``j``'s ``g``-th ranked group best-first.  One step
draws every seed's weights, builds every proposal by broadcasting and
evaluates them in one batch when the seeds share an objective; each
seed keeps its own generator, ranking and stopping rule, so a seed
runs as it would alone as long as the objective gives it the same
values (``run_seeds`` says when).  ``run`` is the one-seed stack.
The baselines stack their seeds the same way, through the same
``evaluate_seeds`` and ``Recorder``.
"""
from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .problem import ConfigError, EvaluationError, Problem, Sense, is_better, oriented

# Weight sums are checked against this; normalization error is a few ulp.
_WEIGHT_SUM_TOL = 1e-12


@dataclass
class State:
    """The stacked populations of a problem's seeds and their run state.

    Individual ``i`` of stack seed ``k`` has id ``k * population + i``.
    ``pos`` has shape ``(seeds * population, dim)`` and ``fit`` shape
    ``(seeds * population,)``, both indexed by id; ids never change and
    break fitness ties.  The other fields cover the live seeds only:
    ``seeds[j]`` is the stack index of live seed ``j`` and ``rngs[j]``
    its generator, and ``order`` has shape ``(live, num_groups,
    group_size)``: ``order[j, g]`` holds the ids of live seed ``j``'s
    ``g``-th ranked group, leader first, then advocate, then believers,
    so ``order[j, 0, 0]`` is its global leader.  Live seeds have all
    taken ``iteration`` steps, so each has made ``population *
    (iteration + 1)`` evaluations.  ``failed`` is the error of the
    lowest seed whose objective returned a non-finite value, or
    ``None``; every seed from that one up has left the stack.
    """

    pos: np.ndarray
    fit: np.ndarray
    order: np.ndarray
    rngs: list[np.random.Generator]
    seeds: list[int]
    iteration: int
    failed: EvaluationError | None = None

    def keep(self, rows: list[int]) -> None:
        """Keep only the live seeds in ``rows`` (positions in ``seeds``)."""
        self.order = self.order[rows]
        self.rngs = [self.rngs[j] for j in rows]
        self.seeds = [self.seeds[j] for j in rows]


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
    ``runtime_seconds`` is the run's cost in wall seconds: the wall
    time of each step it took (initialization being step 0), split
    evenly among the seeds of its stack that took that step.  A lone
    run's cost is its wall time, and the costs of a stack's seeds add
    up to the stack's.  It is not persisted and takes no part in
    equality.
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
    """One run's records and its best point so far.

    ``observe`` is called once after initialization and once per step,
    with that step's best point; ``trace`` builds the finished run.
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.records: list[IterationRecord] = []
        self.best_fitness: float | None = None
        self.best_position: np.ndarray | None = None

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
        self,
        algorithm: str,
        seed: int,
        n_evaluations: int,
        termination: str,
        runtime_seconds: float,
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
            runtime_seconds=runtime_seconds,
        )


class StepCost:
    """A stacked seed's cost so far: its share of the wall time of each step.

    Every seed of a stack takes the steps from the first until it
    leaves, so the seeds still in the stack have the same cost so far,
    ``seconds``.  The share of a step only changes when the stack does,
    so the clock is read then: ``charge`` splits the time since the
    last charge evenly among the ``seeds`` that took those steps.  A
    seed that failed in them leaves without a trace, and its share with
    it.  ``restart`` leaves the time since the last charge out of every
    seed's cost.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.restart()

    def restart(self) -> None:
        self._since = time.perf_counter()

    def charge(self, seeds: int) -> None:
        now = time.perf_counter()
        self.seconds += (now - self._since) / seeds
        self._since = now


ALGORITHM_LAB = "lab"

TERMINATION_MAX_ITERATIONS = "max_iterations"
TERMINATION_STALLED = "stalled"
TERMINATION_BUDGET = "budget_exhausted"


def weights_valid(leader: np.ndarray, u: np.ndarray) -> bool:
    """The weight contract, checked for every group at once.

    Leader triples (the last axis of ``leader``) lie strictly inside
    (0, 1), strictly decrease and sum to one; ``u`` lies strictly inside
    (0.5, 1), so ``(u, 1 - u)`` strictly decreases and sums to one
    exactly.  Leading axes, such as a stack's seeds, are checked
    together.
    """
    w1, w2, w3 = leader.reshape(-1, 3).T  # 1-D columns compare faster than 2-D
    unit_sum = np.abs(w1 + w2 + w3 - 1.0) <= _WEIGHT_SUM_TOL
    return bool(
        ((w1 < 1.0) & (w1 > w2) & (w2 > w3) & (w3 > 0.0) & unit_sum).all()
        and ((u > 0.5) & (u < 1.0)).all()
    )


def draw_weights(
    rngs: Sequence[np.random.Generator], num_groups: int, group_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one step's update weights for every group of every seed.

    Seed ``j`` draws from ``rngs[j]``.  Returns the leader weights,
    shape ``(seeds, num_groups, 3)``: three uniforms normalized to unit
    sum and sorted in decreasing order.  And ``u``, shape ``(seeds,
    num_groups, group_size - 1)``: column 0 is the advocate's and the
    rest are the believers' draws from (0.5, 1); a move with ``u`` uses
    the weights ``(u, 1 - u)``.

    Each seed's step is one ``rng.random`` block, consumed in the order
    of a per-group draw: leader, advocate, believers.  The blocks are
    stacked and checked together; a seed whose block has a zero leader
    draw (its smallest weight is then 0), a tie or a ``u`` on an end of
    its interval redraws its own block whole.  Its entries are i.i.d.
    uniform, so rejecting the block until every group passes conditions
    each leader triple and each ``u`` on being valid, which is the
    distribution a per-weight redraw gives; only the stream consumed
    after a rejection differs.  A rejection needs an event of about
    2**-53 per draw.
    """
    block = np.empty((len(rngs), num_groups, group_size + 2))
    for rng, seed_block in zip(rngs, block):
        rng.random(out=seed_block)
    while True:
        draws = block[..., :3]
        leader = np.sort(draws / draws.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]
        u = 0.5 + 0.5 * block[..., 3:]  # bit-equal to rng.uniform(0.5, 1.0)
        if weights_valid(leader, u):
            return leader, u
        for rng, seed_block, seed_leader, seed_u in zip(rngs, block, leader, u):
            if not weights_valid(seed_leader, seed_u):
                rng.random(out=seed_block)


def rank(state: State, sense: Sense) -> None:
    """Rebuild each live seed's ``order``: members best-first, then groups.

    Members sort by (oriented fitness, id) and groups by their leader's
    (oriented fitness, id).  The sorts are plain Python: at these sizes
    numpy's argsort or lexsort gains nothing, and their first call
    loads sort kernels that raise the process's peak memory.
    """
    key = state.fit.tolist()
    if sense is Sense.MAXIMIZE:
        key = [-v for v in key]
    stacks = []
    for groups in state.order.tolist():
        rows = [sorted(row, key=lambda i: (key[i], i)) for row in groups]
        rows.sort(key=lambda row: (key[row[0]], row[0]))
        stacks.append(rows)
    if stacks:  # an empty stack keeps its (0, num_groups, group_size) shape
        state.order = np.array(stacks)


def evaluate_seeds(
    problems: Sequence[Problem], X: np.ndarray
) -> tuple[np.ndarray, EvaluationError | None]:
    """The values of ``X``, seed ``j``'s equal share of its rows in turn.

    Seed ``j`` is evaluated by ``problems[j]``.  One objective call
    scores all of ``X`` when the seeds' objectives compare equal, as a
    lone seed's does.  Otherwise, or when that call meets a non-finite
    value in a stack of several seeds, each seed's share is evaluated
    alone, in seed order, so a failing seed gets the very error a run of
    it alone raises.  Returns the values and ``None``; or, when seed
    ``j`` fails, the values of seeds ``0..j-1`` and seed ``j``'s error.
    """
    values: list[np.ndarray] = []
    try:
        if all(p.objective == problems[0].objective for p in problems[1:]):
            try:
                return problems[0].evaluate_batch(X), None
            except EvaluationError:
                if len(problems) == 1:
                    raise
                # found again below, with the failing seed's own share
        size = len(X) // len(problems)
        for j, problem in enumerate(problems):
            values.append(problem.evaluate_batch(X[j * size : (j + 1) * size]))
    except EvaluationError as exc:
        return np.ravel(values), exc
    return np.ravel(values), None


def _evaluate(state: State, problems: Sequence[Problem], X: np.ndarray) -> np.ndarray:
    """The values of ``X``, each live seed's batch in turn, by ``evaluate_seeds``.

    A failing seed's error, with the iteration, replaces ``failed``: any
    earlier one came from a higher seed, which has left the stack.  The
    failing seed leaves it too, together with every seed above it, whose
    traces would not be reported; the values of the seeds below it are
    returned.
    """
    values, failed = evaluate_seeds([problems[k] for k in state.seeds], X)
    if failed is not None:
        failed.iteration = state.iteration
        state.failed = failed
        state.keep(list(range(len(values) * len(state.seeds) // len(X))))
    return values


def draw_uniform(
    rngs: Sequence[np.random.Generator], problem: Problem, size: int
) -> np.ndarray:
    """A ``(size, dim)`` batch drawn uniformly over the box from each generator.

    Returns shape ``(len(rngs), size, dim)``.  Seed ``j``'s batch is
    ``rngs[j].uniform(problem.lower, problem.upper, (size, dim))`` bit
    for bit and draw for draw: numpy computes that as ``lower + (upper -
    lower) * rng.random((size, dim))``, one draw per element, behind
    argument checks that cost most of its time at these sizes.
    """
    block = np.empty((len(rngs), size, problem.dim))
    for rng, seed_block in zip(rngs, block):
        rng.random(out=seed_block)
    block *= problem.upper - problem.lower
    block += problem.lower
    return block


def init(problems: Sequence[Problem], config: LabConfig) -> State:
    """Sample, evaluate, and rank the initial population of every seed.

    Stack seed ``k`` runs ``problems[k]`` with the generator
    ``default_rng(config.seed + k)``.  Its individuals are drawn
    uniformly over the box and dealt into ``num_groups`` groups of
    ``group_size`` by id; both ranking passes are applied before the
    state is returned.
    """
    first = problems[0]
    pop = config.population
    rngs = [np.random.default_rng(config.seed + k) for k in range(len(problems))]
    pos = draw_uniform(rngs, first, pop).reshape(-1, first.dim)
    state = State(
        pos=pos,
        fit=np.full(len(pos), np.nan),
        order=np.arange(len(pos)).reshape(-1, config.num_groups, config.group_size),
        rngs=rngs,
        seeds=list(range(len(problems))),
        iteration=0,
    )
    fit = _evaluate(state, problems, pos)
    state.fit[: fit.size] = fit
    rank(state, first.sense)
    return state


def believer_mean(state: State) -> np.ndarray:
    """Mean position of each group's believers, shape ``(live, num_groups, dim)``.

    The sum over the count is what ``np.mean`` computes, bit for bit,
    without its per-call overhead.
    """
    believers = state.order[..., 2:]
    return state.pos[believers].sum(axis=-2) / believers.shape[-1]


def propose(
    state: State, problem: Problem, leader_w: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Every member's clamped candidate position, in ``order.ravel()`` order.

    ``leader_w`` and ``u`` are laid out as ``draw_weights`` returns
    them.  The first-ranked group's leader is the global leader, so its
    move anchors on its own position.
    """
    pos, order = state.pos, state.order
    if leader_w.shape != (*order.shape[:-1], 3) or u.shape != (
        *order.shape[:-1], order.shape[-1] - 1
    ):
        raise ConfigError(
            "need three leader weights and group_size - 1 values of u per group"
        )
    lead = pos[order[..., 0]]
    adv = pos[order[..., 1]]
    bmean = believer_mean(state)
    mix = np.empty((*order.shape, problem.dim))
    mix[..., 0, :] = (
        leader_w[..., 0:1] * lead[..., :1, :]
        + leader_w[..., 1:2] * adv
        + leader_w[..., 2:3] * bmean
    )
    mix[..., 1, :] = u[..., 0:1] * lead + (1.0 - u[..., 0:1]) * bmean
    ub = u[..., 1:, None]
    mix[..., 2:, :] = ub * lead[..., None, :] + (1.0 - ub) * adv[..., None, :]
    return mix.clip(problem.lower, problem.upper).reshape(-1, problem.dim)


def step(state: State, problems: Sequence[Problem], config: LabConfig) -> State:
    """Advance every live seed by one synchronous iteration.

    All candidate positions are computed from the current (unmutated)
    state, then evaluated and applied.  With greedy acceptance an
    individual keeps its old position unless the candidate is strictly
    better; otherwise candidates replace unconditionally.  Every
    individual is re-evaluated each iteration, whatever the acceptance.
    A seed whose evaluation fails leaves the stack as ``_evaluate``
    says.
    """
    _, num_groups, group_size = state.order.shape
    proposals = propose(
        state, problems[0], *draw_weights(state.rngs, num_groups, group_size)
    )
    state.iteration += 1
    fit = _evaluate(state, problems, proposals)
    # a seed that failed has left with every seed above it: keep the rest
    ids = state.order.ravel()
    proposals = proposals[: len(ids)]
    if config.greedy_acceptance:
        keep = is_better(fit, state.fit[ids], problems[0].sense)
        ids, proposals, fit = ids[keep], proposals[keep], fit[keep]
    state.pos[ids] = proposals
    state.fit[ids] = fit
    rank(state, problems[0].sense)
    return state


def _stalled(history: list[list[float]], window: int, epsilon: float) -> bool:
    # history rows hold each rank slot's oriented best leader so far,
    # one row per iteration, row 0 being the initial population.  The
    # window is only compared against post-step iterations so
    # initialization luck does not count.
    t = len(history) - 1
    if t - window < 1:
        return False
    return all(a - b < epsilon for a, b in zip(history[t - window], history[t]))


def run_seeds(
    problems: Sequence[Problem], config: LabConfig | None = None
) -> Iterator[RunTrace]:
    """Run LAB on every seed of one problem as one stack; yield the traces.

    Seed ``k`` runs on ``problems[k]`` with seed ``config.seed + k``.  The
    problems must share name, dimension, box and sense.  When the live
    seeds' objectives compare equal, one objective call scores a step of
    all of them; otherwise each seed's batch is its own call, in seed
    order.  Each seed keeps its own weights, ranking and stopping, so
    its trace equals the one ``run`` returns for it alone whenever its
    objective sees the batches a lone run gives it: always when every
    seed has its own objective, and in the shared call only when the
    objective is pure and gives each row the same bits at any batch
    size, as every catalog objective does (each noisy Quartic of the
    catalog has its own, so its seeds go one at a time).  A stateful
    shared objective sees the whole stack's batch, so a seed's values
    depend on the seeds beside it; give each seed its own objective, or
    use ``run``, for such an objective.

    Each seed stops at ``max_iterations``, or earlier when no rank
    slot's best leader has improved by at least ``stall_epsilon`` over
    the last ``stall_window`` iterations.  Slot ``k`` is whichever group
    ranks ``k``-th after each step, and its best leader is the best
    leader fitness ever seen in that slot; slot 0's is the best fitness.

    Traces are yielded in seed order, trace ``k`` once seeds ``0..k``
    have all finished; its ``runtime_seconds`` is seed ``k``'s cost, its
    share of each step it took (see ``RunTrace``), and the time the
    caller holds a yielded trace is no seed's cost.  When an objective
    returns a non-finite value, the lowest failing seed's
    ``EvaluationError`` (the one ``run`` raises for it, with its
    ``iteration``) is raised in place of its trace, after the traces of
    the seeds below it.  When the shared call meets that value, the step
    is evaluated again one seed at a time to find the seed, so the
    batches of that seed and of the seeds below it are evaluated twice.

    Raises
    ------
    ConfigError
        At the call, for an invalid config, no problems, or problems
        that differ in name, dimension, box or sense.
    """
    if config is None:
        config = LabConfig()
    config.validate()
    return _run_stack(stackable(problems), config)


def stackable(problems: Sequence[Problem]) -> list[Problem]:
    """``problems`` as a list, checked to be one problem, one per seed.

    Raises ``ConfigError`` for no problems, or for problems that differ
    in name, dimension, box or sense.
    """
    if not problems:
        raise ConfigError("stacked seeds need at least one problem")
    first = problems[0]
    for problem in problems[1:]:
        if (
            (problem.name, problem.dim, problem.sense)
            != (first.name, first.dim, first.sense)
            or not np.array_equal(problem.lower, first.lower)
            or not np.array_equal(problem.upper, first.upper)
        ):
            raise ConfigError(
                f"stacked seeds need one problem; '{problem.name}' differs from "
                f"'{first.name}' in name, dimension, box or sense"
            )
    return list(problems)


def _run_stack(problems: list[Problem], config: LabConfig) -> Iterator[RunTrace]:
    sense = problems[0].sense
    recorders = [Recorder(problem) for problem in problems]
    histories: list[list[list[float]]] = [[] for _ in problems]
    finished: dict[int, RunTrace] = {}
    reported = 0
    cost = StepCost()
    state = init(problems, config)
    taking = len(problems)  # the seeds that took every step since the last charge
    while True:
        heads = state.order[..., 0]
        fit = state.fit[heads]
        bests = zip(
            state.seeds, fit.tolist(), oriented(fit, sense).tolist(), heads[:, 0].tolist()
        )
        stay, done = [], []
        for j, (k, leaders, current, best) in enumerate(bests):
            recorders[k].observe(leaders[0], state.pos[best], leaders)
            history = histories[k]
            history.append(list(map(min, history[-1], current)) if history else current)
            if state.iteration == config.max_iterations:
                done.append((k, TERMINATION_MAX_ITERATIONS))
            elif _stalled(history, config.stall_window, config.stall_epsilon):
                done.append((k, TERMINATION_STALLED))
            else:
                stay.append(j)
        if len(stay) < taking:  # seeds finished or failed: the stack changes
            cost.charge(taking)
            taking = len(stay)
        evaluations = config.population * (state.iteration + 1)
        for k, termination in done:
            finished[k] = recorders[k].trace(
                ALGORITHM_LAB, config.seed + k, evaluations, termination, cost.seconds
            )
        if len(stay) < len(state.seeds):
            state.keep(stay)
        while reported in finished:
            yield finished.pop(reported)
            reported += 1
            cost.restart()  # the caller's time is no seed's cost
        if not state.seeds:
            if state.failed is not None:
                raise state.failed
            return
        step(state, problems, config)


def run(problem: Problem, config: LabConfig | None = None) -> RunTrace:
    """Run LAB on a problem and return its trace: ``run_seeds`` on one seed.

    Parameters
    ----------
    problem : Problem
        Objective, box, and sense.
    config : LabConfig, optional
        Engine parameters, ``seed`` included; defaults are used when
        omitted.

    Returns
    -------
    RunTrace
        Per-iteration records plus the final best point, evaluation
        count, and termination reason.
    """
    return next(run_seeds([problem], config))
