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

The seeds of one problem, or of several, run as one stack: the
populations of all seeds share one ``State``.  One step draws every
seed's weights, builds every proposal by broadcasting and evaluates them
with one ``Stack.evaluate``; each seed keeps its own generator, box,
ranking and stopping rule.  ``run`` is the one-seed stack.  A
``Stack`` holds the live seeds of LAB and of the baselines alike, and
its docstring states the rules every stack keeps.
"""
from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .problem import ConfigError, EvaluationError, Problem, Sense, oriented

# Weight sums are checked against this; normalization error is a few ulp.
_WEIGHT_SUM_TOL = 1e-12


@dataclass
class State:
    """The stacked populations of a stack's seeds and their ``Stack``.

    Individual ``i`` of stack seed ``k`` has id ``k * population + i``.
    ``pos`` (positions, shape ``(ids, width)``, padded as ``Stack``
    says) and ``fit`` (shape
    ``(ids,)``) are indexed by id and cover the seeds that survived
    initialization; ``fit`` holds the minimize-space values
    ``Stack.evaluate`` returned.  Ids never change and break fitness
    ties.  ``order`` covers the live seeds of ``stack`` only, in its
    order: it has shape ``(live, num_groups, group_size)``,
    and ``order[j, g]`` holds the ids of live seed ``j``'s ``g``-th
    ranked group, leader first, then advocate, then believers, so
    ``order[j, 0, 0]`` is its global leader.  Live seeds have all taken
    ``iteration`` steps, so each has made ``population * (iteration +
    1)`` evaluations.
    """

    pos: np.ndarray
    fit: np.ndarray
    order: np.ndarray
    stack: Stack
    iteration: int


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
    ``runtime_seconds`` is the run's cost in wall seconds, summed over
    each step it took (initialization being step 0): the time of the
    objective call that scored its batch, split evenly among the seeds
    that call scored, plus an even share, among the seeds of its stack
    that took the step, of the rest of the step's wall time.  So a seed
    of a dear problem pays for its own calls, not for a cheap problem's.
    A lone run's cost is its wall time, and the costs of a stack's
    seeds add up to the stack's.  It is not persisted and takes no part
    in equality.
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


class Stack:
    """The live seeds of a stack, for every algorithm.

    Stack entry ``k`` runs ``problems[k]`` with the generator
    ``default_rng(seeds[k])``, and its trace carries ``seeds[k]``.  The
    lists ``problems``, ``rngs``, ``records`` (each seed's
    ``IterationRecord`` rows so far), ``best_fitness`` and ``best_position``
    (each seed's best value so far and a copy of its point, both kept by
    ``observe``), ``costs`` (each seed's objective-call time so far) and
    ``seeds`` (stack indices), and the arrays ``boxes`` and ``span``
    cover the live seeds, lowest first, and ``keep`` filters them
    together.  ``width`` is the stack's largest dimension.  ``boxes``
    holds each seed's lower and upper bounds, padded with ``[0, 0]`` to
    ``width``, as two arrays of shape ``(live, 1, width)`` that
    broadcast over a seed's batch of rows, and ``span`` is their
    difference.  The rules of every stack:

    * The orientation.  The stack is the only code that reads a
      problem's sense.  ``evaluate`` returns minimize-space values, a
      maximized problem's negated, and ``observe`` takes them, so every
      algorithm minimizes.  Negation is exact, so every comparison, tie
      and gap has the bits it has in the problem's own sense.  A seed's
      best value starts at ``inf``, so its first observation replaces
      it; the trace rows and ``RunTrace.best_fitness`` are in the
      user's sense.
    * The padding.  Every algorithm's positions have ``width``
      coordinates; a seed's coordinates past its own dimension sit in
      the box ``[0, 0]``, so they stay zero, ``evaluate`` hands each
      objective only its own columns and a trace's best point keeps
      only them.  Every update is elementwise, so a seed's own columns
      have the bits of its lone run; the one exception is a 1-D LAB
      seed with 8 or more believers in a wider stack, whose believer
      sum numpy orders differently once padded.
    * The shared call.  ``evaluate`` scores each run of consecutive live
      seeds whose problems have equal objectives, dimension and sense in
      one objective call, in seed order.  The runs are found when the
      stack is built and relabelled by ``keep``, which only takes
      subsets, never per call; one problem's stack is one run.  A
      seed's trace equals its lone run's whenever its objective sees the
      batches a lone run gives it: always when every seed has its own
      objective, and in a shared call only when the objective is pure
      and gives each row the same bits at any batch size, as every
      catalog objective does (each noisy Quartic of the catalog has its
      own, so its seeds go one at a time).  A stateful shared objective
      sees the whole run's batch, so give each seed its own objective,
      or run it alone.
    * The failure rule.  When an objective returns a non-finite value,
      the lowest failing seed leaves with every seed above it, of its
      problem and of every later one, and its ``EvaluationError`` (the
      one its lone run raises) is raised in place of its trace, after
      the traces of the seeds below it.  ``failed`` holds it until then.
      When a shared call meets that value, its run is evaluated again
      one seed at a time to find the seed, so the batches of that seed
      and of the run's seeds below it are evaluated twice.  The run's
      seeds share the failed call's time evenly, and each pays for its
      own second call.
    * The seed-order yield.  A seed leaves when it finishes, and
      ``finish`` yields trace ``k`` once seeds ``0..k`` have all
      finished.
    * The per-seed cost.  A trace's ``runtime_seconds`` is its seed's
      cost (see ``RunTrace``): the time of its run's objective calls,
      split evenly among the run's seeds, plus an even share of the rest
      of each step it took.  Each seed's call time so far is in
      ``costs``.  The live seeds have all taken the steps since the
      first, so they share one rest so far, ``seconds``; that share only
      changes when the stack does, so ``keep`` reads the clock and
      splits the time since the last reading, less the calls charged in
      it, evenly among the seeds that took it.  A stack that is one run
      as wide as itself times none of its calls, which would split like
      the rest.  A failing seed
      leaves without a trace, and its cost with it.  The time the
      caller holds a yielded trace is no seed's cost.
    """

    def __init__(self, problems: Sequence[Problem], seeds: Sequence[int]) -> None:
        self.problems = list(problems)
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.records: list[list[IterationRecord]] = [[] for _ in problems]
        self.best_fitness = [np.inf] * len(problems)
        self.best_position: list[np.ndarray | None] = [None] * len(problems)
        self.seeds = list(range(len(problems)))
        self.costs = [0.0] * len(problems)
        self.width = max((p.dim for p in problems), default=0)
        # Seed j's run label: the index of the first seed of its run.
        self._labels = [0] * len(problems)
        for j in range(1, len(problems)):
            p, q = problems[j - 1], problems[j]
            same = q is p or (
                p.objective == q.objective and (p.dim, p.sense) == (q.dim, q.sense)
            )
            self._labels[j] = self._labels[j - 1] if same else j
        self._find_runs()
        lower, upper = np.zeros((2, len(problems), 1, self.width))
        for j, problem in enumerate(self.problems):
            lower[j, 0, : problem.dim] = problem.lower
            upper[j, 0, : problem.dim] = problem.upper
        self.boxes = lower, upper
        self.span = upper - lower
        self._entry_seeds = list(seeds)
        self.failed: EvaluationError | None = None
        self.seconds = 0.0
        self._charged = 0.0
        self._since = time.perf_counter()
        self._finished: dict[int, RunTrace] = {}
        self._reported = 0

    def _find_runs(self) -> None:
        labels = self._labels
        starts = [j for j in range(len(labels)) if j == 0 or labels[j] != labels[j - 1]]
        self._runs = list(zip(starts, starts[1:] + [len(labels)]))
        # One run as wide as the stack takes the whole batch as it is.
        self._whole = len(self._runs) == 1 and self.problems[0].dim == self.width

    def keep(self, rows: Sequence[int]) -> None:
        """Keep only the live seeds in ``rows`` (positions in ``seeds``), charging first."""
        now = time.perf_counter()
        self.seconds += (now - self._since - self._charged) / len(self.seeds)
        self._since = now
        self._charged = 0.0
        rows = list(rows)
        for live in (
            self.problems, self.rngs, self.records, self.best_fitness,
            self.best_position, self.seeds, self.costs, self._labels,
        ):
            live[:] = [live[j] for j in rows]
        if not rows:  # an empty stack reads no box and calls no objective
            return
        self.boxes = tuple(bound[rows] for bound in self.boxes)
        self.span = self.span[rows]
        self._find_runs()

    def observe(
        self, j: int, fitness: float, position: np.ndarray, leaders: Sequence[float] = ()
    ) -> None:
        """Record one step of live seed ``j``, whose best point is ``position``.

        ``fitness`` is the point's value and ``leaders`` the step's leader
        values, if any, all in minimize-space; the row holds them in the
        user's sense.  The seed's best point changes only on a strict
        improvement, to a copy of ``position``, padding included; its trace
        keeps the seed's own coordinates.
        """
        records = self.records[j]
        best = self.best_fitness[j]
        if fitness < best:
            best = self.best_fitness[j] = fitness
            self.best_position[j] = np.array(position, dtype=float)
        if self.problems[j].sense is Sense.MAXIMIZE:
            fitness, best, leaders = -fitness, -best, [-v for v in leaders]
        records.append(IterationRecord(len(records), fitness, tuple(leaders), best))

    def evaluate(self, X: np.ndarray, iteration: int | None = None) -> np.ndarray:
        """The values of ``X``, live seed ``j``'s equal share of its rows in turn.

        By the orientation, padding, shared-call and failure rules: the
        values are in minimize-space, and a failing seed's error, given
        ``iteration``, replaces ``failed`` (any earlier one came from a
        higher seed), and the values of the seeds below it are returned.
        With none below, the error is raised at once; every lower seed
        has been yielded by then.
        """
        problems = self.problems
        runs = self._runs
        if self._whole:  # one call for the whole stack, timed by no one
            try:
                return oriented(problems[0].evaluate_batch(X), problems[0].sense)
            except EvaluationError as failed:
                if len(problems) == 1:
                    failed.iteration = iteration
                    raise
            runs = [(j, j + 1) for j in range(len(problems))]  # found again, seed by seed
        size = len(X) // len(problems)
        values: list[np.ndarray] = []
        ready = 0  # the seeds whose values are in
        try:
            for start, stop in runs:
                try:
                    share = self._call(start, stop, X[start * size : stop * size])
                except EvaluationError:
                    if stop - start == 1:
                        raise
                    share = None
                if share is None:  # found again, seed by seed
                    for j in range(start, stop):
                        values.append(self._call(j, j + 1, X[j * size : (j + 1) * size]))
                        ready = j + 1
                    continue
                values.append(share)
                ready = stop
        except EvaluationError as failed:
            failed.iteration = iteration
            if not ready:
                raise
            self.failed = failed
            self.keep(range(ready))
        return np.concatenate(values)

    def _call(self, start: int, stop: int, X: np.ndarray) -> np.ndarray:
        """Live seeds ``start..stop-1``'s values of ``X`` in one call, its time split among them."""
        problem = self.problems[start]
        began = time.perf_counter()
        try:
            return oriented(problem.evaluate_batch(X[:, : problem.dim]), problem.sense)
        finally:
            took = time.perf_counter() - began
            self._charged += took
            took /= stop - start
            for j in range(start, stop):
                self.costs[j] += took

    def finish(
        self, done: dict[int, str], algorithm: str, evaluations: int
    ) -> Iterator[RunTrace]:
        """Trace the live seeds ``done`` maps to their termination; yield what is ready.

        The leaving seeds are charged their steps, each has made
        ``evaluations`` evaluations, and every trace whose lower seeds
        have all been yielded is yielded, in seed order.  Once no seed is
        left, the lowest failure is raised.
        """
        if done:
            leaving = [
                (self.seeds[j], self.problems[j], self.records[j], self.best_fitness[j],
                 self.best_position[j], self.costs[j], termination)
                for j, termination in done.items()
            ]
            self.keep([j for j in range(len(self.seeds)) if j not in done])
            for k, problem, records, fitness, position, cost, termination in leaving:
                self._finished[k] = RunTrace(
                    problem=problem.name,
                    algorithm=algorithm,
                    sense=problem.sense,
                    seed=self._entry_seeds[k],
                    records=tuple(records),
                    best_fitness=oriented(fitness, problem.sense),
                    best_position=tuple(position.tolist()[: problem.dim]),
                    n_evaluations=evaluations,
                    termination=termination,
                    runtime_seconds=self.seconds + cost,
                )
        while self._reported in self._finished:
            yield self._finished.pop(self._reported)
            self._reported += 1
            self._since = time.perf_counter()  # the caller's time is no seed's cost
        if not self.seeds and self.failed is not None:
            raise self.failed


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


def rank(state: State) -> None:
    """Rebuild each live seed's ``order``: members best-first, then groups.

    Members sort by (fitness, id) and groups by their leader's (fitness,
    id).  The sorts are plain Python: at these sizes numpy's argsort or
    lexsort gains nothing, and their first call loads sort kernels that
    raise the process's peak memory.
    """
    key = state.fit.tolist()
    stacks = []
    for groups in state.order.tolist():
        rows = [sorted(row, key=lambda i: (key[i], i)) for row in groups]
        rows.sort(key=lambda row: (key[row[0]], row[0]))
        stacks.append(rows)
    state.order = np.array(stacks)


def draw_random(stack: Stack, size: int) -> np.ndarray:
    """Each live seed's ``rng.random((size, dim))`` block, zero-padded to ``width``.

    Returns shape ``(live, size, width)``.  A seed as wide as the stack
    draws into its block in place; numpy draws only into contiguous
    arrays, so a narrower one's block is drawn on its own and copied.
    """
    width = stack.width
    block = np.empty((len(stack.rngs), size, width))
    for rng, problem, seed_block in zip(stack.rngs, stack.problems, block):
        if problem.dim == width:
            rng.random(out=seed_block)
        else:
            seed_block[:, : problem.dim] = rng.random((size, problem.dim))
            seed_block[:, problem.dim :] = 0.0
    return block


def draw_uniform(stack: Stack, size: int) -> np.ndarray:
    """A batch of ``size`` points drawn uniformly over each live seed's box.

    Returns shape ``(live, size, width)``, padded as ``Stack`` says.
    Seed ``j``'s own columns are ``rngs[j].uniform(lower, upper, (size,
    dim))`` bit for bit and draw for draw: numpy computes that as
    ``lower + (upper - lower) * rng.random((size, dim))``, one draw per
    element, behind argument checks that cost most of its time at these
    sizes.
    """
    block = draw_random(stack, size)
    block *= stack.span
    block += stack.boxes[0]
    return block


def init(
    problems: Sequence[Problem], config: LabConfig, seeds: Sequence[int] | None = None
) -> State:
    """Sample, evaluate, and rank the initial population of every seed.

    The seeds are a ``Stack(problems, seeds)``, checked and ``seeds``
    defaulting as ``stack_entries`` says.  Each seed's individuals are
    drawn uniformly over its own box, in its own dimension, padded with
    zeros to the stack's width, and dealt into ``num_groups`` groups of
    ``group_size`` by id; both ranking passes are applied before the
    state is returned.  A seed whose first batch fails leaves with every
    seed above it, as ``Stack.evaluate`` says, so the state holds only
    the seeds below it.
    """
    stack = Stack(*stack_entries(problems, config, seeds))
    pos = draw_uniform(stack, config.population).reshape(-1, stack.width)
    fit = np.array(stack.evaluate(pos, 0))  # step writes into it
    order = np.arange(fit.size).reshape(-1, config.num_groups, config.group_size)
    state = State(
        pos=pos[: fit.size],
        fit=fit,
        order=order,
        stack=stack,
        iteration=0,
    )
    rank(state)
    return state


def believer_mean(state: State) -> np.ndarray:
    """Mean position of each group's believers, shape ``(live, num_groups, dim)``.

    The sum over the count is what ``np.mean`` computes, bit for bit,
    without its per-call overhead.
    """
    believers = state.order[..., 2:]
    return state.pos[believers].sum(axis=-2) / believers.shape[-1]


def propose(state: State, leader_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Every member's candidate position, in ``order.ravel()`` order.

    ``leader_w`` and ``u`` are laid out as ``draw_weights`` returns them
    for ``state.order``'s shape.  Each seed's candidates are clamped to
    its own padded box, ``Stack.boxes``.  The
    first-ranked group's leader is the global leader, so its move
    anchors on its own position.
    """
    pos, order = state.pos, state.order
    width = pos.shape[1]
    lead = pos[order[..., 0]]
    adv = pos[order[..., 1]]
    bmean = believer_mean(state)
    mix = np.empty((*order.shape, width))
    mix[..., 0, :] = (
        leader_w[..., 0:1] * lead[..., :1, :]
        + leader_w[..., 1:2] * adv
        + leader_w[..., 2:3] * bmean
    )
    mix[..., 1, :] = u[..., 0:1] * lead + (1.0 - u[..., 0:1]) * bmean
    ub = u[..., 1:, None]
    mix[..., 2:, :] = ub * lead[..., None, :] + (1.0 - ub) * adv[..., None, :]
    return mix.reshape(len(order), -1, width).clip(*state.stack.boxes).reshape(-1, width)


def step(state: State, config: LabConfig) -> None:
    """Advance every live seed of ``state`` by one synchronous iteration, in place.

    All candidate positions are computed from the current (unmutated)
    state, then evaluated and applied.  With greedy acceptance an
    individual keeps its old position unless the candidate is strictly
    better; otherwise candidates replace unconditionally.  Every
    individual is re-evaluated each iteration, whatever the acceptance.
    A seed whose evaluation fails leaves ``order`` with every seed above
    it, as ``Stack.evaluate`` says; when it was the lowest live seed, its
    error is raised.
    """
    _, num_groups, group_size = state.order.shape
    proposals = propose(state, *draw_weights(state.stack.rngs, num_groups, group_size))
    state.iteration += 1
    fit = state.stack.evaluate(proposals, state.iteration)
    if len(fit) < len(proposals):  # a failing seed left with every seed above it
        state.order = state.order[: len(state.stack.seeds)]
        proposals = proposals[: len(fit)]
    ids = state.order.ravel()
    if config.greedy_acceptance:
        keep = fit < state.fit[ids]
        ids, proposals, fit = ids[keep], proposals[keep], fit[keep]
    state.pos[ids] = proposals
    state.fit[ids] = fit
    rank(state)


def _stalled(history: deque[list[float]], window: int, epsilon: float) -> bool:
    # history rows hold each rank slot's best leader so far, in
    # minimize-space, one row per iteration, row 0 being the initial
    # population; only the last window + 2 are kept.  The window is only
    # compared against post-step iterations, so the check waits for
    # window + 2 rows and initialization luck does not count.
    if len(history) < window + 2:
        return False
    return all(a - b < epsilon for a, b in zip(history[-window - 1], history[-1]))


def run_seeds(
    problems: Sequence[Problem],
    config: LabConfig | None = None,
    seeds: Sequence[int] | None = None,
) -> Iterator[RunTrace]:
    """Run LAB on every entry of ``problems`` as one ``Stack``; yield the traces.

    Entry ``k`` runs on ``problems[k]`` with seed ``seeds[k]``, by default
    ``config.seed + k``.  The problems may differ in name, dimension, box
    and sense, so one stack can hold the seeds of several problems.  Each
    seed keeps its own weights, ranking and stopping, under the rules of
    ``Stack``, a step being a batch; a failing seed's ``EvaluationError``
    carries the ``iteration`` it failed in.

    Each seed stops at ``max_iterations``, or earlier when no rank
    slot's best leader has improved by at least ``stall_epsilon`` over
    the last ``stall_window`` iterations.  Slot ``k`` is whichever group
    ranks ``k``-th after each step, and its best leader is the best
    leader fitness ever seen in that slot; slot 0's is the best fitness.

    Raises
    ------
    ConfigError
        At the call, for an invalid config, no problems, or a ``seeds``
        whose length differs from ``problems``'.
    """
    if config is None:
        config = LabConfig()
    return _run_stack(*stack_entries(problems, config, seeds), config)


def stack_entries(
    problems: Sequence[Problem], config, seeds: Sequence[int] | None
) -> tuple[list[Problem], list[int]]:
    """A stack's problems and seeds as lists, ``seeds`` by default ``config.seed + k``.

    The entry checks of every algorithm's ``run_*seeds``: ``ConfigError``
    for an invalid ``config`` (a ``LabConfig`` or a ``BaselineConfig``),
    no problems, or a ``seeds`` whose length differs from ``problems``'.
    """
    config.validate()
    if not problems:
        raise ConfigError("stacked seeds need at least one problem")
    if seeds is None:
        seeds = [config.seed + k for k in range(len(problems))]
    if len(seeds) != len(problems):
        raise ConfigError(f"{len(seeds)} seeds for {len(problems)} stacked problems")
    return list(problems), list(seeds)


def _run_stack(
    problems: list[Problem], seeds: list[int], config: LabConfig
) -> Iterator[RunTrace]:
    window, epsilon = config.stall_window, config.stall_epsilon
    histories = [deque(maxlen=window + 2) for _ in problems]
    state = init(problems, config, seeds)
    stack = state.stack
    while True:
        heads = state.order[..., 0]
        bests = zip(stack.seeds, state.fit[heads].tolist(), heads[:, 0].tolist())
        last = state.iteration == config.max_iterations
        done = {}
        for j, (k, leaders, best) in enumerate(bests):
            stack.observe(j, leaders[0], state.pos[best], leaders)
            history = histories[k]
            history.append(list(map(min, history[-1], leaders)) if history else leaders)
            if last:
                done[j] = TERMINATION_MAX_ITERATIONS
            elif _stalled(history, window, epsilon):
                done[j] = TERMINATION_STALLED
        if done:  # only a leaving seed can make a trace ready
            evaluations = config.population * (state.iteration + 1)
            yield from stack.finish(done, ALGORITHM_LAB, evaluations)
            if not stack.seeds:
                return
            state.order = np.delete(state.order, list(done), axis=0)
        step(state, config)


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
