"""Reference optimizers for head-to-head comparisons.

Three deliberately plain algorithms sharing the trace format of the
main optimizer: uniform random search, simulated annealing with
Gaussian moves and geometric cooling, and global-best particle swarm.
All three spend exactly ``config.budget`` objective evaluations, no
more and no less, recording one trace row per batch of ``BATCH``
evaluations, so their rows line up with the main optimizer's at its
default population of 20.  All three start from the first batch the
main optimizer starts from, ``engine.draw_uniform`` (bit for bit
``rng.uniform(lower, upper, (n, dim))``) from ``default_rng(seed)``, so
up to one batch their traces differ only in the algorithm name.  Each
row is its batch's first best point; for SA, whose batch is one
temperature stage of single moves, that is the stage's first best move,
kept as the stage runs.

The seeds of one problem run as one ``engine.Stack``, as the main
optimizer's do, under the rules its docstring states; a batch is
random search's draws, a swarm step, or one SA move of each seed.
``run_baseline`` is the one-seed stack.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .engine import (
    TERMINATION_BUDGET, RunTrace, Stack, _random_blocks, draw_uniform, stackable,
)
from .problem import ConfigError, Problem

ALGORITHM_RANDOM = "random_search"
ALGORITHM_SA = "sa"
ALGORITHM_PSO = "pso"

# Fixed settings of every run.  A batch of BATCH evaluations is one
# trace row: random search's draws, one annealing temperature stage, or
# one swarm step, so the swarm has BATCH particles (fewer only when the
# whole budget is smaller).  SA moves with a Gaussian step of
# SA_STEP_FRACTION of the box span per coordinate.
BATCH = 20
SA_COOLING = 0.95
SA_STEP_FRACTION = 0.1
PSO_INERTIA = 0.72
PSO_COGNITIVE = 1.49
PSO_SOCIAL = 1.49
# Scales a seed's (r1, r2) draws, shape (2, swarm, dim), in one product.
_PSO_PULLS = np.array([PSO_COGNITIVE, PSO_SOCIAL])[:, None, None]


@dataclass(frozen=True)
class BaselineConfig:
    """Which reference optimizer to run, for how many evaluations."""

    algorithm: str
    budget: int
    seed: int = 0

    def validate(self) -> None:
        if self.algorithm not in BASELINE_ALGORITHMS:
            raise ConfigError(f"unknown baseline algorithm {self.algorithm!r}")
        if self.budget < 1:
            raise ConfigError("budget must be at least 1")


def observe_batch(stack: Stack, positions: np.ndarray, fitnesses: np.ndarray) -> None:
    """Record one batch of every live seed by its first best point.

    ``positions[j]`` holds live seed ``j``'s points and ``fitnesses`` the
    live seeds' minimize-space values, one seed's batch after another.
    """
    fitnesses = fitnesses.reshape(len(stack.seeds), -1)
    best = fitnesses.argmin(axis=1).tolist()
    for j, (seed_fit, seed_pos, i) in enumerate(zip(fitnesses.tolist(), positions, best)):
        stack.observe(j, seed_fit[i], seed_pos[i])


def _batch_sizes(budget: int) -> list[int]:
    sizes = [BATCH] * (budget // BATCH)
    if budget % BATCH:
        sizes.append(budget % BATCH)
    return sizes


def _random_search(stack, positions, fitnesses, sizes):
    problem = stack.problems[0]
    for size in sizes:
        positions = draw_uniform(stack.rngs, problem, size)
        observe_batch(stack, positions, stack.evaluate(positions.reshape(-1, problem.dim)))


def _sa(stack, positions, fitnesses, sizes):
    # The first batch calibrates: each seed starts from its best point at
    # a tenth of its fitness spread (1.0 if its batch is flat).
    problem = stack.problems[0]
    rngs = stack.rngs
    step = SA_STEP_FRACTION * (problem.upper - problem.lower)
    current = np.array(stack.best_position)
    current_fit = list(stack.best_fitness)
    fitnesses = fitnesses.reshape(len(current), -1)
    spread = (fitnesses.max(axis=1) - fitnesses.min(axis=1)).tolist()
    temperature = [0.1 * s if s > 0 else 1.0 for s in spread]
    noise = np.empty_like(current)

    for size in sizes:
        # The stage's row is its first best move; the first move replaces inf.
        best_fit = [np.inf] * len(current)
        best_pos = [None] * len(current)
        for _ in range(size):
            # Each seed's row, scaled once: the bits and the stream of
            # rng.normal(0.0, step), at a fraction of its cost.
            for rng, row in zip(rngs, noise):
                rng.standard_normal(out=row)
            noise *= step
            proposals = (current + noise).clip(problem.lower, problem.upper)
            fits = stack.evaluate(proposals).tolist()
            if len(fits) < len(current):  # a failing seed left with those above it
                current, noise = current[: len(fits)], noise[: len(fits)]
            for j, fit in enumerate(fits):
                if fit < best_fit[j]:
                    best_pos[j], best_fit[j] = proposals[j], fit
                delta = fit - current_fit[j]  # below zero is downhill
                if delta < 0 or rngs[j].random() < np.exp(-delta / temperature[j]):
                    current[j] = proposals[j]
                    current_fit[j] = fit
        # A seed that failed in the stage left the stack but not best_fit.
        for j in range(len(stack.seeds)):
            stack.observe(j, best_fit[j], best_pos[j])
        temperature = [t * SA_COOLING for t in temperature]


def _pso(stack, positions, fitnesses, sizes):
    # The first batch is the swarm, at rest, and each particle's best.
    problem = stack.problems[0]
    positions = positions[: len(stack.rngs)]
    fitnesses = fitnesses.reshape(len(positions), -1)
    velocities = np.zeros_like(positions)
    pbest_pos, pbest_fit = positions.copy(), fitnesses.copy()

    for count in sizes:
        better = fitnesses < pbest_fit
        np.copyto(pbest_fit, fitnesses, where=better)
        np.copyto(pbest_pos, positions, where=better[..., None])
        gbest = np.array(stack.best_position)
        # Each seed draws its r1, then its r2, in one call.
        pull = _random_blocks(stack.rngs, (2, *positions.shape[1:]))
        pull *= _PSO_PULLS  # PSO_COGNITIVE * r1 and PSO_SOCIAL * r2
        velocities = (
            PSO_INERTIA * velocities
            + pull[:, 0] * (pbest_pos - positions)
            + pull[:, 1] * (gbest[:, None] - positions)
        )
        positions = (positions + velocities).clip(problem.lower, problem.upper)
        # A partial batch, always the last, evaluates a prefix of each
        # swarm only; no step follows to read its particles' bests.
        batch = positions[:, :count]
        fitnesses = stack.evaluate(batch.reshape(-1, problem.dim))
        observe_batch(stack, batch, fitnesses)
        live = len(stack.rngs)
        if live < len(positions):  # a failing seed left with those above it
            positions, velocities = positions[:live], velocities[:live]
            pbest_pos, pbest_fit = pbest_pos[:live], pbest_fit[:live]
        fitnesses = fitnesses.reshape(live, count)


# The update rules.  Each continues a stack whose first batch
# (``positions``, shape ``(seeds, n, dim)``, and their ``fitnesses``, one
# seed's after another) is drawn and recorded, spending one batch per
# entry of ``sizes``.
_RUNNERS = {
    ALGORITHM_RANDOM: _random_search,
    ALGORITHM_SA: _sa,
    ALGORITHM_PSO: _pso,
}

BASELINE_ALGORITHMS = tuple(_RUNNERS)


def run_baseline_seeds(
    problems: Sequence[Problem], config: BaselineConfig
) -> Iterator[RunTrace]:
    """Run one reference optimizer on every seed of one problem as one stack.

    Seed ``k`` runs on ``problems[k]`` with the generator
    ``default_rng(config.seed + k)``; the problems must share name,
    dimension, box and sense.  Every seed starts from the same uniform
    batch its generator gives ``engine.init``, recorded as the first
    trace row, and its rule then spends the remaining batches, under the
    rules of ``engine.Stack``.  Every seed spends the same budget, so
    the seeds finish together, and a failing seed's ``EvaluationError``
    carries no ``iteration``.

    Raises
    ------
    ConfigError
        At the call, for an invalid config, no problems, or problems
        that differ in name, dimension, box or sense.
    """
    config.validate()
    return _run_stack(stackable(problems), config)


def _run_stack(problems: list[Problem], config: BaselineConfig) -> Iterator[RunTrace]:
    stack = Stack(problems, config.seed)
    sizes = _batch_sizes(config.budget)
    positions = draw_uniform(stack.rngs, problems[0], sizes[0])
    fitnesses = stack.evaluate(positions.reshape(-1, problems[0].dim))
    observe_batch(stack, positions, fitnesses)
    _RUNNERS[config.algorithm](stack, positions, fitnesses, sizes[1:])
    done = dict.fromkeys(range(len(stack.seeds)), TERMINATION_BUDGET)
    yield from stack.finish(done, config.algorithm, config.budget)


def run_baseline(problem: Problem, config: BaselineConfig) -> RunTrace:
    """Run one reference optimizer to budget exhaustion: the one-seed stack."""
    return next(run_baseline_seeds([problem], config))
