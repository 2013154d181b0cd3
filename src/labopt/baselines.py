"""Reference optimizers for head-to-head comparisons.

Three deliberately plain algorithms sharing the trace format of the
main optimizer: uniform random search, simulated annealing with
Gaussian moves and geometric cooling, and global-best particle swarm.
All three spend exactly ``config.budget`` objective evaluations, no
more and no less, recording one trace row per batch of ``BATCH``
evaluations, so their rows line up with the main optimizer's at its
default population of 20.  All three start from the first batch the
main optimizer starts from, ``rng.uniform(lower, upper, (n, dim))``
from ``default_rng(seed)``, so up to one batch their traces differ only
in the algorithm name.  Each row is its batch's first best point; for
SA, whose batch is one temperature stage of single moves, that is the
stage's first best move, kept as the stage runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Recorder, RunTrace, TERMINATION_BUDGET
from .problem import Problem, ConfigError, is_better, oriented

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


def _observe_batch(
    recorder: Recorder, positions: np.ndarray, fitnesses: np.ndarray
) -> None:
    """Record one evaluation batch by its first best point."""
    idx = int(np.argmin(oriented(fitnesses, recorder.problem.sense)))
    recorder.observe(float(fitnesses[idx]), positions[idx])


def _batch_sizes(budget: int) -> list[int]:
    sizes = [BATCH] * (budget // BATCH)
    if budget % BATCH:
        sizes.append(budget % BATCH)
    return sizes


def _random_search(problem, rng, recorder, positions, fitnesses, sizes):
    for size in sizes:
        positions = rng.uniform(problem.lower, problem.upper, (size, problem.dim))
        _observe_batch(recorder, positions, problem.evaluate_batch(positions))


def _sa(problem, rng, recorder, positions, fitnesses, sizes):
    # The first batch calibrates: start from its best point at a tenth of
    # its fitness spread (1.0 if the batch is flat).
    step = SA_STEP_FRACTION * (problem.upper - problem.lower)
    current = np.array(recorder.best_position)
    current_fit = recorder.best_fitness
    spread = float(np.max(fitnesses) - np.min(fitnesses))
    temperature = 0.1 * spread if spread > 0 else 1.0

    for size in sizes:
        # The stage's row is its first best move.  oriented(inf) is the
        # worst value in either sense, so the first move replaces it.
        best_fit = oriented(np.inf, problem.sense)
        for _ in range(size):
            proposal = (current + rng.normal(0.0, step)).clip(problem.lower, problem.upper)
            fit = problem.evaluate_batch(proposal[None]).item()
            if is_better(fit, best_fit, problem.sense):
                best_pos, best_fit = proposal, fit
            # Oriented gap: below zero is downhill in either sense.
            delta = oriented(fit - current_fit, problem.sense)
            if delta < 0 or rng.random() < np.exp(-delta / temperature):
                current = proposal
                current_fit = fit
        recorder.observe(best_fit, best_pos)
        temperature *= SA_COOLING


def _pso(problem, rng, recorder, positions, fitnesses, sizes):
    # The first batch is the swarm, at rest.
    velocities = np.zeros_like(positions)
    pbest_pos = positions.copy()
    pbest_fit = fitnesses.copy()
    gbest = np.array(recorder.best_position)

    for count in sizes:
        r1 = rng.random(positions.shape)
        r2 = rng.random(positions.shape)
        velocities = (
            PSO_INERTIA * velocities
            + PSO_COGNITIVE * r1 * (pbest_pos - positions)
            + PSO_SOCIAL * r2 * (gbest - positions)
        )
        positions = (positions + velocities).clip(problem.lower, problem.upper)
        # Partial last batch evaluates a prefix of the swarm only.
        fitnesses = problem.evaluate_batch(positions[:count])
        _observe_batch(recorder, positions[:count], fitnesses)
        better = is_better(fitnesses, pbest_fit[:count], problem.sense)
        pbest_fit[:count][better] = fitnesses[better]
        pbest_pos[:count][better] = positions[:count][better]
        gbest = np.array(recorder.best_position)


# The update rules.  Each continues a run whose first batch (``positions``
# and their ``fitnesses``) is drawn and recorded, spending one batch per
# entry of ``sizes`` and drawing from ``rng``.
_RUNNERS = {
    ALGORITHM_RANDOM: _random_search,
    ALGORITHM_SA: _sa,
    ALGORITHM_PSO: _pso,
}

BASELINE_ALGORITHMS = tuple(_RUNNERS)


def run_baseline(problem: Problem, config: BaselineConfig) -> RunTrace:
    """Run one reference optimizer to budget exhaustion.

    Every algorithm starts from the same uniform batch drawn from the
    seed's generator and recorded as the first trace row; its rule then
    spends the remaining batches.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    sizes = _batch_sizes(config.budget)
    positions = rng.uniform(problem.lower, problem.upper, (sizes[0], problem.dim))
    fitnesses = problem.evaluate_batch(positions)
    _observe_batch(recorder, positions, fitnesses)
    _RUNNERS[config.algorithm](problem, rng, recorder, positions, fitnesses, sizes[1:])
    return recorder.trace(config.algorithm, config.seed, config.budget, TERMINATION_BUDGET)
