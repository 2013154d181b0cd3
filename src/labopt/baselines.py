"""Reference optimizers for head-to-head comparisons.

Three deliberately plain algorithms sharing the trace format of the
main optimizer: uniform random search, simulated annealing with
Gaussian moves and geometric cooling, and global-best particle swarm.
All three spend exactly ``config.budget`` objective evaluations, no
more and no less, recording one trace row per batch of ``BATCH``
evaluations, so their rows line up with the main optimizer's at its
default population of 20.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Recorder, RunTrace, TERMINATION_BUDGET
from .problem import Problem, ConfigError, Sense, clamp_to_bounds, is_better, oriented

ALGORITHM_RANDOM = "random_search"
ALGORITHM_SA = "sa"
ALGORITHM_PSO = "pso"

BASELINE_ALGORITHMS = (ALGORITHM_RANDOM, ALGORITHM_SA, ALGORITHM_PSO)

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
    """Record one evaluation batch by its best point."""
    sense = recorder.problem.sense
    idx = int(np.argmax(fitnesses) if sense is Sense.MAXIMIZE else np.argmin(fitnesses))
    recorder.observe(float(fitnesses[idx]), positions[idx])


def _uniform(problem: Problem, rng: np.random.Generator, count: int) -> np.ndarray:
    span = problem.upper - problem.lower
    return problem.lower + span * rng.random((count, problem.dim))


def _batch_sizes(budget: int) -> list[int]:
    sizes = [BATCH] * (budget // BATCH)
    if budget % BATCH:
        sizes.append(budget % BATCH)
    return sizes


def _run_random_search(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    for size in _batch_sizes(config.budget):
        positions = _uniform(problem, rng, size)
        _observe_batch(recorder, positions, problem.evaluate_batch(positions))
    return recorder.trace(ALGORITHM_RANDOM, config.seed, config.budget, TERMINATION_BUDGET)


def _run_sa(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    span = problem.upper - problem.lower
    step = SA_STEP_FRACTION * span
    sizes = _batch_sizes(config.budget)

    # Calibration batch: uniform sample, start from its best point at a
    # tenth of its fitness spread (1.0 if the batch is flat).
    positions = _uniform(problem, rng, sizes[0])
    fitnesses = problem.evaluate_batch(positions)
    _observe_batch(recorder, positions, fitnesses)
    current = np.array(recorder.best_position)
    current_fit = recorder.best_fitness
    spread = float(np.max(fitnesses) - np.min(fitnesses))
    temperature = 0.1 * spread if spread > 0 else 1.0

    for size in sizes[1:]:
        batch_pos = np.empty((size, problem.dim))
        batch_fit = np.empty(size)
        for i in range(size):
            proposal = clamp_to_bounds(current + rng.normal(0.0, step), problem)
            fit = problem.evaluate(proposal)
            batch_pos[i] = proposal
            batch_fit[i] = fit
            if is_better(fit, current_fit, problem.sense):
                accept = True
            else:
                # Oriented uphill gap is >= 0 in either sense.
                delta = oriented(fit, problem.sense) - oriented(current_fit, problem.sense)
                accept = rng.random() < np.exp(-delta / temperature)
            if accept:
                current = proposal
                current_fit = fit
        _observe_batch(recorder, batch_pos, batch_fit)
        temperature *= SA_COOLING
    return recorder.trace(ALGORITHM_SA, config.seed, config.budget, TERMINATION_BUDGET)


def _run_pso(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    sizes = _batch_sizes(config.budget)
    swarm = sizes[0]
    positions = _uniform(problem, rng, swarm)
    velocities = np.zeros_like(positions)
    fitnesses = problem.evaluate_batch(positions)
    _observe_batch(recorder, positions, fitnesses)
    pbest_pos = positions.copy()
    pbest_fit = fitnesses.copy()
    gbest = np.array(recorder.best_position)

    for count in sizes[1:]:
        r1 = rng.random((swarm, problem.dim))
        r2 = rng.random((swarm, problem.dim))
        velocities = (
            PSO_INERTIA * velocities
            + PSO_COGNITIVE * r1 * (pbest_pos - positions)
            + PSO_SOCIAL * r2 * (gbest - positions)
        )
        positions = np.clip(positions + velocities, problem.lower, problem.upper)
        # Partial last batch evaluates a prefix of the swarm only.
        fitnesses = problem.evaluate_batch(positions[:count])
        _observe_batch(recorder, positions[:count], fitnesses)
        better = is_better(fitnesses, pbest_fit[:count], problem.sense)
        pbest_fit[:count][better] = fitnesses[better]
        pbest_pos[:count][better] = positions[:count][better]
        gbest = np.array(recorder.best_position)
    return recorder.trace(ALGORITHM_PSO, config.seed, config.budget, TERMINATION_BUDGET)


_RUNNERS = {
    ALGORITHM_RANDOM: _run_random_search,
    ALGORITHM_SA: _run_sa,
    ALGORITHM_PSO: _run_pso,
}


def run_baseline(problem: Problem, config: BaselineConfig) -> RunTrace:
    """Run one reference optimizer to budget exhaustion."""
    config.validate()
    return _RUNNERS[config.algorithm](problem, config)
