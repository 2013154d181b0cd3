"""Reference optimizers for head-to-head comparisons.

Three deliberately plain algorithms sharing the trace format of the
main optimizer: uniform random search, simulated annealing with
Gaussian moves and geometric cooling, and global-best particle swarm.
All three spend exactly ``config.budget`` objective evaluations, no
more and no less, recording one trace row per evaluation batch so
convergence curves line up against equal-budget runs.
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


@dataclass(frozen=True)
class BaselineConfig:
    """Settings shared by the reference optimizers.

    ``batch_size`` controls trace granularity for random search and
    the number of moves per temperature stage in annealing; particle
    swarm batches are its swarm evaluations.  ``sa_initial_temperature``
    of None means calibrate from the first batch: a tenth of the
    fitness spread, falling back to 1.0 when the batch is flat.
    """

    algorithm: str
    budget: int
    seed: int = 0
    batch_size: int = 20
    sa_initial_temperature: float | None = None
    sa_cooling: float = 0.95
    sa_step_fraction: float = 0.1
    pso_swarm: int = 20
    pso_inertia: float = 0.72
    pso_cognitive: float = 1.49
    pso_social: float = 1.49

    def validate(self) -> None:
        if self.algorithm not in BASELINE_ALGORITHMS:
            raise ConfigError(f"unknown baseline algorithm {self.algorithm!r}")
        if self.budget < 1:
            raise ConfigError("budget must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.sa_initial_temperature is not None and self.sa_initial_temperature <= 0:
            raise ConfigError("sa_initial_temperature must be positive")
        if not 0.0 < self.sa_cooling < 1.0:
            raise ConfigError("sa_cooling must be in (0, 1)")
        if self.sa_step_fraction <= 0:
            raise ConfigError("sa_step_fraction must be positive")
        if self.pso_swarm < 2:
            raise ConfigError("pso_swarm must be at least 2")


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


def _batch_sizes(budget: int, batch: int) -> list[int]:
    sizes = [batch] * (budget // batch)
    if budget % batch:
        sizes.append(budget % batch)
    return sizes


def _run_random_search(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    for size in _batch_sizes(config.budget, config.batch_size):
        positions = _uniform(problem, rng, size)
        _observe_batch(recorder, positions, problem.evaluate_batch(positions))
    return recorder.trace(ALGORITHM_RANDOM, config.seed, config.budget, TERMINATION_BUDGET)


def _run_sa(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    span = problem.upper - problem.lower
    step = config.sa_step_fraction * span
    sizes = _batch_sizes(config.budget, config.batch_size)

    # Calibration batch: uniform sample, start from its best point.
    positions = _uniform(problem, rng, sizes[0])
    fitnesses = problem.evaluate_batch(positions)
    _observe_batch(recorder, positions, fitnesses)
    current = np.array(recorder.best_position)
    current_fit = recorder.best_fitness
    if config.sa_initial_temperature is not None:
        temperature = config.sa_initial_temperature
    else:
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
        temperature *= config.sa_cooling
    return recorder.trace(ALGORITHM_SA, config.seed, config.budget, TERMINATION_BUDGET)


def _run_pso(problem: Problem, config: BaselineConfig) -> RunTrace:
    rng = np.random.default_rng(config.seed)
    recorder = Recorder(problem)
    swarm = min(config.pso_swarm, config.budget)
    positions = _uniform(problem, rng, swarm)
    velocities = np.zeros_like(positions)
    fitnesses = problem.evaluate_batch(positions)
    _observe_batch(recorder, positions, fitnesses)
    pbest_pos = positions.copy()
    pbest_fit = fitnesses.copy()
    gbest = np.array(recorder.best_position)

    remaining = config.budget - swarm
    while remaining > 0:
        count = min(swarm, remaining)
        r1 = rng.random((swarm, problem.dim))
        r2 = rng.random((swarm, problem.dim))
        velocities = (
            config.pso_inertia * velocities
            + config.pso_cognitive * r1 * (pbest_pos - positions)
            + config.pso_social * r2 * (gbest - positions)
        )
        positions = np.clip(positions + velocities, problem.lower, problem.upper)
        # Partial last batch evaluates a prefix of the swarm only.
        fitnesses = problem.evaluate_batch(positions[:count])
        _observe_batch(recorder, positions[:count], fitnesses)
        better = is_better(fitnesses, pbest_fit[:count], problem.sense)
        pbest_fit[:count][better] = fitnesses[better]
        pbest_pos[:count][better] = positions[:count][better]
        gbest = np.array(recorder.best_position)
        remaining -= count
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
