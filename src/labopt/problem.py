"""Box-constrained optimization problems.

Every problem in this package is an objective over a rectangular box:
coordinate i of a candidate solution is constrained to
``[lower[i], upper[i]]``.  Optimizers repair out-of-box iterates by
clamping, so objectives are only ever evaluated on the box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class Sense(Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class ConfigError(ValueError):
    """Structurally invalid problem or optimizer configuration."""


class EvaluationError(RuntimeError):
    """An objective returned a non-finite value.

    The offending position is kept on the exception so callers can log
    or reproduce the failure.  ``iteration`` is the LAB iteration whose
    evaluation failed (0 = the initial population), or None.
    """

    def __init__(self, message: str, position, iteration: int | None = None) -> None:
        super().__init__(message)
        self.position = np.array(position, dtype=float)
        self.iteration = iteration


@dataclass
class Problem:
    """An objective function together with its box and direction.

    Parameters
    ----------
    name : str
        Identifier used in traces and result files.
    dim : int
        Number of decision variables.
    lower, upper : array_like
        Per-coordinate bounds, each of length ``dim`` with
        ``lower < upper`` elementwise.
    sense : Sense
        Whether the objective is minimized or maximized.
    objective : callable
        Maps a C-contiguous float ``(m, dim)`` batch to ``m`` values,
        each bit-equal to evaluating its row alone.  The Problem
        checks the width, makes the batch contiguous and hands a
        single point over as a one-row batch.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    sense: Sense
    objective: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"problem dimension must be >= 1, got {self.dim}")
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ConfigError(
                f"bounds of problem '{self.name}' must have shape ({self.dim},), "
                f"got {self.lower.shape} and {self.upper.shape}"
            )
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ConfigError(f"bounds of problem '{self.name}' must be finite")
        if not np.all(self.lower < self.upper):
            raise ConfigError(
                f"problem '{self.name}' needs lower < upper in every coordinate"
            )

    def evaluate(self, x: np.ndarray) -> float:
        """Evaluate one ``(dim,)`` point: the one-row case of ``evaluate_batch``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"problem '{self.name}' evaluates ({self.dim},) points, "
                f"got shape {x.shape}"
            )
        return self.evaluate_batch(x[None]).item()

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate every row of ``X`` in one objective call.

        ``X`` must have shape ``(m, dim)``; the objective gets it as a
        C-contiguous float array and must return shape ``(m,)``, so an
        objective written for one ``(dim,)`` point, which would return
        a float or reduce the wrong axis, is caught here.  Non-finite
        results are rejected; the error names the first bad row.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"problem '{self.name}' evaluates (m, {self.dim}) batches, "
                f"got shape {X.shape}"
            )
        values = np.asarray(self.objective(X), dtype=float)
        if values.shape != (len(X),):
            raise ValueError(
                f"objective of '{self.name}' returned shape {values.shape} "
                f"for a batch of {len(X)} points"
            )
        # One sum screens every row, at one row as cheaply as a float
        # check: it is finite unless a value is not or finite values
        # overflow it, so only then are the rows checked one by one.
        rows = values.tolist()
        if not math.isfinite(sum(rows)):
            for i, value in enumerate(rows):
                if not math.isfinite(value):
                    raise EvaluationError(
                        f"objective of '{self.name}' returned {value!r} "
                        f"(batch row {i})",
                        X[i],
                    )
        return values


def oriented(value: float, sense: Sense) -> float:
    """Map a fitness to minimize-space (maximize problems are negated).

    Works elementwise on arrays.
    """
    return value if sense is Sense.MINIMIZE else -value
