"""Machining process optimization catalog.

Twenty-three published regression surrogates over six processes:
abrasive water jet machining (AWJM), electro-discharge machining
(EDM), micro-turning, micro-milling, micro-drilling, and MQL turning.
Every model is stored as a flat tuple of terms ``(coefficient,
exponents)``, written in the table below as the spec uses it, so each
coefficient appears in exactly one place and audits can diff the
tables directly.  One generic routine sums a model's terms straight
from one column per variable: the columns of a batch in ``evaluate``,
and in ``grid_oracle`` one value of the first axis beside the other
axes laid out to broadcast.

All responses are minimized except EDM material removal rate, which is
maximized.  One catalog quirk is kept on purpose: the printed variable
bounds for MQL turning read like (speed, feed, angle) magnitudes while
the symbols k1..k3 are declared as (feed, angle, speed).  The bounds
are bound positionally to k1..k3 exactly as printed, since re-deriving
the intended pairing would change the optimization problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import ConfigError, Problem, Sense

Term = tuple[float, tuple[float, ...]]


@dataclass(frozen=True)
class MachiningSpec:
    """One process/response regression model.

    ``var_names`` pairs each decision symbol with its unit.
    """

    process: str
    response: str
    variant: str | None
    sense: Sense
    var_names: tuple[tuple[str, str], ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    terms: tuple[Term, ...]

    @property
    def key(self) -> str:
        """Selector string: ``process:response`` plus variant if any."""
        parts = [self.process, self.response]
        if self.variant:
            parts.append(self.variant)
        return ":".join(parts)

    @property
    def dim(self) -> int:
        return len(self.var_names)

    @cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        """The variable box as read-only arrays, converted once per spec."""
        box = np.array(self.lower), np.array(self.upper)
        for bound in box:
            bound.flags.writeable = False
        return box

    @cached_property
    def _plan(self) -> tuple:
        """Every term as its coefficient and its nonzero ``(variable,
        exponent)`` factors."""
        return tuple((c, tuple((i, e) for i, e in enumerate(exps) if e)) for c, exps in self.terms)

    def _sum_terms(self, columns: list, shape: tuple[int, ...]) -> np.ndarray:
        """The model over one column per variable, broadcast to ``shape``.

        Each term multiplies its factors left to right: exponent 1 passes
        the column through, any other exponent is an array ``**``.  The
        terms are added one after another in table order, from ``0.0``:
        out of place, at their own broadcast shape, until the total has
        ``shape``, then in place.  So a slab of the grid oracle pays no
        full-size pass for the terms that leave out a slab axis, and the
        sum equals ``np.zeros(shape)`` plus each term bit for bit (a sum
        that starts from ``+0.0`` is never ``-0.0``).  A total that never
        reaches ``shape`` is broadcast to it at the end.
        """
        total, full = 0.0, False
        for coef, factors in self._plan:
            term = coef
            for i, e in factors:
                term = term * (columns[i] if e == 1 else columns[i] ** e)
            if full:
                total += term
            else:
                total = total + term
                full = isinstance(total, np.ndarray) and total.shape == shape
        return total if full else np.full(shape, total)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the model at every row of an ``(m, dim)`` batch.

        Returns an ``(m,)`` array; other leading shapes map the same
        way, ``(..., dim)`` to ``(...)``.  Inputs must lie inside the
        variable box, where the power-law models are defined.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"{self.key} expects {self.dim} variables, got shape {x.shape}"
            )
        lo, hi = self._box
        if ((x < lo) | (x > hi)).any():  # NaN passes; evaluate_batch rejects its value
            raise ValueError(f"input outside the {self.key} variable box")
        return self._sum_terms([x[..., i] for i in range(self.dim)], x.shape[:-1])

    @property
    def problem(self) -> Problem:
        """A fresh Problem wrapping this model."""
        return Problem(
            name=self.key,
            dim=self.dim,
            lower=self.lower,
            upper=self.upper,
            sense=self.sense,
            objective=self.evaluate,
        )


_MIN = Sense.MINIMIZE
_MAX = Sense.MAXIMIZE

_AWJM_VARS = (("u1", "mm"), ("u2", "mm"), ("u3", "mm"), ("u4", "mm/min"))
_AWJM_LO = (0.9, 0.95, 20.0, 200.0)
_AWJM_HI = (1.25, 1.5, 96.0, 600.0)

_EDM_VARS = (("v1", "A"), ("v2", "V"), ("v3", "us"), ("v4", "us"))
_EDM_LO = (7.5, 45.0, 50.0, 40.0)
_EDM_HI = (12.5, 55.0, 150.0, 60.0)

_MT_VARS = (("mt_w1", "m/min"), ("mt_w2", "um/rev"), ("mt_w3", "um"))
_MT_LO = (25.0, 5.0, 30.0)
_MT_HI = (37.0, 15.0, 70.0)

_MM_VARS = (("f1", "rpm"), ("f2", "mm/min"))
_MM_LO = (1500.0, 1.0)
_MM_HI = (2500.0, 3.0)

_MD_VARS = (("g1", "rpm"), ("g2", "mm/min"))
_MD_LO = (1000.0, 1.0)
_MD_HI = (2500.0, 4.0)

# Positional binding, see the module docstring.
_MQL_VARS = (("k1", "mm/rev"), ("k2", "deg"), ("k3", "m/min"))
_MQL_LO = (200.0, 0.1, 60.0)
_MQL_HI = (300.0, 0.2, 90.0)


# Built once at import; specs are immutable, Problems are built per call.
_SPECS = (
    MachiningSpec(
        "awjm", "Ra", None, _MIN, _AWJM_VARS, _AWJM_LO, _AWJM_HI,
        (
            (-23.309555, (0, 0, 0, 0)),
            (16.6968, (1, 0, 0, 0)),
            (26.9296, (0, 1, 0, 0)),
            (0.0587, (0, 0, 1, 0)),
            (0.0146, (0, 0, 0, 1)),
            (-5.1863, (0, 2, 0, 0)),
            (-10.4571, (1, 1, 0, 0)),
            (-0.0534, (1, 0, 1, 0)),
            (-0.0103, (1, 0, 0, 1)),
            (0.0113, (0, 1, 1, 0)),
            (-0.0039, (0, 1, 0, 1)),
        ),
    ),
    MachiningSpec(
        "awjm", "kerf", None, _MIN, _AWJM_VARS, _AWJM_LO, _AWJM_HI,
        (
            (-1.15146, (0, 0, 0, 0)),
            (0.70118, (1, 0, 0, 0)),
            (2.72749, (0, 1, 0, 0)),
            (0.00689, (0, 0, 1, 0)),
            (-0.00025, (0, 0, 0, 1)),
            (0.00386, (0, 1, 1, 0)),
            (-0.93947, (0, 2, 0, 0)),
            (-0.25711, (1, 1, 0, 0)),
            (-0.00314, (1, 0, 1, 0)),
            (-0.00249, (1, 0, 0, 1)),
            (0.00196, (0, 1, 0, 1)),
            (-0.00002, (0, 0, 1, 1)),
            (-0.00001, (0, 0, 2, 0)),
        ),
    ),
    MachiningSpec(
        "edm", "MRR", None, _MAX, _EDM_VARS, _EDM_LO, _EDM_HI,
        (
            (-235.15, (0, 0, 0, 0)),
            (39.7, (1, 0, 0, 0)),
            (4.277, (0, 1, 0, 0)),
            (1.569, (0, 0, 1, 0)),
            (-1.375, (0, 0, 0, 1)),
            (-0.0059, (0, 0, 2, 0)),
            (-0.536, (1, 1, 0, 0)),
        ),
    ),
    MachiningSpec(
        "edm", "Ra", None, _MIN, _EDM_VARS, _EDM_LO, _EDM_HI,
        (
            (30.347, (0, 0, 0, 0)),
            (-0.618, (1, 0, 0, 0)),
            (-0.438, (0, 1, 0, 0)),
            (0.059, (0, 0, 1, 0)),
            (-0.59, (0, 0, 0, 1)),
            (0.019, (1, 0, 0, 1)),
            (0.0075, (0, 1, 0, 1)),
        ),
    ),
    MachiningSpec(
        "edm", "REWR", None, _MIN, _EDM_VARS, _EDM_LO, _EDM_HI,
        (
            (196.564, (0, 0, 0, 0)),
            (-24.19, (1, 0, 0, 0)),
            (-3.135, (0, 1, 0, 0)),
            (-1.781, (0, 0, 1, 0)),
            (0.153, (0, 0, 0, 1)),
            (0.464, (1, 1, 0, 0)),
            (0.158, (1, 0, 1, 0)),
            (0.025, (1, 0, 0, 1)),
            (0.029, (0, 1, 1, 0)),
            (-0.017, (0, 1, 0, 1)),
            (-0.003385, (1, 1, 1, 0)),
            (0.093, (2, 0, 0, 0)),
            (0.001491, (0, 0, 2, 0)),
            (0.005265, (0, 0, 0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_turning", "fb", None, _MIN, _MT_VARS, _MT_LO, _MT_HI,
        ((0.004, (0.495, 0.545, 0.763)),),
    ),
    MachiningSpec(
        "micro_turning", "Ra", None, _MIN, _MT_VARS, _MT_LO, _MT_HI,
        ((0.048, (-0.062, 0.445, 0.516)),),
    ),
    MachiningSpec(
        "micro_milling", "Ra", "0.7mm", _MIN, _MM_VARS, _MM_LO, _MM_HI,
        (
            (-0.455378, (0, 0)),
            (0.00027, (1, 0)),
            (0.16422, (0, 1)),
            (-0.000077, (1, 1)),
        ),
    ),
    MachiningSpec(
        "micro_milling", "Mt", "0.7mm", _MIN, _MM_VARS, _MM_LO, _MM_HI,
        (
            (17.71644, (0, 0)),
            (-0.0002, (1, 0)),
            (-4.8404, (0, 1)),
            (0.0001, (1, 1)),
        ),
    ),
    MachiningSpec(
        "micro_milling", "Ra", "1mm", _MIN, _MM_VARS, _MM_LO, _MM_HI,
        (
            (-0.208871, (0, 0)),
            (0.000144, (1, 0)),
            (0.019571, (0, 1)),
        ),
    ),
    MachiningSpec(
        "micro_milling", "Mt", "1mm", _MIN, _MM_VARS, _MM_LO, _MM_HI,
        (
            (20.2906, (0, 0)),
            (-0.0015, (1, 0)),
            (-5.8369, (0, 1)),
            (0.0006, (1, 1)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bh", "0.5mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (420.94, (0, 0)),
            (-0.234, (1, 0)),
            (-99.91, (0, 1)),
            (6.55e-5, (2, 0)),
            (22.152, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bt", "0.5mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (90.57, (0, 0)),
            (-0.049, (1, 0)),
            (-27.12, (0, 1)),
            (1.32e-5, (2, 0)),
            (5.54, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bh", "0.6mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (369.67, (0, 0)),
            (-0.028, (1, 0)),
            (-156.79, (0, 1)),
            (6.64e-6, (2, 0)),
            (23.162, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bt", "0.6mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (35.34, (0, 0)),
            (-0.019, (1, 0)),
            (-0.59, (0, 1)),
            (6.44e-6, (2, 0)),
            (0.51, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bh", "0.8mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (106.116, (0, 0)),
            (0.13, (1, 0)),
            (-6.62, (0, 1)),
            (1.49e-6, (2, 0)),
            (4.75, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bt", "0.8mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (59.79, (0, 0)),
            (-0.024, (1, 0)),
            (-11.3, (0, 1)),
            (7.78e-6, (2, 0)),
            (2.18, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bh", "0.9mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (450.7, (0, 0)),
            (-0.09, (1, 0)),
            (-34.48, (0, 1)),
            (2.34e-5, (2, 0)),
            (5.03, (0, 2)),
        ),
    ),
    MachiningSpec(
        "micro_drilling", "Bt", "0.9mm", _MIN, _MD_VARS, _MD_LO, _MD_HI,
        (
            (80.07, (0, 0)),
            (-0.040, (1, 0)),
            (-14.81, (0, 1)),
            (1.516e-5, (2, 0)),
            (4.65, (0, 2)),
        ),
    ),
    MachiningSpec(
        "mql_turning", "Fc", None, _MIN, _MQL_VARS, _MQL_LO, _MQL_HI,
        (
            (-202.01471, (0, 0, 0)),
            (1.28250, (0, 0, 1)),
            (3225.0, (1, 0, 0)),
            (-0.74167, (0, 1, 0)),
            (-9.4, (1, 0, 1)),
        ),
    ),
    MachiningSpec(
        "mql_turning", "VBmax", None, _MIN, _MQL_VARS, _MQL_LO, _MQL_HI,
        (
            (-0.27368, (0, 0, 0)),
            (0.001575, (0, 0, 1)),
            (2.4, (1, 0, 0)),
            (-0.0010833, (0, 1, 0)),
        ),
    ),
    MachiningSpec(
        "mql_turning", "Ra", None, _MIN, _MQL_VARS, _MQL_LO, _MQL_HI,
        (
            (-0.16294, (0, 0, 0)),
            (0.001425, (0, 0, 1)),
            (3.7, (1, 0, 0)),
            (-0.000416667, (0, 1, 0)),
        ),
    ),
    MachiningSpec(
        "mql_turning", "L", None, _MIN, _MQL_VARS, _MQL_LO, _MQL_HI,
        (
            (0.96302, (0, 0, 0)),
            (-0.00215931, (0, 0, 1)),
            (0.92703, (1, 0, 0)),
            (0.00152807, (0, 1, 0)),
        ),
    ),
)
_BY_KEY = {spec.key.lower(): spec for spec in _SPECS}


def machining_registry() -> list[MachiningSpec]:
    """All 23 process/response models, in table order."""
    return list(_SPECS)


def get(key: str) -> MachiningSpec:
    """Look up a spec by its ``process:response[:variant]`` key (case-insensitive)."""
    try:
        return _BY_KEY[key.lower()]
    except KeyError:
        raise KeyError(f"unknown machining problem {key!r}") from None


def grid_oracle(
    spec: MachiningSpec, points_per_axis: int = 51
) -> tuple[float, np.ndarray]:
    """Exhaustive uniform-grid optimum of one model.

    Every axis is sampled with ``points_per_axis`` equally spaced
    values including both endpoints, and the full cross product is
    evaluated.  Returns the value and point that ``argmin`` (``argmax``
    for a maximized model) picks over the whole grid in ``ij`` order:
    the first grid point attaining the best value, or the first NaN if
    the grid holds one.  Intended as an independent ground truth for
    small dimensions (all catalog entries have dim <= 4).

    The cross product is summed one slab per value of the first axis:
    the other axes broadcast against each other, so a slab holds about
    ``points_per_axis ** (dim - 1)`` floats and no grid of points or
    table of powers is built.  One rule picks at both levels: each
    slab's first extreme (its value and flat index) is kept, and the
    same ``argmin``/``argmax`` picks among those.  Only one slab is
    alive at a time: each is freed before the next is summed, the terms
    that leave out a slab axis are summed at their own smaller shape
    (see ``_sum_terms``), and a maximized model takes ``argmax`` of the
    slab itself rather than ``argmin`` of a negated copy.  The first
    axis's value enters as a 0-d array, not a numpy scalar, so its
    powers take the same array ``**`` as ``evaluate``'s columns (the
    scalar ``**`` differs in the last bit for some values).  The values
    equal ``evaluate`` on the same points bit for bit.

    Refining the grid can only improve the result: every grid with
    ``2k - 1`` points per axis contains the ``k``-point grid.
    """
    if points_per_axis < 2:
        raise ConfigError(f"points_per_axis must be >= 2, got {points_per_axis}")
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in zip(spec.lower, spec.upper)]
    shape = (points_per_axis,) * (spec.dim - 1)
    # Axis j >= 1 runs along slab dimension j - 1 and broadcasts over
    # the slab; axis 0 gives each slab one value, as a 0-d array.
    rest = np.ix_(*axes[1:])
    pick = np.argmax if spec.sense is Sense.MAXIMIZE else np.argmin
    extremes = []  # each slab's first extreme: (value, flat index)
    for k in range(points_per_axis):
        values = spec._sum_terms([axes[0][k, ...], *rest], shape)
        i = pick(values)
        extremes.append((values.flat[i], i))
        del values  # one live slab: the next is summed after this one is freed
    k = int(pick([value for value, _ in extremes]))
    value, i = extremes[k]
    idx = np.unravel_index(i, shape)
    return float(value), np.array([axes[0][k], *(axis[j] for axis, j in zip(axes[1:], idx))])


def catalog() -> list[dict]:
    """JSON-ready listing used by the command-line ``list-problems``."""
    return [
        {
            "key": spec.key,
            "process": spec.process,
            "response": spec.response,
            "variant": spec.variant,
            "sense": spec.sense.value,
            "dim": spec.dim,
            "variables": [
                {"symbol": sym, "unit": unit} for sym, unit in spec.var_names
            ],
            "lower": list(spec.lower),
            "upper": list(spec.upper),
        }
        for spec in machining_registry()
    ]
