"""Benchmark objective catalog.

Twenty-seven classic test functions, each wrapped as a
:class:`~labopt.problem.Problem` with its customary box.  Definitions
follow the standard optimization literature (De Jong's test set, the
first ICEO suite, and the surveys by Molga & Smutnicki and by
Karaboga & Akay).  Entries carry the usual modality/separability tags:
``U``/``M`` for unimodal/multimodal plus ``S``/``N`` for separable/
non-separable.  Two tags are reproduced as printed in that literature
even though the functions are not actually separable (Foxholes and
Booth both contain cross terms); see the notes on ``SEPARABLE_IDS``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import Problem, Sense

# ---------------------------------------------------------------------------
# coefficient tables

# Shekel's Foxholes (De Jong F5): 25 wells on a 5x5 lattice.
_FOXHOLES_OFFSETS = (-32.0, -16.0, 0.0, 16.0, 32.0)
FOXHOLES_A = np.array(
    [[_FOXHOLES_OFFSETS[j % 5], _FOXHOLES_OFFSETS[j // 5]] for j in range(25)]
)

HARTMAN_C = np.array([1.0, 1.2, 3.0, 3.2])
HARTMAN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
HARTMAN3_P = 1e-4 * np.array(
    [
        [3689.0, 1170.0, 2673.0],
        [4699.0, 4387.0, 7470.0],
        [1091.0, 8732.0, 5547.0],
        [381.0, 5743.0, 8828.0],
    ]
)
HARTMAN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
HARTMAN6_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)

KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])

# Five-site Langermann data from the first ICEO test suite; columns beyond
# the problem dimension are ignored.
LANGERMANN_A = np.array(
    [
        [9.681, 0.667, 4.783, 9.095, 3.517, 9.325, 6.544, 0.211, 5.122, 2.020],
        [9.400, 2.041, 3.788, 7.931, 2.882, 2.672, 3.568, 1.284, 7.033, 7.374],
        [8.025, 9.152, 5.114, 7.621, 4.564, 4.711, 2.996, 6.126, 0.734, 4.982],
        [2.196, 0.415, 5.649, 6.979, 9.510, 9.166, 6.304, 6.054, 9.377, 1.426],
        [8.074, 8.777, 3.467, 1.863, 6.708, 6.349, 4.534, 0.276, 7.633, 1.567],
    ]
)
LANGERMANN_C = np.array([0.806, 0.517, 1.5, 0.908, 0.965])

# Fletcher-Powell coefficient tables, drawn once from numpy's PCG64
# generator (seed 20140721 + dim) and frozen here so the objective is
# identical on every platform and numpy release.
FLETCHER_A = {
    2: np.array([[59, -90], [48, 69]], dtype=float),
    5: np.array(
        [
            [71, 73, 9, 88, -61],
            [-10, 12, 20, -55, -80],
            [44, 49, -92, -40, -90],
            [-37, 63, -98, 93, 3],
            [51, -2, 69, -43, -76],
        ],
        dtype=float,
    ),
    10: np.array(
        [
            [-25, 41, -68, -7, 35, 28, -96, 20, 51, 9],
            [71, 14, 52, -6, 8, -20, -56, 21, 98, 86],
            [73, 14, 5, 66, -80, 53, 14, 43, 47, -39],
            [-67, 80, 49, 0, -62, -58, 45, 84, -57, -63],
            [46, 70, 94, 10, 13, 80, -66, 68, -28, 11],
            [-19, 90, -40, 34, -42, 51, -80, -29, 54, 84],
            [-32, 45, 29, 84, -33, 3, 55, 66, -60, -49],
            [-19, -53, 54, -94, -39, -46, 42, 37, -45, 18],
            [32, -93, -88, 71, -70, -25, 39, 54, 78, 23],
            [-27, -61, 60, 87, 44, -95, -88, 23, 7, 83],
        ],
        dtype=float,
    ),
}
FLETCHER_B = {
    2: np.array([[-56, 19], [-51, 33]], dtype=float),
    5: np.array(
        [
            [92, 56, 69, 70, 47],
            [5, -93, -27, -77, -51],
            [17, -79, 21, -15, -70],
            [16, 6, 72, -3, 50],
            [-11, 6, 48, -43, -11],
        ],
        dtype=float,
    ),
    10: np.array(
        [
            [-79, 91, -52, -63, -45, 90, 35, 31, -6, -49],
            [-44, -76, 70, 58, 98, 50, -45, -13, 86, -65],
            [-42, 33, -8, 72, 98, -28, -37, 93, 23, -64],
            [67, 62, 86, 54, -53, -80, -84, 40, 13, 13],
            [90, 37, -4, -47, -91, -41, 63, 54, 72, 1],
            [-75, -51, -81, 43, 3, 11, 55, 26, 51, 80],
            [29, 39, 18, -21, -35, 38, 10, 53, -19, 89],
            [-69, -12, 42, -97, 86, -88, -71, -29, 86, 97],
            [-66, -34, -6, 91, 35, 84, 0, 79, -38, -16],
            [100, -36, 77, 31, -70, 30, -95, 64, -92, 26],
        ],
        dtype=float,
    ),
}
FLETCHER_ALPHA = {
    2: np.array([-2.169808425567952, -1.7329006167685541]),
    5: np.array(
        [
            0.47287511895062107,
            -2.867501746012879,
            1.5435960566016194,
            -0.5757702829844593,
            -2.61998262588458,
        ]
    ),
    10: np.array(
        [
            -2.8516562947960553,
            3.113423854207582,
            -1.5229581220864048,
            1.9803806674239013,
            -0.711382657088985,
            1.2282151065473146,
            -1.5028920258966638,
            1.378581826006653,
            -2.6284968163929405,
            -0.4108858472958894,
        ]
    ),
}


# ---------------------------------------------------------------------------
# objective functions
#
# Every objective maps ``(..., dim)`` points to one value per point (a
# float for a single point), so a whole population is one call.  The
# batched values are bit-for-bit those of the one-point formulas they
# replaced, which the golden traces pin.  Where numpy's array kernels
# round differently from the scalar code, the scalar routine is kept:
# - a power of one coordinate, or of a per-point scalar, goes through
#   libm ``pow`` element by element (``_pow``); numpy's SIMD array power
#   can differ from it in the last bit (on an AVX-512 CPU, for about
#   0.1% of ``x**2`` and 3% of ``x**4`` draws).  Powers of whole
#   coordinate arrays were array powers before and stay so;
# - Ackley applies ``math.exp`` to its per-point sums, since numpy's
#   SIMD ``exp`` also differs from libm's in the last bit;
# - Fletcher multiplies each point's ``sin``/``cos`` vector by its
#   matrices with ``np.matmul`` over a trailing vector axis, one gemv
#   per point; ``np.sin(X) @ a.T`` sums the products in another order.


def _batched(dim: int | None = None):
    """Serve ``(..., dim)`` input from a formula over ``(m, dim)`` rows.

    The formula always sees a C-contiguous 2-D array, so each row
    reduces exactly as a lone point would.  A fixed ``dim`` is checked
    against the last axis.
    """

    def wrap(formula):
        @functools.wraps(formula)
        def objective(x: np.ndarray) -> np.ndarray | float:
            x = np.asarray(x, dtype=float)
            if x.ndim == 0 or (dim is not None and x.shape[-1] != dim):
                raise ValueError(
                    f"{formula.__name__} expects points of shape (..., {dim or 'dim'}), "
                    f"got shape {x.shape}"
                )
            values = formula(np.ascontiguousarray(x.reshape(-1, x.shape[-1])))
            return float(values[0]) if x.ndim == 1 else values.reshape(x.shape[:-1])

        return objective

    return wrap


def _pow(a: np.ndarray, k: int) -> np.ndarray:
    """``a ** k`` element by element through libm ``pow``."""
    return np.array([v**k for v in a.tolist()])


@_batched(2)
def foxholes(x: np.ndarray) -> np.ndarray:
    denom = np.arange(1.0, 26.0) + np.sum((x[:, None, :] - FOXHOLES_A) ** 6, axis=-1)
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / denom, axis=-1))


@_batched()
def ackley(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    sq = np.sqrt(np.sum(x**2, axis=-1) / n).tolist()
    cs = (np.sum(np.cos(2.0 * math.pi * x), axis=-1) / n).tolist()
    return np.array(
        [-20.0 * math.exp(-0.2 * s) - math.exp(c) + 20.0 + math.e for s, c in zip(sq, cs)]
    )


@_batched(2)
def bohachevsky1(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return (
        _pow(x1, 2)
        + 2.0 * _pow(x2, 2)
        - 0.3 * np.cos(3.0 * math.pi * x1)
        - 0.4 * np.cos(4.0 * math.pi * x2)
        + 0.7
    )


@_batched(2)
def bohachevsky2(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return (
        _pow(x1, 2)
        + 2.0 * _pow(x2, 2)
        - 0.3 * np.cos(3.0 * math.pi * x1) * np.cos(4.0 * math.pi * x2)
        + 0.3
    )


@_batched(2)
def bohachevsky3(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return (
        _pow(x1, 2)
        + 2.0 * _pow(x2, 2)
        - 0.3 * np.cos(3.0 * math.pi * x1 + 4.0 * math.pi * x2)
        + 0.3
    )


@_batched(2)
def booth(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return _pow(x1 + 2.0 * x2 - 7.0, 2) + _pow(2.0 * x1 + x2 - 5.0, 2)


@_batched()
def dixon_price(x: np.ndarray) -> np.ndarray:
    idx = np.arange(2.0, x.shape[-1] + 1.0)
    return _pow(x[:, 0] - 1.0, 2) + np.sum(
        idx * (2.0 * x[:, 1:] ** 2 - x[:, :-1]) ** 2, axis=-1
    )


def dixon_price_minimizer(dim: int) -> np.ndarray:
    """The closed-form minimizer ``x_i = 2^{-(2^i - 2) / 2^i}``."""
    i = np.arange(1, dim + 1, dtype=float)
    return 2.0 ** (-(2.0**i - 2.0) / 2.0**i)


def make_fletcher(dim: int) -> Callable[[np.ndarray], np.ndarray | float]:
    """Fletcher-Powell objective for one of the frozen dimensions."""
    a, b, alpha = FLETCHER_A[dim], FLETCHER_B[dim], FLETCHER_ALPHA[dim]
    target = a @ np.sin(alpha) + b @ np.cos(alpha)

    @_batched(dim)
    def fletcher(x: np.ndarray) -> np.ndarray:
        current = (
            np.matmul(a, np.sin(x)[..., None])[..., 0]
            + np.matmul(b, np.cos(x)[..., None])[..., 0]
        )
        return np.sum((target - current) ** 2, axis=-1)

    return fletcher


@_batched()
def griewank(x: np.ndarray) -> np.ndarray:
    idx = np.sqrt(np.arange(1.0, x.shape[-1] + 1.0))
    return np.sum(x**2, axis=-1) / 4000.0 - np.prod(np.cos(x / idx), axis=-1) + 1.0


def _hartman(x: np.ndarray, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    inner = np.sum(a * (x[:, None, :] - p) ** 2, axis=-1)
    return -np.sum(HARTMAN_C * np.exp(-inner), axis=-1)


@_batched(3)
def hartman3(x: np.ndarray) -> np.ndarray:
    return _hartman(x, HARTMAN3_A, HARTMAN3_P)


@_batched(6)
def hartman6(x: np.ndarray) -> np.ndarray:
    return _hartman(x, HARTMAN6_A, HARTMAN6_P)


@_batched(4)
def kowalik(x: np.ndarray) -> np.ndarray:
    b = KOWALIK_B
    model = x[:, 0:1] * (b**2 + b * x[:, 1:2]) / (b**2 + b * x[:, 2:3] + x[:, 3:4])
    return np.sum((KOWALIK_A - model) ** 2, axis=-1)


def make_langermann(dim: int) -> Callable[[np.ndarray], np.ndarray | float]:
    """Five-site Langermann objective on the first ``dim`` columns."""
    a = LANGERMANN_A[:, :dim]

    @_batched(dim)
    def langermann(x: np.ndarray) -> np.ndarray:
        sq = np.sum((x[:, None, :] - a) ** 2, axis=-1)
        return -np.sum(
            LANGERMANN_C * np.exp(-sq / math.pi) * np.cos(math.pi * sq), axis=-1
        )

    return langermann


@_batched(2)
def matyas(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return 0.26 * (_pow(x1, 2) + _pow(x2, 2)) - 0.48 * x1 * x2


@_batched()
def quartic(x: np.ndarray) -> np.ndarray:
    """Weighted fourth powers, without noise."""
    return np.sum(np.arange(1.0, x.shape[-1] + 1.0) * x**4, axis=-1)


def make_noisy_quartic(seed: int) -> Callable[[np.ndarray], np.ndarray | float]:
    """Quartic with its own seeded uniform(0, 1) noise stream.

    The standard form adds uniform(0, 1) noise to every evaluation.
    Each closure owns its generator, so a fresh one replays the same
    noise sequence, keeping runs reproducible; a batch draws its noise
    in row order, as that many single evaluations would.
    """
    rng = np.random.default_rng(seed)

    def noisy_quartic(x: np.ndarray) -> np.ndarray | float:
        values = quartic(x)
        return values + rng.uniform(0.0, 1.0, size=np.shape(values))

    return noisy_quartic


@_batched()
def rastrigin(x: np.ndarray) -> np.ndarray:
    return np.sum(x**2 - 10.0 * np.cos(2.0 * math.pi * x) + 10.0, axis=-1)


@_batched(2)
def schaffer(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    sq = _pow(x1, 2) + _pow(x2, 2)
    return 0.5 + (_pow(np.sin(np.sqrt(sq)), 2) - 0.5) / _pow(1.0 + 0.001 * sq, 2)


@_batched()
def schwefel_1_2(x: np.ndarray) -> np.ndarray:
    return np.sum(np.cumsum(x, axis=-1) ** 2, axis=-1)


@_batched()
def schwefel_2_22(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.sum(ax, axis=-1) + np.prod(ax, axis=-1)


@_batched(2)
def six_hump_camelback(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.T
    return (
        4.0 * _pow(x1, 2)
        - 2.1 * _pow(x1, 4)
        + _pow(x1, 6) / 3.0
        + x1 * x2
        - 4.0 * _pow(x2, 2)
        + 4.0 * _pow(x2, 4)
    )


@_batched()
def sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x**2, axis=-1)


@_batched()
def step2(x: np.ndarray) -> np.ndarray:
    return np.sum(np.floor(x + 0.5) ** 2, axis=-1)


@_batched()
def sumsquares(x: np.ndarray) -> np.ndarray:
    return np.sum(np.arange(1.0, x.shape[-1] + 1.0) * x**2, axis=-1)


@_batched()
def zakharov(x: np.ndarray) -> np.ndarray:
    s = np.sum(0.5 * np.arange(1.0, x.shape[-1] + 1.0) * x, axis=-1)
    return np.sum(x**2, axis=-1) + _pow(s, 2) + _pow(s, 4)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class BenchmarkSpec:
    """One catalog entry.

    ``tags`` is the two-letter modality/separability label as printed
    in the benchmark literature.  ``known_best`` and
    ``known_minimizer`` are reference values where an analytic optimum
    (or a well-established numeric one) exists; they are None for the
    Langermann functions, whose exact optima are not tabulated.
    ``objective`` is the function :func:`build_problem` wraps; for
    Quartic it is the noise-free core, since every built Problem gets
    its own seeded noise stream.
    """

    id: str
    name: str
    tags: str
    dim: int
    lower: float
    upper: float
    known_best: float | None
    known_minimizer: tuple[float, ...] | None
    objective: Callable[[np.ndarray], np.ndarray | float]

    @property
    def problem(self) -> Problem:
        """A fresh Problem at the canonical dimension."""
        return build_problem(self.id)


# Entries whose implementation really is additively separable.  Foxholes
# and Booth carry an S tag in the printed table but contain cross terms,
# so they are deliberately absent here.
SEPARABLE_IDS = ("F7", "F32", "F33", "F44", "F45", "F47")

# Scalable families accept a dimension override in build_problem.
_SCALABLE = ("F5", "F13", "F18", "F33", "F37", "F38", "F44", "F45", "F47", "F50")

_QUARTIC_NOISE_SEED = 0

# Reference optima at full precision.  Printed 5-to-7-digit roundings
# of these points would fail the evaluate-at-minimizer consistency
# check, so the minimizers were polished numerically once and frozen.
_CAMELBACK_BEST = -1.031628453489877
_CAMELBACK_MIN = (0.08984201368301331, -0.7126564032704135)
_FOXHOLES_BEST = 0.998003838818649  # value in the (-32, -32) well
_HARTMAN3_BEST = -3.862779787332663
_HARTMAN3_MIN = (0.11458888122541287, 0.5556488954739371, 0.8525469842172746)
_HARTMAN6_BEST = -3.3223680114155147
_HARTMAN6_MIN = (
    0.20168950909365746,
    0.15001069354111374,
    0.4768739729250998,
    0.2753324275220782,
    0.3116516172395686,
    0.6573005345536702,
)
_KOWALIK_BEST = 0.00030748598780560546
_KOWALIK_MIN = (
    0.19283345304745073,
    0.19083624025652476,
    0.12311729859519424,
    0.13576599022558,
)


def _origin(dim: int) -> tuple[float, ...]:
    return (0.0,) * dim


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


# Built once at import; specs are immutable, Problems are built per call.
_SPECS = tuple(
    BenchmarkSpec(*row)
    for row in (
        ("F1", "Foxholes", "MS", 2, -65.536, 65.536, _FOXHOLES_BEST, (-32.0, -32.0), foxholes),
        ("F5", "Ackley", "MN", 30, -32.0, 32.0, 0.0, _origin(30), ackley),
        ("F7", "Bohachevsky1", "MS", 2, -100.0, 100.0, 0.0, _origin(2), bohachevsky1),
        ("F8", "Bohachevsky2", "MN", 2, -100.0, 100.0, 0.0, _origin(2), bohachevsky2),
        ("F9", "Bohachevsky3", "MN", 2, -100.0, 100.0, 0.0, _origin(2), bohachevsky3),
        ("F10", "Booth", "MS", 2, -10.0, 10.0, 0.0, (1.0, 3.0), booth),
        ("F13", "Dixon-Price", "UN", 30, -10.0, 10.0, 0.0,
         _floats(dixon_price_minimizer(30)), dixon_price),
        ("F15", "Fletcher", "MN", 2, -3.1416, 3.1416, 0.0,
         _floats(FLETCHER_ALPHA[2]), make_fletcher(2)),
        ("F16", "Fletcher", "MN", 5, -3.1416, 3.1416, 0.0,
         _floats(FLETCHER_ALPHA[5]), make_fletcher(5)),
        ("F17", "Fletcher", "MN", 10, -3.1416, 3.1416, 0.0,
         _floats(FLETCHER_ALPHA[10]), make_fletcher(10)),
        ("F18", "Griewank", "MN", 30, -600.0, 600.0, 0.0, _origin(30), griewank),
        ("F19", "Hartman3", "MN", 3, 0.0, 1.0, _HARTMAN3_BEST, _HARTMAN3_MIN, hartman3),
        ("F20", "Hartman6", "MN", 6, 0.0, 1.0, _HARTMAN6_BEST, _HARTMAN6_MIN, hartman6),
        ("F21", "Kowalik", "MN", 4, -5.0, 5.0, _KOWALIK_BEST, _KOWALIK_MIN, kowalik),
        ("F23", "Langermann5", "MN", 5, 0.0, 10.0, None, None, make_langermann(5)),
        ("F24", "Langermann10", "MN", 10, 0.0, 10.0, None, None, make_langermann(10)),
        ("F25", "Matyas", "UN", 2, -10.0, 10.0, 0.0, _origin(2), matyas),
        ("F32", "Quartic", "US", 30, -1.28, 1.28, 0.0, _origin(30), quartic),
        ("F33", "Rastrigin", "MS", 30, -5.12, 5.12, 0.0, _origin(30), rastrigin),
        ("F35", "Schaffer", "MN", 2, -100.0, 100.0, 0.0, _origin(2), schaffer),
        ("F37", "Schwefel_1_2", "UN", 30, -100.0, 100.0, 0.0, _origin(30), schwefel_1_2),
        ("F38", "Schwefel_2_22", "UN", 30, -10.0, 10.0, 0.0, _origin(30), schwefel_2_22),
        ("F43", "Six-hump camelback", "MN", 2, -5.0, 5.0, _CAMELBACK_BEST, _CAMELBACK_MIN,
         six_hump_camelback),
        ("F44", "Sphere2", "US", 30, -100.0, 100.0, 0.0, _origin(30), sphere),
        ("F45", "Step2", "US", 30, -100.0, 100.0, 0.0, _origin(30), step2),
        ("F47", "Sumsquares", "US", 30, -10.0, 10.0, 0.0, _origin(30), sumsquares),
        ("F50", "Zakharov", "UN", 10, -5.0, 10.0, 0.0, _origin(10), zakharov),
    )
)
_BY_ID = {spec.id: spec for spec in _SPECS}


def registry() -> list[BenchmarkSpec]:
    """The full 27-entry catalog, in table order.

    Specs hold no evaluation state; each ``.problem`` read builds a
    fresh Problem, so the Quartic noise stream always starts from its
    seed and repeated experiments stay reproducible.
    """
    return list(_SPECS)


def get(spec_id: str) -> BenchmarkSpec:
    """Look up one catalog entry by id (case-insensitive)."""
    try:
        return _BY_ID[spec_id.upper()]
    except KeyError:
        raise KeyError(f"unknown benchmark id {spec_id!r}") from None


def build_problem(
    spec_id: str, dim: int | None = None, noise_seed: int | None = None
) -> Problem:
    """Create a fresh Problem for a catalog entry.

    ``dim`` overrides the canonical dimension for the scalable families
    (sphere-like sums); fixed-dimension entries reject an override.
    ``noise_seed`` reseeds the Quartic noise stream, which is how the
    experiment runner keeps noisy runs both random across seeds and
    reproducible per seed.
    """
    spec = get(spec_id)
    name = spec.id
    if dim is None or dim == spec.dim:
        dim = spec.dim
    elif spec.id not in _SCALABLE:
        raise ValueError(f"benchmark {spec.id} has a fixed dimension of {spec.dim}")
    elif dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    else:
        name = f"{spec.id}@{dim}"
    objective = spec.objective
    if spec.id == "F32":
        objective = make_noisy_quartic(
            _QUARTIC_NOISE_SEED if noise_seed is None else noise_seed
        )
    return Problem(
        name=name,
        dim=dim,
        lower=np.full(dim, spec.lower),
        upper=np.full(dim, spec.upper),
        sense=Sense.MINIMIZE,
        objective=objective,
    )


def catalog() -> list[dict]:
    """JSON-ready listing used by the command-line ``list-problems``."""
    return [
        {
            "id": spec.id,
            "name": spec.name,
            "tags": spec.tags,
            "dim": spec.dim,
            "lower": spec.lower,
            "upper": spec.upper,
            "known_best": spec.known_best,
        }
        for spec in registry()
    ]
