import json
import math

import numpy as np
import pytest

from labopt import benchmarks
from labopt.benchmarks import (
    QuarticObjective,
    SEPARABLE_IDS,
    build_problem,
    dixon_price_minimizer,
    registry,
)
from labopt.problem import Sense

# id, name, tags, dim, lower, upper, known_best
EXPECTED_ROWS = [
    ("F1", "Foxholes", "MS", 2, -65.536, 65.536, 0.998003838818649),
    ("F5", "Ackley", "MN", 30, -32.0, 32.0, 0.0),
    ("F7", "Bohachevsky1", "MS", 2, -100.0, 100.0, 0.0),
    ("F8", "Bohachevsky2", "MN", 2, -100.0, 100.0, 0.0),
    ("F9", "Bohachevsky3", "MN", 2, -100.0, 100.0, 0.0),
    ("F10", "Booth", "MS", 2, -10.0, 10.0, 0.0),
    ("F13", "Dixon-Price", "UN", 30, -10.0, 10.0, 0.0),
    ("F15", "Fletcher", "MN", 2, -3.1416, 3.1416, 0.0),
    ("F16", "Fletcher", "MN", 5, -3.1416, 3.1416, 0.0),
    ("F17", "Fletcher", "MN", 10, -3.1416, 3.1416, 0.0),
    ("F18", "Griewank", "MN", 30, -600.0, 600.0, 0.0),
    ("F19", "Hartman3", "MN", 3, 0.0, 1.0, -3.862779787332663),
    ("F20", "Hartman6", "MN", 6, 0.0, 1.0, -3.3223680114155147),
    ("F21", "Kowalik", "MN", 4, -5.0, 5.0, 0.00030748598780560546),
    ("F23", "Langermann5", "MN", 5, 0.0, 10.0, None),
    ("F24", "Langermann10", "MN", 10, 0.0, 10.0, None),
    ("F25", "Matyas", "UN", 2, -10.0, 10.0, 0.0),
    ("F32", "Quartic", "US", 30, -1.28, 1.28, 0.0),
    ("F33", "Rastrigin", "MS", 30, -5.12, 5.12, 0.0),
    ("F35", "Schaffer", "MN", 2, -100.0, 100.0, 0.0),
    ("F37", "Schwefel_1_2", "UN", 30, -100.0, 100.0, 0.0),
    ("F38", "Schwefel_2_22", "UN", 30, -10.0, 10.0, 0.0),
    ("F43", "Six-hump camelback", "MN", 2, -5.0, 5.0, -1.031628453489877),
    ("F44", "Sphere2", "US", 30, -100.0, 100.0, 0.0),
    ("F45", "Step2", "US", 30, -100.0, 100.0, 0.0),
    ("F47", "Sumsquares", "US", 30, -10.0, 10.0, 0.0),
    ("F50", "Zakharov", "UN", 10, -5.0, 10.0, 0.0),
]


def test_registry_matches_frozen_table():
    rows = [
        (s.id, s.name, s.tags, s.dim, s.lower, s.upper, s.known_best)
        for s in registry()
    ]
    assert rows == EXPECTED_ROWS


def test_every_entry_builds_a_consistent_problem():
    for spec in registry():
        p = spec.problem
        assert p.dim == spec.dim
        assert p.sense is Sense.MINIMIZE
        assert np.all(p.lower == spec.lower)
        assert np.all(p.upper == spec.upper)
        assert p.name == spec.id


def test_known_minimizers_reproduce_known_best():
    checked = 0
    for spec in registry():
        if spec.known_minimizer is None or spec.id == "F32":
            continue  # Langermann has no published optimum; Quartic is noisy
        x = np.array(spec.known_minimizer, dtype=float)
        assert spec.problem.contains(x), spec.id
        value = spec.problem.evaluate(x)
        assert abs(value - spec.known_best) <= 1e-9, (spec.id, value)
        checked += 1
    assert checked >= 16


def test_objectives_stay_finite_on_random_points():
    rng = np.random.default_rng(0)
    for spec in registry():
        p = build_problem(spec.id, noise_seed=1)
        span = p.upper - p.lower
        for _ in range(300):
            x = p.lower + span * rng.random(p.dim)
            p.evaluate(x)  # raises EvaluationError on non-finite values


def test_foxholes_against_literal_double_loop():
    # direct transcription from the 25-well lattice definition
    offsets = [-32.0, -16.0, 0.0, 16.0, 32.0]

    def reference(x1, x2):
        total = 1.0 / 500.0
        for j in range(25):
            a1 = offsets[j % 5]
            a2 = offsets[j // 5]
            total += 1.0 / ((j + 1) + (x1 - a1) ** 6 + (x2 - a2) ** 6)
        return 1.0 / total

    p = build_problem("F1")
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-65.536, 65.536, size=2)
        assert p.evaluate(x) == pytest.approx(reference(*x), rel=1e-12)
    spec = benchmarks.get("F1")
    assert reference(-32.0, -32.0) == pytest.approx(spec.known_best, abs=1e-12)


def test_separable_entries_have_no_cross_terms():
    # for a sum of per-coordinate terms, mixed second differences vanish:
    # f(x+h_i+h_j) - f(x+h_i) - f(x+h_j) + f(x) = 0 for i != j
    rng = np.random.default_rng(5)
    for sid in SEPARABLE_IDS:
        p = build_problem(sid, noise_seed=None)
        if sid == "F32":
            continue  # noise breaks exact cancellation
        for _ in range(10):
            x = rng.uniform(p.lower, p.upper) * 0.5
            i, j = rng.choice(p.dim, size=2, replace=False)
            hi = np.zeros(p.dim)
            hj = np.zeros(p.dim)
            hi[i] = 0.37
            hj[j] = -0.21
            mixed = (
                p.evaluate(x + hi + hj)
                - p.evaluate(x + hi)
                - p.evaluate(x + hj)
                + p.evaluate(x)
            )
            scale = max(1.0, abs(p.evaluate(x)))
            assert abs(mixed) <= 1e-9 * scale, (sid, mixed)


def test_booth_and_foxholes_do_have_cross_terms():
    # both carry a separable-style tag in the printed table, but their
    # formulas couple the coordinates, so they are excluded from the
    # separability property above
    for sid, x, i, j in [("F10", np.array([1.0, 2.0]), 0, 1),
                         ("F1", np.array([5.0, -3.0]), 0, 1)]:
        p = build_problem(sid)
        hi = np.zeros(2)
        hj = np.zeros(2)
        hi[i] = 1.0
        hj[j] = 1.0
        mixed = (
            p.evaluate(x + hi + hj)
            - p.evaluate(x + hi)
            - p.evaluate(x + hj)
            + p.evaluate(x)
        )
        assert abs(mixed) > 1e-6, sid


def test_hand_values_of_simple_functions():
    assert build_problem("F44").evaluate(np.zeros(30)) == 0.0
    x = np.zeros(30)
    x[0] = 3.0
    assert build_problem("F44").evaluate(x) == 9.0
    assert build_problem("F10").evaluate(np.array([1.0, 3.0])) == 0.0
    assert build_problem("F25").evaluate(np.array([0.0, 0.0])) == 0.0
    # Step2 floors x + 0.5, so anything in [-0.5, 0.5) maps to zero
    assert build_problem("F45").evaluate(np.full(30, 0.49)) == 0.0
    assert build_problem("F45").evaluate(np.full(30, 0.5)) == 30.0
    assert build_problem("F47").evaluate(np.arange(1.0, 31.0)) == float(
        sum((i + 1) * (i + 1) ** 2 for i in range(30))
    )
    # Schwefel_1_2 is the squared cumulative sum
    assert build_problem("F37").evaluate(
        np.array([1.0, 2.0, 3.0] + [0.0] * 27)
    ) == pytest.approx(1.0 + 9.0 + 36.0 + 27 * 36.0, rel=1e-15)


def test_ackley_and_rastrigin_at_origin():
    assert build_problem("F5").evaluate(np.zeros(30)) == pytest.approx(0.0, abs=1e-12)
    assert build_problem("F33").evaluate(np.zeros(30)) == 0.0


def test_dixon_price_minimizer_is_analytic():
    for dim in (2, 5, 30):
        x = dixon_price_minimizer(dim)
        spec = benchmarks.get("F13")
        p = build_problem("F13", dim=dim) if dim != spec.dim else spec.problem
        assert p.evaluate(x) <= 1e-20


def test_fletcher_targets_are_exact_zeros():
    for sid in ("F15", "F16", "F17"):
        spec = benchmarks.get(sid)
        alpha = np.array(spec.known_minimizer)
        assert spec.problem.evaluate(alpha) == 0.0
        # moving away from alpha leaves the floor
        assert spec.problem.evaluate(np.clip(alpha + 0.5, -3.1416, 3.1416)) > 0.0


def test_langermann_values_are_reasonable():
    for sid in ("F23", "F24"):
        spec = benchmarks.get(sid)
        assert spec.known_best is None
        v = spec.problem.evaluate(np.full(spec.dim, 5.0))
        assert math.isfinite(v)


def test_quartic_noise_is_reproducible_per_seed():
    a = QuarticObjective(seed=7)
    b = QuarticObjective(seed=7)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.28, 1.28, size=(20, 30))
    va = [a(x) for x in xs]
    vb = [b(x) for x in xs]
    assert va == vb
    c = QuarticObjective(seed=8)
    assert [c(x) for x in xs] != va


def test_quartic_noiseless_variant_is_deterministic():
    quiet = QuarticObjective(seed=0, noisy=False)
    x = np.full(30, 0.5)
    expected = sum((i + 1) * 0.5**4 for i in range(30))
    assert quiet(x) == pytest.approx(expected, rel=1e-15)
    assert quiet(x) == quiet(x)
    noisy = QuarticObjective(seed=0, noisy=True)
    assert noisy(x) != noisy(x)  # fresh draw per call


def test_registry_rebuilds_fresh_noise_stream():
    xs = np.full(30, 0.3)
    first = [s for s in registry() if s.id == "F32"][0].problem.evaluate(xs)
    second = [s for s in registry() if s.id == "F32"][0].problem.evaluate(xs)
    assert first == second  # same registry seed, fresh stream each call


def test_every_build_returns_a_fresh_problem():
    # Quartic noise restarts from its seed on every build and every read
    x = np.full(30, 0.3)
    built = [build_problem("F32").evaluate(x) for _ in range(2)]
    read = [[s for s in registry() if s.id == "F32"][0].problem.evaluate(x) for _ in range(2)]
    assert built[0] == built[1] == read[0] == read[1]
    # changes to one returned Problem never reach the next one
    for make in (lambda: build_problem("F10"), lambda: benchmarks.get("F10").problem):
        first = make()
        first.lower[:] = 5.0
        first.lower = np.full(2, 7.0)
        first.objective = lambda x: float("nan")
        second = make()
        assert second is not first
        assert np.all(second.lower == -10.0)
        assert second.evaluate(np.array([1.0, 3.0])) == 0.0


def test_build_problem_dim_override_for_scalable_families():
    p = build_problem("F44", dim=5)
    assert p.name == "F44@5"
    assert p.dim == 5
    assert p.evaluate(np.ones(5)) == 5.0
    assert build_problem("F47", dim=5).dim == 5
    # canonical dimension keeps the plain name
    assert build_problem("F44", dim=30).name == "F44"


def test_build_problem_rejects_bad_overrides():
    with pytest.raises(ValueError):
        build_problem("F10", dim=5)  # fixed-dimension entry
    with pytest.raises(ValueError):
        build_problem("F44", dim=0)


def test_get_is_case_insensitive_and_strict():
    assert benchmarks.get("f10").id == "F10"
    with pytest.raises(KeyError):
        benchmarks.get("F2")


def test_catalog_is_json_ready():
    text = json.dumps(benchmarks.catalog())
    data = json.loads(text)
    assert len(data) == 27
    assert data[0]["id"] == "F1"
