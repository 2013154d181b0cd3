import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labopt import benchmarks, machining
from labopt.benchmarks import (
    SEPARABLE_IDS,
    build_problem,
    dixon_price_minimizer,
    make_noisy_quartic,
    quartic,
    registry,
)
from labopt.engine import LabConfig, run
from labopt.problem import Sense

from conftest import in_box

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
        p = build_problem(spec.id)
        assert p.dim == spec.dim
        assert p.sense is Sense.MINIMIZE
        assert np.all(p.lower == spec.lower)
        assert np.all(p.upper == spec.upper)
        assert p.name == spec.id


def test_each_lab_step_is_one_objective_call():
    for spec in registry():
        p = build_problem(spec.id)
        batch_sizes = []
        objective = p.objective
        p.objective = lambda x, f=objective: batch_sizes.append(len(x)) or f(x)
        trace = run(p, LabConfig(max_iterations=3, seed=0))
        population = LabConfig().population
        assert batch_sizes == [population] * (trace.n_evaluations // population), spec.id


def test_known_minimizers_reproduce_known_best():
    checked = 0
    for spec in registry():
        if spec.known_minimizer is None or spec.id == "F32":
            continue  # Langermann has no published optimum; Quartic is noisy
        x = np.array(spec.known_minimizer, dtype=float)
        p = build_problem(spec.id)
        assert in_box(p, x), spec.id
        value = p.evaluate(x)
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
        p = build_problem("F13", dim=dim)
        assert p.evaluate(x) <= 1e-20


def test_fletcher_targets_are_exact_zeros():
    for sid in ("F15", "F16", "F17"):
        p = build_problem(sid)
        alpha = np.array(benchmarks.get(sid).known_minimizer)
        assert p.evaluate(alpha) == 0.0
        # moving away from alpha leaves the floor
        assert p.evaluate(np.clip(alpha + 0.5, -3.1416, 3.1416)) > 0.0


def test_langermann_values_are_reasonable():
    for sid in ("F23", "F24"):
        spec = benchmarks.get(sid)
        assert spec.known_best is None
        v = build_problem(sid).evaluate(np.full(spec.dim, 5.0))
        assert math.isfinite(v)


def test_quartic_noise_is_reproducible_per_seed():
    a = make_noisy_quartic(7)
    b = make_noisy_quartic(7)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.28, 1.28, size=(20, 30))
    va = [a(x) for x in xs]
    vb = [b(x) for x in xs]
    assert va == vb
    c = make_noisy_quartic(8)
    assert [c(x) for x in xs] != va


def test_quartic_noiseless_variant_is_deterministic():
    x = np.full(30, 0.5)
    expected = sum((i + 1) * 0.5**4 for i in range(30))
    assert quartic(x) == pytest.approx(expected, rel=1e-15)
    assert quartic(x) == quartic(x)
    assert benchmarks.get("F32").objective is quartic
    noisy = make_noisy_quartic(0)
    assert noisy(x) != noisy(x)  # fresh draw per call


def test_every_build_returns_a_fresh_problem():
    # Quartic noise restarts from its seed on every build
    x = np.full(30, 0.3)
    built = [build_problem("F32").evaluate(x) for _ in range(2)]
    assert built[0] == built[1]
    # changes to one returned Problem never reach the next one
    first = build_problem("F10")
    first.lower[:] = 5.0
    first.lower = np.full(2, 7.0)
    first.objective = lambda x: float("nan")
    second = build_problem("F10")
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



# sha256 of the float64 bytes of Problem.evaluate over _frozen_points,
# computed on the one-point objectives before they were batched
FROZEN_OBJECTIVE_DIGESTS = {
    "F1": "e0ab22b25684e406a7105ee0821c1ee549e064be3be07d1549a94d3a02f0702c",
    "F5": "21f0092fcb6bc99fcda73c635361e6e53902823ef868c35951e2fc9613be67c6",
    "F7": "171080c0bf06dda6f05199fa7daedee84e9d29ec4aeef06abe7b2fc5f3804116",
    "F8": "8c123cf1a125f759969803af836d32b7e30ac01a9cbc3c90d9047e87d3812cd7",
    "F9": "e9ed80fdf8b9d4f2c695d020e0282b7a0c0f07206b727cf74585c9115b9b5140",
    "F10": "e372daaa8b075a1f3b69bd0e211a64d52f80ad5d3890f4ad74e96aed9b204c9e",
    "F13": "4d9d6fbf2cc12151550d0a3efee1ae926e2b28069db2361809d90389182f0fea",
    "F15": "f29ca32292397db2d41ec4a2be2965418f166c157fbb4f3033055e3b4d1382df",
    "F16": "57cbbd6f2d3fef5ea88efff274dfdd4c2eceb384c45c013cdd942a72e5840843",
    "F17": "fb88ff3b95ba29b61ebe97f07e323695a287ce2475fb4bd500d9c7e3a2366d85",
    "F18": "1e8f0e5ad2a85da434368b9344c2444a8ac6bcbd8711f04cd695470e99d80f60",
    "F19": "b384af214c64a7bf9e752cc484d241b6e7a822225e59fce40e028b00a9d9d253",
    "F20": "8f8747ae61628079821a240bb4928c3a0442ef659b38bc726c85149e507f3e91",
    "F21": "0e101fc0d88925a69d925a0d8cb9220022f7799dd37a34ffc1de0b61a4399917",
    "F23": "c9701122ba3e5940c43bdf123d0bada782754fb23fb15fe0dc2b5e17a92a2db0",
    "F24": "eb475c254673fb4811d84af5d53d1971909120da8f9feddec900c1450afaeb64",
    "F25": "72f651ca5aedaabd4dbad58e3231d41ae9777f6f79a32b3e161b34297df02973",
    "F32": "70e25081263b7206cc414b60c5dce3a48fa6bebfc88eb38321dca12b1101d7a1",
    "F33": "859f996afe6013362ebd00a617047c046e1f342802c1f9ab286d70213cb067c8",
    "F35": "02d89ac989eaa4d565213f96c3d899c8330db4a4a2a8b8615ce945b8edfd8660",
    "F37": "ab145c7d9525621f67803a2f582619407d10b333c14f2b8c121b7ed32b3b57f5",
    "F38": "8d73a60c3505432907d626016326d74155bc1da937c2389e261f5a5ae8e4faf5",
    "F43": "cd7e4026e1898c3e114c5f609877279cf0f1272b8543e947ceda00b483005d68",
    "F44": "97673d6a8554cca334d108c555e61f548ec51767bf4108d04dba3fb606708b2b",
    "F45": "175ffbdba234c141b126e30b096fad64c5377d19c95064f907129411c7d97f97",
    "F47": "440bbb8a00476046962ffd34822d0c3d2906a2d459e0cc4a12d232f93a8098db",
    "F50": "d3a9078becd9c8f555bf9117f07423fac7b069ec1d70c755bd41646f971a2122",
    "F5@2": "2072cebac552eebcd100c0b6ec15733f8031318e2e110750816a57a7fdbe92f3",
    "F5@5": "cc7eb4d24096405a92859bcdaee40f6d518c6837aefb5de95b4f4ba6a93f48d0",
    "F5@10": "7b8eb1f488cec94f5360151c1f3156c19c89744f3252b2a3979fb05519cf52ce",
    "F13@2": "962c08983f3dc50f9850e29bdba2da02fd1309ea8e4e56e562b3d8367ec53f9d",
    "F13@5": "cb34624a901b30e35ce2357c5b3d59baa464b69062af47ef82a8a9dee1dfcce1",
    "F13@10": "15a30aed508eee863b9248040bfc67d14828d8efb11608193bc1566e12ac759c",
    "F18@2": "33c6c0d54acf1149f788d9470033a446b6a08e4d30dea36dbc4695209a9c88dc",
    "F18@5": "4360687fb5aca0075549f11b327812bbfb07ef7afc6f920a18832f09fb875be7",
    "F18@10": "4e57b658053d69cab1d861f9ec53ad7fbbe068c089d278c3f361fb3fa4c35240",
    "F33@2": "10967f763ec8938c71535b207cc002cb3c5012809feb5b3db705e57258d6d2c7",
    "F33@5": "f20506ef627af416cbea443fddcd2ff6cb3e7cb2d00cde50eddc0f4d6e721781",
    "F33@10": "e150a61eff0db69d64a23cd48476975da11d8c072a67d2d796169bc4d05fdf1e",
    "F37@2": "4105a0d1d0ef916206e5da36d8c6724a16721cb8e4cdb7851dd73e708133c273",
    "F37@5": "be2174a2ff24ca738f864472b44a884c472ae759698813474a1daa445bd0c5b9",
    "F37@10": "3a38e6790692424a843fb907156966d122a90468c33402a998e4ee3320b20ff5",
    "F38@2": "ada0637830da0fc8df64a8a463406ae17bf3a1ea0e3da2f8ec1952609eec3253",
    "F38@5": "f137cbfa7db7aeba441533d06592e58fa0ea8f3a3fa6b8e0e3a7aa1975a3c1ac",
    "F38@10": "44017d5f6860960f8f7a46c0d3f6ead9285ae57d1ba112a111fe54941390ace8",
    "F44@2": "7f3c1c59118288eeb83857794c1051a34a87c5589723319dbdb16c73b27247d8",
    "F44@5": "cc1ef6220967ffe248eafada33d1d2a29f089158887d67a3762ec214dfea01e3",
    "F44@10": "2364a7d128f65cddf21fa69e794ce0e68c0c1404713f4e107cb7e1c77a21ad39",
    "F45@2": "abc4be973d14f59d0ed014549fe0f719b2d96acb243aa6627af42c54c0047d7f",
    "F45@5": "77f95f927d3c9a2228a6025600b5dba5b28f5aabd09820f6d918f5718c0c003f",
    "F45@10": "15817242b5a17f2ac90ee239f6d7ff6bcf2dd96026a0a0279daf27e17f552ccc",
    "F47@2": "1984da3fa11d3cba024541ae606166856315fa8707086df0834d270c58cb065e",
    "F47@5": "828d42d0627cf56314e313a16f1eddbe7e7b496d8bd186793e934bf9df76c100",
    "F47@10": "61e8a1332a552d3f73e269212d6aff590f314e7746f58cc8f4d9c710262775a3",
    "F50@2": "d7adeaaa0b6265bd037c141221e63c23733bd180f97cce4dae61eef4f067ddc1",
    "F50@5": "de86f2105463e49d0b7cb52109767570d225edcc76ef88eedbec6e620536e7a9",
    "F50@10": "d3a9078becd9c8f555bf9117f07423fac7b069ec1d70c755bd41646f971a2122",
    "F32-noise-seed-11": "113c98ab9a1aa1629160f83687e2809f5ad37df6139cc56e5f4ecb67e51bb244",
}


def _frozen_points(problem):
    """Random points, box corners, the centre and near-collapsed points."""
    rng = np.random.default_rng(20221017)
    lo, hi, dim = problem.lower, problem.upper, problem.dim
    span = hi - lo
    random = lo + span * rng.random((40, dim))
    if 2**dim <= 32:
        bits = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1
    else:
        bits = rng.integers(0, 2, size=(32, dim))
    corners = np.where(bits == 1, hi, lo)
    centre = lo + 0.5 * span
    base = random[0]
    collapsed = np.clip(base + 1e-12 * span * rng.standard_normal((8, dim)), lo, hi)
    clamped = np.clip(lo + span * (1.5 * rng.random((8, dim)) - 0.25), lo, hi)
    return np.vstack([random, corners, centre, base, base, collapsed, clamped])


def _frozen_cases():
    """Name -> builder of a fresh Problem (Quartic noise restarts per build)."""
    cases = {spec.id: (spec.id, None, None) for spec in registry()}
    for spec_id in benchmarks._SCALABLE:
        for dim in (2, 5, 10):
            cases[f"{spec_id}@{dim}"] = (spec_id, dim, None)
    cases["F32-noise-seed-11"] = ("F32", None, 11)
    return {name: lambda args=args: build_problem(*args) for name, args in cases.items()}


def test_objective_values_are_frozen():
    digests = {}
    for name, make in _frozen_cases().items():
        problem = make()
        points = _frozen_points(problem)
        values = np.array([problem.evaluate(x) for x in points])
        # the batch path gives the same values, in the same noise order
        assert np.array_equal(make().evaluate_batch(points), values), name
        digests[name] = hashlib.sha256(values.tobytes()).hexdigest()
    assert digests == FROZEN_OBJECTIVE_DIGESTS


def _catalog_problem(name, dim, noise_seed):
    """A fresh Problem for a benchmark id or a machining key."""
    if name in benchmarks._BY_ID:
        if name not in benchmarks._SCALABLE:
            dim = None
        return build_problem(name, dim=dim, noise_seed=noise_seed)
    return machining.get(name).problem


CATALOG_NAMES = [spec.id for spec in registry()] + [
    spec.key for spec in machining.machining_registry()
]


@st.composite
def catalog_batches(draw):
    """A catalog problem and a batch of random, corner, clamped and collapsed points."""
    name = draw(st.sampled_from(CATALOG_NAMES))
    dim = draw(st.one_of(st.none(), st.integers(1, 12)))
    seed = draw(st.integers(0, 2**32 - 1))

    def make():
        return _catalog_problem(name, dim, noise_seed=seed % 1000)

    p = make()
    lo, hi, d = p.lower, p.upper, p.dim
    span = hi - lo
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 40))
    base = lo + span * rng.random(d)
    rows = {
        "random": lambda: lo + span * rng.random(d),
        "corner": lambda: np.where(rng.integers(0, 2, d) == 1, hi, lo),
        "clamped": lambda: np.clip(lo + span * (2.0 * rng.random(d) - 0.5), lo, hi),
        "collapsed": lambda: np.clip(base + 1e-12 * span * rng.standard_normal(d), lo, hi),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(rows)), min_size=m, max_size=m))
    return make, np.array([rows[kind]() for kind in kinds])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(catalog_batches())
def test_batch_evaluation_equals_point_evaluation_bitwise(case):
    make, X = case
    batch = make().evaluate_batch(X)
    single = make()  # a fresh build replays the same Quartic noise
    points = np.array([single.evaluate(x) for x in X])
    assert batch.shape == (len(X),)
    assert batch.tobytes() == points.tobytes()
    # the Problem makes every input C-contiguous before the objective sees it
    d = X.shape[1]
    wide = np.zeros((len(X), 2 * d))
    wide[:, ::2] = X
    strided = wide[:, ::2]
    assert make().evaluate_batch(np.asfortranarray(X)).tobytes() == batch.tobytes()
    assert make().evaluate_batch(strided).tobytes() == batch.tobytes()
    single = make()
    assert np.array([single.evaluate(x) for x in strided]).tobytes() == batch.tobytes()
    for wrong in (X[:, : d - 1], np.hstack([X, X[:, :1]])):
        with pytest.raises(ValueError):
            make().evaluate_batch(wrong)
        with pytest.raises(ValueError):
            make().evaluate(wrong[0])
    with pytest.raises(ValueError):
        make().evaluate(X)
