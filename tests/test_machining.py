import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from labopt import machining
from labopt.machining import grid_oracle, machining_registry
from labopt.problem import ConfigError, EvaluationError, Sense

# Independent transcription of every regression model, kept separate
# from the implementation on purpose: the catalog must match this
# manifest coefficient for coefficient.
MANIFEST = {
    "awjm:Ra": [
        (-23.309555, (0, 0, 0, 0)), (16.6968, (1, 0, 0, 0)),
        (26.9296, (0, 1, 0, 0)), (0.0587, (0, 0, 1, 0)),
        (0.0146, (0, 0, 0, 1)), (-5.1863, (0, 2, 0, 0)),
        (-10.4571, (1, 1, 0, 0)), (-0.0534, (1, 0, 1, 0)),
        (-0.0103, (1, 0, 0, 1)), (0.0113, (0, 1, 1, 0)),
        (-0.0039, (0, 1, 0, 1)),
    ],
    "awjm:kerf": [
        (-1.15146, (0, 0, 0, 0)), (0.70118, (1, 0, 0, 0)),
        (2.72749, (0, 1, 0, 0)), (0.00689, (0, 0, 1, 0)),
        (-0.00025, (0, 0, 0, 1)), (0.00386, (0, 1, 1, 0)),
        (-0.93947, (0, 2, 0, 0)), (-0.25711, (1, 1, 0, 0)),
        (-0.00314, (1, 0, 1, 0)), (-0.00249, (1, 0, 0, 1)),
        (0.00196, (0, 1, 0, 1)), (-0.00002, (0, 0, 1, 1)),
        (-0.00001, (0, 0, 2, 0)),
    ],
    "edm:MRR": [
        (-235.15, (0, 0, 0, 0)), (39.7, (1, 0, 0, 0)),
        (4.277, (0, 1, 0, 0)), (1.569, (0, 0, 1, 0)),
        (-1.375, (0, 0, 0, 1)), (-0.0059, (0, 0, 2, 0)),
        (-0.536, (1, 1, 0, 0)),
    ],
    "edm:Ra": [
        (30.347, (0, 0, 0, 0)), (-0.618, (1, 0, 0, 0)),
        (-0.438, (0, 1, 0, 0)), (0.059, (0, 0, 1, 0)),
        (-0.59, (0, 0, 0, 1)), (0.019, (1, 0, 0, 1)),
        (0.0075, (0, 1, 0, 1)),
    ],
    "edm:REWR": [
        (196.564, (0, 0, 0, 0)), (-24.19, (1, 0, 0, 0)),
        (-3.135, (0, 1, 0, 0)), (-1.781, (0, 0, 1, 0)),
        (0.153, (0, 0, 0, 1)), (0.464, (1, 1, 0, 0)),
        (0.158, (1, 0, 1, 0)), (0.025, (1, 0, 0, 1)),
        (0.029, (0, 1, 1, 0)), (-0.017, (0, 1, 0, 1)),
        (-0.003385, (1, 1, 1, 0)), (0.093, (2, 0, 0, 0)),
        (0.001491, (0, 0, 2, 0)), (0.005265, (0, 0, 0, 2)),
    ],
    "micro_turning:fb": [(0.004, (0.495, 0.545, 0.763))],
    "micro_turning:Ra": [(0.048, (-0.062, 0.445, 0.516))],
    "micro_milling:Ra:0.7mm": [
        (-0.455378, (0, 0)), (0.00027, (1, 0)),
        (0.16422, (0, 1)), (-0.000077, (1, 1)),
    ],
    "micro_milling:Mt:0.7mm": [
        (17.71644, (0, 0)), (-0.0002, (1, 0)),
        (-4.8404, (0, 1)), (0.0001, (1, 1)),
    ],
    "micro_milling:Ra:1mm": [
        (-0.208871, (0, 0)), (0.000144, (1, 0)), (0.019571, (0, 1)),
    ],
    "micro_milling:Mt:1mm": [
        (20.2906, (0, 0)), (-0.0015, (1, 0)),
        (-5.8369, (0, 1)), (0.0006, (1, 1)),
    ],
    "micro_drilling:Bh:0.5mm": [
        (420.94, (0, 0)), (-0.234, (1, 0)), (-99.91, (0, 1)),
        (6.55e-5, (2, 0)), (22.152, (0, 2)),
    ],
    "micro_drilling:Bt:0.5mm": [
        (90.57, (0, 0)), (-0.049, (1, 0)), (-27.12, (0, 1)),
        (1.32e-5, (2, 0)), (5.54, (0, 2)),
    ],
    "micro_drilling:Bh:0.6mm": [
        (369.67, (0, 0)), (-0.028, (1, 0)), (-156.79, (0, 1)),
        (6.64e-6, (2, 0)), (23.162, (0, 2)),
    ],
    "micro_drilling:Bt:0.6mm": [
        (35.34, (0, 0)), (-0.019, (1, 0)), (-0.59, (0, 1)),
        (6.44e-6, (2, 0)), (0.51, (0, 2)),
    ],
    "micro_drilling:Bh:0.8mm": [
        (106.116, (0, 0)), (0.13, (1, 0)), (-6.62, (0, 1)),
        (1.49e-6, (2, 0)), (4.75, (0, 2)),
    ],
    "micro_drilling:Bt:0.8mm": [
        (59.79, (0, 0)), (-0.024, (1, 0)), (-11.3, (0, 1)),
        (7.78e-6, (2, 0)), (2.18, (0, 2)),
    ],
    "micro_drilling:Bh:0.9mm": [
        (450.7, (0, 0)), (-0.09, (1, 0)), (-34.48, (0, 1)),
        (2.34e-5, (2, 0)), (5.03, (0, 2)),
    ],
    "micro_drilling:Bt:0.9mm": [
        (80.07, (0, 0)), (-0.040, (1, 0)), (-14.81, (0, 1)),
        (1.516e-5, (2, 0)), (4.65, (0, 2)),
    ],
    "mql_turning:Fc": [
        (-202.01471, (0, 0, 0)), (1.28250, (0, 0, 1)),
        (3225.0, (1, 0, 0)), (-0.74167, (0, 1, 0)), (-9.4, (1, 0, 1)),
    ],
    "mql_turning:VBmax": [
        (-0.27368, (0, 0, 0)), (0.001575, (0, 0, 1)),
        (2.4, (1, 0, 0)), (-0.0010833, (0, 1, 0)),
    ],
    "mql_turning:Ra": [
        (-0.16294, (0, 0, 0)), (0.001425, (0, 0, 1)),
        (3.7, (1, 0, 0)), (-0.000416667, (0, 1, 0)),
    ],
    "mql_turning:L": [
        (0.96302, (0, 0, 0)), (-0.00215931, (0, 0, 1)),
        (0.92703, (1, 0, 0)), (0.00152807, (0, 1, 0)),
    ],
}

EXPECTED_BOUNDS = {
    "awjm": ((0.9, 0.95, 20.0, 200.0), (1.25, 1.5, 96.0, 600.0)),
    "edm": ((7.5, 45.0, 50.0, 40.0), (12.5, 55.0, 150.0, 60.0)),
    "micro_turning": ((25.0, 5.0, 30.0), (37.0, 15.0, 70.0)),
    "micro_milling": ((1500.0, 1.0), (2500.0, 3.0)),
    "micro_drilling": ((1000.0, 1.0), (2500.0, 4.0)),
    "mql_turning": ((200.0, 0.1, 60.0), (300.0, 0.2, 90.0)),
}

# frozen once from grid_oracle at 51 points per axis
PINNED_51_GRID = {
    "awjm:Ra": (4.382607499999999, (1.25, 1.5, 20.0, 600.0)),
    "edm:MRR": (201.3714, (12.5, 45.0, 132.0, 40.0)),
    "micro_turning:fb": (0.6339025011362025, (25.0, 5.0, 30.0)),
    "micro_milling:Mt:1mm": (3.229900000000001, (1500.0, 3.0)),
    "micro_drilling:Bh:0.5mm": (99.29715519999996, (1780.0, 2.26)),
    "mql_turning:Fc": (475713.261956, (200.0, 0.2, 90.0)),
}


def test_catalog_has_23_unique_keys():
    specs = machining_registry()
    assert len(specs) == 23
    keys = [s.key for s in specs]
    assert len(set(keys)) == 23
    assert set(keys) == set(MANIFEST)


def test_terms_match_manifest_exactly():
    for spec in machining_registry():
        want = sorted(
            (float(c), tuple(float(e) for e in exps))
            for c, exps in MANIFEST[spec.key]
        )
        got = sorted(spec.terms)
        assert got == want, spec.key


def test_bounds_match_per_process():
    for spec in machining_registry():
        lo, hi = EXPECTED_BOUNDS[spec.process]
        assert spec.lower == lo, spec.key
        assert spec.upper == hi, spec.key


def test_only_removal_rate_is_maximized():
    senses = {s.key: s.sense for s in machining_registry()}
    assert senses.pop("edm:MRR") is Sense.MAXIMIZE
    assert all(v is Sense.MINIMIZE for v in senses.values())


def test_awjm_roughness_pinned_hand_value():
    v = machining.get("awjm:Ra").evaluate(np.array([1.0, 1.0, 50.0, 400.0]))
    literal = (
        -23.309555 + 16.6968 * 1.0 + 26.9296 * 1.0 + 0.0587 * 50 + 0.0146 * 400
        - 5.1863 * 1.0 - 10.4571 * 1.0 - 0.0534 * 50 - 0.0103 * 400
        + 0.0113 * 50 - 0.0039 * 400
    )
    assert v == pytest.approx(literal, abs=1e-12)
    assert v == pytest.approx(5.663445, abs=1e-9)


def test_mql_force_pinned_hand_value():
    v = machining.get("mql_turning:Fc").evaluate(np.array([250.0, 0.15, 75.0]))
    literal = -202.01471 + 1.28250 * 75 + 3225 * 250 - 0.74167 * 0.15 - 9.4 * 75 * 250
    assert v == pytest.approx(literal, rel=1e-15)
    assert v == pytest.approx(629894.0615395, abs=1e-6)


def test_power_law_matches_scalar_math():
    spec = machining.get("micro_turning:fb")
    for w in ([25.0, 5.0, 30.0], [30.0, 10.0, 50.0], [37.0, 15.0, 70.0]):
        expected = 0.004 * math.pow(w[0], 0.495) * math.pow(w[1], 0.545) * math.pow(w[2], 0.763)
        assert spec.evaluate(np.array(w)) == pytest.approx(expected, rel=1e-12)


def test_vectorized_evaluation_equals_scalar_loop():
    rng = np.random.default_rng(11)
    for spec in machining_registry():
        lo = np.array(spec.lower)
        hi = np.array(spec.upper)
        pts = lo + (hi - lo) * rng.random((25, spec.dim))
        vec = spec.evaluate(pts)
        assert vec.shape == (25,)
        scalar = np.array([spec.evaluate(p) for p in pts])
        assert np.array_equal(vec, scalar), spec.key
        grid = spec.evaluate(pts[:21].reshape(7, 3, spec.dim))
        assert np.array_equal(grid, vec[:21].reshape(7, 3)), spec.key


def test_evaluate_rejects_out_of_box_and_bad_shape():
    spec = machining.get("edm:Ra")
    with pytest.raises(ValueError):
        spec.evaluate(np.array([7.0, 50.0, 100.0, 50.0]))  # below v1 range
    with pytest.raises(ValueError):
        spec.evaluate(np.array([12.6, 50.0, 100.0, 50.0]))  # above v1 range
    with pytest.raises(ValueError):
        spec.evaluate(np.array([10.0, 50.0, 100.0]))


def test_catalog_specs_are_immutable():
    # The specs are written as tuples and shared by every caller, so no
    # caller can change a model in place.
    for spec in machining_registry():
        hash(spec)
        assert type(spec.lower) is tuple and type(spec.upper) is tuple, spec.key
        assert type(spec.terms) is tuple, spec.key
        for term in spec.terms:
            assert type(term) is tuple and type(term[1]) is tuple, spec.key


def test_problem_wrapper_round_trips():
    for spec in machining_registry():
        p = spec.problem
        assert p.name == spec.key
        assert p.dim == spec.dim
        assert p.sense is spec.sense
        mid = (np.array(spec.lower) + np.array(spec.upper)) / 2.0
        assert p.evaluate(mid) == spec.evaluate(mid)
        batch = np.array([spec.lower, mid, spec.upper])
        assert p.evaluate_batch(batch).tolist() == [p.evaluate(x) for x in batch]


# No catalog model has one variable; these cover grid_oracle's
# single-column slabs in both senses.
ONE_VARIABLE_SPECS = [
    machining.MachiningSpec(
        "synthetic", "y", sense.value, sense, (("s1", "mm"),), (0.5,), (3.0,),
        ((sign * 2.0, (0,)), (sign * -3.1, (1,)), (sign * 1.0, (2,)), (sign * 0.4, (0.5,))),
    )
    for sign, sense in ((1.0, Sense.MINIMIZE), (-1.0, Sense.MAXIMIZE))
]


# Tables whose terms never reach a slab's full shape, in both senses: a
# constant alone (-0.0 when maximized, which a sum from +0.0 makes +0.0),
# and a second variable with only zero exponents, whose exact ties along
# it pin the first best in ij order.
PARTIAL_SPECS = [
    machining.MachiningSpec(
        "synthetic", name, sense.value, sense, (("s1", "mm"), ("s2", "mm")),
        (0.5, 1.0), (3.0, 2.0), tuple((sign * c, exps) for c, exps in terms),
    )
    for name, terms in (
        ("const", ((0.0, (0, 0)),)),
        ("flat", ((1.0, (0, 0)), (-3.1, (1, 0)), (1.0, (2, 0)))),
    )
    for sign, sense in ((1.0, Sense.MINIMIZE), (-1.0, Sense.MAXIMIZE))
]


def test_grid_oracle_matches_nested_loop_reference():
    # independent slow oracle: pure-python loops and scalar powers
    for spec in machining_registry() + ONE_VARIABLE_SPECS:
        k = 7
        axes = [
            [lo + (hi - lo) * i / (k - 1) for i in range(k)]
            for lo, hi in zip(spec.lower, spec.upper)
        ]
        best_v, best_p = None, None
        for pt in itertools.product(*axes):
            v = 0.0
            for c, exps in spec.terms:
                t = c
                for xi, e in zip(pt, exps):
                    if e != 0:
                        t *= xi**e
                v += t
            better = best_v is None or (
                v > best_v if spec.sense is Sense.MAXIMIZE else v < best_v
            )
            if better:
                best_v, best_p = v, pt
        gv, gp = grid_oracle(spec, k)
        # linspace coordinates and summation order differ in the last ulp
        assert gv == pytest.approx(best_v, rel=1e-12), spec.key
        got_idx = tuple(
            round((x - lo) / (hi - lo) * (k - 1))
            for x, lo, hi in zip(gp, spec.lower, spec.upper)
        )
        want_idx = tuple(
            round((x - lo) / (hi - lo) * (k - 1))
            for x, lo, hi in zip(best_p, spec.lower, spec.upper)
        )
        assert got_idx == want_idx, spec.key


def loop_reference(spec, x):
    """The plain term loop: every nonzero exponent through ``**``, terms summed in order."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for coef, exps in spec.terms:
        term = coef
        for i, e in enumerate(exps):
            if e == 0:
                continue
            term = term * x[..., i] ** e
        out += term
    return out


@pytest.mark.parametrize(
    "spec",
    machining_registry() + ONE_VARIABLE_SPECS + PARTIAL_SPECS,
    ids=lambda spec: spec.key,
)
def test_evaluate_equals_the_plain_term_loop_bitwise(spec):
    rng = np.random.default_rng(5)
    lo, hi = np.array(spec.lower), np.array(spec.upper)
    batches = [lo + (hi - lo) * rng.random((m, spec.dim)) for m in (1, 20, 1000)]
    batches += [
        lo + (hi - lo) * rng.random((7, 3, spec.dim)),
        lo,
        hi,
        np.array([lo, hi]),
    ]
    for x in batches:
        got = spec.evaluate(x)
        want = loop_reference(spec, x)
        assert got.shape == want.shape == x.shape[:-1]
        assert got.tobytes() == want.tobytes(), x.shape


# Best at its lower bound, 1.011, whose power 1.011 ** 0.495 differs in
# the last bit between numpy's scalar and array paths (numpy 2.4.6), so
# an oracle that raised a grid value as a scalar would not match.
POWER_AT_BOUND = machining.MachiningSpec(
    "synthetic", "pow", None, Sense.MINIMIZE, (("s1", "mm"),), (1.011,), (3.0,),
    ((1.0, (0.495,)),),
)


# x0**-1 - x0**-1 is inf - inf = NaN at x0 = 0 only, an inner value of
# the first axis at an odd number of points, so the grid's first NaN
# lies past slab 0 and an oracle must pick it in both senses.
NAN_PAST_SLAB_0 = [
    machining.MachiningSpec(
        "synthetic", "nan", sense.value, sense, (("s1", "mm"), ("s2", "mm")),
        (-1.0, 0.0), (1.0, 1.0),
        ((sign * 1.0, (-1, 0)), (sign * -1.0, (-1, 0)), (sign * 1.0, (0, 1))),
    )
    for sign, sense in ((1.0, Sense.MINIMIZE), (-1.0, Sense.MAXIMIZE))
]


@pytest.mark.parametrize("k", (2, 5, 9, 51))
def test_grid_oracle_equals_exhaustive_evaluate(k, monkeypatch):
    # Every slab the oracle sums equals evaluate over the same ij-ordered
    # cross product, bit for bit, and the oracle's best is argmin's (or
    # argmax's) pick there: the first best, or the first NaN.  At 51
    # points only the 2- and 3-variable models run.
    slabs = []
    sum_terms = machining.MachiningSpec._sum_terms

    def recording(spec, columns, shape):
        slabs.append(sum_terms(spec, columns, shape))
        return slabs[-1]

    monkeypatch.setattr(machining.MachiningSpec, "_sum_terms", recording)
    specs = (machining_registry() + ONE_VARIABLE_SPECS + [POWER_AT_BOUND] + PARTIAL_SPECS
             + NAN_PAST_SLAB_0)
    for spec in [spec for spec in specs if k < 51 or spec.dim <= 3]:
        axes = [np.linspace(lo, hi, k) for lo, hi in zip(spec.lower, spec.upper)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.dim)
        with np.errstate(divide="ignore", invalid="ignore"):  # NAN_PAST_SLAB_0's 1 / 0
            values = spec.evaluate(grid)
            slabs.clear()
            gv, gp = grid_oracle(spec, k)
        assert values.shape == (len(grid),), spec.key
        assert len(slabs) == k, spec.key
        assert np.stack(slabs).tobytes() == values.tobytes(), spec.key
        pick = np.argmax if spec.sense is Sense.MAXIMIZE else np.argmin
        idx = int(pick(values))
        assert np.array_equal(gv, values[idx], equal_nan=True), spec.key
        assert gp.tolist() == grid[idx].tolist(), spec.key


def test_grid_oracle_holds_one_slab_at_a_time():
    # A 51-point slab of a 4-variable model is 8 * 51**3 bytes.  Summing
    # the next slab while the last is alive, or negating a slab to pick a
    # maximum, peaks at about two slabs.
    slab = 8 * 51**3
    for spec in [spec for spec in machining_registry() if spec.dim == 4]:
        grid_oracle(spec, 51)  # warm-up: first-call allocations are not the oracle's
        tracemalloc.start()
        try:
            grid_oracle(spec, 51)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * slab, (spec.key, peak / slab)


def test_nan_passes_the_box_check_and_evaluate_batch_names_its_row():
    # NaN is neither below nor above a bound, so evaluate lets it through
    # as a NaN value, and the Problem rejects that value by its row.
    spec = machining.get("edm:Ra")
    x = np.tile((np.array(spec.lower) + np.array(spec.upper)) / 2.0, (3, 1))
    x[1, 2] = np.nan
    values = spec.evaluate(x)
    assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()
    with pytest.raises(EvaluationError, match=r"\(batch row 1\)") as err:
        spec.problem.evaluate_batch(x)
    assert np.array_equal(err.value.position, x[1], equal_nan=True)


def test_grid_oracle_pinned_values():
    for key, (value, point) in PINNED_51_GRID.items():
        gv, gp = grid_oracle(machining.get(key), 51)
        assert gv == value, key
        assert tuple(gp) == point, key


def test_grid_refinement_never_worsens():
    for key in ("micro_drilling:Bh:0.5mm", "mql_turning:L"):
        spec = machining.get(key)
        v5, _ = grid_oracle(spec, 5)
        v9, _ = grid_oracle(spec, 9)
        v17, _ = grid_oracle(spec, 17)
        assert v9 <= v5 and v17 <= v9  # 2k-1 grids nest
    spec = machining.get("edm:MRR")
    v5, _ = grid_oracle(spec, 5)
    v9, _ = grid_oracle(spec, 9)
    assert v9 >= v5


def test_grid_oracle_argument_validation():
    with pytest.raises(ConfigError, match="got 1"):
        grid_oracle(machining.get("edm:Ra"), 1)


def test_lookup_is_case_insensitive_and_strict():
    assert machining.get("MICRO_DRILLING:bh:0.5MM").key == "micro_drilling:Bh:0.5mm"
    with pytest.raises(KeyError):
        machining.get("edm:XYZ")


def test_variables_carry_units():
    spec = machining.get("micro_milling:Ra:0.7mm")
    assert spec.var_names == (("f1", "rpm"), ("f2", "mm/min"))
    spec = machining.get("micro_turning:fb")
    assert [sym for sym, _ in spec.var_names] == ["mt_w1", "mt_w2", "mt_w3"]


def test_catalog_is_json_ready():
    data = json.loads(json.dumps(machining.catalog()))
    assert len(data) == 23
    keys = {row["key"] for row in data}
    assert "micro_drilling:Bt:0.9mm" in keys
    assert all(len(row["variables"]) == row["dim"] for row in data)
