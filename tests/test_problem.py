import numpy as np
import pytest

from labopt.problem import (
    ConfigError,
    EvaluationError,
    Problem,
    Sense,
    oriented,
)


def square(x):
    return np.sum(x**2, axis=-1)


def make_problem(**kw):
    base = dict(
        name="sq",
        dim=2,
        lower=np.array([-1.0, -2.0]),
        upper=np.array([1.0, 2.0]),
        sense=Sense.MINIMIZE,
        objective=square,
    )
    base.update(kw)
    return Problem(**base)


def test_sense_values():
    assert Sense.MINIMIZE.value == "min"
    assert Sense.MAXIMIZE.value == "max"
    assert Sense("min") is Sense.MINIMIZE


def test_valid_problem_evaluates():
    p = make_problem()
    assert p.evaluate(np.array([1.0, 2.0])) == 5.0
    assert isinstance(p.evaluate([0.5, 0.5]), float)


def test_bounds_are_coerced_to_float_arrays():
    p = make_problem(lower=[-1, -2], upper=[1, 2])
    assert p.lower.dtype == np.float64
    assert p.upper.shape == (2,)


def test_dimension_must_be_positive():
    with pytest.raises(ConfigError):
        make_problem(dim=0, lower=[], upper=[])


def test_bound_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        make_problem(lower=np.array([-1.0]))


def test_nonfinite_bounds_rejected():
    with pytest.raises(ConfigError):
        make_problem(upper=np.array([np.inf, 2.0]))


def test_inverted_bounds_rejected():
    with pytest.raises(ConfigError):
        make_problem(lower=np.array([-1.0, 3.0]))


def test_equal_bounds_rejected():
    with pytest.raises(ConfigError):
        make_problem(lower=np.array([-1.0, 2.0]))


def test_nonfinite_objective_value_raises_with_position():
    p = make_problem(objective=lambda x: np.full(np.shape(x)[:-1], np.nan))
    with pytest.raises(EvaluationError) as err:
        p.evaluate(np.array([0.25, 0.5]))
    assert np.array_equal(err.value.position, [0.25, 0.5])
    # a point is reported as the one-row batch it is evaluated as
    with pytest.raises(EvaluationError) as batch_err:
        p.evaluate_batch(np.array([0.25, 0.5])[None])
    assert str(err.value) == str(batch_err.value) == (
        "objective of 'sq' returned nan (batch row 0)"
    )
    assert np.array_equal(err.value.position, batch_err.value.position)

    p = make_problem(objective=lambda x: np.full(np.shape(x)[:-1], np.inf))
    with pytest.raises(EvaluationError, match=r"returned inf \(batch row 0\)$"):
        p.evaluate(np.array([0.0, 0.0]))


def test_evaluate_batch_equals_evaluate_row_by_row():
    X = np.array([[0.5, -1.5], [-1.0, 2.0], [0.1, 0.2]])
    p = make_problem()
    assert p.evaluate_batch(X).tolist() == [p.evaluate(x) for x in X]


def test_objective_always_gets_a_c_contiguous_float_batch():
    seen = []

    def objective(X):
        seen.append((X.shape, X.dtype, X.flags.c_contiguous))
        return np.sum(X, axis=1)

    p = make_problem(objective=objective)
    wide = np.arange(12.0).reshape(3, 4) / 10.0
    p.evaluate(wide[0, ::2])
    p.evaluate([0, 1])
    p.evaluate_batch(np.asfortranarray(wide[:, :2]))
    p.evaluate_batch(wide[:, ::2])
    p.evaluate_batch([[0, 1]])
    one, three = ((1, 2), np.float64, True), ((3, 2), np.float64, True)
    assert seen == [one, one, three, three, one]


@pytest.mark.parametrize("as_list", [False, True])
def test_evaluate_batch_names_the_first_nonfinite_row(as_list):
    # nan wherever the first coordinate is positive, for a point or a batch
    def objective(X):
        return np.where(np.asarray(X)[..., 0] > 0.0, np.nan, 0.0)

    p = make_problem(objective=objective)
    batch = [[-0.5, 0.0], [0.25, 0.5], [0.75, 0.0]]
    with pytest.raises(EvaluationError) as err:
        p.evaluate_batch(batch if as_list else np.array(batch))
    assert np.array_equal(err.value.position, [0.25, 0.5])
    assert "returned nan (batch row 1)" in str(err.value)


def test_evaluate_batch_accepts_finite_values_whose_sum_overflows():
    p = make_problem(objective=lambda X: np.full(len(X), 1e308))
    assert p.evaluate_batch(np.zeros((3, 2))).tolist() == [1e308] * 3


@pytest.mark.parametrize(
    "objective",
    [
        lambda X: float(np.sum(X)),  # one value for the whole batch
        lambda X: np.sum(X, axis=-1)[1:],  # one value too few
        lambda X: np.sum(X, axis=0),  # reduces over the points
    ],
    ids=["scalar", "short", "wrong-axis"],
)
def test_evaluate_batch_rejects_a_result_of_the_wrong_shape(objective):
    p = make_problem(name="wrong-shape", objective=objective)
    with pytest.raises(ValueError, match="'wrong-shape'"):
        p.evaluate_batch(np.array([[-0.5, 0.0], [0.25, 0.5], [0.75, 0.0]]))
    # a single point is a one-row batch and gets the same check
    with pytest.raises(ValueError, match="'wrong-shape'"):
        p.evaluate(np.array([0.25, 0.5]))


def test_oriented_negates_only_maximization():
    assert oriented(3.5, Sense.MINIMIZE) == 3.5
    assert oriented(3.5, Sense.MAXIMIZE) == -3.5
