import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labopt.engine import IterationRecord, RunTrace, TERMINATION_MAX_ITERATIONS
from labopt.problem import ConfigError, Sense
from labopt.stats import (
    EXACT_LIMIT,
    METHOD_DEGENERATE,
    METHOD_EXACT,
    METHOD_NORMAL,
    MIN_EFFECTIVE,
    RunSummary,
    VERDICT_EQUAL,
    VERDICT_GREATER,
    VERDICT_LESS,
    pairwise_compare,
    summarize,
    wilcoxon_two_sided,
)

from conftest import reference_doubled_ranks, reference_exact_p


# --- wilcoxon_two_sided ----------------------------------------------------

def test_textbook_hand_case():
    a = [1.0, -2.0, 3.0, -4.0, 5.0, 6.0]
    b = [0.0] * 6
    res = wilcoxon_two_sided(a, b)
    assert res.t_plus == 15.0
    assert res.t_minus == 6.0
    assert res.n_effective == 6
    assert res.p_value == 0.4375
    assert res.method == METHOD_EXACT
    assert not res.degenerate
    assert res.verdict == VERDICT_EQUAL


def test_exact_branch_matches_brute_force_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        n = int(rng.integers(5, EXACT_LIMIT + 1))
        a = rng.integers(0, 5, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        res = wilcoxon_two_sided(a, b)
        if res.method != METHOD_EXACT:
            continue
        diffs = [x - y for x, y in zip(a, b) if x != y]
        assert res.p_value == reference_exact_p(diffs)
        checked += 1


def reference_p_floor(abs_diffs):
    """Smallest exact p over every one of the 2^n sign splits."""
    ranks = reference_doubled_ranks(abs_diffs)
    sums = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product((0, 1), repeat=len(ranks))
    ]
    return min(
        min(1.0, 2.0 * min(sum(w <= v for w in sums), sum(w >= v for w in sums)) / len(sums))
        for v in set(sums)
    )


@pytest.mark.parametrize("ties", (False, True), ids=("distinct", "tied"))
def test_p_floor_matches_brute_force_enumeration(ties):
    rng = np.random.default_rng(31)
    for n in range(2 if ties else 1, EXACT_LIMIT + 1):
        mags = rng.integers(1, 4, n) if ties else rng.permutation(n) + 1
        if ties:
            mags[-1] = mags[0]
        d = mags * rng.choice((-1.0, 1.0), n)
        res = wilcoxon_two_sided(d, np.zeros(n))
        assert res.n_effective == n
        if n < MIN_EFFECTIVE:
            assert res.p_floor == 1.0
        else:
            assert res.p_floor == reference_p_floor(list(mags)) == 2.0 / 2**n, n


def test_p_floor_is_the_p_of_differences_all_one_way():
    # Beyond the exact branch too: the floor is the p of the same
    # magnitudes with every difference of one sign.
    rng = np.random.default_rng(37)
    for n in range(1, 30):
        for mags in (rng.permutation(n) + 1.0, rng.integers(1, 4, n).astype(float)):
            res = wilcoxon_two_sided(mags * rng.choice((-1.0, 1.0), n), np.zeros(n))
            for sign in (1.0, -1.0):
                assert res.p_floor == wilcoxon_two_sided(sign * mags, np.zeros(n)).p_value
            assert res.p_floor <= res.p_value


def test_rank_sum_identity_holds_across_many_inputs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(5, 40))
        if rng.random() < 0.5:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        else:
            a = rng.integers(0, 6, n).astype(float)
            b = rng.integers(0, 6, n).astype(float)
        res = wilcoxon_two_sided(a, b)
        m = res.n_effective
        assert res.t_plus + res.t_minus == m * (m + 1) / 2.0


def test_swapping_samples_flips_everything():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(5, 25))
        a = rng.normal(size=n) + rng.integers(0, 3, n)
        b = rng.normal(size=n)
        fwd = wilcoxon_two_sided(a, b)
        rev = wilcoxon_two_sided(b, a)
        assert fwd.t_plus == rev.t_minus
        assert fwd.t_minus == rev.t_plus
        assert fwd.p_value == rev.p_value
        assert fwd.method == rev.method
        flip = {VERDICT_LESS: VERDICT_GREATER, VERDICT_GREATER: VERDICT_LESS}
        assert rev.verdict == flip.get(fwd.verdict, VERDICT_EQUAL)


def test_normal_approximation_stays_close_to_exact():
    from labopt.stats import _doubled_midranks, _normal_two_sided_p

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, EXACT_LIMIT + 1))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        res = wilcoxon_two_sided(a, b)
        if res.method != METHOD_EXACT:
            continue
        diffs = (np.asarray(a) - np.asarray(b))
        nz = diffs[diffs != 0]
        ranks = _doubled_midranks(np.abs(nz))
        p_norm = _normal_two_sided_p(ranks, int(ranks[nz > 0].sum()), len(nz))
        worst = max(worst, abs(p_norm - res.p_value))
    assert worst <= 0.02


def test_planted_shift_is_detected_both_ways():
    rng = np.random.default_rng(5)
    b = rng.normal(size=8)
    res = wilcoxon_two_sided(b - 1.0, b)
    assert res.p_value == 2.0 / 2**8
    assert res.verdict == VERDICT_LESS
    res = wilcoxon_two_sided(b + 1.0, b)
    assert res.verdict == VERDICT_GREATER


def test_positive_scaling_leaves_the_test_unchanged():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 7, 10).astype(float)
    b = rng.integers(0, 7, 10).astype(float)
    base = wilcoxon_two_sided(a, b)
    scaled = wilcoxon_two_sided(4.0 * a, 4.0 * b)  # power of two: ties survive
    assert scaled.t_plus == base.t_plus
    assert scaled.t_minus == base.t_minus
    assert scaled.p_value == base.p_value


def test_degenerate_paths():
    res = wilcoxon_two_sided([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert res.degenerate
    assert res.method == METHOD_DEGENERATE
    assert res.p_value == 1.0
    assert res.verdict == VERDICT_EQUAL
    assert res.n_effective == 0
    assert res.t_plus == res.t_minus == 0.0

    # four nonzero differences: still degenerate but T is reported
    res = wilcoxon_two_sided([1.0, -2.0, 3.0, -4.0, 0.0], [0.0] * 5)
    assert res.degenerate
    assert res.n_effective == 4 == MIN_EFFECTIVE - 1
    assert res.t_plus == 4.0
    assert res.t_minus == 6.0
    assert res.p_value == 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_two_sided([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        wilcoxon_two_sided([], [])
    with pytest.raises(ValueError):
        wilcoxon_two_sided([1.0, float("nan")], [0.0, 0.0])
    with pytest.raises(ValueError):
        wilcoxon_two_sided([1.0, float("inf")], [0.0, 0.0])
    with pytest.raises(ConfigError, match="got 0.0"):
        wilcoxon_two_sided([1.0] * 6, [0.0] * 6, alpha=0.0)
    with pytest.raises(ConfigError, match="got 1.0"):
        wilcoxon_two_sided([1.0] * 6, [0.0] * 6, alpha=1.0)
    with pytest.raises(ValueError):
        wilcoxon_two_sided(np.ones((2, 3)), np.ones((2, 3)))


@st.composite
def signed_rank_samples(draw):
    """Paired samples for either p-value branch, with zero differences mixed in.

    Exact branch: 5-12 nonzero differences with distinct magnitudes.
    Normal branch: 13-60 nonzero differences whose magnitudes tie at
    random.  Values are integers, so a - b is exact in floats.
    """
    exact = draw(st.booleans())
    if exact:
        n = draw(st.integers(MIN_EFFECTIVE, EXACT_LIMIT))
    else:
        n = draw(st.integers(EXACT_LIMIT + 1, 60))
        top = draw(st.integers(1, 2 * n))
    zeros = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exact:
        mags = 1 + rng.choice(10**6, n, replace=False)
    else:
        mags = rng.integers(1, top + 1, n)
    diffs = np.concatenate([mags * rng.choice((-1, 1), n), np.zeros(zeros, dtype=int)])
    b = rng.integers(-50, 51, n + zeros)
    return (b + rng.permutation(diffs)).astype(float), b.astype(float)


_FIXED = np.random.default_rng(31)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(signed_rank_samples())
# exact branch: distinct magnitudes, no zeros
@example((np.array([0.11, 0.52, 1.3, 2.7, 0.9, 4.1, 0.3, 2.2, 1.7, 3.3]) - 2.0, np.zeros(10)))
# normal branch with continuity and tie corrections
@example(tuple(_FIXED.integers(0, 9, 40).astype(float) for _ in range(2)))
def test_agrees_with_scipy_when_available(case):
    scipy_stats = pytest.importorskip("scipy.stats")
    a, b = case
    ours = wilcoxon_two_sided(a, b)
    nonzero = (a - b)[a != b]  # zero_method="wilcox" drops them too
    if ours.method == METHOD_EXACT:
        ref = scipy_stats.wilcoxon(nonzero, alternative="two-sided", method="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)
    else:
        assert ours.method == METHOD_NORMAL
        ref = scipy_stats.wilcoxon(
            nonzero, alternative="two-sided", correction=True, method="approx"
        )
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


# --- summarize -------------------------------------------------------------

def make_trace(final, seed, problem="p1", algorithm="alg", sense=Sense.MINIMIZE,
               runtime=0.5, evals=100):
    return RunTrace(
        problem=problem,
        algorithm=algorithm,
        sense=sense,
        seed=seed,
        records=(
            IterationRecord(0, final, (final,), final),
        ),
        best_fitness=final,
        best_position=(0.0, 0.0),
        n_evaluations=evals,
        termination=TERMINATION_MAX_ITERATIONS,
        runtime_seconds=runtime,
    )


def test_summarize_aggregates():
    traces = [make_trace(f, s, runtime=r)
              for s, (f, r) in enumerate(zip([3.0, 1.0, 2.0], [0.2, 0.4, 0.6]))]
    s = summarize(traces)
    assert s.num_runs == 3
    assert s.seeds == (0, 1, 2)
    assert s.best == 1.0
    assert s.mean == 2.0
    assert s.std_dev == pytest.approx(1.0)
    assert s.mean_runtime_seconds == pytest.approx(0.4)
    assert s.mean_function_evaluations == 100.0
    assert s.finals == (3.0, 1.0, 2.0)
    assert s.runtimes == (0.2, 0.4, 0.6)


def test_summarize_single_run_and_maximize():
    s = summarize([make_trace(5.0, 0)])
    assert s.std_dev == 0.0
    traces = [make_trace(f, i, sense=Sense.MAXIMIZE) for i, f in enumerate([1.0, 4.0, 2.0])]
    assert summarize(traces).best == 4.0


def test_summarize_rejects_mixed_runs():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([make_trace(1.0, 0), make_trace(1.0, 1, problem="other")])
    with pytest.raises(ValueError):
        summarize([make_trace(1.0, 0), make_trace(1.0, 1, algorithm="other")])


# --- pairwise_compare ------------------------------------------------------

def mk_summary(problem, algorithm, finals, sense=Sense.MINIMIZE):
    finals = tuple(float(f) for f in finals)
    best = min(finals) if sense is Sense.MINIMIZE else max(finals)
    return RunSummary(
        problem=problem,
        algorithm=algorithm,
        sense=sense,
        num_runs=len(finals),
        seeds=tuple(range(len(finals))),
        best=best,
        mean=float(np.mean(finals)),
        std_dev=float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0,
        mean_runtime_seconds=0.1,
        mean_function_evaluations=50.0,
        finals=finals,
        runtimes=tuple(0.1 for _ in finals),
    )


def test_sweep_counts_and_overall_pooling():
    rng = np.random.default_rng(41)
    summaries = []
    for p in ("p1", "p2", "p3"):
        base = rng.normal(size=8)
        summaries.append(mk_summary(p, "alg_a", base - 1.0))
        summaries.append(mk_summary(p, "alg_b", base))
    report = pairwise_compare(summaries)
    assert report.algorithms == ("alg_a", "alg_b")
    assert report.problems == ("p1", "p2", "p3")
    row = report.pairwise[0]
    assert (row.wins_a, row.wins_b, row.ties) == (3, 0, 0)
    # three per-problem means are too few pairs for the overall test
    assert row.overall.degenerate

    pooled = pairwise_compare(summaries, use_raw_pairs=True).pairwise[0]
    assert pooled.overall.n_effective == 24
    assert pooled.overall.method == METHOD_NORMAL
    assert pooled.overall.verdict == VERDICT_LESS


def test_identical_algorithms_tie_everywhere():
    rng = np.random.default_rng(43)
    summaries = []
    for p in [f"p{i}" for i in range(6)]:
        finals = rng.normal(size=10)
        summaries.append(mk_summary(p, "one", finals))
        summaries.append(mk_summary(p, "two", finals))
    row = pairwise_compare(summaries).pairwise[0]
    assert (row.wins_a, row.wins_b, row.ties) == (0, 0, 6)
    assert row.overall.p_value == 1.0
    assert row.overall.verdict == VERDICT_EQUAL


def test_maximize_problems_are_oriented_before_testing():
    rng = np.random.default_rng(47)
    base = rng.normal(size=8)
    summaries = [
        mk_summary("peak", "alg_a", base + 1.0, sense=Sense.MAXIMIZE),
        mk_summary("peak", "alg_b", base, sense=Sense.MAXIMIZE),
    ]
    report = pairwise_compare(summaries)
    assert report.pairwise[0].wins_a == 1
    assert report.per_problem[0].result.verdict == VERDICT_LESS


def test_three_algorithms_yield_three_pairs_in_order():
    rng = np.random.default_rng(53)
    finals = {a: rng.normal(size=6) for a in ("x", "y", "z")}
    summaries = [mk_summary("p1", a, finals[a]) for a in ("x", "y", "z")]
    report = pairwise_compare(summaries)
    assert [(r.algo_a, r.algo_b) for r in report.pairwise] == [
        ("x", "y"), ("x", "z"), ("y", "z")
    ]
    assert len(report.per_problem) == 3


def test_grid_validation_errors():
    rng = np.random.default_rng(59)
    good = [
        mk_summary("p1", "a", rng.normal(size=5)),
        mk_summary("p1", "b", rng.normal(size=5)),
    ]
    with pytest.raises(ConfigError, match="duplicate"):
        pairwise_compare(good + [mk_summary("p1", "a", rng.normal(size=5))])
    with pytest.raises(ConfigError, match="missing.*p2/b"):
        pairwise_compare(good + [mk_summary("p2", "a", rng.normal(size=5))])
    with pytest.raises(ConfigError, match="two algorithms"):
        pairwise_compare([good[0]])
    with pytest.raises(ConfigError, match="senses"):
        pairwise_compare(
            [good[0], mk_summary("p1", "b", rng.normal(size=5), sense=Sense.MAXIMIZE)]
        )
    with pytest.raises(ConfigError, match="run counts"):
        pairwise_compare([good[0], mk_summary("p1", "b", rng.normal(size=7))])
