"""Run summaries and paired significance testing.

The comparison harness reduces each (problem, algorithm) cell to the
final best fitness of every run, then applies the two-sided Wilcoxon
signed-rank test to paired runs.  Ranks are stored as doubled integers
so midranks of tie blocks stay exact; for twelve or fewer nonzero
differences the null distribution is enumerated exactly with a
subset-sum table, otherwise the usual normal approximation with tie
correction and continuity correction is used.

All tests run on oriented values: maximization samples are negated up
front so smaller is always better and a "less" verdict always means
the first sample won.  Each result also carries its p floor, the p of
the most extreme sign split, so a caller can tell a verdict that no
outcome of the runs could have reached.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import RunTrace
from .problem import ConfigError, Sense, oriented

VERDICT_LESS = "less"
VERDICT_GREATER = "greater"
VERDICT_EQUAL = "equal"

METHOD_EXACT = "exact"
METHOD_NORMAL = "normal"
METHOD_DEGENERATE = "degenerate"

# Largest n whose 2^n sign assignments are enumerated exactly.
EXACT_LIMIT = 12
# Below this many nonzero differences the test refuses to judge.
MIN_EFFECTIVE = 5


@dataclass(frozen=True)
class RunSummary:
    """Aggregate of repeated runs of one algorithm on one problem."""

    problem: str
    algorithm: str
    sense: Sense
    num_runs: int
    seeds: tuple[int, ...]
    best: float
    mean: float
    std_dev: float
    mean_runtime_seconds: float
    mean_function_evaluations: float
    finals: tuple[float, ...]
    runtimes: tuple[float, ...]


def summarize(traces: Sequence[RunTrace]) -> RunSummary:
    """Collapse runs of one (problem, algorithm) pair into a summary.

    Standard deviation uses the n-1 divisor and is 0.0 for a single
    run.
    """
    if not traces:
        raise ValueError("summarize needs at least one run")
    first = traces[0]
    for t in traces[1:]:
        if (t.problem, t.algorithm, t.sense) != (
            first.problem,
            first.algorithm,
            first.sense,
        ):
            raise ValueError("summarize expects runs of one problem and algorithm")
    finals = tuple(t.best_fitness for t in traces)
    runtimes = tuple(t.runtime_seconds for t in traces)
    std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
    return RunSummary(
        problem=first.problem,
        algorithm=first.algorithm,
        sense=first.sense,
        num_runs=len(traces),
        seeds=tuple(t.seed for t in traces),
        best=min(finals, key=lambda f: oriented(f, first.sense)),
        mean=float(np.mean(finals)),
        std_dev=std,
        mean_runtime_seconds=float(np.mean(runtimes)),
        mean_function_evaluations=float(np.mean([t.n_evaluations for t in traces])),
        finals=finals,
        runtimes=runtimes,
    )


@dataclass(frozen=True)
class WilcoxonResult:
    """Two-sided signed-rank outcome for paired samples a, b.

    ``t_plus`` ranks differences a - b > 0, so under smaller-is-better
    orientation a ``less`` verdict favors sample a.  ``degenerate``
    flags too few nonzero differences to test; the p-value is then
    pinned at 1.0.  ``p_floor`` is the smallest p the test could give
    on these ranks: its p at the most extreme sign split, all
    differences one way (1.0 when degenerate).  When it is not below
    alpha, no outcome of these runs could reach a verdict.
    """

    t_plus: float
    t_minus: float
    n_effective: int
    p_value: float
    verdict: str
    degenerate: bool
    method: str
    p_floor: float


def _doubled_midranks(abs_diffs: np.ndarray) -> np.ndarray:
    """Midranks of |d|, times two, as exact integers.

    A tie block covering 0-based sorted positions i..j shares midrank
    (i + j + 2) / 2, so its doubled rank is the integer i + j + 2.  In
    the sorted values, i is the left and j + 1 the right insertion
    point of every member of the block.
    """
    s = np.sort(abs_diffs)
    return np.searchsorted(s, abs_diffs, "left") + np.searchsorted(s, abs_diffs, "right") + 1


def _exact_two_sided_p(
    doubled_ranks: np.ndarray, w_plus_doubled: int
) -> tuple[float, float]:
    """Exact p over all 2^n sign assignments of the given ranks, and
    the floor: the p of a doubled T+ of 0, read from the same table.

    ``counts[s]`` ends up as the number of subsets of the doubled
    ranks summing to s, which is the number of assignments with a
    doubled T+ of exactly s.  Pure integer arithmetic until the final
    division.
    """
    total = int(doubled_ranks.sum())
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        r = int(r)
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]

    def p(w: int) -> float:
        c_le = sum(counts[: w + 1])
        c_ge = sum(counts[w:])
        return min(1.0, 2.0 * min(c_le, c_ge) / 2 ** len(doubled_ranks))

    return p(w_plus_doubled), p(0)


def _normal_two_sided_p(
    doubled_ranks: np.ndarray, w_plus_doubled: int, n: int
) -> float:
    """Normal approximation with tie and continuity corrections.

    Works in doubled-rank units throughout: the mean doubles to
    n(n+1)/2, the variance quadruples, and the 0.5 continuity
    correction becomes 1.0.
    """
    mean2 = n * (n + 1) / 2.0
    tie_term = 0.0
    _, block_sizes = np.unique(doubled_ranks, return_counts=True)
    for t in block_sizes:
        t = int(t)
        tie_term += (t**3 - t) / 12.0
    var2 = n * (n + 1) * (2 * n + 1) / 6.0 - tie_term
    gap = w_plus_doubled - mean2
    if abs(gap) <= 1.0:
        z = 0.0
    else:
        gap -= math.copysign(1.0, gap)
        z = gap / math.sqrt(var2)
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_two_sided(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> WilcoxonResult:
    """Paired two-sided Wilcoxon signed-rank test on a versus b.

    Zero differences are discarded.  Fewer than MIN_EFFECTIVE nonzero
    differences yield a degenerate ``equal`` result.  The verdict is
    ``less`` or ``greater`` (sign of the median nonzero difference)
    only when p < alpha.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.ndim != 1 or av.shape != bv.shape:
        raise ValueError("samples must be 1-D and equally long")
    if len(av) == 0:
        raise ValueError("samples must not be empty")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise ValueError("samples must be finite")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")

    diffs = av - bv
    nonzero = diffs[diffs != 0.0]
    n = len(nonzero)
    ranks = _doubled_midranks(np.abs(nonzero))
    w_plus2 = int(ranks[nonzero > 0].sum())
    w_minus2 = int(ranks[nonzero < 0].sum())
    if n < MIN_EFFECTIVE:
        p = p_floor = 1.0
        method = METHOD_DEGENERATE
    elif n <= EXACT_LIMIT:
        p, p_floor = _exact_two_sided_p(ranks, w_plus2)
        method = METHOD_EXACT
    else:
        p = _normal_two_sided_p(ranks, w_plus2, n)
        p_floor = _normal_two_sided_p(ranks, 0, n)
        method = METHOD_NORMAL

    # A degenerate p of 1.0 never passes, since alpha < 1.
    verdict = VERDICT_EQUAL
    if p < alpha:
        med = float(np.median(nonzero))
        if med < 0:
            verdict = VERDICT_LESS
        elif med > 0:
            verdict = VERDICT_GREATER
    return WilcoxonResult(
        t_plus=w_plus2 / 2.0,
        t_minus=w_minus2 / 2.0,
        n_effective=n,
        p_value=p,
        verdict=verdict,
        degenerate=method == METHOD_DEGENERATE,
        method=method,
        p_floor=p_floor,
    )


@dataclass(frozen=True)
class ProblemTest:
    """One per-problem paired test between two algorithms."""

    problem: str
    algo_a: str
    algo_b: str
    result: WilcoxonResult


@dataclass(frozen=True)
class PairwiseRow:
    """Win/loss/tie tally for one algorithm pair plus an overall test.

    ``wins_a`` counts problems where a's runs were significantly
    better, ``wins_b`` the reverse, ``ties`` the remainder.
    """

    algo_a: str
    algo_b: str
    wins_a: int
    wins_b: int
    ties: int
    overall: WilcoxonResult


@dataclass(frozen=True)
class ComparisonReport:
    problems: tuple[str, ...]
    algorithms: tuple[str, ...]
    alpha: float
    use_raw_pairs: bool
    per_problem: tuple[ProblemTest, ...]
    pairwise: tuple[PairwiseRow, ...]


def pairwise_compare(
    summaries: Sequence[RunSummary],
    alpha: float = 0.05,
    use_raw_pairs: bool = False,
) -> ComparisonReport:
    """Full comparison over a (problem x algorithm) grid of summaries.

    Per problem, every algorithm pair is tested on finals paired by
    run index.  The overall row test pairs per-problem mean finals by
    default; ``use_raw_pairs`` pools every (problem, run) difference
    instead, which weights problems by run count.  The grid must be
    complete and each problem's algorithms must share a run count;
    otherwise ConfigError names what is wrong.
    """
    cells: dict[tuple[str, str], RunSummary] = {}
    problems: list[str] = []
    algorithms: list[str] = []
    for s in summaries:
        key = (s.problem, s.algorithm)
        if key in cells:
            raise ConfigError(f"duplicate summary for {s.problem}/{s.algorithm}")
        cells[key] = s
        if s.problem not in problems:
            problems.append(s.problem)
        if s.algorithm not in algorithms:
            algorithms.append(s.algorithm)

    missing = [
        f"{p}/{a}" for p in problems for a in algorithms if (p, a) not in cells
    ]
    if missing:
        raise ConfigError("missing summaries: " + ", ".join(missing))
    if len(algorithms) < 2:
        found = ", ".join(algorithms) or "none"
        raise ConfigError(f"need at least two algorithms to compare, found {found}")

    for p in problems:
        senses = {cells[(p, a)].sense for a in algorithms}
        if len(senses) > 1:
            raise ConfigError(f"conflicting senses recorded for {p}")
        counts = {a: cells[(p, a)].num_runs for a in algorithms}
        if len(set(counts.values())) > 1:
            listed = ", ".join(f"{a}: {n}" for a, n in counts.items())
            raise ConfigError(
                f"run counts differ on {p} ({listed}); pairing needs equal counts"
            )

    finals = {key: oriented(np.array(s.finals), s.sense) for key, s in cells.items()}
    pairs = list(itertools.combinations(algorithms, 2))
    per_problem = [
        ProblemTest(p, a, b, wilcoxon_two_sided(finals[p, a], finals[p, b], alpha))
        for p in problems
        for a, b in pairs
    ]
    if use_raw_pairs:
        overall_sample = {
            a: np.concatenate([finals[p, a] for p in problems]) for a in algorithms
        }
    else:
        overall_sample = {
            a: np.array([float(np.mean(finals[p, a])) for p in problems])
            for a in algorithms
        }

    rows: list[PairwiseRow] = []
    for a, b in pairs:
        verdicts = [
            t.result.verdict for t in per_problem if (t.algo_a, t.algo_b) == (a, b)
        ]
        wins_a = verdicts.count(VERDICT_LESS)
        wins_b = verdicts.count(VERDICT_GREATER)
        rows.append(
            PairwiseRow(
                algo_a=a,
                algo_b=b,
                wins_a=wins_a,
                wins_b=wins_b,
                ties=len(problems) - wins_a - wins_b,
                overall=wilcoxon_two_sided(overall_sample[a], overall_sample[b], alpha),
            )
        )

    return ComparisonReport(
        problems=tuple(problems),
        algorithms=tuple(algorithms),
        alpha=alpha,
        use_raw_pairs=use_raw_pairs,
        per_problem=tuple(per_problem),
        pairwise=tuple(rows),
    )
