import itertools

import numpy as np
import pytest

from labopt import engine


def in_box(problem, x):
    """True when ``x`` lies inside ``problem``'s box, both bounds included."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= problem.lower) and np.all(x <= problem.upper))


# An independent reference for the signed-rank test.
def reference_doubled_ranks(abs_diffs):
    # doubled midrank = 2*(# strictly smaller) + (# equal, self included) + 1
    out = []
    for d in abs_diffs:
        lt = sum(1 for e in abs_diffs if e < d)
        eq = sum(1 for e in abs_diffs if e == d)
        out.append(2 * lt + eq + 1)
    return out


def reference_exact_p(diffs):
    """All 2^n sign assignments, pure integers throughout."""
    ranks = reference_doubled_ranks([abs(d) for d in diffs])
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    c_le = c_ge = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        c_le += w <= observed
        c_ge += w >= observed
    return min(1.0, 2.0 * min(c_le, c_ge) / 2 ** len(ranks))


class StepClock:
    """A ``time`` stand-in whose clock moves only when a test moves it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def ticking(self, objective, seconds=1.0):
        """``objective``, each call of which takes ``seconds`` on this clock."""

        def timed(x):
            self.now += seconds
            return objective(x)

        return timed


@pytest.fixture
def step_clock(monkeypatch):
    """The clock that run costs are charged by, for LAB and the baselines alike."""
    clock = StepClock()
    monkeypatch.setattr(engine, "time", clock)
    return clock
