import numpy as np
import pytest

from labopt import engine


def in_box(problem, x):
    """True when ``x`` lies inside ``problem``'s box, both bounds included."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= problem.lower) and np.all(x <= problem.upper))


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
