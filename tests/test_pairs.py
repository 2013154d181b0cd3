"""The verdicts of ``bench/pairs.py``, the parent-versus-change measurement."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}


def _side(wall, exit=0, correct=True, failed=0, metric="wall_s"):
    metrics = {} if wall is None else {metric: wall}
    return {"exit": exit, "correct": correct, "failed": failed, "metrics": metrics}


def _runs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_ten_clean_wins_are_a_gain():
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)],
                 [_side(1.5 + 0.01 * i) for i in range(10)])
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "10/10"
    assert verdict["verdict"] == "gain"


def test_ten_clean_wins_below_a_tenth_of_the_bound_are_not_a_gain():
    # A change that moved no memory read baselines-oracle's peak RSS
    # 40.594 -> 40.566 MB in 10 of 10 pairs, against a parent IQR of
    # 0.006 MB: a gap above the IQR, but 0.07% against a 5% bound.
    spread = [-0.005, -0.004, -0.003, -0.003, -0.001, 0.001, 0.003, 0.003, 0.004, 0.005]
    runs = _runs([_side(40.594 + d, metric="peak_rss_mb") for d in spread],
                 [_side(40.566 + d, metric="peak_rss_mb") for d in spread])
    verdict = pairs.verdicts(runs, [RSS])["peak_rss_mb"]
    assert verdict["wins"] == "10/10"
    assert verdict["parent"]["median"] == pytest.approx(40.594)
    assert verdict["parent"]["iqr"] == pytest.approx(0.006)
    assert verdict["change"]["median"] == pytest.approx(40.566)
    assert verdict["verdict"] == "within bound"


def test_five_clean_wins_are_not_a_gain():
    # Five pairs cannot tell a gain from the machine's drift, however clean.
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(5)],
                 [_side(1.5 + 0.01 * i) for i in range(5)])
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "5/5"
    assert verdict["change_sound"]
    assert verdict["verdict"] == "within bound"


def test_a_crashed_change_run_counts_as_a_lost_pair_and_blocks_a_gain():
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(None, exit=1, correct=False)]
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)], change)
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "9/10"
    assert len(verdict["change"]["values"]) == 9
    assert not verdict["change_sound"]
    assert verdict["verdict"] != "gain"


@pytest.mark.parametrize(
    "bad",
    [dict(correct=False), dict(exit=2), dict(failed=1)],
    ids=["wrong digest", "non-zero exit", "more failed operations"],
)
def test_an_unsound_change_run_is_never_a_gain(bad):
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(1.6, **bad)]
    runs = _runs([_side(2.0 + 0.01 * i) for i in range(10)], change)
    verdict = pairs.verdicts(runs, [WALL])["wall_s"]
    assert verdict["wins"] == "10/10"
    assert verdict["verdict"] != "gain"


def test_a_failed_parent_operation_does_not_block_the_change():
    parent = [_side(2.0 + 0.01 * i) for i in range(9)] + [_side(2.1, failed=1)]
    change = [_side(1.5 + 0.01 * i) for i in range(9)] + [_side(1.6, failed=1)]
    verdict = pairs.verdicts(_runs(parent, change), [WALL])["wall_s"]
    assert verdict["verdict"] == "gain"
