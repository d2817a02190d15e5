"""bench/run_bench.py: per-metric verdicts of alternating parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "run_bench.py"
_SPEC = importlib.util.spec_from_file_location("run_bench", _PATH)
run_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs_of(name, parent, change):
    def side(values):
        return [{"metrics": {name: {"value": v}}, "failed": 0, "attempted": 5, "correct": True}
                for v in values]
    return {"parent": side(parent), "change": side(change)}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_ten_of_ten_wins_beyond_the_spread_is_a_gain():
    change = [0.80 + 0.01 * i for i in range(10)]
    out = run_bench.summarize(runs_of("wall_s", PARENT, change), [WALL])["wall_s"]
    assert out["change_better_pairs"] == 10
    assert out["gain"] and out["within_bound"]


def test_eight_of_ten_wins_is_no_gain():
    change = [0.80] * 8 + [1.10, 1.10]
    out = run_bench.summarize(runs_of("wall_s", PARENT, change), [WALL])["wall_s"]
    assert out["change_better_pairs"] == 8
    assert not out["gain"]
    assert out["within_bound"]


def test_wins_inside_the_parent_spread_are_no_gain():
    change = [p - 0.001 for p in PARENT]
    out = run_bench.summarize(runs_of("wall_s", PARENT, change), [WALL])["wall_s"]
    assert out["change_better_pairs"] == 10
    assert out["parent_median"] - out["change_median"] < out["parent_q3"] - out["parent_q1"]
    assert not out["gain"]


@pytest.mark.parametrize("metric, factor", [(WALL, 1.30), (RATE, 0.70)], ids=["lower", "higher"])
def test_thirty_percent_worse_median_is_out_of_a_quarter_bound(metric, factor):
    change = [p * factor for p in PARENT]
    out = run_bench.summarize(runs_of(metric["name"], PARENT, change), [metric])[metric["name"]]
    assert out["change_median"] == pytest.approx(factor * out["parent_median"])
    assert not out["gain"]
    assert not out["within_bound"]


@pytest.mark.parametrize("metric, factor", [(WALL, 1.20), (RATE, 0.80)], ids=["lower", "higher"])
def test_twenty_percent_worse_median_is_within_a_quarter_bound(metric, factor):
    change = [p * factor for p in PARENT]
    out = run_bench.summarize(runs_of(metric["name"], PARENT, change), [metric])[metric["name"]]
    assert out["within_bound"]
    assert not out["gain"]


def test_higher_is_better_counts_wins_upward():
    change = [p * 1.5 for p in PARENT]
    out = run_bench.summarize(runs_of("points_per_s", PARENT, change), [RATE])["points_per_s"]
    assert out["change_better_pairs"] == 10
    assert out["gain"] and out["within_bound"]
