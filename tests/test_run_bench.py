"""bench/run_bench.py: per-metric verdicts of alternating parent/change runs."""

import importlib.util
import json
from datetime import datetime
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


@pytest.mark.parametrize("metric, factor", [(WALL, 0.90), (RATE, 1.10)], ids=["lower", "higher"])
def test_paired_ratio_is_change_over_parent_and_ties_count_for_neither(metric, factor):
    change = [p * factor for p in PARENT[:7]] + PARENT[7:]
    out = run_bench.summarize(runs_of(metric["name"], PARENT, change), [metric])[metric["name"]]
    assert out["median_pair_ratio"] == pytest.approx(factor)
    assert out["tied_pairs"] == 3
    assert out["change_better_pairs"] == 7
    assert not out["gain"] and out["within_bound"]


def bench_25_runs(workload):
    """BENCH_25.json's stored raw runs of one workload, as summarize takes them."""
    stored = json.loads((run_bench.ROOT / "BENCH_25.json").read_text())["workloads"][workload]
    metrics = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in metrics]
    runs = {side: [{"metrics": {name: {"value": v} for name, v in zip(names, values)},
                    "failed": 0, "attempted": 0, "correct": True}
                   for values in zip(*(stored[name][f"{side}_runs"] for name in names))]
            for side in ("parent", "change")}
    return stored, run_bench.summarize(runs, metrics)


@pytest.mark.parametrize("workload", ["closed-form-scan", "ensemble-scan", "truth-table"])
def test_bench_25_runs_resummarize_to_their_stored_verdicts(workload):
    stored, out = bench_25_runs(workload)
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "points_per_s"):
        for key in ("gain", "within_bound", "change_better_pairs"):
            assert out[name][key] == stored[name][key], (name, key)


def test_bench_25_closed_form_scan_wins_its_pairs_without_a_gain():
    """A drifting host spread the parent's runs wider than an 11% gain that won 9 of 10 pairs."""
    _, out = bench_25_runs("closed-form-scan")
    assert out["wall_s"]["median_pair_ratio"] == pytest.approx(0.893, abs=5e-4)
    assert out["wall_s"]["change_better_pairs"] == 9
    assert out["wall_s"]["tied_pairs"] == 0
    assert not out["wall_s"]["gain"]


def test_main_records_the_provenance_of_every_run(monkeypatch, tmp_path):
    """Each run keeps its start, its pair's first side and the load read just before it.

    The verdicts are those of the same runs without provenance.
    """
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    spec["workloads"] = spec["workloads"][:1]
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    events = []
    loads = iter([0.5, 1.5, 2.5, 3.5])

    def getloadavg():
        events.append("load")
        return (next(loads), 0.0, 0.0)

    def fake_run(checkout, workload, seed):
        events.append(checkout)
        return {"metrics": {m["name"]: {"value": float(seed)} for m in spec["end_to_end"]},
                "failed": 0, "attempted": 5, "correct": True, "machine": {}}

    monkeypatch.setattr(run_bench, "ROOT", root)
    monkeypatch.setattr(run_bench, "git", lambda *args: "abc1234")
    monkeypatch.setattr(run_bench, "unpack", lambda commit, scratch: "P")
    monkeypatch.setattr(run_bench, "snapshot", lambda scratch: "C")
    monkeypatch.setattr(run_bench.os, "getloadavg", getloadavg)
    monkeypatch.setattr(run_bench, "run", fake_run)
    argv = ["--parent", "x", "--pr", "t", "--scratch", str(tmp_path / "s"), "--seeds", "2"]
    assert run_bench.main(argv) == 0
    assert events == ["load", "P", "load", "C", "load", "C", "load", "P"]
    out = json.loads((root / "BENCH_t.json").read_text())["workloads"][spec["workloads"][0]["name"]]
    provenance = out.pop("provenance")
    assert [r["load_1min"] for r in provenance["parent"]] == [0.5, 3.5]
    assert [r["load_1min"] for r in provenance["change"]] == [1.5, 2.5]
    assert [r["first"] for r in provenance["parent"]] == ["parent", "change"]
    assert [r["first"] for r in provenance["change"]] == ["parent", "change"]
    for record in (*provenance["parent"], *provenance["change"]):
        datetime.fromisoformat(record["started"])
    plain = {side: [fake_run(side, "w", seed) for seed in (1, 2)] for side in ("parent", "change")}
    assert out == json.loads(json.dumps(run_bench.summarize(plain, spec["end_to_end"])))
