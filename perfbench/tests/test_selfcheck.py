"""Self-checks of the benchmark itself.

Run from the repository root with `python3 -m pytest -q perfbench/tests`.
Traced runs must repeat their per-layer counts exactly, every metric name and
unit must match BENCHMARK.json, and a directory without the package sources
must be refused without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that depend only on the workload, never on timing.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
EXACT |= {"cli.emit_bytes", "montecarlo.draw_reuse"}


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, done.stdout
    return res


def units(res: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in res["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in sorted(EXACT):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_metrics_match_spec():
    res = result(bench("ensemble-scan", 0))
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in res["metrics"].values())


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("ensemble-scan", 0, root=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
