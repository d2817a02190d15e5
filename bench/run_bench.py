"""Alternating parent/change perfbench runs, summarized as BENCH_<pr>.json.

Usage, from the repository root:

    python3 bench/run_bench.py --parent COMMIT --pr N --scratch DIR [--seeds 10]

The parent side is the tree of COMMIT, unpacked with `git archive` into
DIR/parent-<commit>; the change side is a fresh copy of the working tree's
tracked and untracked, not ignored files in DIR/change, so both sides run
from a clean directory of their own. For each seed 1..N and each workload of
BENCHMARK.json both sides run

    python3 perfbench/run.py --workload W --seed S --trace 0

in their own checkout, for the run_seconds that BENCHMARK.json sets, and
the side that runs first alternates from seed to seed. Per workload and
end-to-end metric of BENCHMARK.json the output holds both medians, the
parent's quartiles, the number of pairs in which the change is better, and
the raw runs; then the failed and attempted op counts, whether every run
passed the output gate, and per side the provenance of each run: its start
time, the side that ran first in its pair and the 1-minute load average read
just before it, so that a gap between pairs can be traced to the machine.
Nothing under perfbench/ and nothing in BENCHMARK.json is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ("started", "first", "load_1min")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(commit: str, scratch: Path) -> Path:
    """Tree of commit under scratch, unpacked once and reused afterwards."""
    target = scratch / f"parent-{commit}"
    if not (target / "perfbench" / "run.py").is_file():
        target.mkdir(parents=True, exist_ok=True)
        archive = scratch / f"parent-{commit}.tar"
        git("archive", "--format=tar", "-o", str(archive), commit)
        with tarfile.open(archive) as tar:
            tar.extractall(target, filter="data")
        archive.unlink()
    return target


def snapshot(scratch: Path) -> Path:
    """Working tree files that git tracks or would track, copied afresh under scratch."""
    target = scratch / "change"
    shutil.rmtree(target, ignore_errors=True)
    for name in git("ls-files", "--cached", "--others", "--exclude-standard").splitlines():
        source = ROOT / name
        if source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)
    return target


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run: its result line plus the machine of its record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench_work" / workload / "record.json").read_text())
    result["machine"] = record["machine"]
    return result


def run_pair(checkouts: dict[str, Path], workload: str, seed: int) -> dict[str, dict]:
    """Both sides' runs of one seed, the parent first on odd seeds, each with its provenance.

    Each result gains the PROVENANCE keys: started, the UTC start time;
    first, the side that ran first in this pair; and load_1min, the 1-minute
    load average read just before the run.
    """
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    results = {}
    for side in order:
        load = os.getloadavg()[0]
        started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        results[side] = run(checkouts[side], workload, seed)
        results[side].update(started=started, first=order[0], load_1min=load)
    return results


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per-metric medians, parent quartiles, better pairs and verdicts, then failures.

    For each end-to-end metric of BENCHMARK.json (name, better, bound), gain is
    true when the change is better in at least 9/10 of the pairs, ties counting
    for neither, and its median is better than the parent's by more than the
    parent's q3 - q1; within_bound is true when the change median is not worse
    than the parent median by more than bound x the parent median.
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        parent, change = values["parent"], values["change"]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        improvement = parent_median - change_median if lower else change_median - parent_median
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_better_pairs": wins,
            "pairs": len(parent),
            "gain": 10 * wins >= 9 * len(parent) and improvement > q3 - q1,
            "within_bound": -improvement <= metric["bound"] * parent_median,
            "parent_runs": parent,
            "change_runs": change,
        }
    out["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    out["failed"].update({f"attempted_{side}": sum(r["attempted"] for r in runs[side])
                          for side in runs})
    out["output_gate_passed"] = all(r["correct"] for side in runs for r in runs[side])
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="directory outside the repository for the two checkouts")
    parser.add_argument("--seeds", type=int, default=10, help="pairs per workload, seeds 1..N")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 for quartiles")
    scratch = args.scratch.resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        parser.error("--scratch must lie outside the repository")

    commit = git("rev-parse", "--short", args.parent)
    checkouts = {"parent": unpack(commit, scratch), "change": snapshot(scratch)}
    command = "python3 perfbench/run.py --workload W --seed S --trace 0"
    result = {
        "description": (
            f"End-to-end metrics of the perfbench workloads, parent commit vs this change: "
            f"{args.seeds} alternating pairs per workload (seeds 1-{args.seeds}, the side that "
            f"runs first alternates), each run `{command}` for {spec['run_seconds']} s in a copy "
            "of the parent commit and a copy of the working tree on the same machine; "
            "provenance holds each run's UTC start, the side that ran first in its pair and "
            "the 1-minute load average read just before it."),
        "parent_commit": commit,
        "command": command,
        "machine": None,
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.seeds + 1):
            for side, outcome in run_pair(checkouts, workload, seed).items():
                runs[side].append(outcome)
            print(f"{workload} seed {seed}: wall_s parent "
                  f"{runs['parent'][-1]['metrics']['wall_s']['value']:.4g}, change "
                  f"{runs['change'][-1]['metrics']['wall_s']['value']:.4g}", flush=True)
        result["machine"] = runs["change"][-1]["machine"]
        summary = summarize(runs, spec["end_to_end"])
        summary["provenance"] = {side: [{key: r[key] for key in PROVENANCE} for r in runs[side]]
                                 for side in runs}
        result["workloads"][workload] = summary

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
