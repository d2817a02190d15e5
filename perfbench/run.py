"""Benchmark of ghostfringe's three-way correlation cross-check.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload writes seeded INI files and runs them through
`ghostfringe.cli.main` in a fresh worker process, one untimed warm-up op
first. With --trace 0 the run reports the end-to-end metrics; with --trace 1
it runs an untraced worker and then a traced one for half the time each and
reports per-layer metrics. Every op's outputs pass through the gate in
checks.py. A readable summary goes to stdout, a full record to
.perfbench_work/<workload>/record.json, and the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 11
MIN_TIMED_OPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

def _median(values) -> float:
    return float(statistics.median(values))


def _layer(per_op: dict[str, dict], pairs: int) -> dict[str, float]:
    """Per-layer metrics of each traced op, reduced to their medians."""
    def total(s, name):
        return s[f"{name}.total_s"]

    def self_s(s, name):
        return s[f"{name}.self_s"]

    def calls(s, name):
        return s.get(f"{name}.calls", 0)

    def estimator_s(s):
        return total(s, "montecarlo.estimate_dn_corr") + total(s, "montecarlo.estimate_truth_table")

    extract = {
        "cli.parse_config_s": lambda s: total(s, "cli.parse_config"),
        "cli.emit_s": lambda s: total(s, "cli.emit"),
        "cli.emit_bytes": lambda s: s["emit_bytes"],
        "cli.conditions_report_s": lambda s: total(s, "cli.conditions_report"),
        "patterns.evaluate_pattern_s": lambda s: total(s, "patterns.evaluate_pattern"),
        "patterns.evaluate_pattern_calls": lambda s: calls(s, "patterns.evaluate_pattern"),
        "analytic.dn_corr_basic_calls": lambda s: calls(s, "analytic.dn_corr_basic"),
        "analytic.g1_pair_calls": lambda s: calls(s, "analytic.g1_pair"),
        "analytic.g1_pair_s": lambda s: total(s, "analytic.g1_pair"),
        "gate.dn_corr_gate_calls": lambda s: calls(s, "gate.dn_corr_gate"),
        "gate.dn_corr_mz_calls": lambda s: calls(s, "gate.dn_corr_mz"),
        "gate.closed_form_s": lambda s: self_s(s, "gate.dn_corr_gate") + self_s(s, "gate.dn_corr_mz"),
        "gate.envelope_power_calls": lambda s: calls(s, "gate.envelope_power"),
        "core.sinc_calls": lambda s: calls(s, "core.sinc"),
        "montecarlo.sample_realization_calls": lambda s: calls(s, "montecarlo.sample_realization"),
        "montecarlo.draw_s": lambda s: total(s, "montecarlo.sample_realization"),
        # Distinct (seed, index) draws within each estimator call per draw made;
        # 0 when the op draws nothing.
        "montecarlo.draw_reuse": lambda s: (
            s["draw_distinct"] / calls(s, "montecarlo.sample_realization")
            if calls(s, "montecarlo.sample_realization") else 0.0),
        "montecarlo.estimate_dn_corr_s": lambda s: total(s, "montecarlo.estimate_dn_corr"),
        "montecarlo.estimate_truth_table_s": lambda s: total(s, "montecarlo.estimate_truth_table"),
        # Estimator self time: kernel build, matmul and moment reduction, with the
        # draws and the envelope weights (traced child spans) taken out.
        "montecarlo.field_moments_s": lambda s: (
            self_s(s, "montecarlo.estimate_dn_corr") + self_s(s, "montecarlo.estimate_truth_table")),
        "montecarlo.compare_patterns_s": lambda s: total(s, "montecarlo.compare_patterns"),
        # (realization, angle setting) pairs delivered per estimator second.
        "montecarlo.realizations_per_s": lambda s: pairs / estimator_s(s) if pairs else 0.0,
    }
    return {name: _median([f(s) for s in per_op.values()]) for name, f in extract.items()}


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    out = {"n": len(values), "median": _median(values), "min": ordered[0], "max": ordered[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 11:
        # highest percentile with at least ten samples beyond it
        out["tail"] = {"percentile": 100.0 * (len(values) - 10) / len(values),
                       "value": ordered[-11]}
    return out


def worker_env() -> dict[str, str]:
    """Environment of every child: BLAS/OpenMP threads at nproc, package default of 1 worker."""
    env = {k: v for k, v in os.environ.items() if k != "GHOSTFRINGE_THREADS"}
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = nproc
    return env


def _child(argv: list[str], env: dict, deadline: float) -> str:
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(argv[1]).name} exceeded the run time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def measure_setup(op: workloads.Op, env: dict, deadline: float) -> list[float]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
    argv += [str(path) for path in op.files.values()]
    _child(argv, env, deadline)  # untimed: fills the bytecode cache
    return [float(_child(argv, env, deadline)) for _ in range(SETUP_PROBES)]


def run_worker(op: workloads.Op, workdir: Path, tag: str, trace: bool, seconds: float,
               min_ops: int, env: dict, deadline: float) -> dict:
    job = {
        "root": str(ROOT),
        "calls": [{"name": c.name, "argv": c.argv} for c in op.calls],
        "out": str(workdir / "out"),
        "seconds": seconds,
        "min_ops": min_ops,
        "trace": trace,
        "result": str(workdir / f"{tag}-result.json"),
        "spans": str(workdir / f"{tag}-spans.npz"),
    }
    job_path = workdir / f"{tag}-job.json"
    job_path.write_text(json.dumps(job))
    _child([sys.executable, str(HERE / "worker.py"), str(job_path)], env, deadline)
    return json.loads(Path(job["result"]).read_text())


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def judge(workload: str, workdir: Path, workers: list[dict]) -> tuple[int, int, bool, list, dict]:
    """Apply the output gate to every op; returns attempted, failed, correct, problems, diag.

    The content checks read the files of the last op. Every op must exit 0
    and write files byte-identical to the first warm-up op's.
    """
    problems, diag = checks.check(workload, workdir / "out")
    reference = workers[0]["ops"][0]["hashes"]
    if workers[-1]["ops"][-1]["hashes"] != reference:
        problems.append("outputs of the last op differ from the warm-up op")

    def ok(op: dict) -> bool:
        return not problems and op["hashes"] == reference and all(
            code == 0 for code in op["exits"].values())

    timed = [op for worker in workers for op in worker["ops"][1:]]
    failed = sum(not ok(op) for op in timed)
    warmups_ok = all(ok(worker["ops"][0]) for worker in workers)
    for worker in workers:
        for index, op in enumerate(worker["ops"]):
            for name, code in op["exits"].items():
                if code != 0:
                    problems.append(f"op {index} call {name} exited {code}: {op['stderr'][-500:]}")
            if op["hashes"] != reference:
                problems.append(f"op {index} wrote outputs that differ from the warm-up op")
    return len(timed), failed, failed == 0 and warmups_ok, problems, diag


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ghostfringe" / "cli.py").is_file():
        print(f"error: no ghostfringe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    op = workloads.build(args.workload, args.seed, workdir)
    env = worker_env()
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "git_commit": git_commit()}
    try:
        if args.trace:
            untraced = run_worker(op, workdir, "untraced", False, args.seconds / 2, 1, env, deadline)
            traced = run_worker(op, workdir, "traced", True, args.seconds / 2, 1, env, deadline)
            workers = [untraced, traced]
            metrics = _layer(traced["trace"], op.pairs)
            walls = {tag: [o["wall_s"] for o in w["ops"][1:]]
                     for tag, w in (("untraced", untraced), ("traced", traced))}
            metrics["trace.overhead_s"] = _median(walls["traced"]) - _median(walls["untraced"])
            record["op_wall_s"] = {tag: _summary(v) for tag, v in walls.items()}
            record["unwrapped"] = traced["unwrapped"]
        else:
            setup = measure_setup(op, env, deadline)
            worker = run_worker(op, workdir, "timed", False, args.seconds, MIN_TIMED_OPS, env,
                                deadline)
            workers = [worker]
            timed = worker["ops"][1:]
            samples = {"wall_s": [o["wall_s"] for o in timed],
                       "cpu_s": [o["cpu_s"] for o in timed], "setup_s": setup}
            record["samples"] = {name: _summary(v) for name, v in samples.items()}
            wall = _median(samples["wall_s"])
            metrics = {
                "wall_s": wall,
                "cpu_s": _median(samples["cpu_s"]),
                "peak_rss_mb": worker["peak_rss_mb"],
                "setup_s": _median(setup),
                "points_per_s": op.points / wall,
            }
            record["realizations_per_s"] = op.pairs / wall
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        attempted, failed, correct, problems, diag = judge(args.workload, workdir, workers)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(machine=workers[0]["machine"], attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, problems=problems, diagnostics=diag,
                  metrics=metrics, points_per_op=op.points, pairs_per_op=op.pairs)
    (workdir / "record.json").write_text(json.dumps(record, indent=2))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} timed ops, {failed} failed")
    for name, value in metrics.items():
        detail = record.get("samples", {}).get(name)
        extra = (f"  (median of {detail['n']}, q1 {detail.get('q1', value):.6g},"
                 f" q3 {detail.get('q3', value):.6g})" if detail else "")
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    for key, value in diag.items():
        print(f"  diagnostic {key} = {value}")
        if key.endswith("mc_within_3sigma") and not value:
            setup = key.split(".")[0]
            print(f"  finding: the {setup} ensemble table misses the 3-sigma rule, worst |z| "
                  f"{diag[setup + '.mc_worst_abs_z']:.3g} on {diag[setup + '.mc_worst_entry']}"
                  " (recorded, not gated)")
    for problem in problems:
        print(f"  FAILED {problem}")
    machine = record["machine"]
    print(f"  machine: nproc {machine['nproc']}, python {machine['python']}, numpy "
          f"{machine['numpy']}, blas {machine['blas']['name']} {machine['blas']['version']}, "
          f"threads {machine['thread_env']}, commit {record['git_commit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
