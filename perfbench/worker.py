"""Runs one workload's ops through `ghostfringe.cli.main` in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job file names the checkout root, the CLI calls of one op, their output
root, the time budget, the minimum op count and whether to trace. The worker runs one
untimed warm-up op, then timed ops until the budget would be exceeded, and
writes per-op wall time, CPU time, exit codes and output hashes to the job's
result path. Without tracing the package is imported untouched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from locate import import_cli

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _invoke(cli, argv: list[str], stderr: io.StringIO) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed op, like a traceback for a CLI user
        stderr.write(traceback.format_exc())
        return 1


def _hashes(out_root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out_root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_root.rglob("*")) if path.is_file()
    }


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var)
                       for var in (*BLAS_THREAD_VARS, "GHOSTFRINGE_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    cli = import_cli(Path(job["root"]))
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = job["calls"]
    ops: list[dict] = []

    def run_op(op_id: int) -> None:
        exits, stderr = {}, io.StringIO()
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        if tracer:
            tracer.set_op(op_id)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            for call in calls:
                with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                    exits[call["name"]] = _invoke(cli, call["argv"], stderr)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ops.append({"wall_s": wall, "cpu_s": cpu, "exits": exits,
                    "hashes": _hashes(Path(job["out"])), "stderr": stderr.getvalue()})

    run_op(0)
    start = time.perf_counter()
    while True:
        run_op(len(ops))
        elapsed = time.perf_counter() - start
        if len(ops) - 1 >= job["min_ops"] and elapsed + ops[-1]["wall_s"] > job["seconds"]:
            break
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer:
        result["trace"] = {str(k): v for k, v in tracer.per_op(range(1, len(ops))).items()}
        result["unwrapped"] = tracer.unwrapped
        tracer.save(Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
