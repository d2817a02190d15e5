"""Hypothesis profiles and a command-line runner for the test suite.

`ci` tries ten times the default number of examples, with no deadline:
CI runs `pytest --hypothesis-profile=ci`, and a local run keeps the default.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

import ghostfringe

settings.register_profile("ci", max_examples=10 * settings.default.max_examples, deadline=None)


@pytest.fixture
def cli_at_blas_threads(tmp_path):
    """run(threads, *args): `python -m ghostfringe *args --out DIR` in a new interpreter.

    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are set to threads, which BLAS
    reads only at start-up. DIR is a new directory under tmp_path; run
    returns the bytes of each CSV written there, by file name.
    """
    src = str(Path(ghostfringe.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(threads: int, *args: str) -> dict[str, bytes]:
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        result = subprocess.run(
            [sys.executable, "-m", "ghostfringe", *args, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return {csv.name: csv.read_bytes() for csv in sorted(out.glob("*.csv"))}

    return run
