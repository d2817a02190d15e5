"""Workload definitions: seeded INI generation and the CLI calls of one op.

Every workload writes its experiment files from the seed alone; the program
receives only those files and the command-line arguments a user would type.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Reference geometry of the package's acceptance checks: l_coh = 0.5 mm.
A = 0.5e-3
WAVELENGTH = 500e-9
Z = 1.0
F = 1.0
L_COH = WAVELENGTH * Z / (2.0 * A)
QUARTER = math.pi / 4.0

# Pinhole mask at 20 l_coh separation; the gate mask shares it.
MASK = {"a": A, "lambda": WAVELENGTH, "z": Z, "f": F,
        "x1": -5e-3, "x2": 5e-3, "x1p": -5e-3, "x2p": 5e-3}
# Asymmetric mask of the phase-convention arbitration check.
ARBITRATION = {"a": A, "lambda": WAVELENGTH, "z": Z, "f": F,
               "x1": -5e-3, "x2": 5.5e-3, "x1p": -4.8e-3, "x2p": 5.3e-3}
ZBAR = 0.2
# Equal mirror tilts displacing each tilted path by 10 l_coh.
MZ = {"a": A, "lambda": WAVELENGTH, "z": Z, "zbar": ZBAR,
      "delta_c": 10.0 * L_COH / (2.0 * ZBAR), "delta_t": 10.0 * L_COH / (2.0 * ZBAR)}
ANGLES_45 = {"phi_c": QUARTER, "phi_t": QUARTER, "theta_c": QUARTER, "theta_t": QUARTER}

SCAN_POINTS = 8001
SCAN_STEP = 4e-4 / (SCAN_POINTS - 1)
ENSEMBLE_POINTS = 81  # 4 fringe periods at 20 points per period
ENSEMBLE_REALIZATIONS = 20000
TABLE_REALIZATIONS = 5000
N_EMITTERS = 256
TABLE_SETTINGS = 16


@dataclass(frozen=True)
class Call:
    """One `ghostfringe` invocation; `name` is its output directory."""

    name: str
    argv: list[str]


@dataclass
class Op:
    """The CLI calls of one workload op and the work each op delivers."""

    calls: list[Call]
    points: int  # closed-form grid points or table entries evaluated
    pairs: int  # (realization, angle setting) pairs delivered by the ensemble
    files: dict[str, Path]  # the INI files, by setup


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in items.items()]
    return "\n".join(lines) + "\n"


def _closed_form_scan(seed: int, inputs: Path, out: Path) -> Op:
    # The closed forms draw nothing at random, so the seed shifts the scan
    # window by a fraction of one step instead.
    start = -2e-4 + random.Random(seed).random() * SCAN_STEP
    scan = {"axis": "diagonal", "start": start,
            "stop": start + (SCAN_POINTS - 1) * SCAN_STEP, "step": SCAN_STEP}
    setups = {
        "basic": {"setup": {"kind": "basic", **MASK}},
        "gate": {"setup": {"kind": "gate", **MASK}, "angles": ANGLES_45},
        "mz": {"setup": {"kind": "mz", **MZ}, "angles": ANGLES_45},
    }
    files, calls = {}, []
    for name, sections in setups.items():
        path = inputs / f"{name}.ini"
        path.write_text(_ini({**sections, "scan": scan, "mc": {"seed": seed}}))
        files[name] = path
        for mode in ("exact", "asymptotic"):
            calls.append(Call(f"{name}-{mode}", [
                "scan", "--config", str(path), "--mode", mode, "--out", str(out / f"{name}-{mode}"),
            ]))
    return Op(calls=calls, points=len(calls) * SCAN_POINTS, pairs=0, files=files)


def _ensemble_scan(seed: int, inputs: Path, out: Path) -> Op:
    step = WAVELENGTH * F / abs(ARBITRATION["x1"] - ARBITRATION["x2"]) / 20.0
    path = inputs / "arbitration.ini"
    path.write_text(_ini({
        "setup": {"kind": "basic", **ARBITRATION},
        "scan": {"axis": "x_C", "start": 0.0, "stop": (ENSEMBLE_POINTS - 1) * step, "step": step,
                 "detector_x": 0.0},
        "run": {"mode": "all"},
        "mc": {"n_realizations": ENSEMBLE_REALIZATIONS, "n_emitters": N_EMITTERS, "seed": seed},
    }))
    call = Call("arbitration", ["scan", "--config", str(path), "--out", str(out / "arbitration")])
    return Op(calls=[call], points=2 * ENSEMBLE_POINTS, pairs=ENSEMBLE_REALIZATIONS,
              files={"arbitration": path})


def _truth_table(seed: int, inputs: Path, out: Path) -> Op:
    mc = {"n_realizations": TABLE_REALIZATIONS, "n_emitters": N_EMITTERS, "seed": seed}
    setups = {"gate": {"kind": "gate", **MASK}, "mz": {"kind": "mz", **MZ}}
    files, calls = {}, []
    for name, setup in setups.items():
        path = inputs / f"{name}-table.ini"
        path.write_text(_ini({"setup": setup, "scan": {"detector_x": 0.0},
                              "run": {"mode": "all"}, "mc": mc}))
        files[name] = path
        calls.append(Call(name, ["truth-table", "--config", str(path), "--out", str(out / name)]))
    return Op(calls=calls, points=len(calls) * 2 * TABLE_SETTINGS,
              pairs=len(calls) * TABLE_SETTINGS * TABLE_REALIZATIONS, files=files)


WORKLOADS = {
    "closed-form-scan": _closed_form_scan,
    "ensemble-scan": _ensemble_scan,
    "truth-table": _truth_table,
}


def build(workload: str, seed: int, workdir: Path) -> Op:
    """Write the workload's INI files under workdir and return its op."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, inputs, workdir / "out")
