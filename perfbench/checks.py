"""Output gate and statistical diagnostics for one op's CSV files.

The two-path laws here are written from the formulas in numpy, without
importing ghostfringe, so they check the program instead of repeating it.
The gate decides whether an op counts as failed. The diagnostics, such as
the ensemble truth table's worst z-score, are recorded but never gate.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import workloads as wl

LAW_TOL = 1e-12
EXACT_VS_ASYMPTOTIC_TOL = 0.01  # share of the asymptotic peak
PEARSON_MIN = 0.99
TABLE_TOL = 1e-12
# Float-level leakage into exact zeros of the table is not signal.
Z_FLOOR = 1e-9
LABELS = ("HH", "HV", "VH", "VV")
CNOT = np.eye(4)[[0, 1, 3, 2]]


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return body[0].split(","), [line.split(",") for line in body[1:]]


def _scan(path: Path) -> np.ndarray:
    _, rows = _rows(path)
    return np.array(rows, dtype=float)


def _table(path: Path) -> np.ndarray:
    header, rows = _rows(path)
    if tuple(header[1:]) != LABELS or tuple(r[0] for r in rows) != LABELS:
        raise ValueError(f"{path.name}: unexpected table labels")
    return np.array([r[1:] for r in rows], dtype=float)


def _k(geometry: dict) -> float:
    return 2.0 * math.pi / geometry["lambda"]


def mask_phase(m: dict, x_c: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    h = m["z"] * m["f"] / (m["z"] + m["f"])
    quad = _k(m) / (2.0 * h) * (m["x1"] ** 2 + m["x2p"] ** 2 - m["x1p"] ** 2 - m["x2"] ** 2)
    lin = _k(m) / m["f"] * (x_c * (m["x2"] - m["x1"]) + x_t * (m["x1p"] - m["x2p"]))
    return quad + lin


def mz_phase(m: dict, x_c: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    zb, dc, dt = m["zbar"], m["delta_c"], m["delta_t"]
    return 2.0 * _k(m) / m["z"] * (zb * zb * (dc * dc - dt * dt) + zb * (x_c * dc - x_t * dt))


def gate_probability(angles: dict, phi: np.ndarray) -> np.ndarray:
    pc, pt, tc, tt = (angles[k] for k in ("phi_c", "phi_t", "theta_c", "theta_t"))
    amp_h = math.cos(pc) * math.cos(tc) * math.cos(pt - tt)
    amp_v = math.sin(pc) * math.sin(tc) * math.sin(pt + tt)
    return np.abs(amp_h + np.exp(1j * phi) * amp_v) ** 2


def _check_law(data: np.ndarray, law, name: str, problems: list[str], diag: dict) -> None:
    dev = float(np.max(np.abs(data[:, 2] - law(data[:, 0], data[:, 1]))))
    diag[f"{name}.asymptotic_law_dev"] = dev
    if not dev <= LAW_TOL:
        problems.append(f"{name}: asymptotic deviates from the two-path law by {dev:.3g}")


def _check_points(data: np.ndarray, want: int, name: str, problems: list[str]) -> None:
    if data.shape[0] != want:
        problems.append(f"{name}: {data.shape[0]} grid points, expected {want}")


def _closed_form_scan(out: Path, problems: list[str], diag: dict) -> None:
    laws = {
        "basic": lambda xc, xt: 2.0 + 2.0 * np.cos(mask_phase(wl.MASK, xc, xt)),
        "gate": lambda xc, xt: gate_probability(wl.ANGLES_45, mask_phase(wl.MASK, xc, xt)),
        "mz": lambda xc, xt: gate_probability(wl.ANGLES_45, mz_phase(wl.MZ, xc, xt)),
    }
    for name, law in laws.items():
        asymptotic = _scan(out / f"{name}-asymptotic" / "scan_asymptotic.csv")
        exact = _scan(out / f"{name}-exact" / "scan_exact.csv")
        _check_points(asymptotic, wl.SCAN_POINTS, name, problems)
        _check_points(exact, wl.SCAN_POINTS, name, problems)
        _check_law(asymptotic, law, name, problems, diag)
        if name == "mz":
            continue  # 10 l_coh tilts: the 1% agreement is claimed at 20 l_coh only
        peak = float(asymptotic[:, 2].max())
        dev = float(np.max(np.abs(exact[:, 2] - asymptotic[:, 2]))) / peak
        diag[f"{name}.exact_vs_asymptotic_dev"] = dev
        if not dev <= EXACT_VS_ASYMPTOTIC_TOL:
            problems.append(f"{name}: exact deviates from asymptotic by {dev:.3g} of peak")


def _ensemble_scan(out: Path, problems: list[str], diag: dict) -> None:
    run = out / "arbitration"
    asymptotic = _scan(run / "scan_asymptotic.csv")
    _check_points(asymptotic, wl.ENSEMBLE_POINTS, "arbitration", problems)
    _check_law(asymptotic,
               lambda xc, xt: 2.0 + 2.0 * np.cos(mask_phase(wl.ARBITRATION, xc, xt)),
               "arbitration", problems, diag)
    _, rows = _rows(run / "scan_compare.csv")
    compare = {r[0]: dict(zip(("nrmse", "pearson", "max_sigma_dev"), map(float, r[1:])))
               for r in rows}
    for pair in ("exact_vs_mc", "asymptotic_vs_mc"):
        for key, value in compare[pair].items():
            diag[f"{pair}.{key}"] = value
    pearson = compare["exact_vs_mc"]["pearson"]
    if not pearson >= PEARSON_MIN:
        problems.append(f"arbitration: exact-vs-mc pearson {pearson:.6g} below {PEARSON_MIN}")


def _truth_table(out: Path, problems: list[str], diag: dict) -> None:
    for name in ("gate", "mz"):
        run = out / name
        for mode in ("exact", "asymptotic"):
            dev = float(np.max(np.abs(_table(run / f"truth_table_{mode}.csv") - CNOT)))
            diag[f"{name}.{mode}_table_dev"] = dev
            if not dev <= TABLE_TOL:
                problems.append(f"{name}: {mode} truth table deviates from CNOT by {dev:.3g}")
        values = _table(run / "truth_table_mc.csv")
        stderr = _table(run / "truth_table_mc_stderr.csv")
        if not np.array_equal(values.argmax(axis=1), CNOT.argmax(axis=1)):
            problems.append(f"{name}: ensemble table rows do not peak on the CNOT permutation")
        excess = np.clip(np.abs(values - CNOT) - Z_FLOOR, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(excess > 0.0, excess / stderr, 0.0)
        row, col = np.unravel_index(int(np.argmax(z)), z.shape)
        diag[f"{name}.mc_worst_abs_z"] = float(z[row, col])
        diag[f"{name}.mc_worst_entry"] = f"{LABELS[row]}->{LABELS[col]}"
        diag[f"{name}.mc_within_3sigma"] = bool(z.max() <= 3.0)


CHECKS = {
    "closed-form-scan": _closed_form_scan,
    "ensemble-scan": _ensemble_scan,
    "truth-table": _truth_table,
}


def check(workload: str, out: Path) -> tuple[list[str], dict]:
    """Gate problems (empty when the outputs pass) and diagnostics."""
    problems: list[str] = []
    diag: dict = {}
    try:
        CHECKS[workload](out, problems, diag)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, diag
