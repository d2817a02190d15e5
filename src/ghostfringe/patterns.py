"""Grid construction and mode dispatch shared by the CLI and the test suites."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analytic import CorrelationPattern, closed_form, path_table
from .geometry import GateAngles, SetupBasic, SetupGate, SetupMZ

SCAN_AXES = ("x_C", "x_T", "diagonal")


def make_grid(axis: str, start: float, stop: float, step: float, fixed: float = 0.0) -> np.ndarray:
    """(N, 2) array of joint detector positions along a scan axis.

    axis 'x_C' scans detector C with detector T parked at `fixed`, 'x_T' the
    other way round, and 'diagonal' moves both together. The grid includes
    both endpoints when step divides the span.
    """
    if axis not in SCAN_AXES:
        raise ValueError(f"axis must be one of {SCAN_AXES}, got {axis!r}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} is below start {start}")
    n = int(round((stop - start) / step)) + 1
    xs = start + step * np.arange(n)
    xs = xs[xs <= stop + step * 1e-9]
    if axis == "x_C":
        return np.column_stack([xs, np.full_like(xs, fixed)])
    if axis == "x_T":
        return np.column_stack([np.full_like(xs, fixed), xs])
    return np.column_stack([xs, xs])


def evaluate_pattern(
    setup: SetupBasic | SetupGate | SetupMZ,
    grid: np.ndarray,
    mode: str,
    angles: GateAngles | None = None,
    mask_quad_scale: float = 1.0,
) -> CorrelationPattern:
    """Closed-form correlation pattern over a grid, in 'exact' or 'asymptotic' mode.

    The whole grid is one evaluation of the setup's path table. SetupGate and
    SetupMZ need GateAngles; SetupBasic takes none.
    """
    grid = np.asarray(grid, dtype=float)
    table = replace(path_table(setup, angles), mask_quad_scale=mask_quad_scale)
    values = closed_form(table, grid[:, 0], grid[:, 1], mode)
    return CorrelationPattern(grid=grid, values=values, mode=mode)


__all__ = ["SCAN_AXES", "evaluate_pattern", "make_grid"]
