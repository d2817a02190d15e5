"""Closed-form fluctuation-correlation patterns for the two-pinhole geometry.

The joint photon-number fluctuation correlation of the two arms is the squared
modulus of a sum of four path-pair contributions, one per (pinhole in arm C,
pinhole in arm T) combination. A pair contributes a unit-modulus propagation
phase times a slit envelope sinc(pi * separation / l_coh). When both
within-pair separations are far below l_coh and both cross-pair separations
far above it, only pairs (1,1') and (2,2') survive and the pattern collapses
to the two-path fringe law 2 + 2*cos(phi).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import C_LIGHT, sinc
from .geometry import ConditionWarning, SetupBasic

PATTERN_MODES = ("exact", "asymptotic", "monte-carlo")

# Artifact thresholds for the "far above" / "far below" regime checks.
CROSS_RATIO_MIN = 10.0
WITHIN_RATIO_MAX = 0.1


def b_phase(xj: float, xd: float, setup: SetupBasic, mask_quad_scale: float = 1.0) -> complex:
    """Unit-modulus propagation factor from pinhole xj to detector xd.

    Product of the detector-plane curvature exp(i*omega*xd^2/(2*c*f)), the
    mask-plane curvature exp(i*scale*omega*xj^2/(2*c*h)) with 1/h = 1/z + 1/f,
    and the mixed term exp(-i*omega*xd*xj/(f*c)).

    mask_quad_scale scales only the mask-plane quadratic term. The physical
    value is 1.0; 2.0 gives a doubled-curvature variant kept so the
    stochastic-ensemble oracle can discriminate the two conventions.
    """
    omega = setup.omega
    quad = omega / (C_LIGHT * setup.f) * xd * xd / 2.0
    quad += mask_quad_scale * omega / (C_LIGHT * setup.h) * xj * xj / 2.0
    return cmath.exp(1j * (quad - omega * xd * xj / (setup.f * C_LIGHT)))


@dataclass(frozen=True)
class PairContribution:
    """One path-pair term of the correlation sum.

    i indexes the arm-C pinhole (1 or 2), j the arm-T pinhole (1 or 2,
    meaning 1' or 2'). envelope is the slit factor normalized to peak 1,
    phase the raw unwrapped propagation phase, and value the complex
    contribution envelope * exp(i*phase).
    """

    i: int
    j: int
    envelope: float
    phase: float
    value: complex = field(repr=False)


def g1_pair(
    setup: SetupBasic,
    i: int,
    j: int,
    x_c: float,
    x_t: float,
    mask_quad_scale: float = 1.0,
) -> PairContribution:
    """Contribution of the pinhole pair (i in arm C, j' in arm T).

    value = conj(b_phase(x_i, x_c)) * b_phase(x_j', x_t) * sinc envelope,
    with the envelope normalized so its peak is 1.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"pinhole indices must be 1 or 2, got i={i}, j={j}")
    xi = setup.x1 if i == 1 else setup.x2
    xj = setup.x1p if j == 1 else setup.x2p
    envelope = float(sinc(math.pi * (xi - xj) / setup.l_coh))
    value = (
        b_phase(xi, x_c, setup, mask_quad_scale).conjugate()
        * b_phase(xj, x_t, setup, mask_quad_scale)
        * envelope
    )
    omega = setup.omega
    quad = omega / (C_LIGHT * setup.f) * (x_t * x_t - x_c * x_c) / 2.0
    quad += mask_quad_scale * omega / (C_LIGHT * setup.h) * (xj * xj - xi * xi) / 2.0
    phase = quad - omega * (x_t * xj - x_c * xi) / (setup.f * C_LIGHT)
    return PairContribution(i=i, j=j, envelope=envelope, phase=phase, value=value)


def phase_phi_basic(
    setup: SetupBasic, x_c: float, x_t: float, mask_quad_scale: float = 1.0
) -> float:
    """Relative phase between the surviving pairs (2,2') and (1,1').

    phi = omega/(2*c*h) * (x1^2 + x2'^2 - x1'^2 - x2^2)
        + omega/(c*f) * (x_c*x2 - x_t*x2' - x_c*x1 + x_t*x1')

    Returned unwrapped; wrap only for display.
    """
    omega = setup.omega
    quad = (
        mask_quad_scale
        * omega
        / (2.0 * C_LIGHT * setup.h)
        * (setup.x1**2 + setup.x2p**2 - setup.x1p**2 - setup.x2**2)
    )
    lin = (
        omega
        / (C_LIGHT * setup.f)
        * (x_c * setup.x2 - x_t * setup.x2p - x_c * setup.x1 + x_t * setup.x1p)
    )
    return quad + lin


def separation_ratios(setup: SetupBasic) -> dict[str, float]:
    """Pinhole separations in units of l_coh, keyed by pair."""
    l = setup.l_coh
    return {
        "within_11p": abs(setup.x1 - setup.x1p) / l,
        "within_22p": abs(setup.x2 - setup.x2p) / l,
        "cross_12p": abs(setup.x1 - setup.x2p) / l,
        "cross_21p": abs(setup.x2 - setup.x1p) / l,
    }


def check_pair_conditions(setup: SetupBasic) -> list[str]:
    """Return human-readable violations of the two-path regime, if any."""
    ratios = separation_ratios(setup)
    problems = []
    for key in ("within_11p", "within_22p"):
        if ratios[key] > WITHIN_RATIO_MAX:
            problems.append(
                f"{key} separation is {ratios[key]:.3g} l_coh, above {WITHIN_RATIO_MAX}"
            )
    for key in ("cross_12p", "cross_21p"):
        if ratios[key] < CROSS_RATIO_MIN:
            problems.append(
                f"{key} separation is {ratios[key]:.3g} l_coh, below {CROSS_RATIO_MIN}"
            )
    return problems


def warn_pair_conditions(setup: SetupBasic) -> None:
    for problem in check_pair_conditions(setup):
        warnings.warn(
            f"asymptotic two-path form may be inaccurate: {problem}",
            ConditionWarning,
            stacklevel=3,
        )


def four_pair_sum(
    values: dict[tuple[int, int], complex],
    envelopes: dict[tuple[int, int], float],
) -> float:
    """|sum of weighted pair terms|^2 normalized by (sum of |envelopes| / 2)^2.

    The normalization makes the two-path regime peak at 4 for unit weights
    (both surviving envelopes near 1, cross envelopes near 0) and keeps the
    value at 4 for a fully coherent configuration where all four envelopes
    reach 1 in phase. A configuration with all envelopes at a sinc zero has
    no correlation at all and returns 0.
    """
    env_sum = sum(abs(e) for e in envelopes.values())
    if env_sum < 1e-300:
        return 0.0
    total = sum(values.values())
    return abs(total) ** 2 / (env_sum / 2.0) ** 2


_PAIRS = ((1, 1), (2, 2), (1, 2), (2, 1))


def dn_corr_basic(
    setup: SetupBasic,
    x_c: float,
    x_t: float,
    mode: str = "exact",
    mask_quad_scale: float = 1.0,
) -> float:
    """Normalized fluctuation correlation of the two detectors.

    mode 'exact' sums all four pair contributions; mode 'asymptotic' returns
    the two-path law |1 + exp(i*phi)|^2 and warns if the geometry does not
    support it. Both modes peak at 4.
    """
    if mode == "asymptotic":
        warn_pair_conditions(setup)
        return 2.0 + 2.0 * math.cos(phase_phi_basic(setup, x_c, x_t, mask_quad_scale))
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    values: dict[tuple[int, int], complex] = {}
    envelopes: dict[tuple[int, int], float] = {}
    for i, j in _PAIRS:
        pair = g1_pair(setup, i, j, x_c, x_t, mask_quad_scale)
        values[(i, j)] = pair.value
        envelopes[(i, j)] = pair.envelope
    return four_pair_sum(values, envelopes)


def fringe_period_xc(setup: SetupBasic) -> float:
    """Period wavelength*f/|x1 - x2| of the fringe scanned with detector C."""
    if setup.x1 == setup.x2:
        raise ValueError("fringe period undefined: arm-C pinholes coincide (x1 == x2)")
    return setup.wavelength * setup.f / abs(setup.x1 - setup.x2)


@dataclass(frozen=True)
class CorrelationPattern:
    """Correlation values over a grid of joint detector positions.

    grid is an (N, 2) array of (x_c, x_t) pairs; stderr is present only for
    ensemble estimates.
    """

    grid: np.ndarray
    values: np.ndarray
    mode: str
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.mode not in PATTERN_MODES:
            raise ValueError(f"mode must be one of {PATTERN_MODES}, got {self.mode!r}")
        if grid.ndim != 2 or grid.shape[1] != 2:
            raise ValueError(f"grid must have shape (N, 2), got {grid.shape}")
        if values.shape != (grid.shape[0],):
            raise ValueError(
                f"values shape {values.shape} does not match grid length {grid.shape[0]}"
            )
        if np.any(values < 0.0):
            raise ValueError("correlation values must be nonnegative")
        if self.stderr is not None:
            stderr = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", stderr)
            if stderr.shape != values.shape:
                raise ValueError("stderr shape does not match values")
            if np.any(stderr < 0.0):
                raise ValueError("stderr must be nonnegative")

    @property
    def x_c(self) -> np.ndarray:
        return self.grid[:, 0]

    @property
    def x_t(self) -> np.ndarray:
        return self.grid[:, 1]


def pattern_visibility(values: np.ndarray) -> float:
    """(max - min) / (max + min) of a sampled pattern."""
    values = np.asarray(values, dtype=float)
    hi, lo = float(values.max()), float(values.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


__all__ = [
    "CROSS_RATIO_MIN",
    "WITHIN_RATIO_MAX",
    "CorrelationPattern",
    "PairContribution",
    "b_phase",
    "check_pair_conditions",
    "dn_corr_basic",
    "four_pair_sum",
    "fringe_period_xc",
    "g1_pair",
    "pattern_visibility",
    "phase_phi_basic",
    "separation_ratios",
    "warn_pair_conditions",
]
