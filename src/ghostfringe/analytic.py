"""Closed-form fluctuation correlations as interference between pairs of optical paths.

Every setup is two arms, C and T, of two paths each: the two pinholes of a
mask, or the tilted and the straight path of a tilted-mirror interferometer.
PathTable holds, per path, a polarization weight and an envelope position,
and per arm the phase of its second path relative to its first, the only
phase the correlation can observe: a phase common to both paths of an arm
cancels. Both closed-form modes derive from that table. The joint
photon-number fluctuation correlation of the arms is the squared modulus of a
sum over the four path pairs (path i of arm C, path j of arm T): both weights
times the relative phases times a slit envelope sinc(pi * separation /
l_coh). When both within-pair separations are far below l_coh and both
cross-pair separations far above it, only the matched pairs (1,1') and (2,2')
survive at unit envelope and the pattern collapses to the two-path law
|w11 + w22*exp(i*phi)|^2, which is 2 + 2*cos(phi) for the unpolarized mask.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import C_LIGHT, sinc
from .geometry import ConditionWarning, GateAngles, SetupBasic, SetupGate, SetupMZ

PATTERN_MODES = ("exact", "asymptotic", "monte-carlo")

# The regime sits a decade either side of 1: separations in units of l_coh,
# and the gate phase in radians (|phi| <= 0.1 keeps the cross term within
# 0.5% of its phi = 0 value).
_FAR_BELOW, _FAR_ABOVE = 0.1, 10.0
_SEPARATION = "{key} separation is {value:.3g} l_coh, {side} {threshold}"
_RATIO = "{key} ratio {value:.3g} is {side} {threshold}"

# Margin key -> (failing side, threshold, problem text), in report order.
CONDITIONS = {
    "within_11p": ("above", _FAR_BELOW, _SEPARATION),
    "within_22p": ("above", _FAR_BELOW, _SEPARATION),
    "cross_12p": ("below", _FAR_ABOVE, _SEPARATION),
    "cross_21p": ("below", _FAR_ABOVE, _SEPARATION),
    "tilt_c": ("below", _FAR_ABOVE, _RATIO),
    "tilt_t": ("below", _FAR_ABOVE, _RATIO),
    "tilt_diff": ("above", _FAR_BELOW, _RATIO),
    "detector_sep": ("above", _FAR_BELOW, _RATIO),
    "phase": ("above", _FAR_BELOW, "phase {value:.3g} rad is {side} {threshold}"
              " (outside the CNOT regime)"),
}


def b_phase(xj, xd, setup: SetupBasic):
    """Unit-modulus propagation factor from pinhole xj to detector xd.

    Product of the detector-plane curvature exp(i*omega*xd^2/(2*c*f)), the
    mask-plane curvature exp(i*omega*xj^2/(2*c*h)) with 1/h = 1/z + 1/f,
    and the mixed term exp(-i*omega*xd*xj/(f*c)). xj and xd broadcast as
    arrays. This is the absolute phase of one path, which g1_pair reports;
    the closed forms need only PathTable.relative_phase, the difference of
    two such phases within an arm.
    """
    omega = setup.omega
    quad = omega / (C_LIGHT * setup.f) * xd * xd / 2.0
    quad = quad + omega / (C_LIGHT * setup.h) * xj * xj / 2.0
    return np.exp(1j * (quad - omega * xd * xj / (setup.f * C_LIGHT)))


@dataclass(frozen=True)
class PathTable:
    """A setup as two arms (0 = C, 1 = T) of two optical paths each.

    coefficients[..., arm, path] is the polarization weight of a path; leading
    axes, if any, stack angle settings. The default unit weights describe the
    unpolarized mask. offsets[arm, path] places a path: the pinhole position
    on a mask, or behind the tilted mirrors the detector shift, 2*zbar*delta
    for the tilted first path and 0 for the straight second one.
    relative_phase, the phase of an arm's second path relative to its first,
    is the only phase either closed-form mode reads. mask_quad_scale scales
    the mask-plane curvature in it: the physical value is 1.0, and 2.0 gives
    a doubled-curvature variant kept so the stochastic-ensemble oracle can
    discriminate the two conventions.
    """

    setup: SetupBasic | SetupMZ
    coefficients: np.ndarray = field(default_factory=lambda: np.ones((2, 2)))
    mask_quad_scale: float = 1.0

    @property
    def offsets(self) -> np.ndarray:
        s = self.setup
        if isinstance(s, SetupMZ):
            zb2 = 2.0 * s.zbar
            return np.array([[zb2 * s.delta_c, 0.0], [zb2 * s.delta_t, 0.0]])
        return np.array([[s.x1, s.x2], [s.x1p, s.x2p]])

    def positions(self, arm: int, x_d) -> np.ndarray:
        """Envelope position of each path of an arm, shape (..., 2).

        Pinholes stay put; behind the tilted mirrors the positions are the
        detector positions x_d shifted by the offsets, so they move along a
        scan.
        """
        if isinstance(self.setup, SetupMZ):
            return np.asarray(x_d, dtype=float)[..., None] + self.offsets[arm]
        return self.offsets[arm]

    def envelopes(self, x_c, x_t) -> np.ndarray:
        """Slit envelope of each path pair, indexed [..., i, j] by path i of C and j of T."""
        separation = self.positions(0, x_c)[..., :, None] - self.positions(1, x_t)[..., None, :]
        return sinc(np.pi * separation / self.setup.l_coh)

    def relative_phase(self, arm: int, x_d):
        """Phase of an arm's second path minus its first at detector positions x_d.

        Affine in x_d, with p the arm's offsets and s = mask_quad_scale:
        s*omega*(p2^2 - p1^2)/(2*c*h) - omega*x_d*(p2 - p1)/(c*f) on a mask,
        -omega*((p2^2 - p1^2)/2 + x_d*(p2 - p1))/(z*c) behind tilted mirrors.
        """
        setup = self.setup
        p1, p2 = self.offsets[arm]
        if isinstance(setup, SetupMZ):
            curvature = -setup.omega / (2.0 * C_LIGHT * setup.z)
            tilt = -setup.omega / (C_LIGHT * setup.z)
        else:
            curvature = self.mask_quad_scale * setup.omega / (2.0 * C_LIGHT * setup.h)
            tilt = -setup.omega / (C_LIGHT * setup.f)
        return curvature * (p2 * p2 - p1 * p1) + tilt * (p2 - p1) * np.asarray(x_d, dtype=float)

    def amplitudes(self, arm: int, x_d) -> np.ndarray:
        """Weight times phasor of each path of an arm relative to its first path, shape (..., 2)."""
        second = np.exp(1j * self.relative_phase(arm, x_d))
        phasors = np.stack([np.ones_like(second), second], axis=-1)
        return self.coefficients[..., arm, :] * phasors


def path_table(
    setup: SetupBasic | SetupGate | SetupMZ,
    angles: GateAngles | None = None,
    mask_quad_scale: float = 1.0,
    open_paths=None,
) -> PathTable:
    """The path table of a setup at one preparation-analyzer setting.

    Polarized setups (SetupGate, SetupMZ) require angles and SetupBasic
    refuses them. The gate's weights are the plate-analyzer amplitudes of its
    fixed masks; the tilted-mirror variant negates the second path of each
    arm, because its polarizing splitter routes V through that path with a
    sign flip. open_paths, a nonempty subset of (1, 2), zeroes the weights of
    the other paths in both arms.
    """
    if isinstance(setup, (SetupGate, SetupMZ)):
        if angles is None:
            raise ValueError(
                f"{type(setup).__name__} is polarized: preparation and analyzer angles are required"
            )
        u1 = math.cos(angles.theta_c) * math.cos(angles.phi_c)
        u2 = math.sin(angles.theta_c) * math.sin(angles.phi_c)
        t1 = math.cos(angles.theta_t - angles.phi_t)
        t2 = math.sin(angles.theta_t + angles.phi_t)
        sign = -1.0 if isinstance(setup, SetupMZ) else 1.0
        coefficients = np.array([[u1, sign * u2], [t1, sign * t2]])
    elif angles is not None:
        raise ValueError("SetupBasic is unpolarized: angles must be None")
    else:
        coefficients = np.ones((2, 2))
    if open_paths is not None:
        open_paths = tuple(open_paths)
        if not open_paths or any(p not in (1, 2) for p in open_paths):
            raise ValueError(f"open_paths must be a nonempty subset of (1, 2), got {open_paths}")
        coefficients = coefficients * [p in open_paths for p in (1, 2)]
    return PathTable(setup, coefficients, mask_quad_scale)


def _envelope_power(envelopes: np.ndarray):
    return (np.abs(envelopes).sum(axis=(-2, -1)) / 2.0) ** 2


def pair_sum(envelopes: np.ndarray, amp_c: np.ndarray, amp_t: np.ndarray):
    """The pair-sum kernel |sum_ij conj(amp_c_i) amp_t_j env_ij|^2 / (sum_ij |env_ij| / 2)^2.

    Sums run over the path axes (the last two of envelopes, the last of the
    amplitudes) and broadcast over the rest. The normalization makes the
    two-path regime peak at 4 for unit weights (both matched envelopes near
    1, cross envelopes near 0) and keeps the value at 4 for a fully coherent
    configuration where all four envelopes reach 1 in phase. Where every
    envelope vanishes there is no correlation at all, and the value is 0.
    """
    total = (amp_c.conj()[..., :, None] * amp_t[..., None, :] * envelopes).sum(axis=(-2, -1))
    power = _envelope_power(envelopes)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(power > 0.0, np.abs(total) ** 2 / power, 0.0)


def envelope_power(setup: SetupBasic | SetupMZ, x_c, x_t):
    """Denominator (sum_ij |env_ij| / 2)^2 of the exact-mode correlation.

    A deterministic geometry factor: raw covariances divided by it estimate
    the same normalized quantity the closed forms report. x_c and x_t may be
    arrays. Constant for a pinhole mask; behind tilted mirrors it moves with
    the detectors.
    """
    return _envelope_power(PathTable(setup).envelopes(x_c, x_t))


@dataclass(frozen=True)
class PairContribution:
    """One path-pair term of the correlation sum.

    i indexes the arm-C pinhole (1 or 2), j the arm-T pinhole (1 or 2,
    meaning 1' or 2'). envelope is the slit factor normalized to peak 1,
    phase the propagation phase wrapped to (-pi, pi], and value the complex
    contribution envelope * exp(i*phase).
    """

    i: int
    j: int
    envelope: float
    phase: float
    value: complex = field(repr=False)


def g1_pair(setup: SetupBasic, i: int, j: int, x_c: float, x_t: float) -> PairContribution:
    """Contribution of the pinhole pair (i in arm C, j' in arm T).

    value = conj(b_phase(x_i, x_c)) * b_phase(x_j', x_t) * sinc envelope,
    with the envelope read off the path table and normalized so its peak is 1.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"pinhole indices must be 1 or 2, got i={i}, j={j}")
    table = PathTable(setup)
    envelope = float(table.envelopes(x_c, x_t)[i - 1, j - 1])
    offsets = table.offsets
    unit = complex(
        np.conj(b_phase(offsets[0, i - 1], x_c, setup)) * b_phase(offsets[1, j - 1], x_t, setup)
    )
    return PairContribution(
        i=i, j=j, envelope=envelope, phase=cmath.phase(unit), value=unit * envelope
    )


def phase_phi_basic(setup: SetupBasic, x_c, x_t):
    """Relative phase between the surviving pairs (2,2') and (1,1').

    phi = omega/(2*c*h) * (x1^2 + x2'^2 - x1'^2 - x2^2)
        + omega/(c*f) * (x_c*x2 - x_t*x2' - x_c*x1 + x_t*x1')

    Returned unwrapped; wrap only for display.
    """
    omega = setup.omega
    quad = (
        omega
        / (2.0 * C_LIGHT * setup.h)
        * (setup.x1**2 + setup.x2p**2 - setup.x1p**2 - setup.x2**2)
    )
    lin = (
        omega
        / (C_LIGHT * setup.f)
        * (x_c * setup.x2 - x_t * setup.x2p - x_c * setup.x1 + x_t * setup.x1p)
    )
    return quad + lin


def mz_phase(setup: SetupMZ, x_c, x_t):
    """Interference phase of the tilted-mirror gate.

    phi = (2*omega/(c*z)) * (zbar^2*(delta_c^2 - delta_t^2)
                             + zbar*(x_c*delta_c - x_t*delta_t))
    """
    zb = setup.zbar
    return (
        2.0
        * setup.omega
        / (C_LIGHT * setup.z)
        * (zb * zb * (setup.delta_c**2 - setup.delta_t**2)
           + zb * (x_c * setup.delta_c - x_t * setup.delta_t))
    )


def condition_margins(setup: SetupBasic | SetupMZ, x_c, x_t) -> dict:
    """Every regime margin of a setup at detector positions x_c, x_t (arrays allowed).

    Separations are in units of l_coh: within_* and cross_* between the
    pinholes of the matched and the crossed pairs, tilt_* the displacement
    2*zbar*delta of the tilted paths and detector_sep that of the detectors.
    phase is |phi| of a gate (SetupGate or SetupMZ) at the positions.
    """
    l = setup.l_coh
    if isinstance(setup, SetupMZ):
        zb2 = 2.0 * setup.zbar
        return {
            "tilt_c": abs(setup.delta_c) * zb2 / l,
            "tilt_t": abs(setup.delta_t) * zb2 / l,
            "tilt_diff": abs(setup.delta_c - setup.delta_t) * zb2 / l,
            "detector_sep": abs(x_c - x_t) / l,
            "phase": abs(mz_phase(setup, x_c, x_t)),
        }
    margins = {
        "within_11p": abs(setup.x1 - setup.x1p) / l,
        "within_22p": abs(setup.x2 - setup.x2p) / l,
        "cross_12p": abs(setup.x1 - setup.x2p) / l,
        "cross_21p": abs(setup.x2 - setup.x1p) / l,
    }
    if isinstance(setup, SetupGate):
        margins["phase"] = abs(phase_phi_basic(setup, x_c, x_t))
    return margins


def worst_margins(margins: dict) -> dict[str, float]:
    """Each margin at its worst over the positions, in CONDITIONS order.

    The worst is the largest value of a margin that fails above its
    threshold and the smallest of one that fails below.
    """
    worst = {}
    for key, (side, _, _) in CONDITIONS.items():
        if key in margins:
            values = np.asarray(margins[key], dtype=float)
            worst[key] = float(
                values.max(initial=-np.inf) if side == "above" else values.min(initial=np.inf)
            )
    return worst


@dataclass(frozen=True)
class Violation:
    """A margin past its CONDITIONS threshold, at its worst value; str() is the problem text."""

    key: str
    value: float

    def __str__(self) -> str:
        side, threshold, text = CONDITIONS[self.key]
        return text.format(key=self.key, value=self.value, side=side, threshold=threshold)


def violations(margins: dict) -> list[Violation]:
    """The margins of a condition_margins dict past their thresholds, in CONDITIONS order."""
    found = []
    for key, value in worst_margins(margins).items():
        side, threshold, _ = CONDITIONS[key]
        if value > threshold if side == "above" else value < threshold:
            found.append(Violation(key, value))
    return found


def closed_form(table: PathTable, x_c, x_t, mode: str = "exact"):
    """Closed-form correlation of a path table at detector positions x_c, x_t (arrays).

    'exact' is the pair sum over all four path pairs. 'asymptotic' keeps the
    matched pairs (1,1') and (2,2') of the same table at unit envelope:
    |w11 + w22*exp(i*phi)|^2 with phi the T arm's relative phase minus the C
    arm's. That phi is phase_phi_basic on a mask and -mz_phase behind tilted
    mirrors, and the weights are real, so this is p_controlled_u for the
    polarized setups and 2 + 2*cos(phi) for the plain mask. Asymptotic mode
    warns once per call for each violated regime margin but phase, with its
    worst value over the positions.
    """
    if mode == "exact":
        return pair_sum(
            table.envelopes(x_c, x_t), table.amplitudes(0, x_c), table.amplitudes(1, x_t)
        )
    if mode != "asymptotic":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    for problem in violations(condition_margins(table.setup, x_c, x_t)):
        if problem.key != "phase":
            warnings.warn(
                f"asymptotic two-path form may be inaccurate: {problem}",
                ConditionWarning,
                stacklevel=3,
            )
    phi = table.relative_phase(1, x_t) - table.relative_phase(0, x_c)
    weights = table.coefficients[..., 0, :] * table.coefficients[..., 1, :]
    return np.abs(weights[..., 0] + weights[..., 1] * np.exp(1j * phi)) ** 2


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


__all__ = [
    "CONDITIONS",
    "CorrelationPattern",
    "PairContribution",
    "PathTable",
    "Violation",
    "b_phase",
    "closed_form",
    "condition_margins",
    "envelope_power",
    "fringe_period_xc",
    "g1_pair",
    "mz_phase",
    "pair_sum",
    "path_table",
    "phase_phi_basic",
    "violations",
    "worst_margins",
]
