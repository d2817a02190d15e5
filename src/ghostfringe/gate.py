"""Polarization two-qubit gate built on the pair-correlation interference.

The control arm masks pinhole 1 with an H polarizer and pinhole 2 with a V
polarizer; the target arm leaves pinhole 1' unchanged and exchanges H and V at
pinhole 2'. Preparation plates rotate the common H input by phi_c / phi_t and
analyzers select theta_c / theta_t. In the two-path regime the joint detection
probability is

    P = |cos(phi_c) cos(theta_c) cos(phi_t - theta_t)
         + exp(i*phi) sin(phi_c) sin(theta_c) sin(phi_t + theta_t)|^2

which at phi = 0 is the CNOT truth table on the basis H = 0, V = 1 (analyzer
angles 0 and pi/2). The tilted-mirror variant realizes the same probability
with the interference phase controlled by the mirror tilts instead of the
pinhole layout.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import C_LIGHT, sinc
from .geometry import ConditionWarning, GateAngles, SetupGate, SetupMZ
from .analytic import (
    CROSS_RATIO_MIN,
    WITHIN_RATIO_MAX,
    four_pair_sum,
    g1_pair,
    phase_phi_basic,
    warn_pair_conditions,
)

_PAIRS = ((1, 1), (2, 2), (1, 2), (2, 1))

# Basis convention: H is logical 0 at angle 0, V is logical 1 at pi/2.
BASIS_ANGLES = {"H": 0.0, "V": math.pi / 2.0}
BASIS_LABELS = ("HH", "HV", "VH", "VV")


def p_controlled_u(angles, phi):
    """Joint detection probability of the controlled phase gate at phase phi.

    angles is a GateAngles or a (phi_c, phi_t, theta_c, theta_t) tuple whose
    entries may be numpy arrays; phi may be an array as well. Scalars in,
    scalar out.
    """
    if isinstance(angles, GateAngles):
        pc, pt, tc, tt = angles.phi_c, angles.phi_t, angles.theta_c, angles.theta_t
    else:
        pc, pt, tc, tt = angles
    amp_h = np.cos(pc) * np.cos(tc) * np.cos(np.subtract(pt, tt))
    amp_v = np.sin(pc) * np.sin(tc) * np.sin(np.add(pt, tt))
    value = np.abs(amp_h + np.exp(1j * np.asarray(phi)) * amp_v) ** 2
    if np.ndim(value) == 0:
        return float(value)
    return value


def p_cnot(angles: GateAngles) -> float:
    """Joint detection probability at phi = 0, the CNOT point."""
    return p_controlled_u(angles, 0.0)


def _arm_coefficients(angles: GateAngles) -> tuple[float, float, float, float]:
    u1 = math.cos(angles.theta_c) * math.cos(angles.phi_c)
    u2 = math.sin(angles.theta_c) * math.sin(angles.phi_c)
    t1 = math.cos(angles.theta_t - angles.phi_t)
    t2 = math.sin(angles.theta_t + angles.phi_t)
    return u1, u2, t1, t2


def gate_pair_coefficients(angles: GateAngles) -> dict[tuple[int, int], float]:
    """Polarization weight of each path pair for the pinhole-mask gate.

    All four weights are plain products: the mask holds passive projectors,
    so no pair picks up a sign.
    """
    u1, u2, t1, t2 = _arm_coefficients(angles)
    return {(1, 1): u1 * t1, (2, 2): u2 * t2, (1, 2): u1 * t2, (2, 1): u2 * t1}


def mz_pair_coefficients(angles: GateAngles) -> dict[tuple[int, int], float]:
    """Polarization weights for the tilted-mirror gate.

    The polarizing splitters send V through the second interferometer path
    with a sign flip in each arm, so the cross pairs enter negatively.
    """
    u1, u2, t1, t2 = _arm_coefficients(angles)
    return {(1, 1): u1 * t1, (2, 2): u2 * t2, (1, 2): -u1 * t2, (2, 1): -u2 * t1}


def dn_corr_gate(
    setup: SetupGate,
    angles: GateAngles,
    x_c: float,
    x_t: float,
    mode: str = "exact",
    mask_quad_scale: float = 1.0,
) -> float:
    """Normalized joint fluctuation correlation of the pinhole-mask gate.

    mode 'exact' weights the four pair contributions of the underlying
    geometry by the polarization coefficients; 'asymptotic' returns the
    two-path probability p_controlled_u at the geometric phase.
    """
    if mode == "asymptotic":
        warn_pair_conditions(setup)
        return float(p_controlled_u(angles, phase_phi_basic(setup, x_c, x_t, mask_quad_scale)))
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    coeffs = gate_pair_coefficients(angles)
    values: dict[tuple[int, int], complex] = {}
    envelopes: dict[tuple[int, int], float] = {}
    for ij in _PAIRS:
        pair = g1_pair(setup, ij[0], ij[1], x_c, x_t, mask_quad_scale)
        values[ij] = coeffs[ij] * pair.value
        envelopes[ij] = pair.envelope
    return four_pair_sum(values, envelopes)


def cnot_condition_margin(setup: SetupGate, x_c: float, x_t: float) -> float:
    """|phi| at the joint detection point; at most ~0.1 for a faithful CNOT."""
    return abs(phase_phi_basic(setup, x_c, x_t))


def mz_phase(setup: SetupMZ, x_c: float, x_t: float) -> float:
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


def mz_effective_positions(setup: SetupMZ, x_c: float, x_t: float) -> dict[str, tuple[float, float]]:
    """Per-path effective detector positions (tilted path first).

    The tilted mirror displaces the apparent detector by 2*zbar*delta.
    """
    zb2 = 2.0 * setup.zbar
    return {
        "C": (x_c + zb2 * setup.delta_c, x_c),
        "T": (x_t + zb2 * setup.delta_t, x_t),
    }


def mz_condition_margins(setup: SetupMZ, x_c: float, x_t: float) -> dict[str, float]:
    """Ratios measuring how well the two-path regime holds.

    tilt_c and tilt_t should be far above 1 (paths separated beyond l_coh),
    tilt_diff and detector_sep far below 1, and phase small in radians for
    the CNOT point.
    """
    l = setup.l_coh
    zb2 = 2.0 * setup.zbar
    return {
        "tilt_c": abs(setup.delta_c) * zb2 / l,
        "tilt_t": abs(setup.delta_t) * zb2 / l,
        "tilt_diff": abs(setup.delta_c - setup.delta_t) * zb2 / l,
        "detector_sep": abs(x_c - x_t) / l,
        "phase": abs(mz_phase(setup, x_c, x_t)),
    }


def check_mz_conditions(setup: SetupMZ, x_c: float, x_t: float) -> list[str]:
    """Return human-readable violations of the tilted-mirror two-path regime, if any."""
    margins = mz_condition_margins(setup, x_c, x_t)
    problems = []
    for key in ("tilt_c", "tilt_t"):
        if margins[key] < CROSS_RATIO_MIN:
            problems.append(f"{key} ratio {margins[key]:.3g} is below {CROSS_RATIO_MIN}")
    for key in ("tilt_diff", "detector_sep"):
        if margins[key] > WITHIN_RATIO_MAX:
            problems.append(f"{key} ratio {margins[key]:.3g} is above {WITHIN_RATIO_MAX}")
    return problems


def _warn_mz_conditions(setup: SetupMZ, x_c: float, x_t: float) -> None:
    for problem in check_mz_conditions(setup, x_c, x_t):
        warnings.warn(
            f"two-path form of the tilted-mirror gate may be inaccurate: {problem}",
            ConditionWarning,
            stacklevel=3,
        )


def mz_pair_envelopes(setup: SetupMZ, x_c: float, x_t: float) -> dict[tuple[int, int], float]:
    """Coherence envelope of each path pair at the effective detector positions.

    Unlike the pinhole mask, the tilted-mirror envelopes move with the
    detectors, so they vary along a scan.
    """
    positions = mz_effective_positions(setup, x_c, x_t)
    return {
        (i, j): float(
            sinc(math.pi * (positions["T"][j - 1] - positions["C"][i - 1]) / setup.l_coh)
        )
        for i, j in _PAIRS
    }


def envelope_power(setup, x_c: float, x_t: float, mask_quad_scale: float = 1.0) -> float:
    """Denominator (sum_ij |env_ij| / 2)^2 of the exact-mode correlation.

    A deterministic geometry factor: raw covariances divided by it estimate
    the same normalized quantity the closed forms report.
    """
    if isinstance(setup, SetupMZ):
        envelopes = mz_pair_envelopes(setup, x_c, x_t).values()
    else:
        envelopes = (
            g1_pair(setup, i, j, x_c, x_t, mask_quad_scale).envelope for i, j in _PAIRS
        )
    return (sum(abs(e) for e in envelopes) / 2.0) ** 2


def dn_corr_mz(
    setup: SetupMZ,
    angles: GateAngles,
    x_c: float,
    x_t: float,
    mode: str = "exact",
) -> float:
    """Normalized joint fluctuation correlation of the tilted-mirror gate.

    Exact mode sums the four path pairs with envelopes evaluated at the
    effective detector separations and phases exp(i*omega*(x_ci^2 - x_tj^2)
    / (2*z*c)); asymptotic mode is p_controlled_u at mz_phase.
    """
    if mode == "asymptotic":
        _warn_mz_conditions(setup, x_c, x_t)
        return float(p_controlled_u(angles, mz_phase(setup, x_c, x_t)))
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    positions = mz_effective_positions(setup, x_c, x_t)
    coeffs = mz_pair_coefficients(angles)
    envelopes = mz_pair_envelopes(setup, x_c, x_t)
    scale = setup.omega / (2.0 * setup.z * C_LIGHT)
    values: dict[tuple[int, int], complex] = {}
    for i, j in _PAIRS:
        xc_i = positions["C"][i - 1]
        xt_j = positions["T"][j - 1]
        phase = scale * (xc_i * xc_i - xt_j * xt_j)
        values[(i, j)] = coeffs[(i, j)] * envelopes[(i, j)] * cmath.exp(1j * phase)
    return four_pair_sum(values, envelopes)


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthTable:
    """Joint probabilities over the 4 input x 4 output basis combinations."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError("truth table shape does not match labels")


def basis_angles(label: str) -> tuple[float, float]:
    """Map a two-letter basis label like 'HV' to (control, target) angles."""
    return BASIS_ANGLES[label[0]], BASIS_ANGLES[label[1]]


def basis_settings() -> list[GateAngles]:
    """The 16 (input, output) basis settings, row-major over BASIS_LABELS.

    The input label sets the preparation angles (phi_c, phi_t), the output
    label the analyzer angles (theta_c, theta_t).
    """
    return [
        GateAngles(*basis_angles(input_label), *basis_angles(output_label))
        for input_label in BASIS_LABELS
        for output_label in BASIS_LABELS
    ]


def ideal_cnot_table() -> np.ndarray:
    """CNOT as a permutation: the control flips the target when V."""
    table = np.zeros((4, 4))
    for row, label in enumerate(BASIS_LABELS):
        control, target = label[0], label[1]
        flipped = target if control == "H" else ("V" if target == "H" else "H")
        table[row, BASIS_LABELS.index(control + flipped)] = 1.0
    return table


def cnot_truth_table(phi: float = 0.0) -> TruthTable:
    """Truth table of the two-path gate probability at interference phase phi."""
    values = [p_controlled_u(angles, phi) for angles in basis_settings()]
    return TruthTable(
        inputs=BASIS_LABELS, outputs=BASIS_LABELS, values=np.reshape(values, (4, 4))
    )


__all__ = [
    "BASIS_ANGLES",
    "BASIS_LABELS",
    "TruthTable",
    "basis_angles",
    "basis_settings",
    "check_mz_conditions",
    "cnot_condition_margin",
    "cnot_truth_table",
    "dn_corr_gate",
    "dn_corr_mz",
    "envelope_power",
    "gate_pair_coefficients",
    "ideal_cnot_table",
    "mz_condition_margins",
    "mz_effective_positions",
    "mz_pair_coefficients",
    "mz_pair_envelopes",
    "mz_phase",
    "p_cnot",
    "p_controlled_u",
]
