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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GateAngles, SetupGate, SetupMZ
from .analytic import PathTable, closed_form, envelope_power, mz_phase, path_table

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


def dn_corr_gate(
    setup: SetupGate | SetupMZ,
    angles: GateAngles,
    x_c: float,
    x_t: float,
    mode: str = "exact",
) -> float:
    """Normalized joint fluctuation correlation of the gate at one detector pair.

    The pinhole-mask gate (SetupGate) and the tilted-mirror gate (SetupMZ)
    share one path table: mode 'exact' sums the four path pairs, each
    weighted by its polarization coefficients and its envelope at the
    effective detector separation; 'asymptotic' returns the two-path
    probability p_controlled_u at the geometric or tilt phase.
    """
    return float(closed_form(path_table(setup, angles), x_c, x_t, mode))


# The tilted-mirror name of the same closed form.
dn_corr_mz = dn_corr_gate


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthTable:
    """Joint probabilities over the 4 input x 4 output basis combinations.

    Rows are the inputs and columns the outputs, both in BASIS_LABELS order.
    """

    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (4, 4):
            raise ValueError(f"truth table must have shape (4, 4), got {values.shape}")


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


def basis_table(setup: SetupGate | SetupMZ) -> PathTable:
    """Path table of the 16 basis settings, their weights stacked row-major over BASIS_LABELS."""
    weights = [path_table(setup, angles).coefficients for angles in basis_settings()]
    return PathTable(setup, np.array(weights))


__all__ = [
    "BASIS_ANGLES",
    "BASIS_LABELS",
    "TruthTable",
    "basis_angles",
    "basis_settings",
    "basis_table",
    "dn_corr_gate",
    "dn_corr_mz",
    "envelope_power",
    "ideal_cnot_table",
    "mz_phase",
    "p_cnot",
    "p_controlled_u",
]
