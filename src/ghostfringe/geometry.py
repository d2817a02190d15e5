"""Experiment geometries and preparation/analysis angles.

Three layouts share the same chaotic source, a uniform slit of half-width a:

* SetupBasic: source at distance z from a two-pinhole mask in each of the two
  split arms, converging optics of focal length f, one scanning detector per
  arm. Pinholes 1, 2 sit in the arm watched by detector C; pinholes 1', 2'
  (fields x1p, x2p) in the arm watched by detector T.
* SetupGate: same geometry with polarization optics on the pinholes. Placement
  is fixed: pinhole 1 carries an H polarizer, pinhole 2 a V polarizer,
  pinhole 1' passes polarization unchanged, pinhole 2' exchanges H and V.
* SetupMZ: each arm holds a polarizing interferometer at distance zbar from
  the detector; one mirror per interferometer is tilted by delta_c (control)
  or delta_t (target). No pinhole masks; detectors sit at distance z from
  the source.

All lengths in meters, tilts and angles in radians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import C_LIGHT


class ParaxialWarning(UserWarning):
    """Geometry strains the small-angle approximations the formulas rely on."""


class ConditionWarning(UserWarning):
    """An interference condition backing the asymptotic form is not met."""


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {name}={value}")


@dataclass(frozen=True)
class _Source:
    """The chaotic source: half-width a, center wavelength, seen from distance z."""

    a: float
    wavelength: float
    z: float

    def __post_init__(self) -> None:
        _require_positive("a", self.a)
        _require_positive("wavelength", self.wavelength)
        _require_positive("z", self.z)

    @property
    def omega(self) -> float:
        """Angular frequency 2*pi*c/wavelength (rad/s)."""
        return 2.0 * math.pi * C_LIGHT / self.wavelength

    @property
    def l_coh(self) -> float:
        """Transverse coherence length wavelength*z/(2a) at distance z from the source.

        That is the mask plane of a mask, the detector plane behind tilted mirrors.
        """
        return self.wavelength * self.z / (2.0 * self.a)


@dataclass(frozen=True)
class SetupBasic(_Source):
    """Two-pinhole-per-arm geometry.

    a: source half-width, wavelength: center wavelength, z: source-to-mask
    distance, f: focal length of the converging element behind each mask.
    x1, x2 are the pinhole positions in arm C; x1p, x2p in arm T.
    """

    f: float
    x1: float
    x2: float
    x1p: float
    x2p: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive("f", self.f)
        extent = max(abs(self.x1), abs(self.x2), abs(self.x1p), abs(self.x2p), self.a)
        if extent > self.z / 10.0:
            warnings.warn(
                f"transverse extent {extent:.3g} m exceeds z/10 = {self.z / 10.0:.3g} m; "
                "paraxial phase factors may be inaccurate",
                ParaxialWarning,
                stacklevel=3,
            )

    @property
    def h(self) -> float:
        """Reduced distance, 1/h = 1/z + 1/f."""
        return self.z * self.f / (self.z + self.f)


@dataclass(frozen=True)
class SetupGate(SetupBasic):
    """SetupBasic with the fixed polarization optics of the pinhole gate.

    Mask content is not configurable: (H at x1, V at x2) in arm C and
    (identity at x1p, exchange at x2p) in arm T.
    """


@dataclass(frozen=True)
class SetupMZ(_Source):
    """Tilted-mirror interferometer geometry.

    zbar is the interferometer-to-detector distance, delta_c / delta_t the
    mirror tilt angles in the control and target arms. z is the total
    source-to-detector distance.
    """

    zbar: float
    delta_c: float
    delta_t: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive("zbar", self.zbar)
        tilt = max(abs(self.delta_c), abs(self.delta_t))
        if tilt > 0.05:
            warnings.warn(
                f"mirror tilt {tilt:.3g} rad exceeds 0.05; the small-angle "
                "path-shift model degrades",
                ParaxialWarning,
                stacklevel=3,
            )


_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class GateAngles:
    """Preparation plate angles (phi_c, phi_t) and analyzer angles (theta_c, theta_t).

    Angles are reduced modulo 2*pi on construction. The computational basis
    maps H to logical 0 (angle 0) and V to logical 1 (angle pi/2).
    """

    phi_c: float
    phi_t: float
    theta_c: float
    theta_t: float

    def __post_init__(self) -> None:
        for name in ("phi_c", "phi_t", "theta_c", "theta_t"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value % _TAU)
