"""Numeric building blocks: the speed of light, sinc and the slit envelope.

All lengths are in meters, angles in radians. Constant prefactors that cancel in
normalized correlation patterns are dropped throughout the package.
"""

from __future__ import annotations

import numpy as np

# Exact SI value; angular frequency is always derived as 2*pi*C_LIGHT/wavelength.
C_LIGHT = 299792458.0


def sinc(x):
    """sin(x)/x with the removable singularity filled in.

    Uses the Taylor series 1 - x^2/6 + x^4/120 below |x| = 1e-4, where the
    direct quotient starts losing accuracy to cancellation.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    out = np.sin(x, out=np.empty_like(x))
    out /= np.where(small, 1.0, x)
    x2 = x[small] * x[small]
    out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return float(out) if out.ndim == 0 else out


def tophat_ft(a: float, dx: float, l_coh: float):
    """Fourier envelope of a uniform slit of half-width a: 2a * sinc(pi * dx / l_coh).

    dx is a transverse separation and l_coh the transverse coherence length;
    the envelope peaks at 2a for dx = 0 and has zeros at integer multiples
    of l_coh.
    """
    if a <= 0.0:
        raise ValueError(f"slit half-width a must be positive, got a={a}")
    if l_coh <= 0.0:
        raise ValueError(f"coherence length must be positive, got l_coh={l_coh}")
    return 2.0 * a * sinc(np.pi * np.asarray(dx, dtype=float) / l_coh)

