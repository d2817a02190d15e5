"""Stochastic-field ensemble estimator, the reference the closed forms are checked against.

The chaotic source is discretized into point emitters on a uniform grid across
the slit, each with an independent circular complex Gaussian amplitude, and
propagated with paraxial kernels; intensities are correlated across the two
arms over the ensemble. Behind a pinhole mask every detector field combines
at most four path fields, one per pinhole, so mask ensembles draw one
amplitude per vector of an orthonormal basis of the pinhole source legs
(_path_basis), which has exactly the emitter model's distribution.
Tilted-mirror ensembles draw the emitter amplitudes themselves. Realizations
are keyed by (seed, realization index) through the counter-based Philox
generator, whose key and counter are its whole state: each batch builds one
generator and re-keys it to (seed, index) with a zero counter for every
realization, which gives exactly the numbers of a fresh per-realization
generator at bulk-draw speed. Any partition of the ensemble across batches or
threads therefore reproduces identical numbers.

Constant prefactors common to all paths of an arm are dropped; they cancel in
the normalized correlations this module reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import GateAngles, SetupBasic, SetupGate, SetupMZ
from .analytic import CorrelationPattern, PathTable, path_table
from .gate import BASIS_LABELS, TruthTable, basis_table, envelope_power

_UINT64_MASK = (1 << 64) - 1

THREADS_ENV_VAR = "GHOSTFRINGE_THREADS"

# Smallest ensemble the estimators accept: fewer realizations leave the
# batch-means stderr meaningless, fewer emitters under-resolve the slit.
MIN_REALIZATIONS = 100
MIN_EMITTERS = 64


def check_ensemble_size(n_realizations: int, n_emitters: int) -> None:
    """Raise ValueError unless the ensemble meets MIN_REALIZATIONS and MIN_EMITTERS."""
    if n_realizations < MIN_REALIZATIONS:
        raise ValueError(
            f"n_realizations must be at least {MIN_REALIZATIONS}, got {n_realizations}"
        )
    if n_emitters < MIN_EMITTERS:
        raise ValueError(f"n_emitters must be at least {MIN_EMITTERS}, got {n_emitters}")


@dataclass(frozen=True)
class SourceModel:
    """Discretized chaotic source: n_emitters points across the slit [-a, a].

    Emitters sit at cell midpoints, strictly inside the slit. The ensemble
    estimators require at least MIN_EMITTERS; single fields may be built on
    fewer for diagnostics.
    """

    a: float
    n_emitters: int = 256
    mean_photon_number: float = 1.0

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"a must be positive, got a={self.a}")
        if self.n_emitters < 1:
            raise ValueError(f"n_emitters must be at least 1, got {self.n_emitters}")
        if self.mean_photon_number <= 0.0:
            raise ValueError(
                f"mean_photon_number must be positive, got {self.mean_photon_number}"
            )

    @cached_property
    def positions(self) -> np.ndarray:
        """Emitter positions, computed once per source and read-only."""
        step = 2.0 * self.a / self.n_emitters
        positions = -self.a + step * (np.arange(self.n_emitters) + 0.5)
        positions.flags.writeable = False
        return positions


@dataclass(frozen=True)
class Realization:
    """One draw of emitter amplitudes, reproducible from (seed, index)."""

    amplitudes: np.ndarray
    seed: int
    index: int
    source: SourceModel


def sample_realization(source: SourceModel, seed: int, index: int) -> Realization:
    """Draw circular complex Gaussian amplitudes with <|alpha|^2> = mean_photon_number.

    A one-row block of the ensemble draw: the generator is keyed by
    (seed, index) with a zero counter, and emitters consume consecutive
    counter positions, so the amplitudes are row `index` of every
    tilted-mirror ensemble pass with this seed; a mask pass takes only the
    first few values, one per vector of its path basis. Identical arguments
    give identical draws regardless of call order or interleaving.
    """
    if index < 0:
        raise ValueError(f"realization index must be nonnegative, got {index}")
    amplitudes = _amplitude_block(source, seed, index, 1)[0]
    return Realization(amplitudes=amplitudes, seed=seed, index=index, source=source)


# ---------------------------------------------------------------------------
# Propagation kernels
# ---------------------------------------------------------------------------


def _paraxial(wavelength: float, distance: float, x_from, x_to):
    """Paraxial propagator exp(i*k*(x_from - x_to)^2 / (2*distance)), k = 2*pi/wavelength."""
    k = 2.0 * math.pi / wavelength
    return np.exp(1j * k / (2.0 * distance) * (x_from - x_to) ** 2)


def _kernel_matrix(
    source: SourceModel, table: PathTable, arm: str, detector_positions
) -> np.ndarray:
    """Propagation matrix K, the sum over the arm's paths of weight times per-path kernel.

    A mask path propagates emitter -> pinhole over z and pinhole -> detector
    over f; a tilted-mirror path propagates emitter -> shifted detector
    position over z. Multiplying emitter amplitudes by K gives the arm field
    at each detector position. Weights with a leading settings axis (see
    basis_table) at one detector position give one column per setting.
    """
    if arm not in ("C", "T"):
        raise ValueError(f"arm must be 'C' or 'T', got {arm!r}")
    index = ("C", "T").index(arm)
    xs = np.atleast_1d(np.asarray(detector_positions, dtype=float))
    setup = table.setup
    xm = source.positions
    out = 0.0
    for path, offset in enumerate(table.offsets[index]):
        if isinstance(setup, SetupMZ):
            kernel = _paraxial(setup.wavelength, setup.z, xm[:, None], xs[None, :] + offset)
        else:
            source_leg = _paraxial(setup.wavelength, setup.z, xm, offset)
            detector_leg = _paraxial(setup.wavelength, setup.f, offset, xs)
            kernel = source_leg[:, None] * detector_leg[None, :]
        out = out + table.coefficients[..., index, path] * kernel
    return out


def _path_basis(source: SourceModel, setup: SetupBasic | SetupMZ) -> np.ndarray | None:
    """Orthonormal basis of a mask's pinhole source legs; None behind tilted mirrors.

    Every mask kernel column is a sum over pinholes of weight times source
    leg times detector leg, so whatever the angles, open paths or detector
    positions, it lies in the span of the distinct source legs: at most four
    columns, one per pinhole. With Q the QR basis of those legs, a @ K equals
    (a @ Q) @ (Q^H K), and a @ Q of i.i.d. circular Gaussian emitter
    amplitudes is again i.i.d. circular Gaussian with the same mean photon
    number, so the ensemble draws a @ Q directly. Tilted-mirror kernels over a
    scan span the whole emitter space and keep the emitter basis.
    """
    if isinstance(setup, SetupMZ):
        return None
    pinholes = np.array(list(dict.fromkeys(PathTable(setup).offsets.ravel().tolist())))
    legs = _paraxial(setup.wavelength, setup.z, source.positions[:, None], pinholes[None, :])
    return np.linalg.qr(legs)[0]


def field_at_detector(
    realization: Realization,
    setup: SetupBasic | SetupGate | SetupMZ,
    arm: str,
    x_d: float,
    angles: GateAngles | None = None,
    open_paths=None,
) -> complex:
    """Scalar analyzer-projected field at detector position x_d.

    For polarized setups (SetupGate, SetupMZ) the GateAngles carry both the
    preparation plate and the analyzer for each arm and are required; for
    SetupBasic they must be omitted. open_paths restricts which of the two
    paths of the arm are open, e.g. (1,) to close the second pinhole.
    """
    table = path_table(setup, angles, open_paths=open_paths)
    kernel = _kernel_matrix(realization.source, table, arm, [x_d])
    return complex(realization.amplitudes @ kernel[:, 0])


def free_field(realization: Realization, setup, x_d: float) -> complex:
    """Field at x_d with all masks and interferometers removed.

    Plain paraxial propagation over the source-to-mask distance z of the
    setup; the baseline every structured geometry is compared against.
    """
    kernel = _free_kernel(setup.wavelength, setup.z, realization.source, float(x_d))
    return complex(realization.amplitudes @ kernel)


@lru_cache(maxsize=64)
def _free_kernel(wavelength: float, z: float, source: SourceModel, x_d: float) -> np.ndarray:
    """Free-space kernel from every emitter to x_d, built once per key and read-only.

    A free-field scan calls free_field once per realization and position, so
    the same few kernels are reused across the whole ensemble.
    """
    kernel = _paraxial(wavelength, z, source.positions, x_d)
    kernel.flags.writeable = False
    return kernel


# ---------------------------------------------------------------------------
# Ensemble estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte-Carlo correlation pattern, normalized to its maximum.

    raw_values and raw_stderr keep the unnormalized covariances; scale is the
    peak envelope-weighted covariance the pattern was divided by.
    """

    pattern: CorrelationPattern
    n_realizations: int
    raw_values: np.ndarray
    raw_stderr: np.ndarray
    scale: float

    @property
    def stderr(self) -> np.ndarray:
        return self.pattern.stderr


def _batch_sizes(n: int, n_batches: int) -> list[int]:
    base, rem = divmod(n, n_batches)
    return [base + (1 if b < rem else 0) for b in range(n_batches)]


def worker_count() -> int:
    """Ensemble worker threads from GHOSTFRINGE_THREADS; unset or empty means 1."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc


def _amplitude_block(
    source: SourceModel, seed: int, start: int, count: int, width: int | None = None
) -> np.ndarray:
    """Amplitudes of realizations start .. start + count - 1, width per row.

    One Philox generator serves the whole block. Before each row its state is
    reset to key (seed, index) with a zero counter and an empty buffer, the
    state of a freshly built generator, so row r holds exactly the first
    width complex draws of Generator(Philox(key=[seed, start + r])). The
    normals land in the float64 view of the row, which pairs consecutive
    draws as (real, imaginary). width defaults to one amplitude per emitter;
    the ensemble passes the width of its path basis.
    """
    block = np.empty((count, source.n_emitters if width is None else width), dtype=complex)
    draws = block.view(np.float64)
    bitgen = np.random.Philox(key=0)
    generator = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    key[0] = seed & _UINT64_MASK
    for row in range(count):
        key[1] = (start + row) & _UINT64_MASK
        bitgen.state = fresh
        generator.standard_normal(out=draws[row])
    draws *= math.sqrt(source.mean_photon_number / 2.0)
    return block


def _batch_moments(source, seed, start, count, kernel_c, kernel_t):
    amplitudes = _amplitude_block(source, seed, start, count, kernel_c.shape[0])
    e_c = amplitudes @ kernel_c
    e_t = amplitudes @ kernel_t
    i_c = e_c.real**2 + e_c.imag**2
    i_t = e_t.real**2 + e_t.imag**2
    return i_c.sum(axis=0), i_t.sum(axis=0), (i_c * i_t).sum(axis=0)


def _ensemble_moments(source, setup, seed, n_realizations, n_batches, kernel_c, kernel_t):
    """One pass over the ensemble, shared by every estimator.

    kernel_c and kernel_t are (n_emitters, M) propagation matrices of the
    setup: column m gives the C and T arm fields of the m-th detector pair or
    angle setting. Both are projected once onto the setup's path basis, so a
    realization draws one amplitude per basis column, once whatever M is.
    Returns, per column, the mean C intensity, the intensity covariance and
    its batch-means stderr.
    """
    check_ensemble_size(n_realizations, source.n_emitters)
    basis = _path_basis(source, setup)
    if basis is not None:
        kernel_c = basis.conj().T @ kernel_c
        kernel_t = basis.conj().T @ kernel_t
    sizes = _batch_sizes(n_realizations, n_batches)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    jobs = [
        (source, seed, int(start), int(count), kernel_c, kernel_t)
        for start, count in zip(starts, sizes)
        if count > 0
    ]
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda args: _batch_moments(*args), jobs))
    else:
        results = [_batch_moments(*job) for job in jobs]

    batch_covs = []
    total_ic = np.zeros(kernel_c.shape[1])
    total_it = np.zeros(kernel_c.shape[1])
    total_icit = np.zeros(kernel_c.shape[1])
    for (s_ic, s_it, s_icit), count in zip(results, [j[3] for j in jobs]):
        batch_covs.append(s_icit / count - (s_ic / count) * (s_it / count))
        total_ic += s_ic
        total_it += s_it
        total_icit += s_icit
    n = float(n_realizations)
    mean_c = total_ic / n
    covariance = total_icit / n - mean_c * (total_it / n)
    batch_covs = np.asarray(batch_covs)
    stderr = batch_covs.std(axis=0, ddof=1) / math.sqrt(batch_covs.shape[0])
    return mean_c, covariance, stderr


def estimate_dn_corr(
    setup: SetupBasic | SetupGate | SetupMZ,
    grid,
    n_realizations: int,
    seed: int,
    angles: GateAngles | None = None,
    n_emitters: int = 256,
    mean_photon_number: float = 1.0,
    n_batches: int = 10,
) -> EnsembleEstimate:
    """Ensemble estimate of the fluctuation correlation over a (N, 2) grid.

    Raw covariances are divided pointwise by the envelope power of the
    geometry, the same denominator the closed forms use, then the pattern is
    normalized to its maximum with batch-means standard errors (same scale).
    For pinhole-mask setups the envelope power is constant along any detector
    scan, so only tilted-mirror patterns are reshaped by it. Identical
    arguments give bit-identical results; the GHOSTFRINGE_THREADS environment
    variable caps worker threads without changing any value.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2:
        raise ValueError(f"grid must have shape (N, 2), got {grid.shape}")
    source = SourceModel(a=setup.a, n_emitters=n_emitters, mean_photon_number=mean_photon_number)
    table = path_table(setup, angles)
    kernel_c = _kernel_matrix(source, table, "C", grid[:, 0])
    kernel_t = _kernel_matrix(source, table, "T", grid[:, 1])
    _, covariance, stderr = _ensemble_moments(
        source, setup, seed, n_realizations, n_batches, kernel_c, kernel_t
    )
    weight = envelope_power(setup, grid[:, 0], grid[:, 1])
    weighted = covariance / weight
    weighted_err = stderr / weight
    scale = float(weighted.max())
    if scale <= 0.0:
        raise ValueError("estimated pattern has no positive peak to normalize by")
    pattern = CorrelationPattern(
        grid=grid,
        values=np.clip(weighted, 0.0, None) / scale,
        mode="monte-carlo",
        stderr=weighted_err / scale,
    )
    return EnsembleEstimate(
        pattern=pattern,
        n_realizations=n_realizations,
        raw_values=covariance,
        raw_stderr=stderr,
        scale=scale,
    )


def estimate_mean_intensity(
    setup,
    arm: str,
    detector_positions,
    n_realizations: int,
    seed: int,
    angles: GateAngles | None = None,
    n_emitters: int = 256,
    mean_photon_number: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-detector mean intensity over a position scan, with its stderr.

    All positions share one ensemble pass of the batch engine, with the arm's
    kernel on both sides so its covariance is the per-realization intensity
    variance; the stderr is sqrt(variance / n_realizations).
    """
    xs = np.atleast_1d(np.asarray(detector_positions, dtype=float))
    source = SourceModel(a=setup.a, n_emitters=n_emitters, mean_photon_number=mean_photon_number)
    kernel = _kernel_matrix(source, path_table(setup, angles), arm, xs)
    mean, var, _ = _ensemble_moments(source, setup, seed, n_realizations, 10, kernel, kernel)
    stderr = np.sqrt(np.clip(var, 0.0, None) / n_realizations)
    return mean, stderr


def estimate_truth_table(
    setup: SetupGate | SetupMZ,
    x_c: float,
    x_t: float,
    n_realizations: int,
    seed: int,
    n_emitters: int = 256,
    mean_photon_number: float = 1.0,
    n_batches: int = 10,
) -> TruthTable:
    """Monte-Carlo joint-probability table over the 16 basis combinations.

    The 16 settings are kernel columns of one ensemble pass, so they share
    the same realizations and each realization is drawn once. The table is
    normalized by its largest raw entry: per-entry normalization would erase
    the scale the truth table is about.
    """
    source = SourceModel(a=setup.a, n_emitters=n_emitters, mean_photon_number=mean_photon_number)
    table = basis_table(setup)
    kernel_c = _kernel_matrix(source, table, "C", [x_c])
    kernel_t = _kernel_matrix(source, table, "T", [x_t])
    _, covariance, stderr = _ensemble_moments(
        source, setup, seed, n_realizations, n_batches, kernel_c, kernel_t
    )
    scale = covariance.max()
    if scale <= 0.0:
        raise ValueError("truth table has no positive entry to normalize by")
    return TruthTable(
        inputs=BASIS_LABELS,
        outputs=BASIS_LABELS,
        values=covariance.reshape(4, 4) / scale,
        stderr=stderr.reshape(4, 4) / scale,
    )


def compare_patterns(analytic: CorrelationPattern, mc) -> dict[str, float]:
    """Agreement metrics between a closed-form pattern and an ensemble estimate.

    Both patterns are brought to unit peak before comparison. Returns nrmse
    (rms difference in units of the peak), the Pearson correlation of the two
    curves, and the largest deviation in units of the ensemble stderr.
    """
    mc_pattern = mc.pattern if isinstance(mc, EnsembleEstimate) else mc
    if not np.array_equal(analytic.grid, mc_pattern.grid):
        raise ValueError("patterns are on different grids")
    a = np.asarray(analytic.values, dtype=float)
    b = np.asarray(mc_pattern.values, dtype=float)
    a_peak = a.max()
    b_peak = b.max()
    a = a / a_peak if a_peak > 0 else a
    b = b / b_peak if b_peak > 0 else b
    diff = a - b
    nrmse = float(np.sqrt(np.mean(diff * diff)))
    if a.std() == 0.0 or b.std() == 0.0:
        pearson = 1.0 if np.allclose(a, b) else 0.0
    else:
        pearson = float(np.corrcoef(a, b)[0, 1])
    if mc_pattern.stderr is None:
        max_sigma_dev = math.nan
    else:
        # stderr lives on the same scale as the values, so rescale alongside.
        stderr = np.asarray(mc_pattern.stderr, dtype=float)
        if b_peak > 0:
            stderr = stderr / b_peak
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(
                stderr > 0.0,
                np.abs(diff) / np.where(stderr > 0.0, stderr, 1.0),
                np.where(np.abs(diff) > 0.0, np.inf, 0.0),
            )
        max_sigma_dev = float(ratios.max())
    return {"nrmse": nrmse, "pearson": pearson, "max_sigma_dev": max_sigma_dev}


__all__ = [
    "EnsembleEstimate",
    "MIN_EMITTERS",
    "MIN_REALIZATIONS",
    "Realization",
    "SourceModel",
    "THREADS_ENV_VAR",
    "check_ensemble_size",
    "compare_patterns",
    "estimate_dn_corr",
    "estimate_mean_intensity",
    "estimate_truth_table",
    "field_at_detector",
    "free_field",
    "sample_realization",
    "worker_count",
]
