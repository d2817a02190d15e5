"""Stochastic-field ensemble estimator, the reference the closed forms are checked against.

The chaotic source is discretized into point emitters on a uniform grid across
the slit, each with an independent circular complex Gaussian amplitude, and
propagated with paraxial kernels; intensities are correlated across the two
arms over the ensemble. Every detector field is a weighted sum of source
legs, one per distinct point a path leaves the source region for: a pinhole
on a mask, a shifted detector position behind tilted mirrors. The ensemble
draws one amplitude per vector of an orthonormal basis of those legs
(_path_basis), which has exactly the emitter model's distribution.
Amplitudes come from the counter-based Philox generator keyed by
(seed, width): each takes two 53-bit uniforms, turned into a circular complex
Gaussian by the Box-Muller transform, so realization r always starts at
counter r * ceil(width / 2) and a whole block is one vectorized draw: any
partition of the ensemble into chunks draws identical amplitudes. The
Box-Muller phase exp(2*pi*i * u) takes no trigonometric call per draw: a
4096-entry table, built once at import, times short cos and sin polynomials
of the remainder (_unit_phase), within 2e-15 of numpy's complex exp. The
ensemble is walked once in chunks that ignore the batch edges, and each chunk
is split at those edges (_ensemble_moments). An intensity is a sum over pairs
of path amplitudes, |a . k|^2 = sum_ij conj(a_i) a_j conj(k_i) k_j, so a
basis of width w <= MAX_PAIR_WIDTH, as on every mask, reduces the ensemble on
those w * w pair features instead of forming a field per column.

Constant prefactors common to all paths of an arm are dropped; they cancel in
the normalized correlations this module reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import GateAngles, SetupBasic, SetupGate, SetupMZ
from .analytic import CorrelationPattern, PathTable, path_table
from .gate import TruthTable, basis_table, envelope_power

_UINT64_MASK = (1 << 64) - 1

# Smallest ensemble the estimators accept: fewer realizations leave the
# batch-means stderr meaningless, fewer emitters under-resolve the slit.
MIN_REALIZATIONS = 100
MIN_EMITTERS = 64

# Batches of the batch-means stderr, and the complex values (drawn amplitudes
# plus arm fields) one chunk of the ensemble may hold, which bounds its memory
# for any n_realizations.
N_BATCHES = 10
CHUNK_VALUES = 2**18

# Widest path basis whose ensemble reduces on pairs of amplitudes, whatever
# the number of columns: a mask has at most four legs. The pair reduction's
# Gram matrix grows as w**4 per realization and its coefficient matrix as
# w * w per column, so the wide bases behind tilted mirrors form their fields
# instead.
MAX_PAIR_WIDTH = 4

# exp(2*pi*i * (j + 1/2) / PHASE_TABLE_SIZE) for every table index j, so a
# phase is one entry times a rotation by at most pi / PHASE_TABLE_SIZE.
PHASE_TABLE_SIZE = 2**12
_PHASE_TABLE = np.exp(2j * math.pi * (np.arange(PHASE_TABLE_SIZE) + 0.5) / PHASE_TABLE_SIZE)
_PHASE_TABLE.flags.writeable = False


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

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"a must be positive, got a={self.a}")
        if self.n_emitters < 1:
            raise ValueError(f"n_emitters must be at least 1, got {self.n_emitters}")

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
    """Draw circular complex Gaussian amplitudes with mean photon number <|alpha|^2> = 1.

    Row `index` of the emitter-width stream: the generator is keyed by
    (seed, n_emitters) and the row starts at its own counter, so identical
    arguments give identical draws regardless of call order or interleaving.
    Ensemble passes draw in their path basis, a stream keyed by its own width.
    """
    if index < 0:
        raise ValueError(f"realization index must be nonnegative, got {index}")
    width = source.n_emitters
    amplitudes = _draw_amplitudes(_philox_stream(seed, width, index), 1, width)[0]
    return Realization(amplitudes=amplitudes, seed=seed, index=index, source=source)


# ---------------------------------------------------------------------------
# Propagation kernels
# ---------------------------------------------------------------------------


def _paraxial(wavelength: float, distance: float, x_from, x_to):
    """Paraxial propagator exp(i*k*(x_from - x_to)^2 / (2*distance)), k = 2*pi/wavelength."""
    k = 2.0 * math.pi / wavelength
    return np.exp(1j * k / (2.0 * distance) * (x_from - x_to) ** 2)


def _kernel_factors(source: SourceModel, table: PathTable, detectors):
    """Distinct source legs L and, per (arm, positions) entry, each column's (leg, value) pairs.

    A path leaves the source along a leg, the paraxial propagator over z from
    each emitter to a point: its pinhole on a mask, the shifted detector
    position x_d + offset behind tilted mirrors; a mask path then carries the
    pinhole -> detector propagator over f. Column m of an arm's propagation
    matrix K, whose product with emitter amplitudes is the arm field, sums
    weight times that factor times leg over the arm's two paths, so an entry
    is the leg indices and values of shape (columns, 2) with
    K[:, m] = L[:, leg[m]] @ value[m]. Weights with a leading settings axis
    (see basis_table) at one position give one column per setting.
    """
    setup = table.setup
    points, values = [], []
    for arm, positions in detectors:
        if arm not in ("C", "T"):
            raise ValueError(f"arm must be 'C' or 'T', got {arm!r}")
        index = ("C", "T").index(arm)
        xs = np.atleast_1d(np.asarray(positions, dtype=float))[:, None]
        offsets = table.offsets[index]
        if isinstance(setup, SetupMZ):
            point = xs + offsets
            factor = np.ones_like(point)
        else:
            point, factor = offsets, _paraxial(setup.wavelength, setup.f, offsets, xs)
        values.append(table.coefficients[..., index, :] * factor)
        points.append(np.broadcast_to(point, values[-1].shape).ravel())
    leg_points, inverse = np.unique(np.concatenate(points), return_inverse=True)
    legs = _paraxial(setup.wavelength, setup.z, source.positions[:, None], leg_points)
    indices = np.split(inverse, np.cumsum([p.size for p in points])[:-1])
    return legs, [(leg.reshape(value.shape), value) for leg, value in zip(indices, values)]


def _path_basis(source: SourceModel, table: PathTable, detectors):
    """Orthonormal basis Q of the paths' source legs and each entry's kernel in it.

    Every kernel column lies in the span of the distinct source legs L
    (_kernel_factors), so with L = QR, a @ K[:, m] equals
    (a @ Q) @ (R[:, leg[m]] @ value[m]), and a @ Q of i.i.d. circular
    Gaussian emitter amplitudes is again i.i.d. circular Gaussian with the
    same mean photon number: the ensemble draws a @ Q directly, one
    amplitude per column of Q. A mask has at most four legs, one per
    pinhole, whatever the weights or positions. Behind tilted mirrors the
    legs follow the detector positions; with more legs than emitters Q is
    square and unitary, which changes nothing in the distribution.
    """
    legs, entries = _kernel_factors(source, table, detectors)
    basis, triangle = np.linalg.qr(legs)
    return basis, [(triangle[:, leg] * value).sum(-1) for leg, value in entries]


def field_at_detector(realization: Realization, table: PathTable, arm: str, x_d: float) -> complex:
    """Scalar analyzer-projected field of a path table's arm at detector position x_d.

    The table (path_table) carries the setup and its weights at one setting;
    a path whose weights are zero is closed.
    """
    legs, ((leg, value),) = _kernel_factors(realization.source, table, [(arm, [x_d])])
    return complex(realization.amplitudes @ legs[:, leg[0]] @ value[0])


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


def _philox_stream(seed: int, width: int, start: int = 0) -> np.random.Generator:
    """The amplitude stream of (seed, width), positioned at realization start.

    The Philox generator is keyed by (seed mod 2**64, width), and every
    amplitude takes one half of a four-word Philox block, so row r starts at
    counter r * ceil(width / 2); an odd width leaves the second half of each
    row's last block unused. Rows are whole blocks, so drawing rows in order
    from one generator gives the same amplitudes as a generator per row.
    """
    key = np.array([seed & _UINT64_MASK, width], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=start * -(-width // 2)))


def _draw_amplitudes(generator: np.random.Generator, count: int, width: int) -> np.ndarray:
    """The next count rows of a _philox_stream of that width, width amplitudes per row.

    One Philox draw serves all rows. Each word gives the 53-bit uniform
    (word >> 11) * 2**-53, and each amplitude is sqrt(-log1p(-u1)) *
    exp(2*pi*i * u2) of two of them (Box-Muller), a circular complex
    Gaussian with unit mean photon number <|alpha|^2> = 1. The phase comes
    from the table and polynomials of _unit_phase, within 2e-15 of
    np.exp(2j * pi * u2).
    """
    blocks = -(-width // 2)
    uniforms = generator.random(4 * blocks * count).reshape(count, 2 * blocks, 2)[:, :width]
    radius = np.log1p(-uniforms[..., 0])
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    amplitudes = _unit_phase(uniforms[..., 1])
    amplitudes *= radius
    return amplitudes


def _unit_phase(u):
    """exp(2*pi*i * u) for uniforms u in [0, 1), from a table and two short polynomials.

    t = u * PHASE_TABLE_SIZE splits into the index j = floor(t) of the entry
    exp(2*pi*i * (j + 1/2) / PHASE_TABLE_SIZE) and the remainder angle
    x = 2*pi * (t - j - 1/2) / PHASE_TABLE_SIZE, |x| <= pi / 4096 < 7.7e-4,
    whose rotation cos x + i sin x is 1 - x^2/2 + x^4/24 + i (x - x^3/6) to
    within 2e-18. t, t - j and t - j - 1/2 are exact in binary floating
    point, so only rounding separates the result from np.exp(2j * pi * u):
    at most 1.03e-15 measured over 2 * 10**6 seeded uniforms and every table
    edge.
    """
    angle = u * PHASE_TABLE_SIZE
    index = angle.astype(np.intp)
    angle -= index
    angle -= 0.5
    angle *= 2.0 * math.pi / PHASE_TABLE_SIZE
    square = angle * angle
    cos = square * (1.0 / 24.0)
    cos -= 0.5
    cos *= square
    sin = square * (-1.0 / 6.0)
    sin += 1.0
    # Only each polynomial's last step writes to its strided half of phases:
    # strided passes are the slow ones.
    phases = np.empty(angle.shape, dtype=complex)
    np.add(cos, 1.0, out=phases.real)
    np.multiply(sin, angle, out=phases.imag)
    phases *= _PHASE_TABLE[index]
    return phases


def _pair_features(amplitudes, pairs, out):
    """Fill out[:, :w * w] with the w * w real quadratic features of each row of amplitudes a.

    Columns are |a_i|^2, then Re and Im of conj(a_i) * a_j for the pairs
    i < j, given as pairs = np.triu_indices(w, 1); _pair_coefficients gives
    their weights. Further columns of out are left as they are. Returns out.
    """
    width = amplitudes.shape[1]
    first, second = pairs
    # np.take gives row-major copies, which the products and the column
    # writes below walk much faster than the column-major result of
    # amplitudes[:, first].
    products = np.take(amplitudes, first, axis=1).conj()
    products *= np.take(amplitudes, second, axis=1)
    squares = amplitudes.real * amplitudes.real
    squares += amplitudes.imag * amplitudes.imag
    out[:, :width] = squares
    out[:, width:width + len(first)] = products.real
    out[:, width + len(first):width * width] = products.imag
    return out


def _pair_coefficients(kernel, pairs):
    """Real (w * w, M) matrix W with |a @ kernel|^2 = _pair_features(a, pairs) @ W.

    Rows are |k_i|^2, then 2 Re and -2 Im of conj(k_i) * k_j for the pairs
    i < j, one column per kernel column: |a . k|^2 = sum_ij conj(a_i) a_j
    conj(k_i) k_j, and the terms (i, j) and (j, i) of that sum are complex
    conjugates.
    """
    first, second = pairs
    cross = 2.0 * kernel[first].conj() * kernel[second]
    squares = kernel.real * kernel.real + kernel.imag * kernel.imag
    return np.vstack([squares, cross.real, -cross.imag])


def _ensemble_moments(source, seed, n_realizations, kernel_c, kernel_t):
    """One pass over the ensemble, shared by every estimator.

    kernel_c and kernel_t are (width, M) propagation matrices in the path
    basis of the setup (_path_basis): column m gives the C and T arm fields
    of the m-th detector pair or angle setting, and a realization draws one
    amplitude per row, once whatever M is. The realizations are walked from 0
    in chunks of CHUNK_VALUES // (width + 2 * M) rows, drawn in order from one
    keyed stream, so memory does not grow with n_realizations and one Philox
    generator serves the pass. Each chunk is split at the edges of the
    N_BATCHES batches into per-batch sums of I_C, I_T and I_C * I_T.

    Every intensity is a sum over pairs of path amplitudes,
    |a . k|^2 = sum_ij conj(a_i) a_j conj(k_i) k_j, so when the basis width w
    is at most MAX_PAIR_WIDTH, as on every mask, no arm field is formed
    whatever M is: each piece of a chunk adds P^T P to its batch, where P
    holds the w * w pair features V (_pair_features) and a last column of
    ones, so one product gives the Gram matrix V^T V and, in its last row,
    the feature sums s. The batch sums are then s @ W_C, s @ W_T and the
    column sums of W_C * (V^T V @ W_T) with the pair coefficients W
    (_pair_coefficients), at a cost per realization that does not grow with
    M. Wider bases, as behind tilted mirrors, form the fields whatever M is.
    Returns, per column, the mean C intensity, the intensity covariance and
    its batch-means stderr over N_BATCHES batches.
    """
    check_ensemble_size(n_realizations, source.n_emitters)
    kernel = np.hstack([kernel_c, kernel_t])
    width, columns = kernel.shape
    half = kernel_c.shape[1]
    rows = max(1, CHUNK_VALUES // (width + columns))
    edges = [n_realizations * b // N_BATCHES for b in range(N_BATCHES + 1)]
    pairs = np.triu_indices(width, 1) if width <= MAX_PAIR_WIDTH else None
    if pairs is not None:
        features = np.empty((min(rows, n_realizations), width * width + 1))
        features[:, -1] = 1.0
        grams = np.zeros((N_BATCHES, width * width + 1, width * width + 1))
    else:
        sums = np.zeros((N_BATCHES, 3, half))
    stream = _philox_stream(seed, width)
    for first in range(0, n_realizations, rows):
        count = min(rows, n_realizations - first)
        amplitudes = _draw_amplitudes(stream, count, width)
        if pairs is not None:
            values = _pair_features(amplitudes, pairs, features[:count])
        else:
            values = np.abs(amplitudes @ kernel)
            values *= values
        for batch in range(N_BATCHES):
            lo = max(edges[batch], first) - first
            hi = min(edges[batch + 1], first + count) - first
            if lo >= hi:
                continue
            part = values[lo:hi]
            if pairs is not None:
                grams[batch] += part.T @ part
            else:
                i_c, i_t = part[:, :half], part[:, half:]
                sums[batch, 0] += i_c.sum(axis=0)
                sums[batch, 1] += i_t.sum(axis=0)
                sums[batch, 2] += np.einsum("ij,ij->j", i_c, i_t)
    if pairs is not None:
        coefficients = _pair_coefficients(kernel, pairs)
        w_c, w_t = coefficients[:, :half], coefficients[:, half:]
        totals, gram = grams[:, -1, :-1], grams[:, :-1, :-1]
        sums = np.stack(
            [totals @ w_c, totals @ w_t, np.einsum("fm,bfm->bm", w_c, gram @ w_t)], axis=1
        )

    batch_means = sums / np.diff(edges)[:, None, None]
    batch_covs = batch_means[:, 2] - batch_means[:, 0] * batch_means[:, 1]
    stderr = batch_covs.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    mean_c, mean_t, mean_ct = sums.sum(axis=0) / n_realizations
    return mean_c, mean_ct - mean_c * mean_t, stderr


def _normalized_covariance(table: PathTable, grid, n_realizations, seed, n_emitters):
    """Each column's intensity covariance over the envelope power at its point, peak-normalized.

    The columns are the table's settings at each point of the (N, 2) grid of
    (x_c, x_t) pairs, all from one ensemble pass. The covariances are divided
    by the envelope power of the geometry at their point, the same
    denominator the closed forms use, then by the largest of them; the
    batch-means stderr takes both divisions. Pinhole masks have a constant
    envelope power, so only tilted-mirror results are reshaped by it.
    Returns (values, stderr).
    """
    source = SourceModel(a=table.setup.a, n_emitters=n_emitters)
    _, kernels = _path_basis(source, table, [("C", grid[:, 0]), ("T", grid[:, 1])])
    _, covariance, stderr = _ensemble_moments(source, seed, n_realizations, *kernels)
    weight = envelope_power(table.setup, grid[:, 0], grid[:, 1])
    weighted = covariance / weight
    scale = weighted.max()
    if scale <= 0.0:
        raise ValueError("ensemble estimate has no positive peak to normalize by")
    return weighted / scale, stderr / weight / scale


def estimate_dn_corr(
    setup: SetupBasic | SetupGate | SetupMZ,
    grid,
    n_realizations: int,
    seed: int,
    angles: GateAngles | None = None,
    n_emitters: int = 256,
) -> CorrelationPattern:
    """Ensemble estimate of the fluctuation correlation over a (N, 2) grid.

    The normalized covariance of the path table at every grid point
    (_normalized_covariance), clipped at zero, with its batch-means standard
    errors on the same scale. Identical arguments give bit-identical results.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2:
        raise ValueError(f"grid must have shape (N, 2), got {grid.shape}")
    values, stderr = _normalized_covariance(
        path_table(setup, angles), grid, n_realizations, seed, n_emitters
    )
    return CorrelationPattern(
        grid=grid, values=np.clip(values, 0.0, None), mode="monte-carlo", stderr=stderr
    )


def estimate_mean_intensity(
    setup,
    arm: str,
    detector_positions,
    n_realizations: int,
    seed: int,
    angles: GateAngles | None = None,
    n_emitters: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-detector mean intensity over a position scan, with its stderr.

    All positions share one ensemble pass (_ensemble_moments), with the arm's
    kernel as both C and T, so its covariance is the per-realization intensity
    variance; the stderr is sqrt(variance / n_realizations).
    """
    xs = np.atleast_1d(np.asarray(detector_positions, dtype=float))
    source = SourceModel(a=setup.a, n_emitters=n_emitters)
    _, (kernel,) = _path_basis(source, path_table(setup, angles), [(arm, xs)])
    mean, var, _ = _ensemble_moments(source, seed, n_realizations, kernel, kernel)
    stderr = np.sqrt(np.clip(var, 0.0, None) / n_realizations)
    return mean, stderr


def estimate_truth_table(
    setup: SetupGate | SetupMZ,
    x_c: float,
    x_t: float,
    n_realizations: int,
    seed: int,
    n_emitters: int = 256,
) -> TruthTable:
    """Monte-Carlo joint-probability table over the 16 basis combinations.

    The scan estimator's normalized covariance of the 16-setting basis table
    at the one point (x_c, x_t): the settings are kernel columns of one
    ensemble pass, so they share the same realizations and each realization
    is drawn once. The table is normalized by its largest entry: per-entry
    normalization would erase the scale the truth table is about.
    """
    values, stderr = _normalized_covariance(
        basis_table(setup), np.array([[x_c, x_t]], dtype=float), n_realizations, seed, n_emitters
    )
    return TruthTable(values=values.reshape(4, 4), stderr=stderr.reshape(4, 4))


def compare_patterns(analytic: CorrelationPattern, mc: CorrelationPattern) -> dict[str, float]:
    """Agreement metrics between a closed-form pattern and an ensemble estimate.

    Both patterns are brought to unit peak before comparison. Returns nrmse
    (rms difference in units of the peak), the Pearson correlation of the two
    curves, and the largest deviation in units of the ensemble stderr. A
    pattern with no positive peak (all zero) or a range of at most 1e-9 of
    its peak is flat: it has no shape to correlate, so pearson is NaN.
    """
    if not np.array_equal(analytic.grid, mc.grid):
        raise ValueError("patterns are on different grids")
    a = np.asarray(analytic.values, dtype=float)
    b = np.asarray(mc.values, dtype=float)
    a_peak = a.max()
    b_peak = b.max()
    flat = np.ptp(a) <= 1e-9 * a_peak or np.ptp(b) <= 1e-9 * b_peak
    a = a / a_peak if a_peak > 0 else a
    b = b / b_peak if b_peak > 0 else b
    diff = a - b
    nrmse = float(np.sqrt(np.mean(diff * diff)))
    pearson = math.nan if flat else float(np.corrcoef(a, b)[0, 1])
    if mc.stderr is None:
        max_sigma_dev = math.nan
    else:
        # stderr lives on the same scale as the values, so rescale alongside.
        stderr = np.asarray(mc.stderr, dtype=float)
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
    "MIN_EMITTERS",
    "MIN_REALIZATIONS",
    "Realization",
    "SourceModel",
    "check_ensemble_size",
    "compare_patterns",
    "estimate_dn_corr",
    "estimate_mean_intensity",
    "estimate_truth_table",
    "field_at_detector",
    "free_field",
    "sample_realization",
]
