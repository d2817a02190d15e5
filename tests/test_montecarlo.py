"""Stochastic-field ensemble estimator and its agreement with the closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostfringe import montecarlo
from ghostfringe.analytic import (
    CorrelationPattern, PathTable, angle_table, envelope_power, path_table,
)
from ghostfringe.geometry import GateAngles, SetupBasic, SetupGate, SetupMZ
from ghostfringe.montecarlo import (
    Realization,
    SourceModel,
    compare_patterns,
    estimate_dn_corr,
    estimate_mean_intensity,
    estimate_truth_table,
    free_field,
    sample_realization,
)
from ghostfringe.gate import (
    BASIS_LABELS, TruthTable, basis_angles, basis_table, ideal_cnot_table,
)
from ghostfringe.patterns import evaluate_pattern, make_grid


def basic_setup(ratio: float = 20.0) -> SetupBasic:
    l_coh = 5e-4
    sep = ratio * l_coh
    return SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=-sep / 2.0, x2=sep / 2.0, x1p=-sep / 2.0, x2p=sep / 2.0,
    )


def gate_setup() -> SetupGate:
    return SetupGate(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=-5e-3, x2=5e-3, x1p=-5e-3, x2p=5e-3,
    )


def mz_setup() -> SetupMZ:
    return SetupMZ(
        a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=0.0125, delta_t=0.0125
    )


QUARTER = math.pi / 4.0
QUARTER_ANGLES = GateAngles(QUARTER, QUARTER, QUARTER, QUARTER)

# The 16 (input, output) basis settings, row-major over BASIS_LABELS.
BASIS_SETTINGS = [
    GateAngles(*basis_angles(input_label), *basis_angles(output_label))
    for input_label in BASIS_LABELS
    for output_label in BASIS_LABELS
]


# ---------------------------------------------------------------------------
# Source model and realizations
# ---------------------------------------------------------------------------


def test_source_positions_centered_inside_slit():
    source = SourceModel(a=1e-3, n_emitters=4)
    step = 2e-3 / 4
    assert np.allclose(source.positions, [-1e-3 + step / 2 + k * step for k in range(4)])
    assert np.all(np.abs(source.positions) < 1e-3)
    assert source.positions.sum() == pytest.approx(0.0, abs=1e-18)


def test_source_positions_computed_once_and_read_only():
    source = SourceModel(a=1e-3, n_emitters=8)
    assert source.positions is source.positions
    with pytest.raises(ValueError, match="read-only"):
        source.positions[0] = 0.0


def test_source_validation():
    with pytest.raises(ValueError, match="a must be positive"):
        SourceModel(a=0.0)
    with pytest.raises(ValueError, match="n_emitters"):
        SourceModel(a=1e-3, n_emitters=0)


def test_realizations_are_reproducible_and_independent():
    source = SourceModel(a=1e-3, n_emitters=32)
    first = sample_realization(source, seed=42, index=7)
    again = sample_realization(source, seed=42, index=7)
    assert np.array_equal(first.amplitudes, again.amplitudes)
    other = sample_realization(source, seed=42, index=8)
    assert not np.array_equal(first.amplitudes, other.amplitudes)
    reseeded = sample_realization(source, seed=43, index=7)
    assert not np.array_equal(first.amplitudes, reseeded.amplitudes)


def test_realization_index_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_realization(SourceModel(a=1e-3), seed=0, index=-1)


PHASE_TABLE = np.exp(2j * math.pi * (np.arange(4096) + 0.5) / 4096)


def _philox_rows(seed, width, indices):
    """Oracle: a fresh Philox generator per realization at its own counter, then Box-Muller.

    Row r of a width-w stream holds the Philox blocks r * ceil(w / 2) + 1 ..,
    two words per amplitude: u1 sets the modulus sqrt(-log1p(-u1)) of unit
    mean photon number, u2 the phase. The phase
    exp(2 pi i u2) is the entry j = floor(4096 u2) of PHASE_TABLE, rotated by
    x = 2 pi (4096 u2 - j - 1/2) / 4096 through the cos and sin polynomials
    1 - x^2/2 + x^4/24 and x - x^3/6, in the module's Horner steps, so that
    it is equal to the bit.
    """
    blocks = -(-width // 2)
    key = np.array([seed % 2**64, width], dtype=np.uint64)
    rows = []
    for index in indices:
        words = np.random.Philox(key=key, counter=index * blocks).random_raw(4 * blocks)
        u = (words[: 2 * width] >> np.uint64(11)) / 2.0**53
        turn = u[1::2] * 4096
        j = np.floor(turn).astype(int)
        x = (turn - j - 0.5) * (2 * math.pi / 4096)
        cos = (x * x * (1 / 24) - 0.5) * (x * x) + 1.0
        sin = (x * x * (-1 / 6) + 1.0) * x
        phase = (cos + 1j * sin) * PHASE_TABLE[j]
        rows.append(phase * np.sqrt(-np.log1p(-u[0::2])))
    return np.array(rows)


def _pieces(seed, start, width, edges):
    """Rows start + lo .. start + hi - 1 of the keyed stream for consecutive edges, stacked.

    Each block is drawn from a stream of its own, positioned at its first row.
    """
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        stream = montecarlo._philox_stream(seed, width, start + lo)
        blocks.append(montecarlo._draw_amplitudes(stream, hi - lo, width))
    return np.concatenate(blocks)


def test_amplitude_block_matches_fresh_generator_per_realization():
    source = SourceModel(a=1e-3, n_emitters=48)
    seed, start, n = 19, 1000, 12
    expected = _philox_rows(seed, 48, range(start, start + n))
    for cuts in ([], [5], [1, 2, 11], list(range(1, n))):
        assert np.array_equal(_pieces(seed, start, 48, [0, *cuts, n]), expected), cuts
    for row in (0, 7, n - 1):
        realization = sample_realization(source, seed, start + row)
        assert np.array_equal(realization.amplitudes, expected[row])


@pytest.mark.parametrize("width", [1, 3, 4, 64])
def test_amplitude_block_is_partition_invariant(width):
    """Any split into blocks gives the same rows; odd widths leave half a Philox block unused."""
    seed, start, n = 2**40 + 3, 517, 23
    expected = _philox_rows(seed, width, range(start, start + n))
    whole = _pieces(seed, start, width, [0, n])
    assert whole.shape == (n, width)
    assert np.array_equal(whole, expected)
    rng = np.random.default_rng(width)
    for _ in range(5):
        cuts = sorted(rng.choice(np.arange(1, n), size=rng.integers(1, 8), replace=False))
        assert np.array_equal(_pieces(seed, start, width, [0, *cuts, n]), expected), cuts


def test_amplitude_block_keys_its_stream_by_width():
    """Each width is its own stream: a narrow block is not the head of a wide one."""
    narrow = _pieces(19, 1000, 3, [0, 12])
    assert np.array_equal(narrow, _philox_rows(19, 3, range(1000, 1012)))
    assert np.array_equal(_pieces(19, 1000, 3, [0, 4, 8, 12]), narrow)
    wide = _pieces(19, 1000, 48, [0, 12])
    assert not np.any(wide[:, :3] == narrow)


@pytest.mark.parametrize("width, chunks", [(3, [7, 5, 13]), (4, [5, 13, 7]), (256, [13, 7, 5])])
def test_stream_drawn_in_chunks_matches_keyed_blocks(width, chunks):
    """Rows are whole Philox blocks: one stream drawn chunk by chunk gives each keyed block."""
    stream = montecarlo._philox_stream(29, width)
    start = 0
    for count in chunks:
        drawn = montecarlo._draw_amplitudes(stream, count, width)
        assert np.array_equal(drawn, _pieces(29, start, width, [0, count]))
        start += count


def test_ensemble_pass_builds_one_philox_generator(monkeypatch):
    """An estimate on the ensemble-scan geometry draws its 20 chunks from one keyed generator."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    # The asymmetric arbitration mask, scanned over 81 points of 4 fringe periods.
    setup = SetupBasic(a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
                       x1=-5e-3, x2=5.5e-3, x1p=-4.8e-3, x2p=5.3e-3)
    step = 500e-9 / 10.5e-3 / 20.0
    grid = make_grid("x_C", 0.0, 80 * step, step, 0.0)
    estimate_dn_corr(setup, grid, n_realizations=20000, seed=0, n_emitters=256)
    assert len(built) == 1


def test_seed_keys_the_generator_by_its_uint64_pattern():
    """Keys at or above 2**63, such as negative seeds mod 2**64, stay exact."""
    source = SourceModel(a=1e-3, n_emitters=16)
    for seed in (-1, 2**63 + 5):
        expected = _philox_rows(seed & (2**64 - 1), 16, [3])[0]
        assert np.array_equal(sample_realization(source, seed, 3).amplitudes, expected)
    zero = sample_realization(source, 0, 3).amplitudes
    assert not np.array_equal(sample_realization(source, -1, 3).amplitudes, zero)


def test_unit_phase_is_complex_exp_to_rounding():
    """The table-and-polynomial phase is np.exp(2j pi u) to 2e-15, on the unit circle to 1e-15.

    Over seeded uniforms, both ends of [0, 1), every table edge j / 4096 and
    the double just below each edge, where the remainder angle is largest.
    """
    size = montecarlo.PHASE_TABLE_SIZE
    edges = np.arange(size) / size
    u = np.concatenate([
        np.random.default_rng(31).random(10**6),
        [0.0, 1.0 - 2.0**-53],
        edges,
        np.nextafter(edges[1:], 0.0),
    ])
    phases = montecarlo._unit_phase(u)
    assert np.abs(phases - np.exp(2j * np.pi * u)).max() <= 2e-15
    assert np.abs(np.abs(phases) - 1.0).max() <= 1e-15
    assert np.floor(u * size).max() == size - 1


def test_amplitude_moments():
    """<|alpha|^2> is the unit mean photon number, <alpha^2> vanishes and <|alpha|^4> = 2.

    Checked on the emitter-width stream of sample_realization and on an odd
    path-basis width, which leaves half of each row's last Philox block unused.
    """
    source = SourceModel(a=1e-3, n_emitters=64)
    emitters = np.concatenate(
        [sample_realization(source, seed=11, index=k).amplitudes for k in range(2000)]
    )
    path_basis = _pieces(11, 0, 3, [0, 40000]).ravel()
    for draws in (emitters, path_basis):
        mean_n = np.mean(np.abs(draws) ** 2)
        assert mean_n == pytest.approx(1.0, rel=0.01)
        second = np.mean(draws**2)
        sigma = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(second) < 3.0 * sigma, f"<alpha^2> = {second} not consistent with zero"
        fourth = np.abs(draws) ** 4
        sigma = fourth.std() / math.sqrt(draws.size)
        assert abs(fourth.mean() - 2.0) < 4.0 * sigma, f"<|alpha|^4> = {fourth.mean()}"


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_free_field_single_emitter_has_flat_intensity():
    source = SourceModel(a=1e-6, n_emitters=1)
    setup = basic_setup()
    realization = sample_realization(source, seed=3, index=0)
    intensities = {
        round(abs(free_field(realization, setup, x_d)) ** 2, 12)
        for x_d in (-1e-4, 0.0, 2e-4)
    }
    assert len(intensities) == 1


def test_free_field_kernel_is_cached_per_setup_source_and_position():
    setups = [
        basic_setup(),
        SetupBasic(
            a=0.5e-3, wavelength=700e-9, z=0.5, f=1.0,
            x1=-5e-3, x2=5e-3, x1p=-5e-3, x2p=5e-3,
        ),
    ]
    sources = [SourceModel(a=0.5e-3, n_emitters=64), SourceModel(a=0.25e-3, n_emitters=64)]
    positions = (0.0, 1e-5, -3e-4, 2.5e-4)
    montecarlo._free_kernel.cache_clear()
    for _ in range(2):  # the second pass is served from the cache
        for setup in setups:
            for source in sources:
                realization = sample_realization(source, seed=3, index=1)
                for x_d in positions:
                    kernel = montecarlo._paraxial(setup.wavelength, setup.z, source.positions, x_d)
                    expected = complex(realization.amplitudes @ kernel)
                    assert np.array_equal(free_field(realization, setup, x_d), expected)
    assert montecarlo._free_kernel.cache_info().hits == 16
    cached = montecarlo._free_kernel(setups[0].wavelength, setups[0].z, sources[0], 0.0)
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 0.0


def _basis_field(realization, table, arm, x_d):
    """The package's field of one arm at x_d: amplitudes @ Q @ kernel, both from _path_basis."""
    basis, (kernel,) = montecarlo._path_basis(realization.source, table, [(arm, [x_d])])
    return complex((realization.amplitudes @ basis @ kernel)[0])


def test_closing_a_pinhole_removes_its_position_dependence():
    source = SourceModel(a=0.5e-3, n_emitters=32)
    realization = sample_realization(source, seed=5, index=0)
    setup = basic_setup()
    moved = SetupBasic(
        a=setup.a, wavelength=setup.wavelength, z=setup.z, f=setup.f,
        x1=setup.x1, x2=setup.x2 + 1e-3, x1p=setup.x1p, x2p=setup.x2p,
    )
    only_first = np.ones((2, 2)) * [1, 0]
    assert _basis_field(realization, PathTable(setup, only_first), "C", 1e-5) == (
        _basis_field(realization, PathTable(moved, only_first), "C", 1e-5)
    )
    both = _basis_field(realization, path_table(setup), "C", 1e-5)
    assert both != _basis_field(realization, path_table(moved), "C", 1e-5)


def test_field_is_sum_of_single_path_fields():
    source = SourceModel(a=0.5e-3, n_emitters=32)
    realization = sample_realization(source, seed=9, index=1)
    setup = basic_setup()
    total = _basis_field(realization, path_table(setup), "T", -2e-5)
    first, second = (
        _basis_field(realization, PathTable(setup, np.ones((2, 2)) * mask), "T", -2e-5)
        for mask in ([1, 0], [0, 1])
    )
    assert total == pytest.approx(first + second, rel=1e-12)


def test_single_path_field_is_its_propagators():
    """A one-path table's field is the amplitudes times that path's paraxial propagators.

    The propagators exp(i*k*(from - to)^2 / (2*distance)) are written out
    here: a mask path goes emitter e -> pinhole p over z, then p -> detector
    x_d over f; behind tilted mirrors a path goes e -> x_d + 2*zbar*delta
    over z, delta = 0 on the straight path.
    """
    source = SourceModel(a=0.5e-3, n_emitters=32)
    realization = sample_realization(source, seed=3, index=2)
    a, e, x_d = realization.amplitudes, source.positions, 1.5e-5
    mask = SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=0.5,
        x1=-5e-3, x2=5.5e-3, x1p=-4.8e-3, x2p=5.3e-3,
    )
    mz = SetupMZ(a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=0.0125, delta_t=-0.01)
    k = 2.0 * math.pi / 500e-9
    for arm, pinholes, delta in (("C", (mask.x1, mask.x2), mz.delta_c),
                                 ("T", (mask.x1p, mask.x2p), mz.delta_t)):
        for path, (p, shift) in enumerate(zip(pinholes, (2.0 * mz.zbar * delta, 0.0))):
            one_path = np.eye(2)[[path, path]]
            field = _basis_field(realization, PathTable(mask, one_path), arm, x_d)
            want = a @ (np.exp(1j * k * (e - p) ** 2 / (2.0 * mask.z))
                        * np.exp(1j * k * (p - x_d) ** 2 / (2.0 * mask.f)))
            assert field == pytest.approx(want, rel=1e-12)
            field = _basis_field(realization, PathTable(mz, one_path), arm, x_d)
            want = a @ np.exp(1j * k * (e - x_d - shift) ** 2 / (2.0 * mz.z))
            assert field == pytest.approx(want, rel=1e-12)


def test_angles_required_for_polarized_setups_only():
    with pytest.raises(ValueError, match="required"):
        path_table(gate_setup())
    with pytest.raises(ValueError, match="unpolarized"):
        path_table(basic_setup(), QUARTER_ANGLES)
    with pytest.raises(ValueError, match="unpolarized"):
        angle_table(basic_setup(), [QUARTER_ANGLES])


def test_analyzer_projection_combines_hv_components():
    source = SourceModel(a=0.5e-3, n_emitters=16)
    realization = sample_realization(source, seed=4, index=0)
    setup = gate_setup()
    angles = GateAngles(0.3, 0.8, 0.55, 1.1)
    e_h, e_v = (
        _basis_field(
            realization, path_table(setup, GateAngles(angles.phi_c, angles.phi_t, theta, theta)),
            "C", 1e-5,
        )
        for theta in (0.0, math.pi / 2.0)
    )
    projected = _basis_field(realization, path_table(setup, angles), "C", 1e-5)
    want = math.cos(angles.theta_c) * e_h + math.sin(angles.theta_c) * e_v
    assert projected == pytest.approx(want, rel=1e-10)


def test_two_emitter_intensities_add_incoherently():
    """The ensemble mean intensity is the sum of the per-emitter intensities."""
    setup = basic_setup()
    source = SourceModel(a=0.5e-3, n_emitters=2)
    n = 4000
    intensities = np.empty(n)
    for k in range(n):
        realization = sample_realization(source, seed=21, index=k)
        intensities[k] = abs(free_field(realization, setup, 1e-5)) ** 2
    # each emitter kernel has unit modulus, so the incoherent sum is 2.0
    stderr = intensities.std() / math.sqrt(n)
    assert abs(intensities.mean() - 2.0) < 4.0 * stderr


def test_intensity_covariance_factorizes_into_field_correlation():
    """Chaotic statistics: cov(I_C, I_T) = |<E_C* E_T>|^2."""
    setup = basic_setup()
    source = SourceModel(a=0.5e-3, n_emitters=64)
    table = path_table(setup)
    kernel_c = _direct_kernel(source, table, "C", 0.0)[:, 0]
    kernel_t = _direct_kernel(source, table, "T", 1.2e-5)[:, 0]
    n = 3000
    e_c = np.empty(n, dtype=complex)
    e_t = np.empty(n, dtype=complex)
    for k in range(n):
        realization = sample_realization(source, seed=13, index=k)
        e_c[k] = realization.amplitudes @ kernel_c
        e_t[k] = realization.amplitudes @ kernel_t
    i_c = np.abs(e_c) ** 2
    i_t = np.abs(e_t) ** 2
    cov = np.mean(i_c * i_t) - i_c.mean() * i_t.mean()
    cross = np.abs(np.mean(e_c.conj() * e_t)) ** 2
    products = i_c * i_t
    sigma = products.std() / math.sqrt(n)
    assert abs(cov - cross) < 4.0 * sigma, f"cov {cov} vs |correlation|^2 {cross}"


def test_free_field_correlation_decays_on_coherence_scale():
    setup = basic_setup()
    source = SourceModel(a=0.5e-3, n_emitters=64)
    n = 3000
    l_coh = 5e-4
    at_zero = np.empty(n, dtype=complex)
    at_lcoh = np.empty(n, dtype=complex)
    for k in range(n):
        realization = sample_realization(source, seed=17, index=k)
        at_zero[k] = free_field(realization, setup, 0.0)
        at_lcoh[k] = free_field(realization, setup, l_coh)
    i_zero = np.abs(at_zero) ** 2
    i_lcoh = np.abs(at_lcoh) ** 2
    same = np.mean(i_zero * i_zero) - i_zero.mean() ** 2
    apart = np.mean(i_zero * i_lcoh) - i_zero.mean() * i_lcoh.mean()
    normalized = apart / same
    assert same > 0.0
    assert abs(normalized) < 0.05, f"correlation {normalized} survives a full l_coh"


# ---------------------------------------------------------------------------
# Ensemble estimators
# ---------------------------------------------------------------------------


def test_estimator_input_validation():
    grid = make_grid("x_C", 0.0, 1e-5, 1e-5)
    with pytest.raises(ValueError, match="n_realizations"):
        estimate_dn_corr(basic_setup(), grid, n_realizations=50, seed=0)
    with pytest.raises(ValueError, match="n_emitters"):
        estimate_dn_corr(basic_setup(), grid, n_realizations=200, seed=0, n_emitters=32)
    with pytest.raises(ValueError, match="shape"):
        estimate_dn_corr(basic_setup(), np.zeros(4), n_realizations=200, seed=0)
    with pytest.raises(ValueError, match="n_realizations"):
        estimate_mean_intensity(basic_setup(), "C", [0.0], n_realizations=50, seed=0)


def _raw_moments(table, grid, n_realizations, seed, n_emitters):
    """The covariances the estimators normalize, and their stderr, from one ensemble pass."""
    grid = np.asarray(grid, dtype=float)
    source = SourceModel(a=table.setup.a, n_emitters=n_emitters)
    _, kernels = montecarlo._path_basis(source, table, [("C", grid[:, 0]), ("T", grid[:, 1])])
    _, covariance, stderr = montecarlo._ensemble_moments(source, seed, n_realizations, *kernels)
    return covariance, stderr


def test_estimate_is_deterministic():
    setup = basic_setup()
    grid = make_grid("x_C", 0.0, 2e-5, 1e-5)
    first = estimate_dn_corr(setup, grid, n_realizations=300, seed=5, n_emitters=64)
    second = estimate_dn_corr(setup, grid, n_realizations=300, seed=5, n_emitters=64)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.stderr, second.stderr)
    first_raw = _raw_moments(path_table(setup), grid, 300, 5, 64)
    second_raw = _raw_moments(path_table(setup), grid, 300, 5, 64)
    assert np.array_equal(first_raw[1], second_raw[1])
    assert np.array_equal(first_raw[0], second_raw[0])


def test_estimate_has_positive_errors_and_peak_one():
    grid = make_grid("x_C", 0.0, 5e-5, 5e-6)
    estimate = estimate_dn_corr(basic_setup(), grid, n_realizations=500, seed=1, n_emitters=64)
    assert estimate.values.max() == pytest.approx(1.0)
    assert estimate.mode == "monte-carlo"
    assert np.all(estimate.stderr > 0.0)
    covariance, _ = _raw_moments(path_table(basic_setup()), grid, 500, 1, 64)
    scale = covariance.max()
    assert scale > 0.0
    np.testing.assert_allclose(estimate.values, np.clip(covariance / scale, 0.0, None), rtol=1e-12)


def test_stderr_shrinks_like_root_n():
    """Quadrupling the ensemble halves the raw errors, within 20%, on average over seeds.

    Each batch-means stderr has 9 degrees of freedom, so one seed's ratio
    scatters by about a quarter around 1/2; the mean of 16 seeds does not.
    """
    setup = basic_setup()
    grid = make_grid("x_C", 0.0, 5e-5, 1e-5)
    ratios = []
    for seed in range(16):
        _, small = _raw_moments(path_table(setup), grid, 2000, seed, 64)
        _, large = _raw_moments(path_table(setup), grid, 8000, seed, 64)
        ratios.append(np.mean(large) / np.mean(small))
    ratio = np.mean(ratios)
    assert 0.5 * 0.8 < ratio < 0.5 * 1.2, f"mean stderr ratio {ratio} not near 1/2"


def test_mean_intensity_nearly_uniform_despite_fringes():
    """First-order interference washes out; only correlations carry the fringe."""
    setup = basic_setup()
    period = setup.wavelength * setup.f / abs(setup.x1 - setup.x2)
    xs = np.linspace(0.0, period, 11)
    mean, stderr = estimate_mean_intensity(
        setup, "C", xs, n_realizations=5000, seed=8, n_emitters=64
    )
    visibility = (mean.max() - mean.min()) / (mean.max() + mean.min())
    assert visibility < 0.05, f"mean-intensity visibility {visibility} too high"
    assert np.all(stderr > 0.0)


def _ensemble_realizations(source, table, detectors, seed, n):
    """Oracle: realizations 0 .. n - 1 of an ensemble pass, as emitter amplitudes.

    Ensembles draw z in the path basis Q of their detectors, which stands for
    the emitter amplitudes z @ Q^H.
    """
    basis, _ = montecarlo._path_basis(source, table, detectors)
    z = _philox_rows(seed, basis.shape[1], range(n))
    return [
        Realization(amplitudes=row @ basis.conj().T, seed=seed, index=k, source=source)
        for k, row in enumerate(z)
    ]


@pytest.mark.parametrize("setup", [gate_setup(), mz_setup()], ids=["gate", "mz"])
def test_mean_intensity_matches_per_realization_loop(setup):
    """On the gate mask the pass reduces pair features; behind tilted mirrors it forms fields.

    The MZ arm's basis has 6 > MAX_PAIR_WIDTH legs at these 3 positions.
    """
    xs = np.array([0.0, 1e-5, 3e-5])
    n = 200
    mean, stderr = estimate_mean_intensity(
        setup, "T", xs, n_realizations=n, seed=6, angles=QUARTER_ANGLES, n_emitters=64
    )
    source = SourceModel(a=setup.a, n_emitters=64)
    table = path_table(setup, QUARTER_ANGLES)
    kernel = _direct_kernel(source, table, "T", xs)
    intensities = np.array([
        np.abs(r.amplitudes @ kernel) ** 2
        for r in _ensemble_realizations(source, table, [("T", xs)], 6, n)
    ])
    np.testing.assert_allclose(mean, intensities.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stderr, intensities.std(axis=0) / math.sqrt(n), rtol=1e-9)


@pytest.mark.parametrize(
    "setup, angles",
    [
        (basic_setup(), None),
        (gate_setup(), QUARTER_ANGLES),
        (mz_setup(), QUARTER_ANGLES),
    ],
    ids=["basic", "gate", "mz"],
)
def test_estimate_agrees_with_exact_pattern(setup, angles):
    if isinstance(setup, SetupMZ):
        grid = make_grid("x_C", -1e-4, 1e-4, 1e-5)
    else:
        period = setup.wavelength * setup.f / abs(setup.x1 - setup.x2)
        grid = make_grid("x_C", 0.0, period, period / 20.0)
    exact = evaluate_pattern(setup, grid, "exact", angles=angles)
    estimate = estimate_dn_corr(
        setup, grid, n_realizations=4000, seed=19, angles=angles, n_emitters=128
    )
    metrics = compare_patterns(exact, estimate)
    assert metrics["max_sigma_dev"] <= 4.0, f"{metrics}"
    assert metrics["pearson"] >= 0.99, f"{metrics}"
    assert metrics["nrmse"] <= 0.05, f"{metrics}"


def test_estimate_points_do_not_depend_on_grid_shape():
    setup = basic_setup()
    pair_grid = np.array([[0.0, 0.0], [1e-5, 0.0]])
    single_grid = np.array([[1e-5, 0.0]])
    pair, _ = _raw_moments(path_table(setup), pair_grid, 300, 2, 64)
    single, _ = _raw_moments(path_table(setup), single_grid, 300, 2, 64)
    assert pair[1] == pytest.approx(single[0], rel=1e-9)
    scan_grid = np.column_stack([np.linspace(-4e-5, 4e-5, 81), np.zeros(81)])
    scan_grid[50] = single_grid[0]
    scan, _ = _raw_moments(path_table(setup), scan_grid, 300, 2, 64)
    assert scan[50] == pytest.approx(single[0], rel=1e-9)


def test_estimators_return_the_closed_forms_types():
    setup, grid = basic_setup(), make_grid("x_C", 0.0, 2e-5, 1e-5)
    estimate = estimate_dn_corr(setup, grid, n_realizations=300, seed=4, n_emitters=64)
    assert isinstance(estimate, CorrelationPattern)
    assert estimate.mode == "monte-carlo"
    metrics = compare_patterns(evaluate_pattern(setup, grid, "exact"), estimate)
    assert set(metrics) == {"nrmse", "pearson", "max_sigma_dev"}
    table = estimate_truth_table(gate_setup(), 0.0, 0.0, n_realizations=300, seed=4, n_emitters=64)
    assert isinstance(table, TruthTable)
    assert table.stderr.shape == (4, 4)


def test_truth_table_is_the_scan_estimator_at_one_point():
    """Off axis behind tilted mirrors the envelope power is not 1; it is one factor for all 16 entries.

    The table is each setting's raw covariance over the largest of them, to
    within rounding, whatever that factor is.
    """
    setup, x_c, x_t, n = mz_setup(), 2e-4, -1e-4, 300
    assert abs(float(envelope_power(setup, x_c, x_t)) - 1.0) > 0.05
    table = estimate_truth_table(setup, x_c, x_t, n_realizations=n, seed=7, n_emitters=64)
    covariance, stderr = _raw_moments(basis_table(setup), [[x_c, x_t]], n, 7, 64)
    scale = covariance.max()
    np.testing.assert_allclose(table.values, covariance.reshape(4, 4) / scale, rtol=1e-15)
    np.testing.assert_allclose(table.stderr, stderr.reshape(4, 4) / scale, rtol=1e-15)


def test_estimators_refuse_a_table_without_positive_peak(monkeypatch):
    def negative(source, seed, n_realizations, kernel_c, kernel_t):
        columns = kernel_c.shape[1]
        return np.ones(columns), -np.ones(columns), np.ones(columns)

    monkeypatch.setattr(montecarlo, "_ensemble_moments", negative)
    grid = make_grid("x_C", 0.0, 2e-5, 1e-5)
    with pytest.raises(ValueError, match="no positive peak"):
        estimate_dn_corr(basic_setup(), grid, n_realizations=300, seed=0, n_emitters=64)
    with pytest.raises(ValueError, match="no positive peak"):
        estimate_truth_table(gate_setup(), 0.0, 0.0, n_realizations=300, seed=0, n_emitters=64)


def _pair_feature_calls(estimate):
    """Rows that _pair_features reduced while running estimate()."""
    rows = []
    original = montecarlo._pair_features

    def recording(amplitudes, pairs, out):
        rows.append(len(amplitudes))
        return original(amplitudes, pairs, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_pair_features", recording)
        result = estimate()
    return rows, result


def test_wide_mz_scan_forms_fields():
    """An MZ basis as wide as its 64 emitters forms fields, even with more columns than w * w."""
    xs = np.linspace(-1e-3, 1e-3, 2101)
    grid = np.column_stack([xs, -xs])
    assert 64 * 64 < 2 * len(grid)

    def estimate():
        return estimate_dn_corr(mz_setup(), grid, 100, seed=4, angles=QUARTER_ANGLES, n_emitters=64)

    rows, widths = _pair_feature_calls(lambda: _drawn_widths(estimate))
    assert widths == {64}
    assert rows == []


def test_truth_table_estimate_recovers_permutation_structure():
    table = estimate_truth_table(
        gate_setup(), 0.0, 0.0, n_realizations=1000, seed=23, n_emitters=64
    )
    assert table.values.max() == pytest.approx(1.0)
    assert table.stderr is not None
    ideal = ideal_cnot_table()
    for row in range(4):
        assert np.argmax(table.values[row]) == np.argmax(ideal[row]), (
            f"row {BASIS_LABELS[row]} peaks at the wrong output"
        )
        assert table.values[row, np.argmax(ideal[row])] > 0.8


def test_truth_table_draws_each_realization_once(monkeypatch):
    drawn, widths, position = [], set(), {}
    original_stream, original = montecarlo._philox_stream, montecarlo._draw_amplitudes

    def stream(seed, width, start=0):
        generator = original_stream(seed, width, start)
        position[generator] = start
        return generator

    def counting(generator, count, width):
        start = position[generator]
        drawn.extend(range(start, start + count))
        position[generator] = start + count
        widths.add(width)
        return original(generator, count, width)

    monkeypatch.setattr(montecarlo, "_philox_stream", stream)
    monkeypatch.setattr(montecarlo, "_draw_amplitudes", counting)
    for setup in (gate_setup(), mz_setup()):
        drawn.clear()
        widths.clear()
        estimate_truth_table(setup, 0.0, 0.0, n_realizations=200, seed=23, n_emitters=64)
        assert sorted(drawn) == list(range(200))
        # the gate's two arms share their two pinholes, the equal-tilt MZ's its two
        # shifted positions: two path amplitudes per realization
        assert widths == {2}


@pytest.mark.parametrize("setup", [gate_setup(), mz_setup()], ids=["gate", "mz"])
def test_truth_table_matches_per_setting_loop(setup):
    """Each entry is its own setting's covariance over the same draws, scaled by the table max.

    The reference loops over settings with the emitter-level kernels of
    _direct_kernel, as 16 single-setting passes would; estimate_dn_corr cannot
    serve here because it refuses a single point whose covariance is not positive.
    """
    n, n_batches = 300, montecarlo.N_BATCHES
    table = estimate_truth_table(setup, 0.0, 0.0, n_realizations=n, seed=31, n_emitters=64)
    source = SourceModel(a=setup.a, n_emitters=64)
    realizations = _ensemble_realizations(
        source, basis_table(setup), [("C", [0.0]), ("T", [0.0])], 31, n
    )
    amplitudes = np.array([r.amplitudes for r in realizations])
    raw, batch_err = [], []
    for angles in BASIS_SETTINGS:
        setting = path_table(setup, angles)
        i_c, i_t = (
            (np.abs(amplitudes @ _direct_kernel(source, setting, arm, 0.0)) ** 2)
            .reshape(n_batches, -1)
            for arm in ("C", "T")
        )
        raw.append(np.mean(i_c * i_t) - i_c.mean() * i_t.mean())
        batch_cov = (i_c * i_t).mean(axis=1) - i_c.mean(axis=1) * i_t.mean(axis=1)
        batch_err.append(batch_cov.std(ddof=1) / math.sqrt(n_batches))
    scale = max(raw)
    np.testing.assert_allclose(
        table.values, np.reshape(raw, (4, 4)) / scale, rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        table.stderr, np.reshape(batch_err, (4, 4)) / scale, rtol=0.0, atol=1e-12
    )


def test_truth_table_is_deterministic_across_threads(tmp_path, cli_at_blas_threads):
    """The gate's and the MZ's mc truth tables keep their bytes at 1 and at 2 BLAS threads.

    The ensemble of the benchmark's truth-table workload, each run in its
    own interpreter through the command line.
    """
    for kind, keys in (("gate", "f = 1.0\nx1 = -5e-3\nx2 = 5e-3\n"),
                       ("mz", "zbar = 0.2\ndelta_c = 0.0125\ndelta_t = 0.0125\n")):
        config = tmp_path / f"{kind}.ini"
        config.write_text(f"[setup]\nkind = {kind}\na = 0.5e-3\nlambda = 500e-9\nz = 1.0\n"
                          f"{keys}[mc]\nn_realizations = 5000\nseed = 3\n")
        args = ("truth-table", "--config", str(config), "--mode", "mc")
        one = cli_at_blas_threads(1, *args)
        assert list(one) == ["truth_table_mc.csv", "truth_table_mc_stderr.csv"], kind
        assert one == cli_at_blas_threads(2, *args), kind


# ---------------------------------------------------------------------------
# Path basis
# ---------------------------------------------------------------------------


pinhole = st.floats(min_value=-1e-2, max_value=1e-2)
angle = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@st.composite
def mask_cases(draw):
    kind = draw(st.sampled_from([SetupBasic, SetupGate]))
    x1, x2 = draw(pinhole), draw(pinhole)
    # primed pinholes anywhere, on an unprimed one, or a fraction of l_coh from it
    x1p = draw(st.one_of(pinhole, st.just(x1), st.floats(-5e-4, 5e-4).map(lambda d: x1 + d)))
    x2p = draw(st.one_of(pinhole, st.just(x2), st.floats(-5e-4, 5e-4).map(lambda d: x2 + d)))
    setup = kind(
        a=draw(st.floats(min_value=1e-4, max_value=1e-3)),
        wavelength=draw(st.floats(min_value=400e-9, max_value=700e-9)),
        z=draw(st.floats(min_value=0.5, max_value=2.0)), f=1.0,
        x1=x1, x2=x2, x1p=x1p, x2p=x2p,
    )
    angles = GateAngles(*draw(st.tuples(angle, angle, angle, angle))) if kind is SetupGate else None
    # both paths open, or one closed by zeroing its weights in both arms
    mask = draw(st.sampled_from([[1, 1], [1, 0], [0, 1]]))
    table = PathTable(setup, path_table(setup, angles).coefficients * mask)
    xs = draw(st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=1, max_size=6))
    return setup, angles, table, np.array(xs)


def _drawn_widths(estimate):
    """Widths the ensemble engine draws at while running estimate()."""
    widths = set()
    original = montecarlo._draw_amplitudes

    def recording(generator, count, width):
        widths.add(width)
        return original(generator, count, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_draw_amplitudes", recording)
        estimate()
    return widths


def _direct_kernel(source, table, arm, detector_positions):
    """Oracle: the arm's propagation matrix as a sum over paths of weight times path kernel.

    A mask path propagates emitter -> pinhole over z and pinhole -> detector
    over f; a tilted-mirror path emitter -> shifted detector position over z.
    """
    index = ("C", "T").index(arm)
    xs = np.atleast_1d(np.asarray(detector_positions, dtype=float))
    setup, xm = table.setup, source.positions
    out = 0.0
    for path, offset in enumerate(table.offsets[index]):
        if isinstance(setup, SetupMZ):
            kernel = montecarlo._paraxial(setup.wavelength, setup.z, xm[:, None], xs + offset)
        else:
            source_leg = montecarlo._paraxial(setup.wavelength, setup.z, xm, offset)
            detector_leg = montecarlo._paraxial(setup.wavelength, setup.f, offset, xs)
            kernel = source_leg[:, None] * detector_leg[None, :]
        out = out + table.coefficients[..., index, path] * kernel
    return out


def _check_path_basis(source, table, xs, n_legs):
    """Q is orthonormal, spans both arms' kernels, and has min(n_emitters, n_legs) columns."""
    detectors = [("C", xs), ("T", xs[::-1])]
    basis, kernels = montecarlo._path_basis(source, table, detectors)
    width = basis.shape[1]
    assert width == min(source.n_emitters, n_legs)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(width), rtol=0.0, atol=1e-12)
    for (arm, positions), projected in zip(detectors, kernels):
        kernel = _direct_kernel(source, table, arm, positions)
        np.testing.assert_allclose(
            basis @ (basis.conj().T @ kernel), kernel, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(basis @ projected, kernel, rtol=0.0, atol=1e-12)


@given(mask_cases())
@settings(max_examples=60, deadline=None)
def test_path_basis_spans_every_mask_kernel(case):
    setup, angles, table, xs = case
    source = SourceModel(a=setup.a, n_emitters=64)
    pinholes = {setup.x1, setup.x2, setup.x1p, setup.x2p}
    assert len(pinholes) <= 4
    _check_path_basis(source, table, xs, len(pinholes))
    # a single-arm pass draws one amplitude per pinhole of that arm
    widths = _drawn_widths(lambda: estimate_mean_intensity(
        setup, "C", xs, n_realizations=100, seed=0, angles=angles, n_emitters=64
    ))
    assert widths == {len({setup.x1, setup.x2})}


@st.composite
def mz_cases(draw):
    tilt = st.one_of(st.just(0.0), st.floats(min_value=-0.04, max_value=0.04))
    setup = SetupMZ(
        a=draw(st.floats(min_value=1e-4, max_value=1e-3)),
        wavelength=draw(st.floats(min_value=400e-9, max_value=700e-9)),
        z=draw(st.floats(min_value=0.5, max_value=2.0)),
        zbar=draw(st.floats(min_value=0.05, max_value=0.5)),
        delta_c=draw(tilt), delta_t=draw(tilt),
    )
    angles = GateAngles(*draw(st.tuples(angle, angle, angle, angle)))
    # short scans draw fewer amplitudes than emitters, long ones a square basis
    position = st.floats(min_value=-1e-3, max_value=1e-3)
    xs = draw(st.lists(st.one_of(position, st.just(0.0)), min_size=1, max_size=40))
    return setup, angles, np.array(xs)


@given(mz_cases())
@example((mz_setup(), QUARTER_ANGLES, np.linspace(-1e-3, 1e-3, 40)))  # 160 legs, 64 emitters
@settings(max_examples=40, deadline=None)
def test_path_basis_spans_every_mz_kernel(case):
    """Behind tilted mirrors the legs are the shifted detector positions x_d + offset."""
    setup, angles, xs = case
    source = SourceModel(a=setup.a, n_emitters=64)
    # the tilted path lands 2 * zbar * delta from the straight one
    legs_c = {x + shift for x in xs for shift in (2.0 * setup.zbar * setup.delta_c, 0.0)}
    legs_t = {x + shift for x in xs[::-1] for shift in (2.0 * setup.zbar * setup.delta_t, 0.0)}
    _check_path_basis(source, path_table(setup, angles), xs, len(legs_c | legs_t))
    widths = _drawn_widths(lambda: estimate_mean_intensity(
        setup, "C", xs, n_realizations=100, seed=0, angles=angles, n_emitters=64
    ))
    assert widths == {min(64, len(legs_c))}


def offset_mask() -> SetupBasic:
    """Primed pinholes a fraction of l_coh from the unprimed ones: four overlapping legs."""
    l_coh = 5e-4
    return SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=-5e-3, x2=5e-3, x1p=-5e-3 + 0.3 * l_coh, x2p=5e-3 + 0.5 * l_coh,
    )


@st.composite
def pair_cases(draw):
    """Path table and detectors of a mask scan, or of a gate or MZ truth table."""
    kind = draw(st.sampled_from(["mask scan", "gate table", "mz table"]))
    if kind == "mask scan":
        setup, _, table, xs = draw(mask_cases())
        return setup, table, [("C", xs), ("T", xs[::-1])]
    if kind == "gate table":
        setup = draw(mask_cases().filter(lambda case: isinstance(case[0], SetupGate)))[0]
    else:
        setup = draw(mz_cases())[0]
    position = st.floats(min_value=-1e-3, max_value=1e-3)
    x_c, x_t = draw(position), draw(position)
    return setup, basis_table(setup), [("C", [x_c]), ("T", [x_t])]


@given(
    pair_cases(),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=100, max_value=400),
    st.integers(min_value=1, max_value=60),
)
@example((gate_setup(), basis_table(gate_setup()), [("C", [0.0]), ("T", [0.0])]), 23, 200, 7)
@example((mz_setup(), basis_table(mz_setup()), [("C", [0.0]), ("T", [0.0])]), 23, 200, 7)
@settings(max_examples=60, deadline=None)
def test_pair_reduction_matches_field_intensities(case, seed, n_realizations, rows):
    """The pair-feature Gram gives the moments that |a @ K|^2 gives on the same rows.

    Both branches take chunks of the same few rows: batches larger than that
    are cut into slices, so each sums pieces of several chunks, and smaller
    ones share a chunk. MAX_PAIR_WIDTH = 0 sends the same kernels to the
    field branch.
    """
    setup, table, detectors = case
    source = SourceModel(a=setup.a, n_emitters=64)
    _, kernels = montecarlo._path_basis(source, table, detectors)
    width = kernels[0].shape[0]
    moments = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "PAIR_CHUNK_AMPLITUDES", rows * width)
        patch.setattr(montecarlo, "CHUNK_VALUES", rows * (width + 2 * kernels[0].shape[1]))
        calls, moments["pairs"] = _pair_feature_calls(
            lambda: montecarlo._ensemble_moments(source, seed, n_realizations, *kernels)
        )
        patch.setattr(montecarlo, "MAX_PAIR_WIDTH", 0)
        moments["fields"] = montecarlo._ensemble_moments(source, seed, n_realizations, *kernels)
    assert sum(calls) == n_realizations and max(calls) <= rows
    # a batch larger than the chunk starts with a full one
    assert max(calls) == rows or rows >= n_realizations // montecarlo.N_BATCHES + 1
    # the largest expected intensity, n * |k|^2 with n = 1, over both arms' columns
    peak = max((np.abs(kernel) ** 2).sum(axis=0).max() for kernel in kernels)
    for pairs, fields, scale in zip(moments["pairs"], moments["fields"], (peak, peak**2, peak**2)):
        np.testing.assert_allclose(pairs, fields, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "setup, angles, grid, pairs",
    [
        (offset_mask(), None, make_grid("x_C", -4e-5, 4e-5, 1e-6), True),
        (mz_setup(), QUARTER_ANGLES, make_grid("diagonal", -1e-4, 1e-4, 1e-5), False),
    ],
    ids=["pairs", "fields"],
)
def test_chunk_size_moves_moments_only_by_rounding(setup, angles, grid, pairs):
    """Batches cut into several chunks agree with the default walk to 1e-12.

    The draws do not depend on the chunks, only the order of the sums does.
    Repeated calls with one chunk size are bit-identical.
    """
    source = SourceModel(a=setup.a, n_emitters=64)
    _, kernels = montecarlo._path_basis(
        source, path_table(setup, angles), [("C", grid[:, 0]), ("T", grid[:, 1])]
    )
    calls, default = _pair_feature_calls(
        lambda: montecarlo._ensemble_moments(source, 9, 1000, *kernels)
    )
    assert bool(calls) == pairs
    again = montecarlo._ensemble_moments(source, 9, 1000, *kernels)
    assert all(np.array_equal(first, second) for first, second in zip(default, again))
    with pytest.MonkeyPatch.context() as patch:
        # 37 rows per chunk: each batch of 100 is cut into 37 + 37 + 26 rows
        patch.setattr(montecarlo, "PAIR_CHUNK_AMPLITUDES", 37 * kernels[0].shape[0])
        patch.setattr(montecarlo, "CHUNK_VALUES", 37 * (kernels[0].shape[0] + 2 * len(grid)))
        chunked = montecarlo._ensemble_moments(source, 9, 1000, *kernels)
    for first, second in zip(default, chunked):
        np.testing.assert_allclose(second, first, rtol=0.0, atol=1e-12 * np.abs(first).max())


def test_ensemble_memory_does_not_grow_with_realizations():
    """The ensemble is walked in chunks of fixed size, so peak memory is flat in n_realizations."""
    setup = basic_setup()
    grid = make_grid("x_C", 0.0, 2e-4, 1e-6)
    # a pair chunk draws PAIR_CHUNK_AMPLITUDES over the mask's two path amplitudes
    rows = montecarlo.PAIR_CHUNK_AMPLITUDES // 2
    peaks = []
    for n in (2 * montecarlo.N_BATCHES * rows, 8 * montecarlo.N_BATCHES * rows):
        tracemalloc.start()
        try:
            estimate_dn_corr(setup, grid, n_realizations=n, seed=0, n_emitters=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


@given(st.integers(min_value=100, max_value=5000), st.integers(min_value=1, max_value=1200))
def test_chunk_walk_cuts_at_batch_edges(n_realizations, rows):
    """Chunks of at most rows tile the ensemble in order, whole batches or slices of one."""
    edges = [n_realizations * b // montecarlo.N_BATCHES for b in range(montecarlo.N_BATCHES + 1)]
    chunks = list(montecarlo._chunk_walk(edges, rows))
    pieces = [piece for chunk in chunks for piece in chunk]
    assert [start for _, start, _ in pieces[1:]] == [stop for _, _, stop in pieces[:-1]]
    assert pieces[0][1] == 0 and pieces[-1][2] == n_realizations
    for chunk in chunks:
        assert chunk[-1][2] - chunk[0][1] <= rows
        for batch, start, stop in chunk:
            assert edges[batch] <= start < stop <= edges[batch + 1]
            if len(chunk) > 1 or edges[batch + 1] - edges[batch] <= rows:
                assert (start, stop) == (edges[batch], edges[batch + 1])


def test_long_mask_scan_draws_as_many_chunks_as_a_short_one():
    """Pair chunks are sized by the basis width alone, not by the number of columns."""
    calls = []
    for points in (81, 8001):
        grid = make_grid("x_C", 0.0, 4e-4, 4e-4 / (points - 1))
        rows, _ = _pair_feature_calls(
            lambda: estimate_dn_corr(offset_mask(), grid, 20000, seed=3, n_emitters=64)
        )
        assert sum(rows) == 20000
        calls.append(len(rows))
    assert calls[0] == calls[1], calls


@pytest.mark.parametrize("setup", [gate_setup(), mz_setup()], ids=["gate", "mz"])
def test_truth_table_keeps_its_bits_under_pair_budgets_that_fit_its_batches(setup):
    """Each batch is one piece whenever it fits in a chunk, so the Grams and the table are exact."""
    source = SourceModel(a=setup.a, n_emitters=64)
    basis, _ = montecarlo._path_basis(source, basis_table(setup), [("C", [0.0]), ("T", [0.0])])
    tables = []
    # 1000 realizations make batches of 100: chunks of 150 rows hold one each,
    # and the default chunk holds them all.
    for budget in (150 * basis.shape[1], montecarlo.PAIR_CHUNK_AMPLITUDES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "PAIR_CHUNK_AMPLITUDES", budget)
            rows, table = _pair_feature_calls(
                lambda: estimate_truth_table(setup, 0.0, 0.0, 1000, seed=5, n_emitters=64)
            )
        assert sum(rows) == 1000
        tables.append((table, len(rows)))
    (first, first_chunks), (second, second_chunks) = tables
    assert first_chunks > second_chunks
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.stderr, second.stderr)


@pytest.mark.parametrize(
    "setup, angles, grid",
    [
        (offset_mask(), None, make_grid("x_C", 0.0, 5e-5, 5e-6)),
        (mz_setup(), QUARTER_ANGLES, make_grid("x_C", -1e-4, 1e-4, 2e-5)),
    ],
    ids=["basic", "mz"],
)
def test_covariance_is_calibrated_against_noise_free_reference(setup, angles, grid):
    """Seed sweep against the discretized source's exact covariance |K_C^H K_T|^2.

    By the Gaussian moment theorem, each column's expected intensity
    covariance is exactly the reference, so the seed-averaged covariance
    must sit within 4 pooled standard errors of it everywhere, and the
    per-seed z-scores (t-distributed, 9 degrees of freedom: mean z^2 = 9/7)
    must have a mean square near 1.29.
    """
    source = SourceModel(a=setup.a, n_emitters=64)
    table = path_table(setup, angles)
    kernel_c = _direct_kernel(source, table, "C", grid[:, 0])
    kernel_t = _direct_kernel(source, table, "T", grid[:, 1])
    reference = np.abs((kernel_c.conj() * kernel_t).sum(axis=0)) ** 2
    _, projected = montecarlo._path_basis(source, table, [("C", grid[:, 0]), ("T", grid[:, 1])])
    covariances, stderrs = np.array([
        montecarlo._ensemble_moments(source, seed, 2000, *projected)[1:]
        for seed in range(40)
    ]).transpose(1, 0, 2)
    pooled_err = np.sqrt((stderrs**2).sum(axis=0)) / len(stderrs)
    pooled_z = (covariances.mean(axis=0) - reference) / pooled_err
    assert np.abs(pooled_z).max() <= 4.0, pooled_z
    mean_z2 = np.mean(((covariances - reference) / stderrs) ** 2)
    assert 0.5 <= mean_z2 <= 2.5, mean_z2


# ---------------------------------------------------------------------------
# Pattern comparison
# ---------------------------------------------------------------------------


def test_compare_identical_patterns():
    grid = make_grid("x_C", 0.0, 4e-5, 1e-5)
    values = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
    analytic = CorrelationPattern(grid=grid, values=values, mode="exact")
    mc = CorrelationPattern(
        grid=grid, values=values / 4.0, mode="monte-carlo", stderr=np.zeros(5)
    )
    metrics = compare_patterns(analytic, mc)
    assert metrics["nrmse"] == 0.0
    assert metrics["pearson"] == pytest.approx(1.0)
    assert metrics["max_sigma_dev"] == 0.0
    # A zero stderr under a nonzero deviation is infinitely many sigma away.
    shifted = CorrelationPattern(
        grid=grid, values=np.array([1.0, 2.0, 4.0, 2.0, 2.0]), mode="monte-carlo",
        stderr=np.zeros(5),
    )
    assert compare_patterns(analytic, shifted)["max_sigma_dev"] == math.inf


def test_compare_scale_invariance():
    grid = make_grid("x_C", 0.0, 2e-5, 1e-5)
    analytic = CorrelationPattern(grid=grid, values=np.array([4.0, 2.0, 0.5]), mode="exact")
    scaled = CorrelationPattern(
        grid=grid, values=np.array([1.0, 0.5, 0.125]), mode="monte-carlo"
    )
    metrics = compare_patterns(analytic, scaled)
    assert metrics["nrmse"] == pytest.approx(0.0, abs=1e-15)
    assert math.isnan(metrics["max_sigma_dev"])


def test_compare_flat_patterns_fall_back_cleanly():
    """A flat pattern has no shape to correlate: pearson is NaN, nrmse still counts."""
    grid = make_grid("diagonal", 0.0, 2e-5, 1e-5)

    def pattern(*values):
        return CorrelationPattern(grid=grid, values=np.array(values), mode="exact")

    flat, tilted = pattern(4.0, 4.0, 4.0), pattern(1.9, 2.0, 2.1)
    metrics = compare_patterns(flat, pattern(2.0, 2.0, 2.0))
    assert math.isnan(metrics["pearson"])
    assert metrics["nrmse"] == 0.0
    assert math.isnan(compare_patterns(flat, tilted)["pearson"])
    assert math.isnan(compare_patterns(tilted, flat)["pearson"])
    # Flat means a range of at most 1e-9 of the peak; values are nonnegative, so
    # an all-zero pattern is the only one with no positive peak, and it is flat.
    assert math.isnan(compare_patterns(pattern(4.0, 4.0 - 2e-9, 4.0), tilted)["pearson"])
    assert not math.isnan(compare_patterns(pattern(4.0, 4.0 - 8e-9, 4.0), tilted)["pearson"])
    assert math.isnan(compare_patterns(pattern(0.0, 0.0, 0.0), tilted)["pearson"])
    assert compare_patterns(tilted, tilted)["pearson"] == pytest.approx(1.0)


def test_compare_requires_matching_grids():
    a = CorrelationPattern(
        grid=make_grid("x_C", 0.0, 1e-5, 1e-5), values=np.ones(2), mode="exact"
    )
    b = CorrelationPattern(
        grid=make_grid("x_C", 0.0, 2e-5, 1e-5), values=np.ones(3), mode="monte-carlo"
    )
    with pytest.raises(ValueError, match="grids"):
        compare_patterns(a, b)
