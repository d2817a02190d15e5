"""Polarization gate probabilities, truth tables, and the tilted-mirror variant."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostfringe.analytic import (
    PathTable,
    angle_table,
    closed_form,
    condition_margins,
    envelope_power,
    path_table,
    phase_phi_basic,
)
from ghostfringe.gate import (
    BASIS_LABELS,
    TruthTable,
    basis_angles,
    basis_table,
    dn_corr_gate,
    dn_corr_mz,
    ideal_cnot_table,
    mz_phase,
    p_cnot,
    p_controlled_u,
)
from ghostfringe.geometry import ConditionWarning, GateAngles, SetupGate, SetupMZ
from ghostfringe.patterns import evaluate_pattern, make_grid

angle = st.floats(min_value=0.0, max_value=2.0 * math.pi)
phase = st.floats(min_value=-10.0, max_value=10.0)
detector = st.floats(min_value=-1e-3, max_value=1e-3)

# The 16 (input, output) basis settings, row-major over BASIS_LABELS.
BASIS_SETTINGS = [
    GateAngles(*basis_angles(input_label), *basis_angles(output_label))
    for input_label in BASIS_LABELS
    for output_label in BASIS_LABELS
]


def gate_setup(ratio: float = 20.0) -> SetupGate:
    l_coh = 5e-4
    sep = ratio * l_coh
    return SetupGate(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=-sep / 2.0, x2=sep / 2.0, x1p=-sep / 2.0, x2p=sep / 2.0,
    )


def mz_setup(tilt_ratio: float = 10.0, zbar: float = 0.2) -> SetupMZ:
    # delta = ratio * l_coh / (2*zbar) puts the path separation at ratio*l_coh
    l_coh = 5e-4
    delta = tilt_ratio * l_coh / (2.0 * zbar)
    return SetupMZ(a=0.5e-3, wavelength=500e-9, z=1.0, zbar=zbar, delta_c=delta, delta_t=delta)


# ---------------------------------------------------------------------------
# Two-path gate probability
# ---------------------------------------------------------------------------


def test_p_controlled_u_known_values():
    assert p_controlled_u((0.0, 0.0, 0.0, 0.0), 1.7) == pytest.approx(1.0, abs=1e-12)
    hv_point = (math.pi / 2.0, 0.0, math.pi / 2.0, math.pi / 2.0)
    assert p_controlled_u(hv_point, 0.0) == pytest.approx(1.0, abs=1e-12)
    # only the H amplitude survives, with weight (1/2)^2 regardless of phi
    balanced = (math.pi / 4.0, 0.0, math.pi / 4.0, 0.0)
    assert p_controlled_u(balanced, math.pi) == pytest.approx(0.25, abs=1e-12)


def test_p_controlled_u_accepts_gate_angles_and_arrays():
    angles = GateAngles(phi_c=0.3, phi_t=0.4, theta_c=0.5, theta_t=0.6)
    scalar = p_controlled_u(angles, 1.0)
    assert isinstance(scalar, float)
    tuple_form = p_controlled_u((0.3, 0.4, 0.5, 0.6), 1.0)
    assert scalar == pytest.approx(tuple_form, rel=1e-15)
    phis = np.array([0.0, 1.0, 2.0])
    vector = p_controlled_u(angles, phis)
    assert vector.shape == (3,)
    assert vector[1] == pytest.approx(scalar, rel=1e-15)


def test_p_controlled_u_bounded_on_large_sample():
    rng = np.random.default_rng(7)
    n = 1_000_000
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(4, n))
    phis = rng.uniform(-math.pi, math.pi, size=n)
    values = p_controlled_u(tuple(angles), phis)
    assert values.min() >= -1e-12
    assert values.max() <= 1.0 + 1e-12


@given(angle, angle, angle, angle, phase)
@settings(max_examples=200)
def test_p_controlled_u_unit_interval(pc, pt, tc, tt, phi):
    value = p_controlled_u((pc, pt, tc, tt), phi)
    assert -1e-12 <= value <= 1.0 + 1e-12, f"probability {value} outside [0, 1]"


def test_p_cnot_basis_points():
    assert p_cnot(GateAngles(0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert p_cnot(GateAngles(math.pi / 2, math.pi / 2, math.pi / 2, 0.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert p_cnot(GateAngles(0.0, 0.0, math.pi / 2, 0.7)) == pytest.approx(0.0, abs=1e-12)


def test_gate_angles_reduced_and_validated():
    angles = GateAngles(2.0 * math.pi + 0.3, -0.1, 0.0, 0.0)
    assert angles.phi_c == pytest.approx(0.3, abs=1e-12)
    assert angles.phi_t == pytest.approx(2.0 * math.pi - 0.1, abs=1e-12)
    with pytest.raises(ValueError, match="finite"):
        GateAngles(math.nan, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


def test_basis_angles_mapping():
    assert basis_angles("HV") == (0.0, math.pi / 2.0)
    assert basis_angles("VH") == (math.pi / 2.0, 0.0)


# Basis angles, where the weights reach their zeros and signs, or anywhere.
setting_angle = st.sampled_from([0.0, math.pi / 2.0, math.pi]) | angle
gate_angles = st.builds(GateAngles, setting_angle, setting_angle, setting_angle, setting_angle)


def plate_analyzer_weights(setup, angle_settings) -> np.ndarray:
    """Each setting's path weights, written out; second paths change sign behind tilted mirrors."""
    sign = -1.0 if isinstance(setup, SetupMZ) else 1.0
    return np.array([
        [[math.cos(a.theta_c) * math.cos(a.phi_c),
          sign * (math.sin(a.theta_c) * math.sin(a.phi_c))],
         [math.cos(a.theta_t - a.phi_t), sign * math.sin(a.theta_t + a.phi_t)]]
        for a in angle_settings
    ])


def assert_same_bits(actual, expected):
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize("setup", [gate_setup(), mz_setup()], ids=["gate", "mz"])
@given(angle_settings=st.lists(gate_angles, min_size=1, max_size=8))
@example(angle_settings=BASIS_SETTINGS)
def test_basis_table_stacks_the_path_tables_of_the_basis_settings(setup, angle_settings):
    """angle_table stacks the written-out weights formula bit for bit, at any settings.

    path_table is its one-setting case and basis_table its basis-settings case.
    """
    expected = plate_analyzer_weights(setup, angle_settings)
    assert_same_bits(angle_table(setup, angle_settings).coefficients, expected)
    for angles, weights in zip(angle_settings, expected):
        assert_same_bits(path_table(setup, angles).coefficients, weights)
    basis_weights = plate_analyzer_weights(setup, BASIS_SETTINGS)
    assert_same_bits(basis_table(setup).coefficients, basis_weights)


def test_ideal_cnot_is_permutation():
    table = ideal_cnot_table()
    assert table.shape == (4, 4)
    assert np.array_equal(table.sum(axis=0), np.ones(4))
    assert np.array_equal(table.sum(axis=1), np.ones(4))
    # H control passes the target through, V control flips it
    labels = list(BASIS_LABELS)
    assert table[labels.index("HV"), labels.index("HV")] == 1.0
    assert table[labels.index("VH"), labels.index("VV")] == 1.0
    assert table[labels.index("VV"), labels.index("VH")] == 1.0


def test_cnot_truth_table_matches_ideal():
    values = closed_form(basis_table(gate_setup()), 0.0, 0.0, "asymptotic")
    assert np.max(np.abs(values.reshape(4, 4) - ideal_cnot_table())) < 1e-12


def test_truth_table_rows_are_normalized():
    values = np.reshape([p_controlled_u(angles, 0.9) for angles in BASIS_SETTINGS], (4, 4))
    assert np.allclose(values.sum(axis=1), 1.0, atol=1e-12)


def test_truth_table_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        TruthTable(values=np.zeros((3, 4)))


@pytest.mark.parametrize("phi_c", [0.0, math.pi / 2.0])
def test_basis_control_gives_rank_one_output_table(phi_c):
    """A basis-state control leaves the two analyzers statistically independent."""
    phi_t = 0.37
    table = np.zeros((2, 2))
    for row, theta_c in enumerate((0.0, math.pi / 2.0)):
        for col, theta_t in enumerate((0.0, math.pi / 2.0)):
            table[row, col] = p_controlled_u((phi_c, phi_t, theta_c, theta_t), 1.3)
    singular = np.linalg.svd(table, compute_uv=False)
    assert singular[1] < 1e-10, f"output table not rank one: {singular}"


# ---------------------------------------------------------------------------
# Pinhole-mask gate
# ---------------------------------------------------------------------------


def pair_weights(setup, angles):
    """Weight of each path pair (i, j): the product of its two path weights."""
    c = path_table(setup, angles).coefficients
    return {(i, j): c[0, i - 1] * c[1, j - 1] for i in (1, 2) for j in (1, 2)}


def test_gate_pair_coefficients_all_products():
    angles = GateAngles(0.3, 0.4, 0.2, 0.1)
    u1 = math.cos(0.2) * math.cos(0.3)
    u2 = math.sin(0.2) * math.sin(0.3)
    t1 = math.cos(0.1 - 0.4)
    t2 = math.sin(0.1 + 0.4)
    coeffs = pair_weights(gate_setup(), angles)
    assert coeffs[(1, 1)] == pytest.approx(u1 * t1, rel=1e-15)
    assert coeffs[(2, 2)] == pytest.approx(u2 * t2, rel=1e-15)
    assert coeffs[(1, 2)] == pytest.approx(u1 * t2, rel=1e-15)
    assert coeffs[(2, 1)] == pytest.approx(u2 * t1, rel=1e-15)


def test_mz_pair_coefficients_cross_signs():
    angles = GateAngles(0.3, 0.4, 0.2, 0.1)
    gate = pair_weights(gate_setup(), angles)
    mz = pair_weights(mz_setup(), angles)
    assert mz[(1, 1)] == gate[(1, 1)]
    assert mz[(2, 2)] == gate[(2, 2)]
    assert mz[(1, 2)] == -gate[(1, 2)]
    assert mz[(2, 1)] == -gate[(2, 1)]


@given(
    st.lists(st.floats(min_value=-15.0, max_value=15.0), min_size=4, max_size=4),
    st.floats(min_value=0.5, max_value=2.0),
    detector, detector, angle, angle, angle, angle,
)
@settings(max_examples=200)
def test_gate_asymptotic_is_probability_at_geometric_phase(pinholes, f, x_c, x_t, pc, pt, tc, tt):
    """Asymptotic mode, built from the path table, against p_controlled_u at phase_phi_basic.

    Pinholes within +-15 l_coh of the reference source (l_coh = 5e-4 m).
    """
    x1, x2, x1p, x2p = np.multiply(pinholes, 5e-4)
    setup = SetupGate(a=0.5e-3, wavelength=500e-9, z=1.0, f=f, x1=x1, x2=x2, x1p=x1p, x2p=x2p)
    angles = GateAngles(pc, pt, tc, tt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        value = dn_corr_gate(setup, angles, x_c, x_t, mode="asymptotic")
    assert value == pytest.approx(
        p_controlled_u(angles, phase_phi_basic(setup, x_c, x_t)), abs=1e-11
    )


@given(angle, angle, angle, angle)
@settings(max_examples=50, deadline=None)
def test_gate_exact_bounded(pc, pt, tc, tt):
    setup = gate_setup()
    value = dn_corr_gate(setup, GateAngles(pc, pt, tc, tt), 1e-5, -2e-5, mode="exact")
    assert 0.0 <= value <= 4.0 + 1e-9


def test_gate_exact_tracks_two_path_probability():
    setup = gate_setup(ratio=20.0)
    angles = GateAngles(math.pi / 4, math.pi / 4, math.pi / 4, math.pi / 4)
    period = setup.wavelength * setup.f / abs(setup.x1 - setup.x2)
    for k in range(9):
        x_c = k * period / 8.0
        exact = dn_corr_gate(setup, angles, x_c, 0.0, mode="exact")
        asymptotic = dn_corr_gate(setup, angles, x_c, 0.0, mode="asymptotic")
        assert abs(exact - asymptotic) < 0.01, f"deviation {abs(exact - asymptotic)} at {x_c}"


def test_gate_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        dn_corr_gate(gate_setup(), GateAngles(0, 0, 0, 0), 0.0, 0.0, mode="mc")


def test_cnot_condition_margin_unit_boundary():
    # x1p^2 - x1^2 = wavelength*h/pi makes the geometric phase exactly 1 rad
    setup = gate_setup()
    shifted = SetupGate(
        a=setup.a, wavelength=setup.wavelength, z=setup.z, f=setup.f,
        x1=setup.x1, x2=setup.x2,
        x1p=-math.sqrt(setup.x1**2 + setup.wavelength * setup.h / math.pi),
        x2p=setup.x2p,
    )
    assert condition_margins(shifted, 0.0, 0.0)["phase"] == pytest.approx(1.0, rel=1e-10)
    assert condition_margins(setup, 0.0, 0.0)["phase"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Tilted-mirror gate
# ---------------------------------------------------------------------------


def test_mz_phase_closed_form():
    setup = SetupMZ(a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=0.01, delta_t=0.02)
    zb = 0.2
    want = (
        2.0 * setup.omega / (299792458.0 * 1.0)
        * (zb**2 * (0.01**2 - 0.02**2) + zb * (1e-5 * 0.01 - 2e-5 * 0.02))
    )
    assert mz_phase(setup, 1e-5, 2e-5) == pytest.approx(want, rel=1e-12)


@given(
    st.floats(min_value=-2e-4, max_value=2e-4),
    st.floats(min_value=-2e-4, max_value=2e-4),
    st.floats(min_value=-0.04, max_value=0.04),
    st.floats(min_value=-0.04, max_value=0.04),
)
@settings(max_examples=200)
def test_mz_phase_equals_shifted_quadratic_difference(x_c, x_t, delta_c, delta_t):
    """The tilt phase is the paraxial quadratic evaluated at shifted positions."""
    setup = SetupMZ(
        a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=delta_c, delta_t=delta_t
    )
    scale = setup.omega / (2.0 * setup.z * 299792458.0)
    shift_c = x_c + 2.0 * setup.zbar * delta_c
    shift_t = x_t + 2.0 * setup.zbar * delta_t
    want = scale * (shift_c**2 - shift_t**2) - scale * (x_c**2 - x_t**2)
    got = mz_phase(setup, x_c, x_t)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mz_effective_positions_tilted_first():
    setup = mz_setup()
    table = PathTable(setup)
    positions_c = table.positions(0, 1e-5)
    positions_t = table.positions(1, -1e-5)
    assert positions_c[0] == pytest.approx(1e-5 + 2.0 * setup.zbar * setup.delta_c)
    assert positions_c[1] == 1e-5
    assert positions_t[0] == pytest.approx(-1e-5 + 2.0 * setup.zbar * setup.delta_t)
    assert positions_t[1] == -1e-5


def test_mz_condition_margins_reference_geometry():
    setup = mz_setup(tilt_ratio=10.0)
    margins = condition_margins(setup, 0.0, 0.0)
    assert margins["tilt_c"] == pytest.approx(10.0, rel=1e-12)
    assert margins["tilt_t"] == pytest.approx(10.0, rel=1e-12)
    assert margins["tilt_diff"] == pytest.approx(0.0, abs=1e-12)
    assert margins["detector_sep"] == 0.0
    assert margins["phase"] == pytest.approx(0.0, abs=1e-12)


def test_mz_asymptotic_warns_on_small_tilt():
    setup = mz_setup(tilt_ratio=2.0)
    with pytest.warns(ConditionWarning, match="tilt"):
        dn_corr_mz(setup, GateAngles(0, 0, 0, 0), 0.0, 0.0, mode="asymptotic")


def test_mz_asymptotic_warns_once_per_call_with_worst_margin():
    grid = make_grid("x_C", -1e-4, 1e-4, 2e-5)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        evaluate_pattern(mz_setup(), grid, "asymptotic", angles=GateAngles(0, 0, 0, 0))
    # |x_C| / l_coh exceeds 0.1 at six grid points; the scan's worst is 0.2.
    assert [str(r.message) for r in records if issubclass(r.category, ConditionWarning)] == [
        "asymptotic two-path form may be inaccurate: detector_sep ratio 0.2 is above 0.1"
    ]


@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=0.2, max_value=0.5),
    detector, detector, angle, angle, angle, angle,
)
@settings(max_examples=200)
def test_mz_asymptotic_is_probability_at_tilt_phase(
    tilt_c, tilt_t, zbar, x_c, x_t, pc, pt, tc, tt
):
    """Asymptotic mode, built from the path table, against p_controlled_u at mz_phase.

    Each tilted path is displaced by up to +-30 l_coh of the reference source.
    """
    l_coh = 5e-4
    setup = SetupMZ(
        a=0.5e-3, wavelength=500e-9, z=1.0, zbar=zbar,
        delta_c=tilt_c * l_coh / (2.0 * zbar), delta_t=tilt_t * l_coh / (2.0 * zbar),
    )
    angles = GateAngles(pc, pt, tc, tt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        value = dn_corr_mz(setup, angles, x_c, x_t, mode="asymptotic")
    assert value == pytest.approx(p_controlled_u(angles, mz_phase(setup, x_c, x_t)), abs=1e-11)


def test_mz_exact_truth_table_at_origin():
    """With paths split by exactly 10 l_coh the exact table is the CNOT one."""
    setup = mz_setup(tilt_ratio=10.0)
    ideal = ideal_cnot_table()
    for row, input_label in enumerate(BASIS_LABELS):
        phi_c, phi_t = basis_angles(input_label)
        for col, output_label in enumerate(BASIS_LABELS):
            theta_c, theta_t = basis_angles(output_label)
            angles = GateAngles(phi_c=phi_c, phi_t=phi_t, theta_c=theta_c, theta_t=theta_t)
            value = dn_corr_mz(setup, angles, 0.0, 0.0, mode="exact")
            assert value == pytest.approx(ideal[row, col], abs=1e-9)


def test_mz_exact_fringe_tracks_half_phase_cosine():
    setup = mz_setup(tilt_ratio=10.0)
    angles = GateAngles(math.pi / 4, math.pi / 4, math.pi / 4, math.pi / 4)
    for x_c in np.linspace(-1e-4, 1e-4, 21):
        exact = dn_corr_mz(setup, angles, x_c, 0.0, mode="exact")
        want = math.cos(mz_phase(setup, x_c, 0.0) / 2.0) ** 2
        assert exact == pytest.approx(want, abs=0.05)


def test_mz_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        dn_corr_mz(mz_setup(), GateAngles(0, 0, 0, 0), 0.0, 0.0, mode="both")


def test_mz_pair_envelopes_shift_with_detectors():
    table = PathTable(mz_setup())
    at_origin = table.envelopes(0.0, 0.0)
    moved = table.envelopes(3e-5, 0.0)
    assert at_origin[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert at_origin[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert abs(at_origin[0, 1]) < 1e-12
    assert moved[0, 0] != pytest.approx(1.0, abs=1e-6)


def test_envelope_power_constant_for_masks_variable_for_mirrors():
    gate = gate_setup()
    values = {envelope_power(gate, x, 0.0) for x in (0.0, 1e-5, 3e-5)}
    assert len({round(v, 15) for v in values}) == 1
    mz = mz_setup()
    assert envelope_power(mz, 0.0, 0.0) != pytest.approx(
        envelope_power(mz, 1e-4, 0.0), rel=1e-6
    )


# ---------------------------------------------------------------------------
# Per-path Jones oracle
# ---------------------------------------------------------------------------

# Path elements behind the preparation plates: the mask projectors and the 2'
# flip of the gate, and the polarizing-interferometer paths of the MZ variant.
_H, _V, _FLIP = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])


def _path_amplitude(splitter, element, phi, theta):
    """splitter * analyzer(theta) . element . plate(phi) . H along one path."""
    plate = np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]])
    return splitter * np.array([math.cos(theta), math.sin(theta)]) @ element @ plate[:, 0]


@pytest.mark.parametrize(
    "paths_c, paths_t, setup, factor",
    [
        ((_H, _V), (np.eye(2), _FLIP), gate_setup(), 0.5j),
        ((1j * _H, -1j * _V), (0.5j * np.eye(2), -0.5j * _FLIP), mz_setup(), 0.25j),
    ],
    ids=["gate", "mz"],
)
def test_jones_oracle_reproduces_pair_coefficients(paths_c, paths_t, setup, factor):
    """Per-path Jones products give the path table's pair weights, MZ cross signs included."""
    angles = GateAngles(0.3, 0.4, 0.2, 0.1)
    for (i, j), coeff in pair_weights(setup, angles).items():
        amp_c = _path_amplitude(1 / math.sqrt(2), paths_c[i - 1], angles.phi_c, angles.theta_c)
        amp_t = _path_amplitude(1j / math.sqrt(2), paths_t[j - 1], angles.phi_t, angles.theta_t)
        assert np.conj(amp_c) * amp_t == pytest.approx(factor * coeff, abs=1e-10), f"pair {(i, j)}"
