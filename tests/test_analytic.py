"""Closed forms: the path table, its pair-sum kernel and the two-pinhole geometry."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostfringe.analytic import (
    CorrelationPattern,
    PathTable,
    b_phase,
    closed_form,
    condition_margins,
    fringe_period_xc,
    g1_pair,
    pair_sum,
    phase_phi_basic,
    violations,
)
from ghostfringe import analytic, gate, patterns
from ghostfringe.core import C_LIGHT, sinc
from ghostfringe.geometry import (
    ConditionWarning,
    GateAngles,
    ParaxialWarning,
    SetupBasic,
    SetupGate,
    SetupMZ,
)
from ghostfringe.patterns import evaluate_pattern, make_grid


def two_path_setup(ratio: float = 20.0, offset: float = 0.0) -> SetupBasic:
    """Geometry with cross separations at `ratio` coherence lengths.

    l_coh = 5e-4 m for these numbers. `offset` shifts both arm-T pinholes
    together, leaving the within-pair separations equal to each other.
    """
    l_coh = 5e-4
    sep = ratio * l_coh
    return SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=-sep / 2.0, x2=sep / 2.0,
        x1p=-sep / 2.0 + offset, x2p=sep / 2.0 + offset,
    )


positions = st.floats(min_value=-1e-2, max_value=1e-2)
detector = st.floats(min_value=-1e-3, max_value=1e-3)


def setups(draw):
    a = draw(st.floats(min_value=1e-4, max_value=1e-3))
    wavelength = draw(st.floats(min_value=400e-9, max_value=700e-9))
    return SetupBasic(
        a=a, wavelength=wavelength, z=1.0, f=1.0,
        x1=draw(positions), x2=draw(positions),
        x1p=draw(positions), x2p=draw(positions),
    )


setup_strategy = st.composite(setups)()


# ---------------------------------------------------------------------------
# Geometry-derived scales
# ---------------------------------------------------------------------------


def test_coherence_length_values():
    assert two_path_setup().l_coh == pytest.approx(5e-4, rel=1e-12)
    wide = SetupBasic(a=1e-3, wavelength=1e-6, z=1.0, f=1.0, x1=0, x2=0, x1p=0, x2p=0)
    assert wide.l_coh == pytest.approx(5e-4, rel=1e-12)


def test_reduced_distance():
    setup = two_path_setup()
    assert setup.h == pytest.approx(0.5, rel=1e-12)


def test_setup_rejects_nonpositive_lengths():
    with pytest.raises(ValueError, match="z must be positive, got z=-1.0"):
        SetupBasic(a=1e-3, wavelength=500e-9, z=-1.0, f=1.0, x1=0, x2=0, x1p=0, x2p=0)
    with pytest.raises(ValueError, match="a must be positive"):
        SetupBasic(a=0.0, wavelength=500e-9, z=1.0, f=1.0, x1=0, x2=0, x1p=0, x2p=0)


def test_paraxial_warning_on_wide_mask():
    with pytest.warns(ParaxialWarning, match="exceeds z/10"):
        SetupBasic(a=1e-3, wavelength=500e-9, z=1.0, f=1.0, x1=0.2, x2=0, x1p=0, x2p=0)


def test_fringe_period_values():
    setup = two_path_setup()  # |x1 - x2| = 1e-2
    assert fringe_period_xc(setup) == pytest.approx(5e-5, rel=1e-12)
    narrow = SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0, x1=-5e-4, x2=5e-4, x1p=-5e-4, x2p=5e-4
    )
    assert fringe_period_xc(narrow) == pytest.approx(5e-4, rel=1e-12)


def test_fringe_period_rejects_coincident_pinholes():
    setup = SetupBasic(a=1e-3, wavelength=500e-9, z=1.0, f=1.0, x1=1e-3, x2=1e-3, x1p=0, x2p=0)
    with pytest.raises(ValueError, match="coincide"):
        fringe_period_xc(setup)


# ---------------------------------------------------------------------------
# Propagation factor and pair contributions
# ---------------------------------------------------------------------------


def test_b_phase_known_value():
    # omega/(2*c*h) * xj^2 = (2*pi/lambda/h) * xj^2 / 2 = 4*pi exactly here
    setup = SetupBasic(a=1e-3, wavelength=500e-9, z=1.0, f=1.0, x1=0, x2=0, x1p=0, x2p=0)
    assert b_phase(1e-3, 0.0, setup) == pytest.approx(1.0 + 0.0j, abs=1e-9)


@given(setup_strategy, detector, detector)
@settings(max_examples=100)
def test_b_phase_unit_modulus(setup, xj, xd):
    assert abs(abs(b_phase(xj, xd, setup)) - 1.0) < 1e-12


@given(setup_strategy, detector, detector)
@settings(max_examples=100)
def test_pair_phase_identity(setup, x_c, x_t):
    """The surviving pairs' relative propagation phase is the fringe phase."""
    pair_11 = g1_pair(setup, 1, 1, x_c, x_t)
    pair_22 = g1_pair(setup, 2, 2, x_c, x_t)
    if abs(pair_11.envelope) < 1e-12 or abs(pair_22.envelope) < 1e-12:
        return  # a sinc zero leaves no phase to compare
    # divide out the (signed) envelopes to isolate the propagation phases
    got = cmath.phase((pair_22.value / pair_22.envelope) * (pair_11.value / pair_11.envelope).conjugate())
    want = phase_phi_basic(setup, x_c, x_t)
    assert cmath.exp(1j * got) == pytest.approx(cmath.exp(1j * want), abs=1e-7)


@given(setup_strategy, detector, detector)
@settings(max_examples=100)
def test_pair_value_consistent_with_phase_field(setup, x_c, x_t):
    pair = g1_pair(setup, 2, 1, x_c, x_t)
    assert pair.value == pytest.approx(pair.envelope * cmath.exp(1j * pair.phase), abs=1e-9)


def test_g1_pair_rejects_bad_index():
    with pytest.raises(ValueError, match="must be 1 or 2"):
        g1_pair(two_path_setup(), 3, 1, 0.0, 0.0)


@given(detector, detector, st.floats(min_value=0.25, max_value=4.0))
def test_phase_scales_linearly_with_frequency(x_c, x_t, factor):
    setup = two_path_setup(offset=1e-5)
    scaled = SetupBasic(
        a=setup.a, wavelength=setup.wavelength / factor, z=setup.z, f=setup.f,
        x1=setup.x1, x2=setup.x2, x1p=setup.x1p, x2p=setup.x2p,
    )
    assert phase_phi_basic(scaled, x_c, x_t) == pytest.approx(
        factor * phase_phi_basic(setup, x_c, x_t), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Regime bookkeeping
# ---------------------------------------------------------------------------


def test_separation_ratios_keys_and_values():
    ratios = condition_margins(two_path_setup(ratio=20.0), 0.0, 0.0)
    assert ratios["within_11p"] == pytest.approx(0.0, abs=1e-12)
    assert ratios["within_22p"] == pytest.approx(0.0, abs=1e-12)
    assert ratios["cross_12p"] == pytest.approx(20.0, rel=1e-12)
    assert ratios["cross_21p"] == pytest.approx(20.0, rel=1e-12)


def test_check_pair_conditions_clean_and_violated():
    assert violations(condition_margins(two_path_setup(ratio=20.0), 0.0, 0.0)) == []
    bad = two_path_setup(ratio=2.0, offset=2e-4)
    problems = [str(p) for p in violations(condition_margins(bad, 0.0, 0.0))]
    assert any("cross" in p for p in problems)
    assert any("within" in p for p in problems)


def test_asymptotic_mode_warns_on_bad_geometry():
    bad = two_path_setup(ratio=2.0)
    with pytest.warns(ConditionWarning, match="cross"):
        closed_form(PathTable(bad), 0.0, 0.0, "asymptotic")


def test_asymptotic_mode_silent_on_good_geometry():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed_form(PathTable(two_path_setup(ratio=20.0)), 0.0, 0.0, "asymptotic")


def test_problem_texts_of_the_three_families():
    mask = violations(condition_margins(two_path_setup(ratio=2.0), 0.0, 0.0))
    assert [(p.key, p.value) for p in mask] == [
        ("cross_12p", pytest.approx(2.0)), ("cross_21p", pytest.approx(2.0))
    ]
    assert str(mask[0]) == "cross_12p separation is 2 l_coh, below 10.0"
    # Tilts of 2 and 1.2 l_coh; detector C at 1e-4 sits 0.2 l_coh from detector T.
    mz = SetupMZ(a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=2.5e-3, delta_t=1.5e-3)
    assert [str(p) for p in violations(condition_margins(mz, 0.0, 0.0))] == [
        "tilt_c ratio 2 is below 10.0",
        "tilt_t ratio 1.2 is below 10.0",
        "tilt_diff ratio 0.8 is above 0.1",
        "phase 4.02 rad is above 0.1 (outside the CNOT regime)",
    ]
    off_centre = violations(condition_margins(mz, 1e-4, 0.0))
    assert "detector_sep ratio 0.2 is above 0.1" in [str(p) for p in off_centre]


@given(
    st.floats(min_value=2e-4, max_value=1e-3),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=-0.03, max_value=0.03),
    st.floats(min_value=-0.03, max_value=0.03),
    st.sampled_from(patterns.SCAN_AXES),
    st.floats(min_value=-3e-4, max_value=3e-4),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1e-6, max_value=5e-5),
    st.floats(min_value=-3e-4, max_value=3e-4),
)
@settings(max_examples=100)
def test_violations_over_a_grid_are_the_worst_per_point(
    a, zbar, delta_c, delta_t, axis, start, n, step, fixed
):
    setup = SetupMZ(a=a, wavelength=500e-9, z=1.0, zbar=zbar, delta_c=delta_c, delta_t=delta_t)
    grid = make_grid(axis, start, start + (n - 1) * step, step, fixed)
    whole = {p.key: p.value for p in violations(condition_margins(setup, grid[:, 0], grid[:, 1]))}
    per_point: dict[str, list[float]] = {}
    for x_c, x_t in grid:
        for p in violations(condition_margins(setup, float(x_c), float(x_t))):
            per_point.setdefault(p.key, []).append(p.value)
    assert list(whole) == [key for key in analytic.CONDITIONS if key in per_point]
    for key, values in per_point.items():
        side = analytic.CONDITIONS[key][0]
        assert whole[key] == (max(values) if side == "above" else min(values))


# ---------------------------------------------------------------------------
# Correlation values
# ---------------------------------------------------------------------------


@st.composite
def masks_in_l_coh(draw):
    """A mask of the reference source (l_coh = 5e-4 m) with pinholes within +-15 l_coh.

    f is drawn too, so the mask-plane curvature (through h) and the detector
    tilt (through f) of the path phases carry different lengths.
    """
    l_coh = 5e-4
    x1, x2, x1p, x2p = (draw(st.floats(min_value=-15.0, max_value=15.0)) * l_coh
                        for _ in range(4))
    return SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=draw(st.floats(min_value=0.5, max_value=2.0)),
        x1=x1, x2=x2, x1p=x1p, x2p=x2p,
    )


@given(masks_in_l_coh(), detector, detector)
@settings(max_examples=200)
def test_asymptotic_is_two_path_fringe_law(setup, x_c, x_t):
    """Asymptotic mode, built from the path table, against the paper's phase formula."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        value = closed_form(PathTable(setup), x_c, x_t, "asymptotic")
    phi = phase_phi_basic(setup, x_c, x_t)
    assert value == pytest.approx(2.0 + 2.0 * math.cos(phi), abs=1e-11)


def test_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        closed_form(PathTable(two_path_setup()), 0.0, 0.0, "montecarlo")


@given(setup_strategy, detector, detector)
@settings(max_examples=200)
def test_exact_value_bounded(setup, x_c, x_t):
    value = closed_form(PathTable(setup), x_c, x_t, "exact")
    assert 0.0 <= value <= 4.0 + 1e-9, f"correlation {value} outside [0, 4]"


@given(setup_strategy, detector, detector)
@settings(max_examples=100)
def test_exact_symmetric_under_arm_swap(setup, x_c, x_t):
    """Swapping the two arms (pinholes and detectors together) changes nothing."""
    swapped = SetupBasic(
        a=setup.a, wavelength=setup.wavelength, z=setup.z, f=setup.f,
        x1=setup.x1p, x2=setup.x2p, x1p=setup.x1, x2p=setup.x2,
    )
    lhs = closed_form(PathTable(setup), x_c, x_t, "exact")
    rhs = closed_form(PathTable(swapped), x_t, x_c, "exact")
    assert abs(lhs - rhs) < 1e-10 + 1e-9 * abs(lhs)


@given(
    setup_strategy,
    detector,
    detector,
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=100)
def test_arm_phase_gauge_invariance(setup, x_c, x_t, gamma_c, gamma_t):
    """A common phase on all paths of an arm cancels in the correlation."""
    table = PathTable(setup)
    envelopes = table.envelopes(x_c, x_t)
    amp_c = cmath.exp(1j * gamma_c) * table.amplitudes(0, x_c)
    amp_t = cmath.exp(1j * gamma_t) * table.amplitudes(1, x_t)
    direct = closed_form(PathTable(setup), x_c, x_t, "exact")
    assert pair_sum(envelopes, amp_c, amp_t) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_fully_coherent_point_reaches_four():
    # all four pinholes coincide: every envelope is 1 and every phase equal
    setup = SetupBasic(a=1e-4, wavelength=500e-9, z=1.0, f=1.0, x1=0, x2=0, x1p=0, x2p=0)
    assert closed_form(PathTable(setup), 0.0, 0.0, "exact") == pytest.approx(4.0, rel=1e-12)


def test_pair_sum_with_no_coherence_is_zero():
    unit = np.ones(2, dtype=complex)
    assert pair_sum(np.zeros((2, 2)), unit, unit) == 0.0
    assert np.array_equal(pair_sum(np.zeros((2, 2, 3)), unit, unit), np.zeros(3))


@given(
    st.integers(min_value=5, max_value=20),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-5e-3, max_value=5e-3),
)
@settings(max_examples=100)
def test_cross_pair_envelopes_bounded(n, slack_a, slack_b, center):
    """Cross separations of at least N*l_coh keep both cross envelopes below 1/(N*pi)."""
    l_coh = 5e-4
    setup = SetupBasic(
        a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0,
        x1=0.0, x2p=n * l_coh * (1.0 + slack_a),
        x2=center, x1p=center + n * l_coh * (1.0 + slack_b),
    )
    env_12 = abs(g1_pair(setup, 1, 2, 0.0, 0.0).envelope)
    env_21 = abs(g1_pair(setup, 2, 1, 0.0, 0.0).envelope)
    bound = 2.0 / (n * math.pi)
    assert env_12 + env_21 <= bound * (1.0 + 1e-12), (
        f"cross envelopes {env_12 + env_21} exceed {bound} at N={n}"
    )


def test_two_path_visibility_at_ratio_twenty():
    setup = two_path_setup(ratio=20.0, offset=2.5e-5)
    period = fringe_period_xc(setup)
    grid = make_grid("x_C", 0.0, period, period / 80.0)
    exact = evaluate_pattern(setup, grid, "exact")
    asymptotic = evaluate_pattern(setup, grid, "asymptotic")
    for values, floor in ((asymptotic.values, 0.99), (exact.values, 0.95)):
        assert (values.max() - values.min()) / (values.max() + values.min()) >= floor


def test_exact_matches_asymptotic_at_ratio_twenty():
    """Within 1% of the peak when the regime conditions hold."""
    setup = two_path_setup(ratio=20.0, offset=2.5e-5)
    period = fringe_period_xc(setup)
    grid = make_grid("x_C", 0.0, period, period / 80.0)
    exact = evaluate_pattern(setup, grid, "exact")
    asymptotic = evaluate_pattern(setup, grid, "asymptotic")
    worst = float(np.max(np.abs(exact.values - asymptotic.values)))
    assert worst <= 0.01 * 4.0, f"exact deviates from two-path law by {worst}"


def test_exact_converges_to_asymptotic_in_separation_ratio():
    """Worst-case disagreement shrinks like the residual cross envelopes.

    Odd half-integer separation ratios leak a negative cross envelope, the
    adversarial case: it enters both the interference sum and its
    normalization, so the pattern error approaches sixteen times the
    single-envelope bound instead of cancelling.
    """
    worsts = []
    for n in (11, 21, 41):
        setup = two_path_setup(ratio=n + 0.5)
        period = fringe_period_xc(setup)
        grid = make_grid("x_C", 0.0, period, period / 80.0)
        exact = evaluate_pattern(setup, grid, "exact")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            asymptotic = evaluate_pattern(setup, grid, "asymptotic")
        worst = float(np.max(np.abs(exact.values - asymptotic.values))) / 4.0
        assert worst <= 4.0 / (n * math.pi), f"relative error {worst} too large at N={n}"
        worsts.append(worst)
    assert worsts[0] > worsts[1] > worsts[2], f"error not decreasing: {worsts}"


# ---------------------------------------------------------------------------
# Pattern container and helpers
# ---------------------------------------------------------------------------


def test_pattern_validation():
    grid = np.array([[0.0, 0.0], [1.0, 1.0]])
    CorrelationPattern(grid=grid, values=np.array([1.0, 2.0]), mode="exact")
    with pytest.raises(ValueError, match="mode"):
        CorrelationPattern(grid=grid, values=np.array([1.0, 2.0]), mode="closed-form")
    with pytest.raises(ValueError, match="shape"):
        CorrelationPattern(grid=np.zeros(3), values=np.array([1.0]), mode="exact")
    with pytest.raises(ValueError, match="does not match"):
        CorrelationPattern(grid=grid, values=np.array([1.0]), mode="exact")
    with pytest.raises(ValueError, match="nonnegative"):
        CorrelationPattern(grid=grid, values=np.array([1.0, -0.5]), mode="exact")
    with pytest.raises(ValueError, match="stderr"):
        CorrelationPattern(
            grid=grid, values=np.array([1.0, 2.0]), mode="monte-carlo",
            stderr=np.array([0.1]),
        )


def test_make_grid_axes():
    grid = make_grid("x_C", -1e-4, 1e-4, 5e-5, fixed=3e-5)
    assert grid.shape == (5, 2)
    assert np.allclose(grid[:, 1], 3e-5)
    grid = make_grid("x_T", 0.0, 1e-4, 5e-5, fixed=-2e-5)
    assert np.allclose(grid[:, 0], -2e-5)
    grid = make_grid("diagonal", 0.0, 1e-4, 5e-5)
    assert np.allclose(grid[:, 0], grid[:, 1])


def test_make_grid_includes_endpoints():
    grid = make_grid("diagonal", 0.0, 1.0, 0.1)
    assert grid.shape[0] == 11
    assert grid[0, 0] == 0.0
    assert grid[-1, 0] == pytest.approx(1.0)


def test_make_grid_validation():
    with pytest.raises(ValueError, match="axis"):
        make_grid("x_D", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="step"):
        make_grid("x_C", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="below start"):
        make_grid("x_C", 1.0, 0.0, 0.1)


def test_evaluate_pattern_modes_match_pointwise():
    setup = two_path_setup()
    grid = make_grid("x_C", 0.0, 5e-5, 1e-5)
    pattern = evaluate_pattern(setup, grid, "exact")
    for (x_c, x_t), value in zip(pattern.grid, pattern.values):
        assert value == closed_form(PathTable(setup), x_c, x_t, "exact")


# ---------------------------------------------------------------------------
# Whole-grid kernel against an independent per-point oracle
# ---------------------------------------------------------------------------

ORACLE_ANGLES = GateAngles(0.4, 0.9, 0.7, 0.2)
# Cross separations of 2.4 to 3 l_coh and within-pair offsets of 0.2 and 0.6 l_coh,
# so every pair contributes and exact differs visibly from asymptotic.
ORACLE_MASK = dict(
    a=0.5e-3, wavelength=500e-9, z=1.0, f=1.0, x1=-6e-4, x2=6e-4, x1p=-5e-4, x2p=9e-4
)
ORACLE_MZ = SetupMZ(a=0.5e-3, wavelength=500e-9, z=1.0, zbar=0.2, delta_c=4e-3, delta_t=3e-3)


def oracle_weights(setup):
    """Hand-written path weights (arm C, arm T), tilted-mirror second paths negated."""
    if not isinstance(setup, (SetupGate, SetupMZ)):
        return (1.0, 1.0), (1.0, 1.0)
    pc, pt, tc, tt = (ORACLE_ANGLES.phi_c, ORACLE_ANGLES.phi_t,
                      ORACLE_ANGLES.theta_c, ORACLE_ANGLES.theta_t)
    sign = -1.0 if isinstance(setup, SetupMZ) else 1.0
    return ((math.cos(tc) * math.cos(pc), sign * math.sin(tc) * math.sin(pc)),
            (math.cos(tt - pt), sign * math.sin(tt + pt)))


def oracle_point(setup, x_c, x_t, mode):
    """One grid point, summed pair by pair from b_phase, sinc and oracle_weights."""
    if isinstance(setup, SetupMZ):
        zb2 = 2.0 * setup.zbar
        pos_c = (x_c + zb2 * setup.delta_c, x_c)
        pos_t = (x_t + zb2 * setup.delta_t, x_t)
        scale = setup.omega / (2.0 * setup.z * C_LIGHT)
        ph_c = [cmath.exp(-1j * scale * p * p) for p in pos_c]
        ph_t = [cmath.exp(-1j * scale * p * p) for p in pos_t]
    else:
        pos_c, pos_t = (setup.x1, setup.x2), (setup.x1p, setup.x2p)
        ph_c = [complex(b_phase(p, x_c, setup)) for p in pos_c]
        ph_t = [complex(b_phase(p, x_t, setup)) for p in pos_t]
    w_c, w_t = oracle_weights(setup)
    total, env_sum = 0j, 0.0
    for i in range(2):
        for j in range(2):
            term = w_c[i] * w_t[j] * ph_c[i].conjugate() * ph_t[j]
            env = sinc(math.pi * (pos_c[i] - pos_t[j]) / setup.l_coh)
            if mode == "asymptotic":
                total += term if i == j else 0.0  # matched pairs at unit envelope
            else:
                total += term * env
                env_sum += abs(env)
    return abs(total) ** 2 / (1.0 if mode == "asymptotic" else (env_sum / 2.0) ** 2)


@pytest.mark.parametrize(
    "setup, angles",
    [(SetupBasic(**ORACLE_MASK), None), (SetupGate(**ORACLE_MASK), ORACLE_ANGLES),
     (ORACLE_MZ, ORACLE_ANGLES)],
    ids=["basic", "gate", "mz"],
)
def test_evaluate_pattern_matches_per_point_oracle(setup, angles):
    for axis in ("x_C", "x_T", "diagonal"):
        grid = make_grid(axis, -1e-4, 1e-4, 1e-5, fixed=2e-5)
        for mode in ("exact", "asymptotic"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionWarning)
                values = evaluate_pattern(setup, grid, mode, angles=angles).values
            want = [oracle_point(setup, x_c, x_t, mode) for x_c, x_t in grid]
            assert np.max(np.abs(values - want)) <= 1e-12, (axis, mode)
        assert np.ptp(values) > 0.01, axis  # the oracle is checked on a varying pattern


def test_envelope_power_sums_the_path_pairs_in_one_order():
    """The ensemble is normalized by it, so its bits must not depend on the envelopes' layout."""
    x_c = np.linspace(-2e-4, 2e-4, 801)
    x_t = x_c[::-1] + 3e-5
    envelopes = PathTable(ORACLE_MZ).envelopes(x_c, x_t)
    assert envelopes.shape == (2, 2, 801)
    (e00, e01), (e10, e11) = np.abs(envelopes)
    want = (((e00 + e01) + e10) + e11) / 2.0
    got = analytic.envelope_power(ORACLE_MZ, x_c, x_t)
    assert np.array_equal(got.view(np.uint64), (want**2).view(np.uint64))
    scalar = analytic.envelope_power(ORACLE_MZ, x_c[7], x_t[7])
    assert scalar.shape == () and scalar == got[7]


def test_pair_sum_broadcasts_settings_over_points():
    """16 basis settings over a 7-point grid: each value is its own four-term pair sum."""
    table = gate.basis_table(ORACLE_MZ)
    x_c = np.linspace(-1e-4, 1e-4, 7)
    x_t = x_c + 3e-5
    values = closed_form(table, x_c[:, None], x_t[:, None], "exact")
    assert values.shape == (7, 16)
    for s, w in enumerate(table.coefficients):
        for k in range(7):
            env = table.envelopes(x_c[k], x_t[k])
            c0, c1 = w[0, 0], w[0, 1] * cmath.exp(1j * table.relative_phase(0, x_c[k]))
            t0, t1 = w[1, 0], w[1, 1] * cmath.exp(1j * table.relative_phase(1, x_t[k]))
            total = (c0.conjugate() * (t0 * env[0, 0] + t1 * env[0, 1])
                     + c1.conjugate() * (t0 * env[1, 0] + t1 * env[1, 1]))
            power = (abs(env[0, 0]) + abs(env[0, 1]) + abs(env[1, 0]) + abs(env[1, 1])) ** 2 / 4
            want = abs(total) ** 2 / power
            assert values[k, s] == pytest.approx(want, rel=1e-12, abs=1e-12), (s, k)
    assert np.ptp(values) > 0.1  # settings and points differ
    # The truth-table call: scalar positions, one value per setting.
    point = closed_form(table, x_c[3], x_t[3], "exact")
    assert point.shape == (16,)
    assert point == pytest.approx(values[3], rel=1e-12, abs=1e-12)


def test_evaluate_pattern_on_empty_grid():
    for setup, angles in ((SetupBasic(**ORACLE_MASK), None), (ORACLE_MZ, ORACLE_ANGLES)):
        for mode in ("exact", "asymptotic"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionWarning)
                pattern = evaluate_pattern(setup, np.zeros((0, 2)), mode, angles=angles)
            assert pattern.values.shape == (0,)


def test_evaluate_pattern_calls_no_per_point_closed_form(monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("evaluate_pattern fell back to a per-point closed form")

    for module in (analytic, gate, patterns):
        for name in ("dn_corr_gate", "dn_corr_mz", "g1_pair"):
            monkeypatch.setattr(module, name, per_point, raising=False)
    grid = make_grid("diagonal", -1e-4, 1e-4, 2e-6)
    assert grid.shape == (101, 2)
    for setup, angles in ((SetupBasic(**ORACLE_MASK), None),
                          (SetupGate(**ORACLE_MASK), ORACLE_ANGLES),
                          (ORACLE_MZ, ORACLE_ANGLES)):
        for mode in ("exact", "asymptotic"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionWarning)
                pattern = evaluate_pattern(setup, grid, mode, angles=angles)
            assert pattern.values.shape == (101,)
