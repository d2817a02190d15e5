"""Second-order interference of chaotic light.

Closed-form photon-number fluctuation correlations for two-pinhole and
tilted-mirror geometries, the polarization two-qubit gate they realize, and a
stochastic-field Monte-Carlo estimator that serves as the numerical reference
for every closed form.
"""

from .core import C_LIGHT, sinc, tophat_ft
from .geometry import (
    ConditionWarning,
    GateAngles,
    ParaxialWarning,
    SetupBasic,
    SetupGate,
    SetupMZ,
)
from .analytic import (
    CorrelationPattern,
    PairContribution,
    Violation,
    b_phase,
    condition_margins,
    fringe_period_xc,
    g1_pair,
    phase_phi_basic,
    violations,
)
from .gate import (
    TruthTable,
    dn_corr_gate,
    dn_corr_mz,
    envelope_power,
    ideal_cnot_table,
    mz_phase,
    p_cnot,
    p_controlled_u,
)
from .montecarlo import (
    Realization,
    SourceModel,
    compare_patterns,
    estimate_dn_corr,
    estimate_mean_intensity,
    estimate_truth_table,
    field_at_detector,
    free_field,
    sample_realization,
)
from .patterns import evaluate_pattern, make_grid

__version__ = "0.1.0"
