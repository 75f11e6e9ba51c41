"""Grid solver and verification harness for a w-eta-theta phase-field system
of planar grain boundary motion: per time step, a contraction fixed-point
solve for the order parameters followed by a weighted-total-variation convex
minimization for the orientation angle, for every interface parameter nu >= 0.
The time loop solves the fixed point with one proximal-gradient loop that
refreshes the coupling at every iteration; the verification path runs the
paper's Banach map, an outer loop around that inner loop.
"""

from .energy import EnergyBreakdown, free_energy, phi_nu
from .grid import GridSpec, PhaseState, ScalarField, dirichlet_energy, grad_operator_norm_bound
from .model import (
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    Potential,
    PotentialSpec,
    SolverError,
    ValidationReport,
    check_a4,
    estimate_c2_norm,
    estimate_c_star,
    g_eval,
    gamma_eval,
    gamma_prox,
    grad_g,
    mobility_eval,
)
from .scheme import (
    HGateError,
    SchemeParams,
    StepReport,
    Trajectory,
    h_star,
    outside_hypotheses,
    run,
    validate_initial,
)
from .thetastep import (
    ThetaStepParams,
    ThetaStepReport,
    oracle_theta_min,
    theta_step,
)
from .verify import (
    CheckResult,
    StudyReport,
    check_box,
    check_dissipation,
    check_energy_bound,
    check_gamma_sandwich,
    check_linfty,
    check_theta_oracle,
    nu_limit_study,
    random_grains_field,
    random_smooth_field,
)
from .vstep import (
    VStepParams,
    VStepReport,
    v_step,
    v_step_perturbation_bound,
)

__version__ = "0.1.0"
