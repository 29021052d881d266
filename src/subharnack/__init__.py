"""Numerical toolkit for time-fractional (subdiffusion) evolution equations
with discontinuous coefficients: convolution-kernel calculus, monotone
implicit solvers, the fundamental solution as a heat-kernel mixture, and
the measurement harnesses for averaged-value-to-infimum ratios, oscillation
decay at t = 0, and maximum principles."""

from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateDataError,
    DomainError,
    EmptyRegionError,
    GridMismatchError,
    InvalidWeightError,
    LinearSolveError,
    SingularKernelError,
    SingularStepError,
    SubharnackError,
)
from .fracops import (
    SampledPath,
    TimeGrid,
    commutation_residual_1,
    commutation_residual_2,
    fundamental_identity_history,
    fundamental_identity_residual,
    l1_weights,
)
from .fundsol import (
    FundamentalSolutionEvaluator,
    critical_exponent,
    divergence_exponent,
    log_growth_fit,
    loglog_slope,
    optimality_experiment,
    spatial_mass,
)
from .harnack import (
    BoxRegion,
    ConeWeight,
    HarnackConfig,
    HarnackReport,
    MaxPrincipleReport,
    OscillationFit,
    PoincareCheck,
    cone_weight,
    essinf,
    harnack_boxes,
    harnack_ratio_sweep,
    lp_mean,
    max_principle_check,
    oscillation_decay,
    weighted_poincare_check,
)
from .kernels import (
    KernelTable,
    mittag_leffler,
    ml_on_negative_axis,
    rl_kernel,
    rl_kernel_table,
    solve_volterra,
    yosida_kernels,
    yosida_l1_distance,
)
from .solver import (
    CoefficientField,
    ProblemSpec,
    SolveResult,
    SpaceGrid,
    checkerboard_coefficients,
    constant_coefficients,
    solve_scalar_relaxation,
    solve_subdiffusion,
    supersolution_residual,
)

__version__ = "0.1.0"
