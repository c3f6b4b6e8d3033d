"""Parametric estimation from measure-valued data.

Datapoints are random measures (atoms, weighted density kernels, CDF ramps,
constant tails) encoding expert uncertainty; estimation maximizes the
summed log integrals of the model density against them. The package covers
the generalized likelihood and its sandwich asymptotics, two fully solvable
models with efficiency trade-off solvers, a seeded simulation harness, and
a censored heavy-tail pipeline driven by expert ultimates.
"""

from .closedform import (
    EfficiencySurface,
    ExpGammaSpec,
    ModelCharacteristics,
    NormalNormalSpec,
    OptimalNoise,
    efficiency,
    eg_characteristics,
    nn_characteristics,
    nn_optimal_noise,
    solve_n,
    solve_sigma,
    surface_grid,
)
from .estimator import (
    BootstrapResult,
    FitError,
    FitResult,
    OptimizerConfig,
    Sample,
    SingularSlopeError,
    amse,
    bootstrap_se,
    fit,
    generalized_loglik,
    per_point_loglik,
    sandwich,
    w_value,
    z_value,
)
from .measure import (
    CdfRamp,
    ConstantTail,
    DiracAtom,
    GammaKernel,
    KernelSample,
    NormalKernel,
    RandomMeasure,
    WeightedDensity,
    integrate,
    lebesgue_density,
    make_dirac,
    make_gamma_bridge,
    make_measurement_uncertainty,
    make_right_censoring,
    total_mass,
)
from .models import (
    ExponentialRate,
    NormalLocation,
    ParameterDomainError,
    ParetoTail,
    SupportError,
    parse_family,
)
from .montecarlo import (
    SlopeCheck,
    StudyConfig,
    StudySummary,
    replicate,
    score_mean_at_limit,
    simulate_scenario,
    verify_m_matrix,
)
from .quadrature import DEFAULT_QUAD, QuadratureError, QuadratureSpec
from .tailstudy import (
    ClaimRecord,
    CurveResult,
    LoadResult,
    TailConfig,
    TailScenarioSpec,
    TopSelection,
    imputation_index,
    load_claims,
    run_tail_study,
    select_top_k,
    survival_index,
    synthesize_claims,
    tail_curve,
)

__version__ = "0.1.0"
