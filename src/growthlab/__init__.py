"""Numerical laboratory for curvature-controlled growth of holomorphic
functions on rotationally invariant Kahler model metrics."""

from .errors import (
    BlowDownError,
    BudgetError,
    ConjugatePointError,
    DomainError,
    GrowthLabError,
    MaximizationError,
    ShootingError,
)
from .radial_metric import (
    RadialKahlerModel,
    RadialProfile,
    builtin_model,
    curvature_at_origin,
    distance_from_origin,
    geodesic_circle,
    geodesic_distance,
    load_profile_table,
    model_from_profile,
    model_hessian,
    pair_distances,
    radial_curvature,
    rho_of_r,
)
from .comparison_ode import (
    Convexifier,
    CurvatureLowerBound,
    ResidualReport,
    Supersolution,
    closed_form_convexifier,
    closed_form_supersolution,
    curvature_bound,
    growth_exponent,
    make_supersolution,
    solve_convexifier,
    solve_riccati_equality,
    verify_supersolution,
)
from .growth import (
    ConvexityReport,
    GrowthCurve,
    HoloPoly,
    MonotonicityReport,
    cone_exponent,
    growth_curve,
    homogeneity_check,
    max_modulus,
    monotonicity_check,
    necessity_deficit,
    order_at_infinity,
    separation_eigenvalue,
    three_circle_check,
)
from .dimension import (
    DimensionBound,
    dim_bound_from_h,
    dim_poly_space,
    exp_growth_bound,
    power_decay_regimes,
)

__version__ = "0.1.0"
