"""Worst-case optimal state estimation for linear descriptor systems.

Estimates linear functionals of states constrained by algebraic or
dynamic equations with possibly singular coefficient matrices, under
ellipsoidal bounds on the disturbances. Provides closed-form minimax
readouts, Chebyshev-center estimates with exact error radii, recursive
filter forms, continuous-time machinery via implicit-Euler reduction,
and a brute-force sampling oracle to check it all against.
"""

from .continuous import (
    ConstantFunction,
    ContinuousAprioriResult,
    ContinuousDAE,
    ContinuousEllipsoid,
    PolynomialFunction,
    RiccatiResult,
    TableFunction,
    TikhonovResult,
    TimeGrid,
    apriori_estimate_continuous,
    discretize,
    riccati_filter,
    tikhonov_approximate,
)
from .discrete import (
    DAEEllipsoid,
    DiscreteDAE,
    HorizonApriori,
    TrajectoryEstimate,
    apriori_horizon_estimate,
    flatten,
    flatten_bounds,
    variational_estimate,
)
from .errors import (
    DimensionError,
    DimensionTooLarge,
    EmptySet,
    EstimationError,
    InconsistentData,
    InvalidBounds,
    InvalidGrid,
    InvalidInput,
    NumericalBreakdown,
    ParseError,
    RankDeficient,
    RiccatiBlowup,
    SchemaError,
    SingularNormalEquations,
    SingularStep,
    SolveFailure,
)
from .filtering import FilterRunResult, FilterState, filter_run
from .linalg import (
    LinearSolveResult,
    RangeMembership,
    pseudo_inverse,
    range_membership,
    solve_least_squares,
)
from .oracle import (
    ChebyshevCheck,
    ReachabilitySampleSet,
    chebyshev_check,
    quadratic_center_oracle,
    sample_reachability,
)
from .simulate import SimulationResult, simulate
from .static import (
    StaticEllipsoid,
    StaticEstimateReport,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    representable,
    worst_case_error_of,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantFunction",
    "ContinuousAprioriResult",
    "ContinuousDAE",
    "ContinuousEllipsoid",
    "PolynomialFunction",
    "RiccatiResult",
    "TableFunction",
    "TikhonovResult",
    "TimeGrid",
    "apriori_estimate_continuous",
    "discretize",
    "riccati_filter",
    "tikhonov_approximate",
    "DAEEllipsoid",
    "DiscreteDAE",
    "HorizonApriori",
    "TrajectoryEstimate",
    "apriori_horizon_estimate",
    "flatten",
    "flatten_bounds",
    "variational_estimate",
    "DimensionError",
    "DimensionTooLarge",
    "EmptySet",
    "EstimationError",
    "InconsistentData",
    "InvalidBounds",
    "InvalidGrid",
    "InvalidInput",
    "NumericalBreakdown",
    "ParseError",
    "RankDeficient",
    "RiccatiBlowup",
    "SchemaError",
    "SingularNormalEquations",
    "SingularStep",
    "SolveFailure",
    "FilterRunResult",
    "FilterState",
    "filter_run",
    "LinearSolveResult",
    "RangeMembership",
    "pseudo_inverse",
    "range_membership",
    "solve_least_squares",
    "ChebyshevCheck",
    "ReachabilitySampleSet",
    "chebyshev_check",
    "quadratic_center_oracle",
    "sample_reachability",
    "SimulationResult",
    "simulate",
    "StaticEllipsoid",
    "StaticEstimateReport",
    "StaticModel",
    "aposteriori_estimate",
    "apriori_estimate",
    "representable",
    "worst_case_error_of",
    "__version__",
]
