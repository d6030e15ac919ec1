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
    ContinuousDAE,
    ContinuousEllipsoid,
    PolynomialFunction,
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
    SchemaError,
    SingularStep,
    SolveFailure,
)
from .filtering import filter_run
from .oracle import (
    ChebyshevCheck,
    ReachabilitySampleSet,
    chebyshev_check,
    sample_reachability,
)
from .simulate import SimulationResult, simulate
from .static import (
    Estimate,
    StaticEllipsoid,
    StaticModel,
    aposteriori_estimate,
    apriori_estimate,
    representable,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantFunction",
    "ContinuousDAE",
    "ContinuousEllipsoid",
    "PolynomialFunction",
    "TableFunction",
    "TikhonovResult",
    "TimeGrid",
    "apriori_estimate_continuous",
    "discretize",
    "riccati_filter",
    "tikhonov_approximate",
    "DAEEllipsoid",
    "DiscreteDAE",
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
    "SchemaError",
    "SingularStep",
    "SolveFailure",
    "filter_run",
    "ChebyshevCheck",
    "ReachabilitySampleSet",
    "chebyshev_check",
    "sample_reachability",
    "SimulationResult",
    "simulate",
    "Estimate",
    "StaticEllipsoid",
    "StaticModel",
    "aposteriori_estimate",
    "apriori_estimate",
    "representable",
    "__version__",
]
