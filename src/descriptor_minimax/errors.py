"""Exception taxonomy shared by all estimation modules."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(EstimationError):
    """Malformed or dimensionally inconsistent model data."""


class InvalidBounds(EstimationError):
    """A weight matrix that is not symmetric positive definite."""


class InconsistentData(EstimationError):
    """Observations that no admissible disturbance can explain."""


class RankDeficient(EstimationError):
    """A rank precondition fails, so a required inverse does not exist."""


class NumericalBreakdown(EstimationError):
    """An intermediate matrix is too ill-conditioned to invert reliably."""


class RiccatiBlowup(EstimationError):
    """A gain of the continuous endpoint filter left the trust region."""


class SolveFailure(EstimationError):
    """A reported radius that sampled consistent states exceed (the
    check of CLI ``validate``). A saddle-point solve that breaks down,
    a regularized one included, raises NumericalBreakdown instead."""


class SingularNormalEquations(EstimationError):
    """The cross-check normal equations are singular."""


class DimensionTooLarge(EstimationError):
    """Problem size exceeds what the brute-force oracle will attempt."""


class EmptySet(EstimationError):
    """A set-membership query against an empty solution set."""


class SingularStep(EstimationError):
    """A forward simulation step has no unique solution."""


class InvalidGrid(EstimationError):
    """A time grid that is empty, non-uniform, or outside the horizon."""


class ParseError(EstimationError):
    """Unreadable configuration or data file."""


class SchemaError(EstimationError):
    """Configuration file that parses but violates the expected layout."""


class DimensionError(SchemaError):
    """Configuration entries whose shapes do not fit together."""
