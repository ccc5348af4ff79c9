"""Exception hierarchy shared by all tmsflow modules."""


class TmsflowError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteError(TmsflowError):
    """A matrix or sample array contains NaN or infinite entries."""


class UnphysicalStateError(TmsflowError):
    """A covariance matrix fails validation (asymmetry, Heisenberg bound,
    or positive definiteness)."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class DimensionMismatchError(TmsflowError):
    """Operands have incompatible mode counts or matrix shapes."""


class BadIndexError(TmsflowError):
    """A mode index is out of range, or an index set is empty."""


class SingularMeasurementError(TmsflowError):
    """Homodyne conditioning on a quadrature with non-positive variance."""


class DomainError(TmsflowError):
    """Scalar argument outside the mathematical domain of a function."""


class BadCouplingError(TmsflowError):
    """Directional-coupler power coupling outside the open interval (0, 1)."""


class NumericalError(TmsflowError):
    """A numerical evaluation failed: a value left the double range, or a
    guarded identity failed beyond tolerance (e.g. a discord below its
    clamp window)."""


class NoSignChangeError(TmsflowError):
    """Root bracketing failed: the target function does not change sign on
    the bracket."""


class ModelFailureError(TmsflowError):
    """Model evaluation failed for a specific input record."""

    def __init__(self, message, record_index=None):
        super().__init__(message)
        self.record_index = record_index


class TooFewSamplesError(TmsflowError):
    """Sample array too short for the requested statistic."""
