"""Exception types shared across the package."""


class TswError(Exception):
    """Base class for all errors raised by this package."""


class EmptySet(TswError):
    """A measurement set needs at least one setting."""


class DuplicateLabel(TswError):
    """Measurement labels must be distinct."""


class UnknownLabel(TswError):
    """Measurement label is not one of the supported Pauli settings."""


class InvalidState(TswError):
    """Density matrix input is not positive semidefinite with unit trace."""


class CountMismatch(TswError):
    """Number of hidden-state blocks does not match the strategy table."""


class NotPsd(TswError):
    """A matrix required to be positive semidefinite is not."""


class OutOfRange(TswError):
    """Scalar parameter outside its admissible range."""


class ValidationError(TswError):
    """An assemblage failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NegativeTime(TswError):
    """Evolution times must be non-negative."""


class BadParameter(TswError):
    """Channel parameter outside its admissible range."""


class SingularAtZeroOfG(TswError):
    """Time-local decay rate is undefined where the memory amplitude vanishes."""


class DimensionMismatch(TswError):
    """Assemblage and strategy table disagree on the number of settings."""


class NumericalBreakdown(TswError):
    """A numerical routine produced non-finite or inconsistent values."""


class CertificateInvalid(TswError):
    """Optimality certificate failed verification."""
