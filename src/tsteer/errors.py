"""Exception types shared across the package, one per kind a caller can act on."""


class TswError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TswError):
    """An argument breaks its function's contract; the message says what and where."""


class ValidationError(InvalidInput):
    """A stack of 2x2 blocks, such as an assemblage, failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class CertificateInvalid(TswError):
    """Optimality certificate failed verification."""
