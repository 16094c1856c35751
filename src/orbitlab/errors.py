"""Exception hierarchy shared by all orbitlab modules."""


class OrbitLabError(Exception):
    """Base class for all orbitlab errors."""


class UnreachableToleranceError(OrbitLabError):
    """A tail certificate cannot certify the requested tolerance.

    Raised when the certificate does not decay (exponent <= 0 with a
    constant above the tolerance) or when certifying would require more
    coordinate evaluations than the configured cap.
    """


class SpaceTagError(OrbitLabError):
    """Vectors or operators live in incompatible sequence spaces."""


class DimensionMismatchError(OrbitLabError):
    """Finite-dimensional shapes do not line up."""


class EmptyWordError(OrbitLabError):
    """A telescoping expansion was requested for the empty word."""


class NotPowerBoundedError(OrbitLabError):
    """Spectral certification of power-boundedness failed.

    Either the spectral radius exceeds 1 + tol or a peripheral
    eigenvalue is defective.
    """


class PeripheralSpectrumError(OrbitLabError):
    """The peripheral spectrum violates an operation's precondition."""


class DecompositionError(OrbitLabError):
    """A fix/range decomposition residual exceeded its tolerance, or a
    peripheral cluster holds more eigenvalues than its eigenspace has
    dimensions."""


class UnsupportedSymbolError(OrbitLabError):
    """A symbolic verdict was requested for a symbol family outside the
    supported catalogue.  No guess is attempted."""


class NotApplicableError(OrbitLabError):
    """Preconditions of the witness extraction do not hold."""


class HorizonExhaustedError(OrbitLabError):
    """The witness pair selection ran out of exponent horizon.

    Carries the partial audit in ``audit`` so callers can report the
    ladder that was achieved.
    """

    def __init__(self, message, audit=None):
        super().__init__(message)
        self.audit = audit


class ConfigError(OrbitLabError):
    """A run configuration failed to parse or validate."""


class CertificateError(OrbitLabError):
    """A witness certificate file is malformed or fails integrity checks."""
