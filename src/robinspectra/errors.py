"""Exception types shared across the package."""


class RobinSpectraError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RobinSpectraError):
    """Malformed or inconsistent experiment configuration."""


class InapplicableError(RobinSpectraError):
    """A requested bound or theorem-check does not apply to this potential."""


class NotIntegrableError(InapplicableError):
    """Raised when an integral over infinite support is requested."""


class NotAttractiveOnAverageError(InapplicableError):
    """The potential does not integrate to a positive value."""


class EssentialBottomNotZeroError(InapplicableError):
    """The essential spectrum does not start at zero, so the test-function
    certificate proves nothing."""


class ConvergenceError(RobinSpectraError):
    """Eigensolver failed to reach the requested residual tolerance."""


class FactorizationError(RobinSpectraError):
    """A factorization broke down: the inertia count's capacitance matrix
    stays singular when tau is perturbed, or the shift-invert capacitance
    matrix is singular because the shift touches the spectrum."""


class UnderflowWindowError(RobinSpectraError):
    """Decay-fit window reaches into numerically zero eigenfunction values."""


class NoAsymptoticRegimeError(RobinSpectraError):
    """Richardson differences are not monotone; no asymptotic regime."""
