"""Exception types shared across the toolkit."""


class SubharnackError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SubharnackError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(SubharnackError, RuntimeError):
    """An internal convergence criterion failed to reach the requested accuracy."""


class GridMismatchError(SubharnackError, ValueError):
    """Two sampled objects do not live on the same uniform grid."""


class SingularKernelError(SubharnackError, ValueError):
    """A kernel singular at t=0 was passed where a regular (H^1) kernel is required."""


class SingularStepError(SubharnackError, RuntimeError):
    """The diagonal weight of an implicit step makes the local solve degenerate."""


class LinearSolveError(SubharnackError, RuntimeError):
    """The band Cholesky factorization of a level's interior block failed."""


class EmptyRegionError(SubharnackError, ValueError):
    """A space-time region contains no grid cells or nodes."""


class DegenerateDataError(SubharnackError, ValueError):
    """Measured data is degenerate (identically zero oscillation, vanishing infimum, ...)."""


class InvalidWeightError(SubharnackError, ValueError):
    """A Poincare weight violates its structural requirements."""


class ConfigError(SubharnackError, ValueError):
    """An experiment configuration failed to parse or validate."""
