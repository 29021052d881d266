"""Exception types shared across the toolkit, and the checks that take each
public number, point or count into its domain or raise ``DomainError``."""

import math
import numbers

import numpy as np


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


def _as_real(value, what: str, low=-math.inf, high=math.inf, closed=""):
    """``value`` as a finite float between ``low`` and ``high``, each end
    open unless named ("low", "high") in ``closed``; anything else raises
    ``DomainError`` naming ``what``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and (x >= low if "low" in closed else x > low)
            and (x <= high if "high" in closed else x < high)):
        left = "[" if "low" in closed else "("
        right = "]" if "high" in closed else ")"
        span = f"{left}{low:g}, {high:g}{right}"
        where = {"(0, inf)": " and positive", "(-inf, inf)": ""}.get(
            span, " and in " + span)
        raise DomainError(f"{what} must be finite{where}, got {value!r}")
    return x


def _as_point(value, what: str) -> tuple:
    """A number or a sequence of them as a tuple of finite floats, -0.0 read
    as 0.0 so that equal points are equal to the bit."""
    return tuple(_as_real(x, what) + 0.0
                 for x in np.atleast_1d(value).tolist())


def _as_alpha(alpha, *, classical_ok: bool = False) -> float:
    """alpha in (0, 1), or in (0, 1] where a classical limit is documented."""
    return _as_real(alpha, "alpha", 0.0, 1.0, "high" if classical_ok else "")


def _as_count(value, what: str, least: int = 0) -> int:
    """An integral count of at least ``least`` as int; 4.0 passes, while 2.5,
    NaN, strings and smaller counts raise ``DomainError`` naming ``what``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not (integral and value >= least):
        raise DomainError(
            f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)
