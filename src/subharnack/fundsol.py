"""Whole-space fundamental solution of the forced time-fractional heat
equation as a positive mixture of heat kernels over the M-Wright measure,
and the critical-exponent algebra with the borderline-integral experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AccuracyError, DomainError, _as_alpha, _as_count,
                     _as_real)
from .kernels import _exp_mixture, _gauss_panels, m_wright_rule

__all__ = [
    "critical_exponent",
    "divergence_exponent",
    "FundamentalSolutionEvaluator",
    "spatial_mass",
    "optimality_experiment",
    "loglog_slope",
    "log_growth_fit",
]

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def critical_exponent(alpha, N: int) -> float:
    """Supremum of admissible averaging exponents, (2+N*a)/(2+N*a-2a) > 1."""
    a, N = _as_alpha(alpha), _as_count(N, "N", 1)
    return (2.0 + N * a) / (2.0 + N * a - 2.0 * a)


def divergence_exponent(alpha, N: int, p: float) -> float:
    """Exponent of t in the small-time integral of the p-th power of the
    fundamental solution over a fixed ball: alpha*(N-N*p)/2 + (alpha-1)*p."""
    a, N = _as_alpha(alpha), _as_count(N, "N", 1)
    p = _as_real(p, "p", 0.0)
    return a * (N - N * p) / 2.0 + (a - 1.0) * p


# ---------------------------------------------------------------------------
# Y as a heat-kernel mixture
# ---------------------------------------------------------------------------

@dataclass
class FundamentalSolutionEvaluator:
    """Evaluates the forced-problem kernel Y as a positive mixture of heat
    kernels G over the M-Wright measure (Mainardi, Mura & Pagnini 2010):

        Y(t, x) = alpha t^(alpha-1) int r M_alpha(r) G(r t^alpha, x) dr,

    summed over ``kernels.m_wright_rule``.  Every term is positive, so
    Y >= 0 holds by construction; its spatial mass is t^(alpha-1)/Gamma(alpha)
    and its Fourier symbol t^(alpha-1) E_{alpha,alpha}(-|xi|^2 t^alpha).
    At alpha = 1 the rule is one node and Y is the heat kernel.
    """

    alpha: float
    dimension: int

    def __post_init__(self):
        self.alpha = _as_alpha(self.alpha, classical_ok=True)
        if self.dimension not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.dimension}")

    def profile(self, t: float, rho) -> np.ndarray:
        """Y(t, |x| = rho) for an array of radii, one rule sum per radius.

        The heat kernel of time tau_k = r_k t^alpha is exactly 0.0 at
        rho^2 / (4 tau_k) > 750, and such terms are skipped rather than
        computed (``kernels._exp_mixture``), bitwise as the full sum; a
        radius whose square overflows reads 0.0."""
        t = _as_real(t, "t", 0.0)
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if not np.all((rho >= 0.0) & (rho < math.inf)):
            raise DomainError("radii must be finite and nonnegative")
        a, N = self.alpha, self.dimension
        nodes, weights = m_wright_rule(a)
        nodes, weights = nodes[::-1], weights[::-1]   # rates 0.25/tau ascend
        tau = nodes * t ** a                      # heat-kernel times r t^alpha
        coef = (a * t ** (a - 1.0) * weights * nodes
                * (4.0 * math.pi * tau) ** (-0.5 * N))
        with np.errstate(over="ignore"):
            rho2 = rho * rho
        return _exp_mixture(rho2, 0.25 / tau, coef)

    def evaluate(self, t: float, x) -> float:
        """Y(t, x); x may be a scalar or an N-vector."""
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if xv.size not in (1, self.dimension):
            raise DomainError(
                f"x must be scalar or have {self.dimension} components"
            )
        rho = math.hypot(*xv)                     # no overflow on the way
        return float(self.profile(t, [rho])[0])


def spatial_mass(evaluator: FundamentalSolutionEvaluator, t: float) -> float:
    """Integral of Y(t, .) over space by radial Gauss-panel quadrature
    (independent cross-check of the zero-frequency identity)."""
    a, N = evaluator.alpha, evaluator.dimension
    r_scale = t ** (a / 2.0)
    edges = np.concatenate([
        np.linspace(0.0, 2.0 * r_scale, 37),
        np.geomspace(2.0 * r_scale, 30.0 * r_scale, 37)[1:],
    ])
    nodes, weights = _gauss_panels(edges, 16)
    vals = evaluator.profile(t, nodes)
    integrand = _SPHERE_AREA[N] * nodes ** (N - 1) * vals
    return float(np.dot(weights, integrand))


# ---------------------------------------------------------------------------
# borderline-integral experiment
# ---------------------------------------------------------------------------

def _profile_cumulative(evaluator: FundamentalSolutionEvaluator, p: float,
                        rho_max: float):
    """rho grid, cumulative of rho^(N-1) * phi(rho)^p, where phi = Y(1, .)."""
    N = evaluator.dimension
    nodes = np.concatenate([
        np.linspace(0.0, 2.0, 800),
        np.geomspace(2.0, rho_max, 801)[1:],
    ])
    integrand = nodes ** (N - 1) * evaluator.profile(1.0, nodes) ** p
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(nodes))])
    return nodes, cumulative


def optimality_experiment(alpha, N: int, p: float, epsilon_list,
                          evaluator: Optional[FundamentalSolutionEvaluator] = None):
    """Truncated space-time integrals I(eps) of Y^p over (eps,1) x B(0,1).

    Uses the self-similar reduction: the spatial integral collapses onto the
    t = 1 radial profile, leaving a one-dimensional time integral with the
    algebraic exponent from ``divergence_exponent``.  Returns a list of
    (eps, I(eps)) pairs, eps in the given order.
    """
    a, p = _as_alpha(alpha), _as_real(p, "p", 0.0)
    eps_arr = [_as_real(e, "epsilon", 0.0, 1.0) for e in epsilon_list]
    if not eps_arr:
        raise DomainError("the epsilon list is empty")
    if evaluator is None:
        evaluator = FundamentalSolutionEvaluator(alpha=a, dimension=N)
    eps_min = min(eps_arr)
    rho_needed = eps_min ** (-a / 2.0)
    rho_sat = 40.0  # profile is numerically zero long before this
    rho_max = min(max(rho_needed, 10.0), rho_sat)
    nodes, cumulative = _profile_cumulative(evaluator, p, rho_max)
    cap = cumulative[-1]
    e_p = divergence_exponent(a, N, p)
    area = _SPHERE_AREA[N]

    def integral(eps: float) -> float:
        n_panels = max(8, int(12 * math.log10(1.0 / eps)) + 8)
        tq, wq = _gauss_panels(np.geomspace(eps, 1.0, n_panels + 1), 16)
        radius = tq ** (-a / 2.0)
        phi_cum = np.where(radius >= nodes[-1], cap,
                           np.interp(radius, nodes, cumulative))
        # a large p overflows t^e_p near eps; a non-finite I(eps) is an error
        with np.errstate(over="ignore", invalid="ignore"):
            total = area * float(np.dot(wq, tq ** e_p * phi_cum))
        if not math.isfinite(total):
            raise AccuracyError(f"I(eps) is not finite at p={p!r}, "
                                f"eps={eps!r}: t^{e_p!r} overflows double "
                                f"precision")
        return total

    return [(e, integral(e)) for e in eps_arr]


def loglog_slope(epsilons, integrals) -> float:
    """Least-squares slope of log I against log(1/eps)."""
    x = np.log(1.0 / np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(integrals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def log_growth_fit(epsilons, integrals):
    """Fit I = a + b*log(1/eps); returns (a, b, relative rms residual)."""
    x = np.log(1.0 / np.asarray(epsilons, dtype=float))
    y = np.asarray(integrals, dtype=float)
    coeff = np.polyfit(x, y, 1)
    fit = np.polyval(coeff, x)
    spread = max(y.max() - y.min(), 1e-300)
    resid = float(np.sqrt(np.mean((y - fit) ** 2)) / spread)
    return float(coeff[1]), float(coeff[0]), resid
