"""Scalar convolution kernels on uniform time grids.

Power kernels t^(beta-1)/Gamma(beta), the generalized Mittag-Leffler function
and Yosida-regularized kernels obtained from scalar Volterra equations.  A
generic product-integration Volterra solver, on the blocked causal march of
``fracops``, builds the Yosida kernels and cross-checks every closed form here.

The Mittag-Leffler rays E_alpha(-s) and E_{alpha,alpha}(-s), and the
fundamental solution in ``fundsol``, are positive mixtures of the M-Wright
density M_alpha; ``m_wright_rule`` is the one positive quadrature for that
measure behind all three, certified at build time by its exact moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, rgamma, sindg

from .errors import (AccuracyError, DomainError, SingularStepError,
                     _as_alpha, _as_count, _as_real)
from .fracops import _BLOCK as _MARCH_BLOCK, _causal_march

__all__ = [
    "KernelTable",
    "rl_kernel",
    "rl_kernel_table",
    "mittag_leffler",
    "m_wright_rule",
    "ml_on_negative_axis",
    "solve_volterra",
    "yosida_kernels",
    "yosida_l1_distance",
]

#: switch point between the power series and the M-Wright ray
Z_SWITCH = 5.0
#: from s = 1e6 on, six asymptotic terms give E_{alpha,beta}(-s) to rounding
_S_ASYMPTOTIC = 1e6
#: the largest alpha whose M-Wright ray serves the scalar: measured against
#: 60-digit values (not checked at run time) it is 1.3e-11 off at 1 - 1e-7
_RAY_ALPHA_MAX = 0.999999
#: relative error the scalar aims for: the series guard checks it, the ray's
#: error is measured, not checked at run time
_ML_RTOL = 1e-11

KINDS = ("riemann_liouville", "yosida_g", "yosida_h", "custom")
SAMPLINGS = ("grunwald", "cell_average", "node")


@dataclass(frozen=True)
class KernelTable:
    """A causal kernel sampled on a uniform time grid.

    ``values[j]`` represents the kernel near ``t = j*dt`` for ``j >= 1``.  The
    ``sampling`` tag fixes the first-cell convention:

    * ``"grunwald"``      -- backward-difference quadrature weights whose
      generating function is ``dt**(beta-1) * (1-z)**(-beta)``; chosen so that
      the discrete convolution of complementary power kernels is exactly the
      constant 1 at every node.
    * ``"cell_average"``  -- exact cell means over ``[(j-1)*dt, j*dt]``; makes
      causal convolution against piecewise-constant data exact.
    * ``"node"``          -- plain point samples at the nodes.

    ``values[0]`` is the value at ``t = 0+`` when that limit is finite and NaN
    for kernels singular at the origin.
    """

    dt: float
    values: np.ndarray
    kind: str = "custom"
    sampling: str = "node"
    params: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "dt", _as_real(self.dt, "dt", 0.0))
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("values must be a 1-d sequence of length >= 2")
        if self.kind not in KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.sampling not in SAMPLINGS:
            raise DomainError(f"unknown sampling {self.sampling!r}")
        if not np.all(np.isfinite(vals[1:])):
            raise DomainError("values must be finite for j >= 1")
        if self.kind == "yosida_g":
            body = vals[1:] if not np.isfinite(vals[0]) else vals
            scale = max(abs(body[0]), 1.0)
            if np.any(body < -1e-14 * scale):
                raise DomainError("yosida_g table must be nonnegative")
            if np.any(np.diff(body) > 1e-13 * scale):
                raise DomainError("yosida_g table must be nonincreasing")
        if self.kind == "yosida_h":
            if np.any(vals[1:] < -1e-13 * max(abs(vals[1]), 1.0)):
                raise DomainError("yosida_h table must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.size - 1

    def cell_values(self) -> np.ndarray:
        """Per-cell representative values used by causal convolution (cells 1..m)."""
        if self.sampling in ("grunwald", "cell_average"):
            return self.values[1:]
        if not np.isfinite(self.values[0]):
            raise DomainError(
                "node-sampled table is singular at t=0; no cell representation"
            )
        return 0.5 * (self.values[:-1] + self.values[1:])



def rl_kernel(beta: float, t: float) -> float:
    """Power kernel t**(beta-1)/Gamma(beta); strictly positive for t > 0."""
    beta, t = _as_real(beta, "beta", 0.0), _as_real(t, "t", 0.0)
    return t ** (beta - 1.0) / gamma_fn(beta)


def _grunwald_coeffs(beta: float, m: int) -> np.ndarray:
    """Coefficients of (1-z)**(-beta), c_0..c_{m-1}; positive, monotone for beta<1."""
    c = np.empty(m)
    c[0] = 1.0
    if m > 1:
        k = np.arange(1.0, m)
        c[1:] = np.cumprod((k - 1.0 + beta) / k)
    return c


def rl_kernel_table(
    beta: float,
    dt: float,
    m: int,
    sampling: str = "grunwald",
    scale: float = 1.0,
) -> KernelTable:
    """Tabulate scale * g_beta on m steps of width dt under the given sampling."""
    beta, dt = _as_real(beta, "beta", 0.0), _as_real(dt, "dt", 0.0)
    m = _as_count(m, "m", 1)
    j = np.arange(0, m + 1, dtype=float)
    if sampling == "grunwald":
        body = dt ** (beta - 1.0) * _grunwald_coeffs(beta, m)
    elif sampling == "cell_average":
        body = np.diff((j * dt) ** beta) / (gamma_fn(beta + 1.0) * dt)
    elif sampling == "node":
        body = (j[1:] * dt) ** (beta - 1.0) / gamma_fn(beta)
    else:
        raise DomainError(f"unknown sampling {sampling!r}")
    if beta < 1.0:
        head = math.nan
    elif beta == 1.0:
        head = scale
    else:
        head = 0.0
    values = np.concatenate([[head], scale * body])
    return KernelTable(dt=dt, values=values, kind="riemann_liouville",
                       sampling=sampling, params=(beta, scale))


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

#: terms of the series' first pass, and of each retry where a pass finds no
#: tail cut or its largest term is its last
_SERIES_TERMS_TRIED = (512, 20000, 80000, 320000)


def _ml_series(alpha: float, beta: float, z: float, rtol: float):
    """Sum the defining power series; returns (value, ok).

    ok is False when the alternating-term cancellation makes the float error
    floor exceed rtol, or when terms would overflow, or when they are not
    negligible within the last of ``_SERIES_TERMS_TRIED``.  The log-terms
    are concave in n: a pass whose peak is not its last term has found it.
    """
    if z == 0.0:
        return 1.0 / gamma_fn(beta), True
    logz = math.log(abs(z))
    for size in _SERIES_TERMS_TRIED:
        n = np.arange(0, size, dtype=float)
        logs = n * logz - gammaln(alpha * n + beta)
        peak = int(np.argmax(logs))
        if logs[peak] > 690.0:
            return math.nan, False
        # truncate once terms are negligible in absolute terms past the peak
        tail = np.nonzero(logs[peak:] < -45.0)[0]
        if tail.size and peak < size - 1:
            break
    else:
        return math.nan, False
    stop = peak + int(tail[0]) + 1
    terms = np.exp(logs[:stop])
    if z < 0.0:
        terms[1::2] *= -1.0
    total = math.fsum(terms.tolist())
    if z > 0.0:
        return total, True
    err_floor = 5e-16 * math.exp(logs[peak])
    if abs(total) < 1e-290 or err_floor > rtol * abs(total):
        return total, False
    return total, True


def _ml_asymptotic(alpha: float, beta: float, s):
    """E_{alpha,beta}(-s) for s >= 1e6, scalar or array:
    -sum_{k=1..6} (-s)^-k / Gamma(beta - alpha k), by Horner in -1/s; an
    underflow reads +0.0 (0.0 - v negates every nonzero v exactly)."""
    coeffs = rgamma(beta - alpha * np.arange(6.0, 0.0, -1.0))
    return 0.0 - np.polyval(np.append(coeffs, 0.0), -1.0 / s)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Generalized Mittag-Leffler function E_{alpha,beta}(z) for real z.

    The arguments alone fix the path.  The power series serves |z| <= 5, and
    every z > 0, wherever its rounding floor meets ``_ML_RTOL``.  Past it,
    for 0 < alpha < 1, z <= -1e6 takes the asymptotic sum (any beta), and
    beta in {1, alpha} the M-Wright ray ``ml_on_negative_axis(alpha,
    beta)(-z)`` for alpha <= 0.999999, building the rule if it is not
    cached.  Every other call past the series raises ``AccuracyError``:
    another beta on 5 < -z < 1e6, alpha in (0.999999, 1), and z > 0 (where
    the series gives up on overflow, or on needing more than 320000 terms).
    alpha = 1, beta = 1 is the exponential, and alpha >= 1 is served on the
    series' range.
    """
    alpha, beta = _as_real(alpha, "alpha", 0.0), _as_real(beta, "beta", 0.0)
    z = _as_real(z, "z")
    if alpha == 1.0 and beta == 1.0:
        try:
            return math.exp(z)
        except OverflowError:
            raise AccuracyError(
                f"E_(1,1)({z}) overflows double precision") from None
    if abs(z) <= Z_SWITCH or z > 0.0 or alpha >= 1.0:
        val, ok = _ml_series(alpha, beta, z, _ML_RTOL)
        if ok:
            return val
    if z > 0.0:
        raise AccuracyError(
            f"E_({alpha},{beta})({z}) overflows double precision or needs "
            f"more than {_SERIES_TERMS_TRIED[-1]} series terms")
    if alpha < 1.0 and z <= -_S_ASYMPTOTIC:
        return float(_ml_asymptotic(alpha, beta, -z))
    if beta in (1.0, alpha) and alpha <= _RAY_ALPHA_MAX:
        return float(ml_on_negative_axis(alpha, beta)(-z))
    raise AccuracyError(
        f"no evaluation path for E_({alpha},{beta})({z}): past the series "
        f"the ray needs beta in {{1, alpha}} and alpha <= {_RAY_ALPHA_MAX}")


# ---------------------------------------------------------------------------
# M-Wright rule: the one quadrature behind both rays and the fundamental solution
# ---------------------------------------------------------------------------

#: levels of the Gumbel variable y = log W in Kanter's representation that
#: split the angle integral into panels; e^(y - e^y) < 1e-18 above 4 and its
#: e^y tail below -42 is carried by doubling levels (see ``_kanter_density``)
_GUMBEL_LEVELS = np.array([4.0, 2.9, 2.1, 1.4, 0.7, 0.0, -0.8, -1.6, -2.5,
                           -3.5, -4.7, -6.0, -7.5, -9.3, -11.3, -13.5, -16.0,
                           -19.0, -22.5, -26.5, -31.0, -36.0, -42.0])
#: the rule starts at r = e^-60, below which M_alpha holds under 1e-12 of
#: every certified moment
_LOG_R_MIN = -60.0
#: below u = log r = -1 the density is M_alpha's series in r, its k-th term
#: under r^k Gamma(a(k+1)) / (pi k!): 48 terms reach rounding for every a
_SERIES_U = -1.0
_SERIES_TERMS = 48
_MOMENT_DELTAS = np.array([-0.5, 0.0, 0.5, 1.0, 2.0])
_MOMENT_RTOL = 1e-10
#: rows of s (or radii) per block, so a block's matrix stays near 1 MB
_BLOCK = 256
#: exp(-y) is exactly 0.0 in double precision for y > 745.14; a term with
#: rates_k x > _DEAD_EXPONENT is therefore written as 0.0, not computed
_DEAD_EXPONENT = 750.0


def _exp_mixture(x: np.ndarray, rates: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k exp(-x rates_k) for each x >= 0, in blocks of x that
    reuse one buffer: a fresh ~1 MB block may be mmapped and faulted in anew.

    ``rates`` ascend, so the terms of a block with rates_k min(x) > 750 are
    one run at its end, found by binary search; each is exp(-y) at y >
    745.14, exactly 0.0, and is written as 0.0 rather than computed.  The
    matmul spans the whole block, so the result is bitwise the full sum."""
    flat = x.ravel()
    out = np.empty(flat.shape)
    buf = np.empty((min(_BLOCK, flat.size), rates.size))
    neg = -rates
    starts = range(0, flat.size, _BLOCK)
    for lo, low in zip(starts, np.minimum.reduceat(flat, starts).tolist()):
        blk = slice(lo, lo + _BLOCK)
        part = buf[:flat[blk].size]
        # the largest float whose product with low rounds to at most 750
        cut = _DEAD_EXPONENT / low if low else math.inf
        while cut * low > _DEAD_EXPONENT:
            cut = math.nextafter(cut, 0.0)
        while math.nextafter(cut, math.inf) * low <= _DEAD_EXPONENT:
            cut = math.nextafter(cut, math.inf)
        live = int(rates.searchsorted(cut, "right"))
        part[:, live:] = 0.0
        np.multiply.outer(flat[blk], neg[:live], out=part[:, :live])
        np.exp(part[:, :live], out=part[:, :live])
        np.matmul(part, weights, out=out[blk])
    return out.reshape(x.shape)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1], memoized: the module uses a few fixed orders, and each
    ``leggauss`` call is an eigenvalue solve."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_panels(edges: np.ndarray, n: int):
    """Composite n-point Gauss-Legendre rule on consecutive edges (last axis)."""
    x, w = _gauss_legendre(n)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    return ((mid[..., None] + half[..., None] * x).reshape(shape),
            (half[..., None] * w).reshape(shape))


def _kanter_log_b(zeta, a: float, slope: bool = False):
    """log B(phi) at phi = pi - eta, eta = e^zeta, with eta; optionally also
    d log B / d zeta.

    B(phi) = sin(phi) / (sin(a phi)^a sin((1-a) phi)^(1-a)) decreases from
    a^-a (1-a)^-(1-a) at phi = 0 to 0 at phi = pi.  Each sine is taken in the
    variable (phi or eta) that keeps its relative precision.
    """
    e = 1.0 - a
    eta = np.exp(zeta)
    phi = np.maximum(math.pi - eta, 1e-200)
    near = phi <= 0.5 * math.pi
    s1 = np.sin(np.where(near, phi, eta))
    sa = np.where(near, np.sin(a * phi), np.sin(e * math.pi + a * eta))
    se = np.sin(e * phi)
    log_b = np.log(s1) - a * np.log(sa) - e * np.log(se)
    if not slope:
        return log_b, eta
    c1 = np.where(near, np.cos(phi), -np.cos(eta))
    ca = np.where(near, np.cos(a * phi), -np.cos(e * math.pi + a * eta))
    d_phi = c1 / s1 - a * a * ca / sa - e * e * np.cos(e * phi) / se
    return log_b, eta, -eta * d_phi


def _m_wright_series(a: float, u: np.ndarray) -> np.ndarray:
    """Density r M_a(r) of log R at u = log r < -1: Horner in r over the
    first ``_SERIES_TERMS`` terms of sum_k (-r)^k / (k! Gamma(1 - a(k+1))),
    where (-1)^k / Gamma(1 - a(k+1)) = Gamma(a(k+1)) sin(pi (1-a)(k+1)) / pi
    with the sine taken at 180 min(a, 1-a) (k+1) degrees, so no term loses
    digits and a = 1/2 keeps its odd terms exactly 0."""
    k1 = np.arange(1.0, _SERIES_TERMS + 1.0)
    sign = -1.0 if a < 0.5 else 1.0     # (-1)^k sin(pi a(k+1)) for a < 1/2
    sine = sign ** (k1 - 1.0) * sindg(180.0 * min(a, 1.0 - a) * k1)
    coef = gamma_fn(a * k1) * rgamma(k1) * sine / math.pi
    r = np.exp(u)
    return r * np.polyval(coef[::-1], r)


def _kanter_density(a: float, edge: float, u: np.ndarray) -> np.ndarray:
    """Density of log R at u, for R = B(phi) W^(1-a) with phi uniform on
    (0, pi) and W standard exponential (Kanter 1975), so R ~ M_a(r) dr;
    ``edge`` is log B(0), the top of the support of log B.

    Given phi, (log R - log B) / (1-a) = y is Gumbel, so the density is
    (1/(pi (1-a))) int_0^pi exp(y - e^y) dphi.  The angle integral is taken
    in zeta = log(pi - phi), split where y crosses ``_GUMBEL_LEVELS``.  A
    level at or above the edge crosses at phi = 0, the others come from a
    table of log B refined by two Newton steps; only panels of positive
    width get Gauss points, their terms filling zeros in the all-panels
    layout, so the sum is bitwise that over every panel.
    """
    e = 1.0 - a
    log_pi = math.log(math.pi)
    # below y = -42 the integrand in zeta decays only like e^(a y); doubling
    # levels carry that tail down to a y < -84
    deep = -42.0 * 2.0 ** np.arange(1, math.ceil(-math.log2(a)) + 2)
    target = u[:, None] - e * np.concatenate([_GUMBEL_LEVELS, deep])
    crosses = target < edge
    t = target[crosses]
    z_tab = np.linspace(_LOG_R_MIN - 30.0, log_pi, 2000)[:-1]
    b_tab = np.maximum.accumulate(_kanter_log_b(z_tab, a)[0])
    z = np.interp(t, b_tab, z_tab, right=log_pi)
    below = t < b_tab[0]
    z[below] = z_tab[0] + (t[below] - b_tab[0])   # log B ~ zeta there
    for _ in range(2):
        log_b, _, d_log_b = _kanter_log_b(z, a, slope=True)
        d_log_b[d_log_b <= 0.0] = np.inf      # flat at phi = 0: stay put
        z = np.minimum(z + np.clip((t - log_b) / d_log_b, -1.0, 1.0), log_pi)
    zeta = np.full(target.shape, log_pi)
    zeta[crosses] = z
    # sorting keeps the panels contiguous should Newton cross two levels
    zeta = np.sort(zeta, axis=1)
    lo, hi = zeta[:, :-1], zeta[:, 1:]
    wide = lo < hi
    z, wz = _gauss_panels(np.stack([lo[wide], hi[wide]], 1), 16)
    log_b, eta = _kanter_log_b(z, a)
    y = (u[np.nonzero(wide)[0], None] - log_b) / e
    terms = np.zeros(wide.shape + (16,))
    terms[wide] = wz * eta * np.exp(y - np.exp(np.minimum(y, 700.0)))
    return np.sum(terms.reshape(u.size, -1), axis=1) / (math.pi * e)


@lru_cache(maxsize=64)
def m_wright_rule(alpha):
    """Positive quadrature (nodes r_k > 0, weights W_k > 0) for the M-Wright
    measure M_alpha(r) dr on r > 0, memoized on alpha (the 64 most recent).

    sum_k W_k f(r_k) approximates int f(r) M_alpha(r) dr; the density comes
    from M_alpha's series below r = 1/e, from Kanter's integral above.  The
    build checks the moments sum_k W_k r_k^d = Gamma(1+d)/Gamma(1+alpha d)
    for d in {-1/2, 0, 1/2, 1, 2} to 1e-10 relative, raising
    ``AccuracyError`` on a miss.  At alpha = 1 it is the unit mass at r = 1.
    """
    a = _as_alpha(alpha, classical_ok=True)
    if a == 1.0:
        nodes, weights = np.ones(1), np.ones(1)
    else:
        # Gauss panels in u = log r, graded geometrically from width (1-a)/2
        # at the edge u = log B(0) of M_a's support, where its density falls
        # off like exp(-e^((u - edge)/(1-a))), to width 2 on the left
        e = 1.0 - a
        edge = -a * math.log(a) - e * math.log(e)
        left, width = [edge], 0.5 * e
        while left[-1] > _LOG_R_MIN:
            left.append(left[-1] - width)
            width = min(2.0 * width, 2.0)
        right = edge + e * np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
        u, wu = _gauss_panels(np.concatenate([left[::-1], right]), 12)
        cut = np.searchsorted(u, _SERIES_U)
        # an overflow or NaN (a subnormal alpha) fails the moment check below
        with np.errstate(all="ignore"):
            weights = wu * np.concatenate([_m_wright_series(a, u[:cut]),
                                           _kanter_density(a, edge, u[cut:])])
        keep = weights > 0.0
        nodes, weights = np.exp(u[keep]), weights[keep]
    got = (nodes[None, :] ** _MOMENT_DELTAS[:, None]) @ weights
    exact = np.exp(gammaln(1.0 + _MOMENT_DELTAS)
                   - gammaln(1.0 + a * _MOMENT_DELTAS))
    miss = float(np.max(np.abs(got / exact - 1.0)))
    if not miss <= _MOMENT_RTOL:
        raise AccuracyError(
            f"M-Wright rule at alpha={a} misses a moment by {miss:.1e}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def ml_on_negative_axis(alpha: float, beta: float):
    """Vectorized s -> E_{alpha,beta}(-s) on s >= 0 for beta in {1, alpha}.

    E_alpha(-s) = int e^(-s r) M_alpha(r) dr and E_{alpha,alpha}(-s) =
    alpha int r e^(-s r) M_alpha(r) dr, both summed over ``m_wright_rule``
    in blocks of s; positive and nonincreasing in s by construction.  The
    terms with s r_k > 750 over a whole block are exactly 0.0 and are not
    computed (``_exp_mixture``); the sum is bitwise the full one.  From
    s = 1e6 on, past the rule's smallest node, it is the asymptotic sum.
    Any other beta raises ``DomainError``, as does a negative or NaN s.

    Its error, measured against 60-digit values and not checked at run time,
    is under 8e-13 (beta = 1) and 1e-11 (beta = alpha) for alpha from 1e-8
    to 0.999999.
    """
    a = _as_alpha(alpha, classical_ok=True)
    if beta not in (1.0, a):
        raise DomainError(f"the ray takes beta = 1 or beta = alpha, got {beta}")
    nodes, weights = m_wright_rule(a)
    if beta != 1.0:
        weights = a * nodes * weights

    def ray(s):
        s = np.asarray(s, dtype=float)
        if not np.all(s >= 0.0):
            raise DomainError("the ray takes s >= 0")
        out = _exp_mixture(s, nodes, weights)
        far = s >= _S_ASYMPTOTIC
        if far.any():
            out[far] = _ml_asymptotic(a, beta, s[far])
        return out

    return ray


# ---------------------------------------------------------------------------
# Volterra solver (on the blocked causal march) and the regularized kernels
# ---------------------------------------------------------------------------

def _pi_moments(kernel: KernelTable):
    """Zeroth and first moments of the kernel over lag cells.

    Exact for power-kernel tables; piecewise-linear reconstruction for node
    tables.  Returns (M0, M1) with M0[l] = int over [l dt, (l+1) dt] of k and
    M1[l] = int of (s - l dt) k(s) ds; M1 is None for cell tables.
    """
    dt, m = kernel.dt, kernel.m
    if kernel.kind == "riemann_liouville":
        beta, scale = kernel.params
        edges = np.arange(0, m + 2, dtype=float) * dt
        M0 = scale * np.diff(edges ** beta) / gamma_fn(beta + 1.0)
        I2 = scale * np.diff(edges ** (beta + 1.0)) / ((beta + 1.0) * gamma_fn(beta))
        return M0, I2 - edges[:-1] * M0
    if kernel.sampling == "node" and np.all(np.isfinite(kernel.values)):
        k = kernel.values
        M0 = dt * 0.5 * (k[:-1] + k[1:])
        M1 = dt * dt * (k[:-1] / 6.0 + k[1:] / 3.0)
        return M0, M1
    if kernel.sampling in ("cell_average", "grunwald"):
        return dt * kernel.cell_values(), None
    raise DomainError("kernel table does not support product-integration moments")


def solve_volterra(kernel: KernelTable, f, rule: str = "trapezoid") -> KernelTable:
    """Solve x + (kernel * x) = f by implicit product integration for a
    finite node-sampled right-hand side f (length kernel.m + 1).

    The implicit "trapezoid" rule treats the unknown as piecewise linear with
    exact kernel moments, "rectangle" as piecewise constant (positive and
    monotone for stiff kernels); both march on ``fracops._causal_march``.
    """
    f = np.asarray(f, dtype=float)
    dt, m = kernel.dt, kernel.m
    if f.shape != (m + 1,):
        raise DomainError(f"f must have length {m + 1}, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise DomainError("f must be finite")
    x = np.zeros((m + 1, 1))
    x[0] = f[0]
    M0, M1 = _pi_moments(kernel)
    if rule == "trapezoid":
        if M1 is None:
            raise DomainError("first moments unavailable for cell tables; "
                             "use rule='rectangle'")
        # tau-cell at lag l: x is linear between its endpoints; the node at the
        # smaller lag carries weight B = M0 - M1/dt, the other A = M1/dt, so
        # node i >= 1 weighs w[l] = B[l] + A[l-1] at lag l, x_0 weighs A[n-1]
        A = M1 / dt
        w = M0 - A
        w[1:m] += A[:m - 1]
        x[1:, 0] = A[:m] * f[0]
    elif rule == "rectangle":
        w = M0
    else:
        raise DomainError(f"unknown rule {rule!r}")
    diag = 1.0 + w[0]
    if abs(diag) < 1e-13 * max(1.0, abs(w[0])):
        raise SingularStepError("degenerate diagonal weight in implicit step")
    # every leaf solves the same lower-triangular Toeplitz block (diag on the
    # diagonal, w[l] on the l-th subdiagonal); its inverse is lower-triangular
    # Toeplitz too, with first column c from forward substitution on e_0,
    # filled by lag index
    k = min(_MARCH_BLOCK, m)
    c = np.zeros(k)
    c[0] = 1.0 / diag
    for n in range(1, k):
        c[n] = -(w[n:0:-1] @ c[:n]) / diag
    tinv = np.tril(c[np.subtract.outer(np.arange(k), np.arange(k))])
    col = x[:, 0]

    def leaf(lo, hi):
        col[lo:hi] = tinv[:hi - lo, :hi - lo] @ (f[lo:hi] - col[lo:hi])

    _causal_march(1, m + 1, leaf, x, w)
    return KernelTable(dt=dt, values=col, kind="custom", sampling="node")


def yosida_kernels(alpha, n: int, dt: float, m: int):
    """Regularized kernel pair for the Yosida approximation at level n.

    Solves the defining scalar Volterra equation for the bounded kernel by the
    monotone rectangle rule; the companion singular kernel is its negated
    derivative, recovered as exact cell averages of the discrete solution.
    Returns (g_n, h_n) where g_n = n * s_n.
    """
    a, n = _as_alpha(alpha), _as_count(n, "n", 1)
    base = rl_kernel_table(a, dt, m, sampling="cell_average", scale=float(n))
    s = solve_volterra(base, np.ones(m + 1), rule="rectangle").values
    g_vals = float(n) * s
    g_table = KernelTable(dt=dt, values=g_vals, kind="yosida_g",
                          sampling="node", params=(a, n))
    h_cells = -np.diff(s) / dt
    h_vals = np.concatenate([[math.nan], h_cells])
    h_table = KernelTable(dt=dt, values=h_vals, kind="yosida_h",
                          sampling="cell_average", params=(a, n))
    return g_table, h_table


@lru_cache(maxsize=64)
def _yosida_sign_changes(a: float) -> tuple:
    """The sign changes of h(s) = 1/(s Gamma(1-a)) - E_a(-s) to rounding,
    memoized on a.  h > 0 below s = c = 1/Gamma(1-a), so h is sampled from
    there to the ray's asymptotic switch, 20 points a decade; every bracket
    is bisected in log s at once, one ray call per step."""
    c, ray = 1.0 / gamma_fn(1.0 - a), ml_on_negative_axis(a, 1.0)
    edges = np.geomspace(c, _S_ASYMPTOTIC,
                         int(20 * math.log10(_S_ASYMPTOTIC / c)) + 2)
    up = c / edges > ray(edges)
    cut = np.flatnonzero(up[:-1] != up[1:])
    lo, hi, up = np.log(edges[cut]), np.log(edges[cut + 1]), up[cut]
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return tuple(np.exp(hi))
        s = np.exp(mid)
        left = (c / s > ray(s)) == up
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)


def yosida_l1_distance(alpha, n: int) -> float:
    """L1([0, 1]) distance of the level-n regularized kernel from its limit.

    Uses the closed form of the bounded kernel through the Mittag-Leffler
    ray, with 70 geometric 16-point Gauss panels toward the origin where the
    limit kernel is singular; grid tables cannot resolve the initial layer
    once n is large, this quadrature can.  The integrand
    t^-alpha/Gamma(1-alpha) - n E_alpha(-n t^alpha) is n h(n t^alpha) with
    h(s) = 1/(s Gamma(1-alpha)) - E_alpha(-s); for alpha > 1/2 h turns
    negative (its s^-2 term 1/Gamma(1-2 alpha) is), so each sign change
    s* of h, found once per alpha, becomes an edge t* = (s*/n)^(1/alpha)
    too, and every panel integrates a smooth function.  Against the same
    integrand on 140 80-point panels, split the same way, it is within
    2.1e-11 relative for alpha in {0.001, 0.3, 0.5, 0.7, 0.9, 0.999} and n
    in {1, 16, 256, 65536}.
    """
    a, n = _as_alpha(alpha), _as_count(n, "n", 1)
    ray = ml_on_negative_axis(a, 1.0)
    a0 = 1e-14
    # analytic head: on [0, a0] the bounded kernel is ~ n, the limit dominates
    head = a0 ** (1.0 - a) / gamma_fn(2.0 - a) - n * a0

    def diff(t):
        return t ** (-a) / gamma_fn(1.0 - a) - n * ray(n * t ** a)

    edges = np.concatenate([[a0], np.geomspace(a0 * 10.0, 1.0, 70)])
    cuts = (np.array(_yosida_sign_changes(a)) / n) ** (1.0 / a)
    edges = np.sort(np.concatenate([edges, cuts[(a0 < cuts) & (cuts < 1.0)]]))
    tm, wm = _gauss_panels(edges, 16)
    return float(abs(head) + np.dot(wm, np.abs(diff(tm))))
