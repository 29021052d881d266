"""Box geometry and measurement harness: averaged-value versus infimum
ratios over time-separated space-time boxes, oscillation decay at t = 0,
maximum-principle checks, and the weighted Poincare verifier."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateDataError, DomainError, EmptyRegionError,
                     InvalidWeightError, _as_alpha, _as_point, _as_real)
from .fundsol import _SPHERE_AREA, critical_exponent
from .solver import (SolveResult, SpaceGrid, _source_values, _tensor_field,
                     supersolution_residual)

__all__ = [
    "BoxRegion",
    "HarnackConfig",
    "HarnackReport",
    "harnack_boxes",
    "lp_mean",
    "essinf",
    "harnack_ratio_sweep",
    "OscillationFit",
    "oscillation_decay",
    "MaxPrincipleReport",
    "max_principle_check",
    "ConeWeight",
    "cone_weight",
    "PoincareCheck",
    "weighted_poincare_check",
]


@dataclass(frozen=True)
class BoxRegion:
    """Space-time box: a time interval times a ball (interval/disc)."""

    t_lo: float
    t_hi: float
    center: tuple
    radius: float

    def __post_init__(self):
        t_lo = _as_real(self.t_lo, "t_lo")
        object.__setattr__(self, "t_lo", t_lo)
        object.__setattr__(self, "t_hi", _as_real(self.t_hi, "t_hi", t_lo))
        object.__setattr__(self, "center", _as_point(self.center, "center"))
        object.__setattr__(self, "radius", _as_real(self.radius, "radius", 0.0))

    def masks(self, times, coords, closed: bool = True):
        """Time mask over the values ``times`` and space mask over the tensor
        grid of the per-axis ``coords``: closed, with both bounds widened by
        1e-14, for grid nodes; open, with strict bounds, for cell midpoints.
        A region that selects no time or no place raises EmptyRegionError."""
        d2 = _dist2(coords, self.center)
        r2 = self.radius ** 2
        if closed:
            tmask = (times >= self.t_lo - 1e-14) & (times <= self.t_hi + 1e-14)
            smask = d2 <= r2 + 1e-14
        else:
            tmask, smask = (times > self.t_lo) & (times < self.t_hi), d2 < r2
        if not (tmask.any() and smask.any()):
            raise EmptyRegionError("the region holds no grid "
                                   + ("nodes" if closed else "cell midpoints"))
        return tmask, smask


@dataclass(frozen=True)
class HarnackConfig:
    """Geometry parameters of the two-box measurement."""

    delta: float
    eta: float
    tau: float
    t0: float
    x0: tuple
    r: float
    alpha: float

    def __post_init__(self):
        for name, low, high, closed in (
                ("delta", 0.0, 1.0, ""), ("eta", 1.0, math.inf, ""),
                ("tau", 0.0, math.inf, ""), ("t0", 0.0, math.inf, "low"),
                ("r", 0.0, math.inf, "")):
            object.__setattr__(self, name, _as_real(
                getattr(self, name), name, low, high, closed))
        object.__setattr__(self, "alpha", _as_alpha(self.alpha))
        object.__setattr__(self, "x0", _as_point(self.x0, "x0"))

    @property
    def time_scale(self) -> float:
        return self.tau * self.r ** (2.0 / self.alpha)

    @property
    def horizon(self) -> float:
        return self.t0 + 2.0 * self.time_scale


def harnack_boxes(config: HarnackConfig):
    """The early box (starting at t0) and the late box (ending at the
    horizon), both over the shrunken ball of radius delta*r; disjoint in
    time with a gap of (2 - 2*delta) * tau * r^(2/alpha)."""
    ts = config.time_scale
    d = config.delta
    early = BoxRegion(t_lo=config.t0, t_hi=config.t0 + d * ts,
                      center=config.x0, radius=d * config.r)
    late = BoxRegion(t_lo=config.t0 + (2.0 - d) * ts,
                     t_hi=config.t0 + 2.0 * ts,
                     center=config.x0, radius=d * config.r)
    return early, late


def _check_region_inside(result: SolveResult, region: BoxRegion) -> None:
    space, r = result.spec.space, region.radius
    if len(region.center) != space.dimension:
        raise DomainError("region center dimension does not match the grid")
    if any(c - r < lo - 1e-12 or c + r > hi + 1e-12 for c, lo, hi in
           zip(region.center, space.lower, space.upper)):
        raise DomainError("region ball is not contained in the domain")
    if region.t_hi > result.spec.time.horizon * (1.0 + 1e-12):
        raise DomainError("region extends past the solved time horizon")


def _dist2(coords, center) -> np.ndarray:
    """Squared distance to ``center`` of every point of the tensor grid
    spanned by the per-axis ``coords``."""
    return _tensor_field(np.add, [(x - c) ** 2 for x, c in
                                  zip(coords, center, strict=True)])


def _cell_midpoint_values(result: SolveResult, region: BoxRegion):
    """Multilinear-center values of u on the space-time cells whose
    midpoints lie in the region (all cells have one measure)."""
    space, time = result.spec.space, result.spec.time
    t_mid, *mids = [0.5 * (x[:-1] + x[1:]) for x in (time.nodes, *space.axes())]
    tmask, smask = region.masks(t_mid, mids, closed=False)
    # the work scales with the region: only its cells' index box is averaged
    cells = tuple(slice(i.min(), i.max() + 1)
                  for i in np.nonzero(tmask) + np.nonzero(smask))
    u = result.u[tuple(slice(c.start, c.stop + 1) for c in cells)]
    # the 2^N corners of every cell, axis 0 running fastest
    dim = space.dimension
    corners = [u[(slice(None),) + c[::-1]] for c in
               itertools.product((slice(None, -1), slice(1, None)), repeat=dim)]
    umid_space = 0.5 ** dim * sum(corners[1:], corners[0])
    umid = 0.5 * (umid_space[:-1] + umid_space[1:])
    return umid[tmask[cells[0]]][:, smask[cells[1:]]].ravel()


def _region_cell_values(result: SolveResult, region: BoxRegion,
                        scale: float) -> np.ndarray:
    """Cell-center values in the region, rounding-level negatives (down to
    -1e-10 of ``scale``) set to 0; anything lower raises."""
    _check_region_inside(result, region)
    vals = _cell_midpoint_values(result, region)
    if np.any(vals < -1e-10 * scale):
        raise DomainError(
            f"field is negative on the region (min {vals.min():.3e})"
        )
    return np.maximum(vals, 0.0)


def _power_mean(vals: np.ndarray, p: float) -> float:
    p = _as_real(p, "p", 0.0)
    return float(np.mean(vals ** p) ** (1.0 / p))


def lp_mean(result: SolveResult, region: BoxRegion, p: float) -> float:
    """Space-time power mean of u over the grid cells whose midpoints fall in
    the region (cell measures are exact, the field enters by its cell-center
    value)."""
    scale = max(float(np.abs(result.u).max()), 1.0)
    return _power_mean(_region_cell_values(result, region, scale), p)


def essinf(result: SolveResult, region: BoxRegion) -> float:
    """Grid-node minimum over the region (discrete essential-infimum
    surrogate: solutions are continuous piecewise fields)."""
    _check_region_inside(result, region)
    tmask, smask = region.masks(result.spec.time.nodes,
                                result.spec.space.axes())
    return float(result.u[tmask][:, smask].min())


@dataclass(frozen=True)
class HarnackReport:
    """One measurement row of the two-box experiment."""

    p: float
    lp_mean: float
    essinf: float
    ratio: float
    grid: str
    below_critical: bool


def harnack_ratio_sweep(result: SolveResult, config: HarnackConfig,
                        p_values: Sequence[float],
                        check_supersolution: bool = True) -> list:
    """Measure the power-mean-to-infimum ratio for each exponent.

    Preconditions enforced: the solved horizon covers the late box, the
    enlarged ball sits inside the domain, the initial data is nonnegative on
    it, the field is nonnegative globally in time from t = 0 (a local sign
    condition is not enough for memory equations), and the run passes the
    discrete supersolution test.  Each test allows 1e-8 (relative to the
    field's scale where the field enters) for rounding.
    """
    spec = result.spec
    if abs(config.alpha - spec.alpha) > 1e-12:
        raise DomainError("config and solve disagree on alpha")
    if config.horizon > spec.time.horizon * (1.0 + 1e-12):
        raise DomainError("solve horizon too short for the two-box geometry")
    space = spec.space
    big_ball = BoxRegion(t_lo=0.0, t_hi=max(config.horizon, spec.time.dt),
                         center=config.x0, radius=config.eta * config.r)
    _check_region_inside(result, big_ball)
    scale = max(float(np.abs(result.u).max()), 1.0)
    _, ball_mask = big_ball.masks(spec.time.nodes, space.axes())
    if np.any(spec.u0[ball_mask] < -1e-8 * scale):
        raise DomainError("initial data must be nonnegative on the large ball")
    if float(result.u.min()) < -1e-8 * scale:
        raise DomainError("field must be nonnegative globally from t = 0")
    if check_supersolution and supersolution_residual(result) < -1e-8:
        raise DomainError("run fails the discrete supersolution test")

    early, late = harnack_boxes(config)
    crit = critical_exponent(config.alpha, space.dimension)
    grid_tag = f"m={spec.time.m},cells={'x'.join(str(n) for n in space.cells)}"
    inf_p = essinf(result, late)
    early_vals = _region_cell_values(result, early, scale)
    reports = []
    for p in p_values:
        mean_p = _power_mean(early_vals, p)
        ratio = mean_p / inf_p if inf_p > 1e-8 * scale else math.inf
        reports.append(HarnackReport(p=float(p), lp_mean=mean_p,
                                     essinf=inf_p, ratio=ratio,
                                     grid=grid_tag,
                                     below_critical=p < crit))
    return reports


# ---------------------------------------------------------------------------
# oscillation decay at t = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscillationFit:
    """Least-squares decay fit of the oscillation over shrinking boxes."""

    slope: float
    intercept: float
    radii: tuple
    oscillations: tuple


def oscillation_decay(result: SolveResult, x0, r_list,
                      eta: float = 1.0) -> OscillationFit:
    """Oscillation of u over (0, eta*r^(2/alpha)) x B(x0, r) for decreasing
    radii, with the fitted slope of log osc against log r.

    Requires vanishing initial data and nonzero boundary data (otherwise the
    run is identically zero and the fit is degenerate).
    """
    spec = result.spec
    if np.abs(spec.u0).max() > 1e-12 * max(1.0, np.abs(result.u).max()):
        raise DomainError("oscillation decay requires vanishing initial data")
    x0, eta = _as_point(x0, "x0"), _as_real(eta, "eta", 0.0)
    radii = [float(r) for r in r_list]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly decreasing")
    alpha = spec.alpha
    oscs = []
    for r in radii:
        region = BoxRegion(t_lo=0.0, t_hi=eta * r ** (2.0 / alpha),
                           center=x0, radius=r)
        _check_region_inside(result, region)
        tmask, smask = region.masks(spec.time.nodes, spec.space.axes())
        block = result.u[tmask][:, smask]
        oscs.append(float(block.max() - block.min()))
    if max(oscs) <= 1e-12:
        raise DegenerateDataError("oscillation is zero for every radius")
    coeff = np.polyfit(np.log(radii), np.log(np.maximum(oscs, 1e-300)), 1)
    return OscillationFit(slope=float(coeff[0]), intercept=float(coeff[1]),
                          radii=tuple(radii), oscillations=tuple(oscs))


# ---------------------------------------------------------------------------
# maximum principle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxPrincipleReport:
    lower: float
    upper: float
    min_u: float
    max_u: float
    bounds_ok: bool
    interior_max: float
    interior_margin: float
    constant_data: bool


def max_principle_check(result: SolveResult) -> MaxPrincipleReport:
    """Verify min(data) <= u <= max(data) (data: initial values and boundary
    rows) up to 1e-10 of the data's scale, and measure how far the
    late-interior maximum sits below the global data maximum.  Requires zero
    forcing at every time node."""
    spec = result.spec
    if spec.forcing is not None:
        pts = spec.space.node_points()
        if any(np.any(_source_values(spec.forcing, t, pts) != 0.0)
               for t in spec.time.nodes):
            raise DomainError("maximum principle check requires zero forcing")
    space = spec.space
    bmask = space.boundary_mask()
    data_vals = np.concatenate([spec.u0.ravel(),
                                result.u[:, bmask].ravel()])
    lower, upper = float(data_vals.min()), float(data_vals.max())
    scale = max(abs(lower), abs(upper), 1.0)
    min_u, max_u = float(result.u.min()), float(result.u.max())
    bounds_ok = (min_u >= lower - 1e-10 * scale) and (max_u <= upper + 1e-10 * scale)

    # late interior cylinder: second half of time, inner half of every axis
    # (which leaves out the boundary nodes)
    tmask = spec.time.nodes >= 0.5 * spec.time.horizon
    inner = _tensor_field(np.logical_and, [
        (x >= lo + 0.25 * (hi - lo)) & (x <= hi - 0.25 * (hi - lo))
        for x, lo, hi in zip(space.axes(), space.lower, space.upper)])
    interior_max = float(result.u[tmask][:, inner].max())
    constant = (upper - lower) <= 1e-10 * scale
    return MaxPrincipleReport(
        lower=lower, upper=upper, min_u=min_u, max_u=max_u,
        bounds_ok=bounds_ok, interior_max=interior_max,
        interior_margin=upper - interior_max,
        constant_data=constant)


# ---------------------------------------------------------------------------
# weighted Poincare inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeWeight:
    """Clamped-cone weight: 1 inside the plateau (the inner half of the
    support radius), linear decay to 0 at the support radius.  Superlevel
    sets are concentric balls, hence convex."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise InvalidWeightError("support radius must be finite and "
                                     f"positive, got {self.radius!r}")
        object.__setattr__(self, "center", _as_point(self.center, "center"))

    def values(self, space: SpaceGrid) -> np.ndarray:
        _check_center(self.center, space)
        dist = np.sqrt(_dist2(space.axes(), self.center))
        return np.clip((self.radius - dist) / (0.5 * self.radius), 0.0, 1.0)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def support_measure(self, dim: int) -> float:
        """Measure of the support ball in dimension ``dim``."""
        return _SPHERE_AREA[dim] * self.radius ** dim / dim


def _check_center(center, space: SpaceGrid) -> None:
    if len(center) != space.dimension:
        raise InvalidWeightError(
            f"cone center has dimension {len(center)}, the grid "
            f"{space.dimension}")


def cone_weight(space: SpaceGrid, center=None,
                radius: Optional[float] = None) -> ConeWeight:
    """Cone weight centered in the box, supported strictly inside it."""
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    center = np.array(_as_point(0.5 * (lo + hi) if center is None else center,
                                "center"))
    _check_center(center, space)
    if radius is None:
        radius = 0.45 * float((hi - lo).min())
    w = ConeWeight(center=center, radius=float(radius))
    if np.any(center - radius < lo) or np.any(center + radius > hi):
        raise InvalidWeightError("cone support must fit inside the box")
    return w


@dataclass(frozen=True)
class PoincareCheck:
    lhs: float
    rhs: float
    passed: bool
    ratio: float


def _trapezoid_weights(space: SpaceGrid) -> np.ndarray:
    parts = []
    for n, h in zip(space.cells, space.h):
        w = np.full(n + 1, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        parts.append(w)
    return _tensor_field(np.multiply, parts)


# relative allowance on the Poincare bound for the trapezoid quadrature and
# the finite-difference gradient that discretize both of its sides
_POINCARE_SLACK = 0.02


def weighted_poincare_check(space: SpaceGrid, u: np.ndarray,
                            weight: ConeWeight) -> PoincareCheck:
    """Check the weighted mean-deviation bound for a cone weight phi: the
    phi-weighted variance of u is controlled by 2 d^2 mu(supp phi)/|phi|_1
    times the phi-weighted gradient energy, up to the relative
    ``_POINCARE_SLACK``.  Any other weight raises ``InvalidWeightError``."""
    if not isinstance(weight, ConeWeight):
        raise InvalidWeightError(
            f"weight must be a ConeWeight, got {type(weight).__name__}")
    u = np.asarray(u, dtype=float)
    if u.shape != space.shape:
        raise DomainError(f"u has shape {u.shape}, grid nodes {space.shape}")
    qw = _trapezoid_weights(space)
    phi = weight.values(space)
    diam = weight.diameter
    supp = weight.support_measure(space.dimension)
    phi_l1 = float(np.sum(qw * phi))
    if phi_l1 <= 0.0:
        raise InvalidWeightError("weight has zero mass")
    u_mean = float(np.sum(qw * u * phi)) / phi_l1
    lhs = float(np.sum(qw * (u - u_mean) ** 2 * phi))
    grads = [np.gradient(u, h, axis=ax) for ax, h in enumerate(space.h)]
    energy = float(np.sum(qw * sum(g * g for g in grads) * phi))
    rhs = 2.0 * diam ** 2 * supp / phi_l1 * energy
    # absolute rounding allowance so constant fields (rhs = 0) pass cleanly
    eps_abs = 1e-24 * float(np.sum(qw * u * u * phi) + 1.0)
    return PoincareCheck(lhs=lhs, rhs=rhs,
                         passed=lhs <= rhs * (1.0 + _POINCARE_SLACK) + eps_abs,
                         ratio=lhs / rhs if rhs > 0.0 else math.inf)
