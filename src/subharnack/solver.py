"""Implicit finite-difference solver for time-fractional diffusion
with measurable bounded coefficients on an interval or rectangle.

Space: vertex-centered differences, one harmonic-mean weight per face,
which keeps fluxes consistent across jumps and L symmetric.  Time: product
integration of the memory term with positive decreasing weights, so every
time level solves an M-matrix system and the discrete comparison principle
holds exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import (DomainError, GridMismatchError, LinearSolveError,
                     _as_alpha, _as_count, _as_point, _as_real)
from .fracops import (SampledPath, TimeGrid, _causal_march, _l1_scheme,
                      causal_sum)
from .kernels import rl_kernel_table, solve_volterra

__all__ = [
    "SpaceGrid",
    "CoefficientField",
    "checkerboard_coefficients",
    "constant_coefficients",
    "ProblemSpec",
    "SolveResult",
    "solve_subdiffusion",
    "solve_scalar_relaxation",
    "supersolution_residual",
]

BoundaryData = Union[None, float, Callable[[float, np.ndarray], np.ndarray]]
Forcing = Union[None, float, Callable[[float, np.ndarray], np.ndarray]]


def _tensor_field(ufunc, parts) -> np.ndarray:
    """``ufunc`` over the tensor grid spanned by the per-axis arrays
    ``parts``: entry (i, j, ...) is ufunc(parts[0][i], parts[1][j], ...),
    applied axis by axis.  One axis gives ``parts[0]`` itself."""
    return reduce(ufunc.outer, parts)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform vertex grid on an interval (N=1) or axis-aligned rectangle (N=2)."""

    lower: tuple
    upper: tuple
    cells: tuple

    def __post_init__(self):
        # equal grids share one stencil, so _as_point reads -0.0 as 0.0:
        # they must have the same node points to the bit
        lo, hi = _as_point(self.lower, "lower"), _as_point(self.upper, "upper")
        nc = tuple(_as_count(n, "a cell count", 4)
                   for n in np.atleast_1d(self.cells))
        if not (len(lo) == len(hi) == len(nc)):
            raise DomainError("lower/upper/cells must have matching lengths")
        if len(lo) not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {len(lo)}")
        if not all(a < b for a, b in zip(lo, hi)):
            raise DomainError("upper bound must exceed lower bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "cells", nc)

    @classmethod
    def interval(cls, a: float, b: float, cells: int) -> "SpaceGrid":
        return cls((a,), (b,), (cells,))

    @classmethod
    def rectangle(cls, lower, upper, cells) -> "SpaceGrid":
        return cls(tuple(lower), tuple(upper), tuple(cells))

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def h(self) -> tuple:
        return tuple((b - a) / n for a, b, n in
                     zip(self.lower, self.upper, self.cells))

    @property
    def shape(self) -> tuple:
        return tuple(n + 1 for n in self.cells)

    def axes(self) -> list:
        return [np.linspace(a, b, n + 1) for a, b, n in
                zip(self.lower, self.upper, self.cells)]

    def node_points(self) -> np.ndarray:
        """All node coordinates, shape self.shape + (N,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_mask(self) -> np.ndarray:
        """Nodes off the interior box of every axis (node indices 1..n-1)."""
        return ~_tensor_field(np.logical_and,
                              [np.arange(n + 1) % n > 0 for n in self.cells])

    @cached_property
    def _stencil(self) -> "_Stencil":
        """The grid's stencil, built on first use and shared with every
        equal grid alive; it is freed with the last grid that holds it."""
        key = (self.lower, self.upper, self.cells)
        stencil = _stencils.get(key)
        if stencil is None:
            stencil = _stencils[key] = _Stencil(self)
        return stencil

    def __getstate__(self):
        """Pickles and copies leave the stencil behind, to share the live one."""
        return {k: v for k, v in vars(self).items() if k != "_stencil"}


@dataclass
class CoefficientField:
    """Diffusion coefficient A(t, x): scalar or per-axis diagonal values.

    ``evaluate(time_index, points)`` takes points of shape (..., N) and
    returns either (...,) for isotropic fields or (..., N) for diagonal
    tensors.  ``nu`` and ``lambda_bound`` are the claimed ellipticity and
    magnitude bounds.  The solve samples the field at the quarter points of
    every face, at level 1 for a static field and at every level otherwise,
    and keys each level on the raw samples (their shape and bytes): a new
    key is checked against both bounds before any level is solved.
    """

    evaluate: Callable[[int, np.ndarray], np.ndarray]
    nu: float
    lambda_bound: float
    time_dependent: bool = True
    name: str = "custom"

    @staticmethod
    def _per_axis(vals, points: np.ndarray, dim: int) -> np.ndarray:
        """``evaluate``'s values on ``points`` as (..., dim) diagonals."""
        vals = np.asarray(vals, dtype=float)
        if vals.shape == points.shape[:-1]:  # isotropic: a read-only view
            vals = np.broadcast_to(vals[..., None], vals.shape + (dim,))
        if vals.shape != points.shape[:-1] + (dim,):
            raise DomainError(
                f"coefficient evaluator returned shape {vals.shape}; expected "
                f"{points.shape[:-1]} or {points.shape[:-1] + (dim,)}"
            )
        return vals


def constant_coefficients(value: float = 1.0, dim: int = 1) -> CoefficientField:
    """Spatially and temporally constant isotropic coefficient."""
    value = _as_real(value, "value", 0.0)

    def evaluate(_ti, points):
        return np.full(points.shape[:-1], value)

    return CoefficientField(evaluate=evaluate, nu=value,
                            lambda_bound=value * np.sqrt(dim),
                            time_dependent=False, name=f"constant({value})")


def checkerboard_coefficients(
    space: SpaceGrid,
    period: int,
    low: float,
    high: float,
    time_flip: Optional[int] = None,
) -> CoefficientField:
    """Piecewise-constant scalar field alternating low/high per block of
    ``period`` cells along each axis, optionally swapping the two values
    every ``time_flip`` time steps (discontinuous in time).  ``period`` and
    ``time_flip`` are integers of at least 1.  The block pattern is computed
    once per point set: ``evaluate`` keeps the latest set's pattern under
    its dtype, shape and bytes, so an array changed in place gets a new one,
    and each call only picks low or high by the level's flip."""
    low = _as_real(low, "low", 0.0)
    high = _as_real(high, "high", low, closed="low")
    period = _as_count(period, "period", 1)
    if time_flip is not None:
        time_flip = _as_count(time_flip, "time_flip", 1)
    lo = np.asarray(space.lower)
    h = np.asarray(space.h)
    ncells = np.asarray(space.cells)
    latest = [(None, None)]  # (key, block parity) of the latest point set

    def evaluate(time_index, points):
        points = np.asarray(points)
        key, kept = (points.dtype.str, points.shape, points.tobytes()), latest[0]
        if kept[0] != key:
            block = np.floor((points - lo) / (period * h)).astype(int)
            block = np.minimum(block, (ncells - 1) // period)
            block = np.maximum(block, 0)
            kept = latest[0] = key, np.sum(block, axis=-1) % 2
        flip = 0 if time_flip is None else time_index // time_flip % 2
        return np.where(kept[1] == flip, low, high)

    # nu = low and lambda = high * sqrt(N) hold by construction; the solve
    # checks them on the samples it uses
    return CoefficientField(
        evaluate=evaluate,
        nu=low,
        lambda_bound=high * np.sqrt(space.dimension),
        time_dependent=time_flip is not None,
        name=f"checkerboard(period={period}, low={low}, high={high})",
    )


@dataclass
class ProblemSpec:
    """Full description of one initial-boundary value problem."""

    alpha: float
    space: SpaceGrid
    time: TimeGrid
    u0: np.ndarray
    boundary: BoundaryData = None
    forcing: Forcing = None
    coefficients: CoefficientField = None

    def __post_init__(self):
        self.alpha = _as_alpha(self.alpha, classical_ok=True)
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.u0.shape != self.space.shape:
            raise GridMismatchError(
                f"u0 has shape {self.u0.shape}, grid nodes are {self.space.shape}"
            )
        if not np.all(np.isfinite(self.u0)):
            raise DomainError("u0 contains non-finite values")
        if self.coefficients is None:
            self.coefficients = constant_coefficients(1.0, self.space.dimension)


def _source_values(src, t: float, points: np.ndarray):
    """Boundary or forcing data ``src`` at time t on ``points``: a callable's
    values as a float array, else the constant (0.0 for None), which
    broadcasts over the points."""
    if callable(src):
        return np.asarray(src(t, points), dtype=float)
    return 0.0 if src is None else float(src)


@dataclass
class SolveResult:
    """Space-time solution array plus the problem that produced it;
    ``diagnostics`` holds each level's relative residual.  The coefficient
    states' operators L, each its per-axis face weights, are walked once,
    on first use, for solve and weak form."""

    spec: ProblemSpec
    u: np.ndarray
    diagnostics: list = field(default_factory=list)

    @cached_property
    def _operators(self):
        return _level_operators(self.spec)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_samples(fld: CoefficientField, vals: np.ndarray, n: int) -> None:
    """The field's claims on its samples (P, N) at level n: a diagonal
    tensor's ellipticity is its smallest entry, its magnitude the Frobenius
    norm.  Both run column by column, since a reduction over the short last
    axis costs more than N elementwise passes."""
    low, square = vals[:, 0], vals[:, 0] * vals[:, 0]
    for col in vals.T[1:]:
        low = np.minimum(low, col)
        square += col * col
    if not np.isfinite(vals).all():
        what = "is not finite"
    elif not np.all((low > 0.0) & (low >= fld.nu - 1e-12)):
        what = f"breaks its ellipticity bound nu={fld.nu!r}"
    elif not np.all(np.sqrt(square) <= fld.lambda_bound + 1e-12):
        what = f"breaks its magnitude bound lambda_bound={fld.lambda_bound!r}"
    else:
        return
    raise DomainError(f"coefficient field {fld.name!r} {what} at level {n}")


class _Stencil:
    """What the 3-/5-point operator L needs of the grid: the quarter points
    and widths of its faces, the interior and boundary nodes and their
    points.  Built once per grid (``SpaceGrid._stencil``) and shared by the
    equal grids alive with it, so every array is read-only.

    A coefficient state's L is its face weights ``W``, one array per axis
    shaped as that axis's faces (face i joins nodes i and i + 1).  Faces run
    axis by axis in C order of their low nodes; ``quarters`` holds every
    face's low quarter point, then every high one.  ``inner`` ranks the
    interior nodes with the longer axis outermost, so c0 I + L on them is
    banded with ``kd = min(cells) - 1`` superdiagonals (1 on an interval).
    """

    def __init__(self, space: SpaceGrid):
        dim, cells = space.dimension, space.cells
        points = space.node_points()
        low, high, self.faces, stop = [], [], [], 0
        for ax, h in enumerate(space.h):
            q = points[(slice(None),) * ax + (slice(-1),)]
            for frac, part in ((0.25, low), (0.75, high)):
                part.append(q.copy())
                part[-1][..., ax] += frac * h
            start, stop = stop, stop + q[..., 0].size
            self.faces.append((start, stop, q.shape[:-1], h * h))
        self.quarters = np.concatenate([q.reshape(-1, dim) for q in low + high])
        # the longer axis outermost; a square grid keeps C order
        order = sorted(range(dim), key=lambda ax: -cells[ax])
        self.ranked = tuple(cells[ax] - 1 for ax in order)
        self.unrank = tuple(np.argsort(order).tolist()) + (dim,)
        self.stride = [int(np.prod(self.ranked[order.index(ax) + 1:]))
                       for ax in range(dim)]
        self.kd = self.stride[order[0]]
        nodes = np.arange(points[..., 0].size).reshape(space.shape)
        self.inner = nodes[(slice(1, -1),) * dim].transpose(order).ravel()
        self.outer = np.flatnonzero(space.boundary_mask())
        points = points.reshape(-1, dim)
        self.pts_in, self.pts_out = points[self.inner], points[self.outer]
        shared = list(vars(self).values())
        while shared:
            value = shared.pop()
            if isinstance(value, (tuple, list)):
                shared.extend(value)
            elif isinstance(value, np.ndarray):
                value.flags.writeable = False

    def weights(self, vals: np.ndarray) -> tuple:
        """Per-axis face weights from the field's samples at ``quarters``:
        the harmonic mean of a face's two quarter points on its own axis,
        over h^2 (exact for cell-constant fields)."""
        half, W = len(vals) // 2, []
        for ax, (start, stop, shape, h2) in enumerate(self.faces):
            a1, a2 = vals[start:stop, ax], vals[half + start:half + stop, ax]
            W.append((2.0 * a1 * a2 / (a1 + a2) / h2).reshape(shape))
        return tuple(W)

    @staticmethod
    def apply(W: tuple, U: np.ndarray) -> np.ndarray:
        """L U over the leading grid axes of U: each face's flux
        w (u_hi - u_lo) leaves its low node and enters its high node.  W
        broadcasts over U's trailing axes: with a trailing level axis, each
        level's weights apply to that level's column of U."""
        out = np.zeros_like(U)
        for ax, w in enumerate(W):
            lo = (slice(None),) * ax + (slice(-1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            flux = U[hi] - U[lo]
            flux *= w[(...,) + (None,) * (U.ndim - w.ndim)]
            out[lo] -= flux
            out[hi] += flux
        return out

    def band(self, W: tuple, c0: float) -> np.ndarray:
        """The upper band of c0 I + L on the interior nodes, entry (i, j) at
        [kd + i - j, j] of a Fortran-ordered array.  The diagonal adds the
        face weights to 0.0 axis by axis, low end first, then c0: bitwise
        the sum of a COO assembly.  An interior stride k away, a face's -w
        sits on band row kd - k, in the column of its high node."""
        ab = np.zeros(self.ranked + (self.kd + 1,))
        grid = ab.transpose(self.unrank)

        def inside(ax, own):
            return tuple(own if k == ax else slice(1, -1) for k in range(len(W)))

        diag = grid[..., self.kd]
        for ax, w in enumerate(W):
            diag += w[inside(ax, slice(1, None))]
            diag += w[inside(ax, slice(None, -1))]
            above = (slice(None),) * ax + (slice(1, None),)
            grid[above + (Ellipsis, self.kd - self.stride[ax])] = \
                -w[inside(ax, slice(1, -1))]
        diag += c0
        return ab.reshape(-1, self.kd + 1).T


#: the stencil of every live grid under the grid's fields: a grid key would
#: be held strongly, and keep its own stencil alive for ever
_stencils = weakref.WeakValueDictionary()


def _level_operators(spec: ProblemSpec):
    """Distinct full-node operators L (no c0 term) of levels 1..m, each its
    per-axis face weights, and the index of the one in force at each level.
    L sums, over every face, the face weight times the jump across it.
    This is the only sampling of the field: the quarter points of all faces,
    from the grid's stencil, are evaluated in one call, at level 1
    for a static field, else at every level.  Equal raw samples share one
    operator, keyed by their shape and bytes; only a new key is broadcast
    to per-axis values and checked against the field's claims."""
    m, fld, stencil = spec.time.m, spec.coefficients, spec.space._stencil
    levels = range(1, m + 1) if fld.time_dependent else (1,)
    keys, ops, state = {}, [], []
    for n in levels:
        raw = np.asarray(fld.evaluate(n, stencil.quarters), dtype=float)
        key = (raw.shape, raw.tobytes())
        if key not in keys:
            vals = fld._per_axis(raw, stencil.quarters, spec.space.dimension)
            _check_samples(fld, vals, n)
            keys[key] = len(ops)
            ops.append(stencil.weights(vals))
        state.append(keys[key])
    return ops, np.resize(state, m)


# values per pass over the boundary and forcing data and the residuals: a
# pass covers as many levels of the grid's nodes as fit (at least one), up
# to the end of its leaf of the march, so its buffers stay the same size
# whatever m is
_PASS_VALUES = 1 << 16


def solve_subdiffusion(spec: ProblemSpec) -> SolveResult:
    """March the implicit scheme through all time levels.

    Each level solves (c0 I + L^n) u = c0 * history + f + boundary flux,
    L^n the five-point (three-point) operator with harmonic-mean faces: its
    face weights, from the result's one operator walk, which the weak form
    reuses.  The history weights are a convex combination, and the interior
    block c0 I + L is symmetric with a positive diagonal, nonpositive
    off-diagonal entries and strict diagonal dominance, which gives the
    discrete comparison principle; it is positive definite and banded with
    the longer axis outermost.  Per state, ``dpbtrf`` factorizes its upper
    band (``_Stencil.band``: n_in * kd entries with kd = min(cells) - 1, so
    it grows faster on large 2D grids than a fill-reducing sparse LU) when
    a level first needs it, and ``dpbtrs`` solves each level in that state.

    Only the history b_{n-1} u0 + sum_j (b_{j-1} - b_j) u_{n-j}, which
    accumulates in row n until ``fracops._causal_march`` solves it, and the
    banded solve run level by level; a level sums its history out of place,
    so no row is scaled by c0.  The rest is one pass per run of levels in a
    leaf of the march, as many as fit ``_PASS_VALUES`` node values (64
    levels on up to 1024 nodes, 15 on 65 x 65): the boundary and forcing
    values (a callable is called once per level, in level order; a constant
    is one broadcast) and their finiteness check, the levels' factors, then
    one boundary coupling, subtracted from the forcing rows, and one
    residual pass (||A u - b|| / ||b|| per level, kept in ``diagnostics``).
    Each is one ``_Stencil.apply`` with every level's own face weights on a
    trailing level axis, on a full-node array that is 0.0 off the nodes it
    reads.
    """
    space, time = spec.space, spec.time
    dt, m = time.dt, time.m
    c0, b = _l1_scheme(spec.alpha, dt, m)
    # d[j] = b_{j-1} - b_j weighs level n - j in the history of level n;
    # the leaf's own share of it is summed with c0 d_j, reversed
    d = np.concatenate(([0.0], b[:-1] - b[1:]))
    cd_rev = c0 * d[:0:-1]

    U = np.empty((m + 1,) + space.shape)
    U[0] = spec.u0
    np.multiply.outer(b, spec.u0, out=U[1:])
    rows = U.reshape(m + 1, -1)
    result = SolveResult(spec=spec, u=U)
    ops, state = result._operators
    stencil = space._stencil
    inner, outer = stencil.inner, stencil.outer
    take = slice(1, -1) if space.dimension == 1 else inner  # a view in 1D
    factors = [None] * len(ops)
    levels = max(1, _PASS_VALUES // rows.shape[1])

    def factor(s, n):
        if factors[s] is None:
            chol, info = dpbtrf(stencil.band(ops[s], c0), overwrite_ab=1)
            if info > 0:
                raise LinearSolveError(f"band Cholesky failed at level {n}: "
                                       f"minor {info} not positive definite")
            factors[s] = chol
        return factors[s]

    def interior(W, vals, where):
        """Rows of (L X) on the interior, where column i of X holds vals[i]
        on the nodes ``where`` and 0.0 on the others."""
        X = np.zeros(space.shape + (len(vals),))
        X.reshape(-1, len(vals))[where] = vals.T
        return stencil.apply(W, X).reshape(-1, len(vals))[take].T

    def data(lo, hi):
        G = np.empty((hi - lo, outer.size))
        F = np.empty((hi - lo, inner.size))
        per_level = []
        for what, buf, src, p in (
                ("boundary", G, spec.boundary, stencil.pts_out),
                ("forcing", F, spec.forcing, stencil.pts_in)):
            if callable(src):
                per_level.append((what, buf, src, p))
            else:  # the same at every level: one broadcast
                buf[...] = _source_values(src, 0.0, p)
        for i, n in enumerate(range(lo, hi)):
            for what, buf, src, p in per_level:
                vals = _source_values(src, n * dt, p)
                try:
                    buf[i] = vals
                except ValueError:
                    raise GridMismatchError(
                        f"{what} values at level {n} have shape "
                        f"{np.shape(vals)}; expected {buf.shape[1:]} or a "
                        f"scalar") from None
        ok = np.isfinite(G).all(axis=1) & np.isfinite(F).all(axis=1)
        if not ok.all():
            n = lo + int(np.argmin(ok))
            raise DomainError(f"boundary or forcing values at level {n} "
                              f"(t={n * dt!r}) are not finite")
        return G, F

    def leaf(lo, hi):
        for c in range(lo, hi, levels):
            e = min(c + levels, hi)
            G, F = data(c, e)
            run = state[c - 1:e - 1]
            # each level's face weights on a trailing level axis; a pass in
            # one state broadcasts its own
            W = ops[run[0]] if (run == run[0]).all() else tuple(
                np.stack(ws, axis=-1) for ws in zip(*(ops[s] for s in run)))
            # the forcing rows become the right-hand sides, kept for the
            # residual; rows are only read, so the boundary columns of this
            # pass's rows, unused until set below, are never scaled by c0
            F -= interior(W, G, outer)
            F += c0 * rows[c:e, take]
            chol = [factor(s, n) for s, n in zip(run, range(c, e))]
            for i, n in enumerate(range(c, e)):
                if n > lo:
                    F[i] += (cd_rev[m - 1 - (n - lo):] @ rows[lo:n])[take]
                rows[n, take] = dpbtrs(chol[i], F[i])[0]
            # set after the pass: a history's boundary columns are unused
            rows[c:e, outer] = G
            u = rows[c:e, take]
            res = interior(W, u, take) + c0 * u - F
            result.diagnostics.extend(
                (np.linalg.norm(res, axis=1)
                 / np.maximum(np.linalg.norm(F, axis=1), 1e-300)).tolist())

    _causal_march(1, m + 1, leaf, rows, d)
    return result


def solve_scalar_relaxation(alpha, sigma: float, u0: float,
                            time: TimeGrid) -> SampledPath:
    """Relaxation problem with memory: the fractional derivative of (u - u0)
    balances -sigma*u.

    Solved in integrated form u + sigma*(g_alpha * u) = u0 by implicit
    piecewise-linear product integration; at fixed positive time the error
    decays like dt^(1+alpha), and alpha = 1 reduces to the trapezoid rule
    for the classical exponential decay.
    """
    a = _as_alpha(alpha, classical_ok=True)
    sigma = _as_real(sigma, "sigma", 0.0, closed="low")
    kern = rl_kernel_table(a, time.dt, time.m, sampling="cell_average",
                           scale=sigma)
    table = solve_volterra(kern, np.full(time.m + 1, float(u0)))
    return SampledPath(time, table.values)


# ---------------------------------------------------------------------------
# discrete weak form
# ---------------------------------------------------------------------------

def _tent_factors(spec: ProblemSpec):
    """Temporal factors (3, m+1) and spatial factors (3, nodes) of the nine
    product tents tau_a(t) sigma_b(x): nonnegative, vanishing on the
    spatial boundary and at the final time."""
    space, time = spec.space, spec.time
    T = time.horizon
    tn = time.nodes

    def hat(x, c, w):
        return np.maximum(0.0, 1.0 - np.abs(x - c) / w)

    temporal = np.array([
        np.maximum(0.0, 1.0 - tn / T),
        hat(tn, T / 3.0, T / 3.0),
        hat(tn, T / 2.0, T / 2.0 - 1e-12 * T),
    ])
    spatial = np.array([_tensor_field(np.multiply, [
        hat(xs, a + frac_c * (b - a), frac_w * (b - a))
        for xs, a, b in zip(space.axes(), space.lower, space.upper)]).ravel()
        for frac_c, frac_w in ((0.5, 0.45), (0.35, 0.25), (0.65, 0.25))])
    return temporal, spatial


def supersolution_residual(result: SolveResult) -> float:
    """Most negative value of the discrete weak form over the nine tents.

    The form pairs the memory derivative with the test field and adds the
    discrete Dirichlet energy; by exact summation by parts it equals the
    forcing paired with the test field, so it is nonnegative (up to
    rounding) exactly when the run is a supersolution.  Each tent is a
    product tau(t) sigma(x), so the form contracts space first: the memory
    derivative acts on the traces u . sigma, and L u, with each level's
    operator L from the same walk the solve factorized, on the fields
    L sigma (L is symmetric).  Nothing of the size of u is allocated.
    """
    spec = result.spec
    m = spec.time.m
    rows = result.u.reshape(m + 1, -1)
    tau, sigma = _tent_factors(spec)

    # F[n - 1, b]: the memory derivative plus L u at level n, paired with
    # sigma_b
    c0, b = _l1_scheme(spec.alpha, spec.time.dt, m)
    F = causal_sum(b, np.diff(rows @ sigma.T, axis=0))
    F *= c0
    ops, state = result._operators
    # the columns L sigma_b: L is symmetric, so these are the rows sigma_b L
    columns = sigma.T.reshape(spec.space.shape + (3,))
    paired = [_Stencil.apply(W, columns).reshape(-1, 3) for W in ops]
    # runs of consecutive levels in one state: slices, not gathered copies
    edges = [0, *(np.flatnonzero(np.diff(state)) + 1), m]
    for lo, hi in zip(edges[:-1], edges[1:]):
        F[lo:hi] += rows[lo + 1:hi + 1] @ paired[state[lo]]
    # the factors are nonnegative, so a tent's L1 norm is the product of
    # their sums; the cell measure dt * prod(h) scales form and norm alike
    form = (tau[:, 1:] @ F) / np.multiply.outer(tau.sum(axis=1),
                                                 sigma.sum(axis=1))
    return float(form.min())
