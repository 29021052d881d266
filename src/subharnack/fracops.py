"""Discrete causal sums, the blocked march for causal Toeplitz systems, the
L1 scheme for the fractional time derivative, and numerical verifiers for
the product-rule identities of d/dt (k * u) with regular kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gamma as gamma_fn

from .errors import (DomainError, GridMismatchError, SingularKernelError,
                     _as_alpha, _as_count, _as_real)
from .kernels import KernelTable, rl_kernel_table

__all__ = [
    "TimeGrid",
    "SampledPath",
    "causal_sum",
    "l1_weights",
    "fundamental_identity_residual",
    "fundamental_identity_history",
    "commutation_residual_1",
    "commutation_residual_2",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0, dt, ..., m*dt."""

    dt: float
    m: int

    def __post_init__(self):
        object.__setattr__(self, "dt", _as_real(self.dt, "dt", 0.0))
        object.__setattr__(self, "m", _as_count(self.m, "the step count", 2))

    @property
    def horizon(self) -> float:
        return self.m * self.dt

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 1) * self.dt

    @classmethod
    def from_horizon(cls, T: float, m: int) -> "TimeGrid":
        return cls(dt=T / m, m=m)


@dataclass(frozen=True)
class SampledPath:
    """A time trace sampled at every node of a TimeGrid (t = 0 included)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.shape != (self.grid.m + 1,):
            raise GridMismatchError(
                f"path has {vals.size} samples, grid has {self.grid.m + 1} nodes"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _match_grids(k: KernelTable, grid: TimeGrid) -> None:
    if k.m != grid.m or abs(k.dt - grid.dt) > 1e-12 * grid.dt:
        raise GridMismatchError(
            f"kernel grid (dt={k.dt}, m={k.m}) does not match path grid "
            f"(dt={grid.dt}, m={grid.m})"
        )


def _match_grids_path(v: SampledPath, w: SampledPath) -> None:
    if v.grid != w.grid:
        raise GridMismatchError("paths live on different grids")


def causal_sum(w, x) -> np.ndarray:
    """Causal sum out[n] = sum_{j<=n} w[j] * x[n-j] along axis 0, for the
    len(x) outputs x covers.

    ``x`` may carry trailing axes (space, or a stack of traces that share
    ``w``); ``w`` holds at least len(x) weights.  A 1-D ``x`` is summed
    directly (exact products in a fixed order, so results are reproducible
    bit for bit); any other ``x`` goes through one real FFT along axis 0,
    whose rounding is a few ulps of sum_j |w[j]| * max |x| at every output.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.convolve(w, x)[:x.shape[0]]
    return _fft_window(w, x, 0, x.shape[0], {})


def _fft_window(w, x, lo, hi, spectra):
    """``causal_sum``'s FFT path for the outputs lo <= n < hi, with ``x``
    taken as zero past its end and ``w`` holding at least ``hi`` weights;
    ``spectra`` keeps the transform of each weight window ``w[:hi]`` under
    its length and size, for reuse.  The transform is circular: once
    ``lo >= len(x) - 1`` the outputs wanted are free of wrap-around at
    length ``hi``, else it pads to the full ``hi + len(x) - 1``."""
    n = x.shape[0]
    size = next_fast_len(hi if lo >= n - 1 else hi + n - 1, real=True)
    wspec = spectra.get((hi, size))
    if wspec is None:
        wspec = spectra[hi, size] = rfft(np.asarray(w, dtype=float)[:hi], size)
    spec = rfft(x, size, axis=0)
    spec *= wspec.reshape((-1,) + (1,) * (x.ndim - 1))
    out = irfft(spec, size, axis=0, overwrite_x=True)
    # the spectrum is freed before the window is copied out, and the copy
    # lets the rest of the transform buffer go with it
    del spec
    return out[lo:hi].copy()


_BLOCK = 64


def _causal_march(lo, hi, leaf, rows, w, spectra=None):
    """Solve levels lo..hi-1 of a causal system whose level n has the
    history sum_{j>=1} w[j] rows[n-j], kept in its unsolved row n.
    ``leaf(a, z)`` solves up to ``_BLOCK`` levels, summing the history from
    within them directly; a longer span is marched in halves, the first
    adding its share to the second by one windowed FFT sum (Hairer, Lubich
    & Schlichte 1985), O(m log^2 m) per column.  Its weight window depends
    only on the span's length, so ``spectra`` carries each length's
    transform down the recursion.  Module-level: no closure refers to
    itself, so a solve's buffers are freed with its result at once."""
    if hi - lo <= _BLOCK:
        return leaf(lo, hi)
    spectra = {} if spectra is None else spectra
    mid = (lo + hi) // 2
    _causal_march(lo, mid, leaf, rows, w, spectra)
    rows[mid:hi] += _fft_window(w, rows[lo:mid], mid - lo, hi - lo, spectra)
    _causal_march(mid, hi, leaf, rows, w, spectra)


def l1_weights(alpha: float, m: int) -> np.ndarray:
    """Weights b_j = (j+1)^(1-alpha) - j^(1-alpha), strictly decreasing for
    alpha < 1; b_0 = 1 for every alpha in (0, 1], set outright since
    0.0 ** 0.0 == 1 would zero it at alpha = 1 (backward Euler: [1, 0, ...])."""
    alpha, m = _as_alpha(alpha, classical_ok=True), _as_count(m, "m")
    j = np.arange(0, m, dtype=float)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    b[:1] = 1.0
    return b


def _l1_scheme(alpha: float, dt: float, m: int, dx=None):
    """The L1 scheme on m steps of size dt: its scale
    c0 = dt^(-alpha)/Gamma(2-alpha), its weights b (``l1_weights``) and,
    given the increments ``dx`` of a trace along axis 0, the memory
    derivative c0 * causal_sum(b, dx), scaled in place (else None)."""
    c0 = dt ** (-alpha) / gamma_fn(2.0 - alpha)
    b = l1_weights(alpha, m)
    if dx is None:
        return c0, b, None
    out = causal_sum(b, dx)
    out *= c0
    return c0, b, out


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def _require_regular(k: KernelTable) -> np.ndarray:
    if k.kind == "riemann_liouville" and k.params and k.params[0] < 1.0:
        raise SingularKernelError(
            "identity checks need an H^1 kernel; power kernels with beta < 1 "
            "are singular at t = 0"
        )
    if k.sampling != "node" or not np.all(np.isfinite(k.values)):
        raise SingularKernelError("identity checks need finite node samples")
    return k.values


def _trapezoid_convolve(k: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid rule for (k * v)(t_n) at every node, for one trace ``v``
    (a direct sum) or an (m + 1, c) stack of traces (one FFT)."""
    kc = k.reshape((-1,) + (1,) * (v.ndim - 1))
    return dt * (causal_sum(k, v) - 0.5 * kc * v[0] - 0.5 * k[0] * v)


def _interior_max(lhs, rhs, grid: TimeGrid, t_min: float = 0.0) -> float:
    """Max |lhs - rhs| over the interior nodes with t >= t_min."""
    keep = grid.nodes[1:-1] >= _as_real(t_min, "t_min")
    return float(np.abs(lhs - rhs)[1:-1][keep].max())


def fundamental_identity_history(u: SampledPath, k: KernelTable, H, Hp) -> np.ndarray:
    """History term of the convolution product rule, per node.

    Discretized by the trapezoid rule on the lag variable with the kernel
    derivative taken by centered differences; term-by-term nonnegative when
    H is convex and the kernel table is nonincreasing.  The bracket is
    expanded into trapezoidal causal sums of -k' against one stack of 1,
    H(u) and u.
    """
    kv = _require_regular(k)
    _match_grids(k, u.grid)
    dt = u.grid.dt
    uu = u.values
    Hu = H(uu)
    S, T1, T2 = _trapezoid_convolve(
        -np.gradient(kv, dt), np.column_stack([np.ones_like(uu), Hu, uu]), dt).T
    return T1 - Hu * S - Hp(uu) * (T2 - uu * S)


def fundamental_identity_residual(
    u: SampledPath, k: KernelTable, H, Hp, t_min: float = 0.0
) -> float:
    """Max interior-node residual of the convolution product rule.

    Both sides are discretized consistently: trapezoidal convolutions,
    centered time differences, trapezoidal history integral.  With linear H
    the two sides collapse to the same discrete expression and the residual
    is at rounding level.  Nodes with t < t_min are excluded from the max;
    near t = 0 the kernel derivative of the regularized kernels is steep and
    the pointwise rate degrades there.
    """
    kv = _require_regular(k)
    _match_grids(k, u.grid)
    dt = u.grid.dt
    uu = u.values
    Hu, Hpu = H(uu), Hp(uu)
    ku, kH = _trapezoid_convolve(kv, np.column_stack([uu, Hu]), dt).T
    lhs = Hpu * np.gradient(ku, dt)
    rhs = (
        np.gradient(kH, dt)
        + (-Hu + Hpu * uu) * kv
        + fundamental_identity_history(u, k, H, Hp)
    )
    return _interior_max(lhs, rhs, u.grid, t_min)


def _neg_gdot_pi(alpha: float, dt: float, m: int):
    """Cell moments of -d/dt g_alpha for the linear product-integration rule.

    M0[l], M1[l] are the zeroth/first moments over the lag cell
    [l dt, (l+1) dt] for l >= 1; w_first weights the s = dt node across the
    first cell, where the data vanishes linearly at s = 0 and only the first
    moment of the (non-integrable) derivative is needed.
    """
    ga = gamma_fn(alpha)
    t = np.arange(1, m + 2) * dt
    g_nodes = t ** (alpha - 1.0) / ga
    G_cells = np.diff(np.arange(0, m + 2, dtype=float) ** alpha) \
        * dt ** alpha / gamma_fn(alpha + 1.0)
    M0 = g_nodes[:m] - g_nodes[1: m + 1]
    M1 = -g_nodes[1: m + 1] * dt + G_cells[1: m + 1]
    w_first = (-g_nodes[0] * dt + G_cells[0]) / dt
    return M0, M1, w_first


def _comm1_terms(v: SampledPath, phi: SampledPath, alpha: float):
    _match_grids_path(v, phi)
    a = _as_alpha(alpha)
    grid = v.grid
    dt, m = grid.dt, grid.m
    vv, ph = v.values, phi.values
    scale = max(np.abs(vv).max(), 1.0)
    if abs(vv[0]) > 1e-12 * scale:
        raise DomainError("commutation identity requires v(0) = 0")
    vdot = np.gradient(vv, dt)
    phid = np.gradient(ph, dt)
    gcells = rl_kernel_table(a, dt, m, sampling="cell_average").cell_values()
    # g against the cell midpoints of phi vdot, vdot and phid v, as one stack
    data = np.column_stack([ph * vdot, vdot, phid * vv])
    conv = np.zeros((m + 1, 3))
    conv[1:] = causal_sum(gcells, 0.5 * (data[:-1] + data[1:])) * dt
    lhs, conv_vdot, corr2 = conv.T
    term1 = ph * conv_vdot
    # corr1[j] = w_first D(1) + sum_{l=1}^{j-1} D(l) (M0 - M1/dt)[l-1]
    # + D(l+1) M1[l-1]/dt with D(l) = (phi_j - phi_{j-l}) v_{j-l}; the lag-j
    # term of the (M0 - M1/dt) part is left out, so that part runs on v_0 := 0
    M0, M1, w_first = _neg_gdot_pi(a, dt, m)
    k_in = np.concatenate([[0.0], M0 - M1 / dt])
    k_end = np.concatenate([[0.0, w_first], M1[:-1] / dt])
    v_in = np.concatenate([[0.0], vv[1:]])
    # each kernel against its trace and phi times it, as one stack
    kv_in, kpv_in = causal_sum(k_in, np.column_stack([v_in, ph * v_in])).T
    kv_end, kpv_end = causal_sum(k_end, np.column_stack([vv, ph * vv])).T
    corr1 = ph * (kv_in + kv_end) - kpv_in - kpv_end
    return lhs, term1, corr1, corr2


def commutation_residual_1(v: SampledPath, phi: SampledPath, alpha) -> float:
    """Max nodal residual of the convolution/multiplication exchange rule
    for the power kernel acting on phi*vdot, with v(0) = 0.

    The correction integral carries the (non-integrable) kernel derivative;
    it is discretized by linear product integration with exact derivative
    moments, which keeps the residual first-order accurate.
    """
    lhs, term1, corr1, corr2 = _comm1_terms(v, phi, alpha)
    return _interior_max(lhs, term1 + corr1 - corr2, v.grid)


def commutation_residual_2(k: KernelTable, v: SampledPath,
                           phi: SampledPath) -> float:
    """Max nodal residual of the product rule for phi(t) d/dt (k * v) with a
    regular (H^1) kernel table; trapezoidal quadratures and centered
    differences throughout; k and k' each act on one stack of v, phi v."""
    kv = _require_regular(k)
    _match_grids(k, v.grid)
    _match_grids_path(v, phi)
    dt = v.grid.dt
    vv, ph = v.values, phi.values
    traces = np.column_stack([vv, ph * vv])
    kv_v, kv_pv = _trapezoid_convolve(kv, traces, dt).T
    lhs = ph * np.gradient(kv_v, dt)
    d2 = np.gradient(kv_pv, dt)
    # trapezoid rule for int k'(s) (phi(t) - phi(t-s)) v(t-s) ds
    kdot_v, kdot_pv = _trapezoid_convolve(np.gradient(kv, dt), traces, dt).T
    return _interior_max(lhs, d2 + ph * kdot_v - kdot_pv, v.grid)
