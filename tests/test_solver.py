import copy
import gc
import math
import pickle
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy.special import erfcx, gamma

from subharnack import solver as S
from subharnack.errors import DomainError, GridMismatchError, LinearSolveError
from subharnack import fracops as F
from subharnack import kernels as K
from subharnack.fracops import TimeGrid
from subharnack.kernels import mittag_leffler


def interval_spec(nx=16, m=10, T=0.5, alpha=0.5, **kw):
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    time = TimeGrid.from_horizon(T, m)
    defaults = dict(u0=np.zeros(nx + 1), boundary=0.0)
    defaults.update(kw)
    return S.ProblemSpec(alpha=alpha, space=space, time=time, **defaults)


# ---------------------------------------------------------------------------
# grids and coefficients
# ---------------------------------------------------------------------------

def test_space_grid_validation():
    with pytest.raises(DomainError):
        S.SpaceGrid.interval(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        S.SpaceGrid.interval(1.0, 0.0, 8)
    for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            S.SpaceGrid.interval(lo, hi, 8)
    with pytest.raises(DomainError, match="finite"):
        S.SpaceGrid.rectangle((0.0, 0.0), (1.0, np.inf), (8, 8))
    g = S.SpaceGrid.rectangle((0.0, -1.0), (2.0, 1.0), (8, 10))
    assert g.dimension == 2
    assert g.h == (0.25, 0.2)
    assert g.shape == (9, 11)


def test_space_grid_cell_count_must_be_integral():
    for cells in (10.5, float("nan"), "10"):
        with pytest.raises(DomainError, match="integer"):
            S.SpaceGrid.interval(0.0, 1.0, cells)
    with pytest.raises(DomainError, match="integer"):
        S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (8, 8.5))
    for cells in (10, 10.0, np.int64(10)):
        grid = S.SpaceGrid.interval(0.0, 1.0, cells)
        assert grid.cells == (10,) and type(grid.cells[0]) is int


def test_checkerboard_constant_case():
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    fld = S.checkerboard_coefficients(g, 2, 1.0, 1.0)
    pts = g.node_points()
    assert np.all(fld.evaluate(0, pts) == 1.0)
    assert fld.nu == 1.0


def test_checkerboard_two_values_and_ellipticity():
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    fld = S.checkerboard_coefficients(g, 2, 1.0, 5.0)
    vals = fld.evaluate(0, g.node_points())
    assert set(np.unique(np.round(vals, 12))) == {1.0, 5.0}
    # every sample the solve uses passes the checks with nu = low
    S.solve_subdiffusion(interval_spec(coefficients=fld))


def test_checkerboard_time_flip():
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    fld = S.checkerboard_coefficients(g, 2, 1.0, 5.0, time_flip=3)
    pts = g.node_points()[5:6]
    before = fld.evaluate(0, pts)
    after = fld.evaluate(3, pts)
    assert before != after
    assert fld.time_dependent


@pytest.mark.parametrize("which", ["period", "time_flip"])
@pytest.mark.parametrize("value, ok", [
    (0, False), (-1, False), (2.5, False), (np.nan, False), ("2", False),
    (3, True), (3.0, True), (np.int64(3), True)])
def test_checkerboard_counts_must_be_integers_of_at_least_one(which, value,
                                                             ok):
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    counts = {"period": 2, "time_flip": None}
    counts[which] = value
    if not ok:
        with pytest.raises(DomainError, match=f"{which} must be an integer"):
            S.checkerboard_coefficients(g, counts["period"], 1.0, 5.0,
                                        time_flip=counts["time_flip"])
        return
    fld = S.checkerboard_coefficients(g, counts["period"], 1.0, 5.0,
                                      time_flip=counts["time_flip"])
    counts[which] = 3
    ref = uncached_checkerboard(g, counts["period"], 1.0, 5.0,
                                counts["time_flip"])
    pts = g.node_points()
    for n in range(8):
        assert same_bits(fld.evaluate(n, pts), ref(n, pts))


def uncached_checkerboard(space, period, low, high, time_flip):
    """The checkerboard's evaluate by its formula, the block pattern
    derived afresh on every call."""
    lo, h = np.asarray(space.lower), np.asarray(space.h)
    ncells = np.asarray(space.cells)

    def evaluate(time_index, points):
        block = np.floor((points - lo) / (period * h)).astype(int)
        block = np.minimum(block, (ncells - 1) // period)
        block = np.maximum(block, 0)
        parity = np.sum(block, axis=-1) % 2
        if time_flip is not None:
            parity = (parity + (time_index // time_flip)) % 2
        return np.where(parity == 0, low, high)

    return evaluate


def same_bits(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("time_flip", [None, 1, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_checkerboard_pattern_cache_bitwise_equal_uncached(time_flip, dim):
    g = S.SpaceGrid((0.0,) * dim, (1.0, 1.5)[:dim], (12, 10)[:dim])
    fld = S.checkerboard_coefficients(g, 2, 0.5, 4.0, time_flip=time_flip)
    ref = uncached_checkerboard(g, 2, 0.5, 4.0, time_flip)
    quarters = g._stencil.quarters
    nodes = g.node_points()                     # (a, N) or (a, b, N)
    flat = nodes.reshape(-1, dim)               # (k, N)
    levels = range(2 * (time_flip or 1) + 2)
    # the stencil's quarter points alone, then three point sets in turn
    for sets in ([quarters], [quarters, nodes, flat]):
        for n in levels:
            for pts in sets:
                assert same_bits(fld.evaluate(n, pts), ref(n, pts))
    # one writable array changed in place between calls
    rng = np.random.default_rng(dim)
    pts = flat.copy()
    for n in levels:
        pts[...] = rng.uniform(-0.1, 1.6, pts.shape)
        assert same_bits(fld.evaluate(n, pts), ref(n, pts))


def test_coefficient_field_bound_violation_detected():
    bad = S.CoefficientField(evaluate=lambda ti, pts: np.full(pts.shape[:-1], 0.1),
                             nu=1.0, lambda_bound=5.0)
    with pytest.raises(DomainError, match="ellipticity"):
        S.solve_subdiffusion(interval_spec(nx=8, coefficients=bad))


def test_problem_spec_shape_check():
    with pytest.raises(GridMismatchError):
        interval_spec(nx=16, u0=np.zeros(10))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_constant_state_is_exact_1d():
    spec = interval_spec(u0=np.full(17, 2.5), boundary=2.5)
    res = S.solve_subdiffusion(spec)
    assert np.abs(res.u - 2.5).max() <= 1e-12


def test_constant_state_is_exact_2d():
    g = S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 2.0), (8, 10))
    spec = S.ProblemSpec(alpha=0.4, space=g, time=TimeGrid.from_horizon(0.3, 8),
                         u0=np.full((9, 11), -1.0), boundary=-1.0,
                         coefficients=S.checkerboard_coefficients(
                             g, 2, 1.0, 5.0, time_flip=3))
    res = S.solve_subdiffusion(spec)
    assert np.abs(res.u + 1.0).max() <= 1e-12


def test_near_classical_limit_matches_heat_solver():
    # independent oracle: backward-Euler heat stepping on the same grid
    nx, m, T = 64, 64, 0.1
    x = np.linspace(0.0, 1.0, nx + 1)
    spec = interval_spec(nx=nx, m=m, T=T, alpha=0.999,
                         u0=np.sin(np.pi * x), boundary=0.0)
    res = S.solve_subdiffusion(spec)
    h, dt = 1.0 / nx, T / m
    main = np.full(nx - 1, 1.0 / dt + 2.0 / h ** 2)
    off = np.full(nx - 2, -1.0 / h ** 2)
    lu = spl.splu(sp.diags([off, main, off], [-1, 0, 1], format="csc"))
    ub = np.sin(np.pi * x)[1:-1]
    for _ in range(m):
        ub = lu.solve(ub / dt)
    rel = np.abs(res.u[-1][1:-1] - ub).max() / np.abs(ub).max()
    assert rel <= 0.02


def test_uniform_state_relaxation_against_ml():
    # spatially uniform run with the relaxation term moved to the right-hand
    # side: the field stays uniform and follows the scalar memory decay
    sigma, alpha = 1.0, 0.5

    def u_exact(t):
        return mittag_leffler(alpha, 1.0, -sigma * t ** alpha) if t > 0 else 1.0

    errs = []
    for m in (32, 64, 128):
        nx = 8
        spec = interval_spec(
            nx=nx, m=m, T=1.0, alpha=alpha,
            u0=np.ones(nx + 1),
            boundary=lambda t, pts: np.full(pts.shape[:-1], u_exact(t)),
            forcing=lambda t, pts: np.full(pts.shape[:-1],
                                           -sigma * u_exact(t)),
        )
        res = S.solve_subdiffusion(spec)
        # interior stays spatially flat up to the scheme error
        assert np.abs(np.diff(res.u[-1])).max() < 1e-3
        errs.append(abs(res.u[-1][nx // 2] - u_exact(1.0)) / u_exact(1.0))
    # the memory-term march is first-order at fixed time for this data
    assert errs[0] > errs[1] > errs[2]
    assert math.log2(errs[1] / errs[2]) > 0.8


def test_scalar_relaxation_examples():
    grid = TimeGrid.from_horizon(1.0, 256)
    path = S.solve_scalar_relaxation(0.5, 0.0, 3.3, grid)
    assert np.abs(path.values - 3.3).max() == 0.0
    path = S.solve_scalar_relaxation(1.0, 2.0, 1.0, grid)
    assert abs(path.values[-1] - math.exp(-2.0)) < 1e-4
    path = S.solve_scalar_relaxation(0.5, 1.0, 1.0, grid)
    assert abs(path.values[-1] - erfcx(1.0)) < 1e-4


def test_scalar_relaxation_convergence_order():
    exact = erfcx(1.0)
    errs = []
    for m in (64, 128, 256):
        path = S.solve_scalar_relaxation(0.5, 1.0, 1.0,
                                         TimeGrid.from_horizon(1.0, m))
        errs.append(abs(path.values[-1] - exact) / exact)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 1.5) <= 0.3


def test_maximum_principle_and_nonnegativity_sample():
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.0, 2.0, size=17)
    spec = interval_spec(u0=u0, m=12, T=0.3, alpha=0.3,
                         boundary=lambda t, pts: np.full(pts.shape[:-1], 0.4),
                         coefficients=S.checkerboard_coefficients(
                             S.SpaceGrid.interval(0.0, 1.0, 16), 2, 0.5, 4.0))
    res = S.solve_subdiffusion(spec)
    lo = min(u0.min(), 0.4)
    hi = max(u0.max(), 0.4)
    assert res.u.min() >= lo - 1e-10 and res.u.max() <= hi + 1e-10
    assert res.u.min() >= -1e-10


def test_monotonicity_in_initial_data():
    rng = np.random.default_rng(9)
    base = rng.uniform(0.0, 1.0, size=17)
    spec_a = interval_spec(u0=base, m=10, T=0.2)
    spec_b = interval_spec(u0=base + rng.uniform(0.0, 0.5, size=17),
                           m=10, T=0.2)
    ua = S.solve_subdiffusion(spec_a).u
    ub = S.solve_subdiffusion(spec_b).u
    assert np.all(ub - ua >= -1e-10)


def test_scaling_covariance():
    # rescaling space by r and time by r^(2/alpha) with transported
    # coefficients reproduces the node values exactly
    alpha = 0.5
    base_g = S.SpaceGrid.interval(0.0, 1.0, 32)
    u0 = np.sin(np.pi * np.linspace(0.0, 1.0, 33)) ** 2
    cb = S.checkerboard_coefficients(base_g, 4, 1.0, 3.0)
    res_a = S.solve_subdiffusion(S.ProblemSpec(
        alpha=alpha, space=base_g, time=TimeGrid.from_horizon(0.01, 16),
        u0=u0, boundary=0.0, coefficients=cb))
    for r in (0.5, 2.0):
        rfac = r ** (2.0 / alpha)
        gB = S.SpaceGrid.interval(0.0, r, 32)
        moved = S.CoefficientField(
            evaluate=lambda ti, pts: cb.evaluate(ti, pts / r),
            nu=cb.nu, lambda_bound=cb.lambda_bound, time_dependent=False)
        res_b = S.solve_subdiffusion(S.ProblemSpec(
            alpha=alpha, space=gB, time=TimeGrid.from_horizon(0.01 * rfac, 16),
            u0=u0, boundary=0.0, coefficients=moved))
        assert np.abs(res_a.u - res_b.u).max() <= 1e-12


# ---------------------------------------------------------------------------
# discrete weak form
# ---------------------------------------------------------------------------

def weak_spec(forcing):
    x = np.linspace(0.0, 1.0, 65)
    return interval_spec(nx=64, m=24, T=0.2, u0=np.sin(np.pi * x),
                         forcing=forcing)


def test_weak_form_consistency_zero_forcing():
    res = S.solve_subdiffusion(weak_spec(None))
    assert S.supersolution_residual(res) >= -1e-10


def test_weak_form_detects_supersolution():
    res = S.solve_subdiffusion(weak_spec(1.0))
    assert S.supersolution_residual(res) > 0.0


def test_weak_form_detects_non_supersolution():
    res = S.solve_subdiffusion(weak_spec(-1.0))
    assert S.supersolution_residual(res) < 0.0


def loop_faces(spec, n):
    """Per-axis face coefficients at level n by their definition, face by
    face: the harmonic mean of the field at the face's two quarter points."""
    space, diag_at = spec.space, spec.coefficients.diag_at
    axes = space.axes()
    out = []
    for ax, h in enumerate(space.h):
        shape = list(space.shape)
        shape[ax] -= 1
        kf = np.empty(shape)
        for idx in np.ndindex(*shape):
            x = np.array([axes[k][i] for k, i in enumerate(idx)])
            a = []
            for frac in (0.25, 0.75):
                q = x.copy()
                q[ax] += frac * h
                a.append(diag_at(n, q[None], space.dimension)[0, ax])
            kf[idx] = 2.0 * a[0] * a[1] / (a[0] + a[1])
        out.append(kf)
    return out


def loop_supersolution_values(result, test_fields):
    """Per-field weak form by the level-by-level, axis-by-axis definition:
    the L1 memory derivative paired with eta plus the face energy."""
    spec = result.spec
    space, time = spec.space, spec.time
    dt, m, alpha = time.dt, time.m, spec.alpha
    c0 = dt ** (-alpha) / math.gamma(2.0 - alpha)
    b = F.l1_weights(alpha, m)
    hN = float(np.prod(space.h))
    U = result.u
    out = []
    for eta in test_fields:
        total = 0.0
        for n in range(1, m + 1):
            deriv = c0 * sum(b[j] * (U[n - j] - U[n - j - 1]) for j in range(n))
            faces = loop_faces(spec, n)
            energy = 0.0
            for ax in range(space.dimension):
                du = np.diff(U[n], axis=ax)
                de = np.diff(eta[n], axis=ax)
                energy += np.sum(faces[ax] * du * de) * hN / space.h[ax] ** 2
            total += dt * (np.sum(deriv * eta[n]) * hN + energy)
        out.append(total / (np.sum(np.abs(eta)) * hN * dt))
    return np.array(out)


def weak_form_cases():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 65)
    one_d = interval_spec(nx=64, m=40, T=0.2, u0=np.sin(np.pi * x),
                          forcing=lambda t, p: np.cos(3.0 * p[..., 0]) - t,
                          coefficients=S.checkerboard_coefficients(
                              S.SpaceGrid.interval(0.0, 1.0, 64), 4, 1.0, 5.0))
    shape = rect_spec().space.shape
    two_d = rect_spec(time_flip=2, m=16, u0=rng.uniform(0.0, 1.0, shape),
                      boundary=lambda t, p: 0.5 + 0.5 * np.sin(4.0 * t + p[..., 0]))
    return [one_d, two_d]


def tents(spec):
    """The nine product tents as space-time arrays."""
    tau, sigma = S._tent_factors(spec)
    shape = (spec.time.m + 1,) + spec.space.shape
    return [np.multiply.outer(t, s).reshape(shape) for t in tau for s in sigma]


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["1d_static", "2d_time_flip", "2d_hand_made"])
def test_weak_form_matches_level_loop(case):
    spec = weak_form_cases()[min(case, 1)]
    res = S.solve_subdiffusion(spec)
    if case == 2:
        # built by hand, so the weak form walks the operators itself
        rng = np.random.default_rng(case)
        res = S.SolveResult(spec=spec,
                            u=res.u + rng.uniform(-1.0, 1.0, res.u.shape))
    want = loop_supersolution_values(res, tents(spec))
    got = S.supersolution_residual(res)
    assert abs(got - want.min()) <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("dim", [1, 2])
def test_tent_factors_vanish_on_boundary_and_at_final_time(dim):
    spec = weak_spec(None) if dim == 1 else rect_spec()
    tau, sigma = S._tent_factors(spec)
    boundary = spec.space.boundary_mask().ravel()
    assert tau.shape == (3, spec.time.m + 1)
    assert sigma.shape == (3, boundary.size)
    assert tau.min() >= 0.0 and sigma.min() >= 0.0
    assert np.all(tau.sum(axis=1) > 0.0) and np.all(sigma.sum(axis=1) > 0.0)
    assert np.abs(tau[:, -1]).max() == 0.0
    assert np.abs(sigma[:, boundary]).max() == 0.0


@pytest.mark.parametrize("shape", [(160,), (64, 64)], ids=["1d", "2d"])
def test_weak_form_allocates_far_less_than_the_solution(shape):
    # a residual array and a space-time tent array of u's size, with FFT
    # buffers twice as long in time, would peak near 5 u.nbytes
    lower, upper = (0.0,) * len(shape), (1.0,) * len(shape)
    g = S.SpaceGrid(lower, upper, shape)
    m = 2048 if len(shape) == 1 else 48
    spec = S.ProblemSpec(
        alpha=0.5, space=g, time=TimeGrid.from_horizon(0.2, m),
        u0=np.ones(g.shape), boundary=0.0,
        coefficients=S.checkerboard_coefficients(g, 8, 1.0, 5.0))
    res = S.solve_subdiffusion(spec)
    S.supersolution_residual(res)
    tracemalloc.start()
    try:
        S.supersolution_residual(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * res.u.nbytes


# ---------------------------------------------------------------------------
# banded Cholesky solve path and input checks
# ---------------------------------------------------------------------------

def rect_spec(time_flip=None, m=12, **kw):
    g = S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.5), (12, 10))
    defaults = dict(u0=np.zeros(g.shape), boundary=0.0,
                    coefficients=S.checkerboard_coefficients(
                        g, 2, 0.5, 4.0, time_flip=time_flip))
    defaults.update(kw)
    return S.ProblemSpec(alpha=0.4, space=g,
                         time=TimeGrid.from_horizon(0.3, m), **defaults)


def record_factors(monkeypatch):
    """The bands the solve hands to its band Cholesky, copied before the
    factorization overwrites them."""
    bands = []
    factor = S.dpbtrf

    def recording(ab, *args, **kwargs):
        bands.append(np.array(ab))
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(S, "dpbtrf", recording)
    return bands


def upper_band(A, kd):
    """LAPACK's upper band storage of the symmetric dense matrix A: entry
    (i, j) at [kd + i - j, j]."""
    band = np.zeros((kd + 1, A.shape[0]))
    for k in range(kd + 1):
        band[kd - k, k:] = np.diagonal(A, k)
    return band


def loop_operator(space, faces, c0):
    """Reference assembly, node by node: the interior matrix c0*I + L and
    the interior-to-boundary coupling, both dense, nodes in C order."""
    shape = space.shape
    nodes = list(np.ndindex(shape))
    inside = [all(0 < i < n - 1 for i, n in zip(idx, shape)) for idx in nodes]
    pos_in = {idx: k for k, idx in enumerate(i for i, ok in zip(nodes, inside) if ok)}
    pos_out = {idx: k for k, idx in
               enumerate(i for i, ok in zip(nodes, inside) if not ok)}
    A = np.zeros((len(pos_in), len(pos_in)))
    B = np.zeros((len(pos_in), len(pos_out)))
    for idx, k in pos_in.items():
        A[k, k] = c0
        for ax, (kf, h) in enumerate(zip(faces, space.h)):
            for step, face in ((-1, idx[ax] - 1), (1, idx[ax])):
                w = kf[idx[:ax] + (face,) + idx[ax + 1:]] / h ** 2
                nb = idx[:ax] + (idx[ax] + step,) + idx[ax + 1:]
                A[k, k] += w
                if nb in pos_in:
                    A[k, pos_in[nb]] -= w
                else:
                    B[k, pos_out[nb]] -= w
    return A, B


def anisotropic_field(dim):
    def evaluate(ti, pts):
        return 1.5 + np.stack([np.sin(3.0 * pts[..., 0] + ax + ti)
                               for ax in range(dim)], axis=-1)

    return S.CoefficientField(evaluate=evaluate, nu=0.5,
                              lambda_bound=2.5 * np.sqrt(dim))


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
@pytest.mark.parametrize("field", ["default", "anisotropic"])
def test_level_operator_matches_node_loop(make, field):
    spec = make()
    space = spec.space
    if field == "anisotropic":
        spec = make(coefficients=anisotropic_field(space.dimension))
    bmask = space.boundary_mask().ravel()
    inner, outer = np.flatnonzero(~bmask), np.flatnonzero(bmask)
    ops, state = S._level_operators(spec)
    W, stencil = ops[state[1]], space._stencil
    # L as a dense matrix: column j is L applied to the j-th unit vector
    L = dense_operator(stencil, W, space)
    # the interior block the solve factorizes at level 2
    A = L[np.ix_(inner, inner)] + 7.5 * np.eye(inner.size)
    A_ref, B_ref = loop_operator(space, loop_faces(spec, 2), 7.5)
    # off-diagonal entries are single terms; the diagonal sums 2N+1 of them
    # in another order, so it may differ by a few ulps
    tol = 8 * np.finfo(float).eps
    np.testing.assert_allclose(A, A_ref, rtol=tol, atol=0.0)
    np.testing.assert_array_equal(L[np.ix_(inner, outer)], B_ref)
    # the band holds A, its rows and columns in the stencil's order
    rank = np.searchsorted(inner, stencil.inner)
    band_ref = upper_band(A[np.ix_(rank, rank)], stencil.kd)
    np.testing.assert_array_equal(stencil.band(W, 7.5), band_ref)


def dense_operator(stencil, W, space):
    n = math.prod(space.shape)
    units = np.eye(n).reshape(space.shape + (n,))
    return stencil.apply(W, units).reshape(n, n)


def coo_operator(spec, n):
    """L at level n assembled from COO triplets, four per face, whose
    duplicates scipy sums into CSR: the reference for the stencil's fill."""
    space, dim = spec.space, spec.space.dimension
    nodes = np.arange(int(np.prod(space.shape))).reshape(space.shape)
    lo = [np.delete(nodes, -1, axis=ax).ravel() for ax in range(dim)]
    hi = [np.delete(nodes, 0, axis=ax).ravel() for ax in range(dim)]
    axis = np.concatenate([np.full(k.size, ax) for ax, k in enumerate(lo)])
    h = np.asarray(space.h)[axis]
    face = np.arange(axis.size)
    q = space.node_points().reshape(-1, dim)[np.concatenate(lo)]
    quarters = np.concatenate((q, q))
    quarters[face, axis] += 0.25 * h
    quarters[face.size + face, axis] += 0.75 * h
    vals = spec.coefficients.diag_at(n, quarters, dim)
    a1, a2 = vals[face, axis], vals[face.size + face, axis]
    w = 2.0 * a1 * a2 / (a1 + a2) / (h * h)
    rows = np.concatenate([np.concatenate((a, b, a, b)) for a, b in zip(lo, hi)])
    cols = np.concatenate([np.concatenate((b, a, a, b)) for a, b in zip(lo, hi)])
    take = np.concatenate([np.tile(face[axis == ax], 4) for ax in range(dim)])
    sign = np.where(rows == cols, 1.0, -1.0)
    return sp.csr_matrix((sign * w[take], (rows, cols)),
                         shape=(nodes.size, nodes.size))


@pytest.mark.parametrize("cells", [(16,), (8, 8), (5, 12), (12, 10)])
@pytest.mark.parametrize("kind", ["constant", "checkerboard", "flip",
                                  "anisotropic"])
def test_stencil_operators_bitwise_equal_coo_assembly(monkeypatch, cells,
                                                      kind):
    dim = len(cells)
    g = S.SpaceGrid((0.0,) * dim, (1.0, 1.5)[:dim], cells)
    field = {"constant": S.constant_coefficients(2.5, dim),
             "checkerboard": S.checkerboard_coefficients(g, 2, 0.5, 4.0),
             "flip": S.checkerboard_coefficients(g, 2, 0.5, 4.0, time_flip=3),
             "anisotropic": anisotropic_field(dim)}[kind]
    spec = S.ProblemSpec(alpha=0.4, space=g, time=TimeGrid.from_horizon(0.3, 9),
                         u0=np.zeros(g.shape), boundary=0.0, coefficients=field)
    factorized = record_factors(monkeypatch)
    res = S.solve_subdiffusion(spec)
    ops, state = res._operators
    assert len(ops) == {"flip": 2, "anisotropic": 9}.get(kind, 1)
    assert len(factorized) == len(ops)
    c0 = spec.time.dt ** (-spec.alpha) / gamma(2.0 - spec.alpha)
    stencil = g._stencil
    # the interior nodes in the stencil's order, the longer axis outermost
    inner = stencil.inner
    X = np.random.default_rng(len(kind)).uniform(-1.0, 1.0,
                                                 (3, math.prod(g.shape)))
    eps = np.finfo(float).eps
    for s, W in enumerate(ops):
        ref = coo_operator(spec, 1 + int(np.argmax(state == s)))
        A_ref = (ref[inner][:, inner]
                 + c0 * sp.identity(inner.size, format="csr")).toarray()
        band_ref = upper_band(A_ref, stencil.kd)
        for got in (factorized[s], stencil.band(W, c0)):
            assert got.shape == band_ref.shape
            assert got.tobytes() == band_ref.tobytes()
        # L itself bitwise; L X within a few ulps of each row's terms, and
        # <L x, y> = <x, L y>
        np.testing.assert_array_equal(dense_operator(stencil, W, g),
                                      ref.toarray())
        LX = stencil.apply(W, X.T.reshape(g.shape + (3,))).reshape(-1, 3).T
        scale = (abs(ref) @ np.abs(X).T).T
        assert np.all(np.abs(LX - (ref @ X.T).T) <= 4 * eps * scale)
        pairs = LX @ X.T
        assert np.all(np.abs(pairs - pairs.T)
                      <= 8 * eps * (np.abs(X) @ scale.T))


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_u0_rejected(make, bad):
    u0 = np.zeros(make().space.shape)
    u0.flat[3] = bad
    with pytest.raises(DomainError, match="u0"):
        make(u0=u0)


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
@pytest.mark.parametrize("which", ["boundary", "forcing"])
def test_nonfinite_level_data_names_the_level(make, which):
    dt = make().time.dt

    def data(t, pts):
        return np.full(pts.shape[:-1], np.inf if t > 2.5 * dt else 1.0)

    with pytest.raises(DomainError, match="level 3"):
        S.solve_subdiffusion(make(**{which: data}))


def test_nonfinite_coefficients_rejected():
    nan_field = S.CoefficientField(
        evaluate=lambda ti, pts: np.full(pts.shape[:-1], np.nan),
        nu=1.0, lambda_bound=1.0, time_dependent=False)
    with pytest.raises(DomainError, match="level 1"):
        S.solve_subdiffusion(interval_spec(coefficients=nan_field))


def test_factorization_failure_is_linear_solve_error(monkeypatch):
    def failing(ab, *args, **kwargs):
        return ab, 3

    monkeypatch.setattr(S, "dpbtrf", failing)
    with pytest.raises(LinearSolveError,
                       match="level 1: minor 3 not positive definite"):
        S.solve_subdiffusion(rect_spec())


@pytest.mark.parametrize("time_flip, level", [(None, 1), (5, 5)])
def test_non_positive_definite_band_is_linear_solve_error(monkeypatch,
                                                          time_flip, level):
    # LAPACK's band Cholesky itself rejects the last state's band, negated:
    # the error names the level where that state first applies
    band, made = S._Stencil.band, []
    states = 1 if time_flip is None else 2

    def injected(self, W, c0):
        made.append(c0)
        return (-1.0 if len(made) == states else 1.0) * band(self, W, c0)

    monkeypatch.setattr(S._Stencil, "band", injected)
    with pytest.raises(LinearSolveError,
                       match=f"level {level}: .* not positive definite"):
        S.solve_subdiffusion(rect_spec(time_flip=time_flip))
    assert len(made) == states


def stencil_arrays(stencil):
    found, todo = [], list(vars(stencil).values())
    while todo:
        value = todo.pop()
        if isinstance(value, (tuple, list)):
            todo.extend(value)
        elif isinstance(value, np.ndarray):
            found.append(value)
    return found


def test_equal_grids_share_one_read_only_stencil():
    a = S.solve_subdiffusion(rect_spec())
    b = S.solve_subdiffusion(rect_spec(time_flip=2))
    assert a.spec.space is not b.spec.space and a.spec.space == b.spec.space
    stencil = a.spec.space._stencil
    assert b.spec.space._stencil is stencil
    # the quarter points, the interior and boundary nodes and their points
    arrays = stencil_arrays(stencil)
    assert len(arrays) >= 5
    assert not any(arr.flags.writeable for arr in arrays)
    # -0.0 and 0.0 bounds are one grid with one set of node points
    signed = S.SpaceGrid.interval(-0.0, 1.0, 8)
    assert math.copysign(1.0, signed.lower[0]) == 1.0


def count_stencil_builds(monkeypatch):
    """The grids whose stencils are built from now on, none shared with a
    grid made earlier."""
    monkeypatch.setattr(S, "_stencils", weakref.WeakValueDictionary())
    built, init = [], S._Stencil.__init__

    def counted(self, space):
        built.append(space.cells)
        init(self, space)

    monkeypatch.setattr(S._Stencil, "__init__", counted)
    return built


def test_solves_over_live_grids_build_one_stencil_per_distinct_grid(
        monkeypatch):
    # the ensemble's traffic: many problems on a few grids, all alive
    built = count_stencil_builds(monkeypatch)
    specs = [interval_spec(nx=8), rect_spec(), interval_spec(nx=12),
             rect_spec(time_flip=2), interval_spec(nx=8), interval_spec(nx=12)]
    results = [S.solve_subdiffusion(spec) for spec in specs]
    for res in results:
        S.supersolution_residual(res)
    assert sorted(built) == [(8,), (12,), (12, 10)]
    assert results[0].spec.space._stencil is results[4].spec.space._stencil


def test_stencil_freed_with_the_last_grid_that_holds_it(monkeypatch):
    built = count_stencil_builds(monkeypatch)
    a = S.solve_subdiffusion(rect_spec())
    S.supersolution_residual(a)
    b = rect_spec(time_flip=2)                  # an equal grid, alive
    stencil = weakref.ref(b.space._stencil)
    assert stencil() is a.spec.space._stencil
    del a
    gc.collect()
    assert stencil() is b.space._stencil
    del b
    gc.collect()
    assert stencil() is None
    rect_spec().space._stencil                  # the next equal grid builds
    assert built == [(12, 10), (12, 10)]


def test_pickled_or_copied_grid_shares_the_live_stencil():
    grid = S.SpaceGrid.interval(0.0, 1.0, 8)
    fresh = pickle.dumps(grid)
    stencil = grid._stencil
    # a used grid pickles as a fresh one: the stencil is left behind
    assert pickle.dumps(grid) == fresh
    for twin in (pickle.loads(fresh), copy.deepcopy(grid), copy.copy(grid)):
        assert twin == grid and "_stencil" not in vars(twin)
        assert twin._stencil is stencil


def test_evaluator_cannot_write_shared_quarter_points():
    def vandal(_ti, pts):
        pts[..., 0] = 0.0
        return np.ones(pts.shape[:-1])

    field = S.CoefficientField(evaluate=vandal, nu=1.0, lambda_bound=1.0)
    with pytest.raises(ValueError, match="read-only"):
        S.solve_subdiffusion(interval_spec(coefficients=field))


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
def test_cached_stencil_run_bitwise_equal_after_cache_clear(monkeypatch,
                                                             make):
    rng = np.random.default_rng(31)
    shape = make().space.shape
    flipping = S.checkerboard_coefficients(make().space, 2, 0.5, 4.0,
                                           time_flip=3)
    data = dict(u0=rng.uniform(-1.0, 2.0, size=shape),
                boundary=lambda t, pts: np.cos(3.0 * t + pts[..., 0]),
                forcing=lambda t, pts: np.sin(pts[..., 0] - t),
                coefficients=flipping)
    # another problem on an equal grid, alive, lends the run its stencil
    other = S.solve_subdiffusion(make())
    spec = make(**data)
    warm = S.solve_subdiffusion(spec)
    warm_form = S.supersolution_residual(warm)
    assert spec.space._stencil is other.spec.space._stencil
    # with the live stencils forgotten, an equal grid builds its own
    monkeypatch.setattr(S, "_stencils", weakref.WeakValueDictionary())
    cold = S.solve_subdiffusion(make(**data))
    cold_form = S.supersolution_residual(cold)
    assert cold.spec.space._stencil is not spec.space._stencil
    assert warm.u.tobytes() == cold.u.tobytes()
    assert warm.diagnostics == cold.diagnostics
    assert struct.pack("<d", warm_form) == struct.pack("<d", cold_form)


def test_static_field_factorized_once(monkeypatch):
    calls = record_factors(monkeypatch)
    S.solve_subdiffusion(rect_spec())
    assert len(calls) == 1
    # a field flagged time-dependent whose values never change keeps one factor
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    cb = S.checkerboard_coefficients(g, 2, 1.0, 5.0)
    flagged = S.CoefficientField(evaluate=cb.evaluate, nu=cb.nu,
                                 lambda_bound=cb.lambda_bound)
    assert flagged.time_dependent
    calls.clear()
    S.solve_subdiffusion(interval_spec(coefficients=flagged))
    assert len(calls) == 1


@pytest.mark.parametrize("time_flip", [1, 3])
def test_flipping_field_factorized_twice(monkeypatch, time_flip):
    calls = record_factors(monkeypatch)
    S.solve_subdiffusion(rect_spec(time_flip=time_flip, m=12))
    assert len(calls) == 2


@pytest.mark.parametrize("time_flip", [None, 3])
def test_faces_evaluated_once_per_state_walk(time_flip):
    space = rect_spec().space
    field = S.checkerboard_coefficients(space, 2, 0.5, 4.0, time_flip=time_flip)
    evaluate, calls = field.evaluate, []

    def counting(ti, pts):
        calls.append(ti)
        return evaluate(ti, pts)

    field.evaluate = counting
    spec = rect_spec(m=12, coefficients=field)
    res = S.solve_subdiffusion(spec)
    S.supersolution_residual(res)
    S.supersolution_residual(res)
    # one call for all quarter points, at level 1 or at every level; none
    # when the spec is built
    assert calls == (list(range(1, 13)) if time_flip else [1])


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
def test_flip_solve_bitwise_equal_without_the_pattern_cache(make):
    rng = np.random.default_rng(37)
    args = (make().space, 2, 0.5, 4.0)
    cached = S.checkerboard_coefficients(*args, time_flip=3)
    # a fresh checkerboard per call: no block pattern is ever reused
    fresh = S.CoefficientField(
        evaluate=lambda ti, pts: S.checkerboard_coefficients(
            *args, time_flip=3).evaluate(ti, pts),
        nu=cached.nu, lambda_bound=cached.lambda_bound)
    u0 = rng.uniform(-1.0, 2.0, size=make().space.shape)
    a, b = (S.solve_subdiffusion(make(
        m=14, u0=u0, coefficients=field,
        boundary=lambda t, pts: np.cos(3.0 * t + pts[..., 0])))
        for field in (cached, fresh))
    assert a.u.tobytes() == b.u.tobytes()
    assert a.diagnostics == b.diagnostics
    assert struct.pack("<d", S.supersolution_residual(a)) == struct.pack(
        "<d", S.supersolution_residual(b))


def test_equal_bytes_in_a_new_shape_are_checked():
    # level 2 returns level 1's bytes in a wrong shape: the level's key
    # holds the shape, so its samples are checked, not shared
    def evaluate(ti, pts):
        vals = np.ones(pts.shape[:-1])
        return vals if ti == 1 else vals.reshape(-1, 2)

    field = S.CoefficientField(evaluate=evaluate, nu=1.0, lambda_bound=2.0)
    with pytest.raises(DomainError, match=r"returned shape \(262, 2\)"):
        S.solve_subdiffusion(rect_spec(coefficients=field))


@pytest.mark.parametrize("bound,level,bad", [
    ("ellipticity", 3, 0.01), ("magnitude", 2, 100.0), ("not finite", 3, np.nan)])
def test_field_claims_checked_at_every_solved_level(monkeypatch, bound, level,
                                                    bad):
    # nu = 1 and lambda_bound = 2 hold at every level but one
    def evaluate(ti, pts):
        return np.full(pts.shape[:-1], bad if ti == level else 1.0)

    field = S.CoefficientField(evaluate=evaluate, nu=1.0, lambda_bound=2.0)
    spec = interval_spec(m=4, coefficients=field)
    calls = record_factors(monkeypatch)
    with pytest.raises(DomainError, match=f"{bound}.* at level {level}"):
        S.solve_subdiffusion(spec)
    assert calls == []  # raised before any level is solved
    hand_made = S.SolveResult(spec=spec, u=np.zeros((5,) + spec.space.shape))
    with pytest.raises(DomainError, match=f"{bound}.* at level {level}"):
        S.supersolution_residual(hand_made)


@pytest.mark.parametrize("bound, axis_values", [
    # one axis below nu = 1; every entry within lambda_bound = 2, their
    # Frobenius norm sqrt(8) not; a NaN on the second axis only
    ("ellipticity", (1.5, 0.5)), ("magnitude", (2.0, 2.0)),
    ("not finite", (1.0, np.nan))])
def test_diagonal_field_claims_checked_per_axis(monkeypatch, bound,
                                                axis_values):
    # a 2D diagonal field, (..., 2) per point, that breaks its claim at
    # level 4 alone
    def evaluate(ti, pts):
        vals = np.full(pts.shape[:-1] + (2,), 1.25)
        vals[..., 0] += np.sin(pts[..., 1]) / 8.0
        if ti == 4:
            vals[3] = axis_values
        return vals

    field = S.CoefficientField(evaluate=evaluate, nu=1.0, lambda_bound=2.0)
    spec = rect_spec(m=6, coefficients=field)
    calls = record_factors(monkeypatch)
    with pytest.raises(DomainError, match=f"{bound}.* at level 4"):
        S.solve_subdiffusion(spec)
    assert calls == []  # raised before any level is solved
    # the same field without the break passes the check
    field.evaluate = lambda ti, pts: evaluate(1, pts)
    assert len(S.solve_subdiffusion(spec).diagnostics) == 6


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
def test_level_residuals_are_true_residuals(make):
    rng = np.random.default_rng(11)
    shape = make().space.shape
    spec = make(u0=rng.uniform(-1.0, 2.0, size=shape),
                boundary=lambda t, pts: np.cos(3.0 * t + pts[..., 0]),
                forcing=lambda t, pts: np.sin(pts[..., 0] - t),
                coefficients=(rect_spec(time_flip=2).coefficients
                              if len(shape) == 2 else None))
    res = S.solve_subdiffusion(spec)
    assert len(res.diagnostics) == spec.time.m
    assert all(0.0 <= r <= 1e-12 for r in res.diagnostics)
    # measured, not a placeholder: rounding leaves some level nonzero
    assert max(res.diagnostics) > 0.0


def test_comparison_principle_exact_on_flipping_checkerboard_2d():
    rng = np.random.default_rng(21)
    shape = rect_spec().space.shape
    u0 = rng.uniform(-1.0, 1.0, size=shape)
    gap = np.where(rng.uniform(size=shape) < 0.5, 0.0,
                   rng.uniform(0.0, 1e-3, size=shape))

    def g(t, pts):
        return 0.5 * np.sin(4.0 * t + pts[..., 0] - pts[..., 1])

    def h(t, pts):
        return g(t, pts) + np.where(pts[..., 0] < 0.5, 0.0, 1e-3 * t)

    u = S.solve_subdiffusion(rect_spec(time_flip=2, u0=u0, boundary=g)).u
    v = S.solve_subdiffusion(
        rect_spec(time_flip=2, u0=u0 + gap, boundary=h)).u
    scale = max(np.abs(u).max(), np.abs(v).max())
    assert (u - v).max() <= 1e-13 * scale


# ---------------------------------------------------------------------------
# blocked history and the data pass
# ---------------------------------------------------------------------------

def direct_march(spec, dense=False):
    """Level-by-level reference march with the full direct history sum:
    (c0 I + L) u_n = c0 (b_{n-1} u_0 + sum_j (b_{j-1} - b_j) u_{n-j}) + f
    on the interior, u_n = g on the boundary; L is each level's COO
    assembly, and each level is solved by SuperLU, or by
    ``numpy.linalg.solve`` on the dense matrix."""
    space, time = spec.space, spec.time
    dt, m, alpha = time.dt, time.m, spec.alpha
    c0 = dt ** (-alpha) / math.gamma(2.0 - alpha)
    b = F.l1_weights(alpha, m)
    bmask = space.boundary_mask().ravel()
    inner, outer = np.flatnonzero(~bmask), np.flatnonzero(bmask)
    pts = space.node_points().reshape(-1, space.dimension)
    U = np.zeros((m + 1, bmask.size))
    U[0] = spec.u0.ravel()
    for n in range(1, m + 1):
        t = n * dt
        hist = b[n - 1] * U[0]
        for j in range(1, n):
            hist = hist + (b[j - 1] - b[j]) * U[n - j]
        L = coo_operator(spec, n)[inner]
        U[n, outer] = S._source_values(spec.boundary, t, pts[outer])
        rhs = (c0 * hist[inner] + S._source_values(spec.forcing, t, pts[inner])
               - L[:, outer] @ U[n, outer])
        A = L[:, inner] + c0 * sp.identity(inner.size)
        U[n, inner] = (np.linalg.solve(A.toarray(), rhs) if dense
                       else spl.spsolve(A.tocsc(), rhs))
    return U.reshape((m + 1,) + space.shape)


# several base blocks, a length that halves unevenly, and a flip period
# that divides neither the base block nor the data chunk
LONG_M = 5 * F._BLOCK + 13


def long_spec(dim, **kw):
    rng = np.random.default_rng(40 + dim)
    if dim == 1:
        g = S.SpaceGrid.interval(0.0, 1.0, 16)
        defaults = dict(
            u0=rng.uniform(-1.0, 2.0, size=g.shape),
            boundary=lambda t, p: np.cos(3.0 * t + p[..., 0]),
            forcing=lambda t, p: np.sin(2.0 * p[..., 0] - t),
            coefficients=S.checkerboard_coefficients(g, 2, 0.5, 4.0))
        defaults.update(kw)
        return interval_spec(nx=16, m=LONG_M, T=2.0, **defaults)
    shape = rect_spec().space.shape
    defaults = dict(
        u0=rng.uniform(-1.0, 2.0, size=shape),
        boundary=lambda t, p: 0.5 * np.sin(4.0 * t + p[..., 0] - p[..., 1]),
        forcing=lambda t, p: np.cos(p[..., 1] + t))
    defaults.update(kw)
    return rect_spec(time_flip=7, m=LONG_M, **defaults)


def assert_matches_direct_march(spec):
    assert spec.time.m > 4 * F._BLOCK
    res = S.solve_subdiffusion(spec)
    want = direct_march(spec)
    scale = np.abs(want).max()
    assert np.abs(res.u - want).max() <= 1e-12 * scale
    assert len(res.diagnostics) == spec.time.m
    assert all(0.0 <= r <= 1e-12 for r in res.diagnostics)
    assert max(res.diagnostics) > 0.0
    return res


@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_history_matches_direct_march(dim):
    assert_matches_direct_march(long_spec(dim))


def march_transforming_every_split(lo, hi, leaf, rows, w):
    """The blocked march with its weight window transformed again at every
    split."""
    if hi - lo <= F._BLOCK:
        return leaf(lo, hi)
    mid = (lo + hi) // 2
    march_transforming_every_split(lo, mid, leaf, rows, w)
    rows[mid:hi] += F._fft_window(w, rows[lo:mid], mid - lo, hi - lo, {})
    march_transforming_every_split(mid, hi, leaf, rows, w)


def scalar_relaxation(rule):
    time = TimeGrid.from_horizon(2.0, LONG_M)
    if rule == "trapezoid":
        return S.solve_scalar_relaxation(0.5, 3.0, 1.5, time).values
    kern = K.rl_kernel_table(0.5, time.dt, time.m, sampling="cell_average",
                             scale=3.0)
    return K.solve_volterra(kern, np.full(time.m + 1, 1.5), rule=rule).values


@pytest.mark.parametrize("case", ["trapezoid", "rectangle", 1, 2])
def test_march_spectrum_reuse_is_bitwise(monkeypatch, case):
    # LONG_M splits into uneven halves, so a depth has two span lengths
    if isinstance(case, str):
        run = lambda: scalar_relaxation(case)
    else:
        spec = long_spec(case)
        run = lambda: S.solve_subdiffusion(spec).u
    got = run()
    monkeypatch.setattr(F, "_causal_march", march_transforming_every_split)
    monkeypatch.setattr(S, "_causal_march", march_transforming_every_split)
    assert np.array_equal(got, run())


def test_band_cholesky_matches_direct_march_on_long_square_run():
    # a 23-wide band, factorized twice and back-substituted LONG_M times
    g = S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (24, 24))
    rng = np.random.default_rng(44)
    spec = S.ProblemSpec(
        alpha=0.4, space=g, time=TimeGrid.from_horizon(0.3, LONG_M),
        u0=rng.uniform(-1.0, 2.0, size=g.shape),
        boundary=lambda t, p: 0.5 * np.sin(4.0 * t + p[..., 0] - p[..., 1]),
        forcing=lambda t, p: np.cos(p[..., 1] + t),
        coefficients=S.checkerboard_coefficients(g, 3, 0.5, 4.0, time_flip=7))
    res = assert_matches_direct_march(spec)
    assert len(res._operators[0]) == 2
    assert g._stencil.kd == 23


@pytest.mark.parametrize("cells", [(5, 12), (12, 5), (16,), (8, 8)])
@pytest.mark.parametrize("time_flip", [None, 3])
def test_band_width_follows_the_grid(cells, time_flip):
    # kd is the interior length of the shorter axis in 2D (4 on (5, 12) and
    # on (12, 5)) and 1 in 1D; every width solves as a dense solve does
    dim = len(cells)
    g = S.SpaceGrid((0.0,) * dim, (1.0, 1.5)[:dim], cells)
    rng = np.random.default_rng(sum(cells))
    spec = S.ProblemSpec(
        alpha=0.6, space=g, time=TimeGrid.from_horizon(0.4, 40),
        u0=rng.uniform(-1.0, 2.0, size=g.shape),
        boundary=lambda t, p: np.cos(3.0 * t + p[..., 0] - p[..., -1]),
        forcing=lambda t, p: np.sin(2.0 * p[..., 0] - t),
        coefficients=S.checkerboard_coefficients(g, 2, 0.5, 4.0,
                                                 time_flip=time_flip))
    res = S.solve_subdiffusion(spec)
    assert g._stencil.kd == (min(cells) - 1 if dim == 2 else 1)
    assert len(res._operators[0]) == (1 if time_flip is None else 2)
    want = direct_march(spec, dense=True)
    assert np.abs(res.u - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_comparison_principle_exact_on_long_run(dim):
    rng = np.random.default_rng(50 + dim)
    base = long_spec(dim)
    shape = base.space.shape
    gap = np.where(rng.uniform(size=shape) < 0.5, 0.0,
                   rng.uniform(0.0, 1e-3, size=shape))

    def h(t, pts):
        return base.boundary(t, pts) + np.where(pts[..., 0] < 0.5, 0.0, 1e-3 * t)

    u = S.solve_subdiffusion(base).u
    v = S.solve_subdiffusion(long_spec(dim, u0=base.u0 + gap, boundary=h)).u
    scale = max(np.abs(u).max(), np.abs(v).max())
    assert (u - v).max() <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_level_data_called_once_per_level_in_order(dim):
    calls = []

    def logged(name, fn):
        def data(t, pts):
            calls.append((name, t))
            return fn(t, pts)
        return data

    base = long_spec(dim)
    spec = long_spec(dim, boundary=logged("g", base.boundary),
                     forcing=logged("f", base.forcing))
    S.solve_subdiffusion(spec)
    want = [(name, t) for t in spec.time.nodes[1:] for name in ("g", "f")]
    assert calls == want


def full_rows(value):
    return lambda t, pts: np.full(pts.shape[:-1], value)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary, forcing", [(0.75, None), (None, -2.0)])
def test_constant_level_data_matches_callable_data(dim, boundary, forcing):
    # constant and absent data fill each pass with one broadcast; callables
    # returning the same rows must give the same solve bit for bit
    const = S.solve_subdiffusion(
        long_spec(dim, boundary=boundary, forcing=forcing))
    called = S.solve_subdiffusion(long_spec(
        dim, boundary=full_rows(boundary or 0.0),
        forcing=full_rows(forcing or 0.0)))
    assert np.array_equal(const.u, called.u)
    assert const.diagnostics == called.diagnostics


def data_spec(dim, m, time_flip=None, alpha=0.4):
    """An interval or rectangle run over m levels with a flipping
    checkerboard and callable boundary and forcing data."""
    rng = np.random.default_rng(60 + dim)
    g = (interval_spec() if dim == 1 else rect_spec()).space
    return S.ProblemSpec(
        alpha=alpha, space=g, time=TimeGrid.from_horizon(0.5, m),
        u0=rng.uniform(-1.0, 2.0, size=g.shape),
        boundary=lambda t, p: np.cos(3.0 * t + p[..., 0] - p[..., -1]),
        forcing=lambda t, p: np.sin(2.0 * p[..., 0] - t),
        coefficients=S.checkerboard_coefficients(g, 2, 0.5, 4.0,
                                                 time_flip=time_flip))


def block_size_cases():
    rng = np.random.default_rng(60)
    thin = S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 2.0), (16, 64))
    thin_spec = S.ProblemSpec(
        alpha=0.7, space=thin, time=TimeGrid.from_horizon(0.2, 37),
        u0=rng.uniform(-1.0, 2.0, size=thin.shape),
        boundary=lambda t, p: np.cos(2.0 * t - p[..., 1]),
        forcing=lambda t, p: np.sin(p[..., 0] + t),
        coefficients=S.checkerboard_coefficients(thin, 4, 0.5, 4.0,
                                                 time_flip=3))
    cases = [pytest.param(thin_spec, id="thin-flip3")]
    for flip in (3, 7):
        for dim in (1, 2):
            cases.append(pytest.param(data_spec(dim, 70, time_flip=flip),
                                      id=f"{dim}d-flip{flip}"))
    return cases


@pytest.mark.parametrize("spec", block_size_cases())
def test_solve_bitwise_equal_for_every_block_size(monkeypatch, spec):
    # the coupling and residual passes apply each level's own weights,
    # gathered per block: any block size gives the same bits
    runs = []
    for chunk in (1, 5, 16):
        monkeypatch.setattr(S, "_CHUNK", chunk)
        runs.append(S.solve_subdiffusion(spec))
    assert len(runs[0]._operators[0]) == 2
    for res in runs[1:]:
        assert res.u.tobytes() == runs[0].u.tobytes()
        assert struct.pack(f"<{spec.time.m}d", *res.diagnostics) == \
            struct.pack(f"<{spec.time.m}d", *runs[0].diagnostics)


def backward_euler_march(spec):
    """(I / dt + L^n) u_n = u_{n-1} / dt + f_n on the interior and u_n = g_n
    on the boundary, dense, with L^n each level's COO assembly."""
    space, dt = spec.space, spec.time.dt
    bmask = space.boundary_mask().ravel()
    inner, outer = np.flatnonzero(~bmask), np.flatnonzero(bmask)
    pts = space.node_points().reshape(-1, space.dimension)
    U = np.zeros((spec.time.m + 1, bmask.size))
    U[0] = spec.u0.ravel()
    for n in range(1, spec.time.m + 1):
        L = coo_operator(spec, n).toarray()[inner]
        U[n, outer] = S._source_values(spec.boundary, n * dt, pts[outer])
        rhs = (U[n - 1, inner] / dt
               + S._source_values(spec.forcing, n * dt, pts[inner])
               - L[:, outer] @ U[n, outer])
        U[n, inner] = np.linalg.solve(L[:, inner] + np.eye(inner.size) / dt,
                                      rhs)
    return U.reshape(U.shape[:1] + space.shape)


@pytest.mark.parametrize("dim", [1, 2])
def test_alpha_one_is_backward_euler(dim):
    # at alpha = 1 the L1 weights are [1, 0, ...]: u0 and the history
    # enter through b_0 alone
    spec = data_spec(dim, 30, time_flip=3, alpha=1.0)
    res = S.solve_subdiffusion(spec)
    want = backward_euler_march(spec)
    assert np.abs(res.u - want).max() <= 1e-12 * np.abs(want).max()
    assert all(0.0 <= r <= 1e-12 for r in res.diagnostics)


@pytest.mark.parametrize("which", ["boundary", "forcing"])
def test_nonfinite_constant_data_names_the_first_level(which):
    with pytest.raises(DomainError, match=r"level 1 \("):
        S.solve_subdiffusion(long_spec(1, **{which: np.inf}))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("which", ["boundary", "forcing"])
@pytest.mark.parametrize("bad_level", [17, 3 * F._BLOCK + 5])
def test_nonfinite_data_on_long_run_names_the_level(dim, which, bad_level):
    base = long_spec(dim)
    dt = base.time.dt
    good = getattr(base, which)

    def data(t, pts):
        vals = good(t, pts)
        return vals * np.nan if abs(t - bad_level * dt) < 0.5 * dt else vals

    with pytest.raises(DomainError, match=rf"level {bad_level} \("):
        S.solve_subdiffusion(long_spec(dim, **{which: data}))


@pytest.mark.parametrize("make", [interval_spec, rect_spec])
@pytest.mark.parametrize("which", ["boundary", "forcing"])
def test_wrong_shape_level_data_is_grid_mismatch(make, which):
    spec = make()
    dt = spec.time.dt
    n_out = int(spec.space.boundary_mask().sum())
    n_in = spec.u0.size - n_out
    # too many boundary entries; a trailing axis on the interior
    wrong = np.zeros(n_out + 3) if which == "boundary" else np.zeros((n_in, 2))

    def data(t, pts):
        return wrong if t > 2.5 * dt else np.zeros(pts.shape[:-1])

    with pytest.raises(GridMismatchError, match=f"{which} values at level 3"):
        S.solve_subdiffusion(make(**{which: data}))


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_buffers_freed_with_result(dim):
    # no reference cycle may hold the solution, the factors or the history
    # rows after the result is dropped: they are freed at once, not when
    # the cycle collector next runs
    res = S.solve_subdiffusion(long_spec(dim))
    S.supersolution_residual(res)
    refs = [weakref.ref(res), weakref.ref(res.u)]
    gc.collect()
    gc.disable()
    try:
        del res
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
