import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import gamma

from subharnack import fracops as F
from subharnack import kernels as K
from subharnack.errors import DomainError, GridMismatchError, SingularKernelError


def make_grid(m, T=1.0):
    return F.TimeGrid.from_horizon(T, m)


# ---------------------------------------------------------------------------
# causal convolution
# ---------------------------------------------------------------------------

def naive_causal_sum(w, x):
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        for j in range(n + 1):
            out[n] += w[j] * x[n - j]
    return out


def test_causal_sum_direct_in_1d_is_exact():
    # small integers: every product and partial sum is exact in any order
    rng = np.random.default_rng(0)
    w = rng.integers(-8, 9, size=97).astype(float)
    x = rng.integers(-8, 9, size=97).astype(float)
    got = F.causal_sum(w, x)
    assert got.shape == x.shape
    assert np.array_equal(got, naive_causal_sum(w, x))


@pytest.mark.parametrize("shape", [(65, 7), (33, 5, 4)])
def test_causal_sum_space_time_matches_loop(shape):
    rng = np.random.default_rng(1)
    w = rng.uniform(-1.0, 1.0, size=shape[0])
    x = rng.uniform(-1.0, 1.0, size=shape)
    got = F.causal_sum(w, x)
    assert got.shape == x.shape
    # FFT rounding is global: relative to sum |w| max |x|, not per output
    bound = np.abs(w).sum() * np.abs(x).max()
    assert np.abs(got - naive_causal_sum(w, x)).max() <= 1e-13 * bound


@pytest.mark.parametrize("lo,hi", [(40, 100), (39, 100), (10, 70), (0, 40)],
                         ids=["past_end", "last_row", "overlap", "default"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_causal_sum_window_matches_loop(lo, hi, ndim):
    # x of 40 rows, zero past its end: the window from lo >= len(x) - 1 uses
    # a circular transform of length hi, the others pad
    rng = np.random.default_rng(2)
    w = rng.uniform(-1.0, 1.0, size=100)
    x = rng.uniform(-1.0, 1.0, size=(40, 6)[:ndim])
    padded = np.zeros((100,) + x.shape[1:])
    padded[:40] = x
    want = naive_causal_sum(w, padded)[lo:hi]
    got = F._fft_window(w, x, lo, hi, {})
    assert got.shape == want.shape
    bound = np.abs(w).sum() * np.abs(x).max()
    assert np.abs(got - want).max() <= 1e-13 * bound
    # a stack's causal sum is the default window; a single trace is summed
    # directly instead
    if (lo, hi) == (0, 40) and ndim == 2:
        assert np.array_equal(got, F.causal_sum(w, x))


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3, 2)],
                         ids=["direct", "fft", "fft-3d"])
def test_causal_sum_needs_a_weight_per_row(shape):
    # missing weights are not read as zeros: both lengths are named
    with pytest.raises(DomainError, match=r"2 weights for len\(x\) = 4"):
        F.causal_sum(np.ones(2), np.ones(shape))
    # with len(x) weights it sums: 1, 2, 3, 4 down axis 0, to FFT rounding
    got = F.causal_sum(np.ones(4), np.ones(shape))
    want = np.cumsum(np.ones(shape), axis=0)
    assert np.abs(got - want).max() <= 1e-13 * 4


@pytest.mark.parametrize("shape", [(0,), (0, 3), (0, 2, 2)])
@pytest.mark.parametrize("nw", [0, 5])
def test_causal_sum_of_empty_x_is_empty(shape, nw):
    got = F.causal_sum(np.ones(nw), np.ones(shape))
    assert got.shape == shape and got.dtype == float


@pytest.mark.parametrize("m", [66, 100, 255, 4096])
@pytest.mark.parametrize("cols", [1, 2, 3, 5])
def test_stacked_sums_match_direct_per_column(m, cols):
    # each column of a stack goes through the FFT padded to a fast length
    assert next_fast_len(2 * m + 1, real=True) > 2 * m + 1
    rng = np.random.default_rng(10 * m + cols)
    k = rng.uniform(-1.0, 1.0, size=m + 1)
    v = rng.uniform(-2.0, 2.0, size=(m + 1, cols))
    dt = 1.0 / m
    bound = 1e-13 * np.abs(k).sum() * np.abs(v).max()
    sums = F.causal_sum(k, v)
    conv = F._trapezoid_convolve(k, v, dt)
    assert sums.shape == conv.shape == v.shape
    for c in range(cols):
        assert np.abs(sums[:, c] - F.causal_sum(k, v[:, c])).max() <= bound
        direct = F._trapezoid_convolve(k, v[:, c], dt)
        assert np.abs(conv[:, c] - direct).max() <= dt * bound


def test_time_grid_step_count_must_be_integral():
    for m in (2.5, 4.000001, float("nan"), np.float32(3.5), "4"):
        with pytest.raises(DomainError, match="integer"):
            F.TimeGrid(0.1, m)
    for m in (4, 4.0, np.int64(4), np.float64(4.0)):
        grid = F.TimeGrid(0.1, m)
        assert type(grid.m) is int and grid.m == 4
        assert grid.nodes.shape == (5,)
    assert F.TimeGrid(0.1, np.int32(4)) == F.TimeGrid(0.1, 4)


def test_time_grid_step_must_be_finite_and_positive():
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite and positive"):
            F.TimeGrid(dt, 4)
    for T in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match="finite and positive"):
            F.TimeGrid.from_horizon(T, 4)


def product_integral(k, v, dt):
    """(k * v) at nodes 1..m by product integration: v piecewise constant
    per cell with its right-node value, k through its cell values."""
    return F.causal_sum(k.cell_values(), v[1:]) * dt


def test_convolve_inverse_identity():
    m = 512
    grid = make_grid(m)
    ka = K.rl_kernel_table(0.5, grid.dt, m)
    kb = K.rl_kernel_table(0.5, grid.dt, m)
    out = product_integral(ka, kb.values, grid.dt)
    assert np.abs(out - 1.0).max() <= 1e-12


def test_convolve_unit_kernel_integrates():
    m = 128
    grid = make_grid(m)
    one = K.rl_kernel_table(1.0, grid.dt, m)
    out = product_integral(one, np.ones(m + 1), grid.dt)
    assert np.abs(out - grid.nodes[1:]).max() == 0.0


def test_convolve_commutativity():
    m = 64
    grid = make_grid(m)
    ka = K.rl_kernel_table(0.4, grid.dt, m, sampling="cell_average")
    kb = K.rl_kernel_table(0.8, grid.dt, m, sampling="cell_average")
    ab = product_integral(ka, kb.values, grid.dt)
    ba = product_integral(kb, ka.values, grid.dt)
    assert np.abs(ab - ba).max() < 1e-14 * np.abs(ab).max()


def test_convolve_exact_for_piecewise_constant_data():
    # cell-average kernel against per-cell-constant data: product integration
    # reproduces the exact integral of g * v
    m, beta = 40, 0.5
    grid = make_grid(m, T=2.0)
    rng = np.random.default_rng(3)
    cells = rng.uniform(-1.0, 2.0, size=m)
    kern = K.rl_kernel_table(beta, grid.dt, m, sampling="cell_average")
    got = product_integral(kern, np.concatenate([[0.0], cells]), grid.dt)
    G = lambda s: np.maximum(s, 0.0) ** beta / gamma(beta + 1.0)
    t = grid.nodes
    exact = np.zeros(m)
    for j in range(1, m + 1):
        i = np.arange(1, j + 1)
        exact[j - 1] = np.sum(cells[: j] * (G(t[j] - t[i - 1]) - G(t[j] - t[i])))
    assert np.abs(got - exact).max() < 1e-13 * np.abs(exact).max()


def test_convolve_grid_mismatch():
    kern = K.rl_kernel_table(1.5, 0.01, 64, sampling="node")
    path = F.SampledPath(make_grid(32), np.ones(33))
    with pytest.raises(GridMismatchError):
        F.fundamental_identity_residual(path, kern, lambda u: u, np.ones_like)


# ---------------------------------------------------------------------------
# fractional derivative (L1 scheme)
# ---------------------------------------------------------------------------

def test_l1_weights_monotone():
    b = F.l1_weights(0.5, 200)
    assert b[0] == 1.0
    assert np.all(b > 0.0)
    assert np.all(np.diff(b) < 0.0)


def test_l1_weights_at_alpha_one_keep_the_first_weight():
    # 0.0 ** 0.0 == 1 must not zero b_0: alpha = 1 is backward Euler
    assert F.l1_weights(1.0, 6).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert F.l1_weights(1.0, 1).tolist() == [1.0]


def l1_derivative(grid, values, v0, alpha):
    """The solver's L1 memory derivative of (v - v0) at nodes 1..m."""
    dx = np.diff(np.concatenate([[v0], values[1:]]))
    c0, b = F._l1_scheme(alpha, grid.dt, grid.m)
    return c0 * F.causal_sum(b, dx)


def test_derivative_of_constant_is_zero():
    grid = make_grid(64)
    out = l1_derivative(grid, np.full(65, 3.7), 3.7, 0.5)
    assert np.abs(out).max() == 0.0


def quadrature_derivative_oracle(grid, values, v0, alpha):
    """Independent route: convolve the cell-averaged complementary kernel
    with (v - v0), then difference in time."""
    kern = K.rl_kernel_table(1.0 - alpha, grid.dt, grid.m,
                             sampling="cell_average")
    cum = product_integral(kern, values - v0, grid.dt)
    return np.diff(cum, prepend=0.0) / grid.dt


def test_derivative_of_power_reaches_gamma():
    # d^alpha t^alpha -> Gamma(1 + alpha) pointwise away from the origin
    alpha = 0.5
    errs = []
    for m in (256, 512, 1024):
        grid = make_grid(m)
        values = 1.0 + grid.nodes ** alpha
        out = l1_derivative(grid, values, 1.0, alpha)
        window = grid.nodes[1:] >= 0.1
        errs.append(np.abs(out - gamma(1.0 + alpha))[window].max())
        oracle = quadrature_derivative_oracle(grid, values, 1.0, alpha)
        assert np.abs(oracle[m // 2:] - gamma(1.0 + alpha)).max() < 0.05
    assert errs[0] > errs[1] > errs[2]
    assert math.log2(errs[1] / errs[2]) > 1.2  # observed rate ~ 2 - alpha


def test_derivative_of_linear_path():
    alpha, m = 0.5, 512
    grid = make_grid(m)
    out = l1_derivative(grid, 5.0 + grid.nodes, 5.0, alpha)
    exact = 2.0 * np.sqrt(grid.nodes[1:] / math.pi)
    assert np.abs(out - exact).max() < 1e-12


def test_derivative_inverse_property():
    # convolving the derivative with the complementary kernel recovers v - v0;
    # the composed rule is first-order (rectangle history quadrature)
    alpha = 0.5
    errs = []
    for m in (256, 512, 1024):
        grid = make_grid(m)
        values = np.sin(2.0 * grid.nodes)
        d = l1_derivative(grid, values, 0.0, alpha)
        kern = K.rl_kernel_table(alpha, grid.dt, m, sampling="cell_average")
        rec = F.causal_sum(kern.cell_values(), d) * grid.dt
        errs.append(np.abs(rec - values[1:]).max())
    assert math.log2(errs[0] / errs[1]) > 0.9
    assert math.log2(errs[1] / errs[2]) > 0.9


# ---------------------------------------------------------------------------
# fundamental identity
# ---------------------------------------------------------------------------

H2 = (lambda y: y * y, lambda y: 2.0 * y)
HLIN = (lambda y: y, lambda y: np.ones_like(y))


def smooth_path(grid):
    return F.SampledPath(grid, 1.0 + 0.3 * np.sin(3.0 * grid.nodes)
                         + 0.2 * grid.nodes ** 2)


def test_fundamental_identity_linear_h_collapses():
    grid = make_grid(128)
    g_t, _ = K.yosida_kernels(0.5, 4, grid.dt, grid.m)
    res = F.fundamental_identity_residual(smooth_path(grid), g_t, *HLIN)
    assert res <= 1e-12


def test_fundamental_identity_refines():
    vals = {}
    for m in (256, 512):
        grid = make_grid(m)
        g_t, _ = K.yosida_kernels(0.5, 4, grid.dt, m)
        vals[m] = F.fundamental_identity_residual(
            smooth_path(grid), g_t, *H2, t_min=0.1)
    assert vals[256] / vals[512] >= 1.7


def test_verifier_with_no_node_past_t_min_names_it():
    # horizon 1: the last interior node is at t = 31/32
    grid = make_grid(32)
    g_t, _ = K.yosida_kernels(0.5, 4, grid.dt, grid.m)
    with pytest.raises(DomainError, match=r"t_min = 5\.0.*t = 0\.96875"):
        F.fundamental_identity_residual(smooth_path(grid), g_t, *H2, t_min=5.0)
    # the last interior node itself still counts
    assert F.fundamental_identity_residual(
        smooth_path(grid), g_t, *H2, t_min=31 / 32) > 0.0


def test_fundamental_identity_history_nonnegative_for_convex_h():
    grid = make_grid(256)
    g_t, _ = K.yosida_kernels(0.5, 4, grid.dt, grid.m)
    hist = F.fundamental_identity_history(smooth_path(grid), g_t, *H2)
    assert hist.min() >= -1e-12


def loop_identity_history(u, k, H, Hp):
    """Trapezoid rule over the lag, one node at a time, on the bracket
    H(u_{j-l}) - H(u_j) - H'(u_j) (u_{j-l} - u_j)."""
    dt, m, uu = u.grid.dt, u.grid.m, u.values
    kdot = np.gradient(k.values, dt)
    out = np.zeros(m + 1)
    for j in range(1, m + 1):
        lag = np.arange(0, j + 1)
        bracket = H(uu[j - lag]) - H(uu[j]) - Hp(uu[j]) * (uu[j - lag] - uu[j])
        w = np.ones(j + 1)
        w[0] = w[-1] = 0.5
        out[j] = dt * np.dot(w, bracket * (-kdot[lag]))
    return out


def test_fundamental_identity_history_matches_lag_loop():
    grid = make_grid(512)
    g_t, _ = K.yosida_kernels(0.5, 4, grid.dt, grid.m)
    u = smooth_path(grid)
    got = F.fundamental_identity_history(u, g_t, *H2)
    assert np.abs(got - loop_identity_history(u, g_t, *H2)).max() <= 1e-13


def test_fundamental_identity_rejects_singular_kernel():
    grid = make_grid(64)
    raw = K.rl_kernel_table(0.5, grid.dt, grid.m)
    with pytest.raises(SingularKernelError):
        F.fundamental_identity_residual(smooth_path(grid), raw, *H2)


# ---------------------------------------------------------------------------
# commutation identities
# ---------------------------------------------------------------------------

def test_commutation_1_unit_multiplier_collapses():
    grid = make_grid(128)
    v = F.SampledPath(grid, grid.nodes + 0.3 * np.sin(2.0 * grid.nodes))
    phi = F.SampledPath(grid, np.ones(129))
    assert F.commutation_residual_1(v, phi, 0.5) <= 1e-12


def test_commutation_1_linear_data_exact():
    # all quadrature pieces are moment-exact for linear v and phi
    grid = make_grid(256)
    v = F.SampledPath(grid, grid.nodes.copy())
    phi = F.SampledPath(grid, grid.nodes.copy())
    assert F.commutation_residual_1(v, phi, 0.5) <= 1e-12


def test_commutation_1_refines():
    res = []
    for m in (128, 256, 512):
        grid = make_grid(m)
        v = F.SampledPath(grid, grid.nodes + 0.3 * np.sin(2.0 * grid.nodes))
        phi = F.SampledPath(grid, 1.0 + 0.5 * grid.nodes ** 2)
        res.append(F.commutation_residual_1(v, phi, 0.5))
    assert res[0] > res[1] > res[2]
    assert math.log2(res[1] / res[2]) > 0.8


def test_commutation_1_requires_zero_start():
    grid = make_grid(32)
    v = F.SampledPath(grid, np.ones(33))
    with pytest.raises(DomainError):
        F.commutation_residual_1(v, v, 0.5)


def loop_comm1_correction(v, phi, alpha):
    """Linear product integration of int -g'(s) (phi_j - phi(t_j - s))
    v(t_j - s) ds with exact derivative moments, one node at a time."""
    dt, m = v.grid.dt, v.grid.m
    vv, ph = v.values, phi.values
    M0, M1, w_first, _ = F._neg_gdot_pi(alpha, dt, m)
    out = np.zeros(m + 1)
    for j in range(1, m + 1):
        lag = np.arange(0, j + 1)
        D = (ph[j] - ph[j - lag]) * vv[j - lag]
        acc = w_first * D[1]
        if j >= 2:
            ll = np.arange(1, j)
            DL, DR = D[ll], D[ll + 1]
            acc += np.dot(DL, M0[ll - 1]) + np.dot((DR - DL) / dt, M1[ll - 1])
        out[j] = acc
    return out


def test_commutation_1_correction_matches_lag_loop():
    grid = make_grid(512)
    v = F.SampledPath(grid, grid.nodes + 0.3 * np.sin(2.0 * grid.nodes))
    phi = F.SampledPath(grid, 1.0 + 0.5 * grid.nodes ** 2)
    _, _, corr1, _ = F._comm1_terms(v, phi, 0.5)
    want = loop_comm1_correction(v, phi, 0.5)
    assert np.abs(corr1 - want).max() <= 1e-13


def test_commutation_2_matches_lag_loop():
    grid = make_grid(512)
    dt, m = grid.dt, grid.m
    g_t, _ = K.yosida_kernels(0.5, 2, dt, m)
    v = F.SampledPath(grid, 1.0 + 0.5 * np.cos(3.0 * grid.nodes))
    phi = F.SampledPath(grid, 1.0 + 0.5 * grid.nodes ** 2)
    vv, ph, kv = v.values, phi.values, g_t.values
    kdot = np.gradient(kv, dt)
    corr = np.zeros(m + 1)
    for j in range(1, m + 1):
        lag = np.arange(0, j + 1)
        w = np.ones(j + 1)
        w[0] = w[-1] = 0.5
        corr[j] = dt * np.dot(w, kdot[lag] * (ph[j] - ph[j - lag]) * vv[j - lag])
    lhs = ph * np.gradient(F._trapezoid_convolve(kv, vv, dt), dt)
    d2 = np.gradient(F._trapezoid_convolve(kv, ph * vv, dt), dt)
    want = np.abs(lhs - d2 - corr)[1:m].max()
    assert abs(F.commutation_residual_2(g_t, v, phi) - want) <= 1e-13


def test_commutation_2_constant_multiplier_collapses():
    grid = make_grid(128)
    g_t, _ = K.yosida_kernels(0.5, 2, grid.dt, grid.m)
    v = F.SampledPath(grid, 1.0 + 0.5 * np.cos(3.0 * grid.nodes))
    phi = F.SampledPath(grid, np.full(129, 2.0))
    assert F.commutation_residual_2(g_t, v, phi) <= 1e-12


def test_commutation_2_two_grid_rate():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(3) * 0.2
    res = []
    for m in (128, 256, 512):
        grid = make_grid(m)
        g_t, _ = K.yosida_kernels(0.5, 2, grid.dt, m)
        v = F.SampledPath(grid, 1.0 + c[0] * np.cos(3.0 * grid.nodes)
                          + c[1] * grid.nodes)
        phi = F.SampledPath(grid, 1.0 + c[2] * grid.nodes ** 2)
        res.append(F.commutation_residual_2(g_t, v, phi))
    # residual bounded by C*dt with the constant estimated on the coarse pair
    C = res[0] * 128
    assert math.log2(res[0] / res[1]) > 0.8
    assert res[2] <= 1.3 * C / 512


# ---------------------------------------------------------------------------
# the verifiers' stacked FFT sums against one direct sum per trace
# ---------------------------------------------------------------------------

def trapezoid_1d(k, v, dt):
    return dt * (F.causal_sum(k, v) - 0.5 * k * v[0] - 0.5 * k[0] * v)


def direct_identity_history(u, k, H, Hp):
    dt, uu = u.grid.dt, u.values
    neg_kdot = -np.gradient(k.values, dt)
    S, T1, T2 = (trapezoid_1d(neg_kdot, y, dt)
                 for y in (np.ones_like(uu), H(uu), uu))
    return T1 - H(uu) * S - Hp(uu) * (T2 - uu * S)


def direct_identity_residual(u, k, H, Hp, t_min):
    dt, uu, kv = u.grid.dt, u.values, k.values
    lhs = Hp(uu) * np.gradient(trapezoid_1d(kv, uu, dt), dt)
    rhs = (np.gradient(trapezoid_1d(kv, H(uu), dt), dt)
           + (-H(uu) + Hp(uu) * uu) * kv + direct_identity_history(u, k, H, Hp))
    return np.abs(lhs - rhs)[1:-1][u.grid.nodes[1:-1] >= t_min].max()


def direct_commutation_1(v, phi, alpha):
    dt, m = v.grid.dt, v.grid.m
    vv, ph = v.values, phi.values
    vdot, phid = np.gradient(vv, dt), np.gradient(ph, dt)
    gcells = K.rl_kernel_table(alpha, dt, m, sampling="cell_average").cell_values()

    def conv_mid(data):
        out = np.zeros(m + 1)
        out[1:] = F.causal_sum(gcells, 0.5 * (data[:-1] + data[1:])) * dt
        return out

    M0, M1, w_first, _ = F._neg_gdot_pi(alpha, dt, m)
    k_in = np.concatenate([[0.0], M0 - M1 / dt])
    k_end = np.concatenate([[0.0, w_first], M1[:-1] / dt])
    v_in = np.concatenate([[0.0], vv[1:]])
    corr1 = (ph * (F.causal_sum(k_in, v_in) + F.causal_sum(k_end, vv))
             - F.causal_sum(k_in, ph * v_in) - F.causal_sum(k_end, ph * vv))
    rhs = ph * conv_mid(vdot) + corr1 - conv_mid(phid * vv)
    return np.abs(conv_mid(ph * vdot) - rhs)[1:m].max()


def direct_commutation_2(k, v, phi):
    dt, m = v.grid.dt, v.grid.m
    vv, ph, kv = v.values, phi.values, k.values
    kdot = np.gradient(kv, dt)
    lhs = ph * np.gradient(trapezoid_1d(kv, vv, dt), dt)
    d2 = np.gradient(trapezoid_1d(kv, ph * vv, dt), dt)
    corr = ph * trapezoid_1d(kdot, vv, dt) - trapezoid_1d(kdot, ph * vv, dt)
    return np.abs(lhs - d2 - corr)[1:m].max()


@pytest.mark.parametrize("m", [256, 512, 4096])
def test_verifiers_match_one_direct_sum_per_trace(m):
    # the spectral benchmark's paths and kernels; the stacked FFT sums may
    # move a residual by rounding only, far below its discretization size
    grid = make_grid(m)
    t = grid.nodes
    u = smooth_path(grid)
    v = F.SampledPath(grid, t + 0.3 * np.sin(2.0 * t))
    phi = F.SampledPath(grid, 1.0 + 0.5 * t ** 2)
    w = F.SampledPath(grid, 1.0 + 0.5 * np.cos(3.0 * t))
    g4, _ = K.yosida_kernels(0.5, 4, grid.dt, m)
    g2, _ = K.yosida_kernels(0.5, 2, grid.dt, m)
    pairs = [
        (F.fundamental_identity_residual(u, g4, *H2, t_min=0.1),
         direct_identity_residual(u, g4, *H2, 0.1)),
        (F.commutation_residual_1(v, phi, 0.5), direct_commutation_1(v, phi, 0.5)),
        (F.commutation_residual_2(g2, w, phi), direct_commutation_2(g2, w, phi)),
    ]
    for got, want in pairs:
        assert abs(got - want) <= 1e-12
    hist = F.fundamental_identity_history(u, g4, *H2)
    assert np.abs(hist - direct_identity_history(u, g4, *H2)).max() <= 1e-12
