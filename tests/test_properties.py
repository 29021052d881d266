"""Property tests for the structural invariants of the kernel calculus."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subharnack import fracops as F
from subharnack import fundsol
from subharnack import harnack as H
from subharnack import kernels as K
from subharnack import solver as S
from subharnack.fracops import TimeGrid

# several base blocks of the march and a length that halves unevenly
LONG_M = 5 * F._BLOCK + 13


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.05, 0.95), N=st.integers(1, 3))
def test_divergence_exponent_critical_identity(alpha, N):
    p_star = fundsol.critical_exponent(alpha, N)
    assert p_star > 1.0
    assert fundsol.divergence_exponent(alpha, N, p_star) == pytest.approx(
        -1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.1, 0.9),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_volterra_solver_is_linear(alpha, a, b, seed):
    rng = np.random.default_rng(seed)
    m = 32
    kern = K.rl_kernel_table(alpha, 1.0 / m, m, scale=1.5)
    f1 = rng.standard_normal(m + 1)
    f2 = rng.standard_normal(m + 1)
    x1 = K.solve_volterra(kern, f1).values
    x2 = K.solve_volterra(kern, f2).values
    x12 = K.solve_volterra(kern, a * f1 + b * f2).values
    scale = max(1.0, np.abs(x12).max())
    assert np.abs(x12 - (a * x1 + b * x2)).max() <= 1e-11 * scale


@settings(max_examples=15, deadline=None)
@given(p1=st.floats(0.2, 3.0), p2=st.floats(0.2, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_power_mean_monotone_in_exponent(p1, p2, seed):
    rng = np.random.default_rng(seed)
    nx, m = 16, 8
    u = rng.uniform(0.05, 4.0, size=(m + 1, nx + 1))
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    spec = S.ProblemSpec(alpha=0.5, space=space,
                         time=TimeGrid.from_horizon(1.0, m), u0=u[0])
    res = S.SolveResult(spec=spec, u=u)
    region = H.BoxRegion(t_lo=0.05, t_hi=0.95, center=(0.5,), radius=0.4)
    lo, hi = sorted((p1, p2))
    assert H.lp_mean(res, region, lo) <= H.lp_mean(res, region, hi) * (1 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 256), m=st.sampled_from([64, LONG_M]))
@example(n=256, m=LONG_M)
def test_yosida_tables_nonnegative_nonincreasing(n, m):
    # m = 64 is one leaf of the march; the longer grid adds cross-leaf sums
    g_t, h_t = K.yosida_kernels(0.5, n, 1.0 / m, m)
    assert np.all(g_t.values >= 0.0)
    assert np.all(np.diff(g_t.values) <= 1e-12 * n)
    assert np.all(h_t.values[1:] >= 0.0)
