"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the assertions.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gamma

from subharnack import cli, fracops, fundsol, harnack, kernels, solver
from subharnack.fracops import SampledPath, TimeGrid


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. kernel inverse identity
# ---------------------------------------------------------------------------

def test_criterion_01_kernel_inverse_identity():
    t0 = time.perf_counter()
    m, dt = 512, 1.0 / 512
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        ka = kernels.rl_kernel_table(alpha, dt, m)
        kb = kernels.rl_kernel_table(1.0 - alpha, dt, m)
        conv = np.convolve(ka.cell_values(), kb.cell_values())[:m] * dt
        worst = max(worst, float(np.abs(conv - 1.0).max()))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max node deviation {worst:.2e} (<= 1e-12), {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 2. Yosida kernel suite
# ---------------------------------------------------------------------------

def test_criterion_02_yosida_suite():
    t0 = time.perf_counter()
    alpha = 0.5
    levels = (1, 4, 16, 64, 256)
    l1 = [kernels.yosida_l1_distance(alpha, n) for n in levels]
    decreasing = all(b < a for a, b in zip(l1, l1[1:]))
    small = l1[-1] < 0.05

    res = []
    for m in (512, 1024):
        dtm = 1.0 / m
        g_t, h_t = kernels.yosida_kernels(alpha, 4, dtm, m)
        gc = kernels.rl_kernel_table(1.0 - alpha, dtm, m,
                                     sampling="cell_average")
        conv = np.convolve(gc.cell_values(), h_t.values[1:])[:m] * dtm
        t = np.arange(1, m + 1) * dtm
        res.append(float(np.abs(conv - g_t.values[1:])[t >= 0.1].max()))
    order = math.log2(res[0] / res[1])
    elapsed = time.perf_counter() - t0
    report(2, decreasing and small and order >= 0.8 and elapsed < 10.0,
           f"L1 distances {[round(v, 4) for v in l1]} strictly decreasing, "
           f"final {l1[-1]:.4f} (< 0.05); identity residual order "
           f"{order:.2f} (>= 0.8); {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 3. Mittag-Leffler accuracy
# ---------------------------------------------------------------------------

def _compensated_series(alpha, beta, z, terms=200):
    total, comp = 0.0, 0.0
    for n in range(terms):
        t = z ** n / gamma(alpha * n + beta)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def test_criterion_03_mittag_leffler():
    worst = 0.0
    for z in np.linspace(-20.0, 20.0, 100):
        rel = abs(kernels.mittag_leffler(1.0, 1.0, z) - math.exp(z)) \
            / math.exp(z)
        worst = max(worst, rel)
    oracle = _compensated_series(0.5, 1.0, -1.0)
    err_half = abs(kernels.mittag_leffler(0.5, 1.0, -1.0) - oracle)
    report(3, worst <= 1e-10 and err_half <= 1e-8,
           f"exp agreement {worst:.2e} (<= 1e-10); "
           f"half-order value error {err_half:.2e} (<= 1e-8)")


# ---------------------------------------------------------------------------
# 4. scalar relaxation convergence
# ---------------------------------------------------------------------------

def test_criterion_04_relaxation_convergence():
    alpha, sigma = 0.5, 1.0
    exact = _compensated_series(alpha, 1.0, -sigma)
    errs = []
    for m in (64, 128, 256):
        path = solver.solve_scalar_relaxation(
            alpha, sigma, 1.0, TimeGrid.from_horizon(1.0, m))
        errs.append(abs(path.values[-1] - exact) / exact)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(abs(o - 1.5) <= 0.3 for o in orders)
    report(4, ok, f"empirical orders {[round(o, 3) for o in orders]} "
                  f"within 1.5 +/- 0.3 across dt in {{1/64,1/128,1/256}}")


# ---------------------------------------------------------------------------
# 5. fundamental identity and commutation lemmas
# ---------------------------------------------------------------------------

def test_criterion_05_identity_residuals():
    H2 = (lambda y: y * y, lambda y: 2.0 * y)
    vals = {}
    hist_min = math.inf
    for m in (256, 512):
        grid = TimeGrid.from_horizon(1.0, m)
        g_t, _ = kernels.yosida_kernels(0.5, 4, grid.dt, m)
        u = SampledPath(grid, 1.0 + 0.3 * np.sin(3.0 * grid.nodes)
                        + 0.2 * grid.nodes ** 2)
        vals[m] = fracops.fundamental_identity_residual(u, g_t, *H2,
                                                        t_min=0.1)
        hist = fracops.fundamental_identity_history(u, g_t, *H2)
        hist_min = min(hist_min, float(hist.min()))
    factor = vals[256] / vals[512]

    comm = {}
    for m in (256, 512):
        grid = TimeGrid.from_horizon(1.0, m)
        v = SampledPath(grid, grid.nodes + 0.3 * np.sin(2.0 * grid.nodes))
        phi = SampledPath(grid, 1.0 + 0.5 * grid.nodes ** 2)
        g_t, _ = kernels.yosida_kernels(0.5, 2, grid.dt, m)
        w = SampledPath(grid, 1.0 + 0.5 * np.cos(3.0 * grid.nodes))
        comm[m] = (fracops.commutation_residual_1(v, phi, 0.5),
                   fracops.commutation_residual_2(g_t, w, phi))
    o1 = math.log2(comm[256][0] / comm[512][0])
    o2 = math.log2(comm[256][1] / comm[512][1])
    ok = factor >= 1.7 and hist_min >= -1e-12 and o1 >= 0.8 and o2 >= 0.8
    report(5, ok, f"refinement factor {factor:.2f} (>= 1.7); history term "
                  f"min {hist_min:.1e} (>= -1e-12); commutation orders "
                  f"{o1:.2f}, {o2:.2f} (>= 0.8)")


# ---------------------------------------------------------------------------
# 6. discrete maximum principle, randomized
# ---------------------------------------------------------------------------

def test_criterion_06_maximum_principle():
    violations = 0
    for k in range(200):
        out = cli._one_maxprinciple_run((cli.DEFAULT_SEED + 1000 * k,))
        if not (out[6] and out[7]):
            violations += 1
    report(6, violations == 0,
           f"{violations} violations in 200 seed-fixed 1D/2D runs "
           f"(bounds within 1e-10, nonnegativity preserved)")


# ---------------------------------------------------------------------------
# 7. critical-exponent algebra
# ---------------------------------------------------------------------------

def test_criterion_07_exponent_algebra():
    worst = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        for N in (1, 2, 3):
            d = fundsol.divergence_exponent(
                alpha, N, fundsol.critical_exponent(alpha, N))
            worst = max(worst, abs(d + 1.0))
    lim = max(abs(fundsol.critical_exponent(0.999, N) - (1.0 + 2.0 / N))
              for N in (1, 2, 3))
    report(7, worst <= 1e-12 and lim <= 1e-2,
           f"divergence exponent at the critical value: deviation "
           f"{worst:.1e} (<= 1e-12); classical limit gap {lim:.2e} (<= 1e-2)")


# ---------------------------------------------------------------------------
# 8. optimality experiment
# ---------------------------------------------------------------------------

def test_criterion_08_optimality():
    t0 = time.perf_counter()
    ev = fundsol.FundamentalSolutionEvaluator(alpha=0.5, dimension=1)
    eps = list(np.geomspace(1e-8, 0.1, 15))
    e = np.array(eps)

    I1 = np.array([v for _, v in fundsol.optimality_experiment(
        0.5, 1, 1.0, eps, evaluator=ev)])
    sel = e <= e.min() * 10.0
    change = float((I1[sel].max() - I1[sel].min()) / I1[sel].min())

    I2 = np.array([v for _, v in fundsol.optimality_experiment(
        0.5, 1, 5.0 / 3.0, eps, evaluator=ev)])
    fit_sel = e <= 1e-2
    _, slope_log, resid = fundsol.log_growth_fit(e[fit_sel], I2[fit_sel])

    I3 = np.array([v for _, v in fundsol.optimality_experiment(
        0.5, 1, 2.0, eps, evaluator=ev)])
    slope = fundsol.loglog_slope(e[e <= e.min() * 100.0],
                                 I3[e <= e.min() * 100.0])
    elapsed = time.perf_counter() - t0
    ok = (change < 0.02 and slope_log > 0.0 and resid < 0.05
          and abs(slope - 0.25) <= 0.05 and elapsed < 60.0)
    report(8, ok, f"p=1 stabilizes (last-decade change {change:.4f} < 0.02); "
                  f"p=5/3 log growth (fit residual {resid:.4f} < 0.05); "
                  f"p=2 power growth (slope {slope:.3f} in 0.25 +/- 0.05); "
                  f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 9. two-box ratio stability
# ---------------------------------------------------------------------------

def _checkerboard_bench(nx, m, period):
    space = solver.SpaceGrid.interval(0.0, 1.0, nx)
    horizon = 2.0 * 0.2 ** 4.0
    tgrid = TimeGrid.from_horizon(1.25 * horizon, m)
    x = np.linspace(0.0, 1.0, nx + 1)
    u0 = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.3) ** 2) ** 2
    coeff = solver.checkerboard_coefficients(space, period, 1.0, 5.0)
    spec = solver.ProblemSpec(alpha=0.5, space=space, time=tgrid, u0=u0,
                              boundary=0.0, coefficients=coeff)
    return solver.solve_subdiffusion(spec)


def test_criterion_09_harnack_ratio_stability():
    config = harnack.HarnackConfig(delta=0.5, eta=2.0, tau=1.0, t0=0.0,
                                   x0=(0.5,), r=0.2, alpha=0.5)
    p_values = [0.5, 1.0, 1.5]

    res_a = _checkerboard_bench(160, 64, 8)
    res_b = _checkerboard_bench(320, 128, 16)
    rep_a = harnack.harnack_ratio_sweep(res_a, config, p_values)
    rep_b = harnack.harnack_ratio_sweep(res_b, config, p_values)
    finite = all(math.isfinite(r.ratio) and r.essinf > 0.0 for r in rep_a)
    change = max(abs(a.ratio - b.ratio) / a.ratio
                 for a, b in zip(rep_a, rep_b))

    nx = 160
    space = solver.SpaceGrid.interval(0.0, 1.0, nx)
    const_spec = solver.ProblemSpec(
        alpha=0.5, space=space, time=res_a.spec.time,
        u0=np.full(nx + 1, 2.0), boundary=2.0)
    rep_c = harnack.harnack_ratio_sweep(solver.solve_subdiffusion(const_spec),
                                        config, p_values)
    const_dev = max(abs(r.ratio - 1.0) for r in rep_c)
    ok = finite and change < 0.05 and const_dev <= 1e-12
    report(9, ok, f"checkerboard ratios finite with essinf > 0, two-grid "
                  f"change {change:.4f} (< 0.05); constant-solution ratio "
                  f"deviation {const_dev:.1e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# 10. continuity at t = 0
# ---------------------------------------------------------------------------

def test_criterion_10_continuity_at_zero():
    alpha, r0, eta, nx, m = 2.0 / 3.0, 0.3, 2.0, 160, 1024
    space = solver.SpaceGrid.interval(0.0, 1.0, nx)
    horizon = eta * r0 ** (2.0 / alpha)
    tgrid = TimeGrid.from_horizon(horizon, m)
    t_ramp = horizon / 4.0

    def ramp(t, pts):
        return np.where(pts[..., 0] > 0.5, min(t / t_ramp, 1.0), 0.0)

    spec = solver.ProblemSpec(alpha=alpha, space=space, time=tgrid,
                              u0=np.zeros(nx + 1), boundary=ramp)
    res = solver.solve_subdiffusion(spec)
    radii = [r0, r0 / 2.0, r0 / 4.0, r0 / 8.0]
    fit = harnack.oscillation_decay(res, (0.62,), radii, eta=eta)
    mono = all(a >= b for a, b in zip(fit.oscillations, fit.oscillations[1:]))
    # smallest box against the fitted power-law extrapolation, 10% slack;
    # with zero initial data the box oscillation equals its maximum value
    predicted = math.exp(fit.intercept) * radii[-1] ** fit.slope
    covered = fit.oscillations[-1] <= 1.1 * predicted
    ok = fit.slope > 0.05 and mono and covered
    report(10, ok, f"fitted slope {fit.slope:.2f} (> 0.05); oscillations "
                   f"monotone: {mono}; smallest-box values within the "
                   f"extrapolation cover: {covered}")


# ---------------------------------------------------------------------------
# 11. weighted Poincare inequality
# ---------------------------------------------------------------------------

def test_criterion_11_weighted_poincare():
    space = solver.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (48, 48))
    weight = harnack.cone_weight(space)
    X = space.node_points()
    rng = np.random.default_rng(cli.DEFAULT_SEED)
    failures = 0
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        u = sum(a[i, j] * np.cos(np.pi * (i * X[..., 0] + j * X[..., 1]))
                + b[i, j] * np.sin(np.pi * (i * X[..., 0] - j * X[..., 1]))
                for i in range(3) for j in range(3))
        chk = harnack.weighted_poincare_check(space, u, weight)
        if not chk.passed:
            failures += 1
    report(11, failures == 0,
           f"{failures} failures over 50 seed-fixed random smooth fields "
           f"(cone weight family, quadrature slack <= 2%)")
