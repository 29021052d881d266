import math

import numpy as np
import pytest

from subharnack import harnack as H
from subharnack import solver as S
from subharnack.errors import (
    DegenerateDataError,
    DomainError,
    EmptyRegionError,
    InvalidWeightError,
)
from subharnack.fracops import TimeGrid


def constant_run(value=2.0, nx=40, m=32, T=0.004, alpha=0.5):
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    spec = S.ProblemSpec(alpha=alpha, space=space,
                         time=TimeGrid.from_horizon(T, m),
                         u0=np.full(nx + 1, value), boundary=value)
    return S.solve_subdiffusion(spec)


def synthetic_run(u, nx, m, T=1.0, alpha=0.5):
    """Wrap an arbitrary space-time array as a result for measurement ops."""
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    spec = S.ProblemSpec(alpha=alpha, space=space,
                         time=TimeGrid.from_horizon(T, m),
                         u0=np.asarray(u[0], dtype=float))
    return S.SolveResult(spec=spec, u=np.asarray(u, dtype=float))


def checkerboard_bench(nx, m, period, r=0.2, alpha=0.5):
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    horizon = 2.0 * r ** (2.0 / alpha)
    time = TimeGrid.from_horizon(1.25 * horizon, m)
    x = np.linspace(0.0, 1.0, nx + 1)
    u0 = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.3) ** 2) ** 2
    coeff = S.checkerboard_coefficients(space, period, 1.0, 5.0)
    spec = S.ProblemSpec(alpha=alpha, space=space, time=time, u0=u0,
                         boundary=0.0, coefficients=coeff)
    return S.solve_subdiffusion(spec)


BENCH_CONFIG = H.HarnackConfig(delta=0.5, eta=2.0, tau=1.0, t0=0.0,
                               x0=(0.5,), r=0.2, alpha=0.5)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_boxes_direct_substitution():
    cfg = H.HarnackConfig(delta=0.5, eta=2.0, tau=1.0, t0=0.0, x0=(0.0,),
                          r=1.0, alpha=0.5)
    early, late = H.harnack_boxes(cfg)
    assert (early.t_lo, early.t_hi) == (0.0, 0.5)
    assert (late.t_lo, late.t_hi) == (1.5, 2.0)
    assert early.radius == late.radius == 0.5


def test_boxes_time_scale_power():
    cfg = H.HarnackConfig(delta=0.5, eta=2.0, tau=1.0, t0=0.0, x0=(0.0,),
                          r=2.0, alpha=0.5)
    assert cfg.time_scale == pytest.approx(16.0)


def test_boxes_disjoint_for_delta_below_one():
    for delta in (0.2, 0.5, 0.9):
        cfg = H.HarnackConfig(delta=delta, eta=1.5, tau=0.7, t0=0.3,
                              x0=(0.0,), r=0.8, alpha=0.4)
        early, late = H.harnack_boxes(cfg)
        gap = late.t_lo - early.t_hi
        assert gap == pytest.approx((2.0 - 2.0 * delta) * cfg.time_scale,
                                    rel=1e-12)
        assert gap > 0.0


def test_boxes_scaling_invariance():
    # scaling (t, x) by (r^(2/alpha), r) maps unit boxes onto radius-r boxes
    alpha, r = 0.5, 1.7
    unit = H.harnack_boxes(H.HarnackConfig(delta=0.4, eta=2.0, tau=1.0,
                                           t0=0.0, x0=(0.0,), r=1.0,
                                           alpha=alpha))
    scaled = H.harnack_boxes(H.HarnackConfig(delta=0.4, eta=2.0, tau=1.0,
                                             t0=0.0, x0=(0.0,), r=r,
                                             alpha=alpha))
    fac = r ** (2.0 / alpha)
    for b_unit, b_scaled in zip(unit, scaled):
        assert b_scaled.t_lo == pytest.approx(b_unit.t_lo * fac)
        assert b_scaled.t_hi == pytest.approx(b_unit.t_hi * fac)
        assert b_scaled.radius == pytest.approx(b_unit.radius * r)


def test_config_validation():
    with pytest.raises(DomainError):
        H.HarnackConfig(delta=1.2, eta=2.0, tau=1.0, t0=0.0, x0=(0.0,),
                        r=1.0, alpha=0.5)
    with pytest.raises(DomainError):
        H.HarnackConfig(delta=0.5, eta=0.9, tau=1.0, t0=0.0, x0=(0.0,),
                        r=1.0, alpha=0.5)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def test_lp_mean_of_constant():
    res = constant_run(2.0)
    region = H.BoxRegion(t_lo=0.0, t_hi=0.003, center=(0.5,), radius=0.2)
    for p in (0.5, 1.0, 2.0, 7.0):
        assert H.lp_mean(res, region, p) == pytest.approx(2.0, rel=1e-12)


def test_lp_mean_step_field():
    # indicator-like step equal to 2 on half the region, 0 elsewhere -> 1:
    # nine cells, four at 2, four at 0, the jump cell averaging to 1
    nx, m = 16, 16
    h = 1.0 / nx
    u = np.zeros((m + 1, nx + 1))
    u[:, :9] = 2.0
    res = synthetic_run(u, nx, m)
    region = H.BoxRegion(t_lo=0.0, t_hi=1.0, center=(8.5 * h,), radius=4.5 * h)
    assert H.lp_mean(res, region, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_lp_mean_monotone_in_p():
    rng = np.random.default_rng(23)
    u = rng.uniform(0.1, 3.0, size=(17, 33))
    res = synthetic_run(u, 32, 16)
    region = H.BoxRegion(t_lo=0.1, t_hi=0.9, center=(0.5,), radius=0.35)
    means = [H.lp_mean(res, region, p) for p in (0.5, 1.0, 1.5, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_lp_mean_two_grid_stability():
    res_a = checkerboard_bench(160, 64, 8)
    res_b = checkerboard_bench(320, 128, 16)
    region = H.BoxRegion(t_lo=0.0, t_hi=0.0008, center=(0.5,), radius=0.1)
    ma = H.lp_mean(res_a, region, 1.0)
    mb = H.lp_mean(res_b, region, 1.0)
    assert abs(ma - mb) / ma < 0.05


def test_lp_mean_rejects_negative_field():
    u = -np.ones((9, 17))
    res = synthetic_run(u, 16, 8)
    region = H.BoxRegion(t_lo=0.1, t_hi=0.9, center=(0.5,), radius=0.3)
    with pytest.raises(DomainError):
        H.lp_mean(res, region, 1.0)


def test_essinf_examples():
    res = constant_run(2.0)
    region = H.BoxRegion(t_lo=0.001, t_hi=0.003, center=(0.5,), radius=0.2)
    assert H.essinf(res, region) == pytest.approx(2.0)
    # u(t, x) = t over the late box starts at its lower time edge
    nx, m = 16, 100
    t = np.linspace(0.0, 2.0, m + 1)
    u = np.repeat(t[:, None], nx + 1, axis=1)
    res_t = synthetic_run(u, nx, m, T=2.0)
    late = H.BoxRegion(t_lo=1.5, t_hi=2.0, center=(0.5,), radius=0.3)
    assert abs(H.essinf(res_t, late) - 1.5) <= 2.0 / m + 1e-12


def test_essinf_empty_region():
    res = constant_run(1.0)  # nx = 40, so nodes sit at multiples of 0.025
    with pytest.raises(EmptyRegionError):
        H.essinf(res, H.BoxRegion(t_lo=0.0, t_hi=0.004,
                                  center=(0.5125,), radius=1e-6))


def test_essinf_monotone_under_data():
    rng = np.random.default_rng(31)
    base = rng.uniform(0.5, 1.5, size=(9, 17))
    res_a = synthetic_run(base, 16, 8)
    res_b = synthetic_run(base + 0.3, 16, 8)
    region = H.BoxRegion(t_lo=0.1, t_hi=0.9, center=(0.5,), radius=0.3)
    assert H.essinf(res_b, region) >= H.essinf(res_a, region)


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

def test_ratio_sweep_constant_solution():
    res = constant_run(2.0, T=0.0045)
    reports = H.harnack_ratio_sweep(res, BENCH_CONFIG, [0.5, 1.0, 1.5])
    for rep in reports:
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.below_critical == (rep.p < 5.0 / 3.0)


def test_ratio_sweep_checkerboard_two_grid():
    res_a = checkerboard_bench(160, 64, 8)
    res_b = checkerboard_bench(320, 128, 16)
    rep_a = H.harnack_ratio_sweep(res_a, BENCH_CONFIG, [0.5, 1.0, 1.5])
    rep_b = H.harnack_ratio_sweep(res_b, BENCH_CONFIG, [0.5, 1.0, 1.5])
    for a, b in zip(rep_a, rep_b):
        assert math.isfinite(a.ratio) and a.essinf > 0.0
        assert abs(a.ratio - b.ratio) / a.ratio < 0.05
    ratios = [r.ratio for r in rep_a]
    assert all(x <= y + 1e-12 for x, y in zip(ratios, ratios[1:]))


def test_ratio_sweep_means_equal_lp_mean_bitwise():
    res = checkerboard_bench(160, 64, 8)
    early, _ = H.harnack_boxes(BENCH_CONFIG)
    # cell-centre values averaged over the whole grid, then selected
    umid_space = 0.5 * (res.u[:, :-1] + res.u[:, 1:])
    umid = 0.5 * (umid_space[:-1] + umid_space[1:])
    t, (x,) = res.spec.time.nodes, res.spec.space.axes()
    tmask, smask = early.masks(0.5 * (t[:-1] + t[1:]), [0.5 * (x[:-1] + x[1:])],
                               closed=False)
    full = umid[tmask][:, smask].ravel()
    assert 0 < full.size < umid.size
    assert np.array_equal(H._cell_midpoint_values(res, early), full)
    reports = H.harnack_ratio_sweep(res, BENCH_CONFIG, [0.5, 1.0, 1.5, 3.0])
    for rep in reports:
        assert rep.lp_mean == H.lp_mean(res, early, rep.p)
        assert rep.lp_mean == float(np.mean(np.maximum(full, 0.0) ** rep.p)
                                    ** (1.0 / rep.p))


def test_ratio_sweep_degenerate_infimum():
    # identically zero run: infimum vanishes, ratio reported as +inf
    nx, m = 40, 32
    res = synthetic_run(np.zeros((m + 1, nx + 1)), nx, m, T=0.0045)
    reports = H.harnack_ratio_sweep(res, BENCH_CONFIG, [1.0],
                                    check_supersolution=False)
    assert reports[0].ratio == math.inf


def test_ratio_sweep_rejects_signed_data():
    nx, m = 40, 32
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    x = np.linspace(0.0, 1.0, nx + 1)
    spec = S.ProblemSpec(alpha=0.5, space=space,
                         time=TimeGrid.from_horizon(0.0045, m),
                         u0=np.sin(2.0 * np.pi * x), boundary=0.0)
    res = S.solve_subdiffusion(spec)
    with pytest.raises(DomainError):
        H.harnack_ratio_sweep(res, BENCH_CONFIG, [1.0])


# ---------------------------------------------------------------------------
# oscillation decay
# ---------------------------------------------------------------------------

def ramp_run(alpha=2.0 / 3.0, r0=0.3, eta=2.0, nx=160, m=1024):
    space = S.SpaceGrid.interval(0.0, 1.0, nx)
    horizon = eta * r0 ** (2.0 / alpha)
    time = TimeGrid.from_horizon(horizon, m)
    t_ramp = horizon / 4.0

    def ramp(t, pts):
        return np.where(pts[..., 0] > 0.5, min(t / t_ramp, 1.0), 0.0)

    spec = S.ProblemSpec(alpha=alpha, space=space, time=time,
                         u0=np.zeros(nx + 1), boundary=ramp)
    return S.solve_subdiffusion(spec)


def test_oscillation_decay_ramp_benchmark():
    res = ramp_run()
    r0 = 0.3
    fit = H.oscillation_decay(res, (0.62,), [r0, r0 / 2, r0 / 4, r0 / 8],
                              eta=2.0)
    assert fit.slope > 0.0
    oscs = fit.oscillations
    assert all(a >= b for a, b in zip(oscs, oscs[1:]))


def test_oscillation_nestedness_exact():
    res = ramp_run(m=256)
    r0 = 0.3
    oscs = []
    for r in (r0, 0.8 * r0, 0.5 * r0):
        fit_r = H.oscillation_decay(res, (0.62,), [r, r / 2], eta=2.0)
        oscs.append(fit_r.oscillations[0])
    assert oscs[0] >= oscs[1] >= oscs[2]


def test_oscillation_degenerate_run():
    nx, m = 40, 32
    res = synthetic_run(np.zeros((m + 1, nx + 1)), nx, m)
    with pytest.raises(DegenerateDataError):
        H.oscillation_decay(res, (0.5,), [0.2, 0.1])


def test_oscillation_decay_needs_two_radii():
    # a slope through one point (or none) is no fit
    res = ramp_run()
    for radii in ([], [0.3]):
        with pytest.raises(DomainError, match=f"got {len(radii)}$"):
            H.oscillation_decay(res, (0.62,), radii, eta=2.0)


def test_oscillation_requires_zero_initial_data():
    res = constant_run(1.0)
    with pytest.raises(DomainError):
        H.oscillation_decay(res, (0.5,), [0.1, 0.05])


# ---------------------------------------------------------------------------
# 2D measurements against brute-force references
# ---------------------------------------------------------------------------

# unequal sides and unequal cell counts, so a swapped axis cannot hide
RECT = S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.3), (24, 20))
RECT_T = S.SpaceGrid.rectangle((0.0, 0.0), (1.3, 1.0), (20, 24))
RECT_CONFIG = H.HarnackConfig(delta=0.5, eta=1.5, tau=1.0, t0=0.0,
                              x0=(0.45, 0.7), r=0.25, alpha=0.5)
# cell midpoints of rect_synthetic's default time grid, 12 steps on
# [0, 0.005], computed as the measurements compute them
_T_NODES = TimeGrid.from_horizon(0.005, 12).nodes
RECT_T_MID = 0.5 * (_T_NODES[:-1] + _T_NODES[1:])
RECT_REGIONS = [
    H.BoxRegion(t_lo=0.0011, t_hi=0.0032, center=(0.45, 0.7), radius=0.21),
    # rounding puts time nodes 4 and 9 and some space nodes just outside
    # the closed region: only its 1e-14 widening takes them in
    H.BoxRegion(t_lo=0.0016666666666667, t_hi=0.00375, center=(0.5, 0.715),
                radius=0.195),
    # centred on a cell midpoint, with the midpoints of time cells 2 and 9
    # and some space-cell midpoints exactly on its boundary: out, strictly
    H.BoxRegion(t_lo=RECT_T_MID[2], t_hi=RECT_T_MID[9],
                center=(0.5208333333333334, 0.6825), radius=0.13),
    H.BoxRegion(t_lo=0.0005, t_hi=0.005, center=(0.3, 0.9), radius=0.17),
]


def rect_bump_run(m=16):
    horizon = RECT_CONFIG.horizon
    X = RECT.node_points()
    d2 = (X[..., 0] - 0.45) ** 2 + (X[..., 1] - 0.7) ** 2
    u0 = np.maximum(0.0, 1.0 - d2 / 0.3 ** 2) ** 2
    coeff = S.checkerboard_coefficients(RECT, 3, 1.0, 4.0)
    spec = S.ProblemSpec(alpha=0.5, space=RECT,
                         time=TimeGrid.from_horizon(1.25 * horizon, m),
                         u0=u0, boundary=0.0, coefficients=coeff)
    return S.solve_subdiffusion(spec)


def rect_synthetic(u, T=0.005, space=RECT, alpha=0.5):
    spec = S.ProblemSpec(alpha=alpha, space=space,
                         time=TimeGrid.from_horizon(T, u.shape[0] - 1),
                         u0=np.asarray(u[0], dtype=float))
    return S.SolveResult(spec=spec, u=np.asarray(u, dtype=float))


def transposed(result):
    space = result.spec.space
    swapped = S.SpaceGrid.rectangle(space.lower[::-1], space.upper[::-1],
                                    space.cells[::-1])
    fld = result.spec.coefficients
    coeff = S.CoefficientField(
        evaluate=lambda n, pts: fld.evaluate(n, pts[..., ::-1]),
        nu=fld.nu, lambda_bound=fld.lambda_bound,
        time_dependent=fld.time_dependent)
    spec = S.ProblemSpec(alpha=result.spec.alpha, space=swapped,
                         time=result.spec.time,
                         u0=result.spec.u0.T.copy(),
                         boundary=result.spec.boundary, coefficients=coeff)
    return S.SolveResult(spec=spec,
                         u=np.ascontiguousarray(result.u.transpose(0, 2, 1)))


def flip(region):
    return H.BoxRegion(t_lo=region.t_lo, t_hi=region.t_hi,
                       center=region.center[::-1], radius=region.radius)


def brute_nodes(result, region):
    """Space-time nodes of the closed region, each tested on its own."""
    xs, ys = result.spec.space.axes()
    cx, cy = region.center
    r2 = region.radius ** 2
    times = [n for n, t in enumerate(result.spec.time.nodes)
             if region.t_lo - 1e-14 <= t <= region.t_hi + 1e-14]
    places = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            dx, dy = x - cx, y - cy
            if dx * dx + dy * dy <= r2 + 1e-14:
                places.append((i, j))
    return times, places


def brute_cells(result, region):
    """Cell-centre values of the space-time cells whose midpoints lie
    strictly inside the region, in time-major then C order."""
    u = result.u
    nodes = result.spec.time.nodes
    xs, ys = result.spec.space.axes()
    cx, cy = region.center
    r2 = region.radius ** 2
    vals = []
    for k in range(len(nodes) - 1):
        tm = 0.5 * (nodes[k] + nodes[k + 1])
        if not region.t_lo < tm < region.t_hi:
            continue
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                dx = 0.5 * (xs[i] + xs[i + 1]) - cx
                dy = 0.5 * (ys[j] + ys[j + 1]) - cy
                if not dx * dx + dy * dy < r2:
                    continue
                a, b = (0.25 * (u[n, i, j] + u[n, i + 1, j]
                                + u[n, i, j + 1] + u[n, i + 1, j + 1])
                        for n in (k, k + 1))
                vals.append(0.5 * (a + b))
    return np.array(vals)


def brute_power_mean(vals, p):
    return (sum(v ** p for v in vals) / len(vals)) ** (1.0 / p)


def test_2d_cell_selection_matches_brute_force():
    rng = np.random.default_rng(5)
    res = rect_synthetic(rng.uniform(0.5, 2.0, size=(13,) + RECT.shape))
    for region in RECT_REGIONS:
        vals = H._cell_midpoint_values(res, region)
        ref = brute_cells(res, region)
        assert ref.size > 0 and np.array_equal(vals, ref)
        for p in (0.5, 1.0, 2.5):
            assert H.lp_mean(res, region, p) == pytest.approx(
                brute_power_mean(ref, p), rel=1e-14)


def test_2d_node_selection_matches_brute_force():
    res = rect_synthetic(np.ones((13,) + RECT.shape))
    spec = res.spec
    for region in RECT_REGIONS:
        times, places = brute_nodes(res, region)
        assert times and places
        # a zero at one node shows in the infimum exactly when the node
        # belongs to the region
        for i in range(RECT.shape[0]):
            for j in range(RECT.shape[1]):
                u = np.ones_like(res.u)
                u[:, i, j] = 0.0
                got = H.essinf(S.SolveResult(spec=spec, u=u), region)
                assert got == (0.0 if (i, j) in places else 1.0)
        for n in range(res.u.shape[0]):
            u = np.ones_like(res.u)
            u[n] = 0.0
            got = H.essinf(S.SolveResult(spec=spec, u=u), region)
            assert got == (0.0 if n in times else 1.0)


def test_2d_essinf_matches_brute_force():
    rng = np.random.default_rng(6)
    res = rect_synthetic(rng.uniform(-1.0, 1.0, size=(13,) + RECT.shape))
    for region in RECT_REGIONS:
        times, places = brute_nodes(res, region)
        ref = min(res.u[n, i, j] for n in times for i, j in places)
        assert H.essinf(res, region) == ref


def test_2d_ratio_sweep_matches_brute_force():
    res = rect_bump_run()
    early, late = H.harnack_boxes(RECT_CONFIG)
    times, places = brute_nodes(res, late)
    inf_ref = min(res.u[n, i, j] for n in times for i, j in places)
    cells = brute_cells(res, early)
    reports = H.harnack_ratio_sweep(res, RECT_CONFIG, [0.5, 1.0, 2.0])
    for rep in reports:
        mean_ref = brute_power_mean(cells, rep.p)
        assert rep.essinf == inf_ref > 0.0
        assert rep.lp_mean == pytest.approx(mean_ref, rel=1e-14)
        assert rep.ratio == pytest.approx(mean_ref / inf_ref, rel=1e-14)
        assert rep.grid == "m=16,cells=24x20"
        assert rep.lp_mean == H.lp_mean(res, early, rep.p)


def test_2d_measurements_invariant_under_transposition():
    rng = np.random.default_rng(7)
    res = rect_synthetic(rng.uniform(0.5, 2.0, size=(13,) + RECT.shape))
    res_t = transposed(res)
    assert res_t.spec.space == RECT_T
    for region in RECT_REGIONS:
        assert H.essinf(res_t, flip(region)) == H.essinf(res, region)
        for p in (0.5, 1.0, 2.5):
            assert H.lp_mean(res_t, flip(region), p) == pytest.approx(
                H.lp_mean(res, region, p), rel=1e-14)
    bump = rect_bump_run()
    config_t = H.HarnackConfig(delta=0.5, eta=1.5, tau=1.0, t0=0.0,
                               x0=(0.7, 0.45), r=0.25, alpha=0.5)
    for a, b in zip(H.harnack_ratio_sweep(bump, RECT_CONFIG, [0.5, 2.0]),
                    H.harnack_ratio_sweep(transposed(bump), config_t,
                                          [0.5, 2.0])):
        assert b.essinf == a.essinf
        assert b.ratio == pytest.approx(a.ratio, rel=1e-14)


def rect_ramp_run(alpha=2.0 / 3.0, r0=0.3, eta=2.0, m=128):
    horizon = eta * r0 ** (2.0 / alpha)
    t_ramp = horizon / 4.0

    def ramp(t, pts):
        return np.where(pts[..., 0] > 0.5, min(t / t_ramp, 1.0), 0.0)

    spec = S.ProblemSpec(alpha=alpha, space=RECT,
                         time=TimeGrid.from_horizon(horizon, m),
                         u0=np.zeros(RECT.shape), boundary=ramp)
    return S.solve_subdiffusion(spec)


# centred on node (15, 10), so even the smallest ball holds a node
OSC_X0 = (0.625, 0.65)
OSC_RADII = [0.3, 0.15, 0.075]


def test_2d_oscillation_decay_matches_brute_force():
    res = rect_ramp_run()
    fit = H.oscillation_decay(res, OSC_X0, OSC_RADII, eta=2.0)
    oscs = []
    for r in OSC_RADII:
        region = H.BoxRegion(t_lo=0.0, t_hi=2.0 * r ** (2.0 / res.spec.alpha),
                             center=OSC_X0, radius=r)
        times, places = brute_nodes(res, region)
        block = [res.u[n, i, j] for n in times for i, j in places]
        oscs.append(max(block) - min(block))
    assert fit.oscillations == tuple(oscs) and min(oscs) > 0.0
    slope, intercept = np.polyfit(np.log(OSC_RADII), np.log(oscs), 1)
    assert (fit.slope, fit.intercept) == (slope, intercept)
    fit_t = H.oscillation_decay(transposed(res), OSC_X0[::-1], OSC_RADII,
                                eta=2.0)
    assert fit_t.oscillations == fit.oscillations
    assert fit_t.slope == pytest.approx(fit.slope, rel=1e-14)


def test_2d_oscillation_node_selection_matches_brute_force():
    # alpha = 1 gives every box at least one time node after t = 0
    m = 20
    res = rect_synthetic(np.zeros((m + 1,) + RECT.shape), T=0.04, alpha=1.0)
    spec = res.spec
    radii = [0.2, 0.1, 0.045]
    balls = [brute_nodes(res, H.BoxRegion(t_lo=0.0, t_hi=1.0, center=OSC_X0,
                                          radius=r))[1] for r in radii]
    # a unit step after t = 0 at one node: each ball's oscillation is 1
    # exactly when the node belongs to it
    for i in range(RECT.shape[0]):
        for j in range(RECT.shape[1]):
            u = np.zeros_like(res.u)
            u[1:, i, j] = 1.0
            want = tuple(1.0 if (i, j) in ball else 0.0 for ball in balls)
            if not any(want):
                with pytest.raises(DegenerateDataError):
                    H.oscillation_decay(S.SolveResult(spec=spec, u=u),
                                        OSC_X0, radii)
                continue
            fit = H.oscillation_decay(S.SolveResult(spec=spec, u=u),
                                      OSC_X0, radii)
            assert fit.oscillations == want


# ---------------------------------------------------------------------------
# maximum principle
# ---------------------------------------------------------------------------

def test_max_principle_constant_branch():
    res = constant_run(2.0)
    rep = H.max_principle_check(res)
    assert rep.bounds_ok and rep.constant_data
    assert abs(rep.interior_margin) <= 1e-12


def test_max_principle_bump_margin():
    res = checkerboard_bench(80, 32, 4)
    rep = H.max_principle_check(res)
    assert rep.bounds_ok
    assert rep.interior_margin > 1e-8


def test_max_principle_rejects_forcing():
    nx = 16
    spec = S.ProblemSpec(alpha=0.5, space=S.SpaceGrid.interval(0.0, 1.0, nx),
                         time=TimeGrid.from_horizon(0.1, 8),
                         u0=np.zeros(nx + 1), forcing=-1.0)
    res = S.solve_subdiffusion(spec)
    with pytest.raises(DomainError):
        H.max_principle_check(res)


def test_max_principle_probes_every_level():
    nx, m = 16, 8
    time = TimeGrid.from_horizon(0.1, m)

    def first_level_only(t, pts):
        return np.full(pts.shape[:-1], -1.0 if t == time.dt else 0.0)

    spec = S.ProblemSpec(alpha=0.5, space=S.SpaceGrid.interval(0.0, 1.0, nx),
                         time=time, u0=np.zeros(nx + 1),
                         forcing=first_level_only)
    res = S.solve_subdiffusion(spec)
    with pytest.raises(DomainError, match="zero forcing"):
        H.max_principle_check(res)


# ---------------------------------------------------------------------------
# weighted Poincare inequality
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def square_grid():
    return S.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (48, 48))


def test_poincare_constant_field(square_grid):
    w = H.cone_weight(square_grid)
    chk = H.weighted_poincare_check(square_grid, np.full(square_grid.shape, 3.0), w)
    assert chk.lhs <= 1e-20
    assert chk.passed


def test_poincare_linear_field(square_grid):
    w = H.cone_weight(square_grid)
    u = square_grid.node_points()[..., 0]
    chk = H.weighted_poincare_check(square_grid, u, w)
    assert chk.passed and 0.0 < chk.ratio < 1.0


def test_poincare_random_trig_fields(square_grid):
    rng = np.random.default_rng(42)
    X = square_grid.node_points()
    w = H.cone_weight(square_grid)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        u = sum(a[i, j] * np.cos(np.pi * (i * X[..., 0] + j * X[..., 1]))
                + b[i, j] * np.sin(np.pi * (i * X[..., 0] - j * X[..., 1]))
                for i in range(3) for j in range(3))
        assert H.weighted_poincare_check(square_grid, u, w).passed


def test_poincare_1d_array_weight():
    # a cone of radius 0.4 at 0.5, against its closed form
    g = S.SpaceGrid.interval(0.0, 1.0, 64)
    x = np.linspace(0.0, 1.0, 65)
    w = H.cone_weight(g, center=0.5, radius=0.4)
    np.testing.assert_allclose(
        w.values(g), np.clip(2.0 * (0.4 - np.abs(x - 0.5)) / 0.4, 0.0, 1.0),
        rtol=0.0, atol=1e-15)
    chk = H.weighted_poincare_check(g, np.sin(3.0 * x), w)
    assert chk.passed and 0.0 < chk.ratio < 1.0


def test_poincare_2d_array_weight():
    # an off-centre cone in a non-square box
    X = RECT.node_points()
    w = H.cone_weight(RECT, center=(0.5, 0.65), radius=0.4)
    dist = np.sqrt((X[..., 0] - 0.5) ** 2 + (X[..., 1] - 0.65) ** 2)
    np.testing.assert_allclose(
        w.values(RECT), np.clip(2.0 * (0.4 - dist) / 0.4, 0.0, 1.0),
        rtol=0.0, atol=1e-15)
    u = np.sin(3.0 * X[..., 0]) * np.cos(2.0 * X[..., 1])
    chk = H.weighted_poincare_check(RECT, u, w)
    assert chk.passed and 0.0 < chk.ratio < 1.0


def test_poincare_takes_only_a_cone_weight():
    # an array of node values is no weight, even one equal to a cone's
    g = S.SpaceGrid.interval(0.0, 1.0, 64)
    w = H.cone_weight(g, center=0.5, radius=0.4)
    for weight in (w.values(g), None, 0.4):
        with pytest.raises(InvalidWeightError, match="ConeWeight"):
            H.weighted_poincare_check(g, np.zeros(g.shape), weight)


def test_cone_weight_must_fit():
    g = S.SpaceGrid.interval(0.0, 1.0, 16)
    with pytest.raises(InvalidWeightError):
        H.cone_weight(g, center=(0.9,), radius=0.5)


def test_cone_weight_center_must_match_dimension():
    line = S.SpaceGrid.interval(0.0, 1.0, 16)
    with pytest.raises(InvalidWeightError, match="dimension"):
        H.cone_weight(RECT, center=(0.5,), radius=0.2)
    with pytest.raises(InvalidWeightError, match="dimension"):
        H.cone_weight(line, center=(0.5, 0.5), radius=0.2)
    for space, center in ((RECT, (0.5,)), (line, (0.5, 0.5))):
        w = H.ConeWeight(center=center, radius=0.2)
        with pytest.raises(InvalidWeightError, match="dimension"):
            w.values(space)
        with pytest.raises(InvalidWeightError, match="dimension"):
            H.weighted_poincare_check(space, np.zeros(space.shape), w)
