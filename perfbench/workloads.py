"""The four benchmark workloads: input generation and the timed runs.

Each workload has a ``setup`` that draws its inputs from the seed and builds
every ``ProblemSpec`` (this is part of the set-up time), and a ``run`` that
calls the public functions of ``subharnack`` in the order the CLI families
call them, with a span around each call and gates on every result.  ``run``
hands each gated problem to ``tr.problem``, which times it.

Nothing here calls or patches an ``_``-prefixed name of ``subharnack``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx
from scipy.special import gamma as gamma_fn

from subharnack import fracops, fundsol, harnack, kernels, solver
from subharnack.fracops import SampledPath, TimeGrid

WEAK_FORM_TOL = 1e-8          # harnack_ratio_sweep's supersolution gate
P_LIST = (0.5, 1.0, 1.5)
RAMP_ALPHA = 2.0 / 3.0
ENSEMBLE_DESIGN_SEED = 20250801   # the CLI's default seed
# relative tolerance of the headline comparison with reference.json: far
# above the solver's 1e-12 CG tolerance and far below every gate.  The
# spectral outputs go through the interpolated Mittag-Leffler ray, whose own
# error is about 1e-8, so a more accurate ray must not count as a miss.
REFERENCE_RTOL = {"memory1d": 1e-8, "rough2d": 1e-8, "ensemble": 1e-8,
                  "spectral": 1e-6}

# sizes per workload; "tiny" is for the benchmark's self-tests only
SIZES = {
    "memory1d": {
        "full": {"grids": [(80, 1024), (160, 2048)], "ramp": (160, 2048)},
        "tiny": {"grids": [(40, 64), (80, 128)], "ramp": (40, 128)},
    },
    "rough2d": {
        "full": {"block": (64, 48), "flip": (48, 48)},
        "tiny": {"block": (24, 16), "flip": (16, 16)},
    },
    "ensemble": {
        "full": {"problems": 300},
        "tiny": {"problems": 12},
    },
    "spectral": {
        "full": {"alphas": (0.3, 0.7), "relax_m": (2048, 4096, 8192),
                 "fracops_m": 4096, "yosida_n": (1, 4, 16, 64, 256)},
        "tiny": {"alphas": (0.5,), "relax_m": (64, 128, 256),
                 "fracops_m": 128, "yosida_n": (1, 4, 16, 64, 256)},
    },
}


def solve(tr, spec):
    """solve_subdiffusion with its computed work counts."""
    nodes = int(np.prod(spec.space.shape))
    m = spec.time.m
    tr.count("solver.solve_subdiffusion.node_levels", nodes * m)
    tr.count("solver.solve_subdiffusion.history_pairs", nodes * m * (m - 1) // 2)
    tr.peak("solver.solve_subdiffusion.u_bytes", 8 * nodes * (m + 1))
    return tr.call("solver.solve_subdiffusion", solver.solve_subdiffusion, spec)


def block_field(space, values):
    """Cell-aligned piecewise-constant isotropic field with the given block
    values, one block per ``cells / blocks`` cells along each axis."""
    values = np.asarray(values, dtype=float)
    lo = np.asarray(space.lower)
    width = (np.asarray(space.upper) - lo) / np.asarray(values.shape)
    top = np.asarray(values.shape) - 1

    def evaluate(_time_index, points):
        idx = np.clip(np.floor((points - lo) / width).astype(int), 0, top)
        return values[tuple(np.moveaxis(idx, -1, 0))]

    return solver.CoefficientField(
        evaluate=evaluate, nu=float(values.min()),
        lambda_bound=float(values.max()) * math.sqrt(space.dimension),
        time_dependent=False, name=f"blocks{values.shape}")


def _bump(space, center, radius):
    pts = space.node_points()
    dist2 = np.sum((pts - np.asarray(center)) ** 2, axis=-1)
    return np.maximum(0.0, 1.0 - dist2 / radius ** 2) ** 2


def _harnack_config(dim):
    return harnack.HarnackConfig(delta=0.5, eta=2.0, tau=1.0, t0=0.0,
                                 x0=(0.5,) * dim, r=0.2, alpha=0.5)


def _harnack_time(config, m):
    return TimeGrid.from_horizon(1.25 * config.horizon, m)


def _weak_form_and_sweep(tr, gates, tag, res, config):
    """Weak form once, with the sweep's own gate, then the sweep without
    recomputing it; returns the sweep reports."""
    weak = tr.call("solver.supersolution_residual",
                   solver.supersolution_residual, res)
    gates.check(f"{tag}.weak_form", weak >= -WEAK_FORM_TOL, weak)
    sweep = tr.call("harnack.harnack_ratio_sweep", harnack.harnack_ratio_sweep,
                    res, config, P_LIST, check_supersolution=False)
    gates.check(f"{tag}.ratios_finite",
                all(math.isfinite(r.ratio) and r.essinf > 0.0 for r in sweep))
    gates.check(f"{tag}.ratio_monotone_in_p",
                all(a.ratio <= b.ratio + 1e-12 for a, b in zip(sweep, sweep[1:])))
    for r in sweep:
        gates.record(f"{tag}.ratio_p{r.p}", r.ratio)
    return sweep


# ---------------------------------------------------------------------------
# memory1d: long memory on a small space
# ---------------------------------------------------------------------------

def setup_memory1d(seed, size):
    sz = SIZES["memory1d"][size]
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(1.0, 5.0, size=20)
    config = _harnack_config(1)
    specs = []
    for nx, m in sz["grids"]:
        space = solver.SpaceGrid.interval(0.0, 1.0, nx)
        specs.append(solver.ProblemSpec(
            alpha=0.5, space=space, time=_harnack_time(config, m),
            u0=_bump(space, (0.5,), 0.75 * config.eta * config.r),
            boundary=0.0, coefficients=block_field(space, blocks)))
    # continuity at t = 0 as in the acceptance suite: ramp boundary, zero
    # data, alpha = 2/3, r0 = 0.3, eta = 2 (at alpha = 1/2 the smallest box
    # holds only the t = 0 level and its oscillation is exactly zero)
    nx, m = sz["ramp"]
    space = solver.SpaceGrid.interval(0.0, 1.0, nx)
    horizon = 2.0 * 0.3 ** (2.0 / RAMP_ALPHA)
    t_ramp = horizon / 4.0

    def ramp(t, pts):
        return np.where(pts[..., 0] > 0.5, min(t / t_ramp, 1.0), 0.0)

    ramp_spec = solver.ProblemSpec(
        alpha=RAMP_ALPHA, space=space, time=TimeGrid.from_horizon(horizon, m),
        u0=np.zeros(space.shape), boundary=ramp,
        coefficients=block_field(space, blocks))
    state_bytes = max(8 * s.u0.size * (s.time.m + 1) for s in specs + [ramp_spec])
    return {"config": config, "specs": specs, "ramp": ramp_spec,
            "sizes": {"grids": sz["grids"], "ramp": sz["ramp"], "blocks": 20,
                      "state_bytes": state_bytes}}


def run_memory1d(st, tr, gates):
    sweeps = []
    for k, spec in enumerate(st["specs"]):
        tag = f"grid{k}"

        def body(spec=spec, tag=tag):
            res = solve(tr, spec)
            sweeps.append(_weak_form_and_sweep(tr, gates, tag, res, st["config"]))
            if len(sweeps) == 2:
                change = max(abs(a.ratio - b.ratio) / a.ratio
                             for a, b in zip(*sweeps))
                gates.check("two_grid_stable", change < 0.05, change)
                gates.record("two_grid_rel_change", change)

        tr.problem(tag, body)

    def ramp_body():
        spec = st["ramp"]
        res = solve(tr, spec)
        radii = [0.3 / 2 ** k for k in range(4)]
        fit = tr.call("harnack.oscillation_decay", harnack.oscillation_decay,
                      res, (0.62,), radii, eta=2.0)
        osc = fit.oscillations
        gates.check("osc.slope_positive", fit.slope > 0.05, fit.slope)
        gates.check("osc.monotone", all(a >= b for a, b in zip(osc, osc[1:])))
        predicted = math.exp(fit.intercept) * radii[-1] ** fit.slope
        gates.check("osc.smallest_box_covered", osc[-1] <= 1.1 * predicted)
        gates.record("osc.slope", fit.slope)
        gates.record("osc.smallest", osc[-1])

    tr.problem("ramp", ramp_body)


# ---------------------------------------------------------------------------
# rough2d: large space, short memory
# ---------------------------------------------------------------------------

def setup_rough2d(seed, size):
    sz = SIZES["rough2d"][size]
    rng = np.random.default_rng(seed)
    config = _harnack_config(2)
    specs = []
    nx, m = sz["block"]
    space = solver.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (nx, nx))
    # block values span exactly [1, 5]: the contrast, and with it the CG
    # iteration count, is the same for every seed
    u = rng.uniform(size=(8, 8))
    field = block_field(space, 1.0 + 4.0 * (u - u.min()) / (u.max() - u.min()))
    specs.append(solver.ProblemSpec(
        alpha=0.5, space=space, time=_harnack_time(config, m),
        u0=_bump(space, (0.5, 0.5), 0.75 * config.eta * config.r),
        boundary=0.0, coefficients=field))
    nx, m = sz["flip"]
    space = solver.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (nx, nx))
    field = solver.checkerboard_coefficients(space, nx // 8, 1.0, 5.0,
                                             time_flip=4)
    specs.append(solver.ProblemSpec(
        alpha=0.5, space=space, time=_harnack_time(config, m),
        u0=_bump(space, (0.5, 0.5), 0.75 * config.eta * config.r),
        boundary=0.0, coefficients=field))
    state_bytes = max(8 * s.u0.size * (s.time.m + 1) for s in specs)
    return {"config": config, "specs": specs,
            "sizes": {"block_field": sz["block"], "checkerboard_flip4": sz["flip"],
                      "state_bytes": state_bytes}}


def run_rough2d(st, tr, gates):
    for tag, spec in zip(("blocks", "flip"), st["specs"]):
        def body(spec=spec, tag=tag):
            res = solve(tr, spec)
            rep = tr.call("harnack.max_principle_check",
                          harnack.max_principle_check, res)
            gates.check(f"{tag}.bounds_ok", rep.bounds_ok)
            gates.check(f"{tag}.nonnegative", rep.min_u >= -1e-10)
            gates.record(f"{tag}.interior_max", rep.interior_max)
            _weak_form_and_sweep(tr, gates, tag, res, st["config"])

        tr.problem(tag, body)


# ---------------------------------------------------------------------------
# ensemble: many tiny problems, the maxprinciple family's distribution
# ---------------------------------------------------------------------------

def _balanced(rng, values, n):
    """n draws in which every value occurs n/len(values) times (to within
    one), in random order: the marginal law of a uniform draw."""
    pool = [values[k % len(values)] for k in range(n)]
    rng.shuffle(pool)
    return pool


def _ensemble_problem(rng, dim, cells, m, kind):
    alpha = float(rng.uniform(0.15, 0.95))
    if dim == 1:
        space = solver.SpaceGrid.interval(0.0, 1.0, cells[0])
    else:
        space = solver.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), cells)
    time_grid = TimeGrid.from_horizon(float(rng.uniform(0.05, 0.5)), m)
    nonneg = bool(rng.integers(0, 2))
    u0 = rng.uniform(0.0 if nonneg else -2.0, 3.0, size=space.shape)
    g_amp = float(rng.uniform(0.0 if nonneg else -1.5, 2.0))
    g_base = abs(g_amp) if nonneg else g_amp
    g_freq = float(rng.uniform(0.0, 8.0))

    def boundary(t, pts):
        return np.full(pts.shape[:-1], g_base * (0.5 + 0.5 * math.cos(g_freq * t)))

    if kind == "constant":
        coeff = solver.constant_coefficients(float(rng.uniform(0.2, 4.0)), dim)
    else:
        coeff = solver.checkerboard_coefficients(
            space, int(rng.integers(1, 4)), float(rng.uniform(0.2, 1.0)),
            float(rng.uniform(1.0, 6.0)),
            time_flip=int(rng.integers(1, 6)) if kind == "flip" else None)
    spec = solver.ProblemSpec(alpha=alpha, space=space, time=time_grid, u0=u0,
                              boundary=boundary, coefficients=coeff)
    return spec, nonneg, harnack.cone_weight(space)


def setup_ensemble(seed, size):
    """Problems with the maxprinciple family's law: 1D on 6-23 cells or 2D on
    5-12 x 5-12, 4-19 levels, half constant coefficients, a quarter static
    checkerboards, a quarter flipping every 1-5 levels.  These shapes are a
    fixed balanced design (see ``_balanced``), so every seed has the same
    work mix; the seed sets their order and every value in the problems."""
    n = SIZES["ensemble"][size]["problems"]
    design = np.random.default_rng(ENSEMBLE_DESIGN_SEED)
    dims = _balanced(design, [1, 2], n)
    n2 = dims.count(2)
    cells1 = iter(_balanced(design, list(range(6, 24)), n - n2))
    cells2 = iter(zip(_balanced(design, list(range(5, 13)), n2),
                      _balanced(design, list(range(5, 13)), n2)))
    shapes = [(dim, (next(cells1),) if dim == 1 else next(cells2), m, kind)
              for dim, m, kind in zip(
                  dims, _balanced(design, list(range(4, 20)), n),
                  _balanced(design, ["constant", "constant", "checkerboard",
                                     "flip"], n))]
    rng = np.random.default_rng(seed)
    rng.shuffle(shapes)
    problems = [_ensemble_problem(rng, *shape) for shape in shapes]
    state_bytes = max(8 * p[0].u0.size * (p[0].time.m + 1) for p in problems)
    return {"problems": problems,
            "sizes": {"problems": n, "two_d": n2, "state_bytes": state_bytes}}


def run_ensemble(st, tr, gates):
    sums = {"abs_min_u": 0.0, "max_u": 0.0, "poincare_lhs": 0.0,
            "poincare_rhs": 0.0}
    for k, (spec, nonneg, weight) in enumerate(st["problems"]):
        def body(spec=spec, nonneg=nonneg, weight=weight, k=k):
            res = solve(tr, spec)
            rep = tr.call("harnack.max_principle_check",
                          harnack.max_principle_check, res)
            gates.check(f"p{k}.bounds_ok", rep.bounds_ok)
            gates.check(f"p{k}.nonnegative",
                        (not nonneg) or rep.min_u >= -1e-10, rep.min_u)
            chk = tr.call("harnack.weighted_poincare_check",
                          harnack.weighted_poincare_check,
                          spec.space, res.u[-1], weight)
            gates.check(f"p{k}.poincare", chk.passed, chk.ratio)
            sums["abs_min_u"] += abs(rep.min_u)
            sums["max_u"] += rep.max_u
            sums["poincare_lhs"] += chk.lhs
            sums["poincare_rhs"] += chk.rhs

        tr.problem(f"p{k}", body)
    for key, val in sums.items():
        gates.record(f"sum.{key}", val)


# ---------------------------------------------------------------------------
# spectral: Mittag-Leffler rays, profile quadrature, scalar Volterra, identities
# ---------------------------------------------------------------------------

class TimedEvaluator(fundsol.FundamentalSolutionEvaluator):
    """Evaluator whose ``profile`` calls are spans of their own."""

    tracer = None

    def profile(self, t, rho):
        self.tracer.count("fundsol.FundamentalSolutionEvaluator.profile.radii",
                          int(np.size(rho)))
        return self.tracer.call("fundsol.FundamentalSolutionEvaluator.profile",
                                super().profile, t, rho)


def _evaluator(tr, alpha, dim):
    ev = TimedEvaluator(alpha=alpha, dimension=dim)
    ev.tracer = tr
    return ev


def setup_spectral(seed, size):
    # the spectral workload is deterministic: it ignores the seed
    sz = SIZES["spectral"][size]
    m = sz["fracops_m"]
    grid = TimeGrid.from_horizon(1.0, m)
    t = grid.nodes
    paths = {
        "u": SampledPath(grid, 1.0 + 0.3 * np.sin(3.0 * t) + 0.2 * t ** 2),
        "v": SampledPath(grid, t + 0.3 * np.sin(2.0 * t)),
        "phi": SampledPath(grid, 1.0 + 0.5 * t ** 2),
        "w": SampledPath(grid, 1.0 + 0.5 * np.cos(3.0 * t)),
    }
    return {"sz": sz, "grid": grid, "paths": paths,
            "sizes": {**sz, "seed_used": False,
                      # profile quadrature: radii x panel-chunk kernel matrix
                      "state_bytes": 8 * 1600 * 4096}}


def run_spectral(st, tr, gates):
    sz = st["sz"]
    eps = list(np.geomspace(1e-8, 0.1, 15))
    e = np.array(eps)
    ray_points = np.array([0.5, 3.0, 30.0, 300.0])

    for a in sz["alphas"]:
        for beta in (1.0, a):
            def ray_body(a=a, beta=beta):
                ray = tr.call("kernels.ml_on_negative_axis",
                              kernels.ml_on_negative_axis, a, beta)
                vals = ray(ray_points)
                gates.check(f"ray{a},{beta}.positive", bool(np.all(vals > 0.0)))
                for s, v in zip(ray_points, vals):
                    gates.record(f"ray{a},{beta}.at{s:g}", v)

            tr.problem(f"ray{a},{beta}", ray_body)

    for a in sz["alphas"]:
        def opt_body(a=a, dim=1):
            crit = fundsol.critical_exponent(a, dim)
            pairs = tr.call("fundsol.optimality_experiment",
                            fundsol.optimality_experiment, a, dim, crit, eps,
                            evaluator=_evaluator(tr, a, dim))
            vals = np.array([v for _, v in pairs])
            sel = e <= 1e-2
            _, slope, resid = fundsol.log_growth_fit(e[sel], vals[sel])
            tag = f"opt.a{a}.N{dim}"
            gates.check(f"{tag}.log_fit", resid < 0.05 and slope > 0.0,
                        (slope, resid))
            gates.record(f"{tag}.log_slope", slope)
            gates.record(f"{tag}.I_min_eps", vals[0])

        tr.problem(f"opt{a}", opt_body)

    def mass_body():
        a, t = sz["alphas"][-1], 0.25
        mass = tr.call("fundsol.spatial_mass", fundsol.spatial_mass,
                       _evaluator(tr, a, 1), t)
        exact = t ** (a - 1.0) / gamma_fn(a)
        gates.check("mass.identity", abs(mass - exact) <= 1e-6 * exact,
                    (mass, exact))
        gates.record("mass", mass)

    tr.problem("mass", mass_body)

    def relax_body():
        a, sigma = 0.5, 1.0
        exact = tr.call("kernels.mittag_leffler", kernels.mittag_leffler,
                        a, 1.0, -sigma)
        errs = []
        for m in sz["relax_m"]:
            path = tr.call("solver.solve_scalar_relaxation",
                           solver.solve_scalar_relaxation, a, sigma, 1.0,
                           TimeGrid.from_horizon(1.0, m))
            errs.append(abs(path.values[-1] - exact) / abs(exact))
        orders = [math.log2(x / y) for x, y in zip(errs, errs[1:])]
        for k, order in enumerate(orders):
            gates.check(f"relax.order{k}", abs(order - (1.0 + a)) <= 0.3, order)
            gates.record(f"relax.order{k}", order)

    tr.problem("relax", relax_body)

    def yosida_body():
        l1 = [tr.call("kernels.yosida_l1_distance", kernels.yosida_l1_distance,
                      0.5, n) for n in sz["yosida_n"]]
        gates.check("yosida.l1_monotone", all(b < a for a, b in zip(l1, l1[1:])))
        gates.check("yosida.l1_small", l1[-1] < 0.05, l1[-1])
        for n, v in zip(sz["yosida_n"], l1):
            gates.record(f"yosida.l1_n{n}", v)

    tr.problem("yosida_l1", yosida_body)

    grid, paths = st["grid"], st["paths"]
    square = (lambda y: y * y, lambda y: 2.0 * y)
    kern = {}

    def kernel_body():
        for n in (2, 4):
            g_t, _ = tr.call("kernels.yosida_kernels", kernels.yosida_kernels,
                               0.5, n, grid.dt, grid.m)
            gates.check(f"yosida_kernels{n}.finite",
                        bool(np.all(np.isfinite(g_t.values))))
            kern[n] = g_t
            gates.record(f"yosida_kernels{n}.g_end", g_t.values[-1])

    tr.problem("yosida_kernels", kernel_body)

    def fracops_body(name, fn, *args, **kwargs):
        def body():
            r = tr.call(f"fracops.{name}", fn, *args, **kwargs)
            gates.check(f"{name}.finite", math.isfinite(r), r)
            # the residuals are 1e-8..1e-6 differences of O(1) sums
            gates.record(name, r, atol=1e-11)
        return body

    for name, fn, args, kwargs in (
        ("fundamental_identity_residual", fracops.fundamental_identity_residual,
         (paths["u"], kern.get(4), *square), {"t_min": 0.1}),
        ("commutation_residual_1", fracops.commutation_residual_1,
         (paths["v"], paths["phi"], 0.5), {}),
        ("commutation_residual_2", fracops.commutation_residual_2,
         (kern.get(2), paths["w"], paths["phi"]), {}),
    ):
        tr.problem(name, fracops_body(name, fn, *args, **kwargs))

    def ml_body():
        z = np.linspace(-20.0, 20.0, 100)
        worst = max(abs(tr.call("kernels.mittag_leffler", kernels.mittag_leffler,
                                1.0, 1.0, float(zz)) - math.exp(zz)) / math.exp(zz)
                    for zz in z)
        gates.check("ml.exp", worst <= 1e-10, worst)
        half = tr.call("kernels.mittag_leffler", kernels.mittag_leffler,
                       0.5, 1.0, -1.0)
        gates.check("ml.erfcx", abs(half - erfcx(1.0)) <= 1e-8, half)
        gates.record("ml.half_at_minus1", half)
        for a in sz["alphas"]:
            for s in (0.5, 3.0, 30.0):
                v = tr.call("kernels.mittag_leffler", kernels.mittag_leffler,
                            a, 1.0, -s)
                gates.record(f"ml.a{a}.at{s:g}", v)

    tr.problem("ml_spot", ml_body)


WORKLOADS = {
    "memory1d": (setup_memory1d, run_memory1d),
    "rough2d": (setup_rough2d, run_rough2d),
    "ensemble": (setup_ensemble, run_ensemble),
    "spectral": (setup_spectral, run_spectral),
}
