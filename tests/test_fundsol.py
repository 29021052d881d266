import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, rgamma

from subharnack import fundsol as FS
from subharnack.errors import AccuracyError, DomainError
from subharnack.kernels import ml_on_negative_axis, rl_kernel

RULE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999)


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------

def test_critical_exponent_values():
    assert FS.critical_exponent(0.5, 1) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert FS.critical_exponent(0.5, 2) == pytest.approx(1.5, rel=1e-15)
    for N in (1, 2, 3):
        assert abs(FS.critical_exponent(0.999, N) - (1.0 + 2.0 / N)) < 1e-2
        assert FS.critical_exponent(0.3, N) > 1.0


@pytest.mark.parametrize("N", [0, 1.5, math.nan, "2"])
def test_dimension_is_a_count(N):
    for call in (lambda: FS.critical_exponent(0.5, N),
                 lambda: FS.divergence_exponent(0.5, N, 2.0)):
        with pytest.raises(DomainError, match="N must be an integer"):
            call()


def test_divergence_exponent_values():
    assert FS.divergence_exponent(0.5, 1, 1.0) == pytest.approx(-0.5)
    assert FS.divergence_exponent(0.5, 1, 5.0 / 3.0) == pytest.approx(-1.0)
    assert FS.divergence_exponent(0.5, 1, 2.0) == pytest.approx(-1.25)


def test_divergence_at_critical_is_minus_one():
    for alpha in np.arange(0.1, 0.95, 0.1):
        for N in (1, 2, 3):
            d = FS.divergence_exponent(alpha, N,
                                       FS.critical_exponent(alpha, N))
            assert abs(d + 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ev_half():
    return FS.FundamentalSolutionEvaluator(alpha=0.5, dimension=1)


def test_classical_limit_is_heat_kernel():
    ev = FS.FundamentalSolutionEvaluator(alpha=1.0, dimension=1)
    assert ev.evaluate(1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-10)
    assert ev.evaluate(0.5, 0.7) == pytest.approx(
        math.exp(-0.49 / 2.0) / math.sqrt(2.0 * math.pi), rel=1e-9)


def test_spatial_mass_identity(ev_half):
    # zero-frequency value: the spatial integral equals the power kernel
    for alpha, t in ((0.3, 0.25), (0.5, 1.0), (0.7, 4.0), (0.5, 0.25)):
        ev = FS.FundamentalSolutionEvaluator(alpha=alpha, dimension=1)
        assert FS.spatial_mass(ev, t) == pytest.approx(
            rl_kernel(alpha, t), rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_spatial_mass_identity_higher_dim(dim):
    ev = FS.FundamentalSolutionEvaluator(alpha=0.5, dimension=dim)
    assert FS.spatial_mass(ev, 1.0) == pytest.approx(
        rl_kernel(0.5, 1.0), rel=1e-6)


def test_self_similarity(ev_half):
    for t, x in ((0.25, 0.7), (1.0, 1.3)):
        lhs = ev_half.evaluate(t, x)
        rhs = t ** (0.5 - 1.0 - 0.25) * ev_half.evaluate(1.0,
                                                         x * t ** (-0.25))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_nonnegativity_grid(ev_half):
    worst = math.inf
    for t in (0.01, 0.1, 1.0, 4.0):
        vals = ev_half.profile(t, np.linspace(0.0, 4.0, 41))
        worst = min(worst, float(vals.min()))
    assert worst >= 0.0


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_origin_value_closed_form(alpha, dim):
    # Y(t, 0) = alpha (4 pi)^(-N/2) t^(alpha-1-alpha N/2) times the
    # (1 - N/2)-th moment Gamma(2 - N/2) / Gamma(1 + alpha (1 - N/2))
    ev = FS.FundamentalSolutionEvaluator(alpha=alpha, dimension=dim)
    d = 1.0 - dim / 2.0
    for t in (0.01, 1.0, 7.0):
        exact = (alpha * (4.0 * math.pi) ** (-dim / 2.0)
                 * t ** (alpha - 1.0 - alpha * dim / 2.0)
                 * math.exp(gammaln(1.0 + d) - gammaln(1.0 + alpha * d)))
        assert ev.evaluate(t, 0.0) == pytest.approx(exact, rel=1e-9)


def _wright_oracle(alpha, rho):
    """Y(1, rho) for N = 1, the cosine transform (1/pi) int cos(xi rho)
    E_{a,a}(-xi^2) dxi in closed form: 0.5 W_{-alpha/2, alpha/2}(-|rho|),
    with the Wright series W_{l,m}(z) = sum_k z^k / (k! Gamma(l k + m))
    summed over 80 terms.  It uses no M-Wright rule and no quadrature."""
    z = -abs(rho)
    return 0.5 * math.fsum(z ** k * float(rgamma(0.5 * alpha * (1 - k)))
                           / math.factorial(k) for k in range(80))


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
def test_profile_matches_cosine_transform_oracle(alpha):
    ev = FS.FundamentalSolutionEvaluator(alpha=alpha, dimension=1)
    rho = np.array([0.3, 1.0, 2.5])
    want = np.array([_wright_oracle(alpha, r) for r in rho])
    scale = ev.evaluate(1.0, 0.0)
    assert np.abs(ev.profile(1.0, rho) - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_order_profile_matches_m_wright_closed_form(dim):
    # M_{1/2}(r) = exp(-r^2/4)/sqrt(pi): Y(t, rho) is one smooth integral
    ev = FS.FundamentalSolutionEvaluator(alpha=0.5, dimension=dim)
    t = 0.7

    def oracle(rho):
        def integrand(r):
            tau = r * t ** 0.5
            heat = ((4.0 * math.pi * tau) ** (-dim / 2.0)
                    * math.exp(-rho ** 2 / (4.0 * tau)))
            return r * math.exp(-r * r / 4.0) / math.sqrt(math.pi) * heat
        return 0.5 * t ** -0.5 * quad(integrand, 0.0, np.inf, epsabs=0.0,
                                      epsrel=1e-13, limit=200)[0]

    rho = np.array([0.0, 0.2, 0.6, 1.5, 3.0])
    want = np.array([oracle(r) for r in rho])
    got = ev.profile(t, rho)
    assert np.abs(got - want).max() <= 1e-8 * got.max()


@pytest.mark.parametrize("call", [
    lambda: ml_on_negative_axis(0.5, 0.5)(math.nan),
    lambda: ml_on_negative_axis(0.5, 0.5)(np.array([1.0, math.nan])),
    lambda: FS.FundamentalSolutionEvaluator(0.5, 1).profile(math.nan, 0.5),
    lambda: FS.FundamentalSolutionEvaluator(0.5, 1).profile(math.inf, 0.5),
    lambda: FS.FundamentalSolutionEvaluator(0.5, 1).profile(1.0, math.inf),
    lambda: FS.FundamentalSolutionEvaluator(0.5, 1).profile(1.0, math.nan),
    lambda: FS.FundamentalSolutionEvaluator(0.5, 2).evaluate(1.0, [0.0, math.inf]),
], ids=["ray-nan", "ray-array-nan", "t-nan", "t-inf", "rho-inf", "rho-nan",
        "x-inf"])
def test_nonfinite_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_near_classical_profile_matches_gaussian():
    ev = FS.FundamentalSolutionEvaluator(alpha=0.999, dimension=1)
    t = 0.5
    xs = np.linspace(0.0, 2.0 * math.sqrt(t), 9)
    got = ev.profile(t, xs)
    gauss = np.exp(-xs ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    assert np.abs(got - gauss).max() / gauss.max() <= 0.01


def test_evaluator_validation():
    with pytest.raises(DomainError):
        FS.FundamentalSolutionEvaluator(alpha=0.5, dimension=4)
    ev = FS.FundamentalSolutionEvaluator(alpha=0.5, dimension=1)
    with pytest.raises(DomainError):
        ev.evaluate(-1.0, 0.0)


# ---------------------------------------------------------------------------
# borderline-integral experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def optimality_runs(ev_half):
    eps = list(np.geomspace(1e-8, 0.1, 15))
    return {p: FS.optimality_experiment(0.5, 1, p, eps, evaluator=ev_half)
            for p in (1.0, 5.0 / 3.0, 2.0)}


def test_optimality_converges_below_critical(optimality_runs):
    pairs = optimality_runs[1.0]
    e = np.array([x for x, _ in pairs])
    I = np.array([v for _, v in pairs])
    sel = e <= e.min() * 10.0
    assert (I[sel].max() - I[sel].min()) / I[sel].min() < 0.02


def test_optimality_log_growth_at_critical(optimality_runs):
    pairs = optimality_runs[5.0 / 3.0]
    e = np.array([x for x, _ in pairs])
    I = np.array([v for _, v in pairs])
    sel = e <= 1e-2
    _, slope, resid = FS.log_growth_fit(e[sel], I[sel])
    assert slope > 0.0
    assert resid < 0.05


def test_optimality_power_growth_above_critical(optimality_runs):
    pairs = optimality_runs[2.0]
    e = np.array([x for x, _ in pairs])
    I = np.array([v for _, v in pairs])
    sel = e <= e.min() * 100.0
    slope = FS.loglog_slope(e[sel], I[sel])
    assert abs(slope - 0.25) <= 0.05


def test_optimality_input_validation(ev_half):
    with pytest.raises(DomainError):
        FS.optimality_experiment(0.5, 1, -1.0, [0.1], evaluator=ev_half)
    with pytest.raises(DomainError):
        FS.optimality_experiment(0.5, 1, 1.0, [1.5], evaluator=ev_half)


def test_optimality_overflow_raises_without_warnings(ev_half):
    # at p = 100 the time factor t^-74.75 overflows near eps = 1e-8: the
    # integral is not finite, which is an error and not a number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=r"p=100\.0, eps=1e-08"):
            FS.optimality_experiment(0.5, 1, 100.0, [1e-8], evaluator=ev_half)
