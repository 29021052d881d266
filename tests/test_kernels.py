import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfcx, gamma, gammaln

from subharnack import fracops as F
from subharnack import kernels as K
from subharnack.errors import AccuracyError, DomainError, SingularStepError


def conv_tables(a: K.KernelTable, b: K.KernelTable) -> np.ndarray:
    """Discrete causal convolution of two kernel tables at nodes 1..m."""
    m = a.m
    return np.convolve(a.cell_values(), b.cell_values())[:m] * a.dt


# ---------------------------------------------------------------------------
# power kernel
# ---------------------------------------------------------------------------

def test_rl_kernel_values():
    assert K.rl_kernel(1.0, 7.3) == pytest.approx(1.0, abs=0.0)
    assert K.rl_kernel(2.0, 3.0) == pytest.approx(3.0, rel=1e-15)
    assert K.rl_kernel(0.5, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


def test_rl_kernel_domain_errors():
    with pytest.raises(DomainError):
        K.rl_kernel(0.5, 0.0)
    with pytest.raises(DomainError):
        K.rl_kernel(0.5, -1.0)
    with pytest.raises(DomainError):
        K.rl_kernel(-0.2, 1.0)


def test_inverse_identity_exact_for_default_tables():
    m, dt = 512, 1.0 / 512
    for a in (0.25, 0.5, 0.75):
        ka = K.rl_kernel_table(a, dt, m)
        kb = K.rl_kernel_table(1.0 - a, dt, m)
        assert np.abs(conv_tables(ka, kb) - 1.0).max() <= 1e-12


def test_semigroup_property_l1_refinement():
    # conv of sampled power kernels approximates the sum-order kernel in L1
    errs = []
    for m in (128, 256, 512):
        dt = 1.0 / m
        ka = K.rl_kernel_table(0.4, dt, m, sampling="cell_average")
        kb = K.rl_kernel_table(0.9, dt, m, sampling="cell_average")
        target = K.rl_kernel_table(1.3, dt, m, sampling="node")
        conv = conv_tables(ka, kb)
        errs.append(np.sum(np.abs(conv - target.values[1:])) * dt)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.6 * errs[0]


def test_kernel_table_invariants():
    with pytest.raises(DomainError):
        K.KernelTable(dt=-0.1, values=np.ones(4))
    with pytest.raises(DomainError):
        K.KernelTable(dt=0.1, values=np.ones(1))
    with pytest.raises(DomainError):
        K.KernelTable(dt=0.1, values=np.array([1.0, 2.0, 1.0]), kind="yosida_g")
    tab = K.rl_kernel_table(0.5, 0.1, 8)
    assert tab.m == 8
    with pytest.raises(ValueError):
        tab.values[3] = 0.0  # read-only


@pytest.mark.parametrize("dt", [0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sampling", K.SAMPLINGS)
def test_non_finite_or_zero_dt_is_rejected(dt, sampling):
    with pytest.raises(DomainError, match="dt"):
        K.KernelTable(dt=dt, values=np.ones(4), sampling=sampling)
    with pytest.raises(DomainError, match="dt"):
        K.rl_kernel_table(0.5, dt, 4, sampling=sampling)


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

def compensated_series(alpha, beta, z, terms=200):
    """Independent oracle: direct series with compensated accumulation."""
    total, comp = 0.0, 0.0
    for n in range(terms):
        t = (-abs(z)) ** n / gamma(alpha * n + beta) if z < 0 else \
            z ** n / gamma(alpha * n + beta)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def test_ml_classical_limits():
    assert K.mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert K.mittag_leffler(0.7, 1.3, 0.0) == pytest.approx(1.0 / gamma(1.3), rel=1e-15)


def test_ml_half_order_closed_form():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); frozen value from the series oracle
    oracle = compensated_series(0.5, 1.0, -1.0)
    assert oracle == pytest.approx(0.4275835761558070, rel=1e-13)
    val = K.mittag_leffler(0.5, 1.0, -1.0)
    assert val == pytest.approx(oracle, abs=1e-8)
    for x in (0.3, 2.0, 7.0, 30.0, 50.0):
        assert K.mittag_leffler(0.5, 1.0, -x) == pytest.approx(
            float(erfcx(x)), rel=1e-10)


def test_ml_exp_agreement():
    for z in np.linspace(-20.0, 20.0, 100):
        assert K.mittag_leffler(1.0, 1.0, z) == pytest.approx(
            math.exp(z), rel=1e-10)


def test_ml_other_closed_forms():
    # E_{2,1}(-x^2) = cos(x), E_{1,2}(z) = (e^z - 1)/z
    for x in (0.5, 2.0, 5.0):
        assert K.mittag_leffler(2.0, 1.0, -x * x) == pytest.approx(
            math.cos(x), rel=1e-11, abs=1e-13)
    assert K.mittag_leffler(1.0, 2.0, 3.0) == pytest.approx(
        (math.e ** 3 - 1.0) / 3.0, rel=1e-12)


def test_ml_continuity_across_switch():
    # the ray past |z| = 5; before it the series where its guard passes
    # (alpha = 0.75 and 0.9 here), else the ray again
    for alpha, beta in ((0.4, 1.0), (0.6, 0.6), (0.75, 1.0), (0.9, 0.9)):
        lo = K.mittag_leffler(alpha, beta, -4.999)
        hi = K.mittag_leffler(alpha, beta, -5.001)
        assert abs(lo - hi) < 5e-3 * abs(lo)
        ray = K.ml_on_negative_axis(alpha, beta)
        assert hi == float(ray(5.001))
        assert lo == pytest.approx(float(ray(4.999)), rel=1e-9)
        series, ok = K._ml_series(alpha, beta, -4.999, K._ML_RTOL)
        assert ok == (alpha >= 0.75) and (lo == series or not ok)
    # any other beta has no path past the series
    assert K.mittag_leffler(0.75, 1.3, -4.999) == pytest.approx(
        compensated_series(0.75, 1.3, -4.999), rel=1e-12)
    with pytest.raises(AccuracyError, match="no evaluation path"):
        K.mittag_leffler(0.75, 1.3, -5.001)


def test_ml_beta_reduction_branch():
    # the dispatcher satisfies the shift identity E_{a,b}(z) =
    # z E_{a,a+b}(z) + 1/Gamma(b) across its two rays, beta = alpha = 1/2
    # and beta = 2 alpha = 1; (0.3, 0.7) is off the ray and raises
    for s in (6.0, 30.0):
        lhs = K.mittag_leffler(0.5, 0.5, -s)
        rhs = -s * K.mittag_leffler(0.5, 1.0, -s) + 1.0 / gamma(0.5)
        assert lhs == pytest.approx(rhs, rel=1e-9)
    with pytest.raises(AccuracyError, match="no evaluation path"):
        K.mittag_leffler(0.3, 0.7, -6.0)


def test_ml_beta_past_the_ray_raises():
    # beta >= 1 + alpha past the series and short of the asymptotic sum
    # has no path: the ray takes beta in {1, alpha} only
    with pytest.raises(AccuracyError, match=r"beta in \{1, alpha\}"):
        K.mittag_leffler(0.3, 2.0, -6.0)
    # the series and the asymptotic sum still serve it
    assert K.mittag_leffler(0.3, 2.0, -1.0) == pytest.approx(
        compensated_series(0.3, 2.0, -1.0), rel=1e-12)
    assert K.mittag_leffler(0.3, 2.0, -1e7) == pytest.approx(
        1.0 / (1e7 * gamma(1.7)), rel=1e-6)


def test_ml_accuracy_error_path():
    with pytest.raises(AccuracyError):
        K.mittag_leffler(1.0, 1.5, -80.0)
    with pytest.raises(AccuracyError, match="overflows"):
        K.mittag_leffler(1.0, 1.0, 800.0)
    # E_{1/2}(27) = e^729 erfc(-27) overflows; past the series z > 0 raises
    with pytest.raises(AccuracyError, match="overflows"):
        K.mittag_leffler(0.5, 1.0, 27.0)
    # the ray serves alpha <= 0.999999 only: at 1 - 1e-7 it is 1.3e-11 off
    with pytest.raises(AccuracyError, match="alpha <= 0.999999"):
        K.mittag_leffler(0.9999999, 1.0, -10.0)
    assert K.mittag_leffler(0.9999999, 1.0, -1e7) == pytest.approx(
        1e-7 / gamma(1.0 - 0.9999999), rel=1e-6)
    with pytest.raises(DomainError):
        K.mittag_leffler(-0.5, 1.0, 1.0)


def test_ml_far_peak_raises_past_the_series():
    # at alpha = 0.001 the series' peak term (-z)^n / Gamma(alpha n + beta)
    # lies near n = 30^1000; past the series beta = 0.01 has no path, on
    # either side of the origin
    with pytest.raises(AccuracyError, match="no evaluation path"):
        K.mittag_leffler(0.001, 0.01, -30.0)
    with pytest.raises(AccuracyError, match="overflows"):
        K.mittag_leffler(0.001, 0.01, 30.0)


def test_ml_series_retries_with_more_terms():
    # z^n / Gamma(0.001 n + 0.5) at z = 0.9999 is still near e^-42 at
    # n = 20000, short of the e^-45 cut; a 30-digit direct sum gives
    # 2304.5374540005163708
    value = K.mittag_leffler(0.001, 0.5, 0.9999)
    assert value == pytest.approx(2304.5374540005163708, rel=1e-13, abs=0.0)
    # past the last pass of 320000 terms the series still gives up
    with pytest.raises(AccuracyError, match="320000 series terms"):
        K.mittag_leffler(1e-5, 0.5, 0.99999)
    # a pass whose largest term is its last is not summed: the first 20000
    # terms of E_{1e-4,40}(1.003) lie below e^-45 but still grow, and
    # their sum, 1.19e-21, once came back as the value
    with pytest.raises(AccuracyError, match="320000 series terms"):
        K.mittag_leffler(1e-4, 40.0, 1.003)


def _series_one_long_pass(alpha, beta, z, rtol):
    """The reference for ``_ml_series``: passes of 20000, 80000 and 320000
    terms, the first that finds a tail cut summed; also returns the peak."""
    logz = math.log(abs(z))
    for size in (20000, 80000, 320000):
        n = np.arange(0, size, dtype=float)
        logs = n * logz - gammaln(alpha * n + beta)
        peak = int(np.argmax(logs))
        if logs[peak] > 690.0:
            return math.nan, False, peak
        tail = np.nonzero(logs[peak:] < -45.0)[0]
        if tail.size:
            break
    else:
        return math.nan, False, peak
    terms = np.exp(logs[:peak + int(tail[0]) + 1])
    if z < 0.0:
        terms[1::2] *= -1.0
    total = math.fsum(terms.tolist())
    if z > 0.0:
        return total, True, peak
    err_floor = 5e-16 * math.exp(logs[peak])
    return total, not (abs(total) < 1e-290 or err_floor > rtol * abs(total)), peak


@pytest.mark.parametrize("alpha, beta, z, passes", [
    (0.5, 1.0, -1.0, [512]), (0.3, 1.0, -0.5, [512]), (0.3, 1.0, -3.0, [512]),
    (0.7, 1.0, -0.5, [512]), (0.7, 1.0, -3.0, [512]),
    # the peak term lies near n = 10000, past the short pass
    (0.1, 1.0, -2.0, [512, 20000]), (0.1, 1.0, 2.0, [512, 20000])])
def test_ml_series_short_pass_is_bitwise_the_long_one(alpha, beta, z, passes,
                                                      monkeypatch):
    # spectral's series points are summed from one pass of 512 terms, bit
    # for bit as from 20000; a peak past 512 takes the next pass
    total, ok, peak = _series_one_long_pass(alpha, beta, z, K._ML_RTOL)
    assert (peak >= 512) == (len(passes) > 1)
    sizes = []

    def spy(x):
        sizes.append(x.size)
        return gammaln(x)

    monkeypatch.setattr(K, "gammaln", spy)
    got = K._ml_series(alpha, beta, z, K._ML_RTOL)
    assert sizes == passes
    assert got[1] == ok and np.float64(got[0]).tobytes() == \
        np.float64(total).tobytes()


RULE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999)


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
def test_m_wright_rule_moments(alpha):
    nodes, weights = K.m_wright_rule(alpha)
    assert nodes.size <= 1000
    assert np.all(nodes > 0.0) and np.all(weights > 0.0)
    for d in (-0.5, 0.0, 0.5, 1.0, 2.0):
        exact = math.exp(gammaln(1.0 + d) - gammaln(1.0 + alpha * d))
        assert np.dot(weights, nodes ** d) == pytest.approx(exact, rel=1e-9)
    assert K.m_wright_rule(alpha)[0] is nodes  # memoized on alpha


def test_m_wright_rule_classical_limit_is_unit_mass():
    nodes, weights = K.m_wright_rule(1.0)
    assert nodes.tolist() == [1.0] and weights.tolist() == [1.0]
    s = np.array([0.0, 0.5, 30.0])
    assert np.array_equal(K.ml_on_negative_axis(1.0, 1.0)(s), np.exp(-s))


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
def test_ml_rays_match_scalar_evaluator(alpha):
    # the independent checks: the series where its guard passes, and the
    # 60-digit table (for s >= 6 and the alphas that it holds)
    s = np.array([0.0, 0.1, 0.5, 3.0, 6.0, 30.0, 1e3, 1e5])
    for row, beta in enumerate((1.0, alpha)):
        got = K.ml_on_negative_axis(alpha, beta)(s)
        for x, val in zip(s, got):
            series, ok = K._ml_series(alpha, beta, -x, 1e-12)
            if ok:
                assert abs(val / series - 1.0) <= 1e-11
            elif alpha in ML_REF and x >= 6.0:
                ref = ML_REF[alpha][row][ML_REF_S.index(x)]
                assert abs(val / ref - 1.0) <= (1e-11 if row else 2e-12)
        assert np.all(np.diff(got) < 0.0)


def test_ml_ray_takes_beta_one_or_alpha():
    for alpha, beta in ((0.5, 0.6), (0.5, 1.5), (1.0, 0.5)):
        with pytest.raises(DomainError):
            K.ml_on_negative_axis(alpha, beta)
    with pytest.raises(DomainError):
        K.ml_on_negative_axis(0.5, 1.0)(-1.0)


def _scipy_integrate_and_interpolate_after(code):
    """The scipy.integrate, scipy.interpolate and scipy.optimize modules
    loaded after running ``code`` in a fresh interpreter."""
    src = str(Path(K.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += ("; print(sorted(m for m in sys.modules if m.startswith("
             "('scipy.integrate', 'scipy.interpolate', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_skips_scipy_integrate_and_interpolate():
    assert _scipy_integrate_and_interpolate_after(
        "import sys, subharnack.cli") == "[]"


def test_scalar_ml_on_a_memoized_rule_skips_scipy_integrate():
    # the ray memoizes the rule for alpha = 0.3, and the scalar sums over it
    assert _scipy_integrate_and_interpolate_after(
        "import sys, subharnack.kernels as K; "
        "K.ml_on_negative_axis(0.3, 1.0); "
        "K.mittag_leffler(0.3, 1.0, -30.0)") == "[]"


def test_scalar_ml_at_a_fresh_alpha_skips_scipy_integrate():
    # the first call at an alpha builds its rule; beta = alpha and alpha
    # below 0.01 take the ray too
    assert _scipy_integrate_and_interpolate_after(
        "import sys, subharnack.kernels as K; "
        "K.mittag_leffler(0.3, 1.0, -30.0); "
        "K.mittag_leffler(0.3, 0.3, -30.0); "
        "K.mittag_leffler(0.005, 1.0, -30.0)") == "[]"


def test_yosida_l1_distance_split_skips_scipy_integrate_and_optimize():
    # alpha = 0.7 has a sign change to bisect; the ray's rule is built cold
    assert _scipy_integrate_and_interpolate_after(
        "import sys, subharnack.kernels as K; K.yosida_l1_distance(0.7, 16)"
    ) == "[]"


def test_m_wright_rule_memo_keeps_the_64_most_recent():
    K.m_wright_rule.cache_clear()
    alphas = [k / 100.0 for k in range(1, 66)]
    for a in alphas[:64]:
        K.m_wright_rule(a)
    K.m_wright_rule(alphas[0])      # a hit: now the most recently used
    K.m_wright_rule(alphas[64])     # evicts alphas[1]
    info = K.m_wright_rule.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 65, 64, 64)
    K.m_wright_rule(alphas[0])      # kept
    assert K.m_wright_rule.cache_info()[:2] == (2, 65)
    K.m_wright_rule(alphas[1])      # rebuilt
    assert K.m_wright_rule.cache_info()[:2] == (2, 66)


def test_ml_negative_ray_matches_direct():
    # the series at s <= 0.3, the 60-digit table from s = 6 on
    ray = K.ml_on_negative_axis(0.5, 0.5)
    assert float(ray(0.0)) == pytest.approx(1.0 / gamma(0.5), rel=1e-11)
    assert float(ray(0.3)) == pytest.approx(
        compensated_series(0.5, 0.5, -0.3), rel=1e-11)
    for s, ref in zip(ML_REF_S[:6], ML_REF[0.5][1]):
        assert float(ray(s)) == pytest.approx(ref, rel=1e-11)


# E_{alpha,beta}(-s) at the float values of alpha, beta and s, computed once
# with mpmath at 60 digits and rounded to 20.  The asymptotic series is used
# while its envelope s^-k Gamma(1 + alpha k - beta) falls, if it drops below
# 1e-75 of the sum; otherwise the power series, at a precision sized to its
# cancellation:
#
#     import mpmath as mp
#     mp.mp.dps = 60
#     def ml_ref(a, b, s):
#         a, b, s = mp.mpf(a), mp.mpf(b), mp.mpf(s)
#         tot, prev = mp.mpf(0), mp.inf
#         for k in range(1, 100000):
#             tot -= (-s) ** (-k) * mp.rgamma(b - a * k)
#             env = (s ** (-k) * mp.gamma(1 + a * k - b)
#                    if 1 + a * k - b > 0 else mp.inf)
#             if k > 2 and tot != 0 and env < mp.mpf(10) ** -75 * abs(tot):
#                 return tot
#             if k > 2 and env > prev:
#                 break
#             prev = env
#         logpeak = float(s ** (1 / a))
#         with mp.workdps(int(logpeak / 2.3) + 80):
#             tot, n = mp.mpf(0), 0
#             while True:
#                 t = (-s) ** n * mp.rgamma(a * n + b)
#                 tot += t
#                 if n > logpeak and abs(t) < mp.mpf(10) ** -80 * abs(tot):
#                     return +tot
#                 n += 1
ML_REF_S = (6.0, 30.0, 1e3, 1e5, 3e5, 9e5, 1e6, 1e12, 1e100)
ML_REF = {  # alpha: (beta = 1 row, beta = alpha row), over ML_REF_S
    0.001: ((1.4278640602389992038e-1, 3.2240026143786909917e-2,
             9.9842428281946627102e-4, 9.9941214016956644418e-6,
             3.3313959967793431404e-6, 1.1104677985277039866e-6,
             9.9942112965724892756e-7, 9.9942212849819731976e-13,
             9.9942212849919614681e-101),
            (2.0399745491302098685e-5, 1.0400202820511103755e-6,
             9.9742743340981366978e-10, 9.9940215193976099626e-14,
             1.1104616328661127483e-14, 1.2338517393233375975e-15,
             9.9942013081629997368e-16, 9.9942212849719849762e-28,
             9.9942212849919615172e-204)),
    0.1: ((1.3521617793943812749e-1, 3.026597587087465188e-2,
           9.3492055360589073502e-4, 9.3577013161971816947e-6,
           3.1192528593267838066e-6, 1.0397530739326200594e-6,
           9.357778619766239271e-7, 9.3577872091201383224e-13,
           9.3577872091287275438e-101),
          (1.9530638329671792533e-3, 9.7887565462365515436e-5,
           9.3406315534077344144e-8, 9.3576154240360059702e-12,
           1.0397477718797303667e-12, 1.1552800150207339237e-13,
           9.3577700304114551873e-14, 9.3577872091115494717e-26,
           9.3577872091287279144e-202)),
    0.5: ((9.2776567800538354389e-2, 1.8795888861416751497e-2,
           5.641893014533876542e-4, 5.6418958351954680777e-6,
           1.8806319451487396679e-6, 6.2687731505267557975e-7,
           5.6418958354747419216e-7, 5.6418958354775628695e-13,
           5.6418958354775627798e-101),
          (7.5301767445261606112e-3, 3.1291770525374203432e-4,
           2.8209436863274833442e-7, 2.8209479173156392472e-11,
           3.134386575213072929e-12, 3.4826517502883425396e-13,
           2.8209479177345500129e-13, 2.8209479177387814347e-25,
           2.820947917738781345e-201)),
    0.9: ((2.5782769712366065577e-2, 3.713707698459852111e-3,
           1.0528835943209589052e-4, 1.051154432500310326e-6,
           3.5038093827318508163e-7, 1.1679321581532016588e-7,
           1.0511387487148291145e-7, 1.0511370061135201632e-13,
           1.0511370061117775475e-101),
          (5.8911342646625929191e-3, 1.1825044794307206789e-4,
           9.4917076469339157193e-8, 9.4605467335798517609e-12,
           1.0511486235715320713e-12, 1.167934309520995999e-13,
           9.4602644218967270315e-14, 9.4602330550373650942e-26,
           9.46023305500599801e-202)),
    0.995: ((3.7460863488321515373e-3, 1.7947751339017974545e-4,
             5.0243345712721225853e-6, 5.0144479490359649271e-8,
             1.6714605232586059809e-8, 5.5715104932667317945e-9,
             5.0143583376559391776e-9, 5.0143483811416854265e-15,
             5.0143483811317288521e-103),
            (2.7053321660495111985e-3, 6.4108644737362611427e-6,
             5.0091788221629946029e-9, 4.9894747822987411595e-13,
             5.5437140943942410693e-14, 6.1596279682110865335e-15,
             4.9892964527386789718e-15, 4.9892766392458836892e-27,
             4.9892766392260701062e-203)),
    0.998: ((2.9871782882515425508e-3, 7.1693207944000130846e-5,
             2.0063087525329568321e-6, 2.0023435477285798159e-8,
             6.6743897520773737788e-9, 2.2247867242486878977e-9,
             2.0023076081369432959e-9, 2.0023036149723132797e-15,
             2.0023036149683200911e-103),
            (2.5702126499302493321e-3, 2.5696021320697749144e-6,
             2.0063052671268156761e-9, 1.998378714718882184e-13,
             2.220361751042085002e-14, 2.4670467453292127992e-15,
             1.9983069781148646823e-15, 1.9982990077463538199e-27,
             1.9982990077383834156e-203)),
    0.999: ((2.733215613800343923e-3, 3.5830164124046634874e-5,
             1.0025808660865962037e-6, 1.0005965433334295183e-8,
             3.3352774026938986929e-9, 1.1117542000940138329e-9,
             1.0005785580499858604e-9, 1.0005765597469930622e-15,
             1.0005765597449947473e-103),
            (2.5246213995722866166e-3, 1.2856687177175953046e-6,
             1.0035866126776683361e-9, 9.9961591099272527976e-14,
             1.1106547689509887687e-14, 1.2340499005323276751e-15,
             9.9957997580459937896e-16, 9.9957598318924236894e-28,
             9.9957598318524973573e-204)),
    0.999999: ((2.4790068910613009163e-3, 3.5813763884124527515e-8,
                1.0020065996566686093e-9, 1.0000205778268761643e-11,
                3.3333574799048726439e-12, 1.1111142216350170829e-12,
                1.0000025772480736388e-12, 1.0000005772457647194e-18,
                1.0000005772437647052e-106),
               (2.4787981851908534805e-3, 1.2866246844141000827e-9,
                1.0040176663969535821e-12, 1.000039578969454911e-16,
                1.111125456391018145e-17, 1.2345728662983354882e-18,
                1.0000035772538053008e-18, 9.9999957724718744123e-31,
                9.9999957724318741681e-207)),
}
ML_REF_CASES = [(a, b, s, ref) for a, rows in ML_REF.items()
                for b, row in zip((1.0, a), rows)
                for s, ref in zip(ML_REF_S, row)]


@pytest.mark.parametrize("alpha, beta, s, ref", ML_REF_CASES)
def test_scalar_ml_matches_reference(alpha, beta, s, ref):
    """The scalar against the reference, and against the path that it
    takes: the asymptotic sum from s = 1e6 on, the ray below."""
    if s >= K._S_ASYMPTOTIC:
        assert abs(K.mittag_leffler(alpha, beta, -s) / ref - 1.0) <= 1e-15
        return
    # the ray (measured within 7.7e-13 for beta = 1 and 8.8e-12 for
    # beta = alpha here), whether or not the rule for alpha is cached
    K.m_wright_rule.cache_clear()
    cold = K.mittag_leffler(alpha, beta, -s)
    ray = float(K.ml_on_negative_axis(alpha, beta)(s))
    assert abs(ray / ref - 1.0) <= (2e-12 if beta == 1.0 else 1e-11)
    assert cold == ray == K.mittag_leffler(alpha, beta, -s)


@pytest.mark.parametrize("alpha", (0.001, 0.999999))
def test_ml_ray_outside_its_measured_range(alpha):
    # the ends of the range the ray once served the scalar on, [0.01,
    # 0.999], in one vector call over the table: measured 5.1e-13
    # (beta = 1) and 5.0e-12 (beta = alpha) at alpha = 0.001, 7.7e-13 and
    # 4.6e-12 at alpha = 0.999999
    s = np.array(ML_REF_S)
    for beta, row, bound in zip((1.0, alpha), ML_REF[alpha], (2e-12, 1e-11)):
        got = K.ml_on_negative_axis(alpha, beta)(s)
        assert np.abs(got / np.array(row) - 1.0).max() <= bound


@pytest.mark.parametrize("alpha", list(ML_REF))
def test_ml_ray_far_out_is_the_asymptotic_sum(alpha):
    far = np.array(ML_REF_S[6:])
    for beta, row in zip((1.0, alpha), ML_REF[alpha]):
        got = K.ml_on_negative_axis(alpha, beta)(far)
        assert np.abs(got / np.array(row[6:]) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.7, 1.0))
def test_ml_ray_underflow_reads_positive_zero(alpha):
    # the asymptotic sum underflows at s = inf, at s = 1e300 for
    # beta = alpha, and at alpha = 1 for every s >= 1e6; the ray is
    # positive, so an underflow must read +0.0, not -0.0
    s = np.array([1e6, 1e300, np.inf])
    for beta in (1.0, alpha):
        got = K.ml_on_negative_axis(alpha, beta)(s)
        assert np.all(got >= 0.0) and not np.signbit(got).any()
    assert not np.signbit(K.mittag_leffler(0.5, 0.5, -1e300))


# r M_alpha(r) at r = e^u, alpha and u as floats, from the series summed
# with mpmath at 50 digits over 300 terms and rounded to 20:
#
#     a, r = mp.mpf(alpha), mp.exp(mp.mpf(u))
#     r * mp.fsum((-r) ** k * mp.rgamma(1 - a - a * k) / mp.factorial(k)
#                 for k in range(300))
M_WRIGHT_U = (-60.0, -20.0, -1.01)
M_WRIGHT_REF = {
    0.001: (8.7514506246802759463e-27, 2.0599625362579333193e-9,
            0.25294427891136918948),
    0.1: (8.1941564411759537798e-27, 1.9287836967614192008e-9,
          0.24366927517693591822),
    0.5: (4.9403321605371955873e-27, 1.1628814038715592379e-9,
          0.19878552302945365244),
    0.999999: (8.7565158173377588185e-33, 2.0611548207233358655e-15,
               9.0104571285547235421e-7),
}


@pytest.mark.parametrize("alpha", list(M_WRIGHT_REF))
def test_m_wright_series_matches_reference(alpha):
    got = K._m_wright_series(alpha, np.array(M_WRIGHT_U))
    ref = np.array(M_WRIGHT_REF[alpha])
    assert np.abs(got / ref - 1.0).max() <= 1e-14


@pytest.mark.parametrize("alpha", RULE_ALPHAS)
def test_m_wright_series_meets_kanter_density(alpha):
    # the rule's two densities agree where they meet: measured at most
    # 1.8e-15 for alpha <= 0.9, 4.6e-15 at 0.95, 2.8e-14 at 0.99 and
    # 4.5e-13 at 0.999 on 201 points of [-3, -1]
    e = 1.0 - alpha
    edge = -alpha * math.log(alpha) - e * math.log(e)
    u = np.linspace(-3.0, -1.0, 201)
    series = K._m_wright_series(alpha, u)
    kanter = K._kanter_density(alpha, edge, u)
    assert np.abs(kanter / series - 1.0).max() <= 1e-12


def _all_panels_kanter(a, edge, u):
    """``_kanter_density`` with Newton on every level and 16 Gauss points on
    every panel, zero width or not; returns the density and the sorted
    panel edges."""
    e = 1.0 - a
    log_pi = math.log(math.pi)
    deep = -42.0 * 2.0 ** np.arange(1, math.ceil(-math.log2(a)) + 2)
    target = u[:, None] - e * np.concatenate([K._GUMBEL_LEVELS, deep])
    z_tab = np.linspace(K._LOG_R_MIN - 30.0, log_pi, 2000)[:-1]
    b_tab = np.maximum.accumulate(K._kanter_log_b(z_tab, a)[0])
    zeta = np.interp(target, b_tab, z_tab, right=log_pi)
    below = target < b_tab[0]
    zeta[below] = z_tab[0] + (target[below] - b_tab[0])
    for _ in range(2):
        log_b, _, d_log_b = K._kanter_log_b(zeta, a, slope=True)
        d_log_b[d_log_b <= 0.0] = np.inf
        zeta = np.minimum(
            zeta + np.clip((target - log_b) / d_log_b, -1.0, 1.0), log_pi)
    zeta[target >= edge] = log_pi
    zeta = np.sort(zeta, axis=1)
    z, wz = K._gauss_panels(zeta, 16)
    log_b, eta = K._kanter_log_b(z, a)
    y = (u[:, None] - log_b) / e
    gumbel = np.exp(y - np.exp(np.minimum(y, 700.0)))
    return np.sum(wz * eta * gumbel, axis=1) / (math.pi * e), zeta


KANTER_ALPHAS = (1e-8, 0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                 0.999999)


@pytest.mark.parametrize("alpha", KANTER_ALPHAS)
def test_kanter_density_is_bitwise_all_panels(alpha, monkeypatch):
    # the density on the rule's own nodes, and the rule built on it, are
    # bitwise what Newton on every level and every panel's Gauss points give
    seen = []

    def oracle(a, edge, u):
        seen.append((a, edge, u))
        return _all_panels_kanter(a, edge, u)[0]

    with np.errstate(all="ignore"):
        nodes, weights = K.m_wright_rule.__wrapped__(alpha)
        monkeypatch.setattr(K, "_kanter_density", oracle)
        ref_nodes, ref_weights = K.m_wright_rule.__wrapped__(alpha)
        monkeypatch.undo()
        (a, edge, u), = seen
        got = K._kanter_density(a, edge, u)
    assert got.tobytes() == oracle(a, edge, u).tobytes()
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


def test_kanter_density_takes_only_live_panels(monkeypatch):
    # at alpha = 0.5 about four panels in five have zero width; the main
    # quadrature evaluates log B at 16 points of each live panel only, and
    # Newton only at the levels below the edge
    a = 0.5
    seen, calls = [], []
    density = K._kanter_density

    def spy_density(a, edge, u):
        seen.append((edge, u))
        return density(a, edge, u)

    log_b = K._kanter_log_b

    def spy_log_b(zeta, a, slope=False):
        calls.append((np.size(zeta), slope))
        return log_b(zeta, a, slope)

    monkeypatch.setattr(K, "_kanter_density", spy_density)
    monkeypatch.setattr(K, "_kanter_log_b", spy_log_b)
    K.m_wright_rule.__wrapped__(a)
    monkeypatch.undo()
    (edge, u), = seen
    _, zeta = _all_panels_kanter(a, edge, u)
    live = np.count_nonzero(np.diff(zeta, axis=1) > 0.0)
    crossing = np.count_nonzero(u[:, None] - 0.5 * np.concatenate(
        [K._GUMBEL_LEVELS, [-84.0, -168.0]]) < edge)
    assert live < zeta.size / 4 and crossing < zeta.size / 4
    table, newton1, newton2, main = calls
    assert table == (1999, False) and main[1] is False
    assert newton1 == newton2 == (crossing, True)
    assert main[0] <= 16 * live


def _unbuffered_exp_mixture(x, rates, weights):
    """``_exp_mixture`` with a fresh matrix per block of x and every term
    computed, the dead ones included."""
    flat = x.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, K._BLOCK):
        out[lo:lo + K._BLOCK] = np.exp(
            -np.outer(flat[lo:lo + K._BLOCK], rates)) @ weights
    return out.reshape(x.shape)


@pytest.mark.parametrize("size", (1, 255, 256, 257, 1600))
def test_exp_mixture_buffer_is_bitwise_unbuffered(size):
    nodes, weights = K.m_wright_rule(0.7)
    x = np.geomspace(1e-3, 1e4, size)
    assert np.array_equal(K._exp_mixture(x, nodes, weights),
                          _unbuffered_exp_mixture(x, nodes, weights))


@pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9, 1.0))
def test_m_wright_rule_nodes_ascend(alpha):
    # what keeps the dead terms of an _exp_mixture block one contiguous run
    nodes, _ = K.m_wright_rule(alpha)
    assert np.all(np.diff(nodes) > 0.0)


def _mixture_rates(kind):
    """The rays' rates (the rule's nodes), or the profile's 0.25/tau over
    the reversed rule: both ascend."""
    nodes, weights = K.m_wright_rule(0.7)
    if kind == "ray":
        return nodes, weights
    nodes, weights = nodes[::-1], weights[::-1]
    tau = nodes * 0.3 ** 0.7
    return 0.25 / tau, 0.7 * weights * nodes * (4.0 * math.pi * tau) ** -0.5


@pytest.mark.parametrize("kind", ("ray", "profile"))
def test_exp_mixture_skip_is_bitwise_the_full_sum(kind, monkeypatch):
    rates, weights = _mixture_rates(kind)
    assert (np.diff(rates) > 0.0).all()
    n = K._BLOCK
    live = np.geomspace(1e-9, 1.0, n) * 700.0 / rates.max()
    dead = np.geomspace(1.0, 1e6, n) * 800.0 / rates.min()
    # a short dead run (under 1/8 of the terms) and one over half of them,
    # both skipped
    short = np.geomspace(1.0, 1e6, n) * 1000.0 / rates.max()
    long = np.geomspace(1.0, 1e6, n) * 800.0 / np.median(rates)
    # only the smallest rate's term is not 0.0, at 741 <= y <= 745: a
    # subnormal, which a cut below 745.14 would lose
    edge = np.linspace(741.0, 745.0, n) / rates.min()
    zero = np.concatenate([[0.0], long[1:]])
    shuffled = np.random.default_rng(3).permutation(long)
    # a block whose smallest x puts one rate's product at exactly 750: that
    # term is the last live one
    k, at750 = _exactly_at_dead_exponent(rates)
    at750 = at750 * np.geomspace(1.0, 1e3, n)
    blocks = [live, dead, short, long, edge, zero, shuffled, at750, long[:7]]
    x = np.concatenate(blocks)
    # unit weights keep the edge block's subnormal sums from underflowing
    for w in (weights, np.ones_like(weights)):
        got = K._exp_mixture(x, rates, w)
        assert got.tobytes() == _unbuffered_exp_mixture(x, rates, w).tobytes()
        for point in (0.0, 3.0, 1e9):     # a one-point ray
            one = K._exp_mixture(np.array([point]), rates, w)
            assert one.tobytes() == _unbuffered_exp_mixture(
                np.array([point]), rates, w).tobytes()
    got = np.split(got, np.cumsum([b.size for b in blocks])[:-1])
    assert np.all(got[0] > 0.0) and np.all(got[1] == 0.0)
    assert np.all((got[4] > 0.0) & (got[4] < 1e-320))
    n_dead = [np.count_nonzero(rates * b.min() > 750.0) for b in (short, long)]
    assert 0 < n_dead[0] < rates.size / 8
    assert rates.size / 2 <= n_dead[1] < rates.size
    # and each block's exponential covers its live terms only: none of the
    # dead block, all of the block holding 0 and of a one-point block at 0
    exp_shapes = []

    def exp(y, out):
        exp_shapes.append(y.shape)
        return np.exp(y, out=out)

    monkeypatch.setattr(K, "np", SimpleNamespace(**{**vars(np), "exp": exp}))
    checked = [short, long, dead, zero, at750, np.zeros(1), np.array([3.0])]
    for b in checked:
        K._exp_mixture(b, rates, weights)
    assert exp_shapes == [(b.size, np.count_nonzero(rates * b.min() <= 750.0))
                          for b in checked]
    assert [s[1] for s in exp_shapes[2:5]] == [0, rates.size, k + 1]


def test_exp_mixture_cut_follows_the_rounded_products(monkeypatch):
    # 750 / min(x) may round to a rate whose product with min(x) rounds
    # past 750 (dead), or just below one whose product rounds to 750 (live):
    # the cut follows the products, not the quotient
    x = np.random.default_rng(5).uniform(1.0, 1e3, 4000)
    q = 750.0 / x
    up = np.nextafter(q, np.inf)
    over = np.flatnonzero(q * x > 750.0)[0]
    under = np.flatnonzero(up * x <= 750.0)[0]
    cases = [(x[over], q[over], 1), (x[under], up[under], 2)]
    exp_shapes = []

    def exp(y, out):
        exp_shapes.append(y.shape)
        return np.exp(y, out=out)

    for low, rate, live in cases:
        rates, ones = rate * np.array([0.5, 1.0, 2.0]), np.ones(3)
        assert np.count_nonzero(rates * low <= 750.0) == live
        got = K._exp_mixture(np.array([low]), rates, ones)
        assert got.tobytes() == _unbuffered_exp_mixture(
            np.array([low]), rates, ones).tobytes()
        with monkeypatch.context() as m:
            m.setattr(K, "np", SimpleNamespace(**{**vars(np), "exp": exp}))
            K._exp_mixture(np.array([low]), rates, ones)
    assert exp_shapes == [(1, 1), (1, 2)]


def _exactly_at_dead_exponent(rates):
    """(k, x) with rates[k] * x == 750 exactly and rates[k + 1] * x > 750."""
    for k in range(rates.size - 2, -1, -1):
        x = 750.0 / rates[k]
        for cand in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)):
            if rates[k] * cand == 750.0 and rates[k + 1] * cand > 750.0:
                return k, cand
    raise AssertionError("no rate reaches 750 exactly")


# E_{alpha,beta}(-s) from mpmath at 60 digits (the ML_REF recipe).  A
# contour integral that once served these points was off by 1.6e-8, 5.2e-10
# and 6.2e-11 on the first three, and by 2.0e-2, 1.1e-8, 1.7e-4, 3.5e-11,
# 3.2e-6, 7.0e-8, 1.3e-8 and 4.0e-8 on the rest, with no error raised; the
# ray is within 6.4e-13 on all of them
@pytest.mark.parametrize("alpha, beta, s, ref", [
    (0.02, 1.0, 1e3, 9.8721879525619314001e-4),
    (0.02, 1.0, 3e4, 3.2938705683625610868e-5),
    (0.03, 1.0, 1e3, 9.8113243447120559576e-4),
    (1e-8, 1.0, 50.0, 0.01960784302629456532),
    (1e-8, 1e-8, 50.0, 3.8446751036301514731e-12),
    (1e-6, 1.0, 6000.0, 1.6663879734708650692e-4),
    (1e-6, 1e-6, 20.0, 2.2675725119201317737e-9),
    (1e-4, 1.0, 3e5, 3.3331297964581495313e-6),
    (0.005, 1.0, 9e5, 1.107884917171887607e-6),
    (0.008, 1.0, 9e5, 1.1059324666790635278e-6),
    (0.008, 1.0, 3e5, 3.3177900623153654455e-6),
])
def test_scalar_ml_takes_the_ray_past_the_series(alpha, beta, s, ref):
    bound = 2e-12 if beta == 1.0 else 1e-11
    assert abs(K.mittag_leffler(alpha, beta, -s) / ref - 1.0) <= bound


# ---------------------------------------------------------------------------
# Volterra solver
# ---------------------------------------------------------------------------

def direct_volterra(kernel, f, rule):
    """Node-by-node reference for both product-integration rules: the full
    history of every node as direct dot products, with the trapezoid
    rule's two lag sums kept apart."""
    dt, m = kernel.dt, kernel.m
    if rule == "trapezoid":
        M0, M1 = K._pi_moments(kernel)
        A, B = M1 / dt, M0 - M1 / dt
        x = np.empty(m + 1)
        x[0] = f[0]
        for n in range(1, m + 1):
            lags = n - np.arange(1, n + 1)
            hist = np.dot(A[lags], x[0:n]) + np.dot(B[lags[:-1]], x[1:n])
            x[n] = (f[n] - hist) / (1.0 + B[0])
        return x
    M0, _ = K._pi_moments(kernel)
    x = np.empty(m + 1)
    x[0] = f[0]
    for n in range(1, m + 1):
        x[n] = (f[n] - np.dot(M0[n - 1:0:-1], x[1:n])) / (1.0 + M0[0])
    return x


# several base blocks of the march and a length that halves unevenly
LONG_M = 5 * F._BLOCK + 13
# a march whose widest windows go through the FFT and whose narrower ones
# are Toeplitz products
WIDE_M = 2 * F._TOEPLITZ_SPAN + 13


def march_kernels(m):
    """A power kernel and a node table of m steps."""
    return [
        K.rl_kernel_table(0.6, 1.0 / m, m, sampling="cell_average", scale=2.0),
        K.KernelTable(dt=0.01, values=np.exp(-0.03 * np.arange(m + 1))
                      * (1.0 + 0.5 * np.cos(0.1 * np.arange(m + 1)))),
    ]


def test_volterra_zero_kernel_returns_rhs():
    for m in (100, LONG_M):
        kern = K.rl_kernel_table(0.5, 0.01, m, scale=0.0)
        f = np.sin(np.arange(m + 1) * 0.01)
        out = K.solve_volterra(kern, f)
        assert np.array_equal(out.values, f)


@pytest.mark.parametrize("rule", ["trapezoid", "rectangle"])
@pytest.mark.parametrize(
    "kernel", march_kernels(LONG_M) + march_kernels(WIDE_M),
    ids=["power", "node_table", "power_wide", "node_table_wide"])
def test_volterra_blocked_march_matches_direct_loop(rule, kernel):
    rng = np.random.default_rng(11)
    for f in (np.ones(kernel.m + 1), rng.standard_normal(kernel.m + 1)):
        got = K.solve_volterra(kernel, f, rule=rule).values
        want = direct_volterra(kernel, f, rule)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 8192])
@pytest.mark.parametrize("alpha, scale, rule", [
    (0.5, 256.0, "rectangle"),     # stiff: the Yosida kernels' rule
    (0.99, 30.0, "trapezoid"),     # solve_scalar_relaxation at sigma = 30
], ids=["stiff_rectangle", "relaxation"])
def test_volterra_toeplitz_leaf_matches_direct_loop(m, alpha, scale, rule):
    # below, at and past one leaf of the march, and many leaves
    kernel = K.rl_kernel_table(alpha, 1.0 / m, m, sampling="cell_average",
                               scale=scale)
    f = np.ones(m + 1)
    got = K.solve_volterra(kernel, f, rule=rule).values
    want = direct_volterra(kernel, f, rule)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_volterra_classical_decay():
    # first-order kernel scaled by n reduces the equation to x' = -n x
    n, m = 3, 256
    kern = K.rl_kernel_table(1.0, 1.0 / m, m, scale=n)
    out = K.solve_volterra(kern, np.ones(m + 1))
    exact = np.exp(-n * np.arange(m + 1) / m)
    assert np.abs(out.values - exact).max() < 5e-5


def test_volterra_linearity():
    rng = np.random.default_rng(7)
    for m in (64, LONG_M):
        kern = K.rl_kernel_table(0.6, 1.0 / m, m, scale=2.0)
        f1 = rng.standard_normal(m + 1)
        f2 = rng.standard_normal(m + 1)
        a, b = 1.7, -0.4
        x1 = K.solve_volterra(kern, f1).values
        x2 = K.solve_volterra(kern, f2).values
        x12 = K.solve_volterra(kern, a * f1 + b * f2).values
        assert np.abs(x12 - (a * x1 + b * x2)).max() < 1e-12 * max(
            1.0, np.abs(x12).max())


def test_volterra_input_validation():
    kern = K.rl_kernel_table(0.5, 0.1, 8)
    with pytest.raises(DomainError):
        K.solve_volterra(kern, np.ones(5))
    with pytest.raises(DomainError):
        K.solve_volterra(kern, np.concatenate([[np.inf], np.ones(8)]))
    degenerate = K.KernelTable(dt=0.1, values=-10.0 * np.ones(9),
                               kind="custom", sampling="node")
    with pytest.raises(SingularStepError):
        K.solve_volterra(degenerate, np.ones(9), rule="rectangle")
    cells = K.KernelTable(dt=0.1, values=np.linspace(2.0, 1.0, 9),
                          sampling="cell_average")
    with pytest.raises(DomainError, match="first moments"):
        K.solve_volterra(cells, np.ones(9), rule="trapezoid")
    with pytest.raises(DomainError, match="unknown rule"):
        K.solve_volterra(kern, np.ones(9), rule="midpoint")


# ---------------------------------------------------------------------------
# Yosida kernels
# ---------------------------------------------------------------------------

def test_yosida_convolution_identity_refines():
    alpha, n = 0.5, 1
    res = []
    for m in (256, 512, 1024):
        dt = 1.0 / m
        g_t, h_t = K.yosida_kernels(alpha, n, dt, m)
        gc = K.rl_kernel_table(1.0 - alpha, dt, m, sampling="cell_average")
        conv = np.convolve(gc.cell_values(), h_t.values[1:])[:m] * dt
        t = np.arange(1, m + 1) * dt
        res.append(np.abs(conv - g_t.values[1:])[t >= 0.1].max())
    assert res[0] > res[1] > res[2]
    assert math.log2(res[1] / res[2]) >= 0.7


def test_yosida_l1_distances_decrease():
    alpha = 0.5
    dists = [K.yosida_l1_distance(alpha, n) for n in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    # cross-check against the closed form at alpha = 1/2
    t = np.geomspace(1e-10, 1.0, 4001)
    integrand = np.abs(t ** -0.5 / gamma(0.5) - 4.0 * erfcx(4.0 * np.sqrt(t)))
    oracle = np.trapezoid(integrand, t)
    assert dists[1] == pytest.approx(oracle, rel=2e-3)


def yosida_l1_oracle(alpha, n):
    """The integrand of ``yosida_l1_distance``, with its analytic head, on
    140 geometric 80-point Gauss panels, split where a scan of 4000 points
    sees it change sign (refined by brentq)."""
    ray = K.ml_on_negative_axis(alpha, 1.0)

    def f(t):
        return t ** -alpha / gamma(1.0 - alpha) - n * ray(n * t ** alpha)

    a0 = 1e-14
    head = a0 ** (1.0 - alpha) / gamma(2.0 - alpha) - n * a0
    scan = np.geomspace(a0, 1.0, 4000)
    up = f(scan) > 0.0
    roots = [brentq(lambda t: float(f(t)), scan[i], scan[i + 1],
                    xtol=1e-300, rtol=1e-15)
             for i in np.flatnonzero(up[:-1] != up[1:])]
    edges = np.sort(np.concatenate(
        [[a0], np.geomspace(1e-13, 1.0, 140), roots]))
    x, w = np.polynomial.legendre.leggauss(80)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * x).ravel()
    return abs(head) + np.dot((half[:, None] * w).ravel(), np.abs(f(t)))


@pytest.mark.parametrize("alpha", [0.001, 0.3, 0.5, 0.7, 0.9, 0.999])
def test_yosida_l1_distance_matches_the_split_80_point_rule(alpha):
    # for alpha > 1/2 the integrand changes sign once in (0, 1): a panel
    # across that kink left the unsplit 40-point rule ~1e-6 off at 0.7
    for n in (1, 16, 256, 65536):
        ref = yosida_l1_oracle(alpha, n)
        assert abs(K.yosida_l1_distance(alpha, n) - ref) <= 1e-10 * min(ref, 1.0)


def test_yosida_sign_change_found_once_per_alpha():
    # the root s* of h does not depend on n: one search per alpha, which
    # every level maps to t* = (s*/n)^(1/alpha)
    K._yosida_sign_changes.cache_clear()
    for n in (1, 16, 256):
        K.yosida_l1_distance(0.7, n)
    assert K._yosida_sign_changes.cache_info()[:2] == (2, 1)  # hits, misses
    [s] = K._yosida_sign_changes(0.7)
    ray = K.ml_on_negative_axis(0.7, 1.0)
    for x, sign in ((s * (1 - 1e-9), 1.0), (s * (1 + 1e-9), -1.0)):
        assert sign * (1.0 / (x * gamma(0.3)) - ray(x)) > 0.0
    assert K._yosida_sign_changes(0.5) == ()


@pytest.mark.parametrize("n", [12, 16, 40])
def test_gauss_panels_are_the_fresh_leggauss_rule(n):
    edges = np.array([[0.0, 0.5, 2.0, 7.0], [-1.0, 0.0, 1e-3, 1.0]])
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    want = ((mid[..., None] + half[..., None] * x).reshape(2, -1),
            (half[..., None] * w).reshape(2, -1))
    for _ in range(2):      # the first call may build the memoized rule
        got = K._gauss_panels(edges, n)
        assert [g.tobytes() for g in got] == [v.tobytes() for v in want]
    assert not any(arr.flags.writeable for arr in K._gauss_legendre(n))


def test_yosida_finite_at_origin_and_monotone():
    for m in (256, LONG_M):
        g_t, h_t = K.yosida_kernels(0.5, 8, 1.0 / m, m)
        assert g_t.values[0] == pytest.approx(8.0, abs=0.0)
        assert np.all(np.diff(g_t.values) <= 1e-13)
        assert np.all(g_t.values > 0.0)
        assert np.all(h_t.values[1:] >= 0.0)
        assert math.isnan(h_t.values[0])
        # the singular limit blows up where the regularized kernel stays at n
        assert K.rl_kernel(0.5, 1e-12) > g_t.values[0]


def test_yosida_rejects_bad_level():
    # each raises DomainError naming n, rather than truncating 1.5 or
    # reading 0 as a level
    for n in (0, -1, 1.5, math.nan, "2"):
        with pytest.raises(DomainError, match="n must be an integer"):
            K.yosida_kernels(0.5, n, 0.01, 16)
        with pytest.raises(DomainError, match="n must be an integer"):
            K.yosida_l1_distance(0.5, n)
