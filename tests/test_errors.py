"""The argument checks in ``subharnack.errors``: every public number and
point goes through them, so NaN, an infinity or a value outside its domain
raises ``DomainError`` naming the argument instead of flowing on."""

import math

import numpy as np
import pytest

from subharnack import fracops as F
from subharnack import fundsol as FS
from subharnack import harnack as H
from subharnack import kernels as K
from subharnack import solver as S
from subharnack.errors import (DomainError, InvalidWeightError, _as_alpha,
                               _as_point, _as_real)

NAN, INF = math.nan, math.inf
CONFIG = dict(delta=0.5, eta=2.0, tau=1.0, t0=0.0, x0=(0.5,), r=0.2,
              alpha=0.5)
GRID = S.SpaceGrid.interval(0.0, 1.0, 16)
PATH = F.SampledPath(F.TimeGrid(0.1, 8), np.linspace(0.0, 1.0, 9))
KERNEL = K.rl_kernel_table(1.5, 0.1, 8, sampling="node")
RAMP = S.solve_subdiffusion(S.ProblemSpec(
    alpha=0.5, space=GRID, time=F.TimeGrid(0.01, 8), u0=np.zeros(GRID.shape),
    boundary=1.0))

# calls that returned NaN, -inf or an object holding NaN before each number
# went through _as_real, _as_point or _as_alpha (mittag_leffler raised
# AccuracyError, and a NaN t_min numpy's ValueError on an empty max)
BAD_CALLS = {
    "rl_kernel beta": lambda: K.rl_kernel(NAN, 1.0),
    "rl_kernel t": lambda: K.rl_kernel(0.5, NAN),
    "divergence_exponent p=nan": lambda: FS.divergence_exponent(0.5, 1, NAN),
    "divergence_exponent p=inf": lambda: FS.divergence_exponent(0.5, 1, INF),
    **{f"HarnackConfig {key}={value}":
       (lambda key=key, value=value: H.HarnackConfig(**{**CONFIG, key: value}))
       for key, value in (("eta", NAN), ("tau", NAN), ("t0", NAN), ("r", NAN),
                          ("x0", (NAN,)), ("r", INF))},
    "BoxRegion radius": lambda: H.BoxRegion(0.0, 1.0, (0.5,), NAN),
    "BoxRegion center": lambda: H.BoxRegion(0.0, 1.0, (NAN,), 0.1),
    "ConeWeight radius": lambda: H.ConeWeight((0.5,), NAN),
    "ConeWeight radius=inf": lambda: H.ConeWeight((0.5,), INF),
    "ConeWeight center": lambda: H.ConeWeight((NAN,), 0.1),
    "cone_weight radius": lambda: H.cone_weight(GRID, radius=NAN),
    "cone_weight center": lambda: H.cone_weight(GRID, center=(NAN,)),
    "constant_coefficients": lambda: S.constant_coefficients(NAN),
    "_power_mean p": lambda: H._power_mean(np.ones(3), NAN),
    "mittag_leffler alpha": lambda: K.mittag_leffler(NAN, 1.0, -1.0),
    "l1_weights alpha": lambda: F.l1_weights(NAN, 4),
    "fundamental_identity_residual t_min":
        lambda: F.fundamental_identity_residual(
            PATH, KERNEL, np.square, lambda u: 2.0 * u, t_min=NAN),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_non_finite_argument_raises(call):
    # a cone weight's radius keeps its own error type
    with pytest.raises((DomainError, InvalidWeightError)):
        call()


@pytest.mark.parametrize("value", [NAN, INF, -INF, "x", None, 0.0, 1.0])
def test_as_real_rejects_non_finite_and_outside(value):
    with pytest.raises(DomainError, match=r"^delta must be finite and in "
                       r"\(0, 1\), got "):
        _as_real(value, "delta", 0.0, 1.0)


def test_as_real_ends_and_messages():
    assert _as_real(np.float64(0.25), "x", 0.0, 1.0) == 0.25
    assert _as_real(0.0, "t0", 0.0, closed="low") == 0.0
    assert _as_real(1.0, "alpha", 0.0, 1.0, "high") == 1.0
    assert _as_real(-1e300, "z") == -1e300
    with pytest.raises(DomainError, match="dt must be finite and positive"):
        _as_real(0.0, "dt", 0.0)
    with pytest.raises(DomainError, match=r"^z must be finite, got inf$"):
        _as_real(INF, "z")
    with pytest.raises(DomainError, match=r"t0 .* in \[0, inf\), got -1"):
        _as_real(-1, "t0", 0.0, closed="low")
    assert _as_alpha(1, classical_ok=True) == 1.0
    for alpha in (0.0, 1.0, NAN):
        with pytest.raises(DomainError, match="alpha"):
            _as_alpha(alpha)


def test_as_point_reads_negative_zero_as_zero():
    point = _as_point(np.array([-0.0, 2.0]), "center")
    assert point == (0.0, 2.0) and all(type(c) is float for c in point)
    assert math.copysign(1.0, point[0]) == 1.0
    assert _as_point(-0.0, "x0") == (0.0,)
    for bad in ((0.5, NAN), (INF,), [[0.5, 0.5]]):
        with pytest.raises(DomainError, match="center must be finite"):
            _as_point(bad, "center")


def test_box_and_checkerboard_ends():
    # a box runs forward in time, and high may equal low
    with pytest.raises(DomainError, match=r"t_hi .* \(0\.5, inf\)"):
        H.BoxRegion(0.5, 0.5, (0.5,), 0.1)
    assert S.checkerboard_coefficients(GRID, 2, 2.0, 2.0).nu == 2.0
    with pytest.raises(DomainError, match=r"high .* \[2, inf\), got 1\.0"):
        S.checkerboard_coefficients(GRID, 2, 2.0, 1.0)
    assert S.solve_scalar_relaxation(0.5, 0.0, 1.0, S.TimeGrid(0.1, 4)) \
        .values.tolist() == [1.0] * 5
    with pytest.raises(DomainError, match="sigma"):
        S.solve_scalar_relaxation(0.5, NAN, 1.0, S.TimeGrid(0.1, 4))


def test_oscillation_decay_names_its_own_arguments():
    # not the time or centre of a box built from them
    for x0, eta, name in (((0.5,), NAN, "eta"), ((0.5,), -1.0, "eta"),
                          ((NAN,), 1.0, "x0")):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            H.oscillation_decay(RAMP, x0, [0.2, 0.1], eta=eta)
