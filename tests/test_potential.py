import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from robinspectra.errors import NotIntegrableError
from robinspectra.potential import (
    Constant,
    PiecewiseConstant,
    Step,
    Tabulated,
)


def test_eval_examples():
    assert Step(1, 1).eval(0.5) == 1
    assert Step(1, 1).eval(2) == 0
    assert Constant(0.7).eval(100) == 0.7
    assert Constant(0.7).eval(1e300) == 0.7


def test_eval_rejects_negative_y():
    with pytest.raises(ValueError):
        Step(1, 1).eval(-0.1)
    with pytest.raises(ValueError):
        Step(1, 1).eval(np.array([0.5, -0.1]))


def test_eval_array_matches_scalar():
    p = PiecewiseConstant((0.5, 1.0), (1.0, -0.4))
    ys = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 3.0])
    vals = p.eval(ys)
    assert isinstance(p.eval(0.5), float)
    assert vals.shape == ys.shape
    assert list(vals) == [p.eval(float(y)) for y in ys] == [1.0, 1.0, -0.4, -0.4, 0.0, 0.0]


def test_ess_sup():
    assert Step(1, 1).ess_sup() == 1
    assert PiecewiseConstant((1, 2), (3, -0.5)).ess_sup() == 3
    assert Constant(0).ess_sup() == 0


def test_support_bound():
    assert Step(1, 2).support_bound() == 2
    assert Constant(1).support_bound() == math.inf
    assert Constant(0).support_bound() == 0.0
    samples = [0.3] * 10 + [0.0] * 3
    assert Tabulated(samples, 0.1).support_bound() == pytest.approx(1.0)


def test_integral():
    assert Step(1, 1).integral() == pytest.approx(1.0)
    assert PiecewiseConstant((1, 2), (2, -1)).integral() == pytest.approx(1.0)
    with pytest.raises(NotIntegrableError):
        Constant(0.3).integral()
    assert Constant(0).integral() == 0


def test_weighted_integral_closed_form():
    val = Step(1, 1).weighted_integral(2)
    assert val == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-14)
    # cross-check against direct quadrature of the integrand
    ref, _ = quad(lambda y: math.exp(-2 * y), 0, 1)
    assert val == pytest.approx(ref, abs=1e-10)
    for sigma, a in [(1, 2), (0.7, 3.1), (-0.3, 0.9), (0, 2)]:
        assert Constant(sigma).weighted_integral(a) == sigma / a
    assert PiecewiseConstant((1, 2), (0, 0)).weighted_integral(3.7) == 0


def test_stretched_weighted_integral():
    p = Step(1, 1)
    assert p.stretched_weighted_integral(1.0) == pytest.approx(
        1 - math.exp(-1), abs=1e-9
    )
    # eps -> 0 with support in [0, 1]: integrand tends to exp(-1) pointwise
    q = PiecewiseConstant((0.5, 1.0), (2.0, -1.0))
    assert q.stretched_weighted_integral(1e-3) == pytest.approx(
        math.exp(-1) * q.integral(), abs=1e-3
    )
    assert Step(0, 1).stretched_weighted_integral(0.5) == 0
    with pytest.raises(NotIntegrableError):
        Constant(1).stretched_weighted_integral(0.5)
    assert Constant(0).stretched_weighted_integral(0.5) == 0.0


def test_tabulated_cell_eval():
    p = Tabulated([1.0, 2.0, 3.0], 0.5)
    assert p.eval(0.1) == 1.0
    assert p.eval(0.4) == 1.0
    assert p.eval(1.01) == 3.0
    assert p.eval(1.49) == 3.0
    assert p.eval(1.5) == 0.0
    assert p.support_bound() == 1.5
    assert p.eval(5.0) == 0.0
    assert p.integral() == pytest.approx(0.5 * 6.0)


def test_validation():
    with pytest.raises(ValueError):
        Step(1, 0)
    with pytest.raises(ValueError):
        PiecewiseConstant((2, 1), (1, 1))
    with pytest.raises(ValueError):
        Tabulated([], 0.1)


values_strategy = st.lists(
    st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6
)


@given(values=values_strategy, a=st.floats(0.01, 10))
@settings(max_examples=50, deadline=None)
def test_weighted_integral_linearity_and_bound(values, a):
    breaks = tuple(0.5 * (i + 1) for i in range(len(values)))
    p = PiecewiseConstant(breaks, tuple(values))
    doubled = PiecewiseConstant(breaks, tuple(2 * v for v in values))
    assert doubled.weighted_integral(a) == pytest.approx(
        2 * p.weighted_integral(a), rel=1e-12, abs=1e-12
    )
    assert abs(p.weighted_integral(a)) <= p.ess_sup() / a + 1e-12


@given(values=values_strategy)
@settings(max_examples=30, deadline=None)
def test_weighted_integral_small_a_limit(values):
    breaks = tuple(0.5 * (i + 1) for i in range(len(values)))
    p = PiecewiseConstant(breaks, tuple(values))
    lim = p.weighted_integral(1e-6)
    assert abs(lim - p.integral()) < 1e-4 * (1 + abs(p.integral()))

