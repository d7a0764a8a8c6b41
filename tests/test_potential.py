import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, hyp1f1

from robinspectra.errors import NotIntegrableError
from robinspectra.potential import (
    BoundaryPotential,
    Constant,
    PiecewiseConstant,
    Step,
    Tabulated,
    _gamma_q,
    _hyp1f1,
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


def test_special_functions_match_scipy():
    # the closed forms of stretched_weighted_integral: 1F1(1; 1+a; x) up to
    # x = a, Q(a, x) and P = 1 - Q beyond, for every a = 1/eps of the
    # certificate's search.  Q is held to 2e-13 here: scipy's gammaincc
    # itself is 1.5e-13 off at (a, x) = (125, 187.5), so Q is also held to
    # 1e-14 against values from 30-digit arithmetic (mpmath), which a
    # prefactor through lgamma(a) itself misses by 1.4e-13.
    for a, x, q in ((125, 187.5, 5.0369387740151576414e-7), (121, 181.5, 7.4621924922076958734e-7),
                    (131, 262, 1.1964952337188336085e-19)):
        assert _gamma_q(float(a), float(x)) == pytest.approx(q, rel=1e-14)
    for a in map(float, range(1, 144)):
        for x in a * np.array([0.01, 0.5, 0.9, 0.99, 1.0, 1.001, 1.01, 1.1, 1.5, 2.0]):
            if x <= a:
                assert _hyp1f1(a, x) == pytest.approx(hyp1f1(1.0, 1.0 + a, x), rel=1e-13)
            else:
                assert _gamma_q(a, x) == pytest.approx(gammaincc(a, x), rel=2e-13), (a, x)
                assert 1.0 - _gamma_q(a, x) == pytest.approx(gammainc(a, x), rel=1e-13)


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


# Stretch exponents eps = 1/n of the certificate's test functions; n = 1000
# is far past where Gamma(1 + 1/eps) overflows a float.
STRETCHED_CASES = {
    "step": Step(1, 1),
    "oscillating": PiecewiseConstant((0.5, 1.0), (1.0, -0.4)),
    "long_step": Step(2, 20),
    # at n = 1, 2 the cells [2, 20) and [20, 40) start past y**eps = n, where
    # the cell integral is a difference of the upper incomplete gamma function
    "far_cells": PiecewiseConstant((2.0, 20.0, 40.0), (1.0, 2.0, -1.0)),
    "tabulated": Tabulated([math.sin(k) + 0.5 for k in range(50)], 0.1),
}


@pytest.mark.parametrize("n", [1, 2, 7, 40, 1000])
@pytest.mark.parametrize("name", STRETCHED_CASES)
def test_stretched_weighted_integral_matches_quad(name, n):
    p, eps = STRETCHED_CASES[name], 1.0 / n
    ref = sum(
        v * quad(lambda y: math.exp(-(y**eps)), lo, hi, epsabs=1e-13, epsrel=0)[0]
        for lo, hi, v in p.cells
    )
    assert p.stretched_weighted_integral(eps) == pytest.approx(ref, rel=0, abs=1e-12)


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
    bad_cells = {
        "at least one cell": (),
        "contiguous": ((0.0, 1.0, 1.0), (1.5, 2.0, 1.0)),  # a gap
        "contiguous from 0": ((0.5, 1.0, 1.0),),
        "positive length": ((0.0, 1.0, 1.0), (1.0, 1.0, 2.0)),
        "only the last cell": ((0.0, math.inf, 1.0), (math.inf, math.inf, 0.0)),
    }
    for match, cells in bad_cells.items():
        with pytest.raises(ValueError, match=match):
            BoundaryPotential(cells)
    # one representation: the same cells are the same potential
    assert Tabulated([1.0, 2.0], 0.5) == PiecewiseConstant((0.5, 1.0), (1.0, 2.0))


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

