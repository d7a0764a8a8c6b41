import math

import pytest
from scipy.integrate import quad

from robinspectra.certify import (
    EssClass,
    bound_state_certificate,
    crude_lower_bound,
    ess_spectrum_class,
    ground_energy_sandwich,
    kinetic_term,
    negative_count_bound,
)
from robinspectra.errors import (
    EssentialBottomNotZeroError,
    InapplicableError,
    NotAttractiveOnAverageError,
    RobinSpectraError,
)
from robinspectra.potential import (
    BoundaryPotential,
    Constant,
    PiecewiseConstant,
    Step,
    Tabulated,
)


def test_crude_lower_bound():
    assert crude_lower_bound(1) == -32
    assert crude_lower_bound(0) == 0
    assert crude_lower_bound(0.5) == -8


def test_sandwich_constant_saturates():
    assert ground_energy_sandwich(Constant(1.0)) == pytest.approx((-2.0, -2.0))
    assert ground_energy_sandwich(Constant(0.0)) == (0.0, 0.0)


class _HeavierThanSup(BoundaryPotential):
    """sigma_hat = 1, yet a weighted integral above the sup's 1/(2*sigma_hat)."""

    def ess_sup(self):
        return 1.0

    def weighted_integral(self, a):
        return 1.0


def test_sandwich_invariant_violation_raises():
    with pytest.raises(RobinSpectraError, match="exceeds upper bound"):
        ground_energy_sandwich(_HeavierThanSup(((0.0, 1.0, 1.0),)))


def test_sandwich_step():
    lo, hi = ground_energy_sandwich(Step(1, 1))
    assert lo == -2
    assert hi == pytest.approx(-2 + 4 * math.exp(-2), abs=1e-12)
    # long range: upper bound approaches the constant-case value
    _, hi_long = ground_energy_sandwich(Step(1, 40))
    assert hi_long == pytest.approx(-2, abs=1e-12)


def test_crude_below_sandwich():
    for p in [Constant(1.0), Step(0.5, 2), PiecewiseConstant((1, 2), (2, -1))]:
        lo, _ = ground_energy_sandwich(p)
        assert crude_lower_bound(p.ess_sup()) <= lo


def test_ess_spectrum_class():
    assert ess_spectrum_class(Step(1, 1)) == (EssClass.NON_POSITIVE_TAIL, 0.0)
    assert ess_spectrum_class(Constant(1.0)) == (EssClass.CONSTANT_POSITIVE, -1.0)
    assert ess_spectrum_class(Constant(0.0)) == (EssClass.NON_POSITIVE_TAIL, 0.0)
    assert ess_spectrum_class(Constant(-0.5)) == (EssClass.NON_POSITIVE_TAIL, 0.0)
    assert ess_spectrum_class(Tabulated([0.3, 1.2], 0.5)) == (EssClass.NON_POSITIVE_TAIL, 0.0)
    trailing_negative = PiecewiseConstant((1, 2), (2.0, -0.5))
    assert ess_spectrum_class(trailing_negative) == (EssClass.NON_POSITIVE_TAIL, 0.0)


def test_kinetic_term_exact():
    assert kinetic_term(0.1) == pytest.approx(math.pi / 80, abs=1e-16)
    # quadrature oracle for the radial energy integral at several exponents
    for eps in (1.0, 0.5, 0.2):
        val, _ = quad(
            lambda t: t * math.exp(-2 * t), 0, 60, epsabs=1e-14, epsrel=1e-14
        )
        # substitution t = r**eps turns the radial integral into t*exp(-2t)/eps
        ref = math.pi * eps**2 / 2 * val / eps
        assert kinetic_term(eps) == pytest.approx(ref, abs=1e-14)


def test_certificate_step():
    n, q = bound_state_certificate(Step(1, 1), 10)
    assert n == 1
    expected = math.pi / 8 - 2 * (1 - math.exp(-1))
    assert q == pytest.approx(expected, abs=1e-8)
    assert q == pytest.approx(-0.871, abs=1e-3)


def test_certificate_quadrature_reproduction():
    p = PiecewiseConstant((0.5, 1.0), (1.0, -0.4))
    n, q = bound_state_certificate(p, 10)
    # independent quadrature of both terms
    eps = 1.0 / n
    boundary = 0.0
    for lo, hi, v in p.cells:
        val, _ = quad(lambda y: math.exp(-(y**eps)), lo, hi, epsabs=1e-13)
        boundary += v * val
    assert q == pytest.approx(math.pi * eps / 8 - 2 * boundary, abs=1e-8)


def test_certificate_preconditions():
    balanced = PiecewiseConstant((1, 2), (1.0, -1.0))
    with pytest.raises(NotAttractiveOnAverageError):
        bound_state_certificate(balanced, 5)
    with pytest.raises(EssentialBottomNotZeroError):
        bound_state_certificate(Constant(1.0), 5)


def test_negative_count_bound():
    assert negative_count_bound(Step(1, 1)) == 1
    assert negative_count_bound(Step(3, 1)) is None  # sigma_hat > 2/L
    assert negative_count_bound(Step(2, 1)) is not None  # boundary case included
    assert negative_count_bound(Step(1e-6, 1)) == 1
    assert negative_count_bound(Step(0, 1)) is None  # zero potential: vacuous
    with pytest.raises(InapplicableError):
        negative_count_bound(Constant(1.0))


def test_negative_count_bound_continuous_through_the_tangent_pole():
    # at sigma_hat*L = pi/2 interval level 1 sits on k = sigma_hat, below kappa
    counts = [negative_count_bound(Step(math.pi / 2 * f, 1)) for f in (1 - 1e-3, 1, 1 + 1e-3)]
    assert counts == [2, 2, 2]


@pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
def test_negative_count_bound_continuous_at_the_regime_edge(L):
    # at sigma_hat*L = 2 interval level 1 reaches k = 0, the eigenvalue 0 < kappa**2
    sigma_hat = 2.0 / L
    counts = [negative_count_bound(Step(sigma_hat * f, L)) for f in (1 - 1e-9, 1 - 1e-15, 1)]
    assert counts == [2, 2, 2]
    assert negative_count_bound(Step(sigma_hat * (1 + 1e-15), L)) is None


def test_negative_count_bound_monotone_in_L():
    sigma_hat = 0.5
    counts = [negative_count_bound(Step(sigma_hat, L)) for L in (0.5, 1, 2, 4)]
    assert all(c is not None for c in counts)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
