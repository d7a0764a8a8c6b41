import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from robinspectra.analytic1d import (
    _ground,
    _levels,
    constant_reference,
    interval_spectrum,
    kappa_residual,
    root_function,
)
from robinspectra.errors import InapplicableError
from robinspectra.potential import Constant, Step


def interval_ground_kappa(sigma_hat, L):
    return _ground(sigma_hat, L)[0]


def interval_positive_roots(sigma_hat, L, k_max):
    return [k for k, _ in _levels(sigma_hat, L, k_max)]


def test_constant_reference():
    ref = constant_reference(Constant(1.0))
    assert ref.ground_energy == -2
    assert ref.ess_bottom == -1
    # twice the half-line bound state energy -sigma**2
    assert ref.ground_energy == 2 * -(1.0**2)
    with pytest.raises(InapplicableError, match="constant potential"):
        constant_reference(Step(1, 1))
    with pytest.raises(InapplicableError, match="sigma > 0"):
        constant_reference(Constant(-1.0))


def test_interval_ground_kappa_examples():
    assert interval_ground_kappa(1, 50) - 1 < 1e-10
    k = interval_ground_kappa(1, 1)
    assert k == pytest.approx(1.54, abs=0.01)
    assert abs(kappa_residual(k, 1, 1)) < 1e-12
    k2 = interval_ground_kappa(2, 2)
    assert k2 == pytest.approx(2.07, abs=0.01)
    assert abs(k2 * math.tanh(k2) - 2) < 1e-12


@pytest.mark.parametrize("sigma_hat", [0.3, 0.7, 1.0, 1.5, 2.0])
def test_kappa_monotonicity(sigma_hat):
    Ls = [0.5, 1.0, 2.0, 4.0, 8.0]
    kappas = [interval_ground_kappa(sigma_hat, L) for L in Ls]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    # increasing in sigma_hat at fixed L
    assert interval_ground_kappa(sigma_hat + 0.1, 1.0) > interval_ground_kappa(
        sigma_hat, 1.0
    )


def test_kappa_halfline_limit():
    # L -> infinity recovers the half-line bound state energy -sigma**2
    kappa = interval_ground_kappa(0.8, 60)
    assert -(kappa**2) == pytest.approx(-(0.8**2), abs=1e-10)


def test_positive_roots_neumann_limit():
    roots = interval_positive_roots(1e-8, 1, 10)
    assert abs(roots[0] - math.pi) < 1e-4
    assert abs(roots[1] - 2 * math.pi) < 1e-4


def test_positive_roots_residuals():
    sigma_hat, L = 1.0, 1.0
    roots = interval_positive_roots(sigma_hat, L, 10)
    assert math.pi / 2 < roots[0] < math.pi
    for k in roots:
        assert abs(root_function(k, sigma_hat, L)) <= 1e-10 * (
            1 + sigma_hat**2 + k**2
        )


def test_root_count_matches_brute_scan():
    # sigma_hat*L = pi/2 puts level 1 on k = sigma_hat, where tan(kL) has its pole
    for sigma_hat, L in [(1.0, 1.0), (math.pi / 2, 1.0)]:
        K = 20 * math.pi
        roots = interval_positive_roots(sigma_hat, L, K)
        # brute-force sign scan on a fine grid
        ks = np.linspace(1e-6, K, 200_001)
        g = np.sin(ks * L) * (sigma_hat**2 - ks**2) - 2 * sigma_hat * ks * np.cos(ks * L)
        brute = int(np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0))
        assert len(roots) == brute
        assert abs(len(roots) - 20) <= 1


def test_level_on_the_tangent_pole():
    # sigma_hat = k = pi/2, L = 1: tan(kL) and 2*sigma_hat*k/(sigma_hat^2 - k^2) are
    # both infinite, and the cross-multiplied condition holds exactly
    roots = interval_positive_roots(math.pi / 2, 1.0, 10.0)
    assert roots[0] == pytest.approx(math.pi / 2, rel=0, abs=1e-12)
    assert len(roots) == 3


@pytest.mark.parametrize("sigma_hat, L", [(0.3, 2.0), (1.0, 1.0), (math.pi / 2, 1.0), (5.0, 1.0)])
def test_levels_match_finite_differences(sigma_hat, L):
    # -u'' on [0, L] with u'(0) = -sigma_hat u(0), u'(L) = sigma_hat u(L), as
    # the second-order 4,001-node scheme with half-weight end nodes; sigma_hat
    # = 5 > 2/L has a second negative level, and its positive levels start on
    # the second phase branch
    n, K = 4001, 12.0
    h = L / (n - 1)
    w = np.ones(n)
    w[[0, -1]] = 0.5
    diag = np.full(n, 2.0) / h**2
    diag[[0, -1]] = 1 / h**2 - sigma_hat / h
    diag /= w
    off = -1 / (h**2 * np.sqrt(w[:-1] * w[1:]))
    lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(0, K**2))
    roots = np.array(interval_positive_roots(sigma_hat, L, K))
    assert len(roots) == len(lam)
    np.testing.assert_allclose(roots**2, lam, rtol=1e-5)


def test_interval_spectrum_structure():
    spec = interval_spectrum(1.0, 1.0, 10.0)
    assert spec.kappa == interval_ground_kappa(1.0, 1.0)
    assert spec.positive_roots == tuple(interval_positive_roots(1.0, 1.0, 10.0))
    assert spec.kappa_residual == kappa_residual(spec.kappa, 1.0, 1.0)
    assert spec.root_residuals == tuple(root_function(k, 1.0, 1.0) for k in spec.positive_roots)
    assert interval_spectrum(1.0, 1.0, 1.0).positive_roots == ()  # below level 1
    with pytest.raises(InapplicableError):
        interval_spectrum(3.0, 1.0, 10.0)

