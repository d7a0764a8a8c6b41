"""Analytic bounds and certificates for a given boundary potential.

Everything here is cheap: closed forms and 1D root finding.  The expensive
grid computations live in discretize/eigensolve and are only compared
against these bounds by the analysis layer and the test suite.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .analytic1d import interval_spectrum
from .errors import (
    EssentialBottomNotZeroError,
    InapplicableError,
    NotAttractiveOnAverageError,
    RobinSpectraError,
)
from .potential import BoundaryPotential


class EssClass(Enum):
    NON_POSITIVE_TAIL = "NonPositiveTail"
    CONSTANT_POSITIVE = "ConstantPositive"


def crude_lower_bound(sigma_hat: float) -> float:
    """Certified lower bound -32*sigma_hat^2 on the whole spectrum."""
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    return -32.0 * sigma_hat ** 2


def ground_energy_sandwich(p: BoundaryPotential) -> tuple[float, float]:
    """Two-sided enclosure of the ground energy.

    Lower bound -2*sigma_hat^2 from comparison with the constant-strength
    operator; upper bound from the Rayleigh quotient of that operator's
    ground state, evaluated in the rearranged form
    2*sigma_hat^2 - 8*sigma_hat^2 * integral(sigma(y) e^{-2 sigma_hat y}).
    """
    sigma_hat = p.ess_sup()
    if sigma_hat == 0:
        return (0.0, 0.0)
    lo = -2.0 * sigma_hat ** 2
    hi = 2.0 * sigma_hat ** 2 - 8.0 * sigma_hat ** 2 * p.weighted_integral(2 * sigma_hat)
    if lo > hi + 1e-12 * max(1.0, abs(lo)):
        raise RobinSpectraError(
            f"sandwich lower bound {lo} exceeds upper bound {hi}: the potential's "
            "weighted integral is inconsistent with its ess_sup"
        )
    return (lo, max(lo, hi))


def ess_spectrum_class(p: BoundaryPotential) -> tuple[EssClass, float]:
    """Classify the essential spectrum by sigma's tail and give its bottom.

    The tail is the value on the last cell if that is unbounded, else 0.
    A positive tail binds one particle to the boundary while the other
    escapes, so the essential spectrum starts at -tail**2; otherwise it
    starts at 0.
    """
    _, hi, v = p.cells[-1]
    tail = v if math.isinf(hi) else 0.0
    if tail > 0:
        return (EssClass.CONSTANT_POSITIVE, -tail ** 2)
    return (EssClass.NON_POSITIVE_TAIL, 0.0)


def kinetic_term(eps: float) -> float:
    """Radial kinetic energy of the test profile exp(-r**eps): exactly pi*eps/8."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.pi * eps / 8.0


def bound_state_certificate(
    p: BoundaryPotential, n_max: int
) -> Optional[tuple[int, float]]:
    """Search for the first n <= n_max whose test function has negative energy.

    The trial energy at stretch exponent 1/n is
    pi/(8n) - 2 * integral(sigma(y) exp(-y**(1/n))); a negative value
    certifies a bound state whenever the essential spectrum starts at zero.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _, bottom = ess_spectrum_class(p)
    if bottom != 0:
        raise EssentialBottomNotZeroError(
            "certificate requires the essential spectrum to start at zero"
        )
    if p.integral() <= 0:
        raise NotAttractiveOnAverageError(
            "potential integral must be positive for the certificate"
        )
    for n in range(1, n_max + 1):
        q = kinetic_term(1.0 / n) - 2.0 * p.stretched_weighted_integral(1.0 / n)
        if q < 0:
            return (n, q)
    return None


def negative_count_bound(p: BoundaryPotential) -> Optional[int]:
    """Upper bound on the number of negative eigenvalues via the 1D interval
    operator, valid for compact support [0, L] with sigma_hat <= 2/L.

    Returns None when sigma_hat > 2/L (bound inapplicable) or for the zero
    potential (no negative spectrum to bound).
    """
    L = p.support_bound()
    if not math.isfinite(L):
        raise InapplicableError("counting bound requires compact support")
    sigma_hat = p.ess_sup()
    if sigma_hat == 0:  # nothing to bound, and L = 0
        return None
    try:  # kappa < 2.4/L < pi/L in the regime, so only level 1 can lie below it
        spec = interval_spectrum(sigma_hat, L, k_max=math.pi / L)
    except InapplicableError:
        return None
    # level 1 is a positive root up to pi/L, or k = 0 (the eigenvalue 0) at sigma_hat*L = 2
    return 1 + sum(k < spec.kappa * (1 - 1e-12) for k in spec.positive_roots or (0.0,))
