"""Closed-form and root-finding solutions of the 1D Robin reference problems.

Two problems appear: the half-line with a Robin condition of strength sigma
at the origin, whose single bound state at -sigma^2 gives the constant-sigma
quarter-plane reference, and the interval [0, L] with equal Robin constants
sigma_hat at both ends.  For the interval operator the ground state decay
parameter kappa solves

    kappa * tanh(kappa * L / 2) = sigma_hat,          kappa > sigma_hat,

and the positive-energy levels are k^2 with k a positive root of the phase
condition

    phi(k) = k L + 2 arctan(sigma_hat / k) = m pi,       m = 1, 2, ...

phi starts at pi as k -> 0+, falls to its minimum at
k = sqrt(sigma_hat (2/L - sigma_hat)) when sigma_hat < 2/L, and increases
from there on.  So level 1 exists only for sigma_hat < 2/L and lies between
that minimum and pi/L, and level m >= 2 is the single root in
((m-1) pi/L, m pi/L).  Each level is one bisection of
`root_function` = -(k^2 + sigma_hat^2) sin(phi) on its branch, and each
root's residual is checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InapplicableError
from .potential import BoundaryPotential

KAPPA_RESIDUAL_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ConstantReference:
    """Exact spectral data for a constant boundary strength sigma > 0."""

    sigma: float
    ground_energy: float
    ess_bottom: float


def constant_reference(p: BoundaryPotential) -> ConstantReference:
    """The reference for p = Constant(sigma), sigma > 0."""
    _, hi, sigma = p.cells[0]
    if not math.isinf(hi):
        raise InapplicableError("reference task needs a constant potential")
    if sigma <= 0:
        raise InapplicableError("the constant reference needs sigma > 0")
    return ConstantReference(sigma=sigma, ground_energy=-2 * sigma ** 2, ess_bottom=-sigma ** 2)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a sign change")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _ground(sigma_hat: float, L: float) -> tuple[float, float]:
    """The root kappa > sigma_hat of kappa*tanh(kappa*L/2) = sigma_hat and its
    residual; the left side increases in kappa, so one bisection finds it."""
    if sigma_hat <= 0 or L <= 0:
        raise ValueError("sigma_hat and L must be positive")

    def f(k):
        return kappa_residual(k, sigma_hat, L)

    lo = sigma_hat
    hi = sigma_hat + 2.0 / L + 10.0
    while f(hi) <= 0:
        hi *= 2
    kappa = _bisect(f, lo, hi)
    res = f(kappa)
    if abs(res) > KAPPA_RESIDUAL_TOL * max(1.0, sigma_hat):
        raise ArithmeticError(f"kappa residual too large: {res:.3e}")
    return kappa, res


def kappa_residual(kappa: float, sigma_hat: float, L: float) -> float:
    return kappa * math.tanh(kappa * L / 2) - sigma_hat


def root_function(k: float, sigma_hat: float, L: float) -> float:
    """Cross-multiplied form of the positive-level condition,
    -(k^2 + sigma_hat^2) * sin(k L + 2 arctan(sigma_hat / k))."""
    return (
        math.sin(k * L) * (sigma_hat ** 2 - k ** 2)
        - 2 * sigma_hat * k * math.cos(k * L)
    )


def _levels(sigma_hat: float, L: float, k_max: float) -> list[tuple[float, float]]:
    """Each positive level k <= k_max, ascending, and its `root_function`
    residual; valid for every sigma_hat > 0."""
    if sigma_hat <= 0 or L <= 0 or k_max <= 0:
        raise ValueError("sigma_hat, L and k_max must be positive")

    def g(k):
        return root_function(k, sigma_hat, L)

    levels = []
    m = 1 if sigma_hat < 2.0 / L else 2
    lo = math.sqrt(sigma_hat * (2.0 / L - sigma_hat)) if m == 1 else math.pi / L
    while lo < k_max:  # level m lies above lo
        k = _bisect(g, lo, m * math.pi / L)
        if k > k_max:
            break
        res = g(k)
        if abs(res) > ROOT_RESIDUAL_TOL * (1 + sigma_hat ** 2 + k ** 2):
            raise ArithmeticError(f"root residual too large at k={k}: {res:.3e}")
        levels.append((k, res))
        lo, m = m * math.pi / L, m + 1
    return levels


@dataclass(frozen=True)
class Interval1DSpectrum:
    """Spectrum of the interval operator with equal Robin ends: the one
    negative level -kappa**2 and the positive levels k**2, each with the
    residual of its level condition."""

    kappa: float
    positive_roots: tuple[float, ...]
    kappa_residual: float
    root_residuals: tuple[float, ...]


def interval_spectrum(sigma_hat: float, L: float, k_max: float) -> Interval1DSpectrum:
    """Assemble the full interval spectrum up to level k_max.

    Applies only for 0 < sigma_hat <= 2/L, where the negative part is exactly
    {-kappa^2}; this also rejects the zero potential and an infinite L.
    """
    if L <= 0 < sigma_hat:
        raise ValueError("L must be positive")
    if not 0 < sigma_hat <= 2.0 / L:
        raise InapplicableError(f"interval spectrum needs 0 < sigma_hat <= 2/L, {sigma_hat=} {L=}")
    kappa, kappa_res = _ground(sigma_hat, L)
    roots, residuals = tuple(zip(*_levels(sigma_hat, L, k_max))) or ((), ())
    return Interval1DSpectrum(kappa, roots, kappa_res, residuals)
