"""Closed-form and root-finding solutions of the 1D Robin reference problems.

Two problems appear: the half-line with a Robin condition of strength sigma
at the origin, whose single bound state at -sigma^2 gives the constant-sigma
quarter-plane reference, and the interval [0, L] with equal Robin constants
sigma_hat at both ends.  For the interval operator the ground state decay
parameter kappa solves

    kappa * tanh(kappa * L / 2) = sigma_hat,          kappa > sigma_hat,

and the positive-energy levels are k^2 with k a positive root of

    tan(k L) = 2 * sigma_hat * k / (sigma_hat^2 - k^2).

Root finding is bracketed bisection on sign-safe cross-multiplied functions;
no Newton steps near the tangent poles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

KAPPA_RESIDUAL_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ConstantReference:
    """Exact spectral data for a constant boundary strength sigma > 0."""

    sigma: float
    ground_energy: float
    ess_bottom: float
    ground_state: Callable[[float, float], float] = field(repr=False)


def constant_reference(sigma: float) -> ConstantReference:
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def ground_state(x: float, y: float) -> float:
        return 2 * sigma * math.exp(-sigma * (x + y))

    return ConstantReference(
        sigma=sigma,
        ground_energy=-2 * sigma ** 2,
        ess_bottom=-sigma ** 2,
        ground_state=ground_state,
    )


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


def interval_ground_kappa(sigma_hat: float, L: float) -> float:
    """Unique root kappa > sigma_hat of kappa*tanh(kappa*L/2) = sigma_hat.

    The left-hand side is strictly increasing in kappa, so a single bisection
    bracket suffices.
    """
    if sigma_hat <= 0 or L <= 0:
        raise ValueError("sigma_hat and L must be positive")

    def f(k):
        return k * math.tanh(k * L / 2) - sigma_hat

    lo = sigma_hat
    hi = sigma_hat + 2.0 / L + 10.0
    while f(hi) <= 0:
        hi *= 2
    kappa = _bisect(f, lo, hi)
    if abs(f(kappa)) > KAPPA_RESIDUAL_TOL * max(1.0, sigma_hat):
        raise ArithmeticError(f"kappa residual too large: {f(kappa):.3e}")
    return kappa


def kappa_residual(kappa: float, sigma_hat: float, L: float) -> float:
    return kappa * math.tanh(kappa * L / 2) - sigma_hat


def root_function(k: float, sigma_hat: float, L: float) -> float:
    """Cross-multiplied, pole-free form of the positive-level condition."""
    return (
        math.sin(k * L) * (sigma_hat ** 2 - k ** 2)
        - 2 * sigma_hat * k * math.cos(k * L)
    )


def root_scan_brackets(L: float, k_max: float) -> float:
    """Brackets `interval_positive_roots` scans up to k_max, before rounding up."""
    return k_max * 16 * L / math.pi


def interval_positive_roots(sigma_hat: float, L: float, k_max: float) -> list[float]:
    """All positive roots k <= k_max of the interval level condition.

    Scans sign changes of the pole-free form on brackets obtained by splitting
    each interval between consecutive multiples of pi/(2L) eight times, then
    bisects.  Valid in the regime sigma_hat <= 2/L where the roots are simple.
    """
    if sigma_hat <= 0 or L <= 0 or k_max <= 0:
        raise ValueError("sigma_hat, L and k_max must be positive")

    def g(k):
        return root_function(k, sigma_hat, L)

    step = math.pi / (2 * L) / 8
    n_steps = math.ceil(root_scan_brackets(L, k_max)) + 1
    roots = []
    prev_k = step * 1e-6  # skip the trivial root at k = 0
    prev_g = g(prev_k)
    for m in range(1, n_steps + 1):
        k = min(m * step, k_max)
        gk = g(k)
        if gk == 0:
            roots.append(k)
        elif prev_g * gk < 0:
            roots.append(_bisect(g, prev_k, k))
        prev_k, prev_g = k, gk
        if k >= k_max:
            break

    out = []
    for k in roots:
        if abs(k - sigma_hat) <= 1e-9 * max(1.0, sigma_hat):
            # degenerate crossing of the pole at k = sigma_hat, not a level
            continue
        res = g(k)
        if abs(res) > ROOT_RESIDUAL_TOL * (1 + sigma_hat ** 2 + k ** 2):
            raise ArithmeticError(f"root residual too large at k={k}: {res:.3e}")
        out.append(k)
    return sorted(out)


@dataclass(frozen=True)
class Interval1DSpectrum:
    """Spectrum of the interval operator with equal Robin ends: the one
    negative level -kappa**2 and the positive levels k**2."""

    kappa: float
    positive_roots: tuple[float, ...]


def interval_spectrum(sigma_hat: float, L: float, k_max: float) -> Interval1DSpectrum:
    """Assemble the full interval spectrum up to level k_max.

    Requires sigma_hat <= 2/L so that the negative part is exactly {-kappa^2}.
    """
    if sigma_hat > 2.0 / L:
        raise ValueError(
            "interval spectrum only assembled for sigma_hat <= 2/L "
            "(a second negative level exists otherwise)"
        )
    kappa = interval_ground_kappa(sigma_hat, L)
    roots = interval_positive_roots(sigma_hat, L, k_max)
    return Interval1DSpectrum(kappa=kappa, positive_roots=tuple(roots))
