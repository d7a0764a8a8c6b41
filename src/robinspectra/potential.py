"""Boundary interaction strength sigma(y) on the half-line.

A potential is its cells: left-closed, right-open intervals [lo, hi) on
which sigma is constant, contiguous from 0, with sigma = 0 beyond the last
cell.  Only the last cell may be unbounded; a constant is the one cell
[0, inf).  `BoundaryPotential` checks the cells once and writes each
functional of sigma once over them, as a closed form per cell; `Constant`,
`Step`, `PiecewiseConstant` and `Tabulated` only build the cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIntegrableError


@dataclass(frozen=True)
class BoundaryPotential:
    """Piecewise-constant boundary strength given by its cells (lo, hi, value)."""

    cells: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        cells = tuple((float(lo), float(hi), float(v)) for lo, hi, v in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("need at least one cell")
        edge = 0.0
        for lo, hi, _ in cells:
            if math.isinf(edge):
                raise ValueError("only the last cell may be unbounded")
            if lo != edge:
                raise ValueError(f"cells must be contiguous from 0: {lo} follows {edge}")
            if not hi > lo:
                raise ValueError(f"cell [{lo}, {hi}) must have positive length")
            edge = hi

    def eval(self, y: float | np.ndarray) -> float | np.ndarray:
        """sigma at y >= 0; y is a float, or an array of them sampled in one
        sorted search over the cells' right edges."""
        ys = np.asarray(y, dtype=float)
        if np.any(ys < 0):
            raise ValueError(f"boundary coordinate must be nonnegative, got {ys.min()}")
        _, hi, v = np.array(self.cells, dtype=float).T
        # the cells are contiguous from 0, so y lies in the first cell with
        # hi > y; index len(cells) (past the last cell) picks the appended 0
        out = np.append(v, 0.0)[np.searchsorted(hi, ys, side="right")]
        return float(out) if out.ndim == 0 else out

    def ess_sup(self) -> float:
        return max((abs(v) for _, _, v in self.cells), default=0.0)

    def support_bound(self) -> float:
        """Smallest grid-representable L with sigma = 0 beyond L (may be inf)."""
        for lo, hi, v in reversed(self.cells):
            if v != 0:
                return hi
        return 0.0

    def integral(self) -> float:
        if math.isinf(self.support_bound()):
            raise NotIntegrableError("potential has infinite support")
        # zero cells are skipped: an unbounded zero cell would give 0 * inf
        return sum((v * (hi - lo) for lo, hi, v in self.cells if v != 0), 0.0)

    def weighted_integral(self, a: float) -> float:
        """Integral of sigma(y) * exp(-a*y) over the half-line, a > 0."""
        if a <= 0:
            raise ValueError("weight parameter must be positive")
        return sum(
            v * (math.exp(-a * lo) - math.exp(-a * hi)) / a
            for lo, hi, v in self.cells
        )

    def stretched_weighted_integral(self, eps: float) -> float:
        """Integral of sigma(y) * exp(-y**eps) over the half-line, 0 < eps <= 1."""
        if not 0 < eps <= 1:
            raise ValueError("stretch exponent must lie in (0, 1]")
        if math.isinf(self.support_bound()):
            raise NotIntegrableError("potential has infinite support")
        a, total = 1.0 / eps, 0.0
        for lo, hi, v in self.cells:
            if v == 0:
                continue
            if lo**eps > a:  # P ~ 1 on the whole cell: a difference of Q = 1 - P
                total += v * math.gamma(1 + a) * (_gamma_q(a, lo**eps) - _gamma_q(a, hi**eps))
            else:
                total += v * (_stretched_head(hi, eps) - _stretched_head(lo, eps))
        return total


def _stretched_head(y: float, eps: float) -> float:
    """Integral of exp(-t**eps) over [0, y]: Gamma(1+a) P(a, x) with a = 1/eps
    and x = y**eps, taken as y exp(-x) 1F1(1; 1+a; x) up to x = a, where
    Gamma(1+a) may overflow; beyond x = a, a < 144 because y is finite."""
    a, x = 1.0 / eps, y**eps
    if x <= a:
        return y * math.exp(-x) * _hyp1f1(a, x)
    return math.gamma(1 + a) * (1.0 - _gamma_q(a, x))


def _hyp1f1(a: float, x: float) -> float:
    """1F1(1; 1+a; x) = sum_k x^k / ((1+a)...(k+a)) for 0 <= x <= a: its
    terms are positive and their ratio x/(k+a) below 1."""
    term = total = 1.0
    k = 1
    while term > 1e-17 * total:
        term *= x / (a + k)
        total += term
        k += 1
    return total


def _gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x)/Gamma(a) for x > a > 0, by the modified Lentz
    method on its continued fraction (Numerical Recipes, section 6.2).

    The prefactor x^a e^-x / Gamma(a) is taken as
    exp(a*(log1p(t) - t) + log(a/(2*pi))/2 - s(a)) with t = x/a - 1 and
    s(a) = lgamma(a) - ((a - 1/2) log a - a + log(2*pi)/2), Stirling's
    series from a = 10 on: the log of x^a e^-x and lgamma(a) each reach
    700, and their difference in floating point would lose 1e-13.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    frac = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        frac *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    if a >= 10:
        z = 1.0 / (a * a)
        s = 1 / 1188 - z * 691 / 360360
        s = (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z * s)))) / a
    else:
        s = math.lgamma(a) - ((a - 0.5) * math.log(a) - a + 0.5 * math.log(2 * math.pi))
    t = x / a - 1.0
    return math.exp(a * (math.log1p(t) - t) + 0.5 * math.log(a / (2 * math.pi)) - s) * frac


def Constant(sigma: float) -> BoundaryPotential:
    return BoundaryPotential(((0.0, math.inf, sigma),))


def Step(sigma: float, L: float) -> BoundaryPotential:
    return BoundaryPotential(((0.0, L, sigma),))


def PiecewiseConstant(breakpoints, values) -> BoundaryPotential:
    """Value values[i] on [breakpoints[i-1], breakpoints[i]), from 0."""
    if len(breakpoints) != len(values):
        raise ValueError("breakpoints and values must have equal length")
    return BoundaryPotential(tuple(zip((0.0, *breakpoints), breakpoints, values)))


def Tabulated(samples, h_s: float) -> BoundaryPotential:
    """Samples on a uniform grid y_k = k * h_s, zero beyond the last sample.

    Sample k holds on the cell [k*h_s, (k+1)*h_s), both pointwise and in the
    integral functionals, so the plain integral is exactly h_s times the
    sample sum and sigma vanishes from support_bound() on.
    """
    if not math.isfinite(len(samples) * h_s):
        raise ValueError(f"{len(samples)} samples of spacing {h_s} overflow the half-line")
    return BoundaryPotential(
        tuple((k * h_s, (k + 1) * h_s, s) for k, s in enumerate(samples))
    )
