"""Boundary interaction strength sigma(y) on the half-line.

Every kind is an immutable list of cells: left-closed, right-open intervals
[lo, hi) on which sigma is constant, with sigma = 0 beyond the last cell.
A constant is the one unbounded cell [0, inf).  `BoundaryPotential` writes
each functional of sigma once over the cells, as a closed form per cell; a
kind only lists its cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, hyp1f1

from .errors import NotIntegrableError


class BoundaryPotential:
    """Piecewise-constant boundary strength given by its cells."""

    def cells(self) -> list[tuple[float, float, float]]:
        """Left-closed/right-open cells (lo, hi, value) covering the support."""
        raise NotImplementedError

    def eval(self, y: float | np.ndarray) -> float | np.ndarray:
        """sigma at y >= 0; y is a float, or an array of them sampled in one
        sorted search over the cells' left edges."""
        ys = np.asarray(y, dtype=float)
        if np.any(ys < 0):
            raise ValueError(f"boundary coordinate must be nonnegative, got {ys.min()}")
        # the zero sentinel cell comes last; index -1 (no cell yet) picks it
        lo, hi, v = np.array([*self.cells(), (math.inf, math.inf, 0.0)], dtype=float).T
        k = np.searchsorted(lo, ys, side="right") - 1
        out = np.where(ys < hi[k], v[k], 0.0)
        return float(out) if out.ndim == 0 else out

    def ess_sup(self) -> float:
        return max((abs(v) for _, _, v in self.cells()), default=0.0)

    def support_bound(self) -> float:
        """Smallest grid-representable L with sigma = 0 beyond L (may be inf)."""
        for lo, hi, v in reversed(self.cells()):
            if v != 0:
                return hi
        return 0.0

    def integral(self) -> float:
        if math.isinf(self.support_bound()):
            raise NotIntegrableError("potential has infinite support")
        # zero cells are skipped: an unbounded zero cell would give 0 * inf
        return sum((v * (hi - lo) for lo, hi, v in self.cells() if v != 0), 0.0)

    def weighted_integral(self, a: float) -> float:
        """Integral of sigma(y) * exp(-a*y) over the half-line, a > 0."""
        if a <= 0:
            raise ValueError("weight parameter must be positive")
        return sum(
            v * (math.exp(-a * lo) - math.exp(-a * hi)) / a
            for lo, hi, v in self.cells()
        )

    def stretched_weighted_integral(self, eps: float) -> float:
        """Integral of sigma(y) * exp(-y**eps) over the half-line, 0 < eps <= 1."""
        if not 0 < eps <= 1:
            raise ValueError("stretch exponent must lie in (0, 1]")
        if math.isinf(self.support_bound()):
            raise NotIntegrableError("potential has infinite support")
        a, total = 1.0 / eps, 0.0
        for lo, hi, v in self.cells():
            if v == 0:
                continue
            if lo**eps > a:  # P ~ 1 on the whole cell: a difference of Q = 1 - P
                total += v * math.gamma(1 + a) * (gammaincc(a, lo**eps) - gammaincc(a, hi**eps))
            else:
                total += v * (_stretched_head(hi, eps) - _stretched_head(lo, eps))
        return total


def _stretched_head(y: float, eps: float) -> float:
    """Integral of exp(-t**eps) over [0, y]: Gamma(1+a) P(a, x) with a = 1/eps
    and x = y**eps, taken as y exp(-x) 1F1(1; 1+a; x) up to x = a, where
    Gamma(1+a) may overflow; beyond x = a, a < 144 because y is finite."""
    a, x = 1.0 / eps, y**eps
    if x <= a:
        return y * math.exp(-x) * hyp1f1(1.0, 1.0 + a, x)
    return math.gamma(1 + a) * gammainc(a, x)


@dataclass(frozen=True)
class Constant(BoundaryPotential):
    sigma: float

    def cells(self):
        return [(0.0, math.inf, self.sigma)]


@dataclass(frozen=True)
class Step(BoundaryPotential):
    sigma: float
    L: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("step range L must be positive")

    def cells(self):
        return [(0.0, self.L, self.sigma)]


@dataclass(frozen=True)
class PiecewiseConstant(BoundaryPotential):
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.breakpoints) != len(self.values):
            raise ValueError("breakpoints and values must have equal length")
        if not self.breakpoints:
            raise ValueError("need at least one cell")
        prev = 0.0
        for b in self.breakpoints:
            if b <= prev:
                raise ValueError("breakpoints must be strictly ascending and positive")
            prev = b

    def cells(self):
        out = []
        lo = 0.0
        for hi, v in zip(self.breakpoints, self.values):
            out.append((lo, hi, float(v)))
            lo = hi
        return out


@dataclass(frozen=True)
class Tabulated(BoundaryPotential):
    """Samples on a uniform grid y_k = k * h_s, zero beyond the last sample.

    Sample k holds on the cell [k*h_s, (k+1)*h_s), both pointwise and in the
    integral functionals, so the plain integral is exactly h_s times the
    sample sum and sigma vanishes from support_bound() on.
    """

    samples: tuple[float, ...]
    h_s: float

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(float(s) for s in self.samples))
        if self.h_s <= 0:
            raise ValueError("sample spacing must be positive")
        if not self.samples:
            raise ValueError("need at least one sample")

    def cells(self):
        return [
            (k * self.h_s, (k + 1) * self.h_s, s)
            for k, s in enumerate(self.samples)
        ]

