"""Physical interpretation of raw spectral output.

Covers log-linear decay-rate fits along rays and Richardson extrapolation
over grid refinements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discretize import DiscreteForm
from .errors import InapplicableError, NoAsymptoticRegimeError, UnderflowWindowError

DEFAULT_N_RADII = 40
UNDERFLOW_FLOOR = 1e-14


@dataclass(frozen=True)
class DecayFit:
    ray: tuple[float, float]
    r_window: tuple[float, float]
    slope: float
    intercept: float
    r_squared: float
    predicted_rate: float
    with_prefactor: bool
    slope_stderr: float
    radii: tuple[float, ...] = field(repr=False)  # the sampled profile
    abs_phi: tuple[float, ...] = field(repr=False)
    model: tuple[float, ...] = field(repr=False)  # the fitted profile at radii


def _default_radii(ray: np.ndarray, h: float, r_min: float, r_max: float) -> np.ndarray:
    """Node-aligned radii for axis/diagonal rays, else uniform.

    Node alignment keeps interpolation exact on the sampled points, which
    matters when fitting analytic reference states to tight tolerances.
    """
    dx, dy = ray
    if min(abs(dx), abs(dy)) < 1e-12:
        step = h
    elif abs(abs(dx) - abs(dy)) < 1e-12:
        step = h * math.sqrt(2.0)
    else:
        return np.linspace(r_min, r_max, DEFAULT_N_RADII)
    k_lo = int(math.ceil(r_min / step - 1e-9))
    k_hi = int(math.floor(r_max / step + 1e-9))
    return step * np.arange(k_lo, k_hi + 1)


def decay_fit(
    F: DiscreteForm,
    v: np.ndarray,
    E: float,
    ray: Sequence[float],
    r_min: float,
    r_max: float,
    with_prefactor: bool = True,
) -> DecayFit:
    """Least-squares decay rate of nodal values v along a ray from the origin.

    Fits log|v| (plus half log r when the 1/sqrt(r) prefactor is modelled)
    against r; off-node points are obtained by bilinear interpolation.  The
    result carries the sampled radii, |v| and the fitted model at each radius.
    """
    support = F.potential.support_bound()
    if not math.isfinite(support):
        raise InapplicableError("decay analysis requires a compactly supported potential")
    if E >= 0:
        raise InapplicableError("no negative ground energy; nothing decays")
    ray = np.asarray(ray, dtype=np.float64)
    nrm = np.linalg.norm(ray)
    if nrm == 0 or ray[0] < 0 or ray[1] < 0:
        raise ValueError("ray must be a nonzero direction in the closed quadrant")
    ray = ray / nrm

    if r_min < support + 1:
        raise ValueError(f"r_min must be at least support_bound + 1 = {support + 1}")
    if r_max > F.grid.R - 2:
        raise ValueError(f"r_max must be at most R - 2 = {F.grid.R - 2}")
    if r_max <= r_min:
        raise ValueError("empty fit window")

    radii = _default_radii(ray, F.grid.h, r_min, r_max)
    if len(radii) < 10:
        raise ValueError("need at least 10 sample radii in the window")

    # bilinear in the cell whose lower corner is the last node <= the point
    # (clipped to n - 2), so that points on nodes return the node values
    g = np.asarray(v, dtype=np.float64).reshape(F.n, F.n)
    c = F.grid.coords(F.outer_bc)
    pts = np.outer(radii, ray)
    ij = np.clip(np.searchsorted(c, pts, side="right") - 1, 0, F.n - 2)
    (i, j), (s, t) = ij.T, ((pts - c[ij]) / F.grid.h).T
    samples = (1 - s) * ((1 - t) * g[i, j] + t * g[i, j + 1]) + s * (
        (1 - t) * g[i + 1, j] + t * g[i + 1, j + 1]
    )

    absvals = np.abs(samples)
    if np.any(absvals < UNDERFLOW_FLOOR):
        raise UnderflowWindowError(
            "eigenfunction underflows inside the fit window; shrink r_max"
        )
    ylog = np.log(absvals)
    if with_prefactor:
        ylog = ylog + 0.5 * np.log(radii)

    slope, intercept, stderr, r2 = _linfit(radii, ylog)
    rs, c, rate = radii.tolist(), math.exp(intercept), -math.sqrt(abs(E))
    model = [c * math.exp(rate * r) / (math.sqrt(r) if with_prefactor else 1.0) for r in rs]
    return DecayFit(
        ray=(float(ray[0]), float(ray[1])),
        r_window=(float(r_min), float(r_max)),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        predicted_rate=rate,
        with_prefactor=with_prefactor,
        slope_stderr=stderr,
        radii=tuple(rs),
        abs_phi=tuple(absvals.tolist()),
        model=tuple(model),
    )


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / ((n - 2) * sxx)) if n > 2 else 0.0
    return slope, intercept, stderr, max(0.0, r2)


@dataclass(frozen=True)
class ConvergenceStudy:
    extrapolated: float
    order: float


def richardson(study_points: Sequence[tuple[float, float]]) -> ConvergenceStudy:
    """Observed-order Richardson extrapolation over ratio-2 grid refinements."""
    pts = sorted(study_points, key=lambda t: -t[0])
    if len(pts) < 3:
        raise ValueError("need at least 3 study points")
    for (h1, _), (h2, _) in zip(pts, pts[1:]):
        if abs(h1 / h2 - 2.0) > 1e-9:
            raise ValueError("spacings must be in constant ratio 2")
    lams = [l for _, l in pts]
    d1 = lams[-3] - lams[-2]
    d2 = lams[-2] - lams[-1]
    if d1 == 0 or d2 == 0 or d1 * d2 < 0 or abs(d2) >= abs(d1):
        raise NoAsymptoticRegimeError(
            f"differences {d1:.3e}, {d2:.3e} are not monotonically shrinking"
        )
    order = math.log2(d1 / d2)
    extrapolated = lams[-1] - d2 / (2 ** order - 1)
    return ConvergenceStudy(extrapolated=extrapolated, order=order)
