"""Finite-difference realization of the Robin quadratic form on [0, R]^2.

The form is discretized with composite-trapezoid weights: edge differences
carry the transverse 1D trapezoid weight w1 (1/2 at y = 0 and, for outer
Neumann, at y = R), the edges to an eliminated outer Dirichlet layer are
kept, and the boundary strength is sampled at the boundary nodes with half
weight at the corner.  Scaling the stiffness K by the lumped mass
M = h^2 (w1 x w1) gives the matrix stored in :class:`DiscreteForm`,

    A = M^{-1/2} K M^{-1/2} = T (x) I + I (x) T + D_Gamma,

where T = diag(1/(h sqrt(w1))) S diag(1/(h sqrt(w1))) is the 1D operator
with sigma = 0 (S has off-diagonals -1 and diagonal 2, or 1 at the Robin
node and at an outer Neumann node), and D_Gamma is diagonal with
-2*sigma(y)/h at each node of the Robin edges x = 0 and y = 0; the corner
gets both edges' terms.  A is exactly symmetric, has at most five nonzeros
per row, and shares its spectrum with the ghost-node-eliminated 5-point
operator.  Nodal vectors u and solver vectors w are related by w = scale*u.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .potential import BoundaryPotential


class OuterBC(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, R]^2 with spacing h; R/h must be an integer."""

    R: float
    h: float

    def __post_init__(self):
        if self.R <= 0 or self.h <= 0:
            raise ValueError("R and h must be positive")
        ratio = self.R / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"R/h must be an integer, got {ratio}")
        if round(ratio) < 2:
            raise ValueError("grid too coarse: need at least 3 nodes per side")

    @property
    def intervals(self) -> int:
        return int(round(self.R / self.h))

    def npts(self, outer_bc: OuterBC) -> int:
        """Nodes per side: outer Neumann keeps the node at R, Dirichlet
        eliminates it."""
        N = self.intervals
        return N + 1 if outer_bc is OuterBC.NEUMANN else N

    def coords(self, outer_bc: OuterBC) -> np.ndarray:
        return self.h * np.arange(self.npts(outer_bc))


@dataclass(frozen=True)
class DiscreteForm:
    matrix: sp.csr_matrix = field(repr=False)
    outer_bc: OuterBC
    grid: Grid
    potential: BoundaryPotential
    scale: np.ndarray = field(repr=False)  # sqrt of lumped mass per node
    n: int  # nodes per side
    t_diag: np.ndarray = field(repr=False)  # diagonal of T
    t_off: np.ndarray = field(repr=False)  # off-diagonal of T
    robin: np.ndarray = field(repr=False)  # -2*sigma(y_j)/h per edge node j

    @property
    def dimension(self) -> int:
        return self.n * self.n

    def to_nodal(self, w: np.ndarray) -> np.ndarray:
        """Convert a solver-basis vector to nodal values (unit weighted-L2)."""
        u = w / self.scale
        norm = float(np.linalg.norm(self.scale * u))
        return u / norm

    def weighted_norm(self, u: np.ndarray) -> float:
        """Discrete L2 norm of nodal values (trapezoid mass)."""
        return float(np.linalg.norm(self.scale * u))


DECAY_MARGIN = 5.0


def assemble(p: BoundaryPotential, grid: Grid, outer_bc: OuterBC) -> DiscreteForm:
    """Assemble the mass-scaled symmetric form matrix for potential p."""
    sigma_hat = p.ess_sup()
    support = p.support_bound()
    if sigma_hat > 0 and math.isfinite(support):
        if grid.R < support + DECAY_MARGIN / sigma_hat:
            warnings.warn(
                f"truncation radius R={grid.R} below recommended "
                f"{support + DECAY_MARGIN / sigma_hat:.3g}; eigenvalues may be "
                "polluted by the outer boundary",
                stacklevel=2,
            )

    h = grid.h
    n = grid.npts(outer_bc)

    # 1D trapezoid weights per side index: half at the physical boundary node,
    # half at the outer node only when that node exists (Neumann).
    w1 = np.ones(n)
    w1[0] = 0.5
    if outer_bc is OuterBC.NEUMANN:
        w1[-1] = 0.5

    # T = W^{-1/2} S W^{-1/2} / h^2; S's diagonal 2 or 1 is exactly 2*w1.
    d = 1.0 / (h * np.sqrt(w1))
    t_off = -d[:-1] * d[1:]
    t_diag = 2.0 * w1 * d * d
    T = sp.diags([t_off, t_diag, t_off], [-1, 0, 1])

    # Robin terms -2*sigma/h on the edges x = 0 and y = 0; the corner gets both.
    robin = -2.0 * p.eval(grid.coords(outer_bc)) / h
    gamma = np.zeros((n, n))
    gamma[0, :] += robin
    gamma[:, 0] += robin
    A = (sp.kronsum(T, T) + sp.diags(gamma.ravel())).tocsr()

    scale = h * np.sqrt(np.outer(w1, w1).ravel())
    return DiscreteForm(
        matrix=A, outer_bc=outer_bc, grid=grid, potential=p, scale=scale, n=n,
        t_diag=t_diag, t_off=t_off, robin=robin,
    )


def inject_function(F: DiscreteForm, f: Callable[[float, float], float]) -> np.ndarray:
    """Sample f at the grid nodes in row-major indexing order."""
    n = F.n
    coords = F.grid.coords(F.outer_bc)
    out = np.empty(F.dimension)
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            val = f(float(x), float(y))
            if not math.isfinite(val):
                raise ValueError(f"non-finite sample at node ({i}, {j}) = ({x}, {y})")
            out[i * n + j] = val
    return out
