"""Finite-difference realization of the Robin quadratic form on [0, R]^2.

The form is discretized with composite-trapezoid weights: edge differences
carry the transverse trapezoid weight, the boundary strength is sampled at
the boundary nodes with half weight at the corner.  This produces a
symmetric stiffness matrix K and a diagonal lumped mass M.  The matrix
stored in :class:`DiscreteForm` is the mass-scaled similarity

    A = M^{-1/2} K M^{-1/2},

which is exactly symmetric, has at most five nonzeros per row, and shares
its spectrum with the ghost-node-eliminated difference operator (interior
rows are the plain 5-point stencil / h^2, Robin rows carry -2*sigma/h on the
diagonal).  Nodal vectors u and solver vectors w are related by w = scale*u.
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
    neumann = outer_bc is OuterBC.NEUMANN

    # 1D trapezoid weights per side index: half at the physical boundary node,
    # half at the outer node only when that node exists (Neumann).
    w1 = np.ones(n)
    w1[0] = 0.5
    if neumann:
        w1[-1] = 0.5

    coords = grid.coords(outer_bc)
    sigma_nodes = np.array([p.eval(float(y)) for y in coords])

    def idx(i, j):
        return i * n + j

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=np.float64))

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")

    # x-direction edges between (i, j) and (i+1, j), transverse weight w1[j]
    a = idx(ii[:-1, :], jj[:-1, :]).ravel()
    b = idx(ii[:-1, :] + 1, jj[:-1, :]).ravel()
    t = np.broadcast_to(w1, (n - 1, n)).ravel()
    add(a, a, t)
    add(b, b, t)
    add(a, b, -t)
    add(b, a, -t)
    if not neumann:
        # edge from the last kept node to the eliminated zero layer at x = R
        a = idx(np.full(n, n - 1), np.arange(n))
        add(a, a, w1)

    # y-direction edges between (i, j) and (i, j+1), transverse weight w1[i]
    a = idx(ii[:, :-1], jj[:, :-1]).ravel()
    b = idx(ii[:, :-1], jj[:, :-1] + 1).ravel()
    t = np.repeat(w1, n - 1)
    add(a, a, t)
    add(b, b, t)
    add(a, b, -t)
    add(b, a, -t)
    if not neumann:
        a = idx(np.arange(n), np.full(n, n - 1))
        add(a, a, w1)

    # Robin boundary terms: -h * sigma * |u|^2 along x = 0 and y = 0 with
    # trapezoid weights along each edge (half weight at the shared corner).
    a = idx(np.zeros(n, dtype=int), np.arange(n))
    add(a, a, -h * sigma_nodes * w1)
    a = idx(np.arange(n), np.zeros(n, dtype=int))
    add(a, a, -h * sigma_nodes * w1)

    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    ).tocsr()

    mass = np.outer(w1, w1).ravel()
    scale = h * np.sqrt(mass)
    D = sp.diags(1.0 / scale)
    A = (D @ K @ D).tocsr()
    A.sum_duplicates()

    return DiscreteForm(
        matrix=A, outer_bc=outer_bc, grid=grid, potential=p, scale=scale, n=n
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
