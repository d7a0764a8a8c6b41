"""Nodal test vectors on a discrete form's grid, and their weighted-L2 distance."""
import numpy as np


def constant_ground_state(F, sigma):
    """2*sigma*exp(-sigma*(x + y)), the ground state for Constant(sigma) on
    the quarter plane, at F's nodes in row-major order."""
    x = F.grid.coords(F.outer_bc)
    return 2 * sigma * np.exp(-sigma * np.add.outer(x, x)).ravel()


def l2_distance(F, u, v):
    """Weighted-L2 distance between nodal vectors after sign alignment."""
    u = np.asarray(u) / np.linalg.norm(F.scale * u)
    v = np.asarray(v) / np.linalg.norm(F.scale * v)
    if float(np.dot(F.scale * u, F.scale * v)) < 0:
        v = -v
    return float(np.linalg.norm(F.scale * (u - v)))
