"""Lowest eigenpairs and exact below-threshold counts of a discrete form.

The iterative path is shift-invert Lanczos with a shift certified to lie
below the whole spectrum (one less than the crude lower bound
-32*sigma_hat^2), so the k eigenvalues nearest the shift are the k smallest.
Counts use the inertia of a symmetric triangular factorization of A - tau*I
rather than Ritz values: clustered eigenvalues cannot be missed that way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .certify import crude_lower_bound
from .discretize import DiscreteForm
from .errors import ConvergenceError, FactorizationError

DENSE_LIMIT = 2000
MAX_ITER = 500


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # columns, solver basis, unit norm
    residuals: np.ndarray
    negative_count: int
    converged: tuple[bool, ...]
    form: DiscreteForm = field(repr=False)

    def nodal(self, i: int) -> np.ndarray:
        """Nodal values of the i-th eigenvector, unit weighted-L2 norm."""
        return self.form.to_nodal(self.eigenvectors[:, i])


def _shift_for(F: DiscreteForm) -> float:
    return crude_lower_bound(F.potential.ess_sup()) - 1.0


def lowest_eigenpairs(
    F: DiscreteForm, k: int, tol: float = 1e-8, method: str = "auto"
) -> SpectralResult:
    """The k algebraically smallest eigenpairs of F.matrix.

    method: "auto" (dense for dimension <= 2000, else shift-invert),
    "dense", or "shift_invert".
    """
    A = F.matrix
    dim = A.shape[0]
    if not 1 <= k < dim - 1:
        raise ValueError(f"need 1 <= k < dimension-1, got k={k}, dim={dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method == "auto":
        method = "dense" if dim <= DENSE_LIMIT else "shift_invert"

    if method == "dense":
        vals, vecs = eigh(A.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    elif method == "shift_invert":
        shift = _shift_for(F)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        ncv = min(dim - 1, max(2 * k + 10, 30))
        try:
            vals, vecs = spla.eigsh(
                A.tocsc(),
                k=k,
                sigma=shift,
                which="LM",
                v0=v0,
                ncv=ncv,
                maxiter=MAX_ITER,
                tol=0,
            )
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"shift-invert iteration did not converge: {exc}",
                residuals=None,
            ) from exc
        except RuntimeError as exc:
            raise FactorizationError(
                f"factorization of A - {shift}*I broke down; adjust the shift: {exc}"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        raise ValueError(f"unknown method {method!r}")

    # normalize, fix signs for determinism
    for i in range(k):
        w = vecs[:, i]
        w /= np.linalg.norm(w)
        j = int(np.argmax(np.abs(w)))
        if w[j] < 0:
            w = -w
        vecs[:, i] = w

    residuals = np.array(
        [np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(k)]
    )
    conv = tuple(bool(r <= tol * (1 + abs(l))) for r, l in zip(residuals, vals))
    if not all(conv):
        raise ConvergenceError(
            f"residuals {residuals} exceed tol*(1+|lambda|) with tol={tol}",
            residuals=residuals,
        )
    return SpectralResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=residuals,
        negative_count=int(np.sum(vals < 0)),
        converged=conv,
        form=F,
    )


def count_below(F: DiscreteForm, tau: float) -> int:
    """Exact number of eigenvalues strictly below tau, by inertia.

    Factors A - tau*I with a diagonal-pivot (no row interchange) sparse LU in
    symmetric mode; the signs of the U diagonal then give the inertia.  A
    near-zero pivot means tau sits on an eigenvalue: tau is perturbed by
    1e-10 and the factorization retried.
    """
    A = F.matrix.tocsc()
    dim = A.shape[0]
    eye = sp.identity(dim, format="csc")
    t = tau
    for attempt in range(4):
        B = (A - t * eye).tocsc()
        try:
            lu = spla.splu(
                B,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:
            t = tau + (attempt + 1) * 1e-10
            continue
        d = lu.U.diagonal()
        dmax = float(np.max(np.abs(d)))
        if dmax == 0 or float(np.min(np.abs(d))) < 1e-13 * dmax:
            t = tau + (attempt + 1) * 1e-10
            continue
        return int(np.sum(d < 0))
    raise FactorizationError(
        f"zero pivot persists near tau={tau}; perturb tau and retry"
    )
