"""Lowest eigenpairs and exact below-threshold counts of a discrete form.

The iterative path is shift-invert Lanczos on the Kronecker structure
A = T (x) I + I (x) T + D_Gamma of the assembled form.  With
r = min(0, min_j -2*sigma(y_j)/h) every Robin entry of D_Gamma is at least
r, so A >= T_r (x) I + I (x) T_r with T_r = T + r*e0*e0^T, and
lambda_min(A) >= 2*lambda_min(T_r), one tridiagonal eigenvalue (the
paper's comparison with the constant strength sigma_hat, taken at the
largest nodal sigma).  The shift sits a strict margin below that certified
bound, because for constant sigma the bound is the ground state itself; so
the k eigenvalues nearest the shift are the k smallest.  (A - s*I)^{-1} is
applied by fast diagonalisation (Lynch, Rice and Thomas 1964): with
T = Q diag(lam) Q^T, (T (x) I + I (x) T - s)^{-1} X = Q (H o (Q^T X Q)) Q^T,
H_pq = 1/(lam_p + lam_q - s), and D_Gamma enters through a Woodbury
capacitance matrix over the edge nodes with sigma != 0.  No sparse factor
of A - s*I is formed.

Counts use the inertia of a symmetric sparse triangular factorization of
A - tau*I rather than Ritz values: clustered eigenvalues cannot be missed
that way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal, get_lapack_funcs, lu_factor, lu_solve

from .discretize import DiscreteForm
from .errors import ConvergenceError, FactorizationError

DENSE_LIMIT = 2000
MAX_ITER = 500
SHIFT_MARGIN = 1e-3  # relative gap between the shift and the certified bound
RCOND_MIN = 1e-8  # a capacitance matrix conditioned worse than this is singular


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # columns, solver basis, unit norm
    residuals: np.ndarray
    negative_count: int
    converged: tuple[bool, ...]
    form: DiscreteForm = field(repr=False)
    applications: int  # shift-invert operator applications (0 when dense)

    def nodal(self, i: int) -> np.ndarray:
        """Nodal values of the i-th eigenvector, unit weighted-L2 norm."""
        return self.form.to_nodal(self.eigenvectors[:, i])


def _certified_shift(F: DiscreteForm) -> float:
    """A shift strictly below the bound lambda_min(A) >= 2*lambda_min(T_r).

    Capping r at 0 keeps the bound at or below lambda_min(T (x) I + I (x) T),
    so that operator minus the shift is positive definite.
    """
    d = F.t_diag.copy()
    d[0] += min(F.robin.min(), 0.0)
    mu = eigh_tridiagonal(d, F.t_off, eigvals_only=True, select="i", select_range=(0, 0))
    bound = 2.0 * float(mu[0])
    return bound - SHIFT_MARGIN * (1.0 + abs(bound))


def _shift_inverse(F: DiscreteForm, shift: float):
    """x -> (A - shift*I)^{-1} x by fast diagonalisation plus a Woodbury
    correction for D_Gamma.

    The Robin nodes are (0, j) for j in J and (i, 0) for i in I, those with
    sigma != 0; the corner (0, 0) is counted once, in J, with both edges'
    terms.  The capacitance diag(1/D) + G over them takes the blocks of
    G = (T (x) I + I (x) T - shift)^{-1} from the edge structure in
    O(n^2 |Gamma|).
    """
    n = F.n
    lam, Q = eigh_tridiagonal(F.t_diag, F.t_off)
    H = 1.0 / (lam[:, None] + lam[None, :] - shift)
    q0 = Q[0]
    J = np.flatnonzero(F.robin)
    I = J[J > 0]
    D = np.concatenate([F.robin[J] * np.where(J == 0, 2.0, 1.0), F.robin[I]])
    QJ, QI = Q[J], Q[I]
    if D.size:
        m = (q0 * q0) @ H
        cross = (QI * q0) @ H @ (QJ * q0).T
        C = np.block([[(QJ * m) @ QJ.T, cross.T], [cross, (QI * m) @ QI.T]])
        C[np.diag_indices_from(C)] += 1.0 / D
        lu = lu_factor(C, check_finite=False)
        (gecon,) = get_lapack_funcs(("gecon",), (C,))
        rcond = gecon(lu[0], np.abs(C).sum(axis=0).max())[0]
        if not (np.all(np.isfinite(lu[0])) and rcond > RCOND_MIN):
            raise FactorizationError(
                f"capacitance matrix of A - {shift}*I is singular; "
                "the shift touches the spectrum"
            )

    def solve(x: np.ndarray) -> np.ndarray:
        W = H * (Q.T @ x.reshape(n, n) @ Q)
        if D.size:
            y = lu_solve(lu, np.concatenate([(q0 @ W) @ QJ.T, QI @ (W @ q0)]))
            W -= H * (np.outer(q0, y[: J.size] @ QJ) + np.outer(y[J.size :] @ QI, q0))
        return (Q @ W @ Q.T).ravel()

    return solve


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

    applications = 0
    if method == "dense":
        vals, vecs = eigh(A.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    elif method == "shift_invert":
        shift = _certified_shift(F)
        solve = _shift_inverse(F, shift)

        def opinv(x):
            nonlocal applications
            applications += 1
            return solve(x)

        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        ncv = min(dim - 1, 2 * k + 10)
        try:
            vals, vecs = spla.eigsh(
                A,
                k=k,
                sigma=shift,
                which="LM",
                v0=v0,
                ncv=ncv,
                maxiter=MAX_ITER,
                tol=0,
                OPinv=spla.LinearOperator(A.shape, matvec=opinv, dtype=float),
            )
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(f"shift-invert iteration did not converge: {exc}") from exc
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
        raise ConvergenceError(f"residuals {residuals} exceed tol*(1+|lambda|) with tol={tol}")
    return SpectralResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=residuals,
        negative_count=int(np.sum(vals < 0)),
        converged=conv,
        form=F,
        applications=applications,
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
