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

Counts use the same structure.  Bordering B = T (x) I + I (x) T - tau with
the Robin nodes gives [[B, U], [U^T, -D^{-1}]], whose two Schur complements
are A - tau*I and -C(tau), the capacitance matrix above taken at tau.
Haynsworth inertia additivity then gives

    neg(A - tau) = #{(p, q): lam_p + lam_q < tau} + pos(C(tau)) - #{D > 0},

an exact count that Ritz values could not give: clustered eigenvalues
cannot be missed that way.  D > 0 at exactly the nodes with sigma < 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh, get_lapack_funcs, lu_factor, lu_solve

from .discretize import DiscreteForm
from .errors import ConvergenceError, FactorizationError

DENSE_LIMIT = 2000
MAX_ITER = 500
SHIFT_MARGIN = 1e-3  # relative gap between the shift and the certified bound
RCOND_MIN = 1e-8  # a capacitance matrix conditioned worse than this is singular
SINGULAR_RTOL = 1e-13  # count_below: eigenvalue magnitudes below this, relative, are zero


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


def _capacitance(robin: np.ndarray, Q: np.ndarray, H: np.ndarray):
    """The capacitance matrix C = diag(1/D) + U^T B^{-1} U of the Robin nodes.

    B = T (x) I + I (x) T - s with T = Q diag(lam) Q^T is given by
    H_pq = 1/(lam_p + lam_q - s), and robin holds the edge coefficient per
    node, so that the form is B + s*I + U diag(D) U^T.  The Robin nodes are
    (0, j) for j in J and (i, 0) for i in I, those with robin != 0; the
    corner (0, 0) is counted once, in J, with both edges' terms.  C takes the
    blocks of B^{-1} from the edge structure in O(n^2 |Gamma|).  Returns Q's
    rows at J and at I, D and C.
    """
    q0 = Q[0]
    J = np.flatnonzero(robin)
    I = J[J > 0]
    D = np.concatenate([robin[J] * np.where(J == 0, 2.0, 1.0), robin[I]])
    QJ, QI = Q[J], Q[I]
    m = (q0 * q0) @ H
    cross = (QI * q0) @ H @ (QJ * q0).T
    C = np.block([[(QJ * m) @ QJ.T, cross.T], [cross, (QI * m) @ QI.T]])
    C[np.diag_indices_from(C)] += 1.0 / D
    return QJ, QI, D, C


def _shift_inverse(F: DiscreteForm, shift: float):
    """x -> (A - shift*I)^{-1} x by fast diagonalisation plus a Woodbury
    correction for D_Gamma through the capacitance matrix."""
    n = F.n
    lam, Q = eigh_tridiagonal(F.t_diag, F.t_off)
    H = 1.0 / (lam[:, None] + lam[None, :] - shift)
    q0 = Q[0]
    QJ, QI, D, C = _capacitance(F.robin, Q, H)
    if D.size:
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
            j = len(QJ)
            W -= H * (np.outer(q0, y[:j] @ QJ) + np.outer(y[j:] @ QI, q0))
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

    With T's eigenvalues lam and the capacitance C(tau) over the nodes with
    sigma != 0, Haynsworth inertia additivity gives

        neg(A - tau) = #{(p, q): lam_p + lam_q < tau} + pos(C(tau))
                       - #{nodes with sigma < 0},

    the last term counting the entries D = -2*sigma/h > 0.  The split needs
    B = T (x) I + I (x) T - tau regular.  When min|lam_p + lam_q - tau| is
    below SINGULAR_RTOL relative to the largest (outer Neumann at tau = 0:
    T has the eigenvalue 0), the count is redone with c = 1/h moved from
    D_Gamma into T, T + c*e0*e0^T: every edge node is then a Robin node,
    with D = -2*sigma/h - c.
    When min|eig(C)| is below SINGULAR_RTOL relative to the largest, tau
    sits on an eigenvalue of A: tau is moved up by 1e-10 and the count
    retried, up to three times.  A count at such a tau lies between the
    number of eigenvalues strictly below tau and that strictly below
    tau + 3e-10.
    """
    t = tau
    for attempt in range(4):
        for c in (0.0, 1.0 / F.grid.h):
            d = F.t_diag.copy()
            d[0] += c
            lam, Q = eigh_tridiagonal(d, F.t_off)
            S = lam[:, None] + lam[None, :] - t
            if np.abs(S).min() < SINGULAR_RTOL * np.abs(S).max():
                continue  # B is singular at t: try the next split
            _, _, D, C = _capacitance(F.robin - c, Q, 1.0 / S)
            mu = eigvalsh(C, check_finite=False)
            if mu.size and np.abs(mu).min() < SINGULAR_RTOL * np.abs(mu).max():
                break  # A - t is singular: move t
            return int(np.sum(S < 0) + np.sum(mu > 0) - np.sum(D > 0))
        t = tau + (attempt + 1) * 1e-10
    raise FactorizationError(
        f"zero pivot persists near tau={tau}; perturb tau and retry"
    )
