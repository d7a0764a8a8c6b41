"""Lowest eigenpairs and exact below-threshold counts of a discrete form.

The assembled form is A = T (x) I + I (x) T + D_Gamma.  Every path moves
sigma's tail value into T: with c = F.robin[-1], T_c = T + c*e0*e0^T gives
A = T_c (x) I + I (x) T_c + D, D diagonal with robin_j - c at the edge
nodes (0, j) and (j, 0).  J, the nodes with robin_j != c, is empty for a
constant sigma, the paper's separable comparison problem: A's eigenpairs
are then the pair sums lam_p + lam_q and outer products of T_c's, and the
"pairs" path takes the k lowest from one tridiagonal eigenproblem.  A sigma
that vanishes at the grid's last node has c = 0, and T_0 = T.

Otherwise the iterative path is shift-invert Lanczos.  With
r = min_j robin_j every Robin entry is at least r, so
A >= T_r (x) I + I (x) T_r with T_r = T + r*e0*e0^T, and
lambda_min(A) >= 2*lambda_min(T_r), one tridiagonal eigenvalue (the
paper's comparison with the constant strength sigma_hat, taken at the
largest nodal sigma).  The shift sits a strict margin below that certified
bound, because for constant sigma the bound is the ground state itself; so
the k eigenvalues nearest the shift are the k smallest.  (A - s*I)^{-1} is
applied by fast diagonalisation (Lynch, Rice and Thomas 1964): with
T_c = Q diag(lam) Q^T, (T_c (x) I + I (x) T_c - s)^{-1} X = Q (H o (Q^T X Q)) Q^T,
H_pq = 1/(lam_p + lam_q - s), and D enters through a Woodbury capacitance
matrix over the nodes in J, the corner listed once on each edge.  The
x <-> y symmetry splits that matrix into two sectors of one edge's size,
factored apart.  No sparse factor of A - s*I is formed.

T_0 = T is the cosine operator, so lam and Q are known in closed form:
with N intervals and theta_m = (m + 1/2)*pi/N (outer Dirichlet, n = N
nodes) or m*pi/N (outer Neumann, n = N + 1 nodes),
lam_m = (2*sin(theta_m/2)/h)^2 and Q is the orthonormal DCT-III
(Dirichlet) or DCT-I (Neumann) matrix.  On large grids whose FFT length is
5-smooth the basis changes Q^T X Q and Q W Q^T are therefore 2-D cosine
transforms, O(n^2 log n) instead of the O(n^3) of two dense products;
DCT_MIN_NODES says where.  For c != 0, eigh_tridiagonal gives T_c's basis
and the basis changes are the dense products.

Counts use the same structure.  Bordering B = T_c (x) I + I (x) T_c - tau
with the nodes in J gives [[B, U], [U^T, -D^{-1}]], whose two Schur
complements are A - tau*I and -C(tau), the capacitance matrix above taken
at tau.  Haynsworth inertia additivity then gives

    neg(A - tau) = #{(p, q): lam_p + lam_q < tau} + pos(C(tau)) - #{D > 0},

an exact count that Ritz values could not give: clustered eigenvalues
cannot be missed that way.  pos(C) is the sum over the two sectors, and
D > 0 at exactly the nodes of J with robin_j > c, each listed on both
edges.  For J empty the count is the number of pair sums below tau.

Bound states are zeros of the same matrix.  Below 2*lam_0, the bottom of
T_c (x) I + I (x) T_c, the first term is 0, so the j-th eigenvalue of A is
where mu_{m0+j}(tau), the (m0+j)-th largest eigenvalue of C(tau) over both
sectors with m0 = #{D > 0}, changes sign; dC/dtau = U^T B^{-2} U makes it
nondecreasing in tau.  Each zero is found by Newton's method safeguarded by
bisection, every evaluation of C is an exact count, and the eigenvector is
B^{-1} U z for the null vector z of C: one backward basis change.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla
from scipy.fft import dctn, idctn, next_fast_len
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh, eigvalsh_tridiagonal
from scipy.linalg import get_lapack_funcs, lu_factor

from .discretize import DiscreteForm, OuterBC
from .errors import ConvergenceError, FactorizationError

# Dense eigh up to this dimension.  Median of 9 solves of Step(1, 1), h = 0.2,
# outer Dirichlet, BLAS on one thread (2-vCPU VM); dense ms / shift-invert ms:
#
#     dof    k = 1        k = 2        k = 3
#      81    0.76/0.78    0.74/1.24    0.74/1.81
#     100    1.07/0.75    1.08/1.23    1.18/2.32
#     121    1.64/0.74    1.63/1.27    1.65/1.79
#     144    2.37/0.77    2.39/1.29    2.42/2.12
#     400    22.2/0.80                 22.9/2.67
#
# At large k the Lanczos basis 2k + 10 decides instead: dense once it exceeds
# a third of the dimension, k > dim/6 - 5.  Median of 5 solves of Step(1, 1),
# h = 0.1, outer Dirichlet, same VM; dense s / shift-invert s:
#
#     dof    k = dim/8     5*dim/32      3*dim/16      dim/4 - 5
#     400    0.045/0.025   0.042/0.026   0.047/0.033   0.044/0.053
#    1024    0.396/0.122   0.396/0.225   0.401/0.418   0.429/0.867
#    2116    2.335/1.494   2.547/2.536   2.633/4.178   2.487/8.186
#
# The crossover falls from between 3*dim/16 and dim/4 at 400 dof to 5*dim/32
# at 2,116 dof.  On these and intermediate samples dim/6 picks the slower
# method by at most 1.8x (400 dof, k = 68) and 1.4x (1,024 dof, k = 176).
DENSE_LIMIT = 100
# Basis changes by cosine transform from this many nodes per side, when the
# transform's FFT length (N for DCT-III, 2N for DCT-I) is 5-smooth; two GEMMs
# otherwise.  Median us of one forward plus one inverse basis change, n x n
# GEMMs / dctn + idctn, BLAS on one thread (2-vCPU VM):
#
#     nodes   DCT-III          nodes   DCT-I
#       80      93/180           81     104/223
#      120     335/352          121     365/449
#      160     770/535          161     843/829
#      200    1115/683          201    1356/1698
#      240    2649/1575         241    2682/2577
#      256    4031/1843         257    2964/2401
#      480   19409/6806         481   18157/10587
#      241    2699/22153        242    2341/29415   (N = 241 prime: Bluestein)
#
# DCT-III wins from about 160 nodes, DCT-I from about 240.
DCT_MIN_NODES = 240
MAX_ITER = 500
SHIFT_MARGIN = 1e-3  # relative gap between the shift and the certified bound
RCOND_MIN = 1e-8  # a capacitance matrix conditioned worse than this is singular
# The roots' |J|/n up to which "auto" root-finds: |J| nodes of n per side
# where sigma differs from its tail value.  An evaluation of C costs
# O(n^2 |J|), an operator application O(n^3) or, by DCT, O(n^2 log n).
# Median ms of Step(1.5, L), k = 1, outer Dirichlet, BLAS on one thread
# (2-vCPU VM); roots / shift-invert at the certified shift.  The row
# |J|/n = 1 is Constant(1.5) with c = 0, that is with every edge node in J;
# with c its tail value a constant sigma has J empty and takes the pairs.
#
#     |J|/n    n = 80 (R = 8)   n = 240 (R = 12)   n = 480 (R = 12)
#     0.1       1.58/5.41        6.79/38.0          31.9/204
#     0.25      2.19/4.99        12.3/42.3          61.8/213
#     0.4       3.65/5.79        24.0/36.8           109/214
#     0.5       5.24/6.03        25.0/45.3           144/224
#     0.6       6.73/3.73        36.6/43.0           201/222
#     0.75      8.25/5.86        54.1/51.2           294/242
#     1         13.0/6.39        90.8/52.9           487/251
#
# The crossover lies between 0.5 and 0.75 at every n.
ROOTS_MAX_ROBIN = 0.5
ROOT_XTOL = 1e-13  # a root's bracket width, relative to 1 + |tau|
ROOT_MAX_EVALS = 100  # capacitance evaluations per root
SINGULAR_RTOL = 1e-13  # count_below: eigenvalue magnitudes below this, relative, are zero


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # columns, solver basis, unit norm
    residuals: np.ndarray
    negative_count: int
    converged: tuple[bool, ...]
    form: DiscreteForm = field(repr=False)
    applications: int  # shift-invert operator applications (0 unless shift_invert)
    method: str  # the path taken: "dense", "pairs", "roots" or "shift_invert"
    shift: float | None = None  # the Lanczos shift, on the shift_invert path

    def nodal(self, i: int) -> np.ndarray:
        """Nodal values of the i-th eigenvector, unit weighted-L2 norm."""
        return self.form.to_nodal(self.eigenvectors[:, i])


def _certified_shift(F: DiscreteForm) -> float:
    """A shift strictly below the bound lambda_min(A) >= 2*lambda_min(T_r).

    r = min robin <= c keeps the bound at or below the bottom of
    T_c (x) I + I (x) T_c, so that operator minus the shift is positive
    definite.
    """
    bound = 2.0 * float(_basis(F, F.robin.min(), 1, vectors=False)[0][0])
    return bound - SHIFT_MARGIN * (1.0 + abs(bound))


def _basis(
    F: DiscreteForm, c: float, k: int | None = None, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """T_c = T + c*e0*e0^T's eigenvalues, ascending, and orthonormal
    eigenvectors (None unless vectors); when k is given, at least the
    min(k, n) lowest.

    For c != 0 they come from eigh_tridiagonal.  For c = 0,
    theta_m = a_m*pi/(2N) with a_m = 2m + 1 (outer Dirichlet) or 2m (outer
    Neumann); Q_jm = cos(j*theta_m) scaled to the orthonormal DCT-III or
    DCT-I matrix, so that Q^T X Q = dctn(X, type=3 or 1, norm="ortho").
    The cosine's argument is reduced by its integer index j*a_m mod 4N.
    """
    if c:
        t_diag = F.t_diag.copy()
        t_diag[0] += c
        select = {} if k is None or k >= F.n else {"select": "i", "select_range": (0, k - 1)}
        if not vectors:
            return eigvalsh_tridiagonal(t_diag, F.t_off, **select), None
        return eigh_tridiagonal(t_diag, F.t_off, **select)
    n, N, h = F.n, F.grid.intervals, F.grid.h
    dirichlet = F.outer_bc is OuterBC.DIRICHLET
    a = 2 * np.arange(n) + dirichlet
    lam = (2.0 * np.sin(np.pi * a / (4 * N)) / h) ** 2
    if not vectors:
        return lam, None
    cos = np.cos(np.pi / (2 * N) * np.arange(4 * N))
    # sqrt of the trapezoid weight on the rows, and on the columns for DCT-I
    w = np.ones(n)
    w[0] = np.sqrt(0.5)
    if not dirichlet:
        w[-1] = np.sqrt(0.5)
    col = np.sqrt(2.0 / N) * (1.0 if dirichlet else w)
    Q = w[:, None] * cos[np.outer(np.arange(n), a) % (4 * N)] * col
    return lam, Q


def _pair_sums(lam: np.ndarray, V: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of T_c (x) I + I (x) T_c, given T_c's.

    The k smallest pair sums lam_p + lam_q have p, q < k.  Sums are taken
    in ascending order, ties by (p, q); p < q is a double, returned as
    (V_p (x) V_q + V_q (x) V_p)/sqrt(2) and then the same with -.
    """
    p, q = np.triu_indices(min(k, lam.size))
    vals, vecs = [], []
    for i in np.lexsort((q, p, lam[p] + lam[q])):
        if len(vals) >= k:
            break
        G = np.outer(V[:, p[i]], V[:, q[i]])
        pairs = [G] if p[i] == q[i] else [(G + G.T) / np.sqrt(2.0), (G - G.T) / np.sqrt(2.0)]
        vals += [lam[p[i]] + lam[q[i]]] * len(pairs)
        vecs += [P.ravel() for P in pairs]
    return np.array(vals[:k]), np.column_stack(vecs[:k])


def _capacitance(robin: np.ndarray, Q: np.ndarray, H: np.ndarray):
    """The two sectors of the capacitance C = diag(1/D) + U^T B^{-1} U.

    B = T_c (x) I + I (x) T_c - s with T_c = Q diag(lam) Q^T is given by
    H_pq = 1/(lam_p + lam_q - s), and robin holds the edge coefficient per
    node less c, so that the form is B + s*I + U diag(D) U^T.  U lists the
    nodes (0, j) and then (j, 0) for j in J, those with robin != 0, with
    D = robin[J] on each edge; the corner, listed on both, sums to its two edge terms
    exactly as assemble builds them.  The x <-> y symmetry of B makes
    C = [[X, Y], [Y, X]], with diag(1/d), d = robin[J], inside X; the
    orthogonal [[I, I], [I, -I]]/sqrt(2) turns C into the two sectors
    X + Y and X - Y, each taken from the edge structure in O(n^2 |J|).
    Returns Q's rows at J, d and the two sectors.
    """
    J = np.flatnonzero(robin)
    QJ, d = Q[J], robin[J]
    P = QJ * Q[0]
    X = (QJ * ((Q[0] * Q[0]) @ H)) @ QJ.T + np.diag(1.0 / d)
    Y = P @ H @ P.T
    return QJ, d, (X + Y, X - Y)


def _basis_changes(F: DiscreteForm, Q: np.ndarray, c: float):
    """X -> Q^T X Q and W -> Q W Q^T for Q = _basis(F, c)[1]: for c = 0,
    2-D DCTs (type 3 for outer Dirichlet, type 1 for outer Neumann,
    norm="ortho") from DCT_MIN_NODES nodes per side when the FFT length,
    N or 2N, is 5-smooth, and two dense products otherwise."""
    N = F.grid.intervals
    kind, fft_len = (3, N) if F.outer_bc is OuterBC.DIRICHLET else (1, 2 * N)
    if not c and F.n >= DCT_MIN_NODES and next_fast_len(fft_len, real=True) == fft_len:
        return (
            partial(dctn, type=kind, norm="ortho"),
            partial(idctn, type=kind, norm="ortho", overwrite_x=True),
        )
    return (lambda X: Q.T @ X @ Q), (lambda W: Q @ W @ Q.T)


def _shift_inverse(F: DiscreteForm, shift: float, lam: np.ndarray, Q: np.ndarray):
    """x -> (A - shift*I)^{-1} x by fast diagonalisation, given
    lam, Q = _basis(F, F.robin[-1]), plus a Woodbury correction for D
    through the two capacitance sectors."""
    n, c = F.n, F.robin[-1]
    forward, backward = _basis_changes(F, Q, c)
    H = 1.0 / (lam[:, None] + lam[None, :] - shift)
    q0 = Q[0]
    QJ, d, sectors = _capacitance(F.robin - c, Q, H)
    lus = []
    for C in sectors if d.size else ():
        lu = lu_factor(C, check_finite=False)
        gecon, getrs = get_lapack_funcs(("gecon", "getrs"), (C,))
        rcond = gecon(lu[0], np.abs(C).sum(axis=0).max())[0]
        if not (np.all(np.isfinite(lu[0])) and rcond > RCOND_MIN):
            raise FactorizationError(
                f"capacitance matrix of A - {shift}*I is singular; "
                "the shift touches the spectrum"
            )
        lus.append(lu)

    def solve(x: np.ndarray) -> np.ndarray:
        W = H * forward(x.reshape(n, n))
        if lus:
            # U^T B^{-1} x = (rx, ry); with u, v the sectors' solutions for
            # rx + ry and rx - ry, C^{-1} (rx, ry) = ((u + v)/2, (u - v)/2).
            # getrs is lu_solve's LAPACK call without its checks: 1.5 us, not 19 us
            # at |J| = 10.
            rx, ry = QJ @ (q0 @ W), QJ @ (W @ q0)
            u, v = getrs(*lus[0], rx + ry)[0], getrs(*lus[1], rx - ry)[0]
            W -= H * (np.outer(q0, 0.5 * (u + v) @ QJ) + np.outer(0.5 * (u - v) @ QJ, q0))
        return backward(W).ravel()

    return solve


def _bound_states(F: DiscreteForm, k: int, lam: np.ndarray, Q: np.ndarray):
    """The lowest eigenpairs of A below top = 2*lam_0 - margin, as zeros of C.

    A sector eigenvector v of mu_b at tau gives z = (v, +-v)/sqrt(2) and
    w = B^{-1} U z, whose coefficients in T_c's basis are
    W = H o (q0 c^T +- c q0^T)/sqrt(2) with c = Q_J^T v; its slope is
    d mu_b/d tau = z^T U^T B^{-2} U z = |W|_F^2.  Newton's method runs from
    the certified shift, inside the bracket [lo_j, hi_j] of the j-th
    eigenvalue.  Every evaluation of C is an exact count, which moves the
    ends of all brackets, and a root is accepted once its bracket is
    narrower than ROOT_XTOL*(1 + |tau|).  At most pos(C) - m0 <= 2|J| - m0
    roots lie below top, which caps the branch index m0 + j.

    Returns the number of eigenvalues below top, and the roots, their lower
    bracket ends and sqrt(2)*W for the k lowest when that many lie below
    top, or for the lowest alone when fewer do.
    """
    q0 = Q[0]
    S = lam[:, None] + lam[None, :]
    robin = F.robin - F.robin[-1]
    m0 = 2 * int(np.count_nonzero(robin > 0))
    top = 2.0 * lam[0] - SHIFT_MARGIN * (1.0 + abs(2.0 * lam[0]))
    lo = hi = np.empty(0)

    def evaluate(tau):
        """C(tau)'s eigenpairs, mu descending; the count moves every bracket."""
        H = 1.0 / (S - tau)
        QJ, _, sectors = _capacitance(robin, Q, H)
        # numpy's batched eigh: a third of scipy's call overhead at |J| <= 20
        mu, vecs = np.linalg.eigh(np.stack(sectors))
        order = np.argsort(mu, axis=None)[::-1]
        below = max(int(np.count_nonzero(mu > 0)) - m0, 0)
        hi[:below] = np.minimum(hi[:below], tau)
        lo[below:] = np.maximum(lo[below:], tau)
        return tau, H, QJ, vecs, mu.ravel()[order], order, below

    def branch(ev, b):
        """mu_b at ev, its slope and sqrt(2)*W for its eigenvector."""
        tau, H, QJ, vecs, mu, order, _ = ev
        sector, i = divmod(int(order[b]), QJ.shape[0])
        G = np.outer(q0, QJ.T @ vecs[sector, :, i])
        G = H * (G - G.T if sector else G + G.T)
        return mu[b], 0.5 * float(np.vdot(G, G)), G

    count = evaluate(top)[-1]
    want = k if count >= k else min(count, 1)
    lo, hi = np.full(want, _certified_shift(F)), np.full(want, top)
    ev = evaluate(lo[0]) if want else None  # Newton's method from the left
    vals, coeffs = [], []
    for j in range(want):
        step = hi[j] - lo[j]
        for _ in range(ROOT_MAX_EVALS):
            tau = ev[0]
            f, slope, G = branch(ev, m0 + j)
            newton = f / slope if slope > 0 else np.inf
            eps = ROOT_XTOL * (1.0 + abs(tau))
            if lo[j] <= tau <= hi[j] and hi[j] - lo[j] <= eps:
                break
            # Newton's point, nudged by eps/4 across the root so that the
            # next count closes the bracket from the other side; bisection
            # when it leaves the bracket or the step does not halve
            t = tau - newton - np.copysign(0.25 * eps, f)
            if not (lo[j] < t < hi[j] and abs(newton) <= 0.5 * step):
                t = 0.5 * (lo[j] + hi[j])
            step = abs(t - tau)
            ev = evaluate(t)
        else:
            raise ConvergenceError(
                f"eigenvalue {j + 1} not bracketed to {ROOT_XTOL:g} in {ROOT_MAX_EVALS} counts"
            )
        vals.append(min(max(tau - newton, lo[j]), hi[j]))
        coeffs.append(G)
    return count, np.array(vals), lo, coeffs


def lowest_eigenpairs(
    F: DiscreteForm, k: int, tol: float = 1e-8, method: str = "auto"
) -> SpectralResult:
    """The k algebraically smallest eigenpairs of A.

    method: "auto", "dense", "roots" or "shift_invert".  "auto" takes dense
    eigh when the dimension is at most DENSE_LIMIT or when the Lanczos basis
    2k + 10 exceeds a third of the dimension.  Otherwise, with J empty
    (sigma constant on the grid) it returns the pair sums; with
    0 < |J| <= ROOTS_MAX_ROBIN*n it returns the roots when all k
    eigenvalues lie below 2*lam_0(T_c) - margin, and runs shift-invert at a
    shift just below the first root when only some do; shift-invert at the
    certified shift otherwise.  "roots" raises ValueError when fewer than k
    eigenvalues lie below 2*lam_0(T_c) - margin; "shift_invert" with a basis
    over half the dimension raises ValueError, since scipy would silently
    clamp the basis to the dimension.  SpectralResult.method and .shift
    record the path taken.
    """
    dim = F.dimension
    if not 1 <= k < dim - 1:
        raise ValueError(f"need 1 <= k < dimension-1, got k={k}, dim={dim}")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if method not in ("auto", "dense", "roots", "shift_invert"):
        raise ValueError(f"unknown method {method!r}")
    ncv = 2 * k + 10
    if method == "shift_invert" and 2 * ncv > dim:
        raise ValueError(f"shift_invert needs 2k + 10 = {ncv} <= dim/2, got dim={dim}")
    if method == "auto" and (dim <= DENSE_LIMIT or 3 * ncv > dim):
        method = "dense"

    applications = 0
    shift = None
    if method == "dense":
        vals, vecs = eigh(F.matrix.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    elif method == "auto" and np.all(F.robin == F.robin[-1]):
        method = "pairs"
        vals, vecs = _pair_sums(*_basis(F, F.robin[-1], k), k)
    else:
        c = F.robin[-1]
        lam, Q = _basis(F, c)
        robin_nodes = int(np.count_nonzero(F.robin != c))
        count = 0
        if robin_nodes and (
            method == "roots" or (method == "auto" and robin_nodes <= ROOTS_MAX_ROBIN * F.n)
        ):
            count, vals, lo, coeffs = _bound_states(F, k, lam, Q)
        if count >= k:
            method = "roots"
            _, backward = _basis_changes(F, Q, c)
            vecs = np.column_stack([backward(G).ravel() for G in coeffs])
        elif method == "roots":
            raise ValueError(
                f"roots needs k={k} eigenvalues below 2*lambda_0(T_c), found {count}"
            )
        else:
            method = "shift_invert"
            shift = _certified_shift(F)
            if count:  # an exact count puts lo[0] below the lowest eigenvalue
                shift = max(shift, lo[0] - SHIFT_MARGIN * (1.0 + abs(lo[0])))
            solve = _shift_inverse(F, shift, lam, Q)

            def opinv(x):
                nonlocal applications
                applications += 1
                return solve(x)

            # not symmetric under x <-> y, which A commutes with: a symmetric
            # start vector leaves the odd eigenvectors to rounding
            v0 = np.linspace(1.0, 2.0, dim)
            v0 /= np.linalg.norm(v0)
            try:
                vals, vecs = spla.eigsh(
                    spla.LinearOperator((dim, dim), matvec=F.apply, dtype=float),
                    k=k,
                    sigma=shift,
                    which="LM",
                    v0=v0,
                    ncv=ncv,
                    maxiter=MAX_ITER,
                    tol=0,
                    OPinv=spla.LinearOperator((dim, dim), matvec=opinv, dtype=float),
                )
            except spla.ArpackError as exc:
                raise ConvergenceError(f"shift-invert iteration failed: {exc}") from exc
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]

    # normalize, fix signs for determinism
    for i in range(k):
        w = vecs[:, i]
        w /= np.linalg.norm(w)
        j = int(np.argmax(np.abs(w)))
        if w[j] < 0:
            w = -w
        vecs[:, i] = w

    residuals = np.array(
        [np.linalg.norm(F.apply(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(k)]
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
        method=method,
        shift=shift,
    )


def count_below(F: DiscreteForm, tau: float) -> int:
    """Exact number of eigenvalues strictly below tau, by inertia.

    With T_c's eigenvalues lam, c = F.robin[-1], and the capacitance C(tau)
    over the nodes of J (robin != c), each listed on both edges, Haynsworth
    inertia additivity gives

        neg(A - tau) = #{(p, q): lam_p + lam_q < tau} + pos(C(tau))
                       - 2*#{nodes of J with robin > c},

    pos(C) summed over its two sectors and the last term counting the
    entries D = robin - c > 0, once per edge.  The split needs
    B = T_c (x) I + I (x) T_c - tau regular.  When min|lam_p + lam_q - tau|
    is below SINGULAR_RTOL relative to the largest (outer Neumann at
    tau = 0: T has the eigenvalue 0), the count is redone with c + 1/h in
    place of c, with D = robin - c - 1/h on the new J.
    When min|eig(C)| is below SINGULAR_RTOL relative to the largest, tau
    sits on an eigenvalue of A: tau is moved up by 1e-10 and the count
    retried, up to three times.  A count at such a tau lies between the
    number of eigenvalues strictly below tau and that strictly below
    tau + 3e-10.
    """
    if np.isnan(tau):
        raise ValueError("tau must not be NaN")
    t = tau
    for attempt in range(4):
        for c in F.robin[-1] + np.array([0.0, 1.0 / F.grid.h]):
            robin = F.robin - c
            lam, Q = _basis(F, c, vectors=robin.any())
            S = lam[:, None] + lam[None, :] - t
            if np.abs(S).min() < SINGULAR_RTOL * np.abs(S).max():
                continue  # B is singular at t: try the next split
            if Q is None:  # J is empty: A - t = B
                return int(np.sum(S < 0))
            _, d, sectors = _capacitance(robin, Q, 1.0 / S)
            mu = np.concatenate([eigvalsh(C, check_finite=False) for C in sectors])
            if mu.size and np.abs(mu).min() < SINGULAR_RTOL * np.abs(mu).max():
                break  # A - t is singular: move t
            return int(np.sum(S < 0) + np.sum(mu > 0) - 2 * np.sum(d > 0))
        t = tau + (attempt + 1) * 1e-10
    raise FactorizationError(
        f"zero pivot persists near tau={tau}; perturb tau and retry"
    )
