"""Lowest eigenpairs and exact below-threshold counts of a discrete form.

The assembled form is A = T (x) I + I (x) T + D_Gamma.  Every path moves
sigma's tail value into T: with c = F.robin[-1], T_c = T + c*e0*e0^T gives
A = T_c (x) I + I (x) T_c + D, D diagonal with robin_j - c at the edge
nodes (0, j) and (j, 0).  J, the nodes with robin_j != c, is empty for a
constant sigma, the paper's separable comparison problem: A's eigenpairs
are then the pair sums lam_p + lam_q and outer products of T_c's, and the
"pairs" path takes the k lowest from one tridiagonal eigenproblem.  A sigma
that vanishes at the grid's last node has c = 0, and T_0 = T.

Otherwise the path is "roots": the eigenvalues are where the capacitance
matrix C(tau) = diag(1/D) + U^T B^{-1} U turns singular, with
B = T_c (x) I + I (x) T_c - tau and U the unit vectors of the nodes in J,
the corner listed once on each edge.  With T_c = Q diag(lam) Q^T, B^{-1}
is diagonal in the basis Q (x) Q, H_pq = 1/(lam_p + lam_q - tau), so C is
formed in O(n^2 |J|) from Q's rows at J and at the corner; the x <-> y
symmetry splits it into two sectors of one edge's size.  No factor of
A - tau*I is formed.

T_0 = T is the cosine operator, so lam and Q are known in closed form:
with N intervals and theta_m = (m + 1/2)*pi/N (outer Dirichlet, n = N
nodes) or m*pi/N (outer Neumann, n = N + 1 nodes),
lam_m = (2*sin(theta_m/2)/h)^2 and Q x is the orthonormal DCT-II
(Dirichlet) or DCT-I (Neumann) of x, one numpy rfft (_cosine).  On large
grids whose FFT length is 5-smooth the backward basis change Q W Q^T, one
per eigenvector, is therefore a 2-D cosine transform, O(n^2 log n) instead
of the O(n^3) of two dense products, and C then needs Q only at the corner
and at J; DCT_MIN_NODES says where.  For c != 0, T_c is
diag(lam) + c*q*q^T in that basis, q = Q's row 0: its k lowest eigenvalues
are the zeros of the secular equation 1 + c*sum q_m^2/(lam_m - mu), one in
each interlacing bracket, and its eigenvectors Q (q/(lam - mu)).  Where
every eigenvalue of T_c is needed (the roots and counts for c != 0), dense
eigh of T_c gives its basis, and the basis change is the dense products.

Counts use the same structure.  Bordering B with the nodes in J gives
[[B, U], [U^T, -D^{-1}]], whose two Schur complements are A - tau*I and
-C(tau).  Haynsworth inertia additivity then gives

    neg(A - tau) = #{(p, q): lam_p + lam_q < tau} + pos(C(tau)) - #{D > 0},

an exact count that Ritz values could not give: clustered eigenvalues
cannot be missed that way.  pos(C) is the sum over the two sectors, and
D > 0 at exactly the nodes of J with robin_j > c, each listed on both
edges.  For J empty the count is the number of pair sums below tau.

Eigenvalues are found by slicing the spectrum with these counts (Parlett,
The Symmetric Eigenvalue Problem, ch. 3).  Between consecutive pair sums
C(tau) has no pole, and dC/dtau = U^T B^{-2} U makes each of its
eigenvalues nondecreasing there.  With P(tau) the number of pair sums below
tau and m0 = #{D > 0}, the j-th eigenvalue of A (from j = 0) is therefore
where mu_b(tau), the b-th largest eigenvalue of C(tau) over both sectors
with b = m0 + j - P(tau), changes sign.  Below 2*lam_0, the bottom of
T_c (x) I + I (x) T_c, P is 0.  Each zero is found by Newton's method on one
pole-free stretch, safeguarded by bisection; every evaluation of C is an
exact count, and the eigenvector is B^{-1} U z for the null vector z of C:
one backward basis change.  A pair mode that vanishes on J (the odd one,
when J is the corner alone) is an eigenvector of A at its pair sum that C
never sees; the counts jump there, and bisection finds it.

A sweep over Step potentials shares one pencil per L (ground_states).
With outer Dirichlet and c = 0, a form whose Robin entries on J are one
value d < 0 has D = d*I, so C(tau) = G(tau) - t*I in each sector, with
t = -1/d = h/(2*sigma) and G = U^T B^{-1} U the same for every sigma of
that J.  No pair sum lies below 0 and no entry of D is positive, so
neg(A) = #{g > t} over the eigenvalues g of G(0): one eigvalsh gives every
sigma's count.  The ground energy is where G's top eigenvalue reaches t,
and every evaluation of G is an exact count for every sigma at once.  These
values come with no eigenvector and no residual; their certificate is the
two counts at the ends of a bracket ROOT_XTOL wide, N(lo) = 0 and
N(hi) >= 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import DiscreteForm, OuterBC
from .errors import ConvergenceError, FactorizationError

# Dense eigh up to this dimension, and above it once k > 2*(dim/DENSE_LIMIT)^2.3
# (48.5 at 400 dof, 422 at 1,024, past dim/2 from 1,600): a root costs about
# 1 ms, dense eigh grows like dim^2.3.  Medians of solves of Step(1, 1), outer
# Dirichlet, BLAS on one thread (2-vCPU VM); dense ms / roots ms, h = 0.2, 9 solves:
#
#     dof    k = 1        k = 2        k = 3
#      81    1.1/0.7      1.2/1.2      1.1/1.7
#     100    2.0/0.9      1.9/1.7      1.9/2.6
#     121    3.0/1.0      3.0/1.8      2.9/2.5
#     144    3.9/1.0      4.0/1.7      4.4/2.9
#     400    40.9/1.1     39.4/1.9     39.9/3.3
#
# and dense s / roots s, h = 0.1, 5 (400 dof), 3 (1,024) and 1 (2,116) solves:
#
#      400   k = 25 0.042/0.021, 38 0.038/0.040, 50 0.041/0.051, 100 0.039/0.085
#     1024   k = 64 0.393/0.064, 256 0.405/0.231, 384 0.387/0.344, 512 0.377/0.475
#     2116   k = 132 2.599/0.194, 529 2.614/0.753, 1058 2.482/1.272
#
# The rule picks the slower method by at most about 1.25x (400 dof, k = 48).
# Below 100 dof it alone would take the roots only at k = 1, where they save
# under 0.5 ms.
DENSE_LIMIT = 100
# The backward basis change by cosine transform (_cosine) from this many
# nodes per side under outer Dirichlet (DCT-II, FFT length N) and from three
# times as many under outer Neumann (DCT-I, FFT length 2N), when the FFT
# length is 5-smooth; two GEMMs otherwise.  Median us of one inverse basis
# change, n x n GEMMs / _cosine on both axes, 61 interleaved calls, BLAS on
# one thread (2-vCPU VM):
#
#     nodes   DCT-II           nodes   DCT-I
#       80      50/153           81      57/216
#      120     171/250          121     183/531
#      160     379/390          161     409/896
#      200     687/576          201     699/1375
#      240     871/558          241     936/1753
#      256    1077/675          257    1146/1686
#      320    2057/1058         321    2144/2718
#      480    6409/2837         481    6507/6505
#      241    1264/12139        242    1129/10297   (N = 241 prime: Bluestein)
#
# The transform also spares the n x n basis: C needs Q only at the corner and
# at J.  Whole k = 1 solves of Step(1, 1), h = 0.05, GEMMs / transform, ms:
# Dirichlet 4.68/4.11 at 160 nodes, 9.20/7.32 at 240, 39.7/29.0 at 480;
# Neumann 6.86/7.00 at 201, 8.37/8.22 at 241, 36.7/30.9 at 481.
DCT_MIN_NODES = 160
SHIFT_MARGIN = 1e-3  # relative gap between a certified bound and the point taken below it
ROOT_XTOL = 1e-13  # a root's bracket width, relative to 1 + |tau|
ROOT_MAX_EVALS = 100  # capacitance evaluations per root
SECULAR_MAX_STEPS = 100  # Newton or bisection steps per eigenvalue of T_c
SINGULAR_RTOL = 1e-13  # count_below: eigenvalue magnitudes below this, relative, are zero


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # columns, solver basis, unit norm
    residuals: np.ndarray
    negative_count: int
    converged: tuple[bool, ...]
    form: DiscreteForm = field(repr=False)
    method: str  # the path taken: "dense", "pairs" or "roots"

    def nodal(self, i: int) -> np.ndarray:
        """Nodal values of the i-th eigenvector, unit weighted-L2 norm."""
        return self.form.to_nodal(self.eigenvectors[:, i])


def _certified_shift(F: DiscreteForm) -> float:
    """A point strictly below the bound lambda_min(A) >= 2*lambda_min(T_r),
    where Newton's method starts.

    With r = min_j robin_j every Robin entry is at least r, so
    A >= T_r (x) I + I (x) T_r with T_r = T + r*e0*e0^T: the paper's
    comparison with the constant strength sigma_hat, taken at the largest
    nodal sigma.  r <= c keeps the bound at or below the bottom of
    T_c (x) I + I (x) T_c.  For constant sigma the bound is the ground state
    itself, hence the margin.
    """
    bound = 2.0 * float(_basis(F, F.robin.min(), 1, vectors=False)[0][0])
    return bound - SHIFT_MARGIN * (1.0 + abs(bound))


def _basis(
    F: DiscreteForm,
    c: float,
    k: int | None = None,
    vectors: bool = True,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """T_c = T + c*e0*e0^T's eigenvalues, ascending, and orthonormal
    eigenvectors (None unless vectors; only their entries at rows, when
    given); when k is given, at least the min(k, n) lowest.

    For c = 0, theta_m = a_m*pi/(2N) with a_m = 2m + 1 (outer Dirichlet) or
    2m (outer Neumann); Q_jm = cos(j*theta_m) scaled to the orthonormal
    DCT-II or DCT-I matrix, so that Q x = _cosine(x).  The cosine's argument
    is reduced by its integer index j*a_m mod 4N.  For c != 0 and k < n,
    the k lowest come from the secular equation (_secular) in that basis;
    for c != 0 and every eigenvalue, from dense eigh of T_c.
    """
    n, N, h = F.n, F.grid.intervals, F.grid.h
    dirichlet = F.outer_bc is OuterBC.DIRICHLET
    if c and (k is None or k >= n):
        T_c = np.diag(F.t_diag) + np.diag(F.t_off, 1) + np.diag(F.t_off, -1)
        T_c[0, 0] += c
        if not vectors:
            return np.linalg.eigvalsh(T_c), None
        lam, Q = np.linalg.eigh(T_c)
        return lam, Q if rows is None else Q[rows]
    a = 2 * np.arange(n) + dirichlet
    lam = (2.0 * np.sin(np.pi * a / (4 * N)) / h) ** 2
    # sqrt of the trapezoid weight on the rows, and on the columns for DCT-I
    w = np.ones(n)
    w[0] = np.sqrt(0.5)
    if not dirichlet:
        w[-1] = np.sqrt(0.5)
    col = np.sqrt(2.0 / N) * (np.ones(n) if dirichlet else w)
    if c:
        return _secular(lam, w[0] * col, c, k, vectors, dirichlet)
    if not vectors:
        return lam, None
    j = np.arange(n) if rows is None else np.asarray(rows)
    cos = np.cos(np.pi / (2 * N) * np.arange(4 * N))
    return lam, w[j, None] * cos[np.outer(j, a) % (4 * N)] * col


def _secular(
    lam: np.ndarray, q: np.ndarray, c: float, k: int, vectors: bool, dirichlet: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The k lowest eigenpairs of diag(lam) + c*q*q^T, T_c in the cosine
    basis (q = Q's row 0, no entry 0), with the vectors taken back by Q.

    The eigenvalues are the zeros of f(mu) = 1/c + sum q^2/(lam - mu), one
    in each interlacing bracket: (lam_{i-1}, lam_i) with lam_{-1} = lam_0 + c
    for c < 0, (lam_i, lam_{i+1}) for c > 0.  f rises from below 0 to +inf
    on each, and its right end p is a pole.  Newton's method runs in
    y = 1/(p - mu), where p's term is linear (steps in mu itself took about
    1.5 times as many), with bisection whenever its point leaves the bracket; the
    eigenvector is Q (q/(lam - mu)).  One scalar loop per zero: vectorised
    over the zeros, the same steps cost several times as much at k = 1.
    """
    q2 = q * q
    eps = np.finfo(float).eps
    floor = eps * (lam[1] - lam[0])
    ends = np.concatenate(([lam[0] + c], lam))
    vals = []
    for i in range(k):
        lo, hi = (ends[i], ends[i + 1]) if c < 0 else (ends[i + 1], ends[i + 2])
        pole, mu = hi, lo + 0.5 * (hi - lo)
        for _ in range(SECULAR_MAX_STEPS):
            r = 1.0 / (lam - mu)
            f = 1.0 / c + q2 @ r
            if f > 0:
                hi = mu
            else:
                lo = mu
            d = pole - mu
            t = pole - d / (1.0 - f / (d * (q2 @ (r * r))))
            if abs(t - mu) <= 4.0 * eps * abs(t) + floor:
                break
            if not lo < t < hi:
                t = lo + 0.5 * (hi - lo)
            mu = t
        else:
            raise ConvergenceError(
                f"T_c's eigenvalue {i + 1} not found in {SECULAR_MAX_STEPS} steps"
            )
        vals.append(t)
    vals = np.array(vals)
    if not vectors:
        return vals, None
    Y = q[:, None] / (lam[:, None] - vals)
    return vals, _cosine(Y / np.linalg.norm(Y, axis=0), dirichlet)


def _cosine(x: np.ndarray, dirichlet: bool, axis: int = 0) -> np.ndarray:
    """Q x along axis, with Q the c = 0 basis of _basis: the orthonormal
    DCT-II (outer Dirichlet) or DCT-I (outer Neumann), one rfft each.

    DCT-II by Makhoul's reordering: v = x's even entries, then its odd ones
    reversed; with Z_k = exp(-i*pi*k/(2n)) rfft(v)_k, the transform is
    Re Z_k at k and -Im Z_k at n - k.  DCT-I of n = N + 1 entries is the
    real rfft of the even extension of length 2N, its end entries weighted.
    """
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    if dirichlet:  # v is a copy, and takes the result
        v = np.concatenate([x[::2], x[1::2][::-1]])
        m = n // 2 + 1
        twiddle = np.exp(-0.5j * np.pi / n * np.arange(m)).reshape((m,) + (1,) * (x.ndim - 1))
        Z = np.fft.rfft(v, axis=0)
        Z *= twiddle * np.sqrt(2.0 / n)
        v[:m] = Z.real
        v[m:] = -Z.imag[n - m : 0 : -1]
        v[0] *= np.sqrt(0.5)
        return np.moveaxis(v, 0, axis)
    e = np.concatenate([x, x[-2:0:-1]])
    e[[0, n - 1]] *= np.sqrt(2.0)
    y = np.fft.rfft(e, axis=0).real
    y /= np.sqrt(2.0 * (n - 1))
    y[[0, -1]] *= np.sqrt(0.5)
    return np.moveaxis(y, 0, axis)


def _smooth(m: int) -> bool:
    """m has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


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


def _capacitance(d: np.ndarray, edge: np.ndarray, H: np.ndarray):
    """The two sectors of the capacitance C = diag(1/D) + U^T B^{-1} U.

    B = T_c (x) I + I (x) T_c - s with T_c = Q diag(lam) Q^T is given by
    H_pq = 1/(lam_p + lam_q - s); edge holds Q's rows at the corner and then
    at J, the nodes whose edge coefficient less c, d, is not 0, so that the
    form is B + s*I + U diag(D) U^T.  U lists the nodes (0, j) and then
    (j, 0) for j in J, with D = d on each edge; the corner, listed on both,
    sums to its two edge terms exactly as assemble builds them.  The
    x <-> y symmetry of B makes C = [[X, Y], [Y, X]], with diag(1/d) inside
    X; the orthogonal [[I, I], [I, -I]]/sqrt(2) turns C into the two
    sectors X + Y and X - Y, each taken from the edge structure in
    O(n^2 |J|).
    """
    q0, QJ = edge[0], edge[1:]
    P = QJ * q0
    X = (QJ * ((q0 * q0) @ H)) @ QJ.T + np.diag(1.0 / d)
    Y = P @ H @ P.T
    return X + Y, X - Y


def _transformed(F: DiscreteForm, c: float) -> bool:
    """Whether the backward basis change W -> Q W Q^T runs as a 2-D cosine
    transform (_cosine on both axes), not as two dense products: for c = 0,
    from DCT_MIN_NODES nodes per side (DCT-II) or three times as many
    (DCT-I), when the FFT length, N or 2N, is 5-smooth."""
    N = F.grid.intervals
    dirichlet = F.outer_bc is OuterBC.DIRICHLET
    smallest = DCT_MIN_NODES if dirichlet else 3 * DCT_MIN_NODES
    return not c and F.n >= smallest and _smooth(N if dirichlet else 2 * N)


def _bound_states(F: DiscreteForm, k: int, lam: np.ndarray, edge: np.ndarray):
    """The k lowest eigenpairs of A, as zeros of C between the pair sums.

    A sector eigenvector v of mu_b at tau gives z = (v, +-v)/sqrt(2) and
    w = B^{-1} U z, whose coefficients in T_c's basis are
    W = H o (q0 c^T +- c q0^T)/sqrt(2) with c = Q_J^T v; its slope is
    d mu_b/d tau = z^T U^T B^{-2} U z = |W|_F^2.  Every evaluation of C is
    an exact count, which moves the ends of all brackets [lo_j, hi_j].  The
    first is at top = 2*lam_0 - margin; the values below top start from
    [certified shift, top], those above from [top, Weyl's bound]: the k-th
    pair sum plus D's largest entry, at most 2*max(robin - c, 0).  Newton's
    method runs from the certified shift; its point is taken only inside
    the bracket and with as many pair sums below it as below tau, so that
    no step crosses a pole, and bisection otherwise.  A root is accepted
    once its bracket is narrower than ROOT_XTOL*(1 + |tau|).

    Above top, a bracket that holds a pair sum s holds a pair mode that C
    never sees, one whose edge values on J vanish: the value is s, and its
    copies take the null space of the edge values of the modes at s in
    turn.  Otherwise the vector comes from one more evaluation at the value,
    since B^{-1} U z at a bracket end next to a pair sum is too
    ill-conditioned.

    edge holds T_c's basis at the corner and then at J.  Returns the k
    values and a multiple of W for each.
    """
    q0, QJ = edge[0], edge[1:]
    S = lam[:, None] + lam[None, :]
    robin = F.robin - F.robin[-1]
    d = robin[robin != 0]
    m0 = 2 * int(np.count_nonzero(robin > 0))
    top = 2.0 * lam[0] - SHIFT_MARGIN * (1.0 + abs(2.0 * lam[0]))
    lo = hi = np.empty(0)

    def pairs(tau):
        """#{(p, q): lam_p + lam_q < tau}."""
        return int(np.searchsorted(lam, tau - lam).sum())

    def evaluate(tau):
        """C(tau)'s eigenpairs, mu descending; the count moves every bracket."""
        H = 1.0 / (S - tau)
        sectors = _capacitance(d, edge, H)
        # one batched eigh for both sectors
        mu, vecs = np.linalg.eigh(np.stack(sectors))
        order = np.argsort(mu, axis=None)[::-1]
        below_pairs = pairs(tau)
        below = max(below_pairs + int(np.count_nonzero(mu > 0)) - m0, 0)
        hi[:below] = np.minimum(hi[:below], tau)
        lo[below:] = np.maximum(lo[below:], tau)
        return tau, H, vecs, mu.ravel()[order], order, below, below_pairs

    def branch(ev, b):
        """mu_b at ev, its slope and sqrt(2)*W for its eigenvector."""
        tau, H, vecs, mu, order, _, _ = ev
        sector, i = divmod(int(order[b]), QJ.shape[0])
        G = np.outer(q0, QJ.T @ vecs[sector, :, i])
        G = H * (G - G.T if sector else G + G.T)
        return mu[b], 0.5 * float(np.vdot(G, G)), G

    ev = evaluate(top)
    count = ev[5]
    lo, hi = np.full(k, _certified_shift(F)), np.full(k, top)
    if count < k:
        weyl = np.sort(S[:k, :k], axis=None)[k - 1] + 2.0 * max(robin.max(), 0.0)
        lo[count:] = top
        hi[count:] = weyl + SHIFT_MARGIN * (1.0 + abs(weyl))
    if count:
        ev = evaluate(lo[0])  # Newton's method from the left
    vals, coeffs = [], []
    for j in range(k):
        step = hi[j] - lo[j]
        for _ in range(ROOT_MAX_EVALS):
            tau, below_pairs = ev[0], ev[-1]
            b = m0 + j - below_pairs
            f, slope, G = branch(ev, b) if 0 <= b < ev[3].size else (0.0, 0.0, None)
            newton = f / slope if slope > 0 else np.inf
            eps = ROOT_XTOL * (1.0 + abs(tau))
            if lo[j] <= tau <= hi[j] and hi[j] - lo[j] <= eps:
                break
            # Newton's point, nudged by eps/4 across the root so that the
            # next count closes the bracket from the other side; bisection
            # when it leaves the bracket, crosses a pair sum or the step
            # does not halve
            t = tau - newton - np.copysign(0.25 * eps, f)
            if not (lo[j] < t < hi[j] and abs(newton) <= 0.5 * step and pairs(t) == below_pairs):
                t = 0.5 * (lo[j] + hi[j])
            step = abs(t - tau)
            ev = evaluate(t)
        else:
            raise ConvergenceError(
                f"eigenvalue {j + 1} not bracketed to {ROOT_XTOL:g} in {ROOT_MAX_EVALS} counts"
            )
        value = min(max(tau - newton, lo[j]), hi[j])
        if value > top:
            p, q = np.nonzero((lo[j] <= S) & (S <= hi[j]))
            if p.size:
                value = S[p[0], q[0]]
                edges = np.vstack([q0[p] * QJ[:, q], QJ[:, p] * q0[q]])
                y = np.linalg.svd(edges)[2][-1 - vals.count(value)]
                G = np.zeros_like(S)
                G[p, q] = y
            else:
                ev = evaluate(value)
                b = min(max(m0 + j - ev[-1], 0), ev[3].size - 1)
                G = branch(ev, b)[2]
        vals.append(value)
        coeffs.append(G)
    return np.array(vals), coeffs


def lowest_eigenpairs(
    F: DiscreteForm, k: int, tol: float = 1e-8, method: str = "auto"
) -> SpectralResult:
    """The k algebraically smallest eigenpairs of A.

    method: "auto", "dense" or "roots".  "auto" takes dense eigh when the
    dimension is at most DENSE_LIMIT or when k > 2*(dim/DENSE_LIMIT)^2.3,
    where dense eigh is the faster.  Otherwise it returns the pair sums when
    J is empty (sigma constant on the grid), and the roots, zeros of C
    found by slicing with exact counts, when it is not.  "roots" raises
    ValueError when J is empty, since there is no C.  SpectralResult.method
    records the path taken.
    """
    dim = F.dimension
    if not 1 <= k < dim - 1:
        raise ValueError(f"need 1 <= k < dimension-1, got k={k}, dim={dim}")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if method not in ("auto", "dense", "roots"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and (dim <= DENSE_LIMIT or k > 2.0 * (dim / DENSE_LIMIT) ** 2.3):
        method = "dense"

    c = F.robin[-1]
    if method == "dense":
        # A from its diagonal and T's off-diagonal, within and between blocks of n
        idx = np.arange(dim).reshape(F.n, F.n)
        A = np.diag(F._diagonal.ravel())
        A[idx[:, 1:], idx[:, :-1]] = A[idx[:, :-1], idx[:, 1:]] = F.t_off
        A[idx[1:], idx[:-1]] = A[idx[:-1], idx[1:]] = F.t_off[:, None]
        vals, vecs = np.linalg.eigh(A)
        vals, vecs = vals[:k], vecs[:, :k]
    elif np.all(F.robin == c):
        if method == "roots":
            raise ValueError("roots needs a node where sigma differs from its tail value")
        method = "pairs"
        vals, vecs = _pair_sums(*_basis(F, c, k), k)
    else:
        method = "roots"
        rows = np.r_[0, np.flatnonzero(F.robin != c)]
        if _transformed(F, c):  # Q's rows at the corner and at J only
            dirichlet = F.outer_bc is OuterBC.DIRICHLET
            lam, edge = _basis(F, c, rows=rows)
            vals, coeffs = _bound_states(F, k, lam, edge)
            vecs = [_cosine(_cosine(G, dirichlet, 0), dirichlet, 1) for G in coeffs]
        else:
            lam, Q = _basis(F, c)
            vals, coeffs = _bound_states(F, k, lam, Q[rows])
            vecs = [Q @ G @ Q.T for G in coeffs]
        vecs = np.column_stack([W.ravel() for W in vecs])

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
        method=method,
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
            J = np.flatnonzero(robin)
            lam, edge = _basis(F, c, vectors=J.size > 0, rows=np.r_[0, J])
            S = lam[:, None] + lam[None, :] - t
            if np.abs(S).min() < SINGULAR_RTOL * np.abs(S).max():
                continue  # B is singular at t: try the next split
            if edge is None:  # J is empty: A - t = B
                return int(np.sum(S < 0))
            d = robin[J]
            mu = np.linalg.eigvalsh(np.stack(_capacitance(d, edge, 1.0 / S))).ravel()
            if mu.size and np.abs(mu).min() < SINGULAR_RTOL * np.abs(mu).max():
                break  # A - t is singular: move t
            return int(np.sum(S < 0) + np.sum(mu > 0) - 2 * np.sum(d > 0))
        t = tau + (attempt + 1) * 1e-10
    raise FactorizationError(
        f"zero pivot persists near tau={tau}; perturb tau and retry"
    )


def ground_states(forms) -> list[tuple[float, int] | None]:
    """Each form's lowest eigenvalue and its exact count below 0, or None.

    A form with outer Dirichlet, c = 0 and one negative Robin value on J (a
    Step with sigma > 0 that ends before the last node) is solved on the
    pencil that it shares with the other such forms of its grid and J
    (_pencil).  The value is None for every other form, and for one the
    pencil leaves open: lowest_eigenpairs(F, 1) and count_below(F, 0) take
    those.
    """
    found: list = [None] * len(forms)
    groups: dict = {}
    for i, F in enumerate(forms):
        J = np.flatnonzero(F.robin)
        d = F.robin[J]
        dirichlet = F.outer_bc is OuterBC.DIRICHLET
        if dirichlet and J.size and J[-1] < F.n - 1 and d[0] < 0 and np.all(d == d[0]):
            groups.setdefault((F.grid, J.tobytes()), []).append(i)
    for members in groups.values():
        for i, pair in zip(members, _pencil([forms[i] for i in members])):
            found[i] = pair
    return found


def _pencil(forms: list[DiscreteForm]) -> list[tuple[float, int] | None]:
    """(E, count below 0) of forms that differ only in their Robin value
    d < 0 on J, with outer Dirichlet and c = 0; None where a form needs the
    general path.

    On J, C(tau) = G(tau) - t*I in each sector, with t = -1/d and G the
    capacitance without its diagonal, the same for every form.  No pair sum
    lies below 0 and no entry of D is positive, so neg(A) = #{g > t} over
    G(0)'s eigenvalues g in both sectors: one eigvalsh for every form.  A
    count where min|g - t| < SINGULAR_RTOL*max|g - t| is left to count_below.

    E is where the top of G over both sectors, increasing up to the pole
    2*lam_0, reaches t.  G is positive definite there, and 1/g is nearly
    linear in tau both far below and next to the pole, so Newton's method
    runs on 1/g - 1/t in x = sqrt(2*lam_0 - tau), with the nudge and the
    bisection of _bound_states.  Each evaluation is an exact count for every
    form, N(tau) >= 1 iff max g > t, and moves every form's bracket, which
    starts at [the strongest form's certified shift, top].  A form with
    N(top) = 0 (weak coupling: E lies above top) is left to
    lowest_eigenpairs.  Forms run from the largest t on, each from the last
    point of the one before, so that its first Newton step starts to the
    right of its root; that step is taken whenever it stays in the bracket.
    """
    F = forms[0]
    J = np.flatnonzero(F.robin)
    lam, edge = _basis(F, 0.0, rows=np.r_[0, J])
    q0, QJ = edge[0], edge[1:]
    S = lam[:, None] + lam[None, :]
    t = np.array([-1.0 / G.robin[J[0]] for G in forms])
    free = np.full(J.size, np.inf)  # _capacitance's diagonal 1/d vanishes: C = G

    g = np.linalg.eigvalsh(np.stack(_capacitance(free, edge, 1.0 / S))).ravel()
    gap = np.abs(g - t[:, None])
    counts = np.count_nonzero(g > t[:, None], axis=1)
    regular = gap.min(axis=1) >= SINGULAR_RTOL * gap.max(axis=1)

    pole = 2.0 * lam[0]
    top = pole - SHIFT_MARGIN * (1.0 + abs(pole))
    # A falls as sigma grows, so the strongest form's shift is below every form
    lo = np.full(len(forms), _certified_shift(forms[int(np.argmin(t))]))
    hi = np.full(len(forms), top)

    def evaluate(tau):
        """G's top eigenvalue at tau, over both sectors, and its slope;
        the count moves every bracket."""
        H = 1.0 / (S - tau)
        mu, vecs = np.linalg.eigh(np.stack(_capacitance(free, edge, H)))
        sector = int(mu[1, -1] > mu[0, -1])
        g = mu[sector, -1]
        hi[g > t] = np.minimum(hi[g > t], tau)
        lo[g <= t] = np.maximum(lo[g <= t], tau)
        # the slope |W|_F^2/2 of _bound_states, W = H o (q0 c^T +- c q0^T)
        c = QJ.T @ vecs[sector, :, -1]
        H *= H
        cross = (q0 * c) @ H @ (q0 * c)
        return tau, g, float((q0 * q0) @ H @ (c * c) + (-cross if sector else cross))

    ev = evaluate(top)
    solved = regular & (ev[1] > t)  # N(top) >= 1
    found: list = [None] * len(forms)
    for i in np.argsort(-t, kind="stable"):
        if not solved[i]:
            continue
        step = np.inf
        for _ in range(ROOT_MAX_EVALS):
            tau, g, slope = ev
            delta = (t[i] - g) * g / (t[i] * slope)  # Newton's step on 1/g in tau ...
            delta -= delta * delta / (4.0 * (pole - tau))  # ... and in x
            eps = ROOT_XTOL * (1.0 + abs(tau))
            if lo[i] <= tau <= hi[i] and hi[i] - lo[i] <= eps:
                break
            new = tau + delta - np.copysign(0.25 * eps, g - t[i])
            if not (lo[i] < new < hi[i] and abs(delta) <= 0.5 * step):
                new = 0.5 * (lo[i] + hi[i])
            step = abs(new - tau)
            ev = evaluate(new)
        else:
            raise ConvergenceError(
                f"ground state not bracketed to {ROOT_XTOL:g} in {ROOT_MAX_EVALS} counts"
            )
        found[i] = (float(min(max(tau + delta, lo[i]), hi[i])), int(counts[i]))
    return found
