import math

import numpy as np
import pytest
from scipy.fft import idctn
from scipy.linalg import eigh, eigh_tridiagonal

from robinspectra import eigensolve
from robinspectra.certify import crude_lower_bound
from robinspectra.discretize import Grid, OuterBC, assemble
from robinspectra.eigensolve import (
    _basis,
    _certified_shift,
    count_below,
    lowest_eigenpairs,
)
from robinspectra.errors import ConvergenceError, FactorizationError
from robinspectra.potential import BoundaryPotential, Constant, PiecewiseConstant, Step, Tabulated
from superlu_inertia import superlu_count_below

# small grids are deliberate here; silence the truncation advisory
pytestmark = pytest.mark.filterwarnings("ignore:truncation radius")


@pytest.fixture(scope="module")
def small_step_form():
    return assemble(Step(1, 1), Grid(4, 0.2), OuterBC.DIRICHLET)


def test_neumann_zero_potential_ground_mode():
    F = assemble(Constant(0.0), Grid(3, 0.25), OuterBC.NEUMANN)
    res = lowest_eigenpairs(F, 2)
    assert abs(res.eigenvalues[0]) < 1e-10
    u = res.nodal(0)
    assert np.ptp(u) < 1e-8  # constant nodal values


def test_constant_sigma_reference_value():
    F = assemble(Constant(1.0), Grid(12, 0.05), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 1)
    assert res.eigenvalues[0] == pytest.approx(-2.0, abs=0.02)
    assert res.negative_count == 1


def test_sparse_matches_dense(small_step_form):
    F = small_step_form
    sparse = lowest_eigenpairs(F, 4)
    dense = lowest_eigenpairs(F, 4, method="dense")
    assert sparse.method == "roots"
    assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() < 1e-9


# sigma = 2 on [0, 1) and 1 beyond: no cosine basis, and J != {}
TAIL = BoundaryPotential(((0, 1, 2), (1, math.inf, 1)))

# Forms that exercise each branch of the capacitance matrix and the basis.
STRUCTURED_FORMS = {
    # outer Neumann keeps the node at R, so T's last diagonal entry is halved
    "neumann_step": (Step(1, 1), OuterBC.NEUMANN),
    # the corner sits on both edges: |Gamma| = 2n - 1 and the bound is attained
    "constant_one": (Constant(1.0), OuterBC.DIRICHLET),
    # no Robin node: no capacitance matrix at all
    "constant_zero": (Constant(0.0), OuterBC.DIRICHLET),
    # sigma < 0 on part of the edge: D_Gamma has both signs
    "oscillating": (PiecewiseConstant((0.5, 1.0), (1.0, -0.4)), OuterBC.DIRICHLET),
    "tabulated": (Tabulated((1.0, 0.5, -0.2, 0.8), 0.3), OuterBC.DIRICHLET),
    # the corner is no Robin node, other edge nodes are
    "corner_off": (PiecewiseConstant((0.2, 1.0), (0.0, 1.0)), OuterBC.DIRICHLET),
    # the corner is the only Robin node, listed on both edges
    "corner_only": (PiecewiseConstant((0.1,), (-0.5,)), OuterBC.DIRICHLET),
    # sigma's tail value c != 0 moves into T_c, and J is the cells before it
    "tail": (TAIL, OuterBC.DIRICHLET),
}


@pytest.fixture(scope="module", params=sorted(STRUCTURED_FORMS))
def structured_form(request):
    p, bc = STRUCTURED_FORMS[request.param]
    F = assemble(p, Grid(4, 0.2), bc)
    return F, eigh(F.matrix.toarray(), eigvals_only=True)


def _spy_on_cosine(monkeypatch):
    """Records each backward basis change by cosine transform, by its pass
    along axis 1: T_c's own vectors (c != 0) take only axis 0."""
    calls = []
    cosine = eigensolve._cosine

    def spy(x, dirichlet, axis=0):
        if axis == 1:
            calls.append(dirichlet)
        return cosine(x, dirichlet, axis)

    monkeypatch.setattr(eigensolve, "_cosine", spy)
    return calls


@pytest.fixture
def transforms(monkeypatch):
    """The backward basis change in turn: the cosine transform at any size,
    then the two dense products at every size.  A form whose sigma does not
    vanish at the last node (c != 0) has no cosine basis, so it takes the
    dense products both times, and a form with J empty (the pair sums)
    needs no basis change."""

    def each(F):
        for kind in ("dct", "gemm"):
            monkeypatch.setattr(eigensolve, "DCT_MIN_NODES", 0 if kind == "dct" else math.inf)
            calls = _spy_on_cosine(monkeypatch)
            yield kind
            # Grid(4, 0.2) has N = 20: both FFT lengths, 20 and 40, are 5-smooth
            roots = not np.all(F.robin == F.robin[-1])
            assert bool(calls) == (kind == "dct" and F.robin[-1] == 0 and roots), kind

    return each


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("N", [20, 41, 480, 481])  # 41 is prime
def test_cosine_basis_diagonalises_T(N, bc):
    F = assemble(Constant(0.0), Grid(N * 0.1, 0.1), bc)
    lam, Q = _basis(F, 0.0)
    T = np.diag(F.t_diag) + np.diag(F.t_off, 1) + np.diag(F.t_off, -1)
    norm_T = np.linalg.norm(T, 2)
    assert np.all(np.diff(lam) > 0)
    assert np.linalg.norm(T @ Q - Q * lam, 2) <= 1e-13 * norm_T
    assert np.linalg.norm(Q.T @ Q - np.eye(F.n), 2) <= 1e-13
    assert np.abs(lam - eigh_tridiagonal(F.t_diag, F.t_off, eigvals_only=True)).max() <= 1e-13 * norm_T


# odd, even and 5-smooth lengths, and the primes 41 and 241 (Bluestein's FFT)
@pytest.mark.parametrize("n", [2, 3, 7, 16, 41, 60, 120, 241, 256])
def test_cosine_transform_matches_scipy(n):
    rng = np.random.default_rng(n)
    W = rng.standard_normal((n, n))
    for dirichlet, kind in ((True, 3), (False, 1)):  # idct-III is the DCT-II
        ref = idctn(W, type=kind, norm="ortho")
        got = eigensolve._cosine(eigensolve._cosine(W, dirichlet, 0), dirichlet, 1)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), kind
        col = eigensolve._cosine(W[:, :3], dirichlet)  # one axis, a few columns
        assert np.abs(col - idctn(W[:, :3], type=kind, axes=0, norm="ortho")).max() <= 1e-14 * n


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("sigma", [-3.0, -0.5, 0.5, 5.0])  # c = -2*sigma/h, both signs
@pytest.mark.parametrize("grid", [Grid(4, 0.2), Grid(12, 0.05)], ids=["n20", "n240"])
def test_secular_eigenpairs_match_eigh_tridiagonal(grid, sigma, bc):
    F = assemble(Constant(sigma), grid, bc)
    c = F.robin[-1]
    d = F.t_diag.copy()
    d[0] += c
    T_c = np.diag(d) + np.diag(F.t_off, 1) + np.diag(F.t_off, -1)
    norm = np.abs(eigh_tridiagonal(d, F.t_off, eigvals_only=True)).max()
    for k in range(1, 7):
        lam, V = _basis(F, c, k)
        ref = eigh_tridiagonal(d, F.t_off, eigvals_only=True, select="i", select_range=(0, k - 1))
        assert np.abs(lam - ref).max() <= 1e-13 * norm, k
        assert np.linalg.norm(T_c @ V - V * lam, 2) <= 1e-13 * norm, k
        assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-13, k


@pytest.mark.parametrize("k", [None, 3])
def test_basis_diagonalises_T_c(k):
    F = assemble(TAIL, Grid(4, 0.2), OuterBC.NEUMANN)
    c = F.robin[-1]
    lam, Q = _basis(F, c, k)
    T_c = np.diag(F.t_diag) + np.diag(F.t_off, 1) + np.diag(F.t_off, -1)
    T_c[0, 0] += c
    dense = eigh(T_c, eigvals_only=True)
    assert lam.size == (F.n if k is None else k)
    assert np.abs(lam - dense[: lam.size]).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.norm(T_c @ Q - Q * lam, 2) <= 1e-12 * np.abs(dense).max()
    assert np.linalg.norm(Q.T @ Q - np.eye(lam.size), 2) <= 1e-13


def test_shift_invert_matches_dense_eigh(structured_form, transforms):
    # "auto" on every structured form, where shift-invert Lanczos once ran:
    # the pair sums for J empty, the roots past the pair sums otherwise
    F, dense = structured_form
    for kind in transforms(F):
        res = lowest_eigenpairs(F, 4)
        assert res.method == ("pairs" if np.all(F.robin == F.robin[-1]) else "roots")
        assert np.abs(res.eigenvalues - dense[:4]).max() < 1e-9, kind


def test_certified_shift_strictly_below_spectrum(structured_form):
    F, dense = structured_form
    assert _certified_shift(F) < dense[0]


def test_certified_shift_tight_for_constant_sigma():
    F = assemble(Constant(1.0), Grid(4, 0.2), OuterBC.DIRICHLET)
    lam0 = eigh(F.matrix.toarray(), eigvals_only=True)[0]
    # the bound is the ground state, so only the margin separates them
    assert 0 < lam0 - _certified_shift(F) < 1e-2


@pytest.mark.parametrize("bc", list(OuterBC))
def test_non_smooth_fft_length_keeps_the_dense_products(bc, monkeypatch):
    # N = 41 is prime, so neither FFT length (41, 82) is 5-smooth
    F = assemble(Step(1, 1), Grid(4.1, 0.1), bc)
    monkeypatch.setattr(eigensolve, "DCT_MIN_NODES", 0)
    calls = _spy_on_cosine(monkeypatch)
    res = lowest_eigenpairs(F, 3, method="roots")
    assert not calls
    assert np.all(res.residuals <= 1e-10 * (1 + np.abs(res.eigenvalues)))


# dense from k > 2*(dim/DENSE_LIMIT)^2.3 = 48.5 at dim = 400
@pytest.mark.parametrize("k, roots", [(3, True), (48, True), (49, False), (62, False), (150, False)])
def test_auto_selects_by_dimension_and_basis(small_step_form, k, roots):
    F = small_step_form
    assert F.dimension == 400
    res = lowest_eigenpairs(F, k)
    assert res.method == ("roots" if roots else "dense")
    dense = eigh(F.matrix.toarray(), eigvals_only=True)[:k]
    assert np.abs(res.eigenvalues - dense).max() < 1e-9 * (1 + np.abs(dense).max())


def test_result_invariants(small_step_form):
    res = lowest_eigenpairs(small_step_form, 4)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    G = res.eigenvectors.T @ res.eigenvectors
    assert np.abs(G - np.eye(4)).max() < 1e-8
    for lam, r in zip(res.eigenvalues, res.residuals):
        assert r <= 1e-8 * (1 + abs(lam))
    assert all(res.converged)


# Forms for the roots beyond STRUCTURED_FORMS: sigma < 0 nodes below several
# roots (the branch index m0 + j with m0 > 0), and a corner-only sigma > 0,
# whose odd pair sums are exact eigenvalues that C never sees (3 of the 6
# lowest under outer Dirichlet).  In "negative_head_tail" sigma < c on the
# first cells, so m0 > 0 with c != 0, and the 6 lowest values all lie above
# 2*lambda_0(T_c), where #{D > 0} exceeds pos(C): the count must add the pair
# sums before it subtracts m0.
ROOT_FORMS = {
    "sign_changing": PiecewiseConstant((1.0, 1.6, 3.0), (4.0, -2.0, 4.0)),
    "negative_corner": PiecewiseConstant((0.1, 2.0), (-3.0, 5.0)),
    "corner_only_positive": PiecewiseConstant((0.1,), (3.0,)),
    "negative_head_tail": BoundaryPotential(((0, 0.6, -1.0), (0.6, math.inf, 1.5))),
}


@pytest.fixture(scope="module", params=sorted(STRUCTURED_FORMS) + sorted(ROOT_FORMS))
def root_forms(request):
    """The form under each outer BC it is listed with, and its dense spectrum."""
    if request.param in STRUCTURED_FORMS:
        p, bc = STRUCTURED_FORMS[request.param]
        bcs = [bc]
    else:
        p, bcs = ROOT_FORMS[request.param], list(OuterBC)
    forms = [assemble(p, Grid(4, 0.2), bc) for bc in bcs]
    return [(F, eigh(F.matrix.toarray(), eigvals_only=True)) for F in forms]


@pytest.mark.parametrize("dct_min_nodes", [0, math.inf], ids=["dct", "gemm"])
def test_roots_match_dense_eigh(root_forms, dct_min_nodes, monkeypatch):
    monkeypatch.setattr(eigensolve, "DCT_MIN_NODES", dct_min_nodes)
    for F, dense in root_forms:
        if np.all(F.robin == F.robin[-1]):
            # J is empty: every eigenvalue is a pair sum, and there is no C
            with pytest.raises(ValueError, match="roots needs a node"):
                lowest_eigenpairs(F, 1, method="roots")
            res = lowest_eigenpairs(F, 4)
            assert res.method == "pairs"
            assert np.abs(res.eigenvalues - dense[:4]).max() < 1e-9
            continue
        for k in range(1, 7):
            res = lowest_eigenpairs(F, k, method="roots")
            assert res.method == "roots"
            assert np.abs(res.eigenvalues - dense[:k]).max() < 1e-9
            G = res.eigenvectors.T @ res.eigenvectors
            assert np.abs(G - np.eye(k)).max() < 1e-8


def test_roots_next_to_a_pair_sum():
    # the third value, 0.1713422825, lies 5e-10 below the double pair sum
    # lambda_0 + lambda_1: the vector must come from C taken at the value,
    # not at a bracket end.  Dense eigh is too large here (57,600 dof), so
    # each value is checked by its residual and its two exact counts.
    F = assemble(Step(10, 0.1), Grid(12, 0.05), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 4)
    assert res.method == "roots"
    lam = _basis(F, 0.0)[0]
    assert 0 < lam[0] + lam[1] - res.eigenvalues[2] < 1e-9
    assert np.all(res.residuals <= 1e-11 * (1 + np.abs(res.eigenvalues)))
    for i, value in enumerate(res.eigenvalues):
        delta = 1e-9 * (1 + abs(value))
        assert count_below(F, value - delta) == i
        assert count_below(F, value + delta) == i + 1


def _swap(n, v):
    """v with x and y exchanged."""
    return v.reshape(n, n).T.ravel()


def test_pairs_on_double_eigenvalue():
    F = assemble(Constant(5.0), Grid(12, 0.1), OuterBC.DIRICHLET)
    # constant sigma separates: A = T_r (x) I + I (x) T_r, so dense eigh of the
    # 1D T_r gives every eigenvalue of A as a pair sum
    T_r = np.diag(F.t_diag) + np.diag(F.t_off, 1) + np.diag(F.t_off, -1)
    T_r[0, 0] += F.robin[0]
    mu = eigh(T_r, eigvals_only=True)
    dense = np.sort((mu[:, None] + mu[None, :]).ravel())[:4]
    assert dense[1] == pytest.approx(-23.535923, abs=1e-6)
    assert dense[2] - dense[1] < 1e-12
    res = lowest_eigenpairs(F, 4)
    assert res.method == "pairs"
    assert np.abs(res.eigenvalues - dense).max() < 1e-9
    V = res.eigenvectors
    assert np.abs(V.T @ V - np.eye(4)).max() < 1e-12
    # the double comes back as one vector even and one odd under x <-> y
    assert np.abs(_swap(F.n, V[:, 1]) - V[:, 1]).max() < 1e-12
    assert np.abs(_swap(F.n, V[:, 2]) + V[:, 2]).max() < 1e-12


def test_roots_refuse_without_enough_bound_states(small_step_form):
    # Step(1, 1) on Grid(4, 0.2) has one eigenvalue below 2*lambda_0(T), and
    # the roots find the next ones between the pair sums; only a form with
    # no node in J, and so no capacitance matrix, is refused
    assert lowest_eigenpairs(small_step_form, 2, method="roots").method == "roots"
    F = assemble(Constant(0.0), Grid(4, 0.2), OuterBC.DIRICHLET)  # no Robin node
    with pytest.raises(ValueError, match="roots needs a node where sigma differs"):
        lowest_eigenpairs(F, 1, method="roots")


def test_root_budget_is_a_convergence_error(small_step_form, monkeypatch):
    monkeypatch.setattr(eigensolve, "ROOT_MAX_EVALS", 2)
    with pytest.raises(ConvergenceError, match="eigenvalue 1 not bracketed"):
        lowest_eigenpairs(small_step_form, 1, method="roots")


def test_roots_bracketed_by_superlu_on_sweep_grid():
    # the oracle factors A - tau*I and never forms a capacitance matrix
    rng = np.random.default_rng(12)
    for sigma, L in zip(rng.uniform(1, 2, 10), rng.uniform(0.25, 2, 10)):
        F = assemble(Step(float(sigma), float(L)), Grid(8, 0.1), OuterBC.DIRICHLET)
        res = lowest_eigenpairs(F, 1)
        assert res.method == "roots"
        E = float(res.eigenvalues[0])
        delta = 1e-7 * (1 + abs(E))
        assert superlu_count_below(F, E - delta) == 0, (sigma, L)
        assert superlu_count_below(F, E + delta) == 1, (sigma, L)


def test_roots_converge_in_few_capacitance_evaluations(monkeypatch):
    # Newton's method converges quadratically only with the exact slope
    # |W|_F^2, and the nudge across each root closes its bracket at once:
    # 6 to 9 evaluations of C per point, the count at 2*lambda_0(T) included
    calls = []

    def spy(*args):
        calls.append(1)
        return capacitance(*args)

    capacitance = eigensolve._capacitance
    monkeypatch.setattr(eigensolve, "_capacitance", spy)
    rng = np.random.default_rng(11)
    for sigma, L in zip(rng.uniform(1, 2, 10), rng.uniform(0.25, 2, 10)):
        F = assemble(Step(float(sigma), float(L)), Grid(8, 0.1), OuterBC.DIRICHLET)
        calls.clear()
        assert lowest_eigenpairs(F, 1).method == "roots"
        assert len(calls) <= 10, (sigma, L)


def test_auto_keeps_the_certified_shift_for_a_whole_robin_edge(monkeypatch):
    # constant sigma puts its value in T_c, so J is empty: the pair sums of
    # one tridiagonal problem, with no Lanczos and no capacitance matrix
    def fail(*args, **kwargs):
        raise AssertionError("the roots ran on a separable form")

    monkeypatch.setattr(eigensolve, "_bound_states", fail)
    monkeypatch.setattr(eigensolve, "_capacitance", fail)
    F = assemble(Constant(1.0), Grid(8, 0.1), OuterBC.DIRICHLET)
    assert lowest_eigenpairs(F, 1).method == "pairs"


def test_auto_takes_the_roots_on_a_sweep_grid_step():
    F = assemble(Step(1.5, 1.0), Grid(8, 0.1), OuterBC.DIRICHLET)
    assert lowest_eigenpairs(F, 1).method == "roots"


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("sigma", [0.5, 1.0, 5.0])
def test_pairs_match_shift_invert(sigma, bc):
    # the pair sums against dense eigh, where shift-invert Lanczos once was
    # the reference
    F = assemble(Constant(sigma), Grid(4, 0.2), bc)
    dense = eigh(F.matrix.toarray(), eigvals_only=True)
    for k in range(1, 5):
        pairs = lowest_eigenpairs(F, k)
        assert pairs.method == "pairs"
        assert np.abs(pairs.eigenvalues - dense[:k]).max() < 1e-9, k
        assert np.all(pairs.residuals <= 1e-8 * (1 + np.abs(pairs.eigenvalues)))


def test_count_below_zero_potential():
    F = assemble(Constant(0.0), Grid(3, 0.25), OuterBC.DIRICHLET)
    assert count_below(F, -0.1) == 0


def test_count_below_constant_reference():
    F = assemble(Constant(1.0), Grid(12, 0.05), OuterBC.DIRICHLET)
    assert count_below(F, -1.0) == 1  # only the ground state sits below -sigma^2


def test_count_below_matches_dense(small_step_form):
    F = small_step_form
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    for tau in (-1.5, -0.5, 0.0, 0.3, 2.0):
        assert count_below(F, tau) == int(np.sum(vals < tau))


# Small forms for the dense count comparison, one per branch of the
# Haynsworth count.
COUNT_FORMS = {
    # no Robin node: the count is #{lam_p + lam_q < tau} alone
    "empty_gamma": (Constant(0.0), OuterBC.DIRICHLET),
    # every Robin node has D > 0
    "negative_constant": (Constant(-0.7), OuterBC.DIRICHLET),
    # nodes of both signs
    "negative_cell": (PiecewiseConstant((0.5, 1.0), (1.0, -0.4)), OuterBC.DIRICHLET),
    # C = diag(1/D) + ... is dominated by 1/D = -1e7
    "weak": (Constant(1e-8), OuterBC.DIRICHLET),
    "strong": (Constant(50.0), OuterBC.DIRICHLET),
    # outer Neumann: T has the eigenvalue 0
    "neumann_step": (Step(1, 1), OuterBC.NEUMANN),
    "neumann_zero": (Constant(0.0), OuterBC.NEUMANN),
    # the corner is no Robin node, other edge nodes are
    "corner_off": (PiecewiseConstant((0.2, 1.0), (0.0, 1.0)), OuterBC.DIRICHLET),
    # only the corner has sigma != 0, and sigma < 0: its D > 0 counts on both edges
    "corner_only": (PiecewiseConstant((0.1,), (-0.5,)), OuterBC.DIRICHLET),
    # c != 0 with J != {}, and outer Neumann
    "tail_neumann": (TAIL, OuterBC.NEUMANN),
}


@pytest.fixture(scope="module", params=sorted(COUNT_FORMS))
def count_form(request):
    p, bc = COUNT_FORMS[request.param]
    F = assemble(p, Grid(4, 0.2), bc)
    return F, eigh(F.matrix.toarray(), eigvals_only=True)


def test_count_below_matches_dense_off_eigenvalues(count_form):
    F, vals = count_form
    # midpoints of the gaps between distinct eigenvalues, plus both ends
    gaps = np.flatnonzero(np.diff(vals) > 1e-6)[::7]
    taus = [vals[0] - 1.0, *((vals[gaps] + vals[gaps + 1]) / 2), vals[-1] + 1.0]
    for tau in taus:
        assert count_below(F, tau) == int(np.sum(vals < tau)), tau


def _neumann_zero():
    # outer Neumann: T has the eigenvalue 0, so tau = 0 is one of B's
    return assemble(Constant(1.0), Grid(4, 0.2), OuterBC.NEUMANN), 0.0


def _exact_pair_sum():
    F = assemble(Step(1, 1), Grid(4, 0.2), OuterBC.DIRICHLET)
    lam, _ = _basis(F, 0.0)  # the basis count_below takes
    return F, lam[0] + lam[1]


@pytest.mark.filterwarnings("error")  # a 1/0 in H would warn
@pytest.mark.parametrize("case", [_neumann_zero, _exact_pair_sum])
def test_count_below_where_kronecker_part_is_singular(case):
    F, tau = case()  # B = T (x) I + I (x) T - tau is singular, A - tau is not
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    assert np.abs(vals - tau).min() > 1e-3
    assert count_below(F, tau) == int(np.sum(vals < tau))


def test_count_below_on_simple_eigenvalue_counts_it():
    F = assemble(Constant(1.0), Grid(4, 0.2), OuterBC.DIRICHLET)
    # constant sigma separates: A = T_r (x) I + I (x) T_r, T_r = T + r*e0*e0^T
    d = F.t_diag.copy()
    d[0] += F.robin[0]
    tau = 2.0 * eigh_tridiagonal(d, F.t_off, eigvals_only=True)[0]
    # C(tau) is singular, so tau moves up past the ground state
    assert count_below(F, tau) == 1


def test_count_below_on_double_eigenvalue(small_step_form):
    F = small_step_form
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    # the x <-> y symmetry pairs eigenvalues
    double = np.flatnonzero(np.diff(vals) < 1e-9 * (1 + np.abs(vals[1:])))
    assert double.size
    for k in double[:5]:
        tau = vals[k]
        count = count_below(F, tau)
        assert np.sum(vals < tau - 1e-9) <= count <= np.sum(vals <= tau + 1e-9), tau


def test_count_below_raises_when_perturbation_budget_runs_out(small_step_form, monkeypatch):
    monkeypatch.setattr(eigensolve, "SINGULAR_RTOL", 1.0)
    with pytest.raises(FactorizationError, match="zero pivot persists near tau=0.0"):
        count_below(small_step_form, 0.0)


def test_count_below_matches_superlu_on_sweep_grid():
    rng = np.random.default_rng(11)
    for sigma, L in zip(rng.uniform(1, 2, 10), rng.uniform(0.25, 2, 10)):
        F = assemble(Step(float(sigma), float(L)), Grid(8, 0.1), OuterBC.DIRICHLET)
        E = float(lowest_eigenpairs(F, 1).eigenvalues[0])
        delta = 1e-7 * (1 + abs(E))
        for tau in (0.0, E - delta, E + delta):
            assert count_below(F, tau) == superlu_count_below(F, tau), (sigma, L, tau)


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("sigma", [0.5, 1.0, 5.0])
def test_count_below_on_separable_forms(sigma, bc, monkeypatch):
    # J is empty: the count is the number of pair sums below tau, from T_c's
    # eigenvalues alone.  The oracle's LU without row interchanges meets a
    # zero pivot on the strong edge sigma = 5, so it checks the two weaker ones.
    F = assemble(Constant(sigma), Grid(2, 0.2), bc)
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    # no eigenvectors of T_c: neither dense eigh nor the cosine transform
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(eigensolve, "_cosine", None)
    gaps = np.flatnonzero(np.diff(vals) > 1e-6)[::5]
    for tau in (0.0, vals[0] - 1.0, *((vals[gaps] + vals[gaps + 1]) / 2)):
        assert count_below(F, tau) == int(np.sum(vals < tau)), tau
        if sigma < 5:
            assert count_below(F, tau) == superlu_count_below(F, tau), tau


@pytest.mark.parametrize("bc", list(OuterBC))
def test_count_below_matches_superlu_constant(bc):
    F = assemble(Constant(1.0), Grid(12, 0.05), bc)
    for tau in (-1.0, 0.0, 0.1):
        assert count_below(F, tau) == superlu_count_below(F, tau), tau


def test_count_below_consistent_with_negative_count(small_step_form):
    res = lowest_eigenpairs(small_step_form, 6)
    if res.eigenvalues[-1] > 0:
        assert count_below(small_step_form, 0.0) == res.negative_count


@pytest.mark.parametrize("p, method", [(Constant(1.0), "pairs"), (Step(1, 1), "roots")])
def test_solve_paths_build_no_matrix(p, method):
    # k = 3 takes the roots past the pair sums
    F = assemble(p, Grid(4, 0.2), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 3)
    assert res.method == method
    assert "matrix" not in vars(F)


def test_residual_op(small_step_form):
    res = lowest_eigenpairs(small_step_form, 2)
    w = res.eigenvectors[:, 0]
    lam = res.eigenvalues[0]
    # the reported residual is the two-norm of A w - lam w in the solver basis
    direct = np.linalg.norm(small_step_form.matrix @ w - lam * w)
    assert res.residuals[0] == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert res.residuals[0] <= 1e-10 * (1 + abs(lam))


def test_all_eigenvalues_respect_crude_bound():
    for p in (Constant(1.0), Step(0.7, 1), PiecewiseConstant((0.5, 1), (1, -0.4))):
        F = assemble(p, Grid(6, 0.1), OuterBC.NEUMANN)
        res = lowest_eigenpairs(F, 3)
        assert np.all(res.eigenvalues >= crude_lower_bound(p.ess_sup()) - 1e-6)


def test_outer_bc_monotonicity_medium():
    p = Constant(1.0)
    g = Grid(6, 0.1)
    lam_n = lowest_eigenpairs(assemble(p, g, OuterBC.NEUMANN), 3).eigenvalues
    lam_d = lowest_eigenpairs(assemble(p, g, OuterBC.DIRICHLET), 3).eigenvalues
    assert np.all(lam_n <= lam_d + 1e-9)


def test_bad_arguments(small_step_form):
    with pytest.raises(ValueError):
        lowest_eigenpairs(small_step_form, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(small_step_form, 2, tol=-1)
    with pytest.raises(ValueError):
        lowest_eigenpairs(small_step_form, 2, method="magic")
    with pytest.raises(ValueError, match="tol"):
        lowest_eigenpairs(small_step_form, 1, tol=float("nan"))
    for F in (small_step_form, assemble(Constant(1.0), Grid(4, 0.2), OuterBC.DIRICHLET)):
        with pytest.raises(ValueError, match="NaN"):
            count_below(F, float("nan"))


# The solver returns the k lowest eigenvalues, none skipped and every copy of
# a multiple one: the exact count below (just under) the k-th value sees only
# returned values, and nothing lies below the first.  These forms once caught
# shift-invert Lanczos at an ARPACK tolerance of 1e-10: it skipped the
# oscillating form's third eigenvalue and returned one copy of Constant(5)'s
# double fourth.
@pytest.mark.parametrize(
    "p, grid, bc, k",
    [
        (PiecewiseConstant((0.5, 1.0), (1.0, -0.4)), Grid(12, 0.1), OuterBC.DIRICHLET, 3),
        (Constant(5.0), Grid(12, 0.1), OuterBC.DIRICHLET, 4),
        # the second eigenvalue, -39.818338, is odd under x <-> y: a Lanczos
        # start vector even under the swap returned -39.555850 in its place
        (
            PiecewiseConstant(
                (0.48390814487617695, 1.2390735772214403), (6.006464616828136, 7.265538445350144)
            ),
            Grid(6, 0.1),
            OuterBC.NEUMANN,
            2,
        ),
    ],
    ids=["oscillating", "constant_5", "odd_second"],
)
def test_shift_invert_misses_no_eigenvalue(p, grid, bc, k):
    F = assemble(p, grid, bc)
    vals = lowest_eigenpairs(F, k).eigenvalues
    below = [lam - 1e-7 * (1 + abs(lam)) for lam in (vals[0], vals[-1])]
    assert count_below(F, below[0]) == 0
    assert count_below(F, below[1]) == np.count_nonzero(vals < below[1])
