import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from robinspectra import eigensolve
from robinspectra.certify import crude_lower_bound
from robinspectra.discretize import Grid, OuterBC, assemble
from robinspectra.eigensolve import (
    _certified_shift,
    _shift_inverse,
    count_below,
    lowest_eigenpairs,
)
from robinspectra.errors import FactorizationError
from robinspectra.potential import Constant, PiecewiseConstant, Step, Tabulated
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
    sparse = lowest_eigenpairs(F, 4, method="shift_invert")
    dense = lowest_eigenpairs(F, 4, method="dense")
    assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() < 1e-9


# Forms that exercise each branch of the structured shift-invert solve.
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
}


@pytest.fixture(scope="module", params=sorted(STRUCTURED_FORMS))
def structured_form(request):
    p, bc = STRUCTURED_FORMS[request.param]
    F = assemble(p, Grid(4, 0.2), bc)
    return F, eigh(F.matrix.toarray(), eigvals_only=True)


def test_shift_invert_matches_dense_eigh(structured_form):
    F, dense = structured_form
    res = lowest_eigenpairs(F, 4, method="shift_invert")
    assert np.abs(res.eigenvalues - dense[:4]).max() < 1e-9
    assert res.applications > 0


def test_certified_shift_strictly_below_spectrum(structured_form):
    F, dense = structured_form
    assert _certified_shift(F) < dense[0]


def test_certified_shift_tight_for_constant_sigma():
    F = assemble(Constant(1.0), Grid(4, 0.2), OuterBC.DIRICHLET)
    lam0 = eigh(F.matrix.toarray(), eigvals_only=True)[0]
    # the bound is the ground state, so only the margin separates them
    assert 0 < lam0 - _certified_shift(F) < 1e-2


def test_capacitance_breakdown_at_attained_bound():
    F = assemble(Constant(1.0), Grid(4, 0.2), OuterBC.DIRICHLET)
    lam0 = eigh(F.matrix.toarray(), eigvals_only=True)[0]
    with pytest.raises(FactorizationError, match="capacitance"):
        _shift_inverse(F, lam0)


def test_shift_inverse_solves_shifted_system(structured_form):
    F, _ = structured_form
    shift = _certified_shift(F)
    x = np.random.default_rng(3).standard_normal(F.dimension)
    y = _shift_inverse(F, shift)(x)
    assert np.linalg.norm(F.matrix @ y - shift * y - x) < 1e-10 * np.linalg.norm(x)


def test_dense_path_counts_no_applications(small_step_form):
    assert lowest_eigenpairs(small_step_form, 2, method="dense").applications == 0


def test_result_invariants(small_step_form):
    res = lowest_eigenpairs(small_step_form, 4)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    G = res.eigenvectors.T @ res.eigenvectors
    assert np.abs(G - np.eye(4)).max() < 1e-8
    for lam, r in zip(res.eigenvalues, res.residuals):
        assert r <= 1e-8 * (1 + abs(lam))
    assert all(res.converged)


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
    lam, _ = eigh_tridiagonal(F.t_diag, F.t_off)  # the call count_below makes
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
def test_count_below_matches_superlu_constant(bc):
    F = assemble(Constant(1.0), Grid(12, 0.05), bc)
    for tau in (-1.0, 0.0, 0.1):
        assert count_below(F, tau) == superlu_count_below(F, tau), tau


def test_count_below_consistent_with_negative_count(small_step_form):
    res = lowest_eigenpairs(small_step_form, 6)
    if res.eigenvalues[-1] > 0:
        assert count_below(small_step_form, 0.0) == res.negative_count


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
