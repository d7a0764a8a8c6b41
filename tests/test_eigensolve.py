import numpy as np
import pytest
from scipy.linalg import eigh

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
