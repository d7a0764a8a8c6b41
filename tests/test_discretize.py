import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from robinspectra.analysis import richardson
from nodal import constant_ground_state
from robinspectra.discretize import Grid, OuterBC, assemble
from robinspectra.eigensolve import lowest_eigenpairs
from robinspectra.potential import Constant, PiecewiseConstant, Step, Tabulated

# small grids are deliberate here; silence the truncation advisory
pytestmark = pytest.mark.filterwarnings("ignore:truncation radius")


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.3)
    g = Grid(6.0, 0.1)
    assert g.intervals == 60
    assert g.npts(OuterBC.NEUMANN) == 61
    assert g.npts(OuterBC.DIRICHLET) == 60


def test_symmetry_exact():
    for p in (Constant(1.0), Step(0.7, 1.0)):
        for bc in OuterBC:
            F = assemble(p, Grid(3, 0.25), bc)
            assert abs(F.matrix - F.matrix.T).max() == 0.0


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("p", [Step(0.7, 1), PiecewiseConstant((0.5, 1), (1, -0.4))])
def test_form_matches_trapezoid_quadrature(p, bc):
    g = Grid(3, 0.25)
    F = assemble(p, g, bc)
    n, h = F.n, g.h
    u = np.random.default_rng(7).standard_normal((n, n))
    w1 = np.ones(n)
    w1[0] = 0.5
    if bc is OuterBC.NEUMANN:
        w1[-1] = 0.5
    # edge differences along x and y, each weighted by the transverse w1
    q = np.sum(w1[None, :] * np.diff(u, axis=0) ** 2)
    q += np.sum(w1[:, None] * np.diff(u, axis=1) ** 2)
    if bc is OuterBC.DIRICHLET:
        # edges from the last kept layer to the eliminated zero layer at R
        q += np.sum(w1 * u[-1, :] ** 2) + np.sum(w1 * u[:, -1] ** 2)
    sigma = np.array([p.eval(float(y)) for y in g.coords(bc)])
    q -= h * np.sum(sigma * w1 * (u[0, :] ** 2 + u[:, 0] ** 2))
    w = F.scale * u.ravel()
    assert float(w @ (F.matrix @ w)) == pytest.approx(q, rel=1e-12)


# One potential of each kind, under the name of the constructor that built
# it (the test id); nodes fall on cell edges (y = 1.0, 0.5, 0.3).
EVERY_KIND = [
    ("Constant", Constant(0.8)),
    ("Constant", Constant(0.0)),
    ("Step", Step(1.3, 1.0)),
    ("PiecewiseConstant", PiecewiseConstant((0.5, 1.0, 2.0), (1.0, 0.0, -0.4))),
    ("Tabulated", Tabulated(tuple(np.random.default_rng(5).uniform(-1, 2, 1000)), 0.003)),
]


def _sup_case(kind, p, h):
    return pytest.param(p, h, id=f"{kind}({p.ess_sup():.16g})-{h}")


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize("p", [pytest.param(p, id=kind) for kind, p in EVERY_KIND])
def test_robin_sampling_matches_per_node_scan(p, bc):
    g = Grid(4, 0.1)
    F = assemble(p, g, bc)
    # the per-node linear scan over [lo, hi) cells that the sorted search replaced
    scan = [
        next((v for lo, hi, v in p.cells if lo <= y < hi), 0.0)
        for y in map(float, g.coords(bc))
    ]
    expected = np.array([-2.0 * s / g.h for s in scan])
    assert np.array_equal(F.robin, expected)  # bitwise
    assert np.array_equal(p.eval(g.coords(bc)), scan)


@pytest.mark.parametrize("bc", list(OuterBC))
@pytest.mark.parametrize(
    "p, h",
    [
        *(_sup_case(kind, p, 0.1) for kind, p in EVERY_KIND),
        # sigma(0) = 1/h: the corner's diagonal 4/h^2 - 4*sigma/h cancels, to
        # rounding at h = 0.1 and to an exact 0 (not stored) at h = 0.25,
        # where sigma is 1/h as the rounded T's diagonal gives it
        _sup_case("Constant", Constant(10.0), 0.1),
        _sup_case("Constant", Constant(3.999999999999999), 0.25),
    ],
)
def test_matrix_matches_kronsum_reference(p, h, bc):
    F = assemble(p, Grid(4, h), bc)
    assert "matrix" not in vars(F)  # built on first use
    T = sp.diags([F.t_off, F.t_diag, F.t_off], [-1, 0, 1])
    gamma = np.zeros((F.n, F.n))
    gamma[0, :] += F.robin
    gamma[:, 0] += F.robin
    ref = (sp.kronsum(T, T) + sp.diags(gamma.ravel())).tocsr()
    A = F.matrix
    assert type(A) is type(ref) and A.indices.dtype == ref.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):  # bitwise
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name
    for w in np.random.default_rng(3).standard_normal((3, F.dimension)):
        assert np.array_equal(F.apply(w), A @ w)  # bitwise


def test_at_most_five_nonzeros_per_row():
    F = assemble(Step(1, 1), Grid(4, 0.1), OuterBC.NEUMANN)
    row_counts = np.diff(F.matrix.indptr)
    assert row_counts.max() <= 5


def test_zero_potential_neumann_kernel():
    F = assemble(Constant(0.0), Grid(3, 0.25), OuterBC.NEUMANN)
    # constant nodal values map to the kernel of the scaled matrix
    assert np.abs(F.matrix @ F.scale).max() < 1e-10
    # and the form itself is positive semi-definite
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    assert vals[0] > -1e-9


def test_zero_potential_dirichlet_positive_definite():
    F = assemble(Constant(0.0), Grid(3, 0.25), OuterBC.DIRICHLET)
    vals = eigh(F.matrix.toarray(), eigvals_only=True)
    assert vals[0] > 1e-6


def test_constant_sigma_exact_discrete_eigenvalue():
    # ghost-eliminated scheme admits a separable exact solution whose ground
    # eigenvalue is -2*sigma^2 + sigma^4*h^2/2 + O(h^4) before truncation
    sigma, h = 1.0, 0.2
    F = assemble(Constant(sigma), Grid(8, h), OuterBC.DIRICHLET)
    lam = lowest_eigenpairs(F, 1).eigenvalues[0]
    rho = -h * sigma + math.sqrt(1 + h**2 * sigma**2)
    lam_1d = (2 - 2 * math.sqrt(1 + h**2 * sigma**2)) / h**2
    assert rho < 1
    assert lam == pytest.approx(2 * lam_1d, abs=1e-5)


def _quotient(A, w):
    return float(w @ (A @ w)) / float(w @ w)


def test_rayleigh_of_injected_ground_state():
    F = assemble(Constant(1.0), Grid(12, 0.05), OuterBC.DIRICHLET)
    v = constant_ground_state(F, 1.0)
    assert abs(_quotient(F.matrix, F.scale * v) + 2) < 0.01


def test_rayleigh_reproduces_eigenvalue():
    F = assemble(Step(1, 1), Grid(4, 0.2), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 2)
    w = res.eigenvectors[:, 0]
    assert _quotient(F.matrix, w) == pytest.approx(res.eigenvalues[0], abs=1e-12)
    u = res.nodal(0)
    assert _quotient(F.matrix, F.scale * u) == pytest.approx(
        res.eigenvalues[0], abs=1e-12
    )


def test_zero_potential_rayleigh_nonnegative():
    F = assemble(Constant(0.0), Grid(3, 0.25), OuterBC.NEUMANN)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(F.dimension)
        assert _quotient(F.matrix, v) >= -1e-12


def test_outer_bc_bracketing_dense():
    p = Step(1, 1)
    g = Grid(5, 0.25)
    lam_n = eigh(assemble(p, g, OuterBC.NEUMANN).matrix.toarray(), eigvals_only=True)
    lam_d = eigh(assemble(p, g, OuterBC.DIRICHLET).matrix.toarray(), eigvals_only=True)
    for m in range(6):
        assert lam_n[m] <= lam_d[m] + 1e-12


def test_consistency_order_second():
    p = Constant(1.0)
    pts = []
    for h in (0.2, 0.1, 0.05):
        F = assemble(p, Grid(8, h), OuterBC.DIRICHLET)
        pts.append((h, float(lowest_eigenpairs(F, 1).eigenvalues[0])))
    study = richardson(pts)
    assert 1.7 <= study.order <= 2.3


def test_form_monotone_in_sigma():
    g = Grid(4, 0.2)
    chain = [Step(0.4, 1), Step(0.8, 1), Step(1.2, 1)]
    spectra = [
        eigh(assemble(p, g, OuterBC.DIRICHLET).matrix.toarray(), eigvals_only=True)
        for p in chain
    ]
    for a, b in zip(spectra, spectra[1:]):
        assert np.all(b <= a + 1e-10)


def test_truncation_warning():
    with pytest.warns(UserWarning, match="truncation radius"):
        assemble(Step(0.2, 1), Grid(4, 0.2), OuterBC.DIRICHLET)

