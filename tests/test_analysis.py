import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from nodal import constant_ground_state, l2_distance
from robinspectra.analysis import decay_fit, richardson
from robinspectra.discretize import Grid, OuterBC, assemble
from robinspectra.eigensolve import lowest_eigenpairs
from robinspectra.errors import InapplicableError, NoAsymptoticRegimeError, UnderflowWindowError
from robinspectra.potential import Constant, Step

pytestmark = pytest.mark.filterwarnings("ignore:truncation radius")


def test_positivity_of_computed_states():
    F = assemble(Step(1, 1), Grid(8, 0.1), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 2)
    ground = res.nodal(0)
    assert np.all(ground >= -1e-10) or np.all(ground <= 1e-10)
    if res.eigenvalues[1] < 0:
        excited = res.nodal(1)
        assert excited.min() < -1e-6 and excited.max() > 1e-6


@pytest.fixture(scope="module")
def analytic_state():
    F = assemble(Constant(0.0), Grid(12, 0.1), OuterBC.DIRICHLET)
    # exp(-(x+y)) decays like exp(-sqrt(2) r) on the diagonal, exp(-r) on axes
    v = constant_ground_state(F, 1.0) / 2
    return F, v


def test_decay_fit_exact_exponential_on_diagonal(analytic_state):
    # exp(-sqrt(2) r) along the diagonal with node-aligned sampling
    F, v = analytic_state
    fit = decay_fit(F, v, -2.0, (1, 1), 3.0, 9.0, with_prefactor=False)
    assert fit.slope == pytest.approx(-math.sqrt(2), abs=1e-6)
    assert fit.r_squared > 1 - 1e-12
    assert fit.predicted_rate == -math.sqrt(2)


def test_decay_fit_axis_ray(analytic_state):
    F, v = analytic_state
    fit = decay_fit(F, v, -2.0, (1, 0), 3.0, 9.0, with_prefactor=False)
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.slope_stderr < 1e-8
    # the samples sit on nodes and are the node values themselves
    nodes = np.rint(np.asarray(fit.radii) / F.grid.h).astype(int)
    assert fit.abs_phi == tuple(np.abs(v.reshape(F.n, F.n)[nodes, 0]))


def test_decay_fit_prefactor_correction(analytic_state):
    F, v = analytic_state
    plain = decay_fit(F, v, -2.0, (1, 1), 3.0, 9.0, with_prefactor=False)
    corrected = decay_fit(F, v, -2.0, (1, 1), 3.0, 9.0, with_prefactor=True)
    # pure exponential: modelling the 1/sqrt(r) prefactor tilts the slope up
    assert corrected.slope > plain.slope


def test_decay_fit_window_validation(analytic_state):
    F, v = analytic_state
    with pytest.raises(ValueError):
        decay_fit(F, v, -2.0, (1, 1), 3.0, 11.0)  # beyond R - 2
    with pytest.raises(ValueError):
        decay_fit(F, v, -2.0, (1, 1), 9.0, 3.0)
    with pytest.raises(ValueError):
        decay_fit(F, v, -2.0, (0, 0), 3.0, 9.0)
    with pytest.raises(ValueError):
        decay_fit(F, v, -2.0, (1, -1), 3.0, 9.0)
    with pytest.raises(InapplicableError):
        decay_fit(F, v, 1.0, (1, 1), 3.0, 9.0)  # positive energy
    Fc = assemble(Constant(1.0), Grid(12, 0.1), OuterBC.DIRICHLET)
    with pytest.raises(InapplicableError, match="compactly supported"):
        decay_fit(Fc, v, -2.0, (1, 1), 3.0, 9.0)  # infinite support
    Fs = assemble(Step(1, 1), Grid(12, 0.1), OuterBC.DIRICHLET)
    with pytest.raises(ValueError, match="support_bound"):
        decay_fit(Fs, v, -1.0, (1, 1), 1.5, 9.0)
    with pytest.raises(ValueError, match="10 sample"):
        decay_fit(F, v, -2.0, (1, 0), 3.0, 3.5)  # six nodes h apart


def test_decay_fit_underflow(analytic_state):
    F, _ = analytic_state
    tiny = constant_ground_state(F, 4.0) / 8
    with pytest.raises(UnderflowWindowError):
        decay_fit(F, tiny, -2.0, (1, 1), 3.0, 9.0)


def test_truncation_bracket_orders():
    def bracket(R):
        return [
            lowest_eigenpairs(assemble(Step(1, 1), Grid(R, 0.2), bc), 2).eigenvalues
            for bc in (OuterBC.NEUMANN, OuterBC.DIRICHLET)
        ]

    lo, hi = bracket(8)
    assert np.all(lo <= hi + 1e-10)
    # the bracket tightens as R grows
    lo2, hi2 = bracket(10)
    assert hi2[0] - lo2[0] <= hi[0] - lo[0] + 1e-12


def test_richardson_synthetic_second_order():
    pts = [(h, -2.0 + 3.0 * h**2) for h in (0.2, 0.1, 0.05)]
    study = richardson(pts)
    assert study.order == pytest.approx(2.0, abs=1e-10)
    assert study.extrapolated == pytest.approx(-2.0, abs=1e-10)


def test_richardson_synthetic_first_order():
    pts = [(h, 5.0 + 0.7 * h) for h in (0.4, 0.2, 0.1)]
    study = richardson(pts)
    assert study.order == pytest.approx(1.0, abs=1e-10)
    assert study.extrapolated == pytest.approx(5.0, abs=1e-10)


def test_richardson_uses_finest_triple():
    # given out of order: the finest triple is (0.4, 0.2, 0.1) once sorted
    pts = [(h, -1.0 + h**2) for h in (0.2, 0.8, 0.1, 0.4)]
    study = richardson(pts)
    assert study.extrapolated == pytest.approx(-1.0, abs=1e-12)


def test_richardson_rejections():
    with pytest.raises(ValueError):
        richardson([(0.2, -1.9), (0.1, -1.95)])
    with pytest.raises(ValueError):
        richardson([(0.3, -1.9), (0.1, -1.95), (0.05, -1.97)])
    with pytest.raises(NoAsymptoticRegimeError):
        richardson([(0.2, -1.9), (0.1, -1.95), (0.05, -1.93)])
    with pytest.raises(NoAsymptoticRegimeError):
        richardson([(0.2, -1.9), (0.1, -1.95), (0.05, -2.05)])


def test_l2_distance():
    F = assemble(Constant(0.0), Grid(2, 0.25), OuterBC.NEUMANN)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(F.dimension)
    assert l2_distance(F, u, u) < 1e-12
    assert l2_distance(F, u, -u) < 1e-12  # sign-aligned
    assert l2_distance(F, u, 7.5 * u) < 1e-12  # scale-invariant
    v = rng.standard_normal(F.dimension)
    d = l2_distance(F, u, v)
    assert 0 < d <= 2 + 1e-12
    assert d == pytest.approx(l2_distance(F, v, u), abs=1e-12)


def test_decay_fit_off_node_ray_is_bilinear(analytic_state):
    # the ray (2, 1) passes between nodes, so every sample is interpolated
    F, v = analytic_state
    fit = decay_fit(F, v, -2.0, (2, 1), 3.0, 9.0, with_prefactor=False)
    coords = F.grid.coords(F.outer_bc)
    interp = RegularGridInterpolator((coords, coords), v.reshape(F.n, F.n), method="linear")
    ref = interp(np.outer(fit.radii, np.array([2.0, 1.0]) / math.sqrt(5.0)))
    np.testing.assert_allclose(fit.abs_phi, np.abs(ref), rtol=1e-13, atol=0)
