"""End-to-end checks of the headline quantitative claims.

Each test records one labelled pass/fail line (printed in the terminal
summary) and asserts the corresponding tolerance.  The heavy Dirichlet
refinement studies are shared through module-scoped fixtures.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nodal import constant_ground_state, l2_distance
from robinspectra.analysis import decay_fit, richardson
from robinspectra.analytic1d import (
    _ground,
    _levels,
    constant_reference,
    kappa_residual,
    root_function,
)
from robinspectra.certify import bound_state_certificate, kinetic_term, negative_count_bound
from robinspectra.cli import main
from robinspectra.discretize import Grid, OuterBC, assemble
from robinspectra.eigensolve import count_below, lowest_eigenpairs
from robinspectra.potential import Constant, PiecewiseConstant, Step

pytestmark = pytest.mark.filterwarnings("ignore:truncation radius")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COMMITTED_OUT = CONFIG_DIR.parent / "out"

# Agreement with the committed preset outputs, as in the benchmark's check:
# eigenvalues to the solver tolerance, eigenvector samples looser, the
# closed-form reports near round-off.  Residuals are solver noise.
COMMITTED_RTOL = {"solve.json": 1e-8, "decay.csv": 1e-6, "decay_fit.json": 1e-6}
COMMITTED_RTOL_DEFAULT = 1e-9

OSCILLATING = PiecewiseConstant((0.5, 1.0), (1.0, -0.4))


def _refinement_study(p, R=12.0, hs=(0.1, 0.05, 0.025)):
    """Dirichlet ground eigenpairs over a ratio-2 refinement chain."""
    results = {}
    for h in hs:
        F = assemble(p, Grid(R, h), OuterBC.DIRICHLET)
        results[h] = lowest_eigenpairs(F, 1)
    return results


@pytest.fixture(scope="module")
def constant_study():
    return _refinement_study(Constant(1.0))


@pytest.fixture(scope="module")
def step_study():
    return _refinement_study(Step(1.0, 1.0))


def _extrapolated(study):
    pts = [(h, float(res.eigenvalues[0])) for h, res in study.items()]
    return richardson(pts).extrapolated


def test_criterion_1_constant_reference(constant_study, acceptance_record):
    extrap = _extrapolated(constant_study)
    ref = constant_reference(Constant(1.0))
    res = constant_study[0.025]
    F = res.form
    analytic = constant_ground_state(F, ref.sigma)
    dist = l2_distance(F, res.nodal(0), analytic)
    ok = abs(extrap - ref.ground_energy) <= 1e-3 and dist <= 1e-2
    acceptance_record(
        "1 constant reference",
        ok,
        f"extrapolated={extrap:.6f}, state distance={dist:.2e}",
    )


@pytest.fixture(scope="module")
def bracket_pairs():
    pairs = {}
    for R in (8.0, 12.0):
        lo = lowest_eigenpairs(
            assemble(Constant(1.0), Grid(R, 0.05), OuterBC.NEUMANN), 1
        ).eigenvalues[0]
        hi = lowest_eigenpairs(
            assemble(Constant(1.0), Grid(R, 0.05), OuterBC.DIRICHLET), 1
        ).eigenvalues[0]
        pairs[R] = (float(lo), float(hi))
    return pairs


def test_criterion_2_bracket_width(bracket_pairs, acceptance_record):
    w8 = bracket_pairs[8.0][1] - bracket_pairs[8.0][0]
    w12 = bracket_pairs[12.0][1] - bracket_pairs[12.0][0]
    acceptance_record(
        "2 bracket width",
        0 <= w12 <= w8,
        f"width(R=12)={w12:.3e} <= width(R=8)={w8:.3e}",
    )


def test_criterion_2_bracket_enclosure(bracket_pairs, acceptance_record):
    # Known limitation: both truncations carry the same O(h^2) consistency
    # shift (about +1.25e-3 at h=0.05), which dwarfs the exponentially small
    # truncation gap, so the pair sits strictly above the continuum value.
    lo, hi = bracket_pairs[12.0]
    acceptance_record(
        "2 bracket encloses -2",
        lo <= -2.0 <= hi,
        f"[{lo:.6f}, {hi:.6f}]",
    )


def test_criterion_3_sandwich(constant_study, step_study, acceptance_record):
    e_step = _extrapolated(step_study)
    e_const = _extrapolated(constant_study)
    hi = -2.0 + 4.0 * math.exp(-2.0)
    ok_step = -2.0 - 2e-3 <= e_step <= hi + 2e-3
    ok_const = abs(e_const - (-2.0)) <= 1e-3
    acceptance_record(
        "3 sandwich bound",
        ok_step and ok_const,
        f"step={e_step:.6f} in [-2.002, {hi + 2e-3:.6f}], constant={e_const:.6f}",
    )


def test_criterion_4_crude_bound(constant_study, step_study, acceptance_record):
    worst = math.inf
    for p, study in [
        (Constant(1.0), constant_study),
        (Step(1.0, 1.0), step_study),
    ]:
        floor = -32.0 * p.ess_sup() ** 2
        for res in study.values():
            worst = min(worst, float(res.eigenvalues.min()) - floor)
    F = assemble(OSCILLATING, Grid(8, 0.1), OuterBC.DIRICHLET)
    res = lowest_eigenpairs(F, 3)
    worst = min(worst, float(res.eigenvalues.min()) + 32.0 * OSCILLATING.ess_sup() ** 2)
    acceptance_record(
        "4 crude lower bound",
        worst >= -1e-6,
        f"min margin above -32*sigma_hat^2 is {worst:.3e}",
    )


def test_criterion_5_certificate(acceptance_record):
    cert = bound_state_certificate(OSCILLATING, 40)
    ok = cert is not None
    detail = "no certificate"
    if ok:
        n, q = cert
        F = assemble(OSCILLATING, Grid(8, 0.1), OuterBC.DIRICHLET)
        e0 = float(lowest_eigenpairs(F, 1).eigenvalues[0])
        kin_ok = abs(kinetic_term(1.0 / n) - math.pi / (8 * n)) <= 1e-14
        ok = q < 0 and e0 < 0 and kin_ok
        detail = f"n={n}, q={q:.4f}, computed E0={e0:.4f}"
    acceptance_record("5 bound-state certificate", ok, detail)


def test_criterion_6_counting(acceptance_record):
    cases = [Step(1.0, 1.0), Step(0.5, 1.0), Step(0.5, 2.0), Step(2.0, 1.0), OSCILLATING]
    ok = True
    details = []
    for p in cases:
        bound = negative_count_bound(p)
        F = assemble(p, Grid(8, 0.1), OuterBC.DIRICHLET)
        count = count_below(F, 0.0)
        ok = ok and bound is not None and count <= bound
        details.append(f"{count}<={bound}")
    small = count_below(
        assemble(Step(0.5, 1.0), Grid(8, 0.1), OuterBC.DIRICHLET), 0.0
    )
    ok = ok and small == 1
    acceptance_record(
        "6 counting consistency",
        ok,
        f"counts vs bounds {details}, small-sigma count={small}",
    )


def test_criterion_7_transcendental(acceptance_record):
    ok = True
    for sigma_hat, L in [(0.3, 1.0), (1.0, 1.0), (2.0, 1.0), (0.9, 2.0)]:
        kappa, _ = _ground(sigma_hat, L)
        ok = ok and abs(kappa_residual(kappa, sigma_hat, L)) < 1e-10
        if sigma_hat <= 2.0 / L:
            for k, _ in _levels(sigma_hat, L, 12.0):
                ok = ok and abs(root_function(k, sigma_hat, L)) < 1e-10 * (
                    1 + sigma_hat**2 + k**2
                )
    roots = [k for k, _ in _levels(1e-8, 1.0, 12.0)]
    neumann = max(
        abs(k - (n + 1) * math.pi) for n, k in enumerate(roots[:3])
    )
    ok = ok and neumann <= 1e-4
    halfline = abs(_ground(1.0, 50.0)[0] - 1.0)
    ok = ok and halfline <= 1e-10
    acceptance_record(
        "7 1d transcendental solvers",
        ok,
        f"Neumann-limit error={neumann:.1e}, half-line error={halfline:.1e}",
    )


def test_criterion_8_decay(step_study, acceptance_record):
    # analytic constant-sigma state on a potential-free grid
    F0 = assemble(Constant(0.0), Grid(12, 0.05), OuterBC.DIRICHLET)
    v0 = constant_ground_state(F0, 1.0)
    diag = decay_fit(F0, v0, -2.0, (1, 1), 3.0, 9.0, with_prefactor=False)
    axis = decay_fit(F0, v0, -2.0, (1, 0), 3.0, 9.0, with_prefactor=False)
    ok = abs(diag.slope + math.sqrt(2.0)) <= 1e-6 and abs(axis.slope + 1.0) <= 1e-6

    res = step_study[0.025]
    e_num = float(res.eigenvalues[0])
    fit = decay_fit(res.form, res.nodal(0), e_num, (1, 1), 3.0, 9.0)
    rate = math.sqrt(abs(e_num))
    rel = abs(abs(fit.slope) - rate) / rate
    ok = ok and rel <= 0.05 and fit.r_squared >= 0.999
    acceptance_record(
        "8 exponential decay",
        ok,
        f"diag={diag.slope:.8f}, axis={axis.slope:.8f}, "
        f"step rate off by {100 * rel:.2f}%, r2={fit.r_squared:.6f}",
    )


def test_criterion_9_oracle_equivalence(acceptance_record):
    from scipy.linalg import eigh

    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 4))
        breaks = tuple(np.round(np.sort(rng.uniform(0.3, 2.5, m)), 3))
        values = tuple(np.round(rng.uniform(-1.5, 1.5, m), 3))
        p = PiecewiseConstant(breaks, values)
        F = assemble(p, Grid(4, 0.2), OuterBC.DIRICHLET)
        assert F.dimension <= 2000
        roots = lowest_eigenpairs(F, 4)
        dense_vals = eigh(F.matrix.toarray(), eigvals_only=True)
        ok = ok and roots.method == "roots"
        worst = max(worst, float(np.abs(roots.eigenvalues - dense_vals[:4]).max()))
        for tau in (-0.5, 0.0, 0.4):
            ok = ok and count_below(F, tau) == int(np.sum(dense_vals < tau))
    ok = ok and worst <= 1e-9
    acceptance_record(
        "9 sparse/dense oracle",
        ok,
        f"max eigenvalue deviation {worst:.2e}, counts exact",
    )


def _matches(new, ref, rtol):
    """Parsed JSON or CSV values agree, numbers to rtol relative to 1 + |ref|."""
    if isinstance(ref, dict):
        return (
            isinstance(new, dict)
            and sorted(new) == sorted(ref)
            and all(k == "residuals" or _matches(new[k], ref[k], rtol) for k in ref)
        )
    if isinstance(ref, list):
        return (
            isinstance(new, list)
            and len(new) == len(ref)
            and all(_matches(a, b, rtol) for a, b in zip(new, ref))
        )
    if isinstance(ref, (bool, str)) or ref is None:
        return new == ref
    return (
        isinstance(new, (int, float))
        and not isinstance(new, bool)
        and abs(new - ref) <= rtol * (1.0 + abs(ref))
    )


def _load_output(path):
    if path.suffix == ".csv":
        def cell(x):
            try:
                return float(x)
            except ValueError:
                return x

        return [[cell(x) for x in line.split(",")] for line in path.read_text().splitlines()]
    obj = json.loads(path.read_text())
    if path.name == "manifest.json":  # hashes of noisy files differ across machines
        obj["outputs"] = sorted(obj["outputs"])
    return obj


def _differs_from_committed(out, ref_dir):
    names = sorted(p.name for p in out.iterdir())
    if names != sorted(p.name for p in ref_dir.iterdir()):
        return ["file set"]
    return [
        name
        for name in names
        if not _matches(
            _load_output(out / name),
            _load_output(ref_dir / name),
            COMMITTED_RTOL.get(name, COMMITTED_RTOL_DEFAULT),
        )
    ]


def test_criterion_10_determinism(tmp_path, acceptance_record):
    ok = True
    details = []
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        out1 = tmp_path / f"{cfg.stem}_1"
        out2 = tmp_path / f"{cfg.stem}_2"
        for out in (out1, out2):
            code = main(["run", "--config", str(cfg), "--out", str(out)])
            ok = ok and code == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        same = names1 == names2 and all(
            (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
        )
        differs = _differs_from_committed(out1, COMMITTED_OUT / cfg.stem)
        ok = ok and same and not differs
        details.append(
            f"{cfg.stem}:{'identical' if same else 'DIFFERS'}, "
            f"committed {'DIFFERS in ' + '/'.join(differs) if differs else 'agrees'}"
        )
    acceptance_record("10 determinism", ok, "; ".join(details))
