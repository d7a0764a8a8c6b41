"""Output checks for every benchmark invocation.

Each check reads what one CLI invocation wrote and returns a list of
problems; an empty list means every solve record of the invocation is
correct.  The checks run outside the timed region and compute their
references independently of the CLI where a closed form exists.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Tolerances for comparing a preset's files with the committed ones.  The
# eigenvalues agree to the solver tolerance; quantities sampled from the
# eigenvector (decay profile and fit) to a looser relative tolerance; the
# closed-form reports to near round-off.
PRESET_RTOL = {"solve.json": 1e-8, "decay.csv": 1e-6, "decay_fit.json": 1e-6}
PRESET_RTOL_DEFAULT = 1e-9

REFINE_CONSTANT_ATOL = 1e-3  # extrapolated vs -2 sigma^2 (criterion 1)
REFINE_SANDWICH_SLACK = 2e-3  # extrapolated vs the sandwich (criterion 3)

SWEEP_HEADER = ["sigma", "L", "E_lo", "E_hi", "count_bound", "E_computed", "negative_count"]
SWEEP_DELTA = 1e-7  # inertia window, relative to 1 + |E|; 10x the solver tol


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def sandwich(sigma: float, L: float) -> tuple[float, float]:
    """Ground-energy sandwich of Step(sigma, L), in closed form."""
    lo = -2.0 * sigma ** 2
    hi = 2.0 * sigma ** 2 - 4.0 * sigma ** 2 * (1.0 - math.exp(-2.0 * sigma * L))
    return lo, max(lo, hi)


def richardson(points: list[tuple[float, float]]) -> float:
    """Observed-order extrapolation from the three finest (h, value) pairs."""
    pts = sorted(points, key=lambda p: -p[0])[-3:]
    (_, l1), (_, l2), (_, l3) = pts
    d1, d2 = l1 - l2, l2 - l3
    order = math.log2(d1 / d2)
    return l3 - d2 / (2 ** order - 1)


def solve_records(solve: dict, bc: str, tol: float, problems: list) -> dict:
    """The records of one outer BC; flags unconverged or large residuals."""
    records = solve["results"][bc]
    for h, rec in records.items():
        if not all(rec["converged"]):
            problems.append(f"h={h}: not converged")
        for lam, res in zip(rec["eigenvalues"], rec["residuals"]):
            if not res <= tol * (1.0 + abs(lam)):
                problems.append(f"h={h}: residual {res} above tol for {lam}")
    return records


class Checker:
    """Checks invocations; remembers verified sweep points across passes."""

    def __init__(self):
        self._verified: dict = {}  # (sigma, L) -> verified ground energy

    def check(self, workload: str, inv) -> list[str]:
        problems: list[str] = []
        try:
            getattr(self, f"_{workload}")(inv, problems)
        except (OSError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    # ------------------------------------------------------------ presets

    def _presets(self, inv, problems):
        ref_dir: Path = inv.spec["reference"]
        names = sorted(p.name for p in inv.out.iterdir())
        ref_names = sorted(p.name for p in ref_dir.iterdir())
        if names != ref_names:
            problems.append(f"files {names} differ from committed {ref_names}")
            return
        manifest = json.loads((inv.out / "manifest.json").read_text())
        ref_manifest = json.loads((ref_dir / "manifest.json").read_text())
        for key in ("config_sha256", "version"):
            if manifest[key] != ref_manifest[key]:
                problems.append(f"manifest {key} differs from committed")
        if sorted(manifest["outputs"]) != sorted(ref_manifest["outputs"]):
            problems.append("manifest lists other outputs than committed")
        for name, digest in manifest["outputs"].items():
            if hashlib.sha256((inv.out / name).read_bytes()).hexdigest() != digest:
                problems.append(f"manifest hash of {name} does not match the file")
        for name in names:
            if name == "manifest.json":
                continue
            rtol = PRESET_RTOL.get(name, PRESET_RTOL_DEFAULT)
            if name.endswith(".csv"):
                _compare_csv(inv.out / name, ref_dir / name, rtol, problems)
            else:
                new = json.loads((inv.out / name).read_text())
                ref = json.loads((ref_dir / name).read_text())
                _compare_tree(new, ref, rtol, name, problems)
        solve = json.loads((inv.out / "solve.json").read_text())
        for bc in solve["results"]:
            solve_records(solve, bc, inv.spec["tol"], problems)

    # ------------------------------------------------------------- refine

    def _refine(self, inv, problems):
        spec = inv.spec
        sigma, tol = spec["sigma"], spec["tol"]
        solve = json.loads((inv.out / "solve.json").read_text())
        records = solve_records(solve, "dirichlet", tol, problems)
        if sorted(float(h) for h in records) != sorted(spec["h"]):
            problems.append(f"solve records {sorted(records)} != grid {spec['h']}")
            return
        points = []
        for h, rec in records.items():
            lam = rec["eigenvalues"][0]
            if not (-32.0 * sigma ** 2 <= lam < 0 and rec["negative_count"] >= 1):
                problems.append(f"h={h}: ground energy {lam} outside [-32 sigma^2, 0)")
            points.append((float(h), lam))
        extrap = solve["richardson"]["dirichlet"].get("extrapolated")
        if extrap is None:
            problems.append(f"no Richardson extrapolation: {solve['richardson']}")
            return
        if not close(extrap, richardson(points), 1e-9):
            problems.append(f"extrapolated {extrap} does not follow from the eigenvalues")
        if spec["kind"] == "constant":
            if abs(extrap + 2.0 * sigma ** 2) > REFINE_CONSTANT_ATOL:
                problems.append(f"extrapolated {extrap} not within 1e-3 of -2 sigma^2")
        else:
            lo, hi = sandwich(sigma, spec["L"])
            if not lo - REFINE_SANDWICH_SLACK <= extrap <= hi + REFINE_SANDWICH_SLACK:
                problems.append(f"extrapolated {extrap} outside sandwich [{lo}, {hi}]")

    # -------------------------------------------------------------- sweep

    def _sweep(self, inv, problems):
        spec = inv.spec
        with open(inv.out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != SWEEP_HEADER:
            problems.append(f"header {rows[0]}")
            return
        grid = [(s, L) for s in spec["sigma"] for L in spec["L"]]
        if len(rows) - 1 != len(grid):
            problems.append(f"{len(rows) - 1} rows for {len(grid)} points")
            return
        for (sigma, L), row in zip(grid, rows[1:]):
            s, l, e_lo, e_hi, _count_bound, e, neg = row
            where = f"point ({sigma}, {L})"
            if float(s) != sigma or float(l) != L:
                problems.append(f"{where}: row is for ({s}, {l})")
                continue
            lo, hi = sandwich(sigma, L)
            if not (close(float(e_lo), lo, 1e-12) and close(float(e_hi), hi, 1e-12)):
                problems.append(f"{where}: sandwich [{e_lo}, {e_hi}] != [{lo}, {hi}]")
            E = float(e)
            if not (-32.0 * sigma ** 2 <= E < 0 and int(neg) >= 1):
                problems.append(f"{where}: energy {E}, count {neg}")
                continue
            known = self._verified.get((sigma, L))
            if known is not None:
                if not close(E, known, spec["tol"]):
                    problems.append(f"{where}: energy {E} != verified {known}")
                continue
            below, above = _inertia_bracket(sigma, L, spec["R"], spec["h"], E)
            if below != 0 or above < 1:
                problems.append(f"{where}: inertia {below}, {above} does not bracket {E}")
            else:
                self._verified[(sigma, L)] = E


def _inertia_bracket(sigma, L, R, h, E):
    """Eigenvalue counts below E - delta and E + delta on the point's grid."""
    from robinspectra.discretize import Grid, OuterBC, assemble
    from robinspectra.eigensolve import count_below
    from robinspectra.potential import Step

    F = assemble(Step(sigma, L), Grid(R, h), OuterBC.DIRICHLET)
    delta = SWEEP_DELTA * (1.0 + abs(E))
    return count_below(F, E - delta), count_below(F, E + delta)


def _compare_tree(new, ref, rtol, where, problems):
    if isinstance(ref, dict):
        if not isinstance(new, dict) or sorted(new) != sorted(ref):
            problems.append(f"{where}: keys differ")
            return
        for key in ref:
            if key != "residuals":  # noise; bounded by solve_records instead
                _compare_tree(new[key], ref[key], rtol, f"{where}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            problems.append(f"{where}: length differs")
            return
        for i, (a, b) in enumerate(zip(new, ref)):
            _compare_tree(a, b, rtol, f"{where}[{i}]", problems)
    elif isinstance(ref, (bool, str)) or ref is None:
        if new != ref:
            problems.append(f"{where}: {new!r} != {ref!r}")
    elif isinstance(new, bool) or not isinstance(new, (int, float)) or not close(new, ref, rtol):
        problems.append(f"{where}: {new!r} != {ref!r} (rtol {rtol})")


def _compare_csv(path, ref_path, rtol, problems):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(ref_path, newline="") as fh:
        ref_rows = list(csv.reader(fh))
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        problems.append(f"{path.name}: header or row count differs")
        return
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if len(row) != len(ref_row):
            problems.append(f"{path.name} row {i}: field count differs")
            continue
        for a, b in zip(row, ref_row):
            try:
                ok = close(float(a), float(b), rtol)
            except ValueError:
                ok = a == b
            if not ok:
                problems.append(f"{path.name} row {i}: {a} != {b}")
