"""Configuration-driven command line entry point.

A single JSON config file describes the potential, the grid, the solver and
the requested tasks; every command writes its results (JSON for reports,
CSV for tables) into the output directory together with a manifest listing
each output file with a content hash.  Identical configs produce
byte-identical result files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .analytic1d import constant_reference, interval_spectrum, kappa_residual, root_function
from .analysis import decay_fit, richardson
from .certify import (
    bound_state_certificate,
    full_report,
    ground_energy_sandwich,
    kinetic_term,
    negative_count_bound,
)
from .discretize import Grid, OuterBC, assemble
from .eigensolve import count_below, lowest_eigenpairs
from .errors import (
    ConfigError,
    ConvergenceError,
    FactorizationError,
    InapplicableError,
    NoAsymptoticRegimeError,
    RobinSpectraError,
)
from .potential import Constant, Step, potential_from_dict

TASKS = ("solve", "bounds", "certify", "roots1d", "reference", "decay", "sweep")

# Exit code and message prefix per error type; the first matching row wins.
EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (ConvergenceError, 3, "solver did not converge"),
    (FactorizationError, 3, "factorization broke down"),
    (InapplicableError, 4, "inapplicable request"),
    (RobinSpectraError, 1, "error"),
)

SWEEP_BUDGET_BOUNDS = 10_000
SWEEP_BUDGET_SOLVE = 100


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(
        cfg,
        {
            "potential",
            "grid",
            "outer_bc",
            "solver",
            "tasks",
            "output_dir",
            "certify",
            "roots1d",
            "decay",
            "sweep",
        },
        "config",
    )
    for key in ("potential", "grid", "tasks"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    potential_from_dict(cfg["potential"])
    grid = cfg["grid"]
    _check_keys(grid, {"R", "h"}, "grid")
    if "R" not in grid or "h" not in grid:
        raise ConfigError("grid needs both R and h")
    try:
        hs = _h_list(grid)
        dims = [Grid(float(grid["R"]), h).intervals ** 2 for h in hs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    if not hs:
        raise ConfigError("grid h-list is empty")
    if len(hs) >= 2:
        for h1, h2 in zip(hs, hs[1:]):
            if abs(h1 / h2 - 2.0) > 1e-9:
                raise ConfigError("h-list entries must be descending in ratio 2")
    bc = cfg.get("outer_bc", "dirichlet")
    if bc not in ("dirichlet", "neumann", "both"):
        raise ConfigError(f"outer_bc must be dirichlet, neumann or both, got {bc!r}")
    solver = cfg.get("solver", {})
    _check_keys(solver, {"k", "tol"}, "solver")
    try:
        k, tol = float(solver.get("k", 1)), float(solver.get("tol", 1e-8))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    if not (k.is_integer() and 1 <= k < min(dims) - 1 and tol > 0):
        raise ConfigError(
            f"solver needs an integer 1 <= k < {min(dims) - 1} and tol > 0"
        )
    tasks = cfg["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a non-empty list")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r}")
    _check_keys(cfg.get("certify", {}), {"n_max"}, "certify")
    n_max = cfg.get("certify", {}).get("n_max", 40)
    if not (_is_number(n_max) and isinstance(n_max, int) and n_max >= 1):
        raise ConfigError(f"certify.n_max must be an integer >= 1, got {n_max!r}")
    _check_keys(cfg.get("roots1d", {}), {"k_max"}, "roots1d")
    k_max = cfg.get("roots1d", {}).get("k_max", 10.0)
    if not (_is_number(k_max) and 0 < k_max < math.inf):
        raise ConfigError(f"roots1d.k_max must be a positive number, got {k_max!r}")
    _check_keys(
        cfg.get("decay", {}),
        {"ray", "r_min", "r_max", "with_prefactor"},
        "decay",
    )
    for key in ("r_min", "r_max"):
        r = cfg.get("decay", {}).get(key)
        if r is not None and not (_is_number(r) and math.isfinite(r)):
            raise ConfigError(f"decay.{key} must be a number, got {r!r}")
    _check_keys(cfg.get("sweep", {}), {"sigma", "L", "solve"}, "sweep")
    _sweep_axes(cfg.get("sweep", {}))
    if "sweep" in cfg["tasks"] and "sweep" not in cfg:
        raise ConfigError("sweep task requested but no sweep section given")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _h_list(grid_cfg: dict) -> list[float]:
    h = grid_cfg["h"]
    if isinstance(h, (int, float)):
        return [float(h)]
    return [float(x) for x in h]


def _sweep_axes(scfg: dict) -> tuple[list[float], list[float]]:
    """The sweep's sigma and L values; a value a Step rejects is a config error."""
    try:
        sigmas = [float(s) for s in scfg.get("sigma", [])]
        lengths = [Step(1.0, float(L)).L for L in scfg.get("L", [])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    return sigmas, lengths


def _bcs(cfg: dict) -> list[OuterBC]:
    bc = cfg.get("outer_bc", "dirichlet")
    if bc == "both":
        return [OuterBC.NEUMANN, OuterBC.DIRICHLET]
    return [OuterBC(bc)]


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


class Runner:
    def __init__(self, cfg: dict, out_dir, workers: int = 1):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.workers = workers
        self.potential = potential_from_dict(cfg["potential"])
        self.outputs: list[str] = []
        self._solve_cache: dict = {}

    def run(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        for task in self.cfg["tasks"]:
            getattr(self, f"task_{task}")()
        self._write_manifest()

    def _record(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out / name

    def _write_manifest(self) -> None:
        hashes = {}
        for name in sorted(self.outputs):
            hashes[name] = hashlib.sha256((self.out / name).read_bytes()).hexdigest()
        manifest = {
            "config_sha256": hashlib.sha256(
                json.dumps(self.cfg, sort_keys=True).encode()
            ).hexdigest(),
            "version": __version__,
            "outputs": hashes,
        }
        write_json(self.out / "manifest.json", manifest)

    # ------------------------------------------------------------------ tasks

    def task_reference(self) -> None:
        p = self.potential
        if not isinstance(p, Constant) or p.sigma <= 0:
            raise InapplicableError(
                "reference task needs a constant positive potential"
            )
        ref = constant_reference(p.sigma)
        write_json(
            self._record("reference.json"),
            {
                "sigma": p.sigma,
                "ground_energy": ref.ground_energy,
                "ess_bottom": ref.ess_bottom,
            },
        )

    def task_bounds(self) -> None:
        report = full_report(
            self.potential, self.cfg.get("certify", {}).get("n_max", 40)
        )
        out = {
            "crude_lower": report.crude_lower,
            "sandwich_lo": report.sandwich_lo,
            "sandwich_hi": report.sandwich_hi,
            "ess_class": report.ess_class.value,
            "count_bound_applicable": report.count_bound_applicable,
        }
        if report.ess_bottom is not None:
            out["ess_bottom"] = report.ess_bottom
        if report.certificate is not None:
            out["certificate_n"] = report.certificate[0]
            out["certificate_q"] = report.certificate[1]
        if report.count_bound is not None:
            out["count_bound"] = report.count_bound
        write_json(self._record("bounds.json"), out)

    def task_certify(self) -> None:
        n_max = self.cfg.get("certify", {}).get("n_max", 40)
        cert = bound_state_certificate(self.potential, n_max)
        if cert is None:
            out = {"found": False, "n_max": n_max}
        else:
            n, q = cert
            out = {
                "found": True,
                "n": n,
                "q_value": q,
                "kinetic_term": kinetic_term(1.0 / n),
            }
        write_json(self._record("certify.json"), out)

    def task_roots1d(self) -> None:
        p = self.potential
        L = p.support_bound()
        sigma_hat = p.ess_sup()
        if not math.isfinite(L) or sigma_hat == 0:
            raise InapplicableError("roots1d needs a nonzero compactly supported potential")
        if sigma_hat > 2.0 / L:
            raise InapplicableError(
                "roots1d only covers the regime sigma_hat <= 2/L"
            )
        k_max = self.cfg.get("roots1d", {}).get("k_max", 10.0)
        spec = interval_spectrum(sigma_hat, L, k_max)
        rows = []
        rows.append(
            [
                "0",
                "negative",
                _fmt(spec.kappa),
                _fmt(-spec.kappa ** 2),
                _fmt(abs(kappa_residual(spec.kappa, sigma_hat, L))),
            ]
        )
        for i, k in enumerate(spec.positive_roots, start=1):
            rows.append(
                [
                    str(i),
                    "positive",
                    _fmt(k),
                    _fmt(k ** 2),
                    _fmt(abs(root_function(k, sigma_hat, L))),
                ]
            )
        write_csv(
            self._record("roots1d.csv"),
            ["index", "kind", "k_or_kappa", "eigenvalue", "residual"],
            rows,
        )

    def _solve_one(self, h: float, bc: OuterBC):
        key = (h, bc)
        if key not in self._solve_cache:
            grid = Grid(float(self.cfg["grid"]["R"]), h)
            F = assemble(self.potential, grid, bc)
            solver = self.cfg.get("solver", {})
            k = int(solver.get("k", 1))
            tol = float(solver.get("tol", 1e-8))
            self._solve_cache[key] = lowest_eigenpairs(F, k, tol)
        return self._solve_cache[key]

    def task_solve(self) -> None:
        hs = _h_list(self.cfg["grid"])
        bcs = _bcs(self.cfg)
        results: dict = {}
        for bc in bcs:
            per_h = {}
            for h in hs:
                res = self._solve_one(h, bc)
                per_h[_fmt(h)] = {
                    "eigenvalues": [float(x) for x in res.eigenvalues],
                    "residuals": [float(x) for x in res.residuals],
                    "negative_count": res.negative_count,
                    "converged": list(res.converged),
                }
            results[bc.value] = per_h
        out = {"results": results}
        if len(hs) >= 3:
            extrap = {}
            for bc in bcs:
                pts = [
                    (h, float(self._solve_one(h, bc).eigenvalues[0])) for h in hs
                ]
                try:
                    study = richardson(pts)
                except NoAsymptoticRegimeError as exc:
                    extrap[bc.value] = {"error": str(exc)}
                else:
                    extrap[bc.value] = {
                        "extrapolated": study.extrapolated,
                        "order": study.order,
                    }
            out["richardson"] = extrap
        if len(bcs) == 2:
            h_fine = min(hs)
            lo = self._solve_one(h_fine, OuterBC.NEUMANN).eigenvalues
            hi = self._solve_one(h_fine, OuterBC.DIRICHLET).eigenvalues
            out["bracket"] = {
                "h": h_fine,
                "lo": [float(x) for x in lo],
                "hi": [float(x) for x in hi],
            }
        write_json(self._record("solve.json"), out)

    def task_decay(self) -> None:
        p = self.potential
        support = p.support_bound()
        if not math.isfinite(support):
            raise InapplicableError(
                "decay analysis requires a compactly supported potential"
            )
        hs = _h_list(self.cfg["grid"])
        bcs = _bcs(self.cfg)
        bc = OuterBC.DIRICHLET if OuterBC.DIRICHLET in bcs else bcs[0]
        h = min(hs)
        res = self._solve_one(h, bc)
        E = float(res.eigenvalues[0])
        if E >= 0:
            raise InapplicableError("no negative ground energy; nothing decays")
        v = res.nodal(0)
        R = float(self.cfg["grid"]["R"])
        dcfg = self.cfg.get("decay", {})
        ray = dcfg.get("ray", [1.0, 1.0])
        r_min = dcfg.get("r_min")
        r_max = dcfg.get("r_max")
        r_min = float(r_min) if r_min is not None else support + 2.0
        r_max = float(r_max) if r_max is not None else R - 3.0
        with_prefactor = bool(dcfg.get("with_prefactor", True))
        try:
            fit = decay_fit(res.form, v, E, ray, r_min, r_max, with_prefactor)
        except ValueError as exc:
            raise ConfigError(f"decay window rejected: {exc}") from exc

        c = math.exp(fit.intercept)
        rows = []
        for r, phi in zip(fit.radii, fit.abs_phi):
            model = c * math.exp(fit.predicted_rate * r)
            if fit.with_prefactor:
                model /= math.sqrt(r)
            rows.append([_fmt(r), _fmt(phi), _fmt(model)])
        write_csv(self._record("decay.csv"), ["r", "abs_phi", "model"], rows)
        write_json(
            self._record("decay_fit.json"),
            {
                "ray": list(fit.ray),
                "r_min": fit.r_window[0],
                "r_max": fit.r_window[1],
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "predicted_rate": fit.predicted_rate,
                "with_prefactor": fit.with_prefactor,
                "slope_stderr": fit.slope_stderr,
                "energy": E,
            },
        )

    def task_sweep(self) -> None:
        scfg = self.cfg["sweep"]
        sigmas, lengths = _sweep_axes(scfg)
        do_solve = bool(scfg.get("solve", False))
        points = [(s, L) for s in sigmas for L in lengths]
        budget = SWEEP_BUDGET_SOLVE if do_solve else SWEEP_BUDGET_BOUNDS
        if len(points) > budget:
            raise ConfigError(
                f"sweep has {len(points)} points, budget is {budget}"
            )
        grid_cfg = self.cfg["grid"]
        R = float(grid_cfg["R"])
        h = min(_h_list(grid_cfg))
        solver = self.cfg.get("solver", {})
        k = int(solver.get("k", 1))
        tol = float(solver.get("tol", 1e-8))
        args = [(s, L, do_solve, R, h, k, tol) for s, L in points]
        if self.workers > 1 and len(args) > 1:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                rows = list(pool.map(_sweep_point, args))
        else:
            rows = [_sweep_point(a) for a in args]
        write_csv(
            self._record("sweep.csv"),
            ["sigma", "L", "E_lo", "E_hi", "count_bound", "E_computed", "negative_count"],
            rows,
        )


def _sweep_point(arg) -> list[str]:
    sigma, L, do_solve, R, h, k, tol = arg
    p = Step(sigma, L)
    lo, hi = ground_energy_sandwich(p)
    count = negative_count_bound(p)
    row = [
        _fmt(sigma),
        _fmt(L),
        _fmt(lo),
        _fmt(hi),
        "" if count is None else str(count),
    ]
    if do_solve:
        F = assemble(p, Grid(R, h), OuterBC.DIRICHLET)
        res = lowest_eigenpairs(F, k, tol)
        row.append(_fmt(float(res.eigenvalues[0])))
        row.append(str(count_below(F, 0.0)))
    else:
        row.extend(["", ""])
    return row


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robinspectra",
        description="Spectral laboratory for the quarter-plane Robin Laplacian",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS + ("run",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command != "run":
            cfg = dict(cfg)
            cfg["tasks"] = [args.command]
            validate_config(cfg)
        out_dir = args.out or cfg.get("output_dir", "out")
        Runner(cfg, out_dir, workers=args.workers).run()
    except RobinSpectraError as exc:
        code, prefix = next(
            (code, prefix) for types, code, prefix in EXIT_CODES if isinstance(exc, types)
        )
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
