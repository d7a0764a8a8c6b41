"""Configuration-driven command line entry point.

A single JSON config file describes the potential, the grid, the solver and
the requested tasks.  `parse_config` is the one place that knows its format:
it checks every key and fills in every default, and the tasks read only the
typed `Config` it returns.  Every command writes its results (JSON for
reports, CSV for tables) into the output directory together with a manifest
listing each output file with a content hash.  Identical configs produce
byte-identical result files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

from . import __version__
from .analytic1d import constant_reference, interval_spectrum
from .analysis import decay_fit, richardson
from .certify import (
    bound_state_certificate,
    crude_lower_bound,
    ess_spectrum_class,
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
from .potential import BoundaryPotential, Constant, PiecewiseConstant, Step, Tabulated

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
ROOTS1D_BUDGET = 80_000  # interval levels, about 40 us each
CERTIFY_BUDGET = 450_000  # certificate steps n times cells of sigma, about 7 us each


@dataclass(frozen=True)
class Config:
    """A checked experiment config with every default filled in."""

    potential: BoundaryPotential
    R: float
    hs: tuple[float, ...]  # descending in ratio 2
    bcs: tuple[OuterBC, ...]
    k: int
    tol: float
    tasks: tuple[str, ...]
    n_max: int
    k_max: float
    ray: tuple[float, float]
    r_min: float
    r_max: float
    with_prefactor: bool
    sweep_sigma: tuple[float, ...]
    sweep_L: tuple[float, ...]
    sweep_solve: bool
    output_dir: str
    config_sha256: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(ok, where: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{where} must be {what}, got {value!r}")


def _check_keys(section, allowed: set, where: str, required: set = frozenset()) -> dict:
    _require(isinstance(section, dict), where, "a mapping", section)
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where} is missing required keys {sorted(missing)}")
    return section


def _number(x, where: str) -> float:
    ok = isinstance(x, (int, float)) and not isinstance(x, bool)
    # the bound also rejects NaN and integers too large for a float
    _require(ok and abs(x) <= sys.float_info.max, where, "a finite number", x)
    return float(x)


def _positive(x, where: str) -> float:
    _require(_number(x, where) > 0, where, "positive", x)
    return float(x)


def _integer(x, where: str) -> int:
    ok = isinstance(x, int) and not isinstance(x, bool) and x >= 1
    _require(ok, where, "an integer >= 1", x)
    return x


def _flag(x, where: str) -> bool:
    _require(isinstance(x, bool), where, "true or false", x)
    return x


def _numbers(xs, where: str, item=_number) -> tuple[float, ...]:
    _require(isinstance(xs, list), where, "a list of numbers", xs)
    return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(xs))


def _ray(x, where: str) -> tuple[float, float]:
    ray = _numbers(x, where)
    ok = len(ray) == 2 and min(ray) >= 0 and max(ray) > 0
    _require(ok, where, "two non-negative numbers, not both zero", x)
    return ray


# Constructor and field parsers of each tagged potential record; every field
# is required, and the constructor checks the values against each other.
POTENTIALS = {
    "constant": (Constant, {"sigma": _number}),
    "step": (Step, {"sigma": _number, "L": _number}),
    "piecewise": (PiecewiseConstant, {"breaks": _numbers, "values": _numbers}),
    "tabulated": (Tabulated, {"samples": _numbers, "h_s": _number}),
}


def _potential(spec) -> BoundaryPotential:
    """Build a potential from its tagged config record."""
    ok = isinstance(spec, dict) and "kind" in spec
    _require(ok, "potential", "a mapping with a 'kind' tag", spec)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in POTENTIALS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    cls, fields = POTENTIALS[kind]
    _check_keys(spec, {"kind", *fields}, "potential", required=set(fields))
    args = [parse(spec[key], f"potential.{key}") for key, parse in fields.items()]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc


def parse_config(raw, command: str = "run") -> Config:
    """Check every key of a raw config and fill in its defaults.

    A subcommand other than ``run`` replaces the config's task list, and
    ``config_sha256`` hashes the config with that replacement.
    """
    sections = {"solver", "certify", "roots1d", "decay", "sweep"}
    root = {"potential", "grid", "outer_bc", "tasks", "output_dir", *sections}
    _check_keys(raw, root, "config", required={"potential", "grid", "tasks"})
    potential = _potential(raw["potential"])

    grid = _check_keys(raw["grid"], {"R", "h"}, "grid", required={"R", "h"})
    R = _number(grid["R"], "grid.R")
    h = grid["h"]
    hs = _numbers(h, "grid.h") if isinstance(h, list) else (_number(h, "grid.h"),)
    if not hs:
        raise ConfigError("grid h-list is empty")
    try:
        dim = min(Grid(R, h).intervals for h in hs) ** 2
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    if any(abs(h1 / h2 - 2.0) > 1e-9 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigError("h-list entries must be descending in ratio 2")
    bc = raw.get("outer_bc", "dirichlet")
    ok = bc in ("dirichlet", "neumann", "both")
    _require(ok, "outer_bc", "one of dirichlet, neumann, both", bc)

    tasks = raw["tasks"]
    ok = isinstance(tasks, list) and tasks and all(t in TASKS for t in tasks)
    _require(ok, "tasks", f"a non-empty list of {', '.join(TASKS)}", tasks)
    if command != "run":
        tasks = [command]
        raw = {**raw, "tasks": tasks}

    solver = _check_keys(raw.get("solver", {}), {"k", "tol"}, "solver")
    k = _integer(solver.get("k", 1), "solver.k")
    _require(k < dim - 1, "solver.k", f"below {dim - 1} (coarsest dimension - 1)", k)
    certify = _check_keys(raw.get("certify", {}), {"n_max"}, "certify")
    n_max = _integer(certify.get("n_max", 40), "certify.n_max")
    if {"bounds", "certify"} & set(tasks):
        cells = len(potential.cells)
        cap = CERTIFY_BUDGET // cells
        _require(n_max <= cap, "certify.n_max", f"at most {cap} for {cells} cells of sigma", n_max)
    roots1d = _check_keys(raw.get("roots1d", {}), {"k_max"}, "roots1d")
    k_max = _positive(roots1d.get("k_max", 10.0), "roots1d.k_max")
    L = potential.support_bound()
    if "roots1d" in tasks and math.isfinite(L):
        levels = k_max * L / math.pi
        if levels > ROOTS1D_BUDGET:
            raise ConfigError(
                f"roots1d.k_max {k_max!r} asks for {levels:.6g} levels on L = {L!r}, "
                f"budget is {ROOTS1D_BUDGET}"
            )
    decay_keys = {"ray", "r_min", "r_max", "with_prefactor"}
    decay = _check_keys(raw.get("decay", {}), decay_keys, "decay")
    # the fit window defaults to 2 past the support up to 3 short of R
    window = {"r_min": L + 2.0, "r_max": R - 3.0}
    for key in window:
        if key in decay:
            window[key] = _number(decay[key], f"decay.{key}")
    sweep = _check_keys(raw.get("sweep", {}), {"sigma", "L", "solve"}, "sweep")
    sweep_sigma = _numbers(sweep.get("sigma", []), "sweep.sigma")
    sweep_L = _numbers(sweep.get("L", []), "sweep.L", item=_positive)
    sweep_solve = _flag(sweep.get("solve", False), "sweep.solve")
    if "sweep" in tasks:
        if "sweep" not in raw:
            raise ConfigError("sweep task requested but no sweep section given")
        points = len(sweep_sigma) * len(sweep_L)
        budget = SWEEP_BUDGET_SOLVE if sweep_solve else SWEEP_BUDGET_BOUNDS
        if points > budget:
            raise ConfigError(f"sweep has {points} points, budget is {budget}")
    output_dir = raw.get("output_dir", "out")
    _require(isinstance(output_dir, str), "output_dir", "a path string", output_dir)

    return Config(
        potential=potential,
        R=R,
        hs=hs,
        bcs=(OuterBC.NEUMANN, OuterBC.DIRICHLET) if bc == "both" else (OuterBC(bc),),
        k=k,
        tol=_positive(solver.get("tol", 1e-8), "solver.tol"),
        tasks=tuple(tasks),
        n_max=n_max,
        k_max=k_max,
        ray=_ray(decay.get("ray", [1.0, 1.0]), "decay.ray"),
        r_min=window["r_min"],
        r_max=window["r_max"],
        with_prefactor=_flag(decay.get("with_prefactor", True), "decay.with_prefactor"),
        sweep_sigma=sweep_sigma,
        sweep_L=sweep_L,
        sweep_solve=sweep_solve,
        output_dir=output_dir,
        config_sha256=hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest(),
    )


def load_config(path, command: str = "run") -> Config:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, command)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


class Runner:
    def __init__(self, cfg: Config, out_dir, workers: int = 1):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.workers = workers
        self.outputs: list[str] = []
        self._solve_cache: dict = {}

    def run(self) -> None:
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out}: {exc}") from exc
        for task in self.cfg.tasks:
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
            "config_sha256": self.cfg.config_sha256,
            "version": __version__,
            "outputs": hashes,
        }
        write_json(self.out / "manifest.json", manifest)

    # ------------------------------------------------------------------ tasks

    def task_reference(self) -> None:
        ref = constant_reference(self.cfg.potential)
        write_json(
            self._record("reference.json"),
            {
                "sigma": ref.sigma,
                "ground_energy": ref.ground_energy,
                "ess_bottom": ref.ess_bottom,
            },
        )

    def task_bounds(self) -> None:
        p = self.cfg.potential
        lo, hi = ground_energy_sandwich(p)
        klass, bottom = ess_spectrum_class(p)
        try:
            certificate = bound_state_certificate(p, self.cfg.n_max)
        except InapplicableError:
            certificate = None
        try:
            count = negative_count_bound(p)
        except InapplicableError:
            count = None
        out = {
            "crude_lower": crude_lower_bound(p.ess_sup()),
            "sandwich_lo": lo,
            "sandwich_hi": hi,
            "ess_class": klass.value,
            "ess_bottom": bottom,
            "count_bound_applicable": count is not None,
        }
        if certificate is not None:
            out["certificate_n"], out["certificate_q"] = certificate
        if count is not None:
            out["count_bound"] = count
        write_json(self._record("bounds.json"), out)

    def task_certify(self) -> None:
        cert = bound_state_certificate(self.cfg.potential, self.cfg.n_max)
        if cert is None:
            out = {"found": False, "n_max": self.cfg.n_max}
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
        p = self.cfg.potential
        spec = interval_spectrum(p.ess_sup(), p.support_bound(), self.cfg.k_max)
        kappa = spec.kappa
        rows = [["0", "negative", _fmt(kappa), _fmt(-kappa**2), _fmt(abs(spec.kappa_residual))]]
        for i, (k, res) in enumerate(zip(spec.positive_roots, spec.root_residuals), start=1):
            rows.append([str(i), "positive", _fmt(k), _fmt(k**2), _fmt(abs(res))])
        write_csv(
            self._record("roots1d.csv"),
            ["index", "kind", "k_or_kappa", "eigenvalue", "residual"],
            rows,
        )

    def _solve_one(self, h: float, bc: OuterBC):
        key = (h, bc)
        if key not in self._solve_cache:
            F = assemble(self.cfg.potential, Grid(self.cfg.R, h), bc)
            self._solve_cache[key] = lowest_eigenpairs(F, self.cfg.k, self.cfg.tol)
        return self._solve_cache[key]

    def task_solve(self) -> None:
        hs, bcs = self.cfg.hs, self.cfg.bcs
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
        cfg = self.cfg
        bc = OuterBC.DIRICHLET if OuterBC.DIRICHLET in cfg.bcs else cfg.bcs[0]
        res = self._solve_one(min(cfg.hs), bc)
        E = float(res.eigenvalues[0])
        try:
            fit = decay_fit(
                res.form, res.nodal(0), E, cfg.ray, cfg.r_min, cfg.r_max, cfg.with_prefactor
            )
        except ValueError as exc:
            raise ConfigError(f"decay window rejected: {exc}") from exc
        rows = [list(map(_fmt, row)) for row in zip(fit.radii, fit.abs_phi, fit.model)]
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
        cfg = self.cfg
        points = [(s, L) for s in cfg.sweep_sigma for L in cfg.sweep_L]
        sweep_point = partial(_sweep_point, cfg)
        # the pool forks all its workers at once, so never more than can run
        workers = min(self.workers, len(points), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(sweep_point, points, chunksize=-(-len(points) // workers)))
        else:
            rows = [sweep_point(point) for point in points]
        write_csv(
            self._record("sweep.csv"),
            ["sigma", "L", "E_lo", "E_hi", "count_bound", "E_computed", "negative_count"],
            rows,
        )


def _sweep_point(cfg: Config, point: tuple[float, float]) -> list[str]:
    sigma, L = point
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
    if cfg.sweep_solve:
        F = assemble(p, Grid(cfg.R, min(cfg.hs)), OuterBC.DIRICHLET)
        res = lowest_eigenpairs(F, 1, cfg.tol)  # the row holds the ground energy only
        row.append(_fmt(float(res.eigenvalues[0])))
        row.append(str(count_below(F, 0.0)))
    else:
        row.extend(["", ""])
    return row


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


@cache  # built once per process, on the first call of main
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
        if name in ("run", "sweep"):
            sp.add_argument("--workers", type=_workers, default=1, help="sweep processes, >= 1")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        Runner(cfg, args.out or cfg.output_dir, workers=getattr(args, "workers", 1)).run()
    except RobinSpectraError as exc:
        code, prefix = next(
            (code, prefix) for types, code, prefix in EXIT_CODES if isinstance(exc, types)
        )
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
