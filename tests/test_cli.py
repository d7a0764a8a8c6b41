import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robinspectra import cli
from robinspectra.cli import CERTIFY_BUDGET, ROOTS1D_BUDGET, main, parse_config
from robinspectra.discretize import OuterBC
from robinspectra.eigensolve import lowest_eigenpairs
from robinspectra.errors import (
    ConfigError,
    ConvergenceError,
    EssentialBottomNotZeroError,
    FactorizationError,
    NotAttractiveOnAverageError,
    NotIntegrableError,
    UnderflowWindowError,
)
from robinspectra.potential import Constant, PiecewiseConstant, Step, Tabulated

# 1,000 cells of sigma, each costing the certificate one closed-form term per step
TABULATED = {"kind": "tabulated", "samples": [1e-12] * 1000, "h_s": 0.01}

pytestmark = pytest.mark.filterwarnings("ignore:truncation radius")


def base_config(**overrides):
    cfg = {
        "potential": {"kind": "step", "sigma": 1.0, "L": 1.0},
        "grid": {"R": 6.0, "h": 0.2},
        "outer_bc": "dirichlet",
        "solver": {"k": 2, "tol": 1e-8},
        "tasks": ["bounds"],
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_config_accepts_base():
    cfg = parse_config(base_config())
    assert cfg.potential == Step(1.0, 1.0)
    assert (cfg.R, cfg.hs, cfg.tasks) == (6.0, (0.2,), ("bounds",))
    assert cfg.bcs == (OuterBC.DIRICHLET,)
    # the defaults of every optional key
    assert (cfg.k, cfg.tol, cfg.n_max, cfg.k_max) == (2, 1e-8, 40, 10.0)
    assert (cfg.ray, cfg.r_min, cfg.r_max) == ((1.0, 1.0), 3.0, 3.0)
    assert cfg.with_prefactor is True and cfg.sweep_solve is False
    assert (cfg.sweep_sigma, cfg.sweep_L, cfg.output_dir) == ((), (), "out")
    # the default k_max passes the root-scan budget
    assert parse_config(base_config(tasks=["roots1d"])).k_max == 10.0


def test_parse_config_potential_kinds():
    def parsed(spec):
        return parse_config(base_config(potential=spec)).potential

    assert parsed({"kind": "constant", "sigma": 0.5}) == Constant(0.5)
    assert parsed({"kind": "step", "sigma": 1.0, "L": 1.0}) == Step(1.0, 1.0)
    q = parsed({"kind": "piecewise", "breaks": [1, 2], "values": [2, -1]})
    assert q == PiecewiseConstant((1.0, 2.0), (2.0, -1.0))
    assert q.integral() == pytest.approx(1.0)
    t = parsed({"kind": "tabulated", "samples": [1, 2], "h_s": 0.5})
    assert t == Tabulated((1.0, 2.0), 0.5)


REJECTIONS = [
    lambda c: c.update(extra=1),
    lambda c: c.pop("potential"),
    lambda c: c["potential"].update(typo=2),
    lambda c: c["grid"].update(spacing=0.1),
    lambda c: c.update(outer_bc="robin"),
    lambda c: c.update(tasks=[]),
    lambda c: c.update(tasks=["frobnicate"]),
    lambda c: c["solver"].update(maxiter=10),
    lambda c: c["grid"].update(h=[0.2, 0.15]),
    lambda c: c.update(tasks=["sweep"]),  # sweep without a sweep section
    lambda c: c["grid"].update(R=1, h=0.3),  # R/h not an integer
    lambda c: c["grid"].update(R=-6.0),
    lambda c: c["grid"].update(h=0),
    lambda c: c["grid"].update(h="x"),
    lambda c: c["grid"].update(R=None),
    lambda c: c["grid"].update(h=[]),
    lambda c: c["solver"].update(k=0),
    lambda c: c["solver"].update(k=1.5),
    lambda c: c["solver"].update(k=900),  # not below the dimension - 1
    lambda c: c["solver"].update(k="two"),
    lambda c: c["solver"].update(tol=0),
    lambda c: c["solver"].update(tol=-1e-8),
    lambda c: c.update(sweep={"sigma": [1, "x"], "L": [1.0]}),
    lambda c: c.update(sweep={"sigma": [1.0], "L": [0.0]}),
    lambda c: c.update(sweep={"sigma": 1.0, "L": [1.0]}),
    lambda c: c.update(certify={"n_max": 0}),
    lambda c: c.update(certify={"n_max": 2.5}),
    lambda c: c.update(certify={"n_max": "ten"}),
    lambda c: c.update(certify={"n_max": True}),
    lambda c: c.update(certify={"n_max": CERTIFY_BUDGET + 1}),  # over the step budget
    lambda c: c.update(potential=TABULATED, certify={"n_max": CERTIFY_BUDGET // 1000 + 1}),
    lambda c: c.update(roots1d={"k_max": 0}),
    lambda c: c.update(roots1d={"k_max": -3.0}),
    lambda c: c.update(roots1d={"k_max": "ten"}),
    lambda c: c.update(roots1d={"k_max": math.inf}),
    lambda c: c.update(decay={"r_min": "x"}),
    lambda c: c.update(decay={"r_max": [4.0]}),
    lambda c: c.update(decay={"r_min": math.nan}),
    lambda c: c.update(certify=5),
    lambda c: c.update(solver=3),
    # non-finite numbers
    lambda c: c.update(potential={"kind": "constant", "sigma": math.nan}),
    lambda c: c["potential"].update(L=math.inf),
    lambda c: c.update(potential={"kind": "piecewise", "breaks": [1.0], "values": [math.nan]}),
    lambda c: c["solver"].update(tol=math.inf),
    lambda c: c["solver"].update(tol=10 ** 400),  # an integer no float holds
    lambda c: c.update(sweep={"sigma": [math.nan], "L": [1.0]}),
    lambda c: c.update(sweep={"sigma": [1.0], "L": [math.nan]}),
    # values of the wrong type
    lambda c: c.update(decay={"ray": [1]}),
    lambda c: c.update(decay={"ray": [-1.0, 1.0]}),
    lambda c: c.update(decay={"with_prefactor": "false"}),
    lambda c: c.update(sweep={"sigma": [1.0], "L": [1.0], "solve": "no"}),
    lambda c: c.update(output_dir=5),
    lambda c: c["solver"].update(k=True),
    lambda c: c["grid"].update(h=1e-320),  # R/h overflows a float
    # interval levels over the level budget (the potential has L = 1)
    lambda c: c.update(tasks=["roots1d"], roots1d={"k_max": math.pi * (ROOTS1D_BUDGET + 1)}),
    lambda c: c.update(tasks=["roots1d"], roots1d={"k_max": 1e308}),
    # the last sample's right edge (k + 1)*h_s overflows to inf
    lambda c: c.update(potential={"kind": "tabulated", "samples": [1.0, 1.0], "h_s": 1e308}),
]


@pytest.mark.parametrize("mutate", REJECTIONS)
def test_validate_config_rejections(mutate):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_main_rejections_exit_code(tmp_path, capsys):
    for i, mutate in enumerate(REJECTIONS):
        cfg = base_config()
        mutate(cfg)
        # allow_nan keeps NaN and Infinity in the file, as a config may hold them
        path = tmp_path / f"bad{i}.cfg"
        path.write_text(json.dumps(cfg, allow_nan=True))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, i
        assert capsys.readouterr().err.startswith("config error: "), i


def test_budgets_count_levels_and_certificate_steps():
    # the roots1d budget counts interval levels k_max*L/pi, not scan brackets
    cfg = base_config(tasks=["roots1d"], roots1d={"k_max": math.pi * ROOTS1D_BUDGET})
    assert parse_config(cfg).k_max == math.pi * ROOTS1D_BUDGET
    assert parse_config(base_config(certify={"n_max": CERTIFY_BUDGET})).n_max == CERTIFY_BUDGET


def test_certificate_budget_counts_steps_times_cells():
    cap = CERTIFY_BUDGET // 1000
    for task in ("bounds", "certify"):
        cfg = base_config(potential=TABULATED, tasks=[task], certify={"n_max": cap})
        assert parse_config(cfg).n_max == cap
        cfg["certify"]["n_max"] = cap + 1
        with pytest.raises(ConfigError, match="1000 cells"):
            parse_config(cfg)
    # only the tasks that run the certificate are capped
    cfg = base_config(potential=TABULATED, tasks=["solve"], certify={"n_max": cap + 1})
    assert parse_config(cfg).n_max == cap + 1


def test_h_list_ratio_two_accepted():
    parse_config(base_config(grid={"R": 6.0, "h": [0.4, 0.2, 0.1]}))


def test_main_config_error_exit_code(tmp_path):
    path = write_cfg(tmp_path, base_config(extra=1))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_main_malformed_number_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, base_config(grid={"R": 1, "h": 0.3}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: bad grid")


def test_main_non_numeric_decay_window_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, base_config(tasks=["decay"], decay={"r_min": "x"}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: decay.r_min")


def test_main_missing_config_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_main_invalid_json_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    path.write_bytes(b'{"grid": "\xff"}')  # not UTF-8
    assert main(["run", "--config", str(path)]) == 2


def test_main_output_dir_not_creatable_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, base_config())
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot create output")


def test_main_inapplicable_exit_code(tmp_path):
    # reference task needs a constant potential
    cfg = base_config(tasks=["reference"])
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize(
    "task, potential",
    [
        ("roots1d", {"kind": "constant", "sigma": 1.0}),  # infinite support
        ("roots1d", {"kind": "step", "sigma": 0.0, "L": 1.0}),  # zero sigma
        ("roots1d", {"kind": "step", "sigma": 3.0, "L": 1.0}),  # sigma_hat > 2/L
        ("decay", {"kind": "constant", "sigma": 1.0}),  # infinite support
        ("decay", {"kind": "step", "sigma": -1.0, "L": 1.0}),  # no negative energy
        ("reference", {"kind": "step", "sigma": 1.0, "L": 1.0}),  # not a constant
        ("reference", {"kind": "constant", "sigma": -1.0}),  # sigma <= 0
        ("reference", {"kind": "piecewise", "breaks": [1.0], "values": [1.0]}),  # one bounded cell
    ],
)
def test_inapplicable_requests_exit_4(tmp_path, capsys, task, potential):
    path = write_cfg(tmp_path, base_config(potential=potential))
    assert main([task, "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("inapplicable request: ")


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConvergenceError, 3),
        (FactorizationError, 3),
        (NotIntegrableError, 4),
        (EssentialBottomNotZeroError, 4),
        (NotAttractiveOnAverageError, 4),
        (UnderflowWindowError, 1),
    ],
)
def test_main_exit_code_table(tmp_path, monkeypatch, capsys, exc, code):
    def fail(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli, "ground_energy_sandwich", fail)
    path = write_cfg(tmp_path, base_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.rstrip().endswith(": boom")


def test_run_bounds_and_manifest(tmp_path):
    path = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["crude_lower"] == -32
    assert bounds["sandwich_lo"] == -2
    assert bounds["sandwich_hi"] == pytest.approx(-2 + 4 * math.exp(-2))
    assert bounds["count_bound"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"bounds.json"}
    assert len(manifest["outputs"]["bounds.json"]) == 64


def _bounds_json(tmp_path, potential):
    path = write_cfg(tmp_path, base_config(potential=potential))
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    return json.loads((tmp_path / "o" / "bounds.json").read_text())


def test_bounds_json_constant(tmp_path):
    bounds = _bounds_json(tmp_path, {"kind": "constant", "sigma": 1.0})
    assert bounds["crude_lower"] == -32
    assert (bounds["sandwich_lo"], bounds["sandwich_hi"]) == (-2, -2)
    assert bounds["ess_class"] == "ConstantPositive"
    assert "certificate_n" not in bounds and "certificate_q" not in bounds
    assert "count_bound" not in bounds and bounds["count_bound_applicable"] is False


def test_bounds_json_step(tmp_path):
    bounds = _bounds_json(tmp_path, {"kind": "step", "sigma": 1.0, "L": 1.0})
    assert bounds["crude_lower"] == -32
    assert bounds["sandwich_hi"] == pytest.approx(-2 + 4 * math.exp(-2))
    assert bounds["ess_class"] == "NonPositiveTail"
    assert "certificate_n" in bounds
    assert bounds["certificate_q"] < 0
    assert bounds["count_bound"] == 1


def test_bounds_json_zero_potential(tmp_path):
    bounds = _bounds_json(tmp_path, {"kind": "step", "sigma": 0.0, "L": 1.0})
    assert bounds["crude_lower"] == 0
    assert (bounds["sandwich_lo"], bounds["sandwich_hi"]) == (0, 0)
    assert bounds["ess_class"] == "NonPositiveTail"
    assert "certificate_n" not in bounds and "certificate_q" not in bounds
    assert "count_bound" not in bounds and bounds["count_bound_applicable"] is False


def test_run_solve_bracket_and_richardson(tmp_path):
    # spacings chosen so the step edge at y = 1 stays grid-aligned
    cfg = base_config(
        grid={"R": 6.0, "h": [0.5, 0.25, 0.125]},
        outer_bc="both",
        tasks=["solve"],
    )
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    solve = json.loads((out / "solve.json").read_text())
    assert set(solve["results"]) == {"neumann", "dirichlet"}
    assert len(solve["results"]["dirichlet"]) == 3
    # the solver's operator count is a trace, not a result
    for per_h in solve["results"].values():
        for entry in per_h.values():
            assert set(entry) == {"eigenvalues", "residuals", "negative_count", "converged"}
    br = solve["bracket"]
    assert br["h"] == 0.125
    assert len(br["lo"]) == len(br["hi"]) == 2
    assert all(lo <= hi for lo, hi in zip(br["lo"], br["hi"]))
    # boundary-value discontinuity degrades the observed order below 2
    assert 0.8 <= solve["richardson"]["dirichlet"]["order"] <= 2.5


def test_subcommand_overrides_tasks(tmp_path):
    path = write_cfg(tmp_path, base_config(tasks=["solve", "bounds"]))
    out = tmp_path / "only_bounds"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "bounds.json").exists()
    assert not (out / "solve.json").exists()


def test_main_reuses_parser_without_carrying_arguments(tmp_path, capsys):
    default_out = tmp_path / "from_config"
    path = write_cfg(tmp_path, base_config(output_dir=str(default_out)))
    for argv, code in ((["--help"], 0), (["bogus"], 2), ([], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert "Spectral laboratory" in capsys.readouterr().out
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    # the second call's --out default is not the first call's value
    assert main(["bounds", "--config", str(path)]) == 0
    assert (default_out / "bounds.json").exists()
    assert cli._build_parser() is cli._build_parser()


def test_subcommand_manifest_hashes_overridden_config(tmp_path):
    cfg = base_config(tasks=["solve", "bounds"])
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    overridden = json.dumps({**cfg, "tasks": ["bounds"]}, sort_keys=True)
    assert manifest["config_sha256"] == hashlib.sha256(overridden.encode()).hexdigest()


def test_run_certify_and_roots1d(tmp_path):
    cfg = base_config(tasks=["certify", "roots1d"], roots1d={"k_max": 10.0})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    cert = json.loads((out / "certify.json").read_text())
    assert cert["found"] is True
    assert cert["n"] == 1
    assert cert["q_value"] < 0
    lines = (out / "roots1d.csv").read_text().strip().splitlines()
    assert lines[0] == "index,kind,k_or_kappa,eigenvalue,residual"
    first = lines[1].split(",")
    assert first[1] == "negative"
    assert float(first[3]) < 0
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 1e-8


def test_determinism_byte_identical(tmp_path):
    cfg = base_config(tasks=["bounds", "solve", "roots1d"])
    path = write_cfg(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("bounds.json", "solve.json", "roots1d.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_csv(tmp_path):
    cfg = base_config(
        tasks=["sweep"],
        sweep={"sigma": [0.5, 3.0], "L": [1.0, 2.0], "solve": False},
    )
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "sigma,L,E_lo,E_hi,count_bound,E_computed,negative_count"
    assert len(lines) == 5
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    # sigma_hat > 2/L leaves the count bound empty
    assert rows[("3", "1")][4] == ""
    assert rows[("0.5", "1")][4] != ""
    # bounds-only sweep leaves the solve columns empty
    assert rows[("0.5", "1")][5] == ""


def test_sweep_empty_grid_header_only(tmp_path):
    cfg = base_config(tasks=["sweep"], sweep={"sigma": [], "L": [1.0]})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines == ["sigma,L,E_lo,E_hi,count_bound,E_computed,negative_count"]


def test_sweep_budget_enforced(tmp_path):
    cfg = base_config(
        tasks=["sweep"],
        sweep={"sigma": [0.1 * i for i in range(1, 12)], "L": [1.0] * 10, "solve": True},
    )
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = base_config(
        tasks=["sweep"],
        sweep={"sigma": [0.5, 1.0], "L": [1.0, 2.0], "solve": False},
    )
    path = write_cfg(tmp_path, cfg)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", str(path), "--out", str(a)]) == 0
    assert main(
        ["run", "--config", str(path), "--out", str(b), "--workers", "2"]
    ) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """ProcessPoolExecutor replaced by an in-process map; the max_workers it
    was asked for, so that no test starts a process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("cpus, size", [(3, 3), (64, 4)])
def test_sweep_pool_bounded_by_points_and_cpus(tmp_path, monkeypatch, pool_sizes, cpus, size):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    cfg = base_config(tasks=["sweep"], sweep={"sigma": [0.5, 1.0], "L": [1.0, 2.0]})
    path = write_cfg(tmp_path, cfg)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "5000"]
    assert main(argv) == 0
    assert pool_sizes == [size]


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_workers_below_one_rejected(tmp_path, pool_sizes, workers):
    cfg = base_config(tasks=["sweep"], sweep={"sigma": [0.5, 1.0], "L": [1.0]})
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", workers])
    assert exc.value.code == 2
    assert pool_sizes == []


def test_workers_only_on_run_and_sweep(tmp_path, monkeypatch, pool_sizes):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    path = write_cfg(tmp_path, base_config(sweep={"sigma": [0.5, 1.0], "L": [1.0]}))
    out = ["--config", str(path), "--out", str(tmp_path / "o")]
    assert main(["sweep", *out, "--workers", "2"]) == 0
    assert pool_sizes == [2]
    for command in ("bounds", "solve"):
        with pytest.raises(SystemExit) as exc:
            main([command, *out, "--workers", "2"])
        assert exc.value.code == 2


def test_sweep_solves_for_the_ground_energy_only(tmp_path, monkeypatch):
    seen = []

    def spy(F, k, *args, **kwargs):
        seen.append(k)
        return lowest_eigenpairs(F, k, *args, **kwargs)

    monkeypatch.setattr(cli, "lowest_eigenpairs", spy)
    rows = {}
    for k in (1, 3):
        cfg = base_config(
            solver={"k": k, "tol": 1e-8},
            tasks=["sweep"],
            sweep={"sigma": [1.0, 1.5], "L": [0.5], "solve": True},
        )
        out = tmp_path / f"k{k}"
        assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        rows[k] = [line.split(",") for line in lines]
    assert seen == [1] * 4
    for r1, r3 in zip(rows[1], rows[3]):
        assert float(r3[5]) == pytest.approx(float(r1[5]), rel=1e-8)
        assert r3[6] == r1[6]


def _read_decay(out):
    fit = json.loads((out / "decay_fit.json").read_text())
    lines = (out / "decay.csv").read_text().strip().splitlines()
    assert lines[0] == "r,abs_phi,model"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return fit, rows


def test_decay_outputs(tmp_path):
    cfg = base_config(
        grid={"R": 10.0, "h": 0.1},
        tasks=["decay"],
        decay={"ray": [1.0, 1.0], "r_min": 2.5, "r_max": 7.5},
    )
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    fit, rows = _read_decay(out)
    assert fit["slope"] < 0
    assert fit["energy"] < 0
    assert fit["predicted_rate"] == pytest.approx(-math.sqrt(abs(fit["energy"])))
    rs = [r for r, _, _ in rows]
    assert rs == sorted(rs)
    assert all(phi > 0 for _, phi, _ in rows)
    for r, _, model in rows:
        expected = math.exp(fit["intercept"] + fit["predicted_rate"] * r) / math.sqrt(r)
        assert model == pytest.approx(expected, rel=1e-12)

    # axis ray without the 1/sqrt(r) prefactor: nodes h apart, pure exponential
    cfg["decay"] = {"ray": [1.0, 0.0], "r_min": 2.5, "r_max": 7.5, "with_prefactor": False}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "axis"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    fit, rows = _read_decay(out)
    assert fit["with_prefactor"] is False
    rs = [r for r, _, _ in rows]
    assert all(b - a == pytest.approx(0.1, abs=1e-12) for a, b in zip(rs, rs[1:]))
    for r, _, model in rows:
        expected = math.exp(fit["intercept"] + fit["predicted_rate"] * r)
        assert model == pytest.approx(expected, rel=1e-12)


def test_decay_window_rejected_exit_code(tmp_path, capsys):
    # r_max beyond R - 2 is rejected by the fit after the solve
    cfg = base_config(grid={"R": 10.0, "h": 0.2}, tasks=["decay"], decay={"r_max": 9.5})
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: decay window rejected")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_entry_point_defaults_blas_to_one_thread(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREADS, preset))
    code = f"import os, robinspectra.__main__; print([os.environ[v] for v in {BLAS_THREADS}])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr([preset or "1"] * 3)


def test_cli_runs_without_scipy(tmp_path):
    # the runtime is numpy alone: scipy loads only when something reads
    # DiscreteForm.matrix (tests and the layer trace), and multiprocessing
    # only when a sweep runs on more than one worker.  The subprocess runs
    # every shipped config and a solved 2 x 2 sweep after the import, so a
    # lazy import on any task path shows as well.
    root = Path(cli.__file__).parents[2]
    sweep = {"sigma": [0.5, 1.5], "L": [1.0, 2.0], "solve": True}
    configs = [str(p) for p in sorted((root / "configs").glob("*.cfg"))]
    configs.append(str(write_cfg(tmp_path, base_config(tasks=["sweep"], sweep=sweep))))
    code = (
        "import sys, warnings, robinspectra.cli as cli\n"
        "warnings.simplefilter('ignore')\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith(('scipy', 'multiprocessing')))\n"
        "print(loaded())\n"
        f"for i, cfg in enumerate({configs!r}):\n"
        f"    out = {str(tmp_path)!r} + '/out' + str(i)\n"
        "    assert cli.main(['run', '--config', cfg, '--out', out]) == 0, cfg\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n")[-3:] == ["[]", "[]", ""]
