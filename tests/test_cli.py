import hashlib
import json
import math

import pytest

from robinspectra import cli
from robinspectra.cli import main, parse_config
from robinspectra.discretize import OuterBC
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
    # a root scan over the bracket budget
    lambda c: c.update(tasks=["roots1d"], roots1d={"k_max": 1e9}),
    lambda c: c.update(tasks=["roots1d"], roots1d={"k_max": 1e308}),
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

    monkeypatch.setattr(cli, "full_report", fail)
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
