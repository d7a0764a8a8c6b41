"""The CLI invocations each benchmark workload runs, generated from a seed.

Every workload is a closed loop: one `robinspectra.cli.main` invocation
after another, in one process.  The inputs depend only on the workload
name and the seed; this module writes the generated configs and imports
nothing heavier than the standard library.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("presets", "refine", "sweep")

PRESETS = ("constant", "step", "oscillating")

# refine: Richardson chain of one constant and one step potential.  L is a
# multiple of the coarsest spacing, so every grid puts a node on the step
# edge, and R >= L + 5/sigma holds for the whole range (no truncation
# warning).
REFINE_R, REFINE_H = 12.0, (0.1, 0.05, 0.025)
REFINE_SIGMA = (0.9, 1.1)
REFINE_L = (0.5, 1.5)

# sweep: seeded sigma x L grid of step potentials on one small grid.
# R >= max(L) + 5/min(sigma) = 7 holds for every point.
SWEEP_R, SWEEP_H, SWEEP_N = 8.0, 0.1, 10
SWEEP_SIGMA = (1.0, 2.0)
SWEEP_L = (0.25, 2.0)

SOLVER = {"k": 1, "tol": 1e-8}


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]  # arguments of robinspectra.cli.main
    out: Path  # output directory the invocation writes
    ops: int  # solve records the invocation must produce
    spec: dict  # what the output check needs to know


def prepare(workload: str, seed: int, root: Path, work: Path, tiny: bool = False):
    """Write the workload's configs under `work` and return its invocations.

    `tiny` shrinks every workload to a size that runs in a few seconds; the
    self-test uses it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "configs").mkdir(parents=True, exist_ok=True)
    return globals()[f"_{workload}"](random.Random(seed), root, work, tiny)


def _write(work: Path, name: str, cfg: dict) -> Path:
    path = work / "configs" / f"{name}.cfg"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def _presets(rng, root, work, tiny):
    invocations = []
    for name in PRESETS[:1] if tiny else PRESETS:
        path = root / "configs" / f"{name}.cfg"
        cfg = json.loads(path.read_text())
        h = cfg["grid"]["h"]
        n_bc = 2 if cfg.get("outer_bc") == "both" else 1
        out = work / "out" / name
        invocations.append(
            Invocation(
                name=name,
                argv=("run", "--config", str(path), "--out", str(out)),
                out=out,
                ops=(len(h) if isinstance(h, list) else 1) * n_bc,
                spec={
                    "reference": root / "out" / name,
                    "tol": float(cfg.get("solver", {}).get("tol", 1e-8)),
                },
            )
        )
    return invocations


def _refine(rng, root, work, tiny):
    R, hs = (8.0, tuple(2 * h for h in REFINE_H)) if tiny else (REFINE_R, REFINE_H)
    sigma = round(rng.uniform(*REFINE_SIGMA), 3)
    L = round(rng.randint(*(round(x / hs[0]) for x in REFINE_L)) * hs[0], 10)
    invocations = []
    for kind, potential in (
        ("constant", {"kind": "constant", "sigma": sigma}),
        ("step", {"kind": "step", "sigma": sigma, "L": L}),
    ):
        cfg = {
            "potential": potential,
            "grid": {"R": R, "h": list(hs)},
            "outer_bc": "dirichlet",
            "solver": SOLVER,
            "tasks": ["solve"],
        }
        path = _write(work, f"refine-{kind}", cfg)
        out = work / "out" / f"refine-{kind}"
        invocations.append(
            Invocation(
                name=f"refine-{kind}",
                argv=("run", "--config", str(path), "--out", str(out)),
                out=out,
                ops=len(hs),
                spec={"kind": kind, "sigma": sigma, "L": L, "h": hs, "tol": SOLVER["tol"]},
            )
        )
    return invocations


def _sweep(rng, root, work, tiny):
    n = 2 if tiny else SWEEP_N
    sigmas = sorted(round(rng.uniform(*SWEEP_SIGMA), 4) for _ in range(n))
    lengths = sorted(round(rng.uniform(*SWEEP_L), 4) for _ in range(n))
    cfg = {
        "potential": {"kind": "step", "sigma": sigmas[0], "L": lengths[0]},
        "grid": {"R": SWEEP_R, "h": SWEEP_H},
        "outer_bc": "dirichlet",
        "solver": SOLVER,
        "tasks": ["sweep"],
        "sweep": {"sigma": sigmas, "L": lengths, "solve": True},
    }
    path = _write(work, "sweep", cfg)
    out = work / "out" / "sweep"
    return [
        Invocation(
            name="sweep",
            argv=("sweep", "--config", str(path), "--workers", "1", "--out", str(out)),
            out=out,
            ops=n * n,
            spec={
                "sigma": sigmas,
                "L": lengths,
                "R": SWEEP_R,
                "h": SWEEP_H,
                "tol": SOLVER["tol"],
            },
        )
    ]
