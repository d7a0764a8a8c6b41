"""The library names that the benchmark's layer trace relies on.

`perfbench/layertrace.py` reads `eigensolve.DENSE_LIMIT`, binds the `method`
argument of `lowest_eigenpairs` and reads `matrix.nnz` of the form that
`assemble` returns, and the `sweep` workload runs with `--workers 1` so that
its solves are traced in one process.  A traced CLI run in a fresh
interpreter (the trace rewraps the package's modules once per process) checks
that each of these still holds.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_MAIN = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import layertrace
import robinspectra.cli as cli

tracer = layertrace.Tracer()
layertrace.install(tracer)
tracer.enabled = True
code = cli.main(sys.argv[1:])
tracer.enabled = False
summary = tracer.summary({{"run": [(0, len(tracer.spans))]}}, (0.0, 0.0))
print(json.dumps({{"code": code, "summary": summary}}))
"""


def test_layer_trace_of_bounds_solve_and_sweep(tmp_path):
    cfg = {
        "potential": {"kind": "step", "sigma": 1.0, "L": 1.0},
        "grid": {"R": 6.0, "h": 0.1},
        "tasks": ["bounds", "solve", "sweep"],
        # sigma = -0.5 takes the per-point solve and count, sigma = 1 the pencil
        "sweep": {"sigma": [-0.5, 1.0], "L": [1.0], "solve": True},
    }
    path = tmp_path / "traced.cfg"
    path.write_text(json.dumps(cfg))
    script = TRACED_MAIN.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", "1"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = result["summary"]
    assert result["code"] == 0, proc.stderr
    assert summary["eigensolve.lowest_eigenpairs.calls"] == 2  # solve task + the sigma < 0 point
    assert summary["eigensolve.lowest_eigenpairs.failed"] == 0
    assert summary["eigensolve.count_below.calls"] >= 1
    assert summary["eigensolve.count_below.failed"] == 0
    assert summary["discretize.assemble.nnz"] > 0
