"""Self-test of the benchmark's output checks, at a tiny size.

Runs every workload once at a size of a few seconds, checks that its
outputs pass, then perturbs one eigenvalue in the output and checks that
the checker now fails that invocation's ops.  Run from the root of a
checkout:

    python3 perfbench/selftest.py

Exits 0 when every workload behaves as expected.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys

import run  # noqa: F401  (pins the BLAS threads before numpy is imported)
import workloads
from checks import Checker

PERTURBATION = 1e-4  # far above the solver tolerance, far below the bounds


def perturb(workload: str, inv) -> None:
    """Shift the first eigenvalue the invocation wrote by PERTURBATION."""
    if workload == "sweep":
        path = inv.out / "sweep.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][5] = repr(float(rows[1][5]) + PERTURBATION)
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    else:
        path = inv.out / "solve.json"
        solve = json.loads(path.read_text())
        record = next(iter(next(iter(solve["results"].values())).values()))
        record["eigenvalues"][0] += PERTURBATION
        path.write_text(json.dumps(solve, sort_keys=True, indent=2) + "\n")


def main() -> int:
    cli = run.import_cli()
    ok = True
    work = run.ROOT / ".perfbench_work" / "selftest"
    try:
        for workload in workloads.WORKLOADS:
            invocations = workloads.prepare(workload, 0, run.ROOT, work / workload, tiny=True)
            for inv in invocations:
                _, problem = run.invoke(cli, inv)
                clean = [problem] if problem else Checker().check(workload, inv)
                perturb(workload, inv)
                dirty = Checker().check(workload, inv)
                passed = not clean and bool(dirty)
                ok = ok and passed
                print(
                    f"{'ok  ' if passed else 'FAIL'} {workload}/{inv.name}: {inv.ops} ops; "
                    f"clean output {'; '.join(clean) or 'passes'}; "
                    f"perturbed output {'fails: ' + '; '.join(dirty) if dirty else 'passes'}"
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
