"""Outside-in benchmark of the robinspectra CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 38 --trace 0

One process per run.  It imports `robinspectra.cli` from `src/`, generates
the workload's configs from the seed, then calls `robinspectra.cli.main`
for the workload's invocations in turn: one whole pass, then on while the
next invocation, at its last time, would end within `--seconds`.  Every
invocation's output is checked outside the timed region.  With `--trace 0` the last line of
standard output reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` the calls into each layer are traced and the per-layer metrics
are reported instead.  The line before it records the environment.
"""
from __future__ import annotations

import os

# One BLAS thread (at most nproc), fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def import_cli():
    """robinspectra.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "robinspectra" / "cli.py").is_file():
        raise SystemExit(f"error: no robinspectra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import robinspectra.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported robinspectra from {cli.__file__}, not {SRC}")
    return cli


def time_setup(args, work: Path) -> list[float]:
    """Fresh interpreters, each until robinspectra.cli is imported and the
    workload's configs are written; seconds per interpreter."""
    times = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--probe-dir", str(work / f"probe-{i}")]
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def invoke(cli, inv) -> tuple[float, str | None]:
    """One CLI invocation: its wall time and why it failed, if it did."""
    t0 = time.perf_counter()
    try:
        code = cli.main(list(inv.argv))
        problem = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # an escaping error fails the invocation's ops
        problem = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    return time.perf_counter() - t0, problem


def measure(cli, workload, invocations, seconds, checker, tracer=None):
    """Run the invocations in turn: one whole pass, then on while the next
    invocation, at its last time, ends within `seconds` of CLI time.

    Returns each invocation's times, the span index range of each of its
    runs when traced, and the op counts.
    """
    times = {inv.name: [] for inv in invocations}
    spans = {inv.name: [] for inv in invocations}
    elapsed = 0.0
    attempted = failed = 0
    for i, inv in enumerate(itertools.cycle(invocations)):
        if i >= len(invocations) and elapsed + times[inv.name][-1] > seconds:
            break
        gc.collect()
        if tracer is not None:
            first = len(tracer.spans)
            tracer.enabled = True
        t, problem = invoke(cli, inv)
        if tracer is not None:
            tracer.enabled = False
            spans[inv.name].append((first, len(tracer.spans)))
        times[inv.name].append(t)
        elapsed += t
        problems = [problem] if problem else checker.check(workload, inv)
        attempted += inv.ops
        if problems:
            failed += inv.ops
            print(f"FAILED {inv.name}: " + "; ".join(problems[:5]), file=sys.stderr)
    return times, spans, attempted, failed


def environment(cli) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "robinspectra").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "robinspectra": cli.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.probe_dir is not None:  # a set-up probe of time_setup
        workloads.prepare(args.workload, args.seed, ROOT, args.probe_dir)
        return 0

    from checks import Checker

    units = declared_metrics(bool(args.trace))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = time_setup(args, work)
        invocations = workloads.prepare(args.workload, args.seed, ROOT, work / "run")
        tracer = None
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        times, spans, attempted, failed = measure(
            cli, args.workload, invocations, args.seconds, Checker(), tracer
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if tracer is None:
        values = {
            "wall_s": sum(statistics.median(t) for t in times.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    else:
        values = tracer.summary(spans, tracer.calibrate())
    print(json.dumps({
        "environment": environment(cli),
        "workload": args.workload,
        "seed": args.seed,
        "invocation_s": times,
        "setup_s": setup,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
