"""In-memory spans around the calls into robinspectra's layers.

`install` replaces every public function and method of each layer module,
in its own module and in every module that bound it by name, with a wrapper
that records a span when a call enters the layer from another layer.  Calls
inside one layer pass straight through, so spans never nest within a layer
and a layer's self time is the time of its spans minus the time of the
spans they caused.  Spans stay in memory; `summary` turns them into the
per-layer metrics.  The program's own files are not changed.
"""
from __future__ import annotations

import enum
import functools
import inspect
import os
import sys
import time
import warnings

LAYERS = ("potential", "analytic1d", "certify", "discretize", "eigensolve", "analysis")
SOLVE = "eigensolve.lowest_eigenpairs"

# cli functions and Runner methods by the layer they are counted in; every
# Runner.task_* method is a "cli.task" span.
CLI_LAYERS = {
    "main": "cli.main",
    "load_config": "cli.io",
    "write_json": "cli.io",
    "write_csv": "cli.io",
    "Runner._write_manifest": "cli.io",
}

CALIBRATION_CALLS = 20_000


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "failed", "extra")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0
        self.failed = False
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.passthrough = 0  # calls made inside their own layer
        self.enabled = False

    def wrap(self, name, layer, fn, hook=None):
        """`fn` recording a span per call entering `layer`; `hook(span, fn,
        args, kwargs)` makes the call when given, to record extra counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if stack and stack[-1].layer == layer:
                tracer.passthrough += 1
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(span, fn, args, kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start

        return traced

    def calibrate(self, calls: int = CALIBRATION_CALLS) -> tuple[float, float]:
        """Seconds a wrapper adds per recorded span and per passthrough call."""

        def noop():
            pass

        traced = self.wrap("calibration", "calibration", noop)
        saved = self.spans, self.stack, self.passthrough, self.enabled
        self.spans, self.stack, self.enabled = [], [], True
        try:
            bare = _time_calls(noop, calls)
            per_span = max(0.0, (_time_calls(traced, calls) - bare) / calls)
            outer = Span("calibration", "calibration", None)
            self.stack.append(outer)
            per_pass = max(0.0, (_time_calls(traced, calls) - bare) / calls)
        finally:
            self.spans, self.stack, self.passthrough, self.enabled = saved
        return per_span, per_pass

    def summary(self, runs: dict, calibration: tuple[float, float]) -> dict:
        """Per-layer metrics of one pass of the workload.

        `runs` maps each invocation to the (first, end) span indices of each
        of its runs; a metric is each invocation's mean over its runs, summed
        over the invocations.
        """
        max_dof = max(
            (s.extra["dof"] for s in self.spans if s.name == SOLVE and s.extra), default=0
        )
        out: dict[str, float] = {}
        for ranges in runs.values():
            totals = [_totals(self.spans[a:b], max_dof) for a, b in ranges]
            for key in totals[0]:
                out[key] = out.get(key, 0.0) + sum(t[key] for t in totals) / len(totals)
        out[f"{SOLVE}.max_dof"] = max_dof
        roots = [s for s in self.spans if s.layer == "cli.main"]
        wall = sum(s.duration for s in roots)
        per_span, per_pass = calibration
        out["trace.coverage_frac"] = sum(s.child_s for s in roots) / wall
        out["trace.overhead_frac"] = (
            len(self.spans) * per_span + self.passthrough * per_pass
        ) / wall
        return out


def _totals(spans: list[Span], max_dof: int) -> dict:
    """Additive per-layer counts and self times of one invocation run."""
    out: dict[str, float] = {"trace.spans": len(spans)}

    def add(prefix, chosen):
        out[f"{prefix}.calls"] = len(chosen)
        out[f"{prefix}.s"] = sum(s.self_s for s in chosen)
        return chosen

    def extra_sum(chosen, key):
        return sum(s.extra[key] for s in chosen if s.extra)

    solves = add(SOLVE, [s for s in spans if s.name == SOLVE])
    out[f"{SOLVE}.failed"] = sum(s.failed for s in solves)
    out[f"{SOLVE}.dof"] = extra_sum(solves, "dof")
    out[f"{SOLVE}.dense_calls"] = extra_sum(solves, "dense")
    out[f"{SOLVE}.max_dof_s"] = sum(
        s.self_s for s in solves if s.extra and s.extra["dof"] == max_dof
    )
    counts = add("eigensolve.count_below", [s for s in spans if s.name == "eigensolve.count_below"])
    out["eigensolve.count_below.failed"] = sum(s.failed for s in counts)
    assembles = add("discretize.assemble", [s for s in spans if s.name == "discretize.assemble"])
    for key in ("dof", "nnz", "warnings"):
        out[f"discretize.assemble.{key}"] = extra_sum(assembles, key)
    for layer in ("potential", "certify", "analytic1d", "analysis", "cli.task"):
        add(layer, [s for s in spans if s.layer == layer])
    io = add("cli.io", [s for s in spans if s.layer == "cli.io"])
    out["cli.io.bytes"] = extra_sum(io, "bytes")
    return out


def _time_calls(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t0


# ------------------------------------------------------------------ hooks


def _lowest_eigenpairs_hook(span, fn, args, kwargs):
    from robinspectra.eigensolve import DENSE_LIMIT

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    dof = bound.arguments["F"].dimension
    method = bound.arguments["method"]
    dense = method == "dense" or (method == "auto" and dof <= DENSE_LIMIT)
    span.extra = {"dof": dof, "dense": dense}
    return fn(*args, **kwargs)


def _assemble_hook(span, fn, args, kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        form = fn(*args, **kwargs)
    for w in caught:  # pass them on as the untraced program would
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    span.extra = {"dof": form.dimension, "nnz": form.matrix.nnz, "warnings": len(caught)}
    return form


def _write_hook(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.extra = {"bytes": os.path.getsize(args[0])}
    return result


def _manifest_hook(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.extra = {"bytes": os.path.getsize(args[0].out / "manifest.json")}
    return result


HOOKS = {
    SOLVE: _lowest_eigenpairs_hook,
    "discretize.assemble": _assemble_hook,
    "cli.write_json": _write_hook,
    "cli.write_csv": _write_hook,
    "cli.Runner._write_manifest": _manifest_hook,
}


# ---------------------------------------------------------------- install


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported robinspectra package (once per process)."""
    import robinspectra.cli  # noqa: F401  (imports every layer module)

    modules = [
        m for n, m in sys.modules.items() if n == "robinspectra" or n.startswith("robinspectra.")
    ]
    targets = []  # (owner, attribute, name, layer)
    for short in LAYERS:
        mod = sys.modules[f"robinspectra.{short}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((mod, attr, f"{short}.{attr}", short))
            elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets.append((obj, meth, f"{short}.{attr}.{meth}", short))
    cli = sys.modules["robinspectra.cli"]
    for qualname, layer in CLI_LAYERS.items():
        owner, _, attr = qualname.rpartition(".")
        targets.append((getattr(cli, owner) if owner else cli, attr, f"cli.{qualname}", layer))
    for attr, fn in vars(cli.Runner).items():
        if attr.startswith("task_") and inspect.isfunction(fn):
            targets.append((cli.Runner, attr, f"cli.Runner.{attr}", "cli.task"))

    for owner, attr, name, layer in targets:
        original = vars(owner)[attr]
        traced = tracer.wrap(name, layer, original, HOOKS.get(name))
        setattr(owner, attr, traced)
        if inspect.ismodule(owner):  # rebind it wherever it was imported by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
