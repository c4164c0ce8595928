"""Outside-in span tracing of the bresse layers.

The tracer replaces names in the layer modules' namespaces with timing
wrappers, so nothing inside the package changes.  Two kinds of names are
wrapped:

- public bresse functions of a layer, labelled ``<home layer>.<name>``
  and installed in every layer namespace that looks the name up (so
  ``bresse.cli.assemble`` and ``bresse.discretization.assemble`` share
  one wrapper, labelled ``discretization.assemble``);
- the scipy.linalg entry points a layer imports, labelled
  ``<importing layer>.<name>`` (``spectral.lu_factor`` and
  ``resolvent.lu_factor`` are different spans).

Spans are kept in memory as ``(name, parent, start_ns, end_ns)`` and
written out once, when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children; summed over all
spans it equals the duration of the root spans exactly.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "discretization", "spectral", "resolvent", "timedomain")

# Every per-layer metric the traced run reports, with its unit
UNITS = {
    "spectral.self_s": "s",
    "spectral.lu_factor.count": "count",
    "spectral.lu_factor.s": "s",
    "spectral.lu_solve.count": "count",
    "spectral.lu_solve.s": "s",
    "spectral.krylov_dim.median": "count",
    "spectral.krylov_dim.max": "count",
    "spectral.pairs_per_shift": "ratio",
    "resolvent.self_s": "s",
    "resolvent.lu_factor.count": "count",
    "resolvent.lu_factor.s": "s",
    "resolvent.lu_solve.count": "count",
    "resolvent.lu_solve.s": "s",
    "resolvent.solve_triangular.count": "count",
    "resolvent.solve_triangular.s": "s",
    "resolvent.power_iters.total": "count",
    "resolvent.power_iters.max": "count",
    "resolvent.lambda_s.median": "s",
    "resolvent.lambda_s.max": "s",
    "timedomain.self_s": "s",
    "timedomain.step_midpoint.count": "count",
    "timedomain.step_midpoint.us": "us",
    "timedomain.cho_solve.us": "us",
    "timedomain.cho_factor.count": "count",
    "timedomain.factor_reuse": "ratio",
    "discretization.self_s": "s",
    "discretization.energy.count": "count",
    "discretization.energy.us": "us",
    "discretization.assemble.s": "s",
    "discretization.cho_factor.s": "s",
    "discretization.matrix_bytes_computed": "B",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "cli.import_s": "s",
    "trace_overhead_frac": "ratio",
    "trace_self_sum_frac": "ratio",
}


class Tracer:
    """Installs span wrappers into the layer modules and records spans."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"bresse.{layer}") for layer in LAYERS}
        self.spans = []
        self.library = set()  # span names that are scipy entry points
        self.systems = []  # assembled systems seen while tracing
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn, keep_result=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        systems = self.systems

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if keep_result:
                systems.append(result)
            return result

        return traced

    def install(self):
        """Wrap every traced name in every layer namespace that holds it."""
        if self._patches:
            return
        wrappers = {}  # id(original function) -> wrapper shared by namespaces
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if home.startswith("scipy."):
                    name = f"{layer}.{attr}"
                    self.library.add(name)
                    wrapper = self._wrap(name, obj)
                elif home.startswith("bresse.") and not attr.startswith("_"):
                    home_layer = home.split(".", 1)[1]
                    if home_layer not in LAYERS:
                        continue
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(
                            f"{home_layer}.{obj.__name__}",
                            obj,
                            keep_result=(home_layer, obj.__name__)
                            == ("discretization", "assemble"),
                        )
                    wrapper = wrappers[id(obj)]
                else:
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.systems.clear()
        self._stack.clear()


def write_spans(fh, reps):
    """Write spans as TSV, one block per traced command, times in ns from its start."""
    fh.write("rep\tid\tparent\tname\tstart_ns\tend_ns\n")
    for rep, spans in enumerate(reps):
        origin = min((s[2] for s in spans), default=0)
        for i, (name, parent, t0, t1) in enumerate(spans):
            fh.write(f"{rep}\t{i}\t{parent}\t{name}\t{t0 - origin}\t{t1 - origin}\n")


def array_bytes(obj) -> int:
    """Bytes of every numpy array an object holds (attributes, tuples, dicts).

    This is computed from array sizes, not measured from the allocator.
    """
    seen = set()

    def walk(x):
        if isinstance(x, np.ndarray):
            if id(x) in seen:
                return 0
            seen.add(id(x))
            return int(x.nbytes)
        if isinstance(x, (tuple, list)):
            return sum(walk(v) for v in x)
        if isinstance(x, dict):
            return sum(walk(v) for v in x.values())
        return 0

    return sum(walk(v) for v in vars(obj).values())


def span_table(spans):
    """Aggregate spans by name: count, total and self seconds, call durations."""
    child = defaultdict(int)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    table = {}
    for i, (name, parent, t0, t1) in enumerate(spans):
        row = table.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "durations": []})
        row["count"] += 1
        row["total_ns"] += t1 - t0
        row["self_ns"] += t1 - t0 - child[i]
        row["durations"].append(t1 - t0)
    return table


def _between(spans, outer, inner):
    """Per outer span, the start times of the inner spans it encloses."""
    groups = []
    for name, _, t0, t1 in spans:
        if name == outer:
            starts = [s[2] for s in spans if s[0] == inner and t0 <= s[2] <= t1]
            groups.append((sorted(starts), t1))
    return groups


def layer_metrics(spans, library):
    """Per-layer figures for one traced command, from its spans alone."""
    table = span_table(spans)

    def count(name):
        return table[name]["count"] if name in table else 0

    def total_s(name):
        return table[name]["total_ns"] * 1e-9 if name in table else 0.0

    def median_us(name):
        return float(np.median(table[name]["durations"])) * 1e-3 if name in table else 0.0

    out = {}
    for layer in LAYERS:
        own = [n for n in table if n.startswith(layer + ".") and n not in library]
        out[f"{layer}.self_s"] = sum(table[n]["self_ns"] for n in own) * 1e-9
    out["self_sum_s"] = sum(row["self_ns"] for row in table.values()) * 1e-9

    for name in ("spectral.lu_factor", "spectral.lu_solve", "resolvent.lu_factor",
                 "resolvent.lu_solve", "resolvent.solve_triangular"):
        out[f"{name}.count"] = count(name)
        out[f"{name}.s"] = total_s(name)

    # Krylov dimension per shift: solves after each factorization, minus the probe
    dims = []
    for starts_f, end in _between(spans, "spectral.axis_scan", "spectral.lu_factor"):
        solves = [s[2] for s in spans if s[0] == "spectral.lu_solve" and s[2] <= end]
        bounds = starts_f + [end]
        for a, b in zip(bounds, bounds[1:]):
            dims.append(sum(1 for t in solves if a <= t < b) - 1)
    out["spectral.krylov_dim.median"] = float(np.median(dims)) if dims else 0.0
    out["spectral.krylov_dim.max"] = max(dims) if dims else 0

    # Seconds per lambda: from one resolvent factorization to the next
    per_lambda = []
    for starts_f, end in _between(spans, "resolvent.profile", "resolvent.lu_factor"):
        bounds = starts_f + [end]
        per_lambda += [(b - a) * 1e-9 for a, b in zip(bounds, bounds[1:])]
    out["resolvent.lambda_s.median"] = float(np.median(per_lambda)) if per_lambda else 0.0
    out["resolvent.lambda_s.max"] = max(per_lambda) if per_lambda else 0.0

    out["timedomain.step_midpoint.count"] = count("timedomain.step_midpoint")
    out["timedomain.step_midpoint.us"] = median_us("timedomain.step_midpoint")
    out["timedomain.cho_solve.us"] = median_us("timedomain.cho_solve")
    out["timedomain.cho_factor.count"] = count("timedomain.cho_factor")
    sims = count("timedomain.simulate")
    out["timedomain.factor_reuse"] = 1.0 - count("timedomain.cho_factor") / sims if sims else 0.0

    out["discretization.energy.count"] = count("discretization.energy")
    out["discretization.energy.us"] = median_us("discretization.energy")
    out["discretization.assemble.s"] = total_s("discretization.assemble")
    out["discretization.cho_factor.s"] = total_s("discretization.cho_factor")
    return out
