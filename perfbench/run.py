#!/usr/bin/env python3
"""Benchmark of the bresse CLI: one workload per process, in-process commands.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The command is driven through
``bresse.cli.parse_config`` and ``bresse.cli.run`` from the checkout's
``src``; the seed becomes the config ``seed``.  Commands repeat while at
least half a command's time is left of ``--seconds``.  Outputs are checked afterwards,
outside the timed region.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced commands alternate and the
per-layer metrics are printed.  The last line of standard output is one
JSON object; the lines above it are the same figures as a table.  See
perfbench/README.md for every metric.
"""

import os

PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BRESSE_THREADS": "1",
}
os.environ.update(PINS)  # before numpy loads the BLAS

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 21


def environment(seed):
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "pins": dict(PINS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


class Bench:
    def __init__(self, workload, seed, cli, tracer=None):
        self.wl = workload
        self.seed = seed
        self.cli = cli
        self.tracer = tracer
        self.run_dir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.reference = None  # data files of the first command that completed
        self.reference_problems = []
        self.failures = []
        self.attempted = 0

    def command(self, k, traced):
        """Run one command and return its record: wall time, the run report's
        phase timings, output directory, success, and spans when traced."""
        out = self.run_dir / f"rep{k}"
        text = self.wl.text(self.seed, out)
        cli = self.cli
        self.attempted += 1
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        error, timings = None, {}
        t0 = time.perf_counter()
        try:
            cfg = cli.parse_config(text)
            timings = cli.run(self.wl.command, cfg).timings
        except Exception as exc:  # a failed command is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        figures = None
        if traced:
            self.tracer.uninstall()
            figures = {
                "spans": list(self.tracer.spans),
                "discretization.matrix_bytes_computed": max(
                    map(spans.array_bytes, self.tracer.systems), default=0
                ),
            }
            self.tracer.reset()
        if error is not None:
            self.failures.append(f"rep{k}: {error}")
        return {"k": k, "wall": wall, "timings": timings, "trace": figures, "out": out,
                "ok": error is None, "traced": traced}

    def verify(self, k, out):
        """Check one command's outputs; the first is checked against the oracles,
        later ones must repeat its data files byte for byte."""
        try:
            files = checks.data_files(out)
            if self.reference is None:
                self.reference_problems = checks.check_outputs(self.wl, out)
                self.reference = files
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed outputs
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        else:
            same = files == self.reference
            problems = self.reference_problems if same else ["data files differ from the first"]
        if problems:
            self.failures.append(f"rep{k}: " + "; ".join(problems))
        return not problems


def setup_seconds(wl, seed, cli, reps):
    """Median time of parse_config + build_mesh + assemble."""
    from bresse.discretization import assemble, build_mesh

    text = wl.text(seed, WORK / "setup")
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        cfg = cli.parse_config(text)
        assemble(cfg.params, build_mesh(cfg.params, cfg.mesh_n))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_loop(bench, seconds):
    """Repeat commands while at least half a command's time is left; returns
    their records.  Half, so that a budget of about two commands runs two.
    When tracing, odd-numbered commands are traced and at least one is."""
    reps = []
    start = time.perf_counter()
    while True:
        k = len(reps)
        reps.append(bench.command(k, traced=bench.tracer is not None and k % 2 == 1))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in reps)
        need_traced = bench.tracer is not None and not any(r["traced"] for r in reps)
        if seconds - elapsed < typical / 2 and not need_traced:
            return reps


def output_figures(wl, out):
    """Per-command figures read from the outputs: data bytes, pairs, power iterations."""
    files = checks.data_files(out) if out.is_dir() else {}
    figures = {"cli.output_bytes": sum(map(len, files.values()))}
    pairs = 0.0
    if "spectrum.csv" in files:
        data = checks.read_csv(out / "spectrum.csv")
        pairs = int((data["im"] >= 0).sum()) / (wl.shifts * wl.blocks["spectrum"]["per_shift"])
    figures["spectral.pairs_per_shift"] = pairs
    iters = []
    for path in sorted(out.glob("resolvent*.csv")):
        iters += [int(x) for x in checks.read_csv(path)["iters"]]
    figures["resolvent.power_iters.total"] = sum(iters)
    figures["resolvent.power_iters.max"] = max(iters, default=0)
    return figures


def science(wl, out):
    """Scientific results as they came out; recorded, never counted as failures."""
    names = {
        "spectrum": "spectrum_summary.json",
        "resolvent": "resolvent_summary.json",
        "simulate": "simulate_summary.json",
        "dichotomy": "dichotomy_summary.json",
    }
    try:
        summary = json.loads((out / names[wl.command]).read_text())
    except (OSError, KeyError, ValueError):
        return {}
    return {k: v for k, v in summary.items() if isinstance(v, (int, float, bool))}


def aggregate(values):
    """One figure from several commands: exact when they agree, else the median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bresse" / "cli.py").is_file():
        print(f"error: no bresse sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("bresse.cli")
    import_s = time.perf_counter() - t0

    global checks, spans
    import checks
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    env = environment(args.seed)

    tracer = spans.Tracer() if args.trace else None
    bench = Bench(wl, args.seed, cli, tracer)
    try:
        setup_s = setup_seconds(wl, args.seed, cli, SETUP_REPS)
        reps = timed_loop(bench, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Outside the timed region: check outputs and read the per-command figures
        per_layer = []
        for rep in reps:
            rep["ok"] = rep["ok"] and bench.verify(rep["k"], rep["out"])
            if rep["traced"]:
                figures = spans.layer_metrics(rep["trace"]["spans"], tracer.library)
                figures.update(output_figures(wl, rep["out"]))
                figures["discretization.matrix_bytes_computed"] = rep["trace"][
                    "discretization.matrix_bytes_computed"]
                figures["trace_self_sum_frac"] = figures.pop("self_sum_s") / rep["wall"]
                figures["wall_s"] = rep["wall"]
                per_layer.append(figures)
        sci = science(wl, reps[0]["out"])
        if tracer is not None:
            with open(WORK / f"spans-{wl.name}.tsv", "w") as fh:
                spans.write_spans(fh, [r["trace"]["spans"] for r in reps if r["traced"]])
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    attempted = bench.attempted
    failed = sum(1 for r in reps if not r["ok"])
    count, label = wl.items
    plain = [r["wall"] for r in reps if not r["traced"]]
    wall_s = statistics.median(plain)
    table = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "items_per_s": (statistics.median(count / w for w in plain), "1/s"),
        f"{label}_per_s": (statistics.median(count / w for w in plain), "1/s"),
    }
    profiles = [r["timings"].get("profile_equal", 0.0) + r["timings"].get("profile_unequal", 0.0)
                for r in reps if not r["traced"]]
    if wl.command == "dichotomy" and all(profiles):
        # the CLI's own timing of its two profile phases
        table["lambdas_per_s"] = (statistics.median(wl.lambdas / t for t in profiles), "1/s")
    metrics = {k: table[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "items_per_s")}

    if args.trace:
        layer = {k: aggregate([f[k] for f in per_layer]) for k in per_layer[0]}
        layer["cli.import_s"] = import_s
        traced_wall = statistics.median(f["wall_s"] for f in per_layer)
        layer["trace_overhead_frac"] = traced_wall / wall_s - 1.0
        metrics = {k: (layer[k], unit) for k, unit in spans.UNITS.items()}
        table["traced_wall_s"] = (traced_wall, "s")
        table.update(metrics)

    result = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": env,
        "commands": [{"wall_s": r["wall"], "traced": r["traced"], "ok": r["ok"]} for r in reps],
        "failures": bench.failures,
        "science": sci,
        "table": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }
    with open(WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(f"# {wl.name}: {wl.why}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# commands: {attempted} attempted, {failed} failed")
    for line in bench.failures:
        print(f"# FAILED {line}")
    for key, value in sci.items():
        print(f"# science {key} = {value}")
    for key, (value, unit) in table.items():
        print(f"{key:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
