"""Command line interface: config ingestion, orchestration, reporting.

Usage:
    bresse <command> --config <file> [--out <dir>] [--seed <u64>]

Commands: validate, spectrum, resolvent, simulate, decay-fit, dichotomy.

The JSON config has a required "params" block (all ten model coefficients;
a missing block reads as an empty one, so params.rho1 is reported missing,
exit 11) and "mesh_n"; everything else is optional with documented defaults:

    {
      "params": {"rho1": 1, "rho2": 1, "k1": 1, "k2": 1, "k3": 1,
                 "l": 1, "L": 1, "alpha": 0.25, "beta": 0.75, "d0": 1},
      "mesh_n": 64,
      "seed": 0,                  // Lanczos start vectors
      "output_dir": "out",
      "spectrum":  {"mu_grid": [1, 2, ..., 50], "per_shift": 5},
      "resolvent": {"lambda_min": 3.0, "lambda_max": null,   // null -> 1/h
                    "count": 25, "window": null},            // null -> default
      "sim":       {"dt": null,                              // null -> h/2
                    "t_final": 200.0, "sample_stride": 16,
                    "fit_window": [10.0, 100.0]}
    }

h is the largest element width.  The lambda grid runs from lambda_min
to top, lambda_max or 1/h, both ends exact (lambda_min >= top exits 13);
the default window is [max(3, top/10), top].  Unknown keys anywhere are rejected,
and so are out-of-range settings: seed must be >= 0; per_shift, count and
sample_stride >= 1; lambda_min, lambda_max, dt and t_final > 0.  One
reader walks the config dataclasses, and each checks itself when built:
ModelParams the params block, ResolventSettings lambda_max > lambda_min
(exit 13), and last ExperimentConfig d0 > 0 (exit 12): the library admits
the undamped beam (d0 = 0), the CLI runs the damped one.  Exit codes: 0
success; 10-19 config errors; 20-29 numerical errors; 30 I/O errors;
each error class in bresse.errors has its own code.

--out and --seed replace the file's output_dir and seed before the config
is checked and digested, so a run reports the digest of the config it ran
with; run_report.json records that digest and the seed.

Each command computes first, then makes output_dir and writes into it its
CSV tables, its JSON summary and run_report.json, in that order; the report's
"outputs" lists all but itself.  validate writes validate_summary.json
alone; spectrum spectrum.csv; resolvent resolvent.csv; simulate and
decay-fit energy.csv, one helper's trajectory of initial_data(L), which
decay-fit fits on sim.fit_window once it has refused, before the first
step, a window outside (0, t_final] (exit 13).  dichotomy refuses such
a window before any work, then runs resolvent and decay-fit on the
equal and then the unequal regime (k2 twice its equal-speed value),
writing resolvent_<regime>.csv and energy_<regime>.csv, then
dichotomy.csv.
Summaries are named <command>_summary.json, except decay-fit's
decay_summary.json.  All CSV output is deterministic for a fixed
(config, seed, version): floats are serialized with 17 significant
digits and every sweep is merged in sorted order, so repeated runs
produce byte-identical files.
"""

import argparse
import csv
import hashlib
import json
import math
import sys as _sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .discretization import _integer, assemble, build_mesh, domain_norm, project_initial_data
from .errors import (
    BadInterval,
    BresseError,
    NonPositiveParameter,
    OutOfDomain,
    OutputError,
    ParseError,
    SchemaError,
)
from .model import ModelParams, _isfinite, classify_speeds
from .resolvent import fit_growth_exponent, lambda_cap, profile
from .spectral import quadratic_eigs
from .timedomain import SimConfig, fit_decay, initial_data, simulate

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "parse_config",
    "run",
    "main",
    "COMMANDS",
]


def _key(kind, lower=None, **default):
    """A config key's dataclass field, its schema in the metadata.

    kind is "int", "float", "str", "list" or "pair"; integers must be >=
    lower, other numbers > it.  An absent or null key takes the field
    default, and a field without one is required.  A field without
    metadata (every ModelParams coefficient) is a float with no bound.
    kind "object" is a block, the field's dataclass read from its own
    object; an absent block reads as an empty one.
    """
    return field(metadata={"kind": kind, "lower": lower}, **default)


@dataclass(frozen=True)
class SpectrumSettings:
    mu_grid: tuple = _key("list", default=tuple(float(m) for m in range(1, 51)))
    per_shift: int = _key("int", 1, default=5)


@dataclass(frozen=True)
class ResolventSettings:
    lambda_min: float = _key("float", 0.0, default=3.0)
    lambda_max: float | None = _key("float", 0.0, default=None)  # None: the mesh cap
    count: int = _key("int", 1, default=25)
    window: tuple | None = _key("pair", default=None)  # None: default fit window

    def __post_init__(self):
        if self.lambda_max is not None and not self.lambda_max > self.lambda_min:
            raise BadInterval(
                f"resolvent.lambda_max={self.lambda_max!r} must exceed "
                f"resolvent.lambda_min={self.lambda_min!r}"
            )


@dataclass(frozen=True)
class SimSettings:
    """CLI time grid: sample_stride defaults to 16 here, to 1 in SimConfig."""

    dt: float | None = _key("float", 0.0, default=None)  # None: half the largest element width
    t_final: float = _key("float", 0.0, default=200.0)
    sample_stride: int = _key("int", 1, default=16)
    fit_window: tuple = _key("pair", default=(10.0, 100.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """The checked config; the CLI runs the damped beam, d0 > 0."""

    params: ModelParams = _key("object")
    mesh_n: int = _key("int")
    seed: int = _key("int", 0, default=0)
    output_dir: str = _key("str", default="out")
    spectrum: SpectrumSettings = _key("object", default_factory=SpectrumSettings)
    resolvent: ResolventSettings = _key("object", default_factory=ResolventSettings)
    sim: SimSettings = _key("object", default_factory=SimSettings)
    digest: str = ""

    def __post_init__(self):
        if not self.params.d0 > 0:
            raise NonPositiveParameter("d0", self.params.d0)


@dataclass(frozen=True)
class RunReport:
    command: str
    version: str
    config_digest: str
    seed: int
    summary: dict
    outputs: tuple
    timings: dict


def _finite(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "a number")
    if not _isfinite(value):
        raise SchemaError(path, "a finite number")
    return value


def _setting(value, path, kind, lower):
    """One present, non-null config value, checked against its schema entry."""
    if kind == "str":
        if not isinstance(value, str):
            raise SchemaError(path, "a string path")
        return value
    if kind in ("list", "pair"):
        if not isinstance(value, list) or not value:
            raise SchemaError(path, "a nonempty array of numbers")
        items = tuple(float(_finite(item, f"{path}[{i}]")) for i, item in enumerate(value))
        if kind == "pair" and len(items) != 2:
            raise SchemaError(path, "an array [lo, hi]")
        return items
    value = _finite(value, path)
    if kind == "int":
        value = _integer(path, value)
        if lower is not None and value < lower:
            raise SchemaError(path, f"an integer >= {lower}")
        return value
    if lower is not None and not value > lower:
        raise SchemaError(path, f"a number > {lower:g}")
    return float(value)


def _read(cls, obj, path, **given):
    """A cls read from one config object, each field checked against its
    _key metadata; path names the object in errors.  given sets fields
    that no config key names."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "an object")
    keys = {f.name: f for f in fields(cls) if f.name not in given}
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}.{key}", "no such key")
    kwargs = dict(given)
    for f in keys.values():
        kind = f.metadata.get("kind", "float")
        if kind == "object":
            kwargs[f.name] = _read(f.type, obj.get(f.name, {}), f.name)
        elif obj.get(f.name) is not None:
            kwargs[f.name] = _setting(obj[f.name], f"{path}.{f.name}", kind, f.metadata.get("lower"))
        elif f.default is MISSING:
            raise SchemaError(f"{path}.{f.name}", "a required number")
    return cls(**kwargs)


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and schema-check a JSON config, applying documented defaults.

    overrides maps top-level keys (the CLI's seed and output_dir) to values
    that replace the file's before any check, so the digest covers them.
    Raises ParseError for malformed JSON, SchemaError for unknown,
    ill-typed or out-of-range keys, and the errors of each dataclass's own
    checks (ModelParams, ResolventSettings, ExperimentConfig's d0 > 0).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = {**raw, **(overrides or {})}
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return _read(ExperimentConfig, raw, "config", digest=digest)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _timed(timings: dict, key: str, fn, *args):
    """fn(*args), with its wall time recorded as timings[key]."""
    t0 = time.perf_counter()
    result = fn(*args)
    timings[key] = time.perf_counter() - t0
    return result


def _build(cfg: ExperimentConfig):
    return assemble(cfg.params, build_mesh(cfg.params, cfg.mesh_n))


def _profile(cfg: ExperimentConfig, sys_):
    """Resolvent norms on the config's log-spaced lambda grid, ends exact;
    BadInterval unless it rises, OutOfDomain when it cannot be allocated."""
    rs = cfg.resolvent
    hi = rs.lambda_max if rs.lambda_max is not None else lambda_cap(sys_)
    if not hi > rs.lambda_min:
        raise BadInterval(f"resolvent.lambda_min={rs.lambda_min!r} must lie below the mesh cap 1/h={hi!r}")
    try:
        grid = np.logspace(math.log10(rs.lambda_min), math.log10(hi), rs.count)
    except (ValueError, MemoryError):
        raise OutOfDomain(
            f"resolvent.count={rs.count:.3e} asks for more lambdas than can be allocated"
        ) from None
    grid[-1], grid[0] = hi, rs.lambda_min  # the exact bounds; one point is lambda_min
    return profile(sys_, grid, seed=cfg.seed)


def _sim_config(cfg: ExperimentConfig, sys_) -> SimConfig:
    ss = cfg.sim
    dt = ss.dt if ss.dt is not None else 0.5 * float(sys_.mesh.widths.max())
    return SimConfig(dt, ss.t_final, ss.sample_stride)


def _trajectory(sys_, sim_cfg):
    """The default datum, initial_data(L), projected and stepped: its
    EnergySeries and ||U0||^2_D(A).  Both simulate and decay-fit run it."""
    U0 = project_initial_data(sys_, initial_data(sys_.params.L))
    return simulate(sys_, U0, sim_cfg), domain_norm(sys_, U0)


def _energy_table(s):
    rows = zip(s.times, s.energies, s.kinetics, s.potentials, s.sample_residuals)
    return ("t", "E", "kinetic", "potential", "balance_residual"), list(rows)


def _run_validate(cfg, timings):
    speed = classify_speeds(cfg.params)
    sys_ = _timed(timings, "build", _build, cfg)
    summary = {
        "params": asdict(cfg.params),
        "mesh_n": cfg.mesh_n,
        "n_dofs": sys_.n_dofs,
        "variant": speed.variant,
        "predicted_resolvent_exponent": speed.predicted_resolvent_exponent,
        "predicted_decay_exponent": speed.predicted_decay_exponent,
        "lambda_max": lambda_cap(sys_),
        "damped_elements": int(sys_.mesh.beta_index - sys_.mesh.alpha_index),
    }
    return summary, {}


def _run_spectrum(cfg, timings):
    sys_ = _build(cfg)
    sc = cfg.spectrum
    shifts = [1j * mu for mu in sorted(sc.mu_grid)]  # a scan of the imaginary axis
    report = _timed(timings, "quadratic_eigs", quadratic_eigs, sys_, shifts, sc.per_shift)
    pairs = zip(report.eigenvalues, report.residuals)
    rows = [(s.real, s.imag, r, sys_.mesh.n_elements) for s, r in pairs]
    summary = {
        "spectral_abscissa": report.spectral_abscissa,
        "min_abs_real": report.min_abs_real,
    }
    return summary, {"spectrum.csv": (("re", "im", "residual", "mesh_n"), rows)}


def _run_resolvent(cfg, timings):
    sys_ = _build(cfg)
    speed = classify_speeds(cfg.params)
    prof = _timed(timings, "profile", _profile, cfg, sys_)
    fit = fit_growth_exponent(prof, cfg.resolvent.window)
    summary = {
        "slope": fit.slope,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
        "predicted_exponent": speed.predicted_resolvent_exponent,
    }
    rows = zip(prof.lambdas, prof.norms, prof.iters, prof.residuals)
    return summary, {"resolvent.csv": (("lambda", "norm", "iters", "residual"), list(rows))}


def _run_simulate(cfg, timings):
    sys_ = _build(cfg)
    sim_cfg = _sim_config(cfg, sys_)
    series, norm0 = _timed(timings, "simulate", _trajectory, sys_, sim_cfg)
    summary = {
        "dt": sim_cfg.dt,
        "t_final": sim_cfg.t_final,
        "energy_initial": float(series.energies[0]),
        "energy_final": float(series.energies[-1]),
        "max_balance_residual": float(series.dissipation_residuals.max()),
        "domain_norm0": norm0,
    }
    return summary, {"energy.csv": _energy_table(series)}


def _fit_window(cfg: ExperimentConfig) -> tuple:
    """sim.fit_window, refused (BadInterval) unless 0 < lo < hi <= t_final."""
    window = cfg.sim.fit_window
    if not 0.0 < window[0] < window[1] <= cfg.sim.t_final:
        raise BadInterval(f"fit_window={window!r} must lie inside (0, t_final]")
    return window


def _run_decay_fit(cfg, timings):
    window = _fit_window(cfg)
    sys_ = _build(cfg)

    def decay_fit():
        series, norm0 = _trajectory(sys_, _sim_config(cfg, sys_))
        return series, norm0, fit_decay(series, window)

    series, norm0, fit = _timed(timings, "decay_fit", decay_fit)
    summary = {
        "gamma_hat": -fit.slope,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
        "domain_norm0": norm0,
    }
    return summary, {"energy.csv": _energy_table(series)}


# k2 of the unequal twin over its equal-speed value; any factor != 1 is unequal
_UNEQUAL_FACTOR = 2.0


def _run_dichotomy(cfg, timings):
    """The resolvent and decay-fit runners on the equal-speed projection of
    the config params, then on its unequal twin; a bad sim.fit_window
    is refused before either runs."""
    _fit_window(cfg)
    k2_equal = cfg.params.rho2 * cfg.params.k1 / cfg.params.rho1
    tables, rows = {}, []
    for tag, k2 in (("equal", k2_equal), ("unequal", k2_equal * _UNEQUAL_FACTOR)):
        twin = replace(cfg, params=replace(cfg.params, k2=k2))
        phases = {}
        growth, profile_tables = _run_resolvent(twin, phases)
        decay, energy_tables = _run_decay_fit(twin, phases)
        timings[f"profile_{tag}"] = phases["profile"]
        timings[f"decay_{tag}"] = phases["decay_fit"]
        tables[f"resolvent_{tag}.csv"] = profile_tables["resolvent.csv"]
        tables[f"energy_{tag}.csv"] = energy_tables["energy.csv"]
        rows.append(
            {
                "regime": tag,
                "slope": growth["slope"],
                "r_squared_resolvent": growth["r_squared"],
                "gamma_hat": decay["gamma_hat"],
                "r_squared_decay": decay["r_squared"],
                "predicted_resolvent_exponent": growth["predicted_exponent"],
                "predicted_decay_exponent": classify_speeds(twin.params).predicted_decay_exponent,
            }
        )
    tables["dichotomy.csv"] = (list(rows[0]), [list(row.values()) for row in rows])
    equal, unequal = rows
    summary = {
        "slope_equal": equal["slope"],
        "slope_unequal": unequal["slope"],
        "gamma_equal": equal["gamma_hat"],
        "gamma_unequal": unequal["gamma_hat"],
    }
    return summary, tables


# command -> (runner, summary file name).  runner(cfg, timings) returns
# (summary, tables), tables mapping a CSV name to (header, rows) in the
# order run writes them.
_RUNNERS = {
    "validate": (_run_validate, "validate_summary.json"),
    "spectrum": (_run_spectrum, "spectrum_summary.json"),
    "resolvent": (_run_resolvent, "resolvent_summary.json"),
    "simulate": (_run_simulate, "simulate_summary.json"),
    "decay-fit": (_run_decay_fit, "decay_summary.json"),
    "dichotomy": (_run_dichotomy, "dichotomy_summary.json"),
}
COMMANDS = tuple(_RUNNERS)


def run(command: str, cfg: ExperimentConfig) -> RunReport:
    """Execute one command: write its CSVs, its JSON summary, then the run report."""
    if command not in _RUNNERS:
        raise SchemaError("command", f"one of {', '.join(COMMANDS)}")
    runner, summary_name = _RUNNERS[command]
    timings: dict = {}
    t0 = time.perf_counter()
    summary, tables = runner(cfg, timings)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / name for name in (*tables, summary_name)]
    for path, (header, rows) in zip(outputs, tables.values()):
        _write_csv(path, header, rows)
    _write_json(outputs[-1], summary)
    timings["total"] = time.perf_counter() - t0
    outputs = tuple(str(path) for path in outputs)
    report = RunReport(command, __version__, cfg.digest, cfg.seed, summary, outputs, timings)
    _write_json(out_dir / "run_report.json", asdict(report))
    return report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bresse",
        description="Stability experiments for a curved beam with local Kelvin-Voigt damping",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return OutputError.exit_code
    try:
        overrides = {"output_dir": args.out, "seed": args.seed}
        cfg = parse_config(text, {k: v for k, v in overrides.items() if v is not None})
        report = run(args.command, cfg)
    except BresseError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=_sys.stderr)
        return OutputError.exit_code
    print(f"{args.command}: ok (config {report.config_digest})")
    for key, value in report.summary.items():
        if isinstance(value, dict):
            continue
        print(f"  {key}: {value}")
    for path in report.outputs:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
