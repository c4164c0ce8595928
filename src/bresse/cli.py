"""Command line interface: config ingestion, orchestration, reporting.

Usage:
    bresse <command> --config <file> [--out <dir>] [--seed <u64>]

Commands: validate, spectrum, resolvent, simulate, decay-fit, dichotomy.

The JSON config has a required "params" block (all ten model coefficients)
and "mesh_n"; everything else is optional with documented defaults:

    {
      "params": {"rho1": 1, "rho2": 1, "k1": 1, "k2": 1, "k3": 1,
                 "l": 1, "L": 1, "alpha": 0.25, "beta": 0.75, "d0": 1},
      "mesh_n": 64,
      "seed": 0,                  // power-iteration start vectors
      "output_dir": "out",
      "spectrum":  {"mu_grid": [1, 2, ..., 50], "per_shift": 5},
      "resolvent": {"lambda_min": 3.0, "lambda_max": null,   // null -> cap
                    "count": 25, "tol": 1e-6,
                    "window": null,                          // null -> default
                    "c_resolve": 1.0},
      "sim":       {"dt": null,                              // null -> h/2
                    "t_final": 200.0, "sample_stride": 16,
                    "fit_window": [10.0, 100.0]},
      "dichotomy": {"unequal_factor": 2.0}
    }

Unknown keys anywhere are rejected, and so are out-of-range settings:
seed must be >= 0; per_shift, count and sample_stride >= 1; lambda_min,
lambda_max, tol, c_resolve, dt, t_final and unequal_factor > 0.  Exit
codes: 0 success; 10-19 config errors; 20-29 numerical errors; 30 I/O
errors; each error class in bresse.errors has its own code.  All CSV
output is deterministic for a fixed (config, seed, version): floats are
serialized with 17 significant digits and every sweep is merged in sorted
order, so repeated runs produce byte-identical files.
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
from .discretization import assemble, build_mesh, project_initial_data
from .errors import BresseError, OutputError, ParseError, SchemaError
from .model import ModelParams, classify_speeds, validate_params
from .resolvent import fit_growth_exponent, lambda_cap, profile
from .spectral import axis_scan
from .timedomain import SimConfig, decay_analysis, default_initial_data, simulate

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "parse_config",
    "run",
    "main",
    "COMMANDS",
]

COMMANDS = ("validate", "spectrum", "resolvent", "simulate", "decay-fit", "dichotomy")


@dataclass(frozen=True)
class SpectrumSettings:
    mu_grid: tuple = tuple(float(m) for m in range(1, 51))
    per_shift: int = 5


@dataclass(frozen=True)
class ResolventSettings:
    lambda_min: float = 3.0
    lambda_max: float | None = None  # None: use the mesh resolution cap
    count: int = 25
    tol: float = 1e-6
    window: tuple | None = None  # None: default fit window
    c_resolve: float = 1.0


@dataclass(frozen=True)
class SimSettings:
    """CLI time grid: sample_stride defaults to 16 here, to 1 in SimConfig."""

    dt: float | None = None  # None: half the largest element width
    t_final: float = 200.0
    sample_stride: int = 16
    fit_window: tuple = SimConfig.fit_window  # the library's default


@dataclass(frozen=True)
class DichotomySettings:
    unequal_factor: float = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    mesh_n: int
    seed: int = 0
    output_dir: str = "out"
    spectrum: SpectrumSettings = field(default_factory=SpectrumSettings)
    resolvent: ResolventSettings = field(default_factory=ResolventSettings)
    sim: SimSettings = field(default_factory=SimSettings)
    dichotomy: DichotomySettings = field(default_factory=DichotomySettings)
    digest: str = ""
    echo: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    command: str
    version: str
    config_digest: str
    summary: dict
    outputs: tuple
    timings: dict


# The schema of every config key: (block, key, kind, lower bound).  Block
# "config" is the top level; "params" is required whole.  Defaults live only
# on the dataclass each block fills: an absent or null key takes the field
# default, and a field without one is required.  Integers must be >= their
# lower bound, other numbers > it.
_SCHEMA = (
    *(("params", f.name, "float", None) for f in fields(ModelParams)),
    ("config", "mesh_n", "int", None),
    ("config", "seed", "int", 0),
    ("config", "output_dir", "str", None),
    ("spectrum", "mu_grid", "list", None),
    ("spectrum", "per_shift", "int", 1),
    ("resolvent", "lambda_min", "float", 0.0),
    ("resolvent", "lambda_max", "float", 0.0),
    ("resolvent", "count", "int", 1),
    ("resolvent", "tol", "float", 0.0),
    ("resolvent", "window", "pair", None),
    ("resolvent", "c_resolve", "float", 0.0),
    ("sim", "dt", "float", 0.0),
    ("sim", "t_final", "float", 0.0),
    ("sim", "sample_stride", "int", 1),
    ("sim", "fit_window", "pair", None),
    ("dichotomy", "unequal_factor", "float", 0.0),
)

_BLOCKS = {
    "spectrum": SpectrumSettings,
    "resolvent": ResolventSettings,
    "sim": SimSettings,
    "dichotomy": DichotomySettings,
}


def _keys(block):
    return {key for b, key, _, _ in _SCHEMA if b == block}


def _schema_keys(obj, path, allowed):
    if not isinstance(obj, dict):
        raise SchemaError(path, "an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "no such key")


def _finite(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
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
        if int(value) != value:
            raise SchemaError(path, "an integer")
        if lower is not None and value < lower:
            raise SchemaError(path, f"an integer >= {lower}")
        return int(value)
    if lower is not None and not value > lower:
        raise SchemaError(path, f"a number > {lower:g}")
    return float(value)


def _fill(obj, block, cls):
    """Checked keyword arguments for cls from one config block."""
    if block != "config":  # the top level also holds the blocks
        _schema_keys(obj, block, _keys(block))
    required = {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }
    kwargs = {}
    for b, key, kind, lower in _SCHEMA:
        if b != block:
            continue
        if obj.get(key) is not None:
            kwargs[key] = _setting(obj[key], f"{block}.{key}", kind, lower)
        elif key in required:
            raise SchemaError(f"{block}.{key}", "a required number")
    return kwargs


def parse_config(text: str) -> ExperimentConfig:
    """Parse and schema-check a JSON config, applying documented defaults.

    Raises ParseError for malformed JSON, SchemaError for unknown,
    ill-typed or out-of-range keys, and the model validation errors for
    bad parameters.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    _schema_keys(raw, "config", {"params", *_BLOCKS, *_keys("config")})
    if "params" not in raw:
        raise SchemaError("config.params", "a required object")
    params = validate_params(ModelParams(**_fill(raw["params"], "params", ModelParams)))
    top = _fill(raw, "config", ExperimentConfig)
    blocks = {name: cls(**_fill(raw.get(name, {}), name, cls)) for name, cls in _BLOCKS.items()}
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return ExperimentConfig(params=params, **top, **blocks, digest=digest, echo=raw)


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
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build(cfg: ExperimentConfig, params=None):
    p = params if params is not None else cfg.params
    mesh = build_mesh(p, cfg.mesh_n)
    return assemble(p, mesh)


def _profile(cfg: ExperimentConfig, sys_):
    """Resolvent norms on the config's log-spaced lambda grid."""
    rs = cfg.resolvent
    hi = rs.lambda_max if rs.lambda_max is not None else lambda_cap(sys_, rs.c_resolve)
    grid = np.logspace(math.log10(rs.lambda_min), math.log10(hi), rs.count)
    return profile(sys_, grid, tol=rs.tol, seed=cfg.seed, c_resolve=rs.c_resolve)


def _sim_config(cfg: ExperimentConfig, sys_) -> SimConfig:
    ss = cfg.sim
    dt = ss.dt if ss.dt is not None else 0.5 * float(sys_.mesh.widths.max())
    return SimConfig(
        dt=dt,
        t_final=ss.t_final,
        sample_stride=ss.sample_stride,
        fit_window=tuple(ss.fit_window),
    )


def _spectrum_csv(out_dir, name, report):
    rows = [
        (s.real, s.imag, r, report.mesh_size)
        for s, r in zip(report.eigenvalues, report.residuals)
    ]
    path = out_dir / name
    _write_csv(path, ("re", "im", "residual", "mesh_n"), rows)
    return path


def _profile_csv(out_dir, name, prof):
    rows = list(zip(prof.lambdas, prof.norms, prof.iters, prof.residuals))
    path = out_dir / name
    _write_csv(path, ("lambda", "norm", "iters", "residual"), rows)
    return path


def _energy_csv(out_dir, name, series):
    rows = list(
        zip(
            series.times,
            series.energies,
            series.kinetics,
            series.potentials,
            series.sample_residuals,
        )
    )
    path = out_dir / name
    _write_csv(path, ("t", "E", "kinetic", "potential", "balance_residual"), rows)
    return path


def _run_validate(cfg, out_dir, timings):
    t0 = time.perf_counter()
    speed = classify_speeds(cfg.params)
    sys_ = _build(cfg)
    timings["build"] = time.perf_counter() - t0
    summary = {
        "params": asdict(cfg.params),
        "mesh_n": cfg.mesh_n,
        "n_dofs": sys_.n_dofs,
        "variant": speed.variant,
        "predicted_resolvent_exponent": speed.predicted_resolvent_exponent,
        "predicted_decay_exponent": speed.predicted_decay_exponent,
        "lambda_max": lambda_cap(sys_, cfg.resolvent.c_resolve),
        "damped_elements": int(sys_.mesh.beta_index - sys_.mesh.alpha_index),
    }
    path = out_dir / "validate_summary.json"
    _write_json(path, summary)
    return summary, [path]


def _run_spectrum(cfg, out_dir, timings):
    sys_ = _build(cfg)
    t0 = time.perf_counter()
    report = axis_scan(sys_, cfg.spectrum.mu_grid, per_shift=cfg.spectrum.per_shift)
    timings["axis_scan"] = time.perf_counter() - t0
    csv_path = _spectrum_csv(out_dir, "spectrum.csv", report)
    summary = {
        "spectral_abscissa": report.spectral_abscissa,
        "min_abs_real": report.min_abs_real,
    }
    json_path = out_dir / "spectrum_summary.json"
    _write_json(json_path, summary)
    return summary, [csv_path, json_path]


def _run_resolvent(cfg, out_dir, timings):
    sys_ = _build(cfg)
    speed = classify_speeds(cfg.params)
    t0 = time.perf_counter()
    prof = _profile(cfg, sys_)
    timings["profile"] = time.perf_counter() - t0
    fit = fit_growth_exponent(prof, cfg.resolvent.window)
    csv_path = _profile_csv(out_dir, "resolvent.csv", prof)
    summary = {
        "slope": fit.slope,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
        "predicted_exponent": speed.predicted_resolvent_exponent,
        "consistent": bool(fit.slope <= speed.predicted_resolvent_exponent + 0.5),
    }
    json_path = out_dir / "resolvent_summary.json"
    _write_json(json_path, summary)
    return summary, [csv_path, json_path]


def _run_simulate(cfg, out_dir, timings):
    sys_ = _build(cfg)
    sim_cfg = _sim_config(cfg, sys_)
    U0 = project_initial_data(sys_, sys_.mesh, default_initial_data(cfg.params.L))
    t0 = time.perf_counter()
    series = simulate(sys_, U0, sim_cfg)
    timings["simulate"] = time.perf_counter() - t0
    csv_path = _energy_csv(out_dir, "energy.csv", series)
    summary = {
        "dt": sim_cfg.dt,
        "t_final": sim_cfg.t_final,
        "energy_initial": float(series.energies[0]),
        "energy_final": float(series.energies[-1]),
        "max_balance_residual": float(series.dissipation_residuals.max()),
        "domain_norm0": series.initial_domain_norm,
    }
    json_path = out_dir / "simulate_summary.json"
    _write_json(json_path, summary)
    return summary, [csv_path, json_path]


def _run_decay_fit(cfg, out_dir, timings):
    sys_ = _build(cfg)
    t0 = time.perf_counter()
    series, fit, c_obs = decay_analysis(sys_, _sim_config(cfg, sys_))
    timings["decay_analysis"] = time.perf_counter() - t0
    csv_path = _energy_csv(out_dir, "energy.csv", series[0])
    summary = {
        "gamma_hat": fit.gamma_hat,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
        "domain_norm0": series[0].initial_domain_norm,
        "C_obs": c_obs,
    }
    json_path = out_dir / "decay_summary.json"
    _write_json(json_path, summary)
    return summary, [csv_path, json_path]


def _dichotomy_params(cfg: ExperimentConfig):
    """Equal-speed projection of the config params, and its unequal twin."""
    p = cfg.params
    k2_equal = p.rho2 * p.k1 / p.rho1
    equal = validate_params(replace(p, k2=k2_equal))
    unequal = validate_params(replace(p, k2=k2_equal * cfg.dichotomy.unequal_factor))
    return equal, unequal


def _run_dichotomy(cfg, out_dir, timings):
    equal_p, unequal_p = _dichotomy_params(cfg)
    outputs = []
    results = {}
    for tag, params in (("equal", equal_p), ("unequal", unequal_p)):
        sys_ = _build(cfg, params)
        speed = classify_speeds(params)
        t0 = time.perf_counter()
        prof = _profile(cfg, sys_)
        timings[f"profile_{tag}"] = time.perf_counter() - t0
        growth = fit_growth_exponent(prof, cfg.resolvent.window)
        t0 = time.perf_counter()
        series, decay, c_obs = decay_analysis(sys_, _sim_config(cfg, sys_))
        timings[f"decay_{tag}"] = time.perf_counter() - t0
        outputs.append(_profile_csv(out_dir, f"resolvent_{tag}.csv", prof))
        outputs.append(_energy_csv(out_dir, f"energy_{tag}.csv", series[0]))
        results[tag] = {
            "speed": speed,
            "growth": growth,
            "decay": decay,
            "c_obs": c_obs,
        }

    table_rows = [
        (
            tag,
            res["growth"].slope,
            res["growth"].r_squared,
            res["decay"].gamma_hat,
            res["decay"].r_squared,
            res["speed"].predicted_resolvent_exponent,
            res["speed"].predicted_decay_exponent,
            res["c_obs"],
        )
        for tag, res in results.items()
    ]
    table_path = out_dir / "dichotomy.csv"
    _write_csv(
        table_path,
        (
            "regime",
            "slope",
            "r_squared_resolvent",
            "gamma_hat",
            "r_squared_decay",
            "predicted_resolvent_exponent",
            "predicted_decay_exponent",
            "C_obs",
        ),
        table_rows,
    )
    outputs.append(table_path)
    summary = {
        "slope_equal": results["equal"]["growth"].slope,
        "slope_unequal": results["unequal"]["growth"].slope,
        "gamma_equal": results["equal"]["decay"].gamma_hat,
        "gamma_unequal": results["unequal"]["decay"].gamma_hat,
        "ordering_ok": bool(
            results["unequal"]["growth"].slope > results["equal"]["growth"].slope
            and results["equal"]["decay"].gamma_hat
            > results["unequal"]["decay"].gamma_hat
        ),
    }
    json_path = out_dir / "dichotomy_summary.json"
    _write_json(json_path, summary)
    outputs.append(json_path)
    return summary, outputs


_RUNNERS = {
    "validate": _run_validate,
    "spectrum": _run_spectrum,
    "resolvent": _run_resolvent,
    "simulate": _run_simulate,
    "decay-fit": _run_decay_fit,
    "dichotomy": _run_dichotomy,
}


def run(command: str, cfg: ExperimentConfig) -> RunReport:
    """Execute one command, writing CSVs, a JSON summary, and a run report."""
    if command not in _RUNNERS:
        raise SchemaError("command", f"one of {', '.join(COMMANDS)}")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t0 = time.perf_counter()
    summary, outputs = _RUNNERS[command](cfg, out_dir, timings)
    timings["total"] = time.perf_counter() - t0
    report = RunReport(
        command=command,
        version=__version__,
        config_digest=cfg.digest,
        summary=summary,
        outputs=tuple(str(p) for p in outputs),
        timings=timings,
    )
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
        cfg = parse_config(text)
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise SchemaError("seed", "a nonnegative integer")
            cfg = replace(cfg, seed=args.seed)
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
