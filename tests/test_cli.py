"""Config parsing, command execution, exit codes, and output determinism."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bresse import cli, errors, resolvent
from bresse.discretization import domain_norm, g_norm_sq, project_initial_data
from bresse.errors import (
    BadInterval,
    ConfigError,
    NonPositiveParameter,
    ParseError,
    SchemaError,
)
from bresse.timedomain import SimConfig, fit_decay, initial_data, simulate
from conftest import c7_initial_data, make_system


def base_config(out_dir, **overrides):
    cfg = {
        "params": {
            "rho1": 1.0, "rho2": 1.0, "k1": 1.0, "k2": 1.0, "k3": 1.0,
            "l": 1.0, "L": 1.0, "alpha": 0.25, "beta": 0.75, "d0": 1.0,
        },
        "mesh_n": 16,
        "output_dir": str(out_dir),
        "spectrum": {"mu_grid": [1.0, 2.0, 3.0, 4.0], "per_shift": 4},
        "resolvent": {"count": 8},
        "sim": {"t_final": 25.0, "fit_window": [5.0, 20.0], "sample_stride": 8},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(tmp_path / "out", **overrides)))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        text = json.dumps({"params": base_config(".")["params"], "mesh_n": 16})
        cfg = cli.parse_config(text)
        assert cfg.mesh_n == 16
        assert cfg.seed == 0
        assert cfg.output_dir == "out"
        assert cfg.spectrum.mu_grid == tuple(float(m) for m in range(1, 51))
        assert cfg.resolvent.count == 25
        assert cfg.resolvent.lambda_max is None
        assert cfg.sim.t_final == 200.0
        assert cfg.sim.sample_stride == 16
        assert cfg.sim.fit_window == (10.0, 100.0)
        assert len(cfg.digest) == 16

    def test_digest_tracks_content(self):
        a = json.dumps({"params": base_config(".")["params"], "mesh_n": 16})
        b = json.dumps({"params": base_config(".")["params"], "mesh_n": 32})
        assert cli.parse_config(a).digest == cli.parse_config(a).digest
        assert cli.parse_config(a).digest != cli.parse_config(b).digest

    def test_missing_damping_coefficient(self):
        raw = base_config(".")
        del raw["params"]["d0"]
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(raw))
        assert exc.value.path == "params.d0"

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(base_config(".", bogus=1)))
        assert exc.value.path == "config.bogus"
        raw = base_config(".")
        raw["params"]["gamma"] = 2.0
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(raw))
        assert exc.value.path == "params.gamma"
        raw = base_config(".", resolvent={"tol": 1e-6})  # Lanczos has no tolerance to set
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(raw))
        assert exc.value.path == "resolvent.tol"
        assert exc.value.exit_code == 11
        # the resolution cap is 1/h and the unequal twin has k2 doubled: no settings
        for raw, path in [
            (base_config(".", resolvent={"c_resolve": 1.0}), "resolvent.c_resolve"),
            (base_config(".", dichotomy={"unequal_factor": 2.0}), "config.dichotomy"),
        ]:
            with pytest.raises(SchemaError) as exc:
                cli.parse_config(json.dumps(raw))
            assert exc.value.path == path and exc.value.exit_code == 11

    def test_type_errors(self):
        with pytest.raises(SchemaError):
            cli.parse_config(json.dumps(base_config(".", mesh_n=True)))
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(base_config(".", mesh_n=16.5)))
        assert "integer" in exc.value.expected
        raw = base_config(".")
        del raw["mesh_n"]
        with pytest.raises(SchemaError):
            cli.parse_config(json.dumps(raw))
        with pytest.raises(SchemaError):
            cli.parse_config(json.dumps(base_config(".", output_dir=7)))

    def test_negative_seed_rejected(self):
        with pytest.raises(SchemaError) as exc:
            cli.parse_config(json.dumps(base_config(".", seed=-1)))
        assert exc.value.path == "config.seed"

    def test_grid_and_window_shapes(self):
        with pytest.raises(SchemaError):
            cli.parse_config(json.dumps(base_config(".", spectrum={"mu_grid": []})))
        for block, key in (("resolvent", "window"), ("sim", "fit_window")):
            for value in ([10.0], [1.0, 2.0, 3.0]):
                with pytest.raises(SchemaError) as exc:
                    cli.parse_config(json.dumps(base_config(".", **{block: {key: value}})))
                assert exc.value.path == f"{block}.{key}" and "lo, hi" in exc.value.expected

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            cli.parse_config("{ not json")
        with pytest.raises(ParseError):
            cli.parse_config('{"mesh_n": ' + "1" * 5000 + "}")

    def test_null_means_default(self):
        raw = {"params": base_config(".")["params"], "mesh_n": 16, "seed": None,
               "output_dir": None, "sim": {"t_final": None, "fit_window": None}}
        cfg = cli.parse_config(json.dumps(raw))
        assert cfg.seed == 0 and cfg.output_dir == "out"
        assert cfg.sim == cli.SimSettings()

    def test_parameter_validation_applies(self):
        raw = base_config(".")
        raw["params"]["d0"] = 0.0
        with pytest.raises(NonPositiveParameter):
            cli.parse_config(json.dumps(raw))
        raw = base_config(".")
        raw["params"]["alpha"], raw["params"]["beta"] = 0.9, 0.1
        with pytest.raises(BadInterval) as exc:
            cli.parse_config(json.dumps(raw))
        assert "0.9" in str(exc.value) and "0.1" in str(exc.value)


# ---------------------------------------------------------------------------
# exit codes through main()
# ---------------------------------------------------------------------------


class TestMainExitCodes:
    def test_error_classes_have_distinct_exit_codes(self):
        codes = {name: getattr(errors, name).exit_code for name in errors.__all__}
        assert len(set(codes.values())) == len(codes), codes

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", str(tmp_path / "nope.json")])
        assert code == 30
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert cli.main(["validate", "--config", str(path)]) == 10

    def test_schema_error(self, tmp_path):
        raw = base_config(tmp_path / "out")
        del raw["params"]["d0"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 11

    def test_nonpositive_parameter(self, tmp_path):
        raw = base_config(tmp_path / "out")
        raw["params"]["k3"] = -2.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 12

    def test_zero_damping(self, tmp_path, capsys):
        """The library admits the undamped beam; the CLI runs the damped
        one and refuses params.d0 = 0 with exit 12, naming d0."""
        path = write_config(tmp_path, params={"d0": 0.0})
        assert cli.main(["validate", "--config", str(path)]) == 12
        assert "parameter 'd0' must be strictly positive" in capsys.readouterr().err

    def test_zero_damping_is_checked_after_every_key(self, tmp_path, capsys):
        """ExperimentConfig checks d0 > 0 when it is built, after every key
        is read: a later schema error or a reversed lambda range wins."""
        path = write_config(tmp_path, params={"d0": 0.0}, mesh_n=16.5)
        assert cli.main(["validate", "--config", str(path)]) == 11
        assert "'config.mesh_n'" in capsys.readouterr().err
        path = write_config(tmp_path, params={"d0": 0.0}, sim={"stride": 2})
        assert cli.main(["validate", "--config", str(path)]) == 11
        assert "'sim.stride': expected no such key" in capsys.readouterr().err
        path = write_config(tmp_path, params={"d0": 0.0}, resolvent={"lambda_max": 2.0})
        assert cli.main(["validate", "--config", str(path)]) == 13

    @pytest.mark.parametrize("lambda_max", [4.0, 5.0])
    def test_reversed_or_empty_lambda_range(self, tmp_path, capsys, lambda_max):
        """lambda_max <= lambda_min is refused when the config is read,
        naming both keys, before any norm is computed."""
        path = write_config(tmp_path, resolvent={"lambda_min": 5.0, "lambda_max": lambda_max})
        assert cli.main(["resolvent", "--config", str(path)]) == 13
        err = capsys.readouterr().err
        assert f"resolvent.lambda_max={lambda_max!r}" in err and "resolvent.lambda_min=5.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["resolvent", "dichotomy"])
    @pytest.mark.parametrize("lambda_min", [16.0, 20.0])
    def test_lambda_min_at_or_above_the_mesh_cap(self, tmp_path, capsys, command, lambda_min):
        """Under a null lambda_max the grid ends at the mesh cap 1/h = 16
        (n = 16); a lambda_min not below it is refused, naming the key and
        the cap, before a grid is built or an output directory made."""
        path = write_config(tmp_path, resolvent={"lambda_min": lambda_min})
        assert cli.main([command, "--config", str(path)]) == 13
        err = capsys.readouterr().err
        assert f"resolvent.lambda_min={lambda_min!r}" in err and "mesh cap 1/h=16.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["resolvent", "dichotomy"])
    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            pytest.param(
                {"resolvent": {"window": [30.0, 5.0]}}, 13, "resolvent.window=[30.0, 5.0] must rise",
                id="reversed-window",
            ),
            pytest.param(
                {"resolvent": {"window": [5.0, 5.0]}}, 13, "resolvent.window=[5.0, 5.0] must rise",
                id="empty-window",
            ),
            pytest.param(
                {"resolvent": {"count": 4}}, 11, "'resolvent.count': expected an integer >= 5", id="count-4"
            ),
            pytest.param(
                {"mesh_n": 64, "resolvent": {"count": 5}}, 26,
                "only 4 grid points in window [6.4, 64.0]; need 5",
                id="default-window-n64-count-5",
            ),
            pytest.param(
                {"resolvent": {"window": [3.0, 3.1]}}, 26, "only 1 grid points in window [3.0, 3.1]; need 5",
                id="narrow-window",
            ),
        ],
    )
    def test_unfittable_profile_is_refused_before_any_norm(
        self, tmp_path, capsys, monkeypatch, command, overrides, code, message
    ):
        """A fit window that does not rise, fewer lambdas than the fit's 5,
        or a rising window, default or set, that holds fewer than 5 of them
        can never be fitted: both commands refuse it before the first
        resolvent norm, and make no output directory."""

        def refuse(*args, **kwargs):
            raise AssertionError("a resolvent profile was computed")

        monkeypatch.setattr(cli, "profile", refuse)
        path = write_config(tmp_path, **overrides)
        assert cli.main([command, "--config", str(path)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_interval(self, tmp_path):
        raw = base_config(tmp_path / "out")
        raw["params"]["alpha"] = 0.8
        raw["params"]["beta"] = 0.2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 13

    def test_overflowing_coefficient(self, tmp_path, capsys):
        """A coefficient whose stiffness band overflows is out of domain."""
        raw = base_config(tmp_path / "out")
        raw["params"]["k1"] = 1e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 15
        assert "K has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh_n", [10**15, 10**19])
    def test_mesh_too_large_to_allocate(self, tmp_path, capsys, mesh_n):
        """A mesh whose nodes no array can hold (7.1 PiB of them, or more
        than numpy can index) is out of domain, not a numpy traceback."""
        path = write_config(tmp_path, mesh_n=mesh_n)
        assert cli.main(["validate", "--config", str(path)]) == 15
        assert f"n_elements={mesh_n:.3e}" in capsys.readouterr().err

    def test_step_count_past_the_float_range(self, tmp_path, capsys):
        """A dt so small that t_final/dt overflows is out of domain, not
        an OverflowError traceback."""
        path = write_config(tmp_path, sim={"dt": 5e-324})
        assert cli.main(["simulate", "--config", str(path)]) == 15
        assert "asks for inf steps, too many to record" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolvent", "dichotomy"])
    @pytest.mark.parametrize("count", [10**15, 10**19])
    def test_lambda_grid_too_large_to_allocate(self, tmp_path, capsys, command, count):
        """A resolvent.count whose lambda grid no array can hold (7.1 PiB,
        or more than numpy can index) is out of domain, not a numpy
        traceback, for both commands that draw the grid."""
        path = write_config(tmp_path, resolvent={"count": count})
        assert cli.main([command, "--config", str(path)]) == 15
        assert f"resolvent.count={count:.3e}" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["params", "spectrum", "resolvent", "sim"])
    def test_block_that_is_no_object(self, tmp_path, capsys, block):
        path = write_config(tmp_path, **{block: [1.0]})
        assert cli.main(["validate", "--config", str(path)]) == 11
        assert f"config key '{block}': expected an object" in capsys.readouterr().err

    def test_config_without_params(self, tmp_path, capsys):
        """A missing params block reads as an empty one: its first
        coefficient is reported missing."""
        raw = base_config(tmp_path / "out")
        del raw["params"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 11
        assert "'params.rho1': expected a required number" in capsys.readouterr().err

    def test_output_dir_that_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        path = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "taken")]) == 30
        assert "I/O failure" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path), "--seed", "-3"]) == 11

    @pytest.mark.parametrize(
        "command, block, key, value",
        [
            ("resolvent", "resolvent", "count", -1),
            ("resolvent", "resolvent", "lambda_min", 0),
            ("resolvent", "resolvent", "lambda_min", -3),
            ("spectrum", "spectrum", "per_shift", -1),
            ("spectrum", "spectrum", "per_shift", 0),
        ],
    )
    def test_out_of_range_setting(self, tmp_path, capsys, command, block, key, value):
        path = write_config(tmp_path, **{block: {key: value}})
        assert cli.main([command, "--config", str(path)]) == 11
        assert f"'{block}.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh_n", [64, 128])
    def test_readme_resolvent_exits_zero_for_every_seed(self, tmp_path, mesh_n):
        """The README config converges at seeds 0-9 on the default grid,
        whose two largest singular values of R nearly coincide between
        peaks (a power iteration exhausted 200 steps at lambda = 128,
        n = 128, seed 0)."""
        path = write_config(tmp_path, mesh_n=mesh_n, resolvent={"count": 25})
        codes = [cli.main(["resolvent", "--config", str(path), "--seed", str(seed)])
                 for seed in range(10)]
        assert codes == [0] * 10

    def test_lanczos_cap_is_no_convergence(self, tmp_path, capsys, monkeypatch):
        """A norm not certified within the step cap exits 23."""
        monkeypatch.setattr(resolvent, "_LANCZOS_CAP", 1)
        path = write_config(tmp_path)
        assert cli.main(["resolvent", "--config", str(path)]) == 23
        assert "did not converge within 1 iterations" in capsys.readouterr().err

    def test_grid_beyond_resolution(self, tmp_path, capsys):
        path = write_config(tmp_path, resolvent={"count": 8, "lambda_max": 100.0})
        code = cli.main(["resolvent", "--config", str(path)])
        assert code == 21
        err = capsys.readouterr().err
        assert "lambda_max" in err and "16.0" in err


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


class TestCommands:
    def test_validate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "validate: ok" in out
        summary = json.loads((tmp_path / "out" / "validate_summary.json").read_text())
        assert summary["n_dofs"] == 45
        assert summary["variant"] == "EqualSpeeds"
        assert summary["predicted_resolvent_exponent"] == 2
        assert summary["predicted_decay_exponent"] == 1.0
        assert (tmp_path / "out" / "run_report.json").exists()

    def test_output_dir_override(self, tmp_path):
        path = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert cli.main(["validate", "--config", str(path), "--out", str(override)]) == 0
        assert (override / "validate_summary.json").exists()

    def test_overrides_enter_digest_and_report(self, tmp_path):
        """--seed and --out digest like a file that sets them, and the report
        records the seed the run used."""
        out = tmp_path / "elsewhere"
        plain = write_config(tmp_path)
        spelled = tmp_path / "spelled.json"
        spelled.write_text(json.dumps(base_config(out, seed=7)))

        def report(*argv):
            assert cli.main(["validate", "--config", *argv]) == 0
            return json.loads((out / "run_report.json").read_text())

        overridden = report(str(plain), "--seed", "7", "--out", str(out))
        from_file = report(str(spelled))
        assert overridden["seed"] == from_file["seed"] == 7
        assert overridden["config_digest"] == from_file["config_digest"]
        seed0 = report(str(plain), "--seed", "0", "--out", str(out))
        assert seed0["seed"] == 0
        assert seed0["config_digest"] != overridden["config_digest"]

    def test_run_report_structure(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["validate", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["command"] == "validate"
        assert set(report) >= {
            "version", "config_digest", "seed", "summary", "outputs", "timings"
        }
        assert report["seed"] == 0
        assert report["timings"]["total"] > 0.0

    def test_spectrum(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert header == ["re", "im", "residual", "mesh_n"]
        assert len(rows) >= 4
        assert all(float(r[0]) < 0.0 for r in rows)
        assert {r[3] for r in rows} == {"16"}  # the config's mesh_n
        summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["spectral_abscissa"] < 0.0
        assert summary["min_abs_real"] > 0.0

    def test_resolvent(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["resolvent", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "resolvent.csv")
        assert header == ["lambda", "norm", "iters", "residual"]
        assert len(rows) == 8
        assert all(float(r[1]) > 0.0 for r in rows)
        summary = json.loads((tmp_path / "out" / "resolvent_summary.json").read_text())
        assert set(summary) == {"slope", "window", "r_squared", "predicted_exponent"}
        assert 0.0 <= summary["r_squared"] <= 1.0

    def test_simulate(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "energy.csv")
        assert header == ["t", "E", "kinetic", "potential", "balance_residual"]
        energies = np.array([float(r[1]) for r in rows])
        assert energies[0] > energies[-1]
        assert np.all(np.diff(energies) <= 1e-12 * energies[0])
        summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
        assert summary["max_balance_residual"] <= 1e-10
        assert summary["energy_initial"] > summary["energy_final"]

    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_simulate_starts_from_the_first_family_member(self, tmp_path, L):
        """simulate projects initial_data(L), the first of criterion 7's
        three data, for the config's L: its initial energy is that datum's
        0.5 * g_norm_sq, kinetic zero, and neither other datum's."""
        path = write_config(tmp_path, params={"L": L})
        assert cli.main(["simulate", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "energy.csv")
        summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
        sys_ = make_system(16, L=L)
        first, *others = [
            0.5 * g_norm_sq(sys_, project_initial_data(sys_, datum))
            for datum in c7_initial_data(L)
        ]
        assert_allclose(summary["energy_initial"], first, rtol=1e-13)
        assert_allclose(float(rows[0][3]), first, rtol=1e-13)
        assert float(rows[0][2]) == 0.0
        for energy in others:
            assert abs(energy - first) > 1e-6 * first

    def test_simulate_ignores_the_fit_window(self, tmp_path):
        """simulate fits nothing, so a horizon short of the default fit
        window (10, 100) is no error."""
        raw = base_config(tmp_path / "out")
        raw["sim"] = {"t_final": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
        assert summary["t_final"] == 5.0

    @pytest.mark.parametrize("command, table", [("spectrum", "spectrum.csv"), ("resolvent", "resolvent.csv")])
    def test_pencil_commands_on_the_coarsest_mesh(self, tmp_path, command, table):
        """mesh_n = 4 gives 9 dofs, fewer than the 11 rows of the pencil's
        band; both banded-pencil commands still run to exit 0."""
        path = write_config(tmp_path, mesh_n=4)
        assert cli.main([command, "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / table)
        assert rows

    @pytest.mark.parametrize("command", ["decay-fit", "dichotomy"])
    def test_fit_window_past_t_final(self, tmp_path, capsys, monkeypatch, command):
        """A horizon short of the default fit window (10, 100) exits 13
        (BadInterval) naming fit_window, before the first midpoint step."""
        monkeypatch.setattr(cli, "simulate", None)  # never reached
        raw = base_config(tmp_path / "out")
        raw["sim"] = {"t_final": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(path)]) == 13
        assert "fit_window=(10.0, 100.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decay-fit", "dichotomy"])
    def test_fit_window_with_too_few_samples_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """At n = 16 (dt = h/2 = 1/32, every 8th step sampled) the window
        [10, 10.5] holds 3 sample times, fewer than the fit's 10: exit 26
        before the first midpoint step or resolvent norm."""

        def refuse(*args, **kwargs):
            raise AssertionError("a trajectory or a profile was computed")

        monkeypatch.setattr(cli, "simulate", refuse)
        monkeypatch.setattr(cli, "profile", refuse)
        path = write_config(tmp_path, sim={"t_final": 20.0, "fit_window": [10.0, 10.5]})
        assert cli.main([command, "--config", str(path)]) == 26
        assert "only 3 usable samples in window [10.0, 10.5]; need 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dichotomy_refuses_the_fit_window_before_any_profile(self, tmp_path, monkeypatch):
        """dichotomy checks sim.fit_window before the equal regime's
        resolvent profile, so a bad window costs no lambda."""
        calls = []
        monkeypatch.setattr(cli, "_profile", lambda *args: calls.append(args))
        raw = base_config(tmp_path / "out")
        raw["sim"] = {"t_final": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["dichotomy", "--config", str(path)]) == 13
        assert calls == []

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    def test_decay_fit_is_simulate_plus_fit_decay(self, tmp_path, k2):
        """decay-fit is simulate on initial_data(L) and fit_decay on
        sim.fit_window, bit for bit, with the datum's ||U0||^2_D(A)."""
        cfg = cli.parse_config(json.dumps(base_config(tmp_path / "out", params={"k2": k2})))
        summary, tables = cli._run_decay_fit(cfg, {})
        sys_ = make_system(16, k2=k2)
        U0 = project_initial_data(sys_, initial_data(1.0))
        series = simulate(sys_, U0, SimConfig(dt=1.0 / 32.0, t_final=25.0, sample_stride=8))
        fit = fit_decay(series, (5.0, 20.0))
        assert tables["energy.csv"] == cli._energy_table(series)
        assert summary == {
            "gamma_hat": -fit.slope,
            "window": list(fit.window),
            "r_squared": fit.r_squared,
            "domain_norm0": domain_norm(sys_, U0),
        }

    def test_decay_fit_window_without_samples(self, tmp_path, capsys):
        """A fit window between two samples exits 26 (WindowTooSmall)."""
        path = write_config(tmp_path, mesh_n=8, sim={"t_final": 20.0, "fit_window": [10.1, 10.2]})
        assert cli.main(["decay-fit", "--config", str(path)]) == 26
        assert "only 0 usable samples" in capsys.readouterr().err

    def test_decay_fit(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["decay-fit", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "decay_summary.json").read_text())
        assert set(summary) == {"gamma_hat", "window", "r_squared", "domain_norm0"}
        assert summary["gamma_hat"] > 0.0
        assert summary["domain_norm0"] > 0.0

    def test_dichotomy(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["dichotomy", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for name in (
            "resolvent_equal.csv",
            "resolvent_unequal.csv",
            "energy_equal.csv",
            "energy_unequal.csv",
            "dichotomy.csv",
        ):
            assert (out / name).exists()
        header, rows = read_csv(out / "dichotomy.csv")
        assert header == [
            "regime", "slope", "r_squared_resolvent", "gamma_hat", "r_squared_decay",
            "predicted_resolvent_exponent", "predicted_decay_exponent",
        ]
        assert {r[0] for r in rows} == {"equal", "unequal"}
        summary = json.loads((out / "dichotomy_summary.json").read_text())
        assert "ordering_ok" not in summary  # the theorem orders no two finite-window slopes
        numbers = ("slope_equal", "slope_unequal", "gamma_equal", "gamma_unequal")
        assert all(np.isfinite(summary[key]) for key in numbers)

    def test_decay_commands_write_the_simulate_trajectory(self, tmp_path):
        """decay-fit's energy.csv, and dichotomy's energy_equal.csv on the
        equal-speed params, are simulate's energy.csv byte for byte."""
        path = write_config(tmp_path)
        for command in ("simulate", "decay-fit", "dichotomy"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        expected = (tmp_path / "simulate" / "energy.csv").read_bytes()
        assert (tmp_path / "decay-fit" / "energy.csv").read_bytes() == expected
        assert (tmp_path / "dichotomy" / "energy_equal.csv").read_bytes() == expected

    def test_dichotomy_runs_resolvent_and_decay_fit(self, tmp_path):
        """On equal-speed params, dichotomy's equal-regime files are the
        resolvent and decay-fit commands' own, byte for byte."""
        path = write_config(tmp_path)
        for command in ("resolvent", "decay-fit", "dichotomy"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        dichotomy = tmp_path / "dichotomy"
        for alone, twin in (
            (tmp_path / "resolvent" / "resolvent.csv", dichotomy / "resolvent_equal.csv"),
            (tmp_path / "decay-fit" / "energy.csv", dichotomy / "energy_equal.csv"),
        ):
            assert twin.read_bytes() == alone.read_bytes()

    def test_default_window_follows_the_grid(self, tmp_path):
        """A null window fits [max(3, top/10), top], top the grid's largest
        lambda, not the mesh cap: at n = 128 the 8 frequencies on [3, 38.3]
        give [3.83, 38.3], which holds all but the first."""
        path = write_config(tmp_path, mesh_n=128, resolvent={"lambda_max": 38.3, "count": 8})
        assert cli.main(["resolvent", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "resolvent.csv")
        lambdas = [float(r[0]) for r in rows]
        summary = json.loads((tmp_path / "out" / "resolvent_summary.json").read_text())
        assert lambdas[-1] == 38.3 and lambdas[0] == 3.0
        assert lambdas[1] > lambdas[-1] / 10 > lambdas[0]
        assert summary["window"] == [lambdas[1], lambdas[-1]]

    def test_null_lambda_max_ends_the_grid_at_the_cap(self, tmp_path):
        """At n = 32 np.logspace alone would end at 32.00000000000001,
        past the cap 1/h = 32; the grid ends at the cap itself."""
        path = write_config(tmp_path, mesh_n=32)
        assert cli.main(["resolvent", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "resolvent.csv")
        assert float(rows[-1][0]) == resolvent.lambda_cap(make_system(32)) == 32.0

    def test_dichotomy_fits_the_resolvent_window(self, tmp_path):
        """With resolvent.window null both commands fit default_fit_window.

        At n = 32 the 8 frequencies span [3, 32]; the default window
        [3.2, 32] leaves out the first, so a fit over the whole grid differs.
        """
        path = write_config(tmp_path, mesh_n=32)
        assert cli.main(["resolvent", "--config", str(path)]) == 0
        assert cli.main(["dichotomy", "--config", str(path)]) == 0
        out = tmp_path / "out"
        resolvent = json.loads((out / "resolvent_summary.json").read_text())
        dichotomy = json.loads((out / "dichotomy_summary.json").read_text())
        assert resolvent["window"][0] > 3.0
        assert dichotomy["slope_equal"] == resolvent["slope"]


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

# command -> (RunReport.outputs names in write order, timing keys in order)
OUTPUT_CONTRACT = {
    "validate": (["validate_summary.json"], ["build", "total"]),
    "spectrum": (["spectrum.csv", "spectrum_summary.json"], ["quadratic_eigs", "total"]),
    "resolvent": (["resolvent.csv", "resolvent_summary.json"], ["profile", "total"]),
    "simulate": (["energy.csv", "simulate_summary.json"], ["simulate", "total"]),
    "decay-fit": (["energy.csv", "decay_summary.json"], ["decay_fit", "total"]),
    "dichotomy": (
        [
            "resolvent_equal.csv",
            "energy_equal.csv",
            "resolvent_unequal.csv",
            "energy_unequal.csv",
            "dichotomy.csv",
            "dichotomy_summary.json",
        ],
        ["profile_equal", "decay_equal", "profile_unequal", "decay_unequal", "total"],
    ),
}


def test_readme_command_table_matches_the_contract():
    """README's table of files in outputs and timings is OUTPUT_CONTRACT;
    `<regime>` keys run over equal then unequal, and total comes last."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for command, files, timings in re.findall(r"^\| `([a-z-]+)` \| (.*?) \| (.*?) \|$", readme, re.M):
        keys = re.findall(r"`([^`]+)`", timings)
        if any("<regime>" in key for key in keys):
            keys = [key.replace("<regime>", tag) for tag in ("equal", "unequal") for key in keys]
        table[command] = (re.findall(r"`([^`]+)`", files), [*keys, "total"])
    assert table == OUTPUT_CONTRACT


def test_unknown_command_is_refused_before_any_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SchemaError) as exc:
        cli.run("plot", cli.parse_config(json.dumps(base_config(out))))
    assert exc.value.path == "command" and exc.value.exit_code == 11
    assert not out.exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_output_dir_holds_exactly_the_reported_outputs(tmp_path, command):
    """output_dir holds RunReport.outputs, in the fixed order, and run_report.json."""
    out = tmp_path / "out"
    report = cli.run(command, cli.parse_config(json.dumps(base_config(out))))
    names, timing_keys = OUTPUT_CONTRACT[command]
    assert list(report.outputs) == [str(out / name) for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "run_report.json"])
    written = json.loads((out / "run_report.json").read_text())
    assert written["outputs"] == list(report.outputs)
    assert list(report.timings) == timing_keys
    assert list(written["timings"]) == timing_keys  # in phase order, as the run built them


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_dichotomy_outputs_are_byte_identical(self, tmp_path):
        """Same config, fresh process state: identical CSV bytes."""
        path = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["dichotomy", "--config", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["dichotomy", "--config", str(path), "--out", str(out_b)]) == 0
        names = [
            "resolvent_equal.csv",
            "resolvent_unequal.csv",
            "energy_equal.csv",
            "energy_unequal.csv",
            "dichotomy.csv",
            "dichotomy_summary.json",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# schema properties
# ---------------------------------------------------------------------------

BLOCKS = {
    "config": cli.ExperimentConfig,
    "spectrum": cli.SpectrumSettings,
    "resolvent": cli.ResolventSettings,
    "sim": cli.SimSettings,
}
SETTING_KEYS = [("config", "mesh_n"), ("config", "seed"), ("config", "output_dir")] + [
    (block, f.name) for block, cls in BLOCKS.items() if block != "config" for f in fields(cls)
]
# JSON integers may lie beyond the float range
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400),
    st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(SETTING_KEYS), JSON_VALUES, max_size=3))
def test_any_json_value_parses_or_raises_config_error(overrides):
    """Any JSON value at any settings key: a config or a ConfigError, and
    every key left out or null takes its dataclass default."""
    raw = {"params": base_config(".")["params"], "mesh_n": 16}
    for (block, key), value in overrides.items():
        if block == "config":
            raw[key] = value
        else:
            raw.setdefault(block, {})[key] = value
    try:
        cfg = cli.parse_config(json.dumps(raw))
    except ConfigError:
        return
    for block, key in SETTING_KEYS:
        default = {f.name: f.default for f in fields(BLOCKS[block])}[key]
        if default is not MISSING and overrides.get((block, key)) is None:
            target = cfg if block == "config" else getattr(cfg, block)
            assert getattr(target, key) == default, (block, key)


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


class TestModuleEntryPoint:
    """`python -m bresse.cli` from the source tree, in a separate process."""

    @staticmethod
    def run_cli(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "bresse.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_validate_exits_zero(self, tmp_path):
        proc = self.run_cli("validate", "--config", str(write_config(tmp_path)))
        assert proc.returncode == 0, proc.stderr
        assert "validate: ok" in proc.stdout

    def test_missing_config_exits_with_output_error(self, tmp_path):
        proc = self.run_cli("validate", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == errors.OutputError.exit_code == 30
        assert "cannot read config" in proc.stderr


@pytest.mark.skipif(shutil.which("bresse") is None, reason="console script not on PATH")
class TestConsoleScript:
    def test_validate_runs(self, tmp_path):
        path = write_config(tmp_path)
        proc = subprocess.run(
            ["bresse", "validate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "validate: ok" in proc.stdout
