"""Self-tests of the benchmark: exact span counts, and checks that trip.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the CLI commands on 8-element meshes, write under
.perfbench_work/selftest in the checkout, and take a few seconds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from bresse import cli, discretization, timedomain  # noqa: E402
from workloads import tiny  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def traced_run(command):
    wl = tiny(command)
    out = WORK / wl.name
    shutil.rmtree(out, ignore_errors=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.run(command, cli.parse_config(wl.text(0, out)))
    finally:
        tracer.uninstall()
    return wl, out, list(tracer.spans), tracer


@pytest.mark.parametrize("command", ["spectrum", "resolvent", "simulate", "dichotomy"])
def test_counts_exact_and_outputs_pass(command):
    wl, out, recorded, tracer = traced_run(command)
    m = spans.layer_metrics(recorded, tracer.library)
    if command == "spectrum":
        assert m["spectral.lu_factor.count"] == wl.shifts
        assert m["spectral.krylov_dim.max"] > 0
    if command in ("resolvent", "dichotomy"):
        assert m["resolvent.lu_factor.count"] == wl.lambdas
    # sum of round(t_final/dt) over every simulate call
    assert m["timedomain.step_midpoint.count"] == wl.steps
    assert m["discretization.energy.count"] >= wl.steps
    roots = sum(t1 - t0 for _, parent, t0, t1 in recorded if parent < 0) * 1e-9
    assert m["self_sum_s"] == pytest.approx(roots, rel=1e-9)
    assert checks.check_outputs(wl, out) == []


def test_wrappers_cover_every_namespace_and_come_off():
    original = discretization.energy
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert timedomain.energy is discretization.energy is not original
        assert cli.assemble is discretization.assemble
        assert "timedomain.cho_solve" in tracer.library
    finally:
        tracer.uninstall()
    assert discretization.energy is original and timedomain.energy is original


def rewrite_cell(path, column, row, change):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    j = header.index(column)
    cells[j] = repr(change(float(cells[j])))
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_wrong_eigenvalue_trips_check():
    wl, out, _, _ = traced_run("spectrum")
    rewrite_cell(out / "spectrum.csv", "im", 0, lambda v: v + 1e-3)
    assert any("dense spectrum" in p for p in checks.check_outputs(wl, out))


def test_wrong_norm_trips_check():
    wl, out, _, _ = traced_run("resolvent")
    rewrite_cell(out / "resolvent.csv", "norm", 0, lambda v: v * (1 + 1e-3))
    assert any("from dense" in p for p in checks.check_outputs(wl, out))


def test_rising_energy_trips_check():
    wl, out, _, _ = traced_run("simulate")
    rewrite_cell(out / "energy.csv", "E", 1, lambda v: v * 1.5)
    assert any("energy rises" in p for p in checks.check_outputs(wl, out))


def test_fails_without_program_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
