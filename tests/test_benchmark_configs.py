"""The benchmark's configs stay valid CLI configs.

perfbench/workloads.py is loaded read-only, by file path, with no
bytecode written next to it.  A change that drops or renames a config key
that a benchmark workload sets then fails here, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bresse import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
CONFIGS = [*workloads.WORKLOADS.values(), *map(workloads.tiny, workloads.TINY)]


@pytest.mark.parametrize("workload", CONFIGS, ids=lambda w: w.name)
def test_cli_accepts_the_workload_config(tmp_path, workload):
    cfg = cli.parse_config(workload.text(0, tmp_path / "out"))
    assert cfg.mesh_n == workload.mesh_n and cfg.seed == 0
    assert workload.command in cli.COMMANDS
