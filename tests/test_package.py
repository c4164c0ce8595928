"""The public surface: each name is declared once, in its own module's __all__."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("cli", "discretization", "errors", "model", "resolvent", "spectral", "timedomain")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"bresse.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_model_imports_no_numerical_layer():
    """bresse.model stands alone: no numpy, no scipy, no discretization behind it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, bresse.model; print(sorted({'numpy', 'scipy', 'bresse.discretization'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs():
    """README's one python block runs as written against this API."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README.md python block>", "exec"), {})
