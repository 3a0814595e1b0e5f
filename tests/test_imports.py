"""The package namespace re-exports nothing: importing a module loads only
what that module needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _loaded_modules(statement: str) -> list:
    """The graphain modules a fresh interpreter holds after ``statement``."""
    code = (
        f"{statement}\n"
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'graphain'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "statement, modules",
    [
        ("import graphain", ["graphain"]),
        (
            "import graphain.io",
            ["graphain", "graphain.errors", "graphain.graph", "graphain.io"],
        ),
    ],
)
def test_import_loads_only_what_it_needs(statement, modules):
    assert _loaded_modules(statement) == modules
