"""Every script under ``scripts/`` imports and parses its arguments.

Each runs with ``--help`` in its own process, with ``src`` and ``scripts`` on
``PYTHONPATH`` as its usage line says, so a program API change that breaks a
script's imports fails here rather than at the script's next use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_zero(script):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]),
    }
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
