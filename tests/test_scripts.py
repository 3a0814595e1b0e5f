"""Every script under ``scripts/`` imports and parses its arguments, and the
two experiment scripts run end to end on one seed.

Each runs in its own process, with ``src`` and ``scripts`` on ``PYTHONPATH``
as its usage line says, so a program API change that breaks a script's
imports, or the way it reads ``run_seed``'s results, fails here rather than
at the script's next use.
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


def _run(script, *args):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]),
    }
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_zero(script):
    assert _run(script, "--help").startswith("usage:")


def test_curriculum_ablation_runs_one_seed():
    out = _run(ROOT / "scripts" / "run_curriculum_ablation.py", "--seeds", "1")
    assert out.splitlines()[-1].startswith("median with curriculum ")


def test_noisy_features_runs_one_seed():
    out = _run(ROOT / "scripts" / "run_noisy_features.py", "--layers", "4", "--seeds", "1")
    lines = out.splitlines()
    assert lines[1].endswith(" median")
    assert [line.split()[0] for line in lines[2:]] == ["rsoft", "sgc", "pairnorm"]
