"""The package namespace re-exports nothing: importing a module loads only
what that module needs, and no module imports ``scipy.sparse``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded_modules(statement: str, package: str = "graphain") -> list:
    """The modules of ``package`` a fresh interpreter holds after ``statement``."""
    proc = _run(
        f"{statement}\n"
        "import sys\n"
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
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


@pytest.mark.parametrize("statement", ["import graphain.experiment", "import graphain.cli"])
def test_no_scipy_sparse_import(statement):
    # scipy.sparse's package __init__ alone costs about 18 MB of RSS; the SpMM
    # loads its compiled kernel from the extension file instead
    loaded = _loaded_modules(statement, "scipy")
    assert not [m for m in loaded if m.startswith(("scipy.sparse", "scipy._lib"))], loaded


@pytest.mark.parametrize("first, second", [("graphain.graph", "scipy.sparse"),
                                           ("scipy.sparse", "graphain.graph")])
def test_kernel_shared_with_scipy_sparse(first, second):
    # in either import order both reach the one initialised extension
    proc = _run(
        f"import {first}, {second}\n"
        "import graphain.graph as g, scipy.sparse as sp\n"
        "assert g._sparsetools.csr_matvecs is sp._sparsetools.csr_matvecs\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_missing_kernel_names_its_path(tmp_path):
    # a scipy without the extension file fails the import, with no fallback
    proc = _run(
        "import importlib.util, types\n"
        "import numpy\n"
        "real = importlib.util.find_spec\n"
        f"fake = types.SimpleNamespace(submodule_search_locations=[{str(tmp_path)!r}])\n"
        "importlib.util.find_spec = lambda name, *a: fake if name == 'scipy' else real(name, *a)\n"
        "import graphain.graph\n"
    )
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(f"ImportError: scipy's CSR kernel is not at {tmp_path / 'sparse'}/_sparsetools")


@pytest.mark.parametrize(
    "stub",
    ["types.ModuleType('numpy.linalg._umath_linalg')", "None"],
    ids=["without-eigh_lo", "without-module"],
)
def test_missing_eigensolver_names_its_module(stub):
    # sym_eig calls numpy's LAPACK gufunc directly, with no fallback; a
    # numpy without it, or without its module, fails the import naming it
    proc = _run(
        "import sys, types\n"
        "import numpy.linalg\n"
        f"sys.modules['numpy.linalg._umath_linalg'] = {stub}\n"
        "import graphain.linalg\n"
    )
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(("ImportError", "ModuleNotFoundError")), last
    assert "numpy.linalg._umath_linalg" in last
