"""Every script under ``scripts/`` imports and parses its arguments, the two
experiment scripts run end to end on one seed, ``bench.py`` appends its runs
to an existing report, and its ``head`` and ``import`` cases run end to end.

Each runs in its own process, with only ``src`` on ``PYTHONPATH``, so a
program API change that breaks a script's imports, or the way it reads
``run_seed``'s results, fails here rather than at the script's next use,
and so does a script that imports another script.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphain.io import DATASET_FILES, save_dataset
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {path.name for path in SCRIPTS} == {
        "bench.py",
        "run_curriculum_ablation.py",
        "run_noisy_features.py",
    }


def _run(script, *args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Each bench.py case also runs under the name of the script it replaced;
# ``--case`` is checked against the case list before ``--help`` exits.
HELP_RUNS = [(path.name, path, ()) for path in SCRIPTS] + [
    (f"bench_{case}.py", ROOT / "scripts" / "bench.py", ("--case", case))
    for case in ("head", "aux", "io", "layers", "import")
]


@pytest.mark.parametrize(
    "script, args", [run[1:] for run in HELP_RUNS], ids=[run[0] for run in HELP_RUNS]
)
def test_script_help_exits_zero(script, args):
    assert _run(script, *args, "--help").startswith("usage:")


def test_curriculum_ablation_runs_one_seed():
    out = _run(ROOT / "scripts" / "run_curriculum_ablation.py", "--seeds", "1")
    assert out.splitlines()[-1].startswith("median with curriculum ")


def test_noisy_features_runs_one_seed():
    out = _run(ROOT / "scripts" / "run_noisy_features.py", "--layers", "4", "--seeds", "1")
    lines = out.splitlines()
    assert lines[1].endswith(" median")
    assert [line.split()[0] for line in lines[2:]] == ["rsoft", "sgc", "pairnorm"]


def test_bench_appends_each_run_under_its_label(tmp_path):
    committed = json.loads((ROOT / "BENCH_io.json").read_text(encoding="utf-8"))
    report = tmp_path / "BENCH_io.json"
    report.write_text(json.dumps(committed), encoding="utf-8")
    for _ in range(2):
        out = _run(ROOT / "scripts" / "bench.py", "--case", "io", "--label", "new", cwd=tmp_path)
    runs = json.loads(report.read_text(encoding="utf-8"))["runs"]
    assert runs["parent"] == committed["runs"]["parent"]
    assert len(runs["new"]) == 2
    # the dataset the case saves: bench.py's ``files`` spec at seed 0
    spec = SyntheticSpec(clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005,
                         centers_dim=32, seed=0)
    g = with_masks(gen_gaussian_cluster_graph(spec), 0.1, 0.2, 0)
    save_dataset(g, tmp_path / "files")
    size = sum((tmp_path / "files" / name).stat().st_size for name in DATASET_FILES)
    for run in runs["new"]:
        results = run["results"]
        assert (results["n"], results["edges"], results["bytes"]) == (1500, g.num_edges, size)
        for field in ("load_dataset_ms", "save_dataset_ms", "dataset_digest_ms"):
            assert set(results[field]) == {"median", "iqr", "samples"}
            assert len(results[field]["samples"]) == committed["repeats"]
    assert out.splitlines()[0].startswith("io new load_dataset_ms: ")
    assert out.splitlines()[0].count(",") == 1


def test_bench_head_runs(tmp_path):
    out = _run(ROOT / "scripts" / "bench.py", "--case", "head", "--label", "new", cwd=tmp_path)
    report = json.loads((tmp_path / "BENCH_head.json").read_text(encoding="utf-8"))
    (run,) = report["runs"]["new"]
    assert [entry["rows"] for entry in run["results"]] == [30, 300, 3000]
    for entry in run["results"]:
        for field in ("loss_and_grad_us_per_call", "train_linear_us_per_epoch"):
            assert len(entry[field]["samples"]) == report["repeats"]
    assert out.splitlines()[1].startswith("head new rows=30 train_linear_us_per_epoch: ")


def test_bench_import_runs(tmp_path):
    out = _run(ROOT / "scripts" / "bench.py", "--case", "import", "--label", "new", cwd=tmp_path)
    report = json.loads((tmp_path / "BENCH_import.json").read_text(encoding="utf-8"))
    (run,) = report["runs"]["new"]
    results = run["results"]
    assert results["spec"] == "wide"
    for field in ("import_ms", "import_rss_mb", "seed_rss_mb"):
        assert len(results[field]["samples"]) == report["repeats"]
    # the seed runs in the interpreter that imported, so its peak includes the import's
    assert all(
        seed >= imported
        for seed, imported in zip(
            results["seed_rss_mb"]["samples"], results["import_rss_mb"]["samples"]
        )
    )
    assert out.splitlines()[0].startswith("import new import_ms: ")
