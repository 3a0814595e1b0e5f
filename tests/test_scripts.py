"""Every script under ``scripts/`` imports and parses its arguments,
``run_grid.py`` runs the README's two grid specs end to end on one seed,
runs a heterophilous cell and rejects a misspelled key and an axis over a
key that a cell does not read, ``bench.py`` appends a run to an existing
report, and its ``head``, ``import``, ``layers``, ``aux`` and ``labels``
cases run end to end at tiny shapes, so a rename of a function they wrap by
name fails here.

Each runs in its own process, with only ``src`` on ``PYTHONPATH``, so a
program API change that breaks a script's imports, or the way it reads
``run_seed``'s results, fails here rather than at the script's next use,
and so does a script that imports another script.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from graphain.config import build_experiment_config
from graphain.experiment import run_seed
from graphain.io import DATASET_FILES, save_dataset
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {path.name for path in SCRIPTS} == {
        "bench.py",
        "run_grid.py",
    }


def _process(script, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run(script, *args, cwd=None):
    proc = _process(script, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Each bench.py case also runs under the name of the script it replaced;
# ``--case`` is checked against the case list before ``--help`` exits.
HELP_RUNS = [(path.name, path, ()) for path in SCRIPTS] + [
    (f"bench_{case}.py", ROOT / "scripts" / "bench.py", ("--case", case))
    for case in ("head", "aux", "io", "layers", "import", "labels")
]


@pytest.mark.parametrize(
    "script, args", [run[1:] for run in HELP_RUNS], ids=[run[0] for run in HELP_RUNS]
)
def test_script_help_exits_zero(script, args):
    assert _run(script, *args, "--help").startswith("usage:")


# README's two grid specs, at 4 layers
NOISY_AXES = {"propagation.variant": "rsoft,sgc,pairnorm", "noisy_features": "true",
              "propagation.layers": "4"}
ABLATION_AXES = {"synthetic.train_frac": "0.05", "propagation.layers": "4",
                 "curriculum.mask_ratio": "0.1", "train.epochs": "200"}


def _grid(axes):
    """The CSV rows ``run_grid.py`` prints for ``axes`` at seed 1."""
    sets = [arg for key, values in axes.items() for arg in ("--set", f"{key}={values}")]
    out = _run(ROOT / "scripts" / "run_grid.py", *sets, "--seeds", "1")
    header, *rows = out.splitlines()
    assert header == ",".join([*axes, "seed", "arm", "split", "accuracy", "loss"])
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def _last_of_each_split(rows):
    return {row.split: row for row in rows}


def test_grid_runs_the_ablation_spec():
    rows = _grid(ABLATION_AXES)
    assert len(rows) == 1 * 1 * 2 * 3  # cells x seeds x arms x splits
    cfg = build_experiment_config(ABLATION_AXES)
    curriculum_rows, supervised_rows, _ = run_seed(cfg, 1)
    for arm, arm_rows in (("curriculum", curriculum_rows), ("supervised", supervised_rows)):
        got = [row for row in rows if row["arm"] == arm]
        want = _last_of_each_split(arm_rows)
        assert [row["split"] for row in got] == list(want)
        for row in got:
            assert row["seed"] == "1"
            assert float(row["accuracy"]) == want[row["split"]].accuracy
            assert float(row["loss"]) == want[row["split"]].loss


def test_grid_runs_the_noisy_features_spec():
    rows = _grid(NOISY_AXES)
    assert len(rows) == 3 * 1 * 2 * 3  # cells x seeds x arms x splits
    for variant in ("rsoft", "sgc", "pairnorm"):
        cfg = build_experiment_config({**NOISY_AXES, "propagation.variant": variant})
        teacher, _, _ = run_seed(replace(cfg, curriculum=None), 1)
        (test,) = [row for row in rows if (row["propagation.variant"], row["arm"],
                                           row["split"]) == (variant, "supervised", "test")]
        # the supervised arm's test row is the teacher's, as a run without curriculum gives it
        assert float(test["accuracy"]) == _last_of_each_split(teacher)["test"].accuracy


def test_grid_runs_a_heterophilous_cell():
    # inter_p = 0.3 is the default intra_p: edges as likely across clusters
    # as inside one, at a tiny size
    axes = {"synthetic.inter_p": "0.02,0.3", "synthetic.nodes_per_cluster": "10",
            "propagation.layers": "4", "train.epochs": "20",
            "curriculum.pacing_epochs": "5"}
    rows = _grid(axes)
    got = [(row["synthetic.inter_p"], row["seed"], row["arm"], row["split"]) for row in rows]
    assert got == [
        (inter_p, "1", arm, split)
        for inter_p in ("0.02", "0.3")
        for arm in ("curriculum", "supervised")
        for split in ("train", "val", "test")
    ]


@pytest.mark.parametrize(
    "args, named",
    [
        (("--set", "propagation.layer=4"), "propagation.layer"),
        (("--set", "seeds=1,2"), "seeds"),
        (("--set", "train.epochs=5", "--set", "train.epochs=6"), "train.epochs"),
        (("--set", "train.epochs=five"), "train.epochs"),
    ],
    ids=["misspelled", "seeds_axis", "repeated", "bad_value"],
)
def test_grid_rejects_a_bad_axis_in_one_line(args, named):
    proc = _process(ROOT / "scripts" / "run_grid.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and named in line


def test_grid_rejects_an_axis_a_cell_does_not_read():
    # sgc reads none of rsoft's filter keys, so its cell rejects the a axis
    # before any cell runs
    proc = _process(ROOT / "scripts" / "run_grid.py", "--set", "propagation.variant=rsoft,sgc",
                    "--set", "propagation.a=0.5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: run_grid.py: propagation.a is read only with "
                           "propagation.variant = rsoft\n")


def test_bench_appends_each_run_under_its_label(tmp_path):
    committed = json.loads((ROOT / "BENCH_io.json").read_text(encoding="utf-8"))
    # the label already holds the report's latest run, so one more run appends
    earlier = list(committed["runs"].values())[-1][-1:]
    report = tmp_path / "BENCH_io.json"
    report.write_text(json.dumps({**committed, "runs": {**committed["runs"], "new": earlier}}),
                      encoding="utf-8")
    out = _run(ROOT / "scripts" / "bench.py", "--case", "io", "--label", "new", cwd=tmp_path)
    runs = json.loads(report.read_text(encoding="utf-8"))["runs"]
    assert runs["parent"] == committed["runs"]["parent"]
    assert len(runs["new"]) == 2 and runs["new"][0] == earlier[0]
    # the dataset the case saves: bench.py's ``files`` spec at seed 0
    spec = SyntheticSpec(clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005,
                         centers_dim=32, seed=0)
    g = with_masks(gen_gaussian_cluster_graph(spec), 0.1, 0.2, 0)
    save_dataset(g, tmp_path / "files")
    size = sum((tmp_path / "files" / name).stat().st_size for name in DATASET_FILES)
    results = runs["new"][1]["results"]
    assert (results["n"], results["edges"], results["bytes"]) == (1500, g.num_edges, size)
    for field in ("load_dataset_ms", "load_dataset_cached_ms", "save_dataset_ms",
                  "dataset_digest_ms"):
        assert set(results[field]) == {"median", "iqr", "samples"}
        assert len(results[field]["samples"]) == committed["repeats"]
    peaks = results["save_dataset_peak_mb"]
    assert set(peaks) == {"files", "wide_100k"}
    assert all(0 < peak < 5 for peak in peaks.values())
    assert out.splitlines()[0].startswith("io new load_dataset_ms: ")
    assert out.splitlines()[0].count(",") == 1


# bench.py loaded as a module, its ``layers`` and ``aux`` shapes cut down to
# a dense and a sparse graph of 30 and 450 nodes (the operators rows to the
# sparse one), its ``head`` rows to one
# size, its ``import`` seed to a 30-node, 2-layer run and its ``labels``
# workloads to a generated and a saved 30-node graph, and one case run as
# ``bench.py --case <case> --label tiny``
BENCH_TINY = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
dense = dict(clusters=3, nodes_per_cluster=10, intra_p=0.3, inter_p=0.05)
csr = dict(clusters=3, nodes_per_cluster=150, intra_p=0.02, inter_p=0.002)
bench.LAYER_CASES = {"dense": (dense, 3, 0.5), "csr": (csr, 3, 0.0)}
bench.KERNEL_SPECS = bench.OPERATOR_SPECS = {"csr": csr}
bench.CROSSOVER_N, bench.CROSSOVER_FILL = (64,), (1 / 8,)
bench.GENERATOR_SPECS = {"dense": dense}
bench.KNN_ROWS = (40,)
bench.KNN_EMBEDDINGS = {"dense": dense, "csr": csr}
bench.KNN_LAYERS, bench.KNN_SCALE_N = 3, 100
bench.KNN_FEATURES = {"dense": dict(dense, centers_dim=20)}
bench.HEAD_ROWS = (300,)
bench.WIDE_SEED = {"synthetic.clusters": "3", "synthetic.nodes_per_cluster": "10",
                   "propagation.layers": "2", "curriculum.n_t": "1",
                   "curriculum.pacing_epochs": "2", "train.epochs": "5", "seeds": "0"}
tiny = {"synthetic.nodes_per_cluster": "10", "propagation.layers": "2", "curriculum.n_t": "2"}
bench.LABEL_CASES = {"generated": (tiny, None),
                     "saved": ({"dataset.path": "dense", "propagation.layers": "2"}, "dense")}
bench.LABEL_REPEAT_S = 0.001
sys.argv[1:] = ["--case", sys.argv[2], "--label", "tiny"]
bench.main()
"""


def _bench_tiny(tmp_path, case):
    """The results of the case's one tiny run, the report's repeats, and
    what bench.py printed."""
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_TINY, str(ROOT / "scripts" / "bench.py"), case],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / f"BENCH_{case}.json").read_text(encoding="utf-8"))
    (run,) = report["runs"]["tiny"]
    return run["results"], report["repeats"], proc.stdout


def test_bench_head_runs(tmp_path):
    results, repeats, out = _bench_tiny(tmp_path, "head")
    assert list(results) == ["3 classes", "7 classes"]
    for entries in results.values():
        assert [entry["rows"] for entry in entries] == [300]
        for entry in entries:
            for field in ("loss_and_grad_us_per_call", "train_linear_us_per_epoch"):
                assert len(entry[field]["samples"]) == repeats
    assert out.splitlines()[1].startswith(
        "head tiny 3 classes rows=300 train_linear_us_per_epoch: "
    )


def test_bench_import_runs(tmp_path):
    results, repeats, out = _bench_tiny(tmp_path, "import")
    assert results["spec"] == "wide"
    for field in ("import_ms", "import_rss_mb", "seed_rss_mb"):
        assert len(results[field]["samples"]) == repeats
    # the seed runs in the interpreter that imported, so its peak includes the import's
    assert all(
        seed >= imported
        for seed, imported in zip(
            results["seed_rss_mb"]["samples"], results["import_rss_mb"]["samples"]
        )
    )
    assert out.splitlines()[0].startswith("import tiny import_ms: ")


def test_bench_layers_runs_at_tiny_shapes(tmp_path):
    results, _, _ = _bench_tiny(tmp_path, "layers")
    assert [(case["case"], case["product"]) for case in results["cases"]] == [
        ("dense", "dense"), ("csr", "csc")]
    (operators,) = results["operators"]
    assert (operators["spec"], operators["n"]) == ("csr", 450)
    for case in results["cases"] + results["operators"]:
        assert min(case["operator_ms"]["samples"]) > 0
    for case in results["cases"]:
        parts = case["parts_us_per_layer"]
        assert set(parts) == {"spmm", "skip_mix", "filter", "eigh", "other", "wrapped"}
        # every wrapped function ran in every pass
        for name in ("spmm", "skip_mix", "filter", "eigh"):
            assert min(parts[name]["samples"]) > 0, (case["case"], name)
    (kernels,) = results["kernels"]
    assert (kernels["spec"], kernels["n"]) == ("csr", 450)
    assert min(kernels["csr_us"]["samples"] + kernels["csc_us"]["samples"]) > 0
    (point,) = results["crossover"]
    assert point["point"] == "n=64 fill=1/8"


def test_bench_aux_runs_at_tiny_shapes(tmp_path):
    results, _, _ = _bench_tiny(tmp_path, "aux")
    assert [entry["spec"] for entry in results["generator"]] == ["dense"]
    assert [entry["n"] for entry in results["knn"]] == [40]
    assert [(entry["embedding"], entry["n"], "target_ms" in entry)
            for entry in results["knn_embedding"]] == [("dense", 30, False), ("csr", 450, True)]
    assert [entry["features"] for entry in results["knn_features"]] == ["dense"]
    # the count wraps the kNN's one distance kernel, which every search calls
    for entry in results["knn"] + results["knn_embedding"] + results["knn_features"]:
        assert entry["knn_products_per_call"] > 0
        assert entry["knn_block_entries_per_call"] > 0


def test_bench_labels_runs_at_tiny_shapes(tmp_path):
    results, repeats, out = _bench_tiny(tmp_path, "labels")
    assert [(entry["workload"], entry["n"], entry["n_t"]) for entry in results] == [
        ("generated", 30, 2), ("saved", 30, 10)]
    calls = ("smooth_labels", "soft_label_matrix", "scoring_run_curriculum", "layer_recorder")
    for entry in results:
        assert set(entry["calls_per_repeat"]) == set(calls)
        for call in calls:
            assert entry["calls_per_repeat"][call] >= 1
            assert len(entry[f"{call}_us"]["samples"]) == repeats
    assert out.splitlines()[0].startswith("labels tiny workload=generated smooth_labels_us: ")
