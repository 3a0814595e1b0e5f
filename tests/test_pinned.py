"""A fresh run of a small fixed config against committed reference outputs.

``tests/pinned/`` holds ``config.txt`` and the ``results.csv`` and
``diagnostics_seed*.csv`` it produced.  ``tests/pinned/sgc/`` and
``tests/pinned/pairnorm/`` hold the same files for that config with
``propagation.variant`` set to each baseline.  ``tests/pinned/hard/`` holds
the rsoft outputs of that config with the hard whitening step
(``HARD_OVERRIDES``): every layer is orthonormal, so every
``subspace_dist`` is filled, which pins the dense reference spectrum path.
``tests/pinned/supervised/results.csv`` is what ``graphain train --config
config.txt`` writes.  Kernel swaps and refactors that claim to keep
behaviour are checked here.  The references are never regenerated to make
this test pass; a change that moves a value past the tolerances below has
to explain why.

Every file here that depends on the cluster graph's edges was re-pinned
once, when ``gen_gaussian_cluster_graph`` moved from one uniform draw per
node pair to a binomial edge count and a uniform sample per cluster pair,
which draws different graphs from the same seeds.  Before that, the
top-level files had been written with the cyclic Jacobi eigensolver, the
baseline files while the two baselines still had their own propagation
loops, the hard files while ``LayerRecorder`` built the reference at the
first layer of every seed, and the supervised file while ``run_seed`` fitted
the teacher and the supervised arm separately.  The re-pin was checked by
running the new tree with the previous generator put back: it wrote every
old file byte for byte, except that the three Jacobi-era files differed by
at most 8e-16 relative in the losses and 3.2e-14 in the diagnostics, inside
the tolerances below.  The ``config_hash`` column alone was rewritten once
before, when the hash stopped covering ``synthetic.seed`` (a run draws its
graphs from the run seed) and the keys ``train.seed`` and
``propagation.parametric`` were removed.  The eight ``diagnostics_seed*.csv``
files were re-pinned once more, when the ``accuracy`` column, which no run
filled, was removed: each is the previous file with its last column
dropped, byte for byte, and a fresh run writes each one byte for byte.
The ``config_hash`` column of the five ``results.csv`` files was rewritten
once more when the keys ``train.lr_decay_epoch``,
``curriculum.reset_on_finetune`` and ``propagation.eps_rank`` were removed.
That rewrite asserted each old cell against the hash the previous tree gave
its config, a projection that drops the column found every other byte
unchanged, and a fresh run writes each file byte for byte.

``config_all_keys.txt`` sets every config key that a run on clean
features reads, but ``dataset.path`` and ``propagation.variant``, to a
distinct non-default value; ``config_all_keys.noisy.txt`` sets
``noisy_features = true`` and the keys a noisy-features run reads, so the
two set every key but those two.  ``config_all_keys.echo.txt`` and
``config_all_keys.dataset.echo.txt`` are the first one's ``render_config``
output, and that of the same config with ``dataset.path`` in place of the
``synthetic.*`` keys; ``config_all_keys.noisy.echo.txt`` is the second's;
``config_default.echo.txt`` is the echo of the empty config.  They were
produced before the config keys moved into one table and lost only the
lines of the six removed keys since; they must match byte for byte.  The
hashes in ``test_config_echo_and_hash_are_pinned`` are those of the key set
without the removed keys, the dataset one over the bytes of the fixed
dataset that ``_save_all_keys_dataset`` writes.  The all-keys config and its
two echoes and hashes were re-pinned once, when ``activation = relu`` became
an error outside rsoft: its variant went from pairnorm to rsoft, and that
one line is all that changed.  The four files lost exactly the lines of
``train.lr_decay_epoch``, ``curriculum.reset_on_finetune`` and
``propagation.eps_rank`` when those keys were removed, and the three hashes
were replaced then; the new tree's ``render_config`` writes each echo byte
for byte.  The all-keys config was split in two when a key given where the
run would not read it became an error, and the echo and hash began to leave
such keys out: the old file set ``noisy_features = true`` together with
five keys a noisy-features run does not read.  Besides its rewritten header
comment, ``config_all_keys.txt`` is the old file without its
``noisy_features`` line, and its two echoes are the
old ones with ``curriculum.aux_mode = feature_knn`` (it was echoed as
``input_graph``) and ``noisy_features = false``; ``config_all_keys.noisy.txt``
is the old file without its ``synthetic.center_spread``,
``synthetic.feature_sigma``, ``curriculum.knn_k``, ``curriculum.gamma_prime``
and ``curriculum.aux_mode`` lines, and its echo is the old
``config_all_keys.echo.txt`` without those five lines.  The three all-keys
hashes were replaced then, each checked against a sha256 taken by hand over
its echo's hashed lines; the default echo and hash did not move, since the
default config reads every key.
``test_all_keys_config_sets_every_key_off_its_default`` holds the two
all-keys configs to their header, so a later key change cannot leave them
stale.

``generator_digests.txt`` holds the sha256 of the ``edges``, ``features`` and
``labels`` bytes that ``gen_gaussian_cluster_graph`` returns for the specs in
``GENERATOR_SPECS`` (the benchmark's ``wide`` and ``files`` graphs) at three
seeds each, and must match exactly.  Its ``edges`` lines were re-pinned with
the per-cluster-pair edge draw; the ``features`` and ``labels`` lines are
still those the first, dense n x n draw wrote.

``train_linear_digests.txt`` holds, for each problem in
``TRAIN_LINEAR_PROBLEMS`` (rows, classes, weight decay), the sha256 of the
weights ``train_linear`` returns after 300 epochs, or for ten classes the
weights themselves.  It was written as one call that halved the lr from
epoch 200, before that schedule was removed; two chained calls, 200 epochs
at lr 0.5 and then 100 at lr 0.25 warm-started from them, return the same
weight bytes for all 30 problems.  It was also written while
``softmax_with_log`` still reduced each row with ``max(axis=1)`` and
``sum(axis=1)``.  Up to seven classes the weights must match bit for bit.
From eight classes on numpy sums a row pairwise, so a kernel that adds the
class columns in order may differ in the last bit there; the ten-class
weights are held to the float tolerance below.

``export_digests.txt`` holds the sha256 of every file two CSV writers
produce: the ``snapshot_*.csv`` files that ``run_experiment`` exports for
seed 0 of ``config.txt``, and the ``embeddings.csv`` of ``graphain
propagate`` with ``config.txt`` on the dataset ``graphain gen`` writes from
it.  It was first written while both writers still formatted one value at a
time, re-pinned with the per-cluster-pair edge draw, and must match exactly.

``sgc/results.csv``, ``train_linear_digests.txt`` and ``export_digests.txt``
were re-pinned once more, and no other file, when ``train_linear``'s epoch
stopped shifting its softmax and folded its step, which moves a fit's
weights in their last bits.  Checked against the previous files: every
accuracy cell, and every other exact column, is byte-equal; the weights of
all 30 fits lie within the tolerance below of the previous ones (at most
1.6e-12 relative); the 5280 snapshot values too (at most 1.2e-15 absolute,
1.4e-14 relative); the ``embeddings.csv`` line is unchanged.  The sgc losses
moved by up to 17 times relative.  sgc's embedding of this config has
collapsed (every accuracy is 1/3) and its heads follow a chaotic
trajectory: on the previous tree, training every head on the embedding
times 1 + 2^-52 moved the sgc losses by up to 11.5 times relative (seed 0,
task 5, val: 2.068 to 25.83) with every accuracy unchanged, while the rsoft
and pairnorm losses moved by at most 5.9e-16 and 9.4e-16 relative.  So that
file pins a trajectory bit for bit rather than values a tolerance can hold;
the rsoft, hard, pairnorm and supervised results pass unedited.

``sgc/results.csv`` and ``export_digests.txt`` were re-pinned once more, and
no other file, when ``apply_operator`` began to multiply small, well-filled
operators (``graph.dense_pays``, which every graph of ``config.txt`` meets)
by their dense form with one BLAS GEMM instead of scipy's CSR kernel: the
two add each row's products in another order, so every propagated layer
moves in its last bits.  Checked against the previous tree's outputs of the
same configs: every accuracy cell and every other exact column of every
results file is byte-equal; the losses of the rsoft, hard and pairnorm
files moved by at most 2.9e-15 relative, and the diagnostics of all four
variants by at most 3.5e-14 relative, except the roundoff-level
``column_sum_dev`` and the hard files' ``column_gram_dev``, which moved by
at most 5.6e-14 absolute, all inside the tolerances below; the
5280 snapshot values by at most 2.3e-15 relative (3.4e-16 absolute); the
``embeddings.csv`` values by at most 1.3e-15 absolute.  The sgc losses moved
by up to 5.6 times relative, the chaotic trajectory described above, with
every accuracy unchanged.

``export_digests.txt`` was re-pinned once more, in its ``embeddings.csv``
line alone, when ``graphain gen`` began to write the graph, split and noise
that the config's first run seed draws (``experiment.prepare_graph``)
instead of a graph drawn from the removed key ``synthetic.seed``: the saved
dataset is another draw, so its embedding is another.  The new line is the
sha256 of ``cli._write_embeddings`` of ``compute_embedding(cfg,
prepare_graph(cfg, 0, None), 0)`` for ``config.txt``, byte for byte.  At
that change ``config_all_keys.txt``, ``config_all_keys.echo.txt`` and
``config_default.echo.txt`` lost their ``synthetic.seed`` line and nothing
else; the pinned hashes stay, since that key was never hashed.

``export_digests.txt`` was re-pinned once more, and no other file, when
rsoft and pairnorm began to centre through the operator (the dense form
Â - 1 c^T / n, or the CSR kernel started at -c^T h / n, in place of a
separate column-mean subtract), rsoft's filter became the one product
b V diag(g) V^T and its accumulators came to be held scaled by beta and
gamma.  Checked against the previous tree's outputs of the same configs:
every accuracy cell and every other exact column is byte-equal, and every
sgc file is byte-equal; the losses moved by at most 1.2e-15 (rsoft),
1.5e-15 (hard) and 2.3e-15 (pairnorm) relative, and the diagnostics by at
most 2.5e-14 relative, except the roundoff-level ``column_sum_dev`` and
the hard files' ``column_gram_dev``, which moved by at most 7.1e-14
absolute; the 5280 snapshot values by at most 2.8e-15 relative (3.3e-16
absolute); the ``embeddings.csv`` values by at most 8.3e-16 absolute.

The ``config_hash`` column of ``sgc/results.csv`` and
``pairnorm/results.csv`` was rewritten once more when the baselines stopped
taking rsoft's keys: their runs now leave ``propagation.p`` and
``propagation.q`` out of ``config.txt``, which changes their hash and
nothing else.  The rewrite asserted each old cell against the hash the
previous tree gave the old config, a projection that drops the column found
every other byte unchanged, and a fresh run writes each file byte for byte;
their diagnostics files are untouched.

The ``config_hash`` column of ``supervised/results.csv`` was rewritten once
more, from ``b33e8b1afd91`` to ``a9cf8b0195ec``, and no other file or
column, when ``graphain train`` began to drop the config's curriculum
section: its echo and hash leave out the six ``curriculum.*`` keys, which
a supervised run never reads.  Every other byte of the file is unchanged;
a fresh run writes the new hash, which is the sha256 taken by hand over
the hashed lines of that run's ``config_echo.txt``, and every other column
exactly as the previous tree's fresh run did.  The curriculum files'
hashes did not move.

The three ``pairnorm/`` files pass unedited since ``pairnorm_step`` began
to take its two norms by ``np.einsum`` instead of ``np.linalg.norm``, whose
BLAS dot product rounds differently at 1 and 2 threads on long inputs.  A
fresh run's outputs moved against the previous tree's: every accuracy cell
and every other exact column is byte-equal; the losses moved by at most
2.1e-15 relative, the diagnostics by at most 1.4e-15 relative, except the
roundoff-level ``column_sum_dev``, which moved by at most 1.5e-14 absolute.

Tolerances: accuracies, seeds, config hashes, task indices, splits and the
(zeroed) wall times must match exactly.  Every other float must satisfy
``|new - ref| <= 1e-12 * |ref| + 1e-12``.  Measured against the reference,
the LAPACK kernel moved losses by under 8e-16 relative and the diagnostics
columns by under 3e-15 relative, except ``column_sum_dev``, a roundoff-level
value near 1e-13 that moved by up to 3e-14 absolute; the 1e-12 absolute
floor covers values of that kind.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from graphain.classifier import TrainConfig, train_linear
from graphain.cli import main
from graphain.config import (
    _KEYS,
    build_experiment_config,
    config_hash,
    parse_config_text,
    render_config,
)
from graphain.experiment import run_experiment
from graphain.graph import build_graph
from graphain.io import save_dataset
from graphain.labels import SoftLabelMatrix
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph

PINNED = Path(__file__).parent / "pinned"
HARD_OVERRIDES = {
    "propagation.alpha": "1",
    "propagation.beta": "0",
    "propagation.gamma": "0",
    "propagation.a": "1",
    "propagation.b": "1",
    "propagation.d0": "3",
    "propagation.embedding_dim": "3",
}
GENERATOR_SPECS = {
    "wide": dict(clusters=3, nodes_per_cluster=1000, intra_p=0.01, inter_p=0.0005),
    "files": dict(
        clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005, centers_dim=32
    ),
}
TRAIN_LINEAR_PROBLEMS = [
    (rows, classes, weight_decay)
    for rows in (30, 300, 3000)
    for classes in (2, 3, 5, 7, 10)
    for weight_decay in (0.0, 5e-4)
]
REL_TOL = 1e-12
ABS_TOL = 1e-12
RESULTS_EXACT = {"seed", "config_hash", "task", "split", "accuracy", "wall_ms"}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _assert_rows_match(new_rows, ref_rows, exact, name):
    assert len(new_rows) == len(ref_rows), name
    assert new_rows and list(new_rows[0]) == list(ref_rows[0]), name
    for no, (new, ref) in enumerate(zip(new_rows, ref_rows), start=2):
        for col, ref_val in ref.items():
            new_val = new[col]
            if col in exact or ref_val == "" or new_val == "":
                assert new_val == ref_val, f"{name}:{no} column {col}"
                continue
            got, want = float(new_val), float(ref_val)
            assert abs(got - want) <= REL_TOL * abs(want) + ABS_TOL, (
                f"{name}:{no} column {col}: {got!r} vs pinned {want!r}"
            )


def _run_and_compare(tmp_path, ref_dir, overrides, drop=()):
    raw = parse_config_text((PINNED / "config.txt").read_text(encoding="utf-8"))
    raw.update(overrides)
    for key in drop:
        del raw[key]
    raw["output_dir"] = str(tmp_path)
    cfg = build_experiment_config(raw)
    run_experiment(cfg)

    _assert_rows_match(
        _read(tmp_path / "results.csv"),
        _read(ref_dir / "results.csv"),
        exact=RESULTS_EXACT,
        name="results.csv",
    )
    for seed in cfg.seeds:
        name = f"diagnostics_seed{seed}.csv"
        _assert_rows_match(
            _read(tmp_path / name), _read(ref_dir / name), exact={"layer"}, name=name
        )


def test_run_matches_pinned_outputs(tmp_path):
    _run_and_compare(tmp_path, PINNED, {})


@pytest.mark.parametrize("variant", ["sgc", "pairnorm"])
def test_baseline_variant_matches_pinned_outputs(tmp_path, variant):
    # a baseline reads none of rsoft's decays
    _run_and_compare(tmp_path, PINNED / variant, {"propagation.variant": variant},
                     drop=("propagation.p", "propagation.q"))


def test_supervised_run_matches_pinned_results(tmp_path):
    config = PINNED / "config.txt"
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
    _assert_rows_match(
        _read(tmp_path / "results.csv"),
        _read(PINNED / "supervised" / "results.csv"),
        exact=RESULTS_EXACT,
        name="supervised/results.csv",
    )


def test_hard_whitening_matches_pinned_outputs(tmp_path):
    _run_and_compare(tmp_path, PINNED / "hard", HARD_OVERRIDES)
    for seed in (0, 1):
        rows = _read(PINNED / "hard" / f"diagnostics_seed{seed}.csv")
        assert all(row["subspace_dist"] != "" for row in rows)


@pytest.mark.parametrize(
    "ref_dir, overrides, builds",
    [(PINNED, {}, []), (PINNED / "hard", HARD_OVERRIDES, [3, 3])],
    ids=["rsoft", "hard"],
)
def test_reference_built_only_when_a_layer_needs_it(
    tmp_path, reference_builds, ref_dir, overrides, builds
):
    # The default soft filter never makes a layer orthonormal; hard
    # whitening does at layer 1, so each of the two seeds builds it once.
    _run_and_compare(tmp_path, ref_dir, overrides)
    assert reference_builds == builds


def _all_keys(name="config_all_keys.txt"):
    return parse_config_text((PINNED / name).read_text(encoding="utf-8"))


def _all_keys_dataset():
    raw = {k: v for k, v in _all_keys().items() if not k.startswith("synthetic.")}
    return {**raw, "dataset.path": "data/all_keys"}


def _save_all_keys_dataset():
    """A fixed labelled and split 6-node path under ./data/all_keys."""
    g = build_graph(
        [(i, i + 1) for i in range(5)],
        6,
        np.arange(12.0).reshape(6, 2) / 4.0,
        y=[0, 1, 0, 1, 0, 1],
        masks=([0, 1], [2, 3], [4, 5]),
    )
    save_dataset(g, "data/all_keys")


@pytest.mark.parametrize(
    "raw, echo, digest",
    [
        ({}, "config_default.echo.txt", "3f255ffd9865"),
        (_all_keys(), "config_all_keys.echo.txt", "2d13d4eb0e31"),
        (_all_keys_dataset(), "config_all_keys.dataset.echo.txt", "63ed6a623a7c"),
        (_all_keys("config_all_keys.noisy.txt"), "config_all_keys.noisy.echo.txt",
         "b27b683f9f21"),
    ],
    ids=["default", "all_keys", "all_keys_dataset", "all_keys_noisy"],
)
def test_config_echo_and_hash_are_pinned(raw, echo, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _save_all_keys_dataset()
    cfg = build_experiment_config(raw)
    assert render_config(cfg).encode("utf-8") == (PINNED / echo).read_bytes()
    assert config_hash(cfg) == digest


def test_all_keys_config_sets_every_key_off_its_default():
    # the invariant the header of config_all_keys.txt states, so that a key
    # added or removed later cannot leave the two all-keys configs stale
    configs = [_all_keys(), _all_keys("config_all_keys.noisy.txt")]
    assert set().union(*configs) == {key.name for key in _KEYS} - {"dataset.path"}
    for raw in configs:
        for key in _KEYS:
            if key.name not in raw:
                continue
            value = key.parse(raw[key.name])
            if key.name == "propagation.variant":
                assert value == "rsoft"
            else:
                assert value != key.default, key.name


def generator_digests() -> str:
    """One line per spec, seed and array: dtype, shape and sha256 of the bytes."""
    lines = []
    for name, fields in GENERATOR_SPECS.items():
        for seed in (0, 1, 2):
            g = gen_gaussian_cluster_graph(SyntheticSpec(**fields, seed=seed))
            for field in ("edges", "features", "labels"):
                arr = getattr(g, field)
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                lines.append(f"{name} {seed} {field} {arr.dtype} {arr.shape} {digest}")
    return "\n".join(lines) + "\n"


def test_generator_digests_are_pinned():
    pinned = (PINNED / "generator_digests.txt").read_text(encoding="utf-8")
    assert generator_digests() == pinned


def _train_linear_weights(rows, classes, weight_decay):
    """Weights after 300 epochs on a seeded soft-label problem, d = 8, with
    every fifth row masked, so left out of training: 200 epochs at lr 0.5,
    then 100 at lr 0.25 warm-started from them."""
    rng = np.random.default_rng([rows, classes])
    h = rng.standard_normal((rows, 8))
    y = rng.dirichlet(np.full(classes, 0.3), size=rows)
    masked = np.arange(rows) % 5 == 4
    y[masked] = 0.0
    labels = SoftLabelMatrix(y=y, masked=masked)
    first = TrainConfig(lr=0.5, epochs=200, weight_decay=weight_decay)
    then = TrainConfig(lr=0.25, epochs=100, weight_decay=weight_decay)
    w = train_linear(h, labels, first)
    return train_linear(h, labels, then, warm_start=w)


def train_linear_digests() -> str:
    """One line per problem: rows, classes, weight decay, then the sha256 of
    the weight bytes, or for ten classes every weight."""
    lines = []
    for rows, classes, weight_decay in TRAIN_LINEAR_PROBLEMS:
        w = _train_linear_weights(rows, classes, weight_decay)
        if classes <= 7:
            value = hashlib.sha256(w.tobytes()).hexdigest()
        else:
            value = " ".join(repr(float(v)) for v in w.ravel())
        lines.append(f"{rows} {classes} {weight_decay!r} {value}")
    return "\n".join(lines) + "\n"


def test_train_linear_digests_are_pinned():
    pinned = (PINNED / "train_linear_digests.txt").read_text(encoding="utf-8")
    new = train_linear_digests()
    for new_line, ref_line in zip(new.splitlines(), pinned.splitlines(), strict=True):
        new_fields, ref_fields = new_line.split(), ref_line.split()
        assert new_fields[:3] == ref_fields[:3]
        if int(ref_fields[1]) <= 7:
            assert new_fields == ref_fields, f"train_linear digest moved: {ref_line}"
            continue
        assert len(new_fields) == len(ref_fields), ref_line
        for got, want in zip(map(float, new_fields[3:]), map(float, ref_fields[3:])):
            assert abs(got - want) <= REL_TOL * abs(want) + ABS_TOL, (
                f"{ref_fields[:3]}: weight {got!r} vs pinned {want!r}"
            )


def export_digests(tmp_path) -> str:
    """One line per exported file: its path under ``tmp_path`` and sha256."""
    config = PINNED / "config.txt"
    raw = parse_config_text(config.read_text(encoding="utf-8"))
    raw["output_dir"] = str(tmp_path / "run")
    run_experiment(build_experiment_config(raw), export_snapshots=True)
    data, prop = tmp_path / "data", tmp_path / "prop"
    assert main(["gen", "--spec", str(config), "--out", str(data)]) == 0
    assert main(["propagate", "--graph", str(data), "--config", str(config),
                 "--out", str(prop)]) == 0
    paths = sorted((tmp_path / "run" / "snapshots").glob("snapshot_*.csv"))
    paths.append(prop / "embeddings.csv")
    return "".join(
        f"{path.relative_to(tmp_path).as_posix()} "
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in paths
    )


def test_export_digests_are_pinned(tmp_path):
    pinned = (PINNED / "export_digests.txt").read_text(encoding="utf-8")
    assert export_digests(tmp_path) == pinned
