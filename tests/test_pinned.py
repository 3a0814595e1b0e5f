"""A fresh run of a small fixed config against committed reference outputs.

``tests/pinned/`` holds ``config.txt`` and the ``results.csv`` and
``diagnostics_seed*.csv`` it produced with the cyclic Jacobi eigensolver,
before production whitening moved to LAPACK.  ``tests/pinned/sgc/`` and
``tests/pinned/pairnorm/`` hold the same files for that config with
``propagation.variant`` set to each baseline, produced with the LAPACK kernel
while the two baselines still had their own propagation loops.
``tests/pinned/hard/`` holds the rsoft outputs of that config with the hard
whitening step (``HARD_OVERRIDES``): every layer is orthonormal, so every
``subspace_dist`` is filled, which pins the dense reference spectrum path;
it was produced while ``LayerRecorder`` still built that reference at the
first layer of every seed.  Kernel swaps and refactors that claim to keep
behaviour are checked here.  The references are never regenerated to make
this test pass; a change that moves a value past the tolerances below has
to explain why.

``config_all_keys.txt`` sets every config key but ``dataset.path`` to a
distinct non-default value.  ``config_all_keys.echo.txt`` and
``config_all_keys.dataset.echo.txt`` are its ``render_config`` output, and
that of the same config with ``dataset.path`` in place of the
``synthetic.*`` keys; ``config_default.echo.txt`` is the echo of the empty
config.  They and the hashes in ``test_config_echo_and_hash_are_pinned``
were produced before the config keys moved into one table, and must match
byte for byte.

``generator_digests.txt`` holds the sha256 of the ``edges``, ``features`` and
``labels`` bytes that ``gen_gaussian_cluster_graph`` returns for the specs in
``GENERATOR_SPECS`` (the benchmark's ``wide`` and ``files`` graphs) at three
seeds each.  It was written by the dense n x n edge draw, before the draw
moved to row blocks, and must match exactly.

``train_linear_digests.txt`` holds, for each problem in
``TRAIN_LINEAR_PROBLEMS`` (rows, classes, weight decay), the sha256 of the
weights ``train_linear`` returns after 300 epochs, or for ten classes the
weights themselves.  It was written while ``softmax_with_log`` still reduced
each row with ``max(axis=1)`` and ``sum(axis=1)``.  Up to seven classes the
weights must match bit for bit.  From eight classes on numpy sums a row
pairwise, so a kernel that adds the class columns in order may differ in the
last bit there; the ten-class weights are held to the float tolerance below.

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
from graphain.config import (
    build_experiment_config,
    config_hash,
    parse_config_text,
    render_config,
)
from graphain.experiment import run_experiment
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


def _run_and_compare(tmp_path, ref_dir, overrides):
    raw = parse_config_text((PINNED / "config.txt").read_text(encoding="utf-8"))
    raw.update(overrides)
    raw["output_dir"] = str(tmp_path)
    cfg = build_experiment_config(raw)
    run_experiment(cfg)

    _assert_rows_match(
        _read(tmp_path / "results.csv"),
        _read(ref_dir / "results.csv"),
        exact={"seed", "config_hash", "task", "split", "accuracy", "wall_ms"},
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
    _run_and_compare(tmp_path, PINNED / variant, {"propagation.variant": variant})


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


def _all_keys():
    return parse_config_text((PINNED / "config_all_keys.txt").read_text(encoding="utf-8"))


def _all_keys_dataset():
    raw = {k: v for k, v in _all_keys().items() if not k.startswith("synthetic.")}
    return {**raw, "dataset.path": "data/all_keys"}


@pytest.mark.parametrize(
    "raw, echo, digest",
    [
        ({}, "config_default.echo.txt", "5d36c8d3cbe9"),
        (_all_keys(), "config_all_keys.echo.txt", "6cd99044aef2"),
        (_all_keys_dataset(), "config_all_keys.dataset.echo.txt", "b88db4013338"),
    ],
    ids=["default", "all_keys", "all_keys_dataset"],
)
def test_config_echo_and_hash_are_pinned(raw, echo, digest):
    cfg = build_experiment_config(raw)
    assert render_config(cfg).encode("utf-8") == (PINNED / echo).read_bytes()
    assert config_hash(cfg) == digest


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
    every fifth row masked and left out of the included subset."""
    rng = np.random.default_rng([rows, classes])
    h = rng.standard_normal((rows, 8))
    y = rng.dirichlet(np.full(classes, 0.3), size=rows)
    masked = np.arange(rows) % 5 == 4
    y[masked] = 0.0
    labels = SoftLabelMatrix(y=y, masked=masked)
    cfg = TrainConfig(lr=0.5, epochs=300, weight_decay=weight_decay, lr_decay_epoch=200)
    return train_linear(h, labels, labels.unmasked_indices(), cfg).w


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
