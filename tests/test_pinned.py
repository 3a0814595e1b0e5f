"""A fresh run of a small fixed config against committed reference outputs.

``tests/pinned/`` holds ``config.txt`` and the ``results.csv`` and
``diagnostics_seed*.csv`` it produced with the cyclic Jacobi eigensolver,
before production whitening moved to LAPACK.  ``tests/pinned/sgc/`` and
``tests/pinned/pairnorm/`` hold the same files for that config with
``propagation.variant`` set to each baseline, produced with the LAPACK kernel
while the two baselines still had their own propagation loops.  Kernel swaps
and refactors that claim to keep behaviour are checked here.  The references are never
regenerated to make this test pass; a change that moves a value past the
tolerances below has to explain why.

Tolerances: accuracies, seeds, config hashes, task indices, splits and the
(zeroed) wall times must match exactly.  Every other float must satisfy
``|new - ref| <= 1e-12 * |ref| + 1e-12``.  Measured against the reference,
the LAPACK kernel moved losses by under 8e-16 relative and the diagnostics
columns by under 3e-15 relative, except ``column_sum_dev``, a roundoff-level
value near 1e-13 that moved by up to 3e-14 absolute; the 1e-12 absolute
floor covers values of that kind.
"""

import csv
from pathlib import Path

import pytest

from graphain.config import build_experiment_config, parse_config_text
from graphain.experiment import run_experiment

PINNED = Path(__file__).parent / "pinned"
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

