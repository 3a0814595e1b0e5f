"""Run a grid of experiment configs over paired seeds and print one CSV.

Each ``--set key=v1,v2,...`` is an axis; every combination of values is a
cell, in the order the axes were given, and keys not set keep their
defaults.  Each (cell, seed) is one ``run_seed`` call, which gives both arms
on one embedding and split: the curriculum and the supervised teacher.

stdout gets one row per (cell, seed, arm, split), from the last task of that
split: one column per axis key, then ``seed,arm,split,accuracy,loss``, the
floats in ``%.17g``.  stderr gets the median accuracy of each (cell, arm,
split) over the seeds.  A bad key or value, or a failed run, exits 2 with
one ``error:`` line.  No run file is written.

Usage: python scripts/run_grid.py [--set key=v1,v2,...]... [--seeds 1,2,3,4,5]
"""

import argparse
import itertools
import sys

import numpy as np

from graphain.config import build_experiment_config
from graphain.errors import ConfigError, GraphainError
from graphain.experiment import run_seed
from graphain.io import format_value


def parse_axes(axes):
    """(keys, value lists) of the ``--set`` axes, in the order given."""
    keys, values = [], []
    for axis in axes:
        key, _, text = axis.partition("=")
        if key == "seeds" or key in keys:
            raise ConfigError(f"--set {key}: give seeds with --seeds and each key once")
        keys.append(key)
        values.append(text.split(","))
    return keys, values


def run_grid(axes, seeds):
    keys, values = parse_axes(axes)
    # every cell's config is built, and so checked, before any run starts
    cells = [
        (cell, build_experiment_config(
            {**dict(zip(keys, cell)), "seeds": seeds, "deterministic_timing": "true"},
            source="run_grid.py"))
        for cell in itertools.product(*values)
    ]
    print(",".join([*keys, "seed", "arm", "split", "accuracy", "loss"]))
    for cell, cfg in cells:
        accuracies = {}
        for seed in cfg.seeds:
            rows, supervised_rows, _ = run_seed(cfg, seed)
            for arm, arm_rows in (("curriculum", rows), ("supervised", supervised_rows)):
                # the last row of each split, in split order
                for split, row in {row.split: row for row in arm_rows}.items():
                    accuracies.setdefault((arm, split), []).append(row.accuracy)
                    print(",".join(map(format_value, [*cell, seed, arm, split,
                                                      row.accuracy, row.loss])), flush=True)
        name = " ".join(f"{key}={value}" for key, value in zip(keys, cell)) or "defaults"
        for (arm, split), accs in accuracies.items():
            print(f"{name} {arm} {split}: median accuracy {np.median(accs):.4f}",
                  file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", dest="axes", action="append", default=[],
                        metavar="KEY=V1,V2,...", help="one grid axis; may be repeated")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated run seeds")
    args = parser.parse_args(argv)
    try:
        run_grid(args.axes, args.seeds)
    except GraphainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
