"""Paired curriculum ablation on the synthetic cluster graph.

Pairs the full label-smoothing curriculum with the plain supervised pipeline
at a low label rate, both from one ``run_seed`` call per seed (one embedding,
split and seed), and reports the paired per-seed validation accuracies.

Usage: python scripts/run_curriculum_ablation.py [--seeds 1,2,3,4,5]
"""

import argparse

import numpy as np

from graphain.config import build_experiment_config
from graphain.experiment import run_seed


def build_kv(seeds, train_frac):
    """The config keys this ablation sets; every other key keeps its default."""
    return {
        "synthetic.train_frac": str(train_frac),
        "propagation.layers": "64",
        "curriculum.mask_ratio": "0.1",
        "train.epochs": "200",
        "seeds": ",".join(str(s) for s in seeds),
        "deterministic_timing": "true",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--train-frac", type=float, default=0.05)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    cfg = build_experiment_config(build_kv(seeds, args.train_frac))
    print(f"{'seed':<6} {'with curriculum':<16} {'without':<16}")
    with_cl, without_cl = [], []
    for seed in seeds:
        rows, supervised_rows, _ = run_seed(cfg, seed)
        acc_cl = [r for r in rows if r.split == "val"][-1].accuracy
        acc_sup = [r for r in supervised_rows if r.split == "val"][-1].accuracy
        with_cl.append(acc_cl)
        without_cl.append(acc_sup)
        print(f"{seed:<6} {acc_cl:<16.4f} {acc_sup:<16.4f}")
    print(
        f"median with curriculum {np.median(with_cl):.4f}, "
        f"without {np.median(without_cl):.4f}"
    )


if __name__ == "__main__":
    main()
