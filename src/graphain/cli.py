"""Command line interface.

Subcommands:
  gen         write the synthetic graph and split the config's first seed runs on
  propagate   run the configured propagation, dump embeddings + diagnostics
  train       supervised baseline (no curriculum)
  curriculum  full pipeline
  verify      run an oracle suite; exit code 0 only if every check passes
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config, render_config
from .diagnostics import LayerRecorder, records_to_csv
from .errors import ConfigError, GraphainError
from .experiment import compute_embedding, prepare_graph, rows_to_csv, run_experiment
from .io import float_rows, load_dataset, save_dataset, write_table
from .verify import SUITES


def _write_embeddings(h: np.ndarray, path: Path) -> None:
    write_table(path, lambda lo, hi: float_rows(h[lo:hi]), *h.shape)


def _cmd_gen(args) -> int:
    cfg = load_config(args.spec)
    if cfg.synthetic is None:
        raise ConfigError(f"{args.spec}: gen needs synthetic.* keys, not dataset.path")
    g = prepare_graph(cfg, cfg.seeds[0], None)
    save_dataset(g, args.out)
    print(f"wrote {g.n} nodes / {g.num_edges} edges to {args.out}")
    return 0


def _cmd_propagate(args) -> int:
    cfg = load_config(args.config)
    g = load_dataset(args.graph)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    recorder = LayerRecorder(g)
    h = compute_embedding(cfg, g, seed=cfg.seeds[0], observe=recorder)
    _write_embeddings(h, out / "embeddings.csv")
    records = recorder.records if args.trace else recorder.records[-1:]
    records_to_csv(records, out / "diagnostics.csv")
    print(f"wrote embeddings and {len(records)} diagnostic rows to {out}")
    return 0


def _run_pipeline(args) -> int:
    cfg = load_config(args.config)
    if args.command == "train":
        cfg = replace(cfg, curriculum=None)
    if args.graph is not None:
        cfg = replace(cfg, dataset_path=str(args.graph), synthetic=None)
    if args.out is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    rows = run_experiment(cfg, export_snapshots=args.export_snapshots)
    sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_verify(args) -> int:
    report = SUITES[args.suite]()
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_echo(args) -> int:
    sys.stdout.write(render_config(load_config(args.config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphain",
        description="Deep graph propagation with soft whitening and a "
        "label-smoothing curriculum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("--spec", required=True, help="config file with synthetic.* keys")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("propagate", help="embeddings and per-layer diagnostics")
    p.add_argument("--graph", required=True, help="dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", action="store_true", help="one diagnostics row per layer")
    p.set_defaults(func=_cmd_propagate)

    for name in ("train", "curriculum"):
        p = sub.add_parser(
            name,
            help="supervised baseline" if name == "train" else "full pipeline",
        )
        p.add_argument("--graph", default=None, help="dataset directory (overrides config)")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        # the teacher builds no snapshots, so only `curriculum` exports them
        if name == "curriculum":
            p.add_argument("--export-snapshots", action="store_true")
        p.set_defaults(func=_run_pipeline, export_snapshots=False)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("echo-config", help="print the canonical config echo")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_echo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
