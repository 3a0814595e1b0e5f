#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads deep,wide,files --seeds 1-10 \\
        --seconds 25 --traced-seed 1 --out summary.json

Each run is a fresh ``run.py`` process, one after another.  For every
workload and end-to-end metric the summary gives the median, the quartiles
and the quartile spread as a share of the median over the seeds; with
``--traced-seed`` it adds one traced run per workload and, from the fastest
traced operation of its first run seed, the shares of operation time that
the workload design rests on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE.parent / ".perfbench_runs"


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("# env "))
    detail = json.loads(lines[1].removeprefix("# detail "))
    return {"env": env, "detail": detail, "result": json.loads(lines[-1])}


def _summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def _shares(totals: dict) -> dict:
    """Shares of one traced operation's time that the workload design rests on."""

    def incl(name):
        return totals.get(name, {}).get("incl_s", 0.0)

    op = incl("operation")
    return {
        "linalg": (incl("linalg.sym_eig") + totals.get("linalg.soft_spectral_filter", {}).get("self_s", 0.0)) / op,
        "synthetic+aux": (incl("synthetic.gen_gaussian_cluster_graph")
                          + incl("curriculum.build_knn_aux_graph")
                          + incl("curriculum.aux_from_graph")) / op,
        "diagnostics_sweep": incl("diagnostics.layer_sweep") / op,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="deep,wide,files")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, args.seconds, 0))
            res = runs[-1]["result"]
            print(workload, seed, res["correct"], res["failed"],
                  {k: round(m["value"], 4) for k, m in res["metrics"].items()}, flush=True)
        entry = {
            "env": runs[0]["env"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": {
                name: _summary([r["result"]["metrics"][name]["value"] for r in runs])
                for name in runs[0]["result"]["metrics"]
            },
        }
        if args.traced_seed is not None:
            traced = _run(workload, args.traced_seed, args.seconds, 1)
            record = json.loads(
                (RUNS / f"{workload}-seed{args.traced_seed}-trace1.json").read_text(encoding="utf-8")
            )
            entry["traced"] = {
                "seed": args.traced_seed,
                "correct": traced["result"]["correct"],
                "traced_seed_fastest_s": traced["detail"]["traced_seed_fastest_s"],
                "per_layer": {k: m["value"] for k, m in traced["result"]["metrics"].items()},
                "missing_targets": traced["detail"]["missing_targets"],
                "fastest_op_shares": _shares(record["detail"]["fastest_op_span_totals"]),
            }
        report[workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} iqr/median {s['iqr_share']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
