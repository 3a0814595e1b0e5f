#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, in this process, and checks that
- every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and every operation passes its correctness check;
- traced spans nest, and the self times of the metric spans plus
  ``experiment.other_s`` sum to the traced operation's time;
- a wrapped name that no longer exists is skipped and reported, its metrics
  read zero calls, and the trace still accounts for the whole operation.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import TINY

SECONDS = 0.2


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _check_spans(name, tracer, problems):
    from tracing import check_nesting, layer_metrics

    ops = sorted({s.op for s in tracer.spans})
    if not ops:
        problems.append(f"{name}: no traced operation")
    for op in ops:
        spans = [s for s in tracer.spans if s.op == op]
        problems.extend(f"{name} op {op}: {p}" for p in check_nesting(spans))
        root = next(s for s in spans if s.parent is None)
        op_s = root.end - root.start
        grouped = sum(s.self_s for s in spans if s.group is not None)
        other = layer_metrics(spans)["experiment.other_s"]
        if not math.isclose(grouped + other, op_s, rel_tol=1e-9):
            problems.append(f"{name} op {op}: self times {grouped} + other {other} != {op_s}")
        if not math.isclose(sum(s.self_s for s in spans), op_s, rel_tol=1e-9):
            problems.append(f"{name} op {op}: self times do not sum to the operation")


def main() -> int:
    run.import_program()
    from tracing import TARGETS, Target

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: _units(bench["end_to_end"]), True: _units(bench["per_layer"])}
    problems = []
    for name, workload in TINY.items():
        for trace in (False, True):
            result, detail, tracer = run.run(workload, seed=7, seconds=SECONDS, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {detail['failures']} {detail['problems']}")
            if trace:
                _check_spans(name, tracer, problems)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                writes = workload.write_files
                if (values["io.bytes_read"] > 0) != writes or (values["diagnostics.rows"] > 0) != writes:
                    problems.append(f"{name}: file metrics do not match write mode: {values}")
                if values["linalg.eig_calls"] == 0:
                    problems.append(f"{name}: no eigen calls traced")

        # a refactor that deletes sym_eig: skipped, reported, zero calls
        targets = [
            Target(t.module, "sym_eig_removed", t.group) if t.name == "sym_eig" else t
            for t in TARGETS
        ]
        result, detail, tracer = run.run(workload, seed=7, seconds=SECONDS, trace=True, targets=targets)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if detail["missing_targets"] != ["graphain.linalg.sym_eig_removed"]:
            problems.append(f"{name}: missing targets {detail['missing_targets']}")
        if values["linalg.eig_calls"] != 0 or values["linalg.filter_calls"] == 0:
            problems.append(f"{name}: missing target not counted as zero calls: {values}")
        if not result["correct"]:
            problems.append(f"{name}: run with a missing target failed: {detail['problems']}")
        _check_spans(f"{name} (missing)", tracer, problems)
        print(f"selftest {name}: ok" if not problems else f"selftest {name}: {len(problems)} problems")

    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
