#!/usr/bin/env python3
"""graphain benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 25 --trace 0

One client runs one operation at a time.  An operation is one
``experiment.run_experiment`` call on one run seed, file writes included
when the workload writes.  A run uses several run seeds derived from
``--seed`` (see workloads.py).  Set-up materialises the dataset, builds the
config and runs an untimed warm-up operation for each run seed in turn (at
least SETUP_REPEATS times).  Operations then cycle through the run seeds
for ``--seconds``.

The host is shared, and its speed moves by up to twice within minutes, so
every timed step is also expressed at nominal host speed: the reference
kernels of reference.py run before the first step and after each one, and
a step's wall time is divided by their mean slowdown on either side of it.
A seed's time is the total wall time of its operations over the sum of
their slowdowns, and ``seed_s`` is the mean over the run seeds; ``setup_s``
is the import time plus the median set-up repeat, both at nominal speed.  The wall times (quartiles, fastest
operation per seed) and the slowdowns are in the details.

``--trace 0`` wraps nothing and prints the end-to-end metrics.  ``--trace 1``
uses the first TRACED_SEEDS run seeds, times each untraced, then traced,
and prints the per-layer metrics (wall times) of each seed's fastest traced
operation, averaged over the seeds (see tracing.py).

Every operation is checked: it fails if it raises, if its result rows (or,
in write mode, the bytes of the files it wrote) differ from its seed's
warm-up, or, when traced, if its embedding is not finite.  A failure counts
toward ``failed`` and does not stop the run.

The last stdout line is the result JSON.  The lines before it carry the
environment stamp and the details (per-seed times and sample counts,
quartiles, failures); the same record is written under ``.perfbench_runs/``
at the root of the checkout, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import KERNELS, kernel_slowdowns
from workloads import FULL

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
MIN_ROUNDS = 1         # operations on every run seed, at least
MIN_ROUNDS_TRACED = 2  # untraced + traced pairs on every run seed, at least
TRACED_SEEDS = 3       # a traced run uses the first run seeds only

E2E_UNITS = {
    "seed_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "test_acc": "fraction",
    "success_rate": "fraction",
}


class NoMeasurement(Exception):
    """The run cannot measure: set-up failed or no operation succeeded."""


def import_program() -> float:
    """Import numpy, scipy and graphain from this checkout's src/; returns
    the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import graphain
    from graphain import experiment  # noqa: F401

    where = Path(graphain.__file__).resolve().parent
    if where != (ROOT / "src" / "graphain").resolve():
        raise ImportError(f"graphain imported from {where}, not from this checkout")
    return time.perf_counter() - start


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _rows_key(rows) -> str:
    return repr([dataclasses.astuple(r) for r in rows])


def _written(cfg, write_files):
    if not write_files:
        return None
    out = Path(cfg.output_dir)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _nonfinite(spans) -> int:
    return sum(s.counters.get("nonfinite_embeddings", 0) for s in spans)


def _check_warmup(rows, spans) -> None:
    if not any(r.split == "test" for r in rows):
        raise NoMeasurement("warm-up operation wrote no test row")
    bad = [r for r in rows if not (math.isfinite(r.accuracy) and math.isfinite(r.loss))]
    if bad:
        raise NoMeasurement(f"warm-up operation has non-finite results: {bad[0]}")
    if _nonfinite(spans):
        raise NoMeasurement("warm-up embedding is not finite")


def run(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0, targets=None):
    """Set up and measure one workload; returns (result, detail, tracer)."""
    workdir = RUNS / f"work-{workload.name}-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, import_s, targets, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, import_s, targets, workdir):
    from graphain import experiment
    from tracing import COUNT_METRICS, LAYER_UNITS, TARGETS, Tracer, layer_metrics, span_totals

    wf = workload.write_files
    seeds = workload.seeds(seed)[:TRACED_SEEDS] if trace else workload.seeds(seed)
    # Warm-ups wrap only compute_embedding, to check that the embedding is
    # finite.  Untraced operations wrap nothing; a change to their embedding
    # would change their loss columns and fail the row comparison.
    probe = Tracer([t for t in TARGETS if t.name == "compute_embedding"])
    tracer = Tracer(TARGETS if targets is None else targets)

    # Host speed, gauged with the reference kernels before the first timed
    # step and after each one (see reference.py).
    kernels = [kernel_slowdowns()]
    slow = [statistics.fmean(kernels[-1])]

    def host_slowdown() -> float:
        """Mean slowdown on either side of the step just timed."""
        kernels.append(kernel_slowdowns())
        slow.append(statistics.fmean(kernels[-1]))
        return (slow[-2] + slow[-1]) / 2

    # Set-up: each repeat materialises, builds and warms up one run seed, in
    # turn, so every seed is warmed up before it is timed.
    setup_times, cfgs, ref, test_rows = [], {}, {}, []
    for i in range(max(SETUP_REPEATS, len(seeds))):
        one_seed = seeds[i % len(seeds)]
        seed_dir = workdir / f"seed-{one_seed}"
        shutil.rmtree(seed_dir, ignore_errors=True)
        seed_dir.mkdir(parents=True)
        start = time.perf_counter()
        try:
            workload.materialise(one_seed, seed_dir)
            cfg = workload.build(one_seed, seed_dir)
            rows, _, spans = probe.operation(
                lambda: experiment.run_experiment(cfg, write_files=wf)
            )
        except Exception as err:
            raise NoMeasurement(f"warm-up operation failed: {err!r}") from err
        setup_times.append((time.perf_counter() - start) / host_slowdown())
        _check_warmup(rows, spans)
        got = (_rows_key(rows), _written(cfg, wf))
        if one_seed not in ref:
            test_rows += [r for r in rows if r.split == "test"]
        if ref.setdefault(one_seed, got) != got:
            raise NoMeasurement("repeated warm-up operations disagree")
        cfgs[one_seed] = cfg

    untraced = {s: [] for s in seeds}  # (seconds, host slowdown)
    op_log = []  # (seed, seconds, kernel slowdowns on either side)
    traced = {s: [] for s in seeds}    # (seconds, layer metrics, spans)
    failures = []

    def one(run_seed, traced_op: bool):
        """Run one checked operation; returns its seconds and spans, or None."""
        cfg = cfgs[run_seed]
        if wf:
            shutil.rmtree(cfg.output_dir, ignore_errors=True)
        call = lambda: experiment.run_experiment(cfg, write_files=wf)  # noqa: E731
        spans = None
        try:
            if traced_op:
                rows, took, spans = tracer.operation(call)
            else:
                start = time.perf_counter()
                rows = call()
                took = time.perf_counter() - start
        except Exception as err:  # a failed operation is counted, not fatal
            failures.append("".join(traceback.format_exception_only(type(err), err)).strip())
            return None
        ref_key, ref_files = ref[run_seed]
        if _rows_key(rows) != ref_key:
            failures.append(f"seed {run_seed}: result rows differ from the warm-up operation")
        elif _written(cfg, wf) != ref_files:
            failures.append(f"seed {run_seed}: written files differ from the warm-up operation")
        elif traced_op and _nonfinite(spans):
            failures.append(f"seed {run_seed}: embedding is not finite")
        else:
            return took, spans
        return None

    # Operations cycle through the run seeds until the time is up, after at
    # least MIN_ROUNDS rounds.  An untraced run gauges the host speed after
    # each operation; a traced run times each seed untraced, then traced.
    deadline = time.perf_counter() + seconds
    attempted = 0
    rounds = MIN_ROUNDS_TRACED if trace else MIN_ROUNDS
    while attempted < rounds * len(seeds) * (2 if trace else 1) or time.perf_counter() < deadline:
        run_seed = seeds[(attempted // (2 if trace else 1)) % len(seeds)]
        done = one(run_seed, False)
        attempted += 1
        if not trace:
            around = host_slowdown()
            if done:
                untraced[run_seed].append((done[0], around))
                op_log.append((run_seed, done[0], kernels[-2], kernels[-1]))
        else:
            if done:
                untraced[run_seed].append((done[0], None))
            done = one(run_seed, True)
            attempted += 1
            if done:
                traced[run_seed].append((done[0], layer_metrics(done[1]), done[1]))
    if not all(untraced.values()) or (trace and not all(traced.values())):
        raise NoMeasurement(f"some run seed has no successful operation: {failures[:3]}")

    fastest = {s: min(t for t, _ in untraced[s]) for s in seeds}
    all_ops = [t for s in seeds for t, _ in untraced[s]]
    problems = []
    detail = {
        "seeds": list(seeds),
        "seed_fastest_s": [fastest[s] for s in seeds],
        "seed_samples": [len(untraced[s]) for s in seeds],
        "op_s_quartiles": _quartiles(all_ops),
        "op_samples": len(all_ops),
        "slowdown_quartiles": _quartiles(slow),
        "kernel_slowdown_medians": {
            name: statistics.median(k[i] for k in kernels) for i, name in enumerate(KERNELS)
        },
        "op_log": op_log,
        "setup_repeats_nominal_s": setup_times,
        "import_s": import_s,
        "failures": failures,
    }
    if trace:
        # Per seed, the metrics of its fastest traced operation; counts must
        # repeat exactly between the traced operations of a seed.
        best = []
        for s in seeds:
            ops = traced[s]
            for name in COUNT_METRICS:
                values = [m[name] for _, m, _ in ops]
                if len(set(values)) != 1:
                    problems.append(f"seed {s}: count {name} differs between operations: {values}")
            best.append(min(ops, key=lambda op: op[0]))
        metrics = {name: statistics.fmean(m[name] for _, m, _ in best) for name in best[0][1]}
        metrics["trace.overhead_s"] = statistics.fmean(
            took - fastest[s] for s, (took, _, _) in zip(seeds, best)
        )
        units = LAYER_UNITS
        detail.update(
            traced_seed_fastest_s=[took for took, _, _ in best],
            traced_samples=[len(traced[s]) for s in seeds],
            missing_targets=tracer.missing,
            counter_errors=sorted(set(tracer.counter_errors)),
            fastest_op_span_totals=span_totals(best[0][2]),
        )
    else:
        # A seed's time at nominal host speed is the wall time of its
        # operations over the sum of their slowdowns; seed_s is the mean
        # over the run seeds.
        per_seed = [
            sum(t for t, _ in untraced[s]) / sum(g for _, g in untraced[s]) for s in seeds
        ]
        detail["seed_nominal_s"] = per_seed
        metrics = {
            "seed_s": statistics.fmean(per_seed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s / slow[0] + statistics.median(setup_times),
            "test_acc": sum(r.accuracy for r in test_rows) / len(test_rows),
            "success_rate": (attempted - len(failures)) / attempted,
        }
        units = E2E_UNITS
    detail["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, detail, tracer


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in Path(path).name.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def env_stamp(args) -> dict:
    import numpy
    import scipy

    git = None
    if (ROOT / ".git").exists():
        import subprocess

        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            git = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            git = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload not in FULL:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(FULL)}")
    try:
        import_s = import_program()
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2
    try:
        result, detail, tracer = run(
            FULL[args.workload], args.seed, args.seconds, bool(args.trace), import_s
        )
    except NoMeasurement as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    env = env_stamp(args)
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(RUNS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for s in tracer.spans:
                out.write(json.dumps(dataclasses.astuple(s)) + "\n")
    record = {"env": env, "detail": detail, "result": result}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(
        {k: v for k, v in detail.items() if k not in ("fastest_op_span_totals", "op_log")}
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
