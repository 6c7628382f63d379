"""Benchmark harness for smoothot: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {jko-cli,dense-small,grid64} \\
        --seed N --seconds S --trace {0,1}

One single-threaded closed-loop driver issues one solve at a time, in rounds
of the workload's fixed operation list, until the next round would end more
than 10% past --seconds.  Inputs come from --seed; every output passes its correctness gate
(gates.py) before it counts as a success.  With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 rounds alternate untraced and
traced (spans at the package's module bindings, tracing.py) and the last line
carries the per-layer metrics and the tracing overhead.  The lines before it
hold the full report: provenance, per-operation latencies with sample counts,
and work counts computed from the solver results.

The package is imported from src/ next to this directory, never from an
installed copy; without it the harness exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_package():
    """Import smoothot from SRC; exit non-zero if it is missing or shadowed."""
    if not (SRC / "smoothot" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'smoothot'}")
    sys.path.insert(0, str(SRC))
    import smoothot

    if Path(smoothot.__file__).resolve().parent != (SRC / "smoothot").resolve():
        raise SystemExit(f"perfbench: smoothot imported from {smoothot.__file__}, not {SRC}")


def git_commit():
    """HEAD commit read from .git without starting git, or None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "OT_THREADS": os.environ.get("OT_THREADS"),
        "commit": git_commit(),
        "seed": seed,
        "driver": "closed loop, 1 client, single-threaded; one CLI child at a time",
    }


def peak_rss_mb(in_process):
    """Peak RSS of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_rounds(workload, seconds, tracer):
    """Closed loop of rounds; in trace mode, untraced and traced alternate."""
    rounds = []  # (traced, round seconds, ops, spans)
    walls = []  # whole rounds, checks included, for the time budget
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced and workload.in_process:
            tracer.install()
        try:
            ops = workload.run_round(traced)
        finally:
            if traced and workload.in_process:
                tracer.uninstall()
        spans = tracer.take() if traced else []
        for op in ops:
            if op.child_spans is not None:
                tracing.append_spans(spans, op.child_spans)
                tracer.unresolved.extend(
                    d for d in op.child_unresolved if d not in tracer.unresolved)
        rounds.append((traced, sum(op.seconds for op in ops), ops, spans))
        walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        # start another round only if it should end within 10% past --seconds
        expected_end = elapsed + statistics.median(walls)
        if len(rounds) >= (2 if tracer else 1) and expected_end > 1.1 * seconds:
            break
        if any(op.error for op in ops):
            break
    return rounds


def operation_report(ops):
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    report = {}
    for kind, group in by_kind.items():
        times = [op.seconds for op in group if op.error is None]
        counts = {}
        for op in group:
            for key, value in op.counts.items():
                counts.setdefault(key, []).append(value)
        report[kind] = {
            "p50_s": statistics.median(times) if times else None,
            "max_s": max(times) if times else None,
            "samples": len(times),
            "failed": len(group) - len(times),
            "computed": {key: {"per_op_median": statistics.median(values),
                               "total": sum(values)} for key, values in counts.items()},
        }
    return report


def _terminate(signum, frame):
    # unwinding kills and reaps a running CLI child and removes scratch files
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    # the library default for the batched-evaluation pool is what gets measured
    os.environ.pop("OT_THREADS", None)
    import_start = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - import_start

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer and workload.in_process:
            tracer.install()  # GridCost2D builds in setup are a layer metric
        setup_times = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_spans = []
        if tracer:
            tracer.uninstall()
            setup_spans = tracer.take()
        rounds = run_rounds(workload, args.seconds, tracer)
    finally:
        workload.close()

    ops = [op for _, _, round_ops, _ in rounds for op in round_ops]
    failed = [op for op in ops if op.error]
    untraced = [seconds for traced, seconds, _, _ in rounds if not traced]
    setup_s = import_s + statistics.median(setup_times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "rounds": len(rounds),
        "round_ops_s": [[op.seconds for op in r[2]] for r in rounds],
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "operations": operation_report(ops),
        "ops": metric(len(ops), "count"),
        "ops_failed": metric(len(failed), "count"),
        "failures": [f"{op.kind}: {op.error}" for op in failed],
    }
    for kind, entry in report["operations"].items():
        if entry["p50_s"] is not None:
            report[f"{kind}_p50_s"] = metric(entry["p50_s"], "s")
    if args.trace:
        traced_rounds = [r for r in rounds if r[0]]
        spans = []
        for _, _, _, round_spans in traced_rounds:
            tracing.append_spans(spans, round_spans)
        spawns = [op.child_spawn for _, _, round_ops, _ in traced_rounds
                  for op in round_ops if op.child_spans is not None]
        layers = tracing.layer_metrics(spans, setup_spans, len(traced_rounds),
                                       tracer.unresolved, spawns)
        traced_median = statistics.median(r[1] for r in traced_rounds)
        layers["trace.overhead_pct"] = (
            100.0 * (traced_median / statistics.median(untraced) - 1.0), "%")
        metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
        report["unresolved"] = tracer.unresolved
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(untraced), "s"),
            "peak_rss_mb": metric(peak_rss_mb(workload.in_process), "MB"),
        }
    report["metrics"] = metrics
    print(json.dumps(report, indent=1, default=float))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
