"""One workload in one process: set up, then timed passes over the
instance list as a closed loop with a single caller.

Started by ``run.py`` with the BLAS pool pinned to one thread; prints one
JSON object as its last line.  ``--setup-only`` stops at the point where
the first timed call would be made.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402  (needs the path set above)
import tracing  # noqa: E402


def run_passes(instances, seconds: float, tracer=None):
    """Whole passes over the instance list until ``seconds`` have elapsed.

    Returns per-pass (op seconds, largest-instance seconds), the traced
    per-pass summaries, the spans of the first pass, and the counts.
    """
    passes, traced, first_spans = [], [], None
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        total = largest = 0.0
        for inst in instances:
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = inst.run()
                ok = True
            except Exception as exc:  # a raising operation counts as failed
                ok = False
                problems.append(f"{inst.name}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            attempted += 1
            total += dt
            if inst.largest:
                largest = dt
            if not ok:
                failed += 1
                continue
            try:
                inst.check(out)
            except Exception as exc:  # an output the check cannot read is wrong too
                problems.append(f"{inst.name}: wrong output: {type(exc).__name__}: {exc}")
                return None, None, None, attempted, failed, problems
        passes.append((total, largest))
        if tracer is not None:
            traced.append(tracer.summary())
            if first_spans is None:
                first_spans = tracer.dump_spans()
        if time.perf_counter() - start >= seconds:
            break
    return passes, traced, first_spans, attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    instances = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    passes, traced, spans, attempted, failed, problems = run_passes(
        instances, args.seconds, tracer)
    for p in problems:
        print(p, file=sys.stderr)
    result = {"correct": passes is not None, "attempted": attempted, "failed": failed,
              "setup_s": setup_s, "passes": len(passes or [])}
    if passes:
        # Means, not medians: this machine runs the same work at two speeds
        # for 20-40 s at a time, and a median over the passes of a run
        # takes whichever speed held the majority of them.
        result["pass_s"] = statistics.fmean(p[0] for p in passes)
        result["largest_s"] = statistics.fmean(p[1] for p in passes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        per_layer = {}
        for name in tracing.metric_names():
            if name.endswith(".calls") or name.endswith(".max_rank"):
                per_layer[name] = traced[0][name]
            else:
                per_layer[name] = statistics.fmean(t[name] for t in traced)
        result["per_layer"] = per_layer
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracing.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                      args.workload, args.seed, per_layer, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
