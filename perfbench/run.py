"""Benchmark command for qtensor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a worker
process of its own (``worker.py``) with one BLAS thread.  With
``--trace 0`` the set-up is also repeated in four set-up-only workers and
the median is reported as ``setup_s``.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("circuits", "states_and_modes")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
END_TO_END = {"pass_s": "s", "largest_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def start_worker(args, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    spawned = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-ns", str(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # time limit or interrupt: leave no worker behind
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit("perfbench: worker exceeded the time limit") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qtensor", "__init__.py")):
        print("perfbench: src/qtensor not found; run from a qtensor source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        setups = [start_worker(args, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = start_worker(args, False, deadline)
    if args.trace:
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") or name.endswith(".s")
                          else "count"}
                   for name, v in res.get("per_layer", {}).items()}
    else:
        vals = {"setup_s": statistics.median(setups + [res["setup_s"]])}
        vals.update({k: res[k] for k in ("pass_s", "largest_s", "peak_rss_mb") if k in res})
        metrics = {k: {"value": vals[k], "unit": END_TO_END[k]} for k in END_TO_END if k in vals}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
