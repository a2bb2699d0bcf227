"""The benchmark's tracer patches qtensor functions by name; every name it
lists must exist, or ``--trace 1`` fails while installing its wrappers, and
the reduction counters must see the steps of ``reduce_full``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("table", ["TIMED", "COUNTED"])
def test_traced_names_resolve(table):
    for _, module, attr in getattr(_tracing(), table):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def _traced_counts(workload):
    """The per-pass call counts of a short traced benchmark run."""
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                          "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and not res["failed"], res
    return {k: m["value"] for k, m in res["metrics"].items() if k.endswith(".calls")}


def test_reduction_counters_count_the_steps_of_reduce_full():
    # every step of reduce_full goes through a public reduction: on circuits
    # each invertible one takes one Gauss sum, and the Gaussian chains of
    # states_and_modes take real ones
    counts = _traced_counts("circuits")
    assert counts["engine.reduce_invertible.calls"] == counts["engine.gauss_sum.calls"] > 0, counts
    assert counts["engine.reduce_zero.calls"] > 0, counts
    counts = _traced_counts("states_and_modes")
    assert counts["engine.reduce_real.calls"] > 0, counts
