"""The benchmark's tracer patches qtensor functions by name; every name it
lists must exist, or ``--trace 1`` fails while installing its wrappers."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


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
