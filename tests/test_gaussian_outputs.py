"""Pinned outputs of Gaussian rotation-squeezer chains.

Coefficients over R are products and sums of floats, so a change in the
order in which contraction multiplies or adds them shows only as float
noise in the result.  These chains are contracted as the ``free_modes``
benchmark family does (one ``clifford_to_tensor(gaussian_clifford(L))``
node per gate), and the ``jsonio.dumps`` text of each result is compared
byte for byte with ``tests/data/gaussian_outputs.json``.

After a change that alters these outputs on purpose, rewrite the pinned
file from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_gaussian_outputs as t; \\
        json.dump(t.gaussian_outputs(), open('tests/data/gaussian_outputs.json', 'w'), \\
        indent=1, sort_keys=True)"

and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from qtensor import jsonio
from qtensor.net import Node, NetworkSpec, run_contract
from qtensor.stab import clifford_to_tensor, gaussian_clifford

PINNED = os.path.join(os.path.dirname(__file__), "data", "gaussian_outputs.json")


def _gate(theta: float, r: float) -> np.ndarray:
    """A rotation by theta after a squeezer exp(r), exp(-r)."""
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return rot @ np.diag([math.exp(r), math.exp(-r)])


def _chain(Ls) -> str:
    spec = NetworkSpec()
    for k in range(len(Ls) + 1):
        spec.wires[f"x{k}"] = "R"
    for k, L in enumerate(Ls):
        spec.nodes.append(Node(f"u{k}", clifford_to_tensor(gaussian_clifford(L)),
                               [f"x{k + 1}", f"x{k}"]))
    spec.open_order = [f"x{len(Ls)}", "x0"]
    return jsonio.dumps(run_contract(spec).group_part)


def gaussian_outputs() -> dict:
    """The JSON text of eight chains of 4 to 6 gates, keyed by chain."""
    rng = random.Random(12)
    out = {}
    for c, m in enumerate([4, 5, 6, 4, 5, 6, 4, 6]):
        Ls = [_gate(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(m)]
        out[f"chain{c}_m{m}"] = _chain(Ls)
    return out


def test_gaussian_outputs_match_pinned():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = gaussian_outputs()
    assert sorted(got) == sorted(pinned)
    for key in got:
        assert got[key] == pinned[key], key
