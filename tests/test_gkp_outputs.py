"""Pinned outputs of the GKP constructors, whose quadratic function has
float coefficients on Z factors.

For each lattice basis L the ``jsonio.dumps`` text of ``gkp_state_data(L)``
and ``gkp_tableau(L)`` (or the name of the error it raises), the values of
the code's quadratic function p at the points of a box, and the pullback of
p along a map Z -> Z^2n are compared byte for byte with
``tests/data/gkp_outputs.json``.

After a change that alters these outputs on purpose, rewrite the pinned
file from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_gkp_outputs as t; \\
        json.dump(t.gkp_outputs(), open('tests/data/gkp_outputs.json', 'w'), \\
        indent=1, sort_keys=True)"

and say why in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from qtensor import jsonio
from qtensor.coeff import HomCoeff
from qtensor.functions import LinearFnData
from qtensor.groups import GroupProduct, Z
from qtensor.stab import NotSymplectic, _gkp_data, gkp_state_data, gkp_tableau

PINNED = os.path.join(os.path.dirname(__file__), "data", "gkp_outputs.json")


def _lattices() -> dict:
    """Symplectic bases scaled by sqrt(2 pi), and two that are not symplectic."""
    s = math.sqrt(2 * math.pi)
    rng = np.random.default_rng(5)
    return {
        "square": s * np.eye(2),
        "shear": s * np.array([[1., 1.], [0., 1.]]),
        "hex_like": s * np.array([[2., 1.], [1., 1.]]),
        "lower": s * np.array([[1., 0.], [3., 1.]]),
        "wide": s * np.array([[2., 1.], [3., 2.]]),
        "two_mode_shear": s * np.array([[1., 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]),
        "two_mode_mixed": s * np.array([[1., 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
        "random_one_mode": 3 * rng.normal(size=(2, 2)),
        "random_two_mode": 3 * rng.normal(size=(4, 4)),
    }


def gkp_outputs() -> dict:
    """The outputs described in the module docstring, keyed by lattice and kind."""
    out = {}
    for name, L in _lattices().items():
        out[f"{name}/state"] = jsonio.dumps(gkp_state_data(L))
        try:
            out[f"{name}/tableau"] = jsonio.dumps(gkp_tableau(L))
        except NotSymplectic as exc:
            out[f"{name}/tableau"] = type(exc).__name__
        p = _gkp_data(L)[2]
        box = itertools.product(range(-2, 3), repeat=len(p.domain))
        out[f"{name}/values"] = repr([p.eval(x) for x in box])
        gamma = LinearFnData(GroupProduct([Z]), p.domain, p.domain.identity(),
                             [[HomCoeff(Z, Z, c + 1)] for c in range(len(p.domain))])
        out[f"{name}/pullback"] = json.dumps(jsonio.quadratic_to_json(p.precompose(gamma)),
                                             sort_keys=True)
    return out


def test_gkp_outputs_match_pinned():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = gkp_outputs()
    assert sorted(got) == sorted(pinned)
    for key in got:
        assert got[key] == pinned[key], key
