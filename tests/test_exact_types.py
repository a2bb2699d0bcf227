"""Exactness by type: contracted Clifford networks hold Z_k and Z values as
plain ``int`` and T values as ``Fraction``, and never a ``float``.

An ``int / int`` somewhere in the coefficient arithmetic gives a float
silently; these checks catch it where a value check would not.
"""

import glob
import os
from fractions import Fraction

import numpy as np
import pytest

from qtensor.dense import materialize
from qtensor.groups import T
from qtensor.net import parse, parse_file, run_contract

NETS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "nets", "*.net")))


def _mirror_net() -> str:
    """C C^-1 on a Z3 pair (F, CZ, Z, X) and a Z5 pair (F, CX, Z), from |00>."""
    wires = {q: f"{q}0" for q in "abcd"}
    lines = ["wire a0: Z3", "wire b0: Z3", "wire c0: Z5", "wire d0: Z5"]
    lines += [f"node k{q} = ket0({q}0)" for q in "abcd"]
    fwd = [("F", "a"), ("F", "b"), ("CZ", "ab"), ("Z", "a"), ("X", "b"),
           ("F", "c"), ("CX", "cd"), ("Z", "d")]
    order = {"a": 3, "b": 3, "c": 5, "d": 5}
    # F^-1 = F^3; Z, X, CZ and CX have order k, so their inverses are k - 1 copies
    inv = [(g, qs) for g, qs in reversed(fwd)
           for _ in range(3 if g == "F" else order[qs[0]] - 1)]
    for n, (gate, qs) in enumerate(fwd + inv):
        ins = [wires[q] for q in qs]
        for q in qs:
            wires[q] = f"{q}{n + 1}"
            lines.append(f"wire {wires[q]}: Z{order[q]}")
        outs = [wires[q] for q in qs]
        lines.append(f"node g{n} = {gate}({', '.join(ins + outs)})")
    lines.append("open " + ", ".join(wires[q] for q in "abcd"))
    return "\n".join(lines)


def _group_parts():
    specs = [(os.path.basename(p), parse_file(p)) for p in NETS]
    specs.append(("mirror_z3_z5", parse(_mirror_net())))
    out = []
    for name, spec in specs:
        g = run_contract(spec).group_part
        if g is not None:
            out.append((name, g))
    return out


GROUP_PARTS = _group_parts()


def _values(t):
    """(what, group, value) for every value of the tensor's eps and q; a0,
    the float log-magnitude kept beside the exact mag2, is left out."""
    yield "phi0", T, t.q.phi0
    for i, (Gi, v) in enumerate(zip(t.G, t.eps.eps0)):
        yield f"eps0[{i}]", Gi, v
    for i, row in enumerate(t.eps.eps1):
        for j, c in enumerate(row):
            yield f"eps1[{i}][{j}]", c.group, c.value
    for part, slots in (("a1", t.q.a1), ("phi1", t.q.phi1)):
        for j, c in enumerate(slots):
            g2, g1 = c.groups
            yield f"{part}[{j}].h2", g2, c.h2
            yield f"{part}[{j}].h1", g1, c.h1
    for part, cells in (("a2", t.q.a2), ("phi2", t.q.phi2)):
        for (i, j), c in sorted(cells.items()):
            yield f"{part}[{i},{j}]", c.group, c.value


def test_mirror_net_is_the_identity():
    (g,) = [g for name, g in GROUP_PARTS if name == "mirror_z3_z5"]
    d = materialize(g)
    want = np.zeros(d.dims, dtype=complex)
    want[0, 0, 0, 0] = 1
    assert np.allclose(d.arr, want)


@pytest.mark.parametrize("name, t", GROUP_PARTS, ids=[n for n, _ in GROUP_PARTS])
def test_values_are_exact_by_type(name, t):
    assert type(t.mag2) is Fraction
    for what, grp, v in _values(t):
        assert not isinstance(v, float), (what, v)
        if grp.kind in ("Zk", "Z"):
            assert type(v) is int, (what, grp, v)
        elif grp.kind == "T":
            assert type(v) is Fraction, (what, v)


@pytest.mark.parametrize("x", [0, 7, -3, True, False, Fraction(1, 3), Fraction(4),
                               0.5, -2.0, float("nan"), np.float64(0.25), np.float32(1.0),
                               np.int64(3), np.int32(-1), 1j])
def test_is_exact_is_the_type_test(x):
    from qtensor.scalar import is_exact

    assert is_exact(x) == isinstance(x, (int, Fraction))
