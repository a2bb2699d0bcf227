"""The greedy contraction planner keeps a heap of edge costs instead of
rescanning every remaining edge at each step; the edges it picks must be
the ones a full rescan picks, step by step."""

import glob
import os
import random
import sys

import numpy as np
import pytest

from qtensor.dense import dense_compare, materialize
from qtensor.engine import QTensorData
from qtensor.higher import OrderTensorData
from qtensor.net import NetTypeError, _GroupNet, _group_edges, parse, parse_file, run_contract

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# networks with a higher-order node are evaluated densely, with no planner
NETS = [p for p in sorted(glob.glob(os.path.join(ROOT, "nets", "*.net")))
        if not any(isinstance(n.payload, OrderTensorData) for n in parse_file(p).nodes)]


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _brickwork_texts():
    """The .net text of the seed-7 qubit brickworks of the benchmark."""
    workloads = _workloads()
    rng = random.Random(7)
    return {f"brickwork_n{n}_d{d}": workloads.circuit_net(n, workloads.brickwork_circuit(rng, n, d))
            for n, d in workloads.QUBIT_SIZES}


def _qutrit_brickwork(n: int, depth: int, rng: random.Random):
    """A Z3 brickwork on |0...0>: F on every qutrit and Z on a random half
    of them, then CX (even layers) or CZ (odd layers) on neighbours.
    Returns its .net text, with all outputs open, and its state vector."""
    w = np.exp(2j * np.pi / 3)
    x = np.arange(3)
    psi = np.zeros((3,) * n, dtype=complex)
    psi[(0,) * n] = 1
    ver = [0] * n
    lines = [f"wire w{q}_0: Z3" for q in range(n)] + [f"node k{q} = ket0(w{q}_0)" for q in range(n)]

    def gate(name, qs):
        ins = [f"w{q}_{ver[q]}" for q in qs]
        for q in qs:
            ver[q] += 1
            lines.append(f"wire w{q}_{ver[q]}: Z3")
        outs = [f"w{q}_{ver[q]}" for q in qs]
        lines.append(f"node g{len(lines)} = {name}({', '.join(ins + outs)})")

    def on(q, mat):
        return np.moveaxis(np.tensordot(mat, psi, axes=([1], [q])), 0, q)

    for layer in range(depth):
        for q in range(n):
            gate("F", [q])
            psi = on(q, w ** np.outer(x, x) / np.sqrt(3))
        for q in rng.sample(range(n), n // 2):
            gate("Z", [q])
            psi = on(q, np.diag(w ** x))
        for i in range(layer % 2, n - 1, 2):
            a, b = np.meshgrid(x, x, indexing="ij")
            if layer % 2 == 0:
                gate("CX", [i, i + 1])
                # |a, b> -> |a, a + b>
                psi = np.moveaxis(np.moveaxis(psi, (i, i + 1), (0, 1))[a, (b - a) % 3],
                                  (0, 1), (i, i + 1))
            else:
                gate("CZ", [i, i + 1])
                shape = [1] * n
                shape[i], shape[i + 1] = 3, 3
                psi = psi * (w ** (a * b)).reshape(shape)
    lines.append("open " + ", ".join(f"w{q}_{ver[q]}" for q in range(n)))
    return "\n".join(lines) + "\n", psi


def _contracted_wires(spec):
    """The wires the heap planner contracts, in order, each checked against
    the least (cost, rank) over all remaining edges."""
    nodes = [n for n in spec.nodes if isinstance(n.payload, QTensorData)]
    net = _GroupNet(nodes, _group_edges(spec))
    seq = []
    while net.remaining:
        rescan = min(net.remaining, key=net.cost)
        w = net.cheapest()
        assert w == rescan, (len(seq), w, rescan)
        seq.append(w)
        net.contract(w)
    return seq


@pytest.mark.parametrize("path", NETS, ids=os.path.basename)
def test_heap_planner_matches_rescan_on_corpus(path):
    spec = parse_file(path)
    seq = _contracted_wires(spec)
    assert sorted(seq) == sorted(_group_edges(spec))


def test_heap_planner_matches_rescan_on_brickworks():
    for name, text in _brickwork_texts().items():
        spec = parse(text)
        seq = _contracted_wires(spec)
        assert len(seq) == len(_group_edges(spec)), name


def test_order_override_is_followed(monkeypatch):
    """With an order, the listed edges go first in the listed order (repeats
    ignored), then the rest in declaration order; a name that is not an
    edge between two group nodes is an error."""
    text = _brickwork_texts()["brickwork_n4_d3"]
    edges = _group_edges(parse(text))
    with pytest.raises(NetTypeError, match="nowire"):
        run_contract(parse(text), [edges[5], "nowire", edges[2]])
    order = [edges[5], edges[2], edges[5], edges[0]]
    seen = []
    plain = _GroupNet.contract

    def recording(self, w):
        seen.append(w)
        plain(self, w)

    monkeypatch.setattr(_GroupNet, "contract", recording)
    run_contract(parse(text), order)
    assert seen == [edges[5], edges[2], edges[0]] + [w for w in edges if w not in order]


def test_greedy_and_declaration_order_agree():
    """The greedy plan and declaration order meet different unit pivots on
    the way; both results match the state vector of the circuit and
    materialize to the same exact tensor.  (The dense oracle of
    ``verify_against_dense`` multiplies the sizes of all nodes, which
    exceeds its 2**22 limit on these circuits, so a state-vector
    simulation is the reference.)"""
    workloads, rng = _workloads(), random.Random(3)
    cases = {}
    for n, d in [(4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4)]:
        gates = workloads.brickwork_circuit(rng, n, d)
        cases[f"qubit_n{n}_d{d}"] = (workloads.circuit_net(n, gates),
                                     workloads.refs.simulate(n, gates).reshape((2,) * n))
    cases["qutrit_n4_d3"] = _qutrit_brickwork(4, 3, rng)
    for name, (text, want) in cases.items():
        results = []
        for order in (None, _group_edges(parse(text))):
            got = materialize(run_contract(parse(text), order).group_part)
            assert np.allclose(got.arr, want, atol=1e-9), (name, order is None)
            results.append(got)
        greedy, declared = results
        assert dense_compare(greedy, declared, "exact").equal, name


def test_zk_contractions_take_the_substitution(monkeypatch):
    """On networks of Z_k wires every unit-pivot wire contraction and zero
    reduction rewrites eps and q by substitution: with the general
    compositions patched to raise, the results are the same."""
    from qtensor.functions import LinearFnData, QuadraticFnData

    workloads = _workloads()
    texts = [open(os.path.join(ROOT, "nets", name)).read()
             for name in ("ghz.net", "five_qubit_encoder.net")]
    texts.append(workloads.circuit_net(6, workloads.brickwork_circuit(random.Random(7), 6, 4)))
    want = [repr(run_contract(parse(text)).group_part) for text in texts]
    # parsing builds the nodes, a stabilizer code's through the general
    # composition, so the specs are parsed before the patch
    specs = [parse(text) for text in texts]

    def general(*args):
        raise AssertionError("general composition on Z_k data")

    monkeypatch.setattr(QuadraticFnData, "precompose_affine", general)
    monkeypatch.setattr(LinearFnData, "compose_affine", general)
    assert [repr(run_contract(spec).group_part) for spec in specs] == want
