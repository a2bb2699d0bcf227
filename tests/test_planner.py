"""The greedy contraction planner keeps a heap of edge costs instead of
rescanning every remaining edge at each step; the edges it picks must be
the ones a full rescan picks, step by step."""

import glob
import os
import random
import sys

import pytest

from qtensor.engine import QTensorData
from qtensor.higher import OrderTensorData
from qtensor.net import NetTypeError, _GroupNet, _group_edges, parse, parse_file, run_contract

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# networks with a higher-order node are evaluated densely, with no planner
NETS = [p for p in sorted(glob.glob(os.path.join(ROOT, "nets", "*.net")))
        if not any(isinstance(n.payload, OrderTensorData) for n in parse_file(p).nodes)]


def _brickwork_texts():
    """The .net text of the seed-7 qubit brickworks of the benchmark."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rng = random.Random(7)
    return {f"brickwork_n{n}_d{d}": workloads.circuit_net(n, workloads.brickwork_circuit(rng, n, d))
            for n, d in workloads.QUBIT_SIZES}


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
