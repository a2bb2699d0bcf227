"""Text format for tensor networks over mixed degrees of freedom, the
gate/state library, and network evaluation.

Grammar (line oriented, ``#`` comments, ``;`` also separates statements):

    wire <name>: <signature>        # Z2, Z3,Z3, R, T, Z, or F (fermion mode)
    node <name> = <gate>(<wire>, ...)
    node <name> = json <inline JSON> (<wire>, ...)
    open <wire>, <wire>, ...        # output order (default: declaration)

A wire attached to exactly two legs is contracted; attached to one leg it
is an open output index.  Fermionic and group wires never join.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .dense import DENSE_LIMIT, DenseTensor, TooLargeError, dense_contract, materialize
from .engine import (
    QTensorData,
    permute_legs,
    reduce_full,
    residual_z_rank,
    self_contract,
    tensor_product,
)
from .fermion import (
    FermionTensorData,
    beam_splitter,
    fermion_contract,
    fermion_dense,
    fermion_identity,
    fermion_tensor_product,
    permute_modes,
)
from .errors import InvalidInput
from .functions import LinearFnData, QuadraticFnData
from .groups import GroupProduct, T, Zk, parse_product
from .scalar import TOL
from .higher import (
    OrderTensorData,
    ccx_gate,
    ccz_gate,
    ch_gate,
    cs_gate,
    order_tensor_materialize,
    t_gate,
    t_state,
)
from . import jsonio
from .stab import qubit_tableau, stab_state


class NetSyntaxError(InvalidInput):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


class NetTypeError(InvalidInput):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


class NotUTF8(InvalidInput):
    """An input file whose bytes are not UTF-8 text."""


FERMION_WIRE = "F"


@dataclass
class Node:
    name: str
    payload: Union[QTensorData, FermionTensorData, OrderTensorData]
    legs: List[str]
    line: int = 0


@dataclass
class NetworkSpec:
    wires: Dict[str, str] = field(default_factory=dict)  # name -> signature
    nodes: List[Node] = field(default_factory=list)
    open_order: Optional[List[str]] = None
    source: str = ""

    def wire_users(self) -> Dict[str, List[Tuple[int, int]]]:
        users: Dict[str, List[Tuple[int, int]]] = {w: [] for w in self.wires}
        for ni, node in enumerate(self.nodes):
            for li, w in enumerate(node.legs):
                users[w].append((ni, li))
        return users

    def validate(self) -> None:
        users = self.wire_users()
        for w, us in users.items():
            if len(us) > 2:
                raise NetTypeError(f"wire {w} attached to {len(us)} legs")
        for node in self.nodes:
            sigs = _leg_signatures(node.payload)
            if len(sigs) != len(node.legs):
                raise NetTypeError(
                    f"node {node.name} has {len(sigs)} legs, {len(node.legs)} wires given",
                    node.line,
                )
            for sig, w in zip(sigs, node.legs):
                if w not in self.wires:
                    raise NetTypeError(f"unknown wire {w}", node.line)
                if self.wires[w] != sig:
                    raise NetTypeError(
                        f"wire {w}: {self.wires[w]} does not match leg {sig}",
                        node.line,
                    )
        if self.open_order is not None:
            opens = {w for w, us in users.items() if len(us) == 1}
            if set(self.open_order) != opens:
                raise NetTypeError(
                    f"open clause {self.open_order} does not list the open wires {sorted(opens)}"
                )

    def print_canonical(self) -> str:
        lines = []
        for w, sig in self.wires.items():
            lines.append(f"wire {w}: {sig}")
        for node in self.nodes:
            payload = json.dumps(jsonio.to_json(node.payload), sort_keys=True)
            lines.append(f"node {node.name} = json {payload} ({', '.join(node.legs)})")
        opens = self.open_wires()
        if opens:
            lines.append(f"open {', '.join(opens)}")
        return "\n".join(lines) + "\n"

    def open_wires(self) -> List[str]:
        if self.open_order is not None:
            return list(self.open_order)
        users = self.wire_users()
        return [w for w in self.wires if len(users[w]) == 1]


def _leg_signatures(payload) -> List[str]:
    if isinstance(payload, QTensorData):
        return [str(f) for f in payload.G]
    if isinstance(payload, FermionTensorData):
        return [FERMION_WIRE] * payload.n
    if isinstance(payload, OrderTensorData):
        return [str(f) for f in payload.G]
    raise TypeError(str(type(payload)))


# ---------------------------------------------------------------------------
# gate library


# The named Z_k gates: name -> (eps0, the image rows of eps1, the (v, b) of
# q_phi on factors of E, the bilinear values of q_phi on pairs of them, and
# whether the gate carries 1/sqrt(k)).  The legs are the rows and E the
# columns.  Phase values are in units of 1/k: Z is e^{2 pi i g / k}, S (a
# qubit gate) is i^g, and F = H is the Fourier transform
# e^{2 pi i g g' / k} / sqrt(k), whose E holds the two legs.
QUDIT_GATES = {
    "I": ((0, 0), ((1,), (1,)), {}, {}, False),
    "X": ((1, 0), ((1,), (1,)), {}, {}, False),
    "Z": ((0, 0), ((1,), (1,)), {0: (1, 0)}, {}, False),
    "S": ((0, 0), ((1,), (1,)), {0: (Fraction(1, 2), 1)}, {}, False),
    "F": ((0, 0), ((1, 0), (0, 1)), {}, {(0, 1): 1}, True),
    "KET0": ((0,), ((),), {}, {}, False),
    "PLUS": ((0,), ((1,),), {}, {}, True),
    "CX": ((0, 0, 0, 0), ((1, 0), (0, 1), (1, 0), (1, 1)), {}, {}, False),
    "CZ": ((0, 0, 0, 0), ((1, 0), (0, 1), (1, 0), (0, 1)), {}, {(0, 1): 1}, False),
    "SWAP": ((0, 0, 0, 0), ((1, 0), (0, 1), (0, 1), (1, 0)), {}, {}, False),
}
GATE_ALIASES = {"ID": "I", "H": "F", "ZERO": "KET0", "KETPLUS": "PLUS"}


def _qudit_gate(name: str, k: int, nwires: int) -> Optional[QTensorData]:
    """The named gate on Z_k wires; None if there is none with that name
    (a gate of one or two legs is looked up on at most two wires)."""
    gate = QUDIT_GATES.get(GATE_ALIASES.get(name, name))
    if gate is None or (name == "S" and k != 2):
        return None
    eps0, rows, terms, cells, fourier = gate
    if len(rows) <= 2 < nwires:
        return None
    Gk = Zk(k)
    G, E = GroupProduct([Gk] * len(rows)), GroupProduct([Gk] * len(rows[0]))
    eps = LinearFnData.of_images(E, G, G.element(eps0),
                                 [[Gk.normalize(x) for x in row] for row in rows])
    q = QuadraticFnData.zero(E)
    for i, (v, b) in terms.items():
        q.vec["phi"][i] = T.normalize(Fraction(v, k))
        q.mat["phi"][i][i] = T.normalize(Fraction(b, k))
    for (i, j), b in cells.items():
        q.add_to_cell("phi", i, j, Fraction(b, k))
    t = QTensorData(G, E, eps, q)
    if fourier:
        t.mul_sqrt(Fraction(1, k))
    return t


HIGHER_GATES = {
    "T": t_gate,
    "TSTATE": t_state,
    "CS": cs_gate,
    "CCZ": ccz_gate,
    "CCX": ccx_gate,
    "TOFFOLI": ccx_gate,
    "CH": ch_gate,
}


def build_gate(name: str, args: List, wire_sigs: List[str], line=0):
    uname = name.upper()
    if uname == "FBS":
        if len(args) != 1:
            raise NetSyntaxError("fbs takes one angle argument", line)
        return beam_splitter(_gate_arg(args[0], float, math.isfinite, line))
    if uname == "FID":
        if len(args) > 1:
            raise NetSyntaxError("fid takes at most one mode count", line)
        return fermion_identity(_gate_arg(args[0], int, lambda n: n >= 0, line) if args else 1)
    if uname in HIGHER_GATES:
        return HIGHER_GATES[uname]()
    if uname == "STAB":
        return stab_state(qubit_tableau([str(a) for a in args]))
    if uname == "BELL":
        return stab_state(qubit_tableau(["+XX", "+ZZ"]))
    ks = {s for s in wire_sigs if s != FERMION_WIRE}
    G = parse_product(ks.pop()) if len(ks) == 1 else None
    if G is None or len(G) != 1 or G[0].kind != "Zk":
        raise NetTypeError(f"gate {name} needs uniform qudit wires, got {wire_sigs}", line)
    t = _qudit_gate(uname, G[0].k, len(wire_sigs))
    if t is None:
        raise NetSyntaxError(f"unknown gate {name} on wires {wire_sigs}", line)
    return t


def _gate_arg(arg: str, convert, valid, line):
    """The gate argument ``arg`` converted, which must be ``valid``."""
    try:
        x = convert(arg)
    except ValueError:
        x = None
    if x is None or not valid(x):
        raise NetSyntaxError(f"bad gate argument {arg!r}", line)
    return x


# ---------------------------------------------------------------------------
# parser


_WIRE_RE = re.compile(r"^wire\s+(\w+)\s*:\s*([\w,/]+)$")
_NODE_RE = re.compile(r"^node\s+(\w+)\s*=\s*(.+)$")
_CALL_RE = re.compile(r"^(\w+)\s*(?:\(([^()]*)\))?\s*\(([^()]*)\)$")
_BARE_RE = re.compile(r"^(\w+)\s*\(([^()]*)\)$")
_OPEN_RE = re.compile(r"^open\s+(.+)$")


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for stmt in raw.split(";"):
            stmt = stmt.split("#", 1)[0].strip()
            if stmt:
                yield lineno, stmt


def parse(text: str) -> NetworkSpec:
    spec = NetworkSpec(source=text)
    # first pass: wire declarations (order-independent)
    for lineno, stmt in _statements(text):
        m = _WIRE_RE.match(stmt)
        if m:
            name, sig = m.group(1), m.group(2)
            if name in spec.wires:
                raise NetSyntaxError(f"duplicate wire {name}", lineno)
            if sig != FERMION_WIRE:
                parse_product(sig)  # validates
            spec.wires[name] = sig
    for lineno, stmt in _statements(text):
        if _WIRE_RE.match(stmt):
            continue
        m = _NODE_RE.match(stmt)
        if m:
            name, rhs = m.group(1), m.group(2).strip()
            spec.nodes.append(_parse_node(name, rhs, spec, lineno))
            continue
        m = _OPEN_RE.match(stmt)
        if m:
            spec.open_order = [w.strip() for w in m.group(1).split(",") if w.strip()]
            continue
        raise NetSyntaxError(f"cannot parse statement {stmt!r}", lineno)
    spec.validate()
    return spec


def _parse_node(name: str, rhs: str, spec: NetworkSpec, lineno: int) -> Node:
    if rhs.startswith("json"):
        body = rhs[len("json"):].strip()
        depth = 0
        end = None
        for i, ch in enumerate(body):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    break
        if end is None:
            raise NetSyntaxError("unterminated JSON payload", lineno)
        payload = jsonio.loads(body[:end], (QTensorData, FermionTensorData),
                               "a qtensor or fermion tensor")
        legs_part = body[end:].strip()
        m = re.match(r"^\(([^()]*)\)$", legs_part)
        if not m:
            raise NetSyntaxError("expected (wire, ...) after JSON payload", lineno)
        return Node(name, payload, wire_list(m.group(1), spec, lineno), lineno)
    m = _CALL_RE.match(rhs)
    if not m:
        raise NetSyntaxError(f"cannot parse node expression {rhs!r}", lineno)
    gate = m.group(1)
    args = [a.strip() for a in m.group(2).split(",") if a.strip()] if m.group(2) is not None else []
    legs = wire_list(m.group(3), spec, lineno)
    payload = build_gate(gate, args, [spec.wires[w] for w in legs], lineno)
    return Node(name, payload, legs, lineno)


def wire_list(text: str, spec: NetworkSpec, lineno=None) -> List[str]:
    """The wires that the comma-separated ``text`` lists, each declared in ``spec``."""
    wires = [w.strip() for w in text.split(",") if w.strip()]
    for w in wires:
        if w not in spec.wires:
            raise NetTypeError(f"unknown wire {w}", lineno)
    return wires


def _read_utf8(path: str) -> str:
    """The text of the file at ``path``, which must be UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUTF8(f"{path} is not UTF-8: byte {exc.start} is {data[exc.start]:#04x}") from None


def parse_file(path: str) -> NetworkSpec:
    return parse(_read_utf8(path))


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class ContractionResult:
    group_part: Optional[QTensorData] = None
    fermion_part: Optional[FermionTensorData] = None
    dense_part: Optional[DenseTensor] = None
    open_wires: List[str] = field(default_factory=list)
    residual_z_rank: int = 0
    div_weight: int = 0


def run_contract(spec: NetworkSpec, order: Optional[List[str]] = None) -> ContractionResult:
    """Contract ``spec``; ``order`` lists wires between two group nodes to
    contract first, in that order (repeats are skipped)."""
    spec.validate()
    if order:
        edges = set(_group_edges(spec))
        for w in order:
            if w not in edges:
                raise NetTypeError(f"contraction order: {w} is not a wire between two group nodes")
    users = spec.wire_users()
    group_nodes = [n for n in spec.nodes if isinstance(n.payload, QTensorData)]
    fermi_nodes = [n for n in spec.nodes if isinstance(n.payload, FermionTensorData)]
    higher_nodes = [n for n in spec.nodes if isinstance(n.payload, OrderTensorData)]
    for w, us in users.items():
        if len(us) == 2:
            kinds = {isinstance(spec.nodes[ni].payload, FermionTensorData) for ni, _ in us}
            if len(kinds) == 2:
                raise NetTypeError(f"wire {w} joins fermionic and group legs")
    res = ContractionResult(open_wires=spec.open_wires())
    if higher_nodes:
        res.dense_part = _dense_evaluate(spec, [n for n in spec.nodes
                                                if not isinstance(n.payload, FermionTensorData)])
        if fermi_nodes:
            res.fermion_part = _contract_fermi(spec, fermi_nodes)
        return res
    if group_nodes:
        res.group_part = _contract_group(spec, group_nodes, order)
        res.residual_z_rank = residual_z_rank(res.group_part)
        res.div_weight = res.group_part.div_weight if res.group_part else 0
    if fermi_nodes:
        res.fermion_part = _contract_fermi(spec, fermi_nodes)
    return res


def _group_edges(spec: NetworkSpec) -> List[str]:
    """The wires joining two legs of group nodes, in declaration order."""
    return [w for w, us in spec.wire_users().items() if len(us) == 2
            and all(isinstance(spec.nodes[ni].payload, QTensorData) for ni, _ in us)]


def _esize(t: QTensorData) -> int:
    n = 1
    for f in t.E:
        n *= f.k if f.kind == "Zk" else 4
    return n


class _GroupNet:
    """The group sector of a network while its edges are contracted.

    Components are (tensor, legs) pairs merged as edges are consumed, keyed
    by the index of their first node so that they keep the node order;
    ``holders`` maps each wire to the components holding it.  The greedy
    planner contracts the edge of smallest combined embedding size first,
    ties broken by declaration.  It keeps a heap of (cost, rank, wire)
    entries: a contraction changes the cost only of the edges on the
    merged component, which are pushed again, and an entry whose cost is
    no longer current is skipped when it is popped.
    """

    def __init__(self, nodes: List[Node], edges: List[str]):
        self.comps: Dict[int, Tuple[QTensorData, List[str]]] = {
            ci: (node.payload, list(node.legs)) for ci, node in enumerate(nodes)
        }
        # wire -> the components holding it, in component order
        self.holders: Dict[str, List[int]] = {}
        for ci, (_, legs) in self.comps.items():
            for w in legs:
                if ci not in self.holders.setdefault(w, []):
                    self.holders[w].append(ci)
        self.sizes = {ci: _esize(t) for ci, (t, _) in self.comps.items()}
        self.rank = {w: n for n, w in enumerate(edges)}
        self.remaining = set(edges)
        self.heap = [self.cost(w) + (w,) for w in edges]
        heapq.heapify(self.heap)

    def cost(self, w: str) -> Tuple[int, int]:
        n = 1
        for ci in self.holders[w]:
            n *= self.sizes[ci]
        return n, self.rank[w]

    def cheapest(self) -> str:
        """The remaining edge of least cost."""
        while True:
            n, r, w = heapq.heappop(self.heap)
            if w in self.remaining and self.cost(w) == (n, r):
                return w

    def contract(self, w: str) -> None:
        self.remaining.remove(w)
        hs = self.holders.pop(w)
        if len(hs) == 1:
            ci = hs[0]
            t, legs = self.comps[ci]
        else:
            ci, c2 = hs
            t1, l1 = self.comps[ci]
            t2, l2 = self.comps.pop(c2)
            t = tensor_product(t1, t2)
            legs = l1 + l2
            del self.sizes[c2]
            for lw in set(l2):
                if lw != w:
                    hl = self.holders[lw]
                    hl.remove(c2)
                    if ci not in hl:
                        hl.append(ci)
                        hl.sort()
        pos = [i for i, lw in enumerate(legs) if lw == w]
        t = reduce_full(self_contract(t, pos[0], pos[1]))
        legs = [lw for i, lw in enumerate(legs) if i not in pos]
        self.comps[ci] = (t, legs)
        self.sizes[ci] = _esize(t)
        for lw in set(legs):
            if lw in self.remaining:
                heapq.heappush(self.heap, self.cost(lw) + (lw,))


def _contract_group(spec: NetworkSpec, nodes: List[Node], order) -> QTensorData:
    """Contract the group sector: user-specified wire order, else greedy
    pairwise merging that minimizes the intermediate embedding size."""
    edges = _group_edges(spec)
    net = _GroupNet(nodes, edges)
    if order:
        # the listed edges first, then the others in declaration order
        listed = set(order)
        seq = iter(list(order) + [w for w in edges if w not in listed])
    while net.remaining:
        # a wire passed over in seq is never remaining again, so seq is read once
        w = next(x for x in seq if x in net.remaining) if order else net.cheapest()
        net.contract(w)
    comps = net.comps
    parts = list(comps.values())
    big = parts[0][0]
    legs = [(None, w) for w in parts[0][1]]
    for t, ls in parts[1:]:
        big = tensor_product(big, t)
        legs += [(None, w) for w in ls]
    # order open legs
    opens = [w for w in spec.open_wires() if any(lw == w for _, lw in legs)]
    perm = []
    for w in opens:
        for i, (_, lw) in enumerate(legs):
            if lw == w:
                perm.append(i)
    if perm and perm != list(range(len(legs))):
        big = permute_legs(big, perm)
    return big


def _contract_fermi(spec: NetworkSpec, nodes: List[Node]) -> FermionTensorData:
    """Absorb the fermion nodes one at a time, in declaration order.

    Each step takes the tensor product with the next node, then contracts
    every wire whose two ends are now both held (a self-loop included) with
    one Schur complement.  A wire's first-declared end is its outgoing one
    (u), the second its ingoing one (v), as in the dense oracle.  The held
    tensor keeps only the open modes seen so far and the frontier.
    """
    big = None
    legs: List[str] = []
    for node in nodes:
        big = node.payload if big is None else fermion_tensor_product(big, node.payload)
        legs += node.legs
        joined = [w for w in dict.fromkeys(node.legs) if legs.count(w) == 2]
        if joined:
            keep = [i for i, w in enumerate(legs) if w not in joined]
            upos = [legs.index(w) for w in joined]
            vpos = [len(legs) - 1 - legs[::-1].index(w) for w in joined]
            big = fermion_contract(permute_modes(big, keep + upos + vpos), len(joined))
            legs = [legs[i] for i in keep]
    # order the open modes per the open clause
    return permute_modes(big, [legs.index(w) for w in spec.open_wires() if w in legs])


def _dense_evaluate(spec: NetworkSpec, nodes: List[Node]) -> DenseTensor:
    denses = []
    total = 1
    for node in nodes:
        if isinstance(node.payload, QTensorData):
            denses.append(materialize(reduce_full(node.payload)))
        elif isinstance(node.payload, OrderTensorData):
            denses.append(order_tensor_materialize(node.payload))
        else:
            raise NetTypeError("fermionic nodes cannot join a dense evaluation")
        total *= int(np.prod(denses[-1].dims, initial=1))
        if total > DENSE_LIMIT:
            raise TooLargeError("dense evaluation would exceed the size limit")
    pairs, open_order = _dense_wiring(spec, nodes)
    return dense_contract(denses, pairs, open_order)


def _dense_wiring(spec: NetworkSpec, nodes: List[Node]):
    """Dense-oracle wiring of a sub-network: (node, leg, node, leg) pairs for
    the wires with both ends among ``nodes``, and the open (node, leg) slots
    among ``nodes`` in output order.  Positions index into ``nodes``."""
    users = spec.wire_users()
    pos = {id(node): i for i, node in enumerate(nodes)}
    pairs = []
    for us in users.values():
        if len(us) == 2 and all(id(spec.nodes[ni]) in pos for ni, _ in us):
            (n1, l1), (n2, l2) = us
            pairs.append((pos[id(spec.nodes[n1])], l1, pos[id(spec.nodes[n2])], l2))
    open_order = [(pos[id(spec.nodes[ni])], li) for w in spec.open_wires()
                  for ni, li in users[w]
                  if len(users[w]) == 1 and id(spec.nodes[ni]) in pos]
    return pairs, open_order


def verify_against_dense(spec: NetworkSpec, result: ContractionResult) -> Tuple[bool, float]:
    """Cross-check a coefficient-level contraction against the dense oracle."""
    devs = [0.0]
    ok = True
    if result.group_part is not None:
        group_nodes = [n for n in spec.nodes if isinstance(n.payload, QTensorData)]
        want = _dense_evaluate(spec, group_nodes)
        got = materialize(result.group_part)
        # open wires of the group sector in result order
        dev = float(np.max(np.abs(want.arr - got.arr))) if got.arr.size else abs(
            complex(want.arr) - complex(got.arr)
        )
        devs.append(dev)
        ok = ok and dev <= TOL
    if result.fermion_part is not None:
        fermi_nodes = [n for n in spec.nodes if isinstance(n.payload, FermionTensorData)]
        if 2 ** sum(node.payload.n for node in fermi_nodes) > DENSE_LIMIT:
            raise TooLargeError("dense evaluation would exceed the size limit")
        denses = [fermion_dense(node.payload, [False] * node.payload.n)
                  for node in fermi_nodes]
        pairs, open_order = _dense_wiring(spec, fermi_nodes)
        # orientation: first occurrence outgoing, second ingoing
        for (t1, a1, t2, a2) in pairs:
            denses[t1].outgoing[a1] = True
        want = dense_contract(denses, pairs, open_order)
        got = fermion_dense(result.fermion_part)
        dev = float(np.max(np.abs(want.arr - got.arr))) if got.arr.size else 0.0
        devs.append(dev)
        # the graded oracle's own bound, looser than TOL: an absolute bound
        # on float Pfaffian entries of unbounded scale (the suite and nets/
        # deviate by at most about 1e-13)
        ok = ok and dev <= 1e-8
    return ok, max(devs)
