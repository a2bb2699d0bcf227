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

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .coeff import Hom2Coeff, HomCoeff, QuadCoeff
from .dense import DenseTensor, dense_contract, materialize
from .engine import QTensorData, ReduceReport, reduce_full, self_contract, tensor_product
from .fermion import (
    FermionTensorData,
    beam_splitter,
    fermion_contract,
    fermion_dense,
    fermion_identity,
    fermion_tensor_product,
    permute_modes,
)
from .functions import LinearFnData, QuadraticFnData
from .groups import GroupProduct, Zk, parse_group, parse_product
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


class NetSyntaxError(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


class NetTypeError(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


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


def _ident_eps(G: GroupProduct) -> LinearFnData:
    return LinearFnData.identity(G)


def _qudit_gate(name: str, k: int) -> Optional[QTensorData]:
    Gk = Zk(k)
    if name in ("I", "ID"):
        G = parse_product(f"Z{k},Z{k}")
        E = parse_product(f"Z{k}")
        eps = LinearFnData(E, G, G.identity(),
                           [[HomCoeff(Gk, Gk, 1)], [HomCoeff(Gk, Gk, 1)]])
        return QTensorData(G, E, eps, QuadraticFnData.zero(E))
    if name == "X":
        G = parse_product(f"Z{k},Z{k}")
        E = parse_product(f"Z{k}")
        eps = LinearFnData(E, G, G.element([1, 0]),
                           [[HomCoeff(Gk, Gk, 1)], [HomCoeff(Gk, Gk, 1)]])
        return QTensorData(G, E, eps, QuadraticFnData.zero(E))
    if name == "Z":
        G = parse_product(f"Z{k},Z{k}")
        E = parse_product(f"Z{k}")
        eps = LinearFnData(E, G, G.identity(),
                           [[HomCoeff(Gk, Gk, 1)], [HomCoeff(Gk, Gk, 1)]])
        q = QuadraticFnData.zero(E)
        from .coeff import linear_as_quad

        q.phi1[0] = linear_as_quad(HomCoeff(Gk, parse_group("T"), 1))
        return QTensorData(G, E, eps, q)
    if name in ("H", "F"):
        # Fourier transform: entries e^{2 pi i g g' / k} / sqrt(k)
        G = parse_product(f"Z{k},Z{k}")
        E = parse_product(f"Z{k},Z{k}")
        q = QuadraticFnData.zero(E)
        q.set_cell("phi", 0, 1, Hom2Coeff(Gk, Gk, parse_group("T"), 1))
        t = QTensorData(G, E, _ident_eps(G), q)
        t.mul_sqrt(Fraction(1, k))
        return t
    if name == "S" and k == 2:
        G = parse_product("Z2,Z2")
        E = parse_product("Z2")
        eps = LinearFnData(E, G, G.identity(),
                           [[HomCoeff(Gk, Gk, 1)], [HomCoeff(Gk, Gk, 1)]])
        q = QuadraticFnData.zero(E)
        q.phi1[0] = QuadCoeff(Gk, parse_group("T"), 1, 0)
        return QTensorData(G, E, eps, q)
    if name in ("KET0", "ZERO"):
        G = parse_product(f"Z{k}")
        E = GroupProduct()
        eps = LinearFnData(E, G, G.identity(), [[]])
        return QTensorData(G, E, eps, QuadraticFnData.zero(E))
    if name in ("PLUS", "KETPLUS"):
        G = parse_product(f"Z{k}")
        E = parse_product(f"Z{k}")
        t = QTensorData(G, E, _ident_eps(G), QuadraticFnData.zero(E))
        t.mul_sqrt(Fraction(1, k))
        return t
    return None


def _two_qudit_gate(name: str, k: int) -> Optional[QTensorData]:
    Gk = Zk(k)
    Tg = parse_group("T")
    if name == "CX":
        G = parse_product(",".join([f"Z{k}"] * 4))
        E = parse_product(f"Z{k},Z{k}")
        rows = [[1, 0], [0, 1], [1, 0], [1, 1]]
        cells = [[HomCoeff(E[j], G[i], rows[i][j]) for j in range(2)] for i in range(4)]
        eps = LinearFnData(E, G, G.identity(), cells)
        return QTensorData(G, E, eps, QuadraticFnData.zero(E))
    if name == "CZ":
        G = parse_product(",".join([f"Z{k}"] * 4))
        E = parse_product(f"Z{k},Z{k}")
        rows = [[1, 0], [0, 1], [1, 0], [0, 1]]
        cells = [[HomCoeff(E[j], G[i], rows[i][j]) for j in range(2)] for i in range(4)]
        eps = LinearFnData(E, G, G.identity(), cells)
        q = QuadraticFnData.zero(E)
        q.set_cell("phi", 0, 1, Hom2Coeff(Gk, Gk, Tg, 1))
        return QTensorData(G, E, eps, q)
    if name == "SWAP":
        G = parse_product(",".join([f"Z{k}"] * 4))
        E = parse_product(f"Z{k},Z{k}")
        rows = [[1, 0], [0, 1], [0, 1], [1, 0]]
        cells = [[HomCoeff(E[j], G[i], rows[i][j]) for j in range(2)] for i in range(4)]
        eps = LinearFnData(E, G, G.identity(), cells)
        return QTensorData(G, E, eps, QuadraticFnData.zero(E))
    return None


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
        return beam_splitter(float(args[0]))
    if uname == "FID":
        n = int(args[0]) if args else 1
        return fermion_identity(n)
    if uname in HIGHER_GATES:
        return HIGHER_GATES[uname]()
    if uname == "STAB":
        return stab_state(qubit_tableau([str(a) for a in args]))
    if uname == "BELL":
        return stab_state(qubit_tableau(["+XX", "+ZZ"]))
    ks = {s for s in wire_sigs if s != FERMION_WIRE}
    if len(ks) != 1 or not next(iter(ks)).startswith("Z") or next(iter(ks)) == "Z":
        raise NetTypeError(f"gate {name} needs uniform qudit wires, got {wire_sigs}", line)
    k = int(next(iter(ks))[1:])
    if len(wire_sigs) <= 2:
        t = _qudit_gate(uname, k)
        if t is not None:
            return t
    t = _two_qudit_gate(uname, k)
    if t is not None:
        return t
    raise NetSyntaxError(f"unknown gate {name} on wires {wire_sigs}", line)


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
        payload = jsonio.from_json(json.loads(body[:end]))
        legs_part = body[end:].strip()
        m = re.match(r"^\(([^()]*)\)$", legs_part)
        if not m:
            raise NetSyntaxError("expected (wire, ...) after JSON payload", lineno)
        legs = [w.strip() for w in m.group(1).split(",") if w.strip()]
        return Node(name, payload, legs, lineno)
    m = _CALL_RE.match(rhs)
    if not m:
        raise NetSyntaxError(f"cannot parse node expression {rhs!r}", lineno)
    gate = m.group(1)
    if m.group(2) is not None:
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        legs = [w.strip() for w in m.group(3).split(",") if w.strip()]
    else:
        args = []
        legs = [w.strip() for w in m.group(3).split(",") if w.strip()]
    sigs = []
    for w in legs:
        if w not in spec.wires:
            raise NetTypeError(f"unknown wire {w}", lineno)
        sigs.append(spec.wires[w])
    payload = build_gate(gate, args, sigs, lineno)
    return Node(name, payload, legs, lineno)


def parse_file(path: str) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


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
    spec.validate()
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
        res.group_part, report = _contract_group(spec, group_nodes, order)
        res.residual_z_rank = report.residual_z_rank
        res.div_weight = res.group_part.div_weight if res.group_part else 0
    if fermi_nodes:
        res.fermion_part = _contract_fermi(spec, fermi_nodes)
    return res


def _contract_group(spec: NetworkSpec, nodes: List[Node], order) -> Tuple[QTensorData, ReduceReport]:
    """Contract the group sector: user-specified wire order, else greedy
    pairwise merging that minimizes the intermediate embedding size."""
    users = spec.wire_users()
    edges = [w for w, us in users.items() if len(us) == 2
             and all(isinstance(spec.nodes[ni].payload, QTensorData) for ni, _ in us)]
    if order:
        missing = [w for w in edges if w not in order]
        edge_seq = [w for w in order if w in edges] + missing
    else:
        edge_seq = None
    # components: (tensor, legs) pairs merged as edges are consumed
    comps: List[Tuple[QTensorData, List[str]]] = [
        (node.payload, list(node.legs)) for node in nodes
    ]
    report = ReduceReport()

    def esize(t: QTensorData) -> int:
        n = 1
        for f in t.E:
            n *= f.k if f.kind == "Zk" else 4
        return n

    def contract_edge(w: str):
        holders = [ci for ci, (_, legs) in enumerate(comps) if w in legs]
        if len(holders) == 1:
            ci = holders[0]
            t, legs = comps[ci]
            pos = [i for i, lw in enumerate(legs) if lw == w]
            t = reduce_full(self_contract(t, pos[0], pos[1]), report)
            comps[ci] = (t, [lw for i, lw in enumerate(legs) if i not in pos])
        else:
            c1, c2 = holders
            t1, l1 = comps[c1]
            t2, l2 = comps[c2]
            t = tensor_product(t1, t2)
            legs = l1 + l2
            pos = [i for i, lw in enumerate(legs) if lw == w]
            t = reduce_full(self_contract(t, pos[0], pos[1]), report)
            legs = [lw for i, lw in enumerate(legs) if i not in pos]
            comps[c1] = (t, legs)
            del comps[c2]

    remaining = list(edges)
    while remaining:
        if edge_seq is not None:
            w = next(x for x in edge_seq if x in remaining)
        else:
            # greedy: smallest combined embedding size, ties by declaration
            def cost(w):
                holders = [ci for ci, (_, legs) in enumerate(comps) if w in legs]
                if len(holders) == 1:
                    return esize(comps[holders[0]][0])
                return esize(comps[holders[0]][0]) * esize(comps[holders[1]][0])

            w = min(remaining, key=lambda x: (cost(x), edges.index(x)))
        remaining.remove(w)
        contract_edge(w)
    big = comps[0][0]
    legs = [(None, w) for w in comps[0][1]]
    for t, ls in comps[1:]:
        big = tensor_product(big, t)
        legs += [(None, w) for w in ls]
    # order open legs
    opens = [w for w in spec.open_wires() if any(lw == w for _, lw in legs)]
    perm = []
    for w in opens:
        for i, (_, lw) in enumerate(legs):
            if lw == w:
                perm.append(i)
    if perm and perm != list(range(len(legs))) and not big.is_zero:
        G = GroupProduct([big.G[p] for p in perm])
        eps = LinearFnData(big.E, G, tuple(big.eps.eps0[p] for p in perm),
                           [big.eps.eps1[p] for p in perm])
        big = QTensorData(G, big.E, eps, big.q, big.div_weight, big.mag2)
    return big, report


def _contract_fermi(spec: NetworkSpec, nodes: List[Node]) -> FermionTensorData:
    big = nodes[0].payload
    legs = [(nodes[0].name, w) for w in nodes[0].legs]
    for node in nodes[1:]:
        big = fermion_tensor_product(big, node.payload)
        legs += [(node.name, w) for w in node.legs]
    users = spec.wire_users()
    pair_wires = [w for w, us in users.items() if len(us) == 2
                  and all(isinstance(spec.nodes[ni].payload, FermionTensorData)
                          for ni, _ in us)]
    open_pos = [i for i, (_, w) in enumerate(legs) if w not in pair_wires]
    upos = [min(i for i, (_, lw) in enumerate(legs) if lw == w) for w in pair_wires]
    vpos = [max(i for i, (_, lw) in enumerate(legs) if lw == w) for w in pair_wires]
    perm = open_pos + upos + vpos
    big = permute_modes(big, perm)
    if pair_wires:
        big = fermion_contract(big, len(pair_wires))
    # order the open modes per the open clause
    opens = [legs[i][1] for i in open_pos]
    want = [w for w in spec.open_wires() if w in opens]
    if want and want != opens:
        perm2 = [opens.index(w) for w in want]
        big = permute_modes(big, perm2)
    return big


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
        if total > 2 ** 22:
            raise NetTypeError("dense evaluation would exceed the size limit")
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


def verify_against_dense(spec: NetworkSpec, result: ContractionResult,
                         tol: float = 1e-9) -> Tuple[bool, float]:
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
        ok = ok and dev <= tol
    if result.fermion_part is not None:
        fermi_nodes = [n for n in spec.nodes if isinstance(n.payload, FermionTensorData)]
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
        ok = ok and dev <= 1e-8
    return ok, max(devs)
