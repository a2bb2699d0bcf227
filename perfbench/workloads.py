"""The four seeded instance families, the two workloads made of them,
the timed operations and the checks of their outputs.

Every instance has ``run()``, the timed call into qtensor, and
``check(out)``, which raises ``CheckFailed`` when the output disagrees
with the reference in ``refs``.  Instance generation happens before the
first timed call and depends only on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import refs
from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff
from qtensor.engine import QTensorData
from qtensor.fermion import fermion_entry
from qtensor.functions import LinearFnData, QuadraticFnData
from qtensor.groups import GroupProduct, T, Zk
from qtensor.net import Node, NetworkSpec, build_gate, parse, run_contract
from qtensor.stab import (clifford_to_tensor, gaussian_clifford, qubit_tableau,
                          stab_projector, stab_state)


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def z2_amplitudes(t: QTensorData) -> np.ndarray:
    """All entries of a tensor over Z2 factors, evaluated with numpy from
    its coefficients (E, eps, q, mag2) without qtensor's own evaluator.

    On Z2, e_i^2 = e_i removes the h1 terms, so the phase in turns is
    phi0 + sum_i h2_i e_i / 4 + sum_{i<j} v_ij e_i e_j / 2; a point e lands
    on g = eps0 + eps1 e mod 2 with magnitude sqrt(mag2).
    """
    n, r = len(t.G), len(t.E)
    require(all(f.kind == "Zk" and f.k == 2 for f in list(t.G) + list(t.E)),
            "expected Z2 factors only")
    require(isinstance(t.mag2, Fraction), "mag2 is not exact")
    require(not t.q.a2 and all(c.is_zero() for c in t.q.a1), "nonconstant magnitude")
    e = np.array(list(itertools.product((0, 1), repeat=r)), dtype=np.int64)
    e = e.reshape(2 ** r, r)
    eps1 = np.array([[int(c.value) for c in row] for row in t.eps.eps1], dtype=np.int64)
    eps0 = np.array([int(v) for v in t.eps.eps0], dtype=np.int64)
    g = (e @ eps1.reshape(n, r).T + eps0) % 2
    h2 = np.array([float(c.h2) for c in t.q.phi1]).reshape(r)
    phase = float(t.q.phi0) + e @ h2 / 4
    for (i, j), c in t.q.phi2.items():
        phase = phase + float(c.value) * e[:, i] * e[:, j] / 2
    out = np.zeros(2 ** n, dtype=complex)
    flat = g @ (2 ** np.arange(n - 1, -1, -1)) if n else np.zeros(len(e), dtype=np.int64)
    np.add.at(out, flat, math.sqrt(t.mag2) * np.exp(2j * math.pi * phase))
    return out.reshape((2,) * n)


class Instance:
    def __init__(self, name: str, run: Callable, check: Callable):
        self.name = name
        self.run = run
        self.check = check
        self.largest = False  # set by the workload that holds the instance


# ---------------------------------------------------------------------------
# qubit_circuits

# (width, depth).  Odd depths end
# on a CX layer; at a fixed skeleton their cost moves least with the seed.
QUBIT_SIZES = [(4, 3), (4, 5), (6, 3), (8, 3), (10, 3), (12, 3)]


def brickwork_circuit(rng: random.Random, n: int, depth: int) -> List[Tuple]:
    """H on every qubit, then S or S^3 (exactly half of the qubits get S^3,
    chosen by the seed), then a brickwork layer: CX on even layers, CZ on
    odd layers."""
    gates: List[Tuple] = []
    for layer in range(depth):
        qs = list(range(n))
        rng.shuffle(qs)
        cubed = set(qs[: n // 2])
        for q in range(n):
            gates.append(("H", q))
            gates += [("S", q)] * (3 if q in cubed else 1)
        kind = "CX" if layer % 2 == 0 else "CZ"
        for i in range(layer % 2, n - 1, 2):
            gates.append((kind, i, i + 1))
    return gates


def circuit_net(n: int, gates: Sequence[Tuple]) -> str:
    """The circuit on |0...0> as .net text with all outputs open."""
    ver = [0] * n
    lines = [f"wire w{q}_0: Z2" for q in range(n)]
    lines += [f"node k{q} = ket0(w{q}_0)" for q in range(n)]
    for gi, g in enumerate(gates):
        qs = g[1:]
        ins = [f"w{q}_{ver[q]}" for q in qs]
        for q in qs:
            ver[q] += 1
            lines.append(f"wire w{q}_{ver[q]}: Z2")
        outs = [f"w{q}_{ver[q]}" for q in qs]
        lines.append(f"node g{gi} = {g[0]}({', '.join(ins + outs)})")
    lines.append("open " + ", ".join(f"w{q}_{ver[q]}" for q in range(n)))
    return "\n".join(lines) + "\n"


def check_statevector(res, want: np.ndarray) -> None:
    gp = res.group_part
    require(gp is not None and not gp.is_zero, "empty result")
    got = z2_amplitudes(gp)
    require(got.shape == want.shape, f"shape {got.shape}")
    dev = float(np.max(np.abs(got - want)))
    require(dev <= 1e-9, f"statevector deviation {dev:.2e}")


def qubit_circuits(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for n, depth in QUBIT_SIZES:
        gates = brickwork_circuit(rng, n, depth)
        text = circuit_net(n, gates)
        want = refs.simulate(n, gates)

        def run(text=text):
            return run_contract(parse(text))

        out.append(Instance(f"n{n}_d{depth}", run,
                            lambda res, want=want: check_statevector(res, want)))
    return out


# ---------------------------------------------------------------------------
# qudit_mirror


def _units(d: int) -> List[int]:
    return [u for u in range(1, d) if math.gcd(u, d) == 1]


def phase_gate(d: int, h2: int) -> QTensorData:
    """diag omega^(h2 g^2 / 2) on Z_d."""
    G = GroupProduct([Zk(d), Zk(d)])
    E = GroupProduct([Zk(d)])
    eps = LinearFnData(E, G, G.identity(), [[HomCoeff(Zk(d), Zk(d), 1)]] * 2)
    q = QuadraticFnData.zero(E)
    q.phi1[0] = QuadCoeff(Zk(d), T, h2, 0)
    return QTensorData(G, E, eps, q)


def cx_power(dc: int, dt: int, c: int) -> QTensorData:
    """|a, b> -> |a, b + c a> with control Z_dc and target Z_dt (dt | dc)."""
    G = GroupProduct([Zk(dc), Zk(dt), Zk(dc), Zk(dt)])
    E = GroupProduct([Zk(dc), Zk(dt)])
    rows = [[1, 0], [0, 1], [1, 0], [c, 1]]
    cells = [[HomCoeff(E[j], G[i], rows[i][j]) for j in range(2)] for i in range(4)]
    return QTensorData(G, E, LinearFnData(E, G, G.identity(), cells), QuadraticFnData.zero(E))


def cz_power(d: int, c: int) -> QTensorData:
    """|a, b> -> omega^(c a b) |a, b> on two Z_d registers."""
    G = GroupProduct([Zk(d)] * 4)
    E = GroupProduct([Zk(d), Zk(d)])
    rows = [[1, 0], [0, 1], [1, 0], [0, 1]]
    cells = [[HomCoeff(E[j], G[i], rows[i][j]) for j in range(2)] for i in range(4)]
    q = QuadraticFnData.zero(E)
    q.set_cell("phi", 0, 1, Hom2Coeff(Zk(d), Zk(d), T, c))
    return QTensorData(G, E, LinearFnData(E, G, G.identity(), cells), q)


class NetBuilder:
    """Wires and nodes of a circuit on qudit registers of given dimensions."""

    def __init__(self, dims: Sequence[int]):
        self.dims = list(dims)
        self.spec = NetworkSpec()
        self.cur: List[str] = []
        for q, d in enumerate(dims):
            w = self._wire(q)
            self.spec.nodes.append(Node(f"k{q}", build_gate("ket0", [], [f"Z{d}"]), [w]))
            self.cur.append(w)

    def _wire(self, q: int) -> str:
        w = f"w{len(self.spec.wires)}"
        self.spec.wires[w] = f"Z{self.dims[q]}"
        return w

    def gate(self, payload: QTensorData, qs: Sequence[int]) -> None:
        ins = [self.cur[q] for q in qs]
        outs = [self._wire(q) for q in qs]
        for q, w in zip(qs, outs):
            self.cur[q] = w
        self.spec.nodes.append(Node(f"g{len(self.spec.nodes)}", payload, ins + outs))

    def finish(self) -> NetworkSpec:
        self.spec.open_order = list(self.cur)
        self.spec.validate()
        return self.spec


def mirror_ops(rng: random.Random, dims: Sequence[int], depth: int,
               couplings: Sequence[Tuple[int, int]]) -> List[Tuple]:
    """Gate list of C: per layer an F P F run on every register, then CX^c
    (even layers) or CZ^c (odd layers, equal dimensions only) on every
    coupling.  Coefficients are units drawn from the seed."""
    ops: List[Tuple] = []
    for layer in range(depth):
        for q, d in enumerate(dims):
            h2 = rng.choice(_units(2 * d if d % 2 == 0 else d))
            ops += [("F", q), ("P", q, h2), ("F", q)]
        for a, b in couplings:
            dt = dims[b]
            c = rng.choice(_units(dt))
            if layer % 2 == 1 and dims[a] == dt:
                ops.append(("CZ", a, b, c))
            else:
                ops.append(("CX", a, b, c))
    return ops


def inverse_ops(ops: Sequence[Tuple]) -> List[Tuple]:
    """C^-1 from C: reversed order, F^-1 as F F F, negated coefficients."""
    inv: List[Tuple] = []
    for op in reversed(ops):
        if op[0] == "F":
            inv += [op] * 3
        elif op[0] == "P":
            inv.append(("P", op[1], -op[2]))
        else:
            inv.append((op[0], op[1], op[2], -op[3]))
    return inv


def mirror_spec(dims: Sequence[int], ops: Sequence[Tuple]) -> NetworkSpec:
    b = NetBuilder(dims)
    for op in ops:
        if op[0] == "F":
            d = dims[op[1]]
            b.gate(build_gate("F", [], [f"Z{d}"] * 2), [op[1]])
        elif op[0] == "P":
            b.gate(phase_gate(dims[op[1]], op[2]), [op[1]])
        elif op[0] == "CX":
            b.gate(cx_power(dims[op[1]], dims[op[2]], op[3]), [op[1], op[2]])
        else:
            b.gate(cz_power(dims[op[1]], op[3]), [op[1], op[2]])
    return b.finish()


# (register dimensions, depth, couplings (control, target)).  The mixed
# network couples Z6 and Z9 controls to Z3 targets, the directions in
# which CX is a homomorphism.
QUDIT_CASES = [
    ((3, 3), 2, [(0, 1)]),
    ((4, 4), 2, [(0, 1)]),
    ((6, 6), 2, [(0, 1)]),
    ((9, 9), 2, [(0, 1)]),
    ((6, 3, 9, 3), 1, [(0, 1), (2, 3)]),
]
# The costliest instance: two uncoupled Z_101 registers whose phase gates
# have opposite coefficients.  quad_fit searches the coefficient group in
# order, so its cost for one register depends on the drawn coefficient by
# up to 3x, while the cost of the pair (v, -v) stays within a few percent.
PRIME = 101


def check_identity(res, n: int) -> None:
    """The mirror C C^-1 |0...0> must come back as exactly |0...0>."""
    gp = res.group_part
    require(gp is not None and not gp.is_zero, "empty result")
    require(len(gp.G) == n, "wrong number of outputs")
    require(len(gp.E) == 0, f"E is {gp.E.signature()}, not trivial")
    require(all(v == 0 for v in gp.eps.eps0), f"eps0 = {gp.eps.eps0}")
    require(gp.mag2 == 1, f"mag2 = {gp.mag2}")
    require(isinstance(gp.q.phi0, (int, Fraction)) and gp.q.phi0 == 0,
            f"phase = {gp.q.phi0!r}")


def _mirror_instance(name: str, dims: Sequence[int], ops: List[Tuple]) -> Instance:
    spec = mirror_spec(dims, ops + inverse_ops(ops))
    return Instance(name, lambda: run_contract(spec),
                    lambda res: check_identity(res, len(dims)))


def qudit_mirror(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = [_mirror_instance("x".join(map(str, dims)) + f"_d{depth}", dims,
                            mirror_ops(rng, dims, depth, couplings))
           for dims, depth, couplings in QUDIT_CASES]
    v = rng.choice(_units(PRIME))
    ops = [("F", 0), ("P", 0, v), ("F", 0), ("F", 1), ("P", 1, -v), ("F", 1)]
    out.append(_mirror_instance(f"{PRIME}x{PRIME}_pair", (PRIME, PRIME), ops))
    return out


# ---------------------------------------------------------------------------
# stabilizer_states

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZZZZ"]
STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "ZZZZZZZ"]


def _basis_gens(bits: Sequence[int]) -> List[str]:
    n = len(bits)
    return [("-" if b else "+") + "I" * i + "Z" + "I" * (n - i - 1) for i, b in enumerate(bits)]


def check_stab_state(st: QTensorData, gens: Sequence[str]) -> None:
    """Equal to the reference state up to a global phase, and fixed by
    every signed generator."""
    n = len(gens)
    psi = z2_amplitudes(st).reshape(-1)
    require(psi.size == 2 ** n, f"{psi.size} entries")
    require(abs(np.linalg.norm(psi) - 1) <= 1e-9, "state is not unit")
    require(abs(refs.overlap_up_to_phase(psi, refs.code_state(gens)) - 1) <= 1e-9,
            "state differs from the reference beyond a global phase")
    for g in gens:
        require(np.max(np.abs(refs.pauli_matrix(g) @ psi - psi)) <= 1e-9,
                f"{g} does not fix the state")


def check_projector(pt: QTensorData, gens: Sequence[str]) -> None:
    """P^2 = P, tr P = 2^(n-m) and P g = P for every signed generator."""
    n, m = len(gens[0]) - 1, len(gens)
    p = z2_amplitudes(pt).reshape(2 ** n, -1)
    require(p.shape == (2 ** n, 2 ** n), f"shape {p.shape}")
    require(np.max(np.abs(p @ p - p)) <= 1e-9, "P^2 != P")
    require(abs(np.trace(p) - 2 ** (n - m)) <= 1e-9, "tr P != 2^(n-m)")
    for g in gens:
        require(np.max(np.abs(p @ refs.pauli_matrix(g) - p)) <= 1e-9, f"P {g} != P")


def _state_instance(name: str, gens: List[str]) -> Instance:
    tab = qubit_tableau(gens)
    return Instance(name, lambda: stab_state(tab), lambda st: check_stab_state(st, gens))


def _projector_instance(name: str, gens: List[str]) -> Instance:
    tab = qubit_tableau(gens)
    return Instance(name, lambda: stab_projector(tab), lambda pt: check_projector(pt, gens))


def _z_twist(rng: random.Random, gens: Sequence[str]) -> List[str]:
    """Generators of Z^a |psi> for a random bit string a: the sign of g
    flips where its X part meets a an odd number of times.

    Z^a only changes phases, so the support of the state, and with it where
    stab_state's basis-ket enumeration stops, is the same for every a.
    """
    a = [rng.randrange(2) for _ in range(len(gens[0]) - 1)]
    out = []
    for g in gens:
        flip = sum(bit for bit, c in zip(a, g[1:]) if c in "XY") % 2
        out.append(("-" if (g[0] == "-") != bool(flip) else "+") + g[1:])
    return out


def _random_group(rng: random.Random, n: int, m: int, structure: int) -> List[str]:
    """m generators of a random n-qubit stabilizer state, signs drawn by a
    Z twist.  The group itself comes from the fixed generator seed
    ``structure``, so its cost does not depend on the run seed."""
    gates = refs.random_clifford_gates(random.Random(structure), n, 6 * n)
    return _z_twist(rng, refs.stabilizers_of(n, gates))[:m]


def stabilizer_states(seed: int) -> List[Instance]:
    """stab_state stops its basis-ket enumeration at the first ket in the
    support, so signs that move the support would move its cost.  Signs
    are drawn as Z twists, which keep the support; basis states come as
    the pair x and not-x, whose enumerations stop at x and 2^n - 1 - x."""
    rng = random.Random(seed)
    bits = [rng.randrange(2) for _ in range(5)]
    plus = ["+" + b for b in FIVE_QUBIT]
    steane = _z_twist(rng, ["+" + b for b in STEANE])
    return [
        _state_instance("basis5", _basis_gens(bits)),
        _state_instance("basis5_not", _basis_gens([1 - b for b in bits])),
        _state_instance("random5", _random_group(rng, 5, 5, 5)),
        _state_instance("random6", _random_group(rng, 6, 6, 6)),
        _projector_instance("random7_proj4", _random_group(rng, 7, 4, 7)),
        _projector_instance("random9_proj4", _random_group(rng, 9, 4, 9)),
        _state_instance("five_qubit", _z_twist(rng, plus)),
        _projector_instance("five_qubit_proj", _z_twist(rng, plus[:4])),
        _projector_instance("steane_proj", steane[:6]),
        _state_instance("steane", steane),
    ]


# ---------------------------------------------------------------------------
# free_modes

FERMION_MODES = [8, 12, 16]
GAUSSIAN_CHAINS = [4, 5, 6] * 8


def fermion_brickwork(rng: random.Random, n: int) -> List[Tuple[int, float]]:
    """n layers of beam splitters on (i, i+1), alternating offsets."""
    return [(i, rng.uniform(-math.pi, math.pi))
            for layer in range(n) for i in range(layer % 2, n - 1, 2)]


def fermion_spec(n: int, gates: Sequence[Tuple[int, float]]) -> str:
    ver = [0] * n
    lines = [f"wire f{i}_0: F" for i in range(n)]
    for gi, (i, theta) in enumerate(gates):
        ins = [f"f{i}_{ver[i]}", f"f{i + 1}_{ver[i + 1]}"]
        ver[i] += 1
        ver[i + 1] += 1
        outs = [f"f{i}_{ver[i]}", f"f{i + 1}_{ver[i + 1]}"]
        lines += [f"wire {w}: F" for w in outs]
        lines.append(f"node b{gi} = fbs({theta!r})({', '.join(ins + outs)})")
    lines.append("open " + ", ".join([f"f{i}_0" for i in range(n)]
                                     + [f"f{i}_{ver[i]}" for i in range(n)]))
    return "\n".join(lines) + "\n"


def check_fermion(res, want: np.ndarray) -> None:
    """Vacuum amplitude 1 and the one-particle block equal to ``want``;
    modes are ordered (inputs, outputs)."""
    n = want.shape[0]
    t = res.fermion_part
    require(t is not None and t.n == 2 * n, "wrong fermion result")
    vac = fermion_entry(t, [0] * (2 * n))
    require(abs(vac - 1) <= 1e-9, f"vacuum amplitude {vac}")
    got = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            x = [0] * (2 * n)
            x[j] = 1
            x[n + k] = 1
            got[k, j] = fermion_entry(t, x)
    dev = float(np.max(np.abs(got - want)))
    require(dev <= 1e-9, f"one-particle block deviation {dev:.2e}")


def _fermion_instance(rng: random.Random, n: int) -> Instance:
    gates = fermion_brickwork(rng, n)
    spec = parse(fermion_spec(n, gates))
    want = refs.brickwork_one_particle(n, gates)
    return Instance(f"fermion{n}", lambda: run_contract(spec),
                    lambda res: check_fermion(res, want))


def gaussian_chain_run(Ls: Sequence[np.ndarray]):
    spec = NetworkSpec()
    for k in range(len(Ls) + 1):
        spec.wires[f"x{k}"] = "R"
    for k, L in enumerate(Ls):
        u = clifford_to_tensor(gaussian_clifford(L))
        spec.nodes.append(Node(f"u{k}", u, [f"x{k + 1}", f"x{k}"]))
    spec.open_order = [f"x{len(Ls)}", "x0"]
    return run_contract(spec)


# Float error after six squeezed gates reaches ~2e-8 turns, and grows with
# the phase itself as b gets small; the faults this check exists for are
# off by 1e-3 turns or more.
PHASE_TOL = 1e-6
SAMPLE_POINTS = [(0.4, 0.6), (-1.1, 0.2), (0.9, -0.7), (0.3, 1.3)]


def check_gaussian(res, P: np.ndarray) -> None:
    """Phase at sample points against the metaplectic exponent of P, and
    a constant magnitude, both relative to the point (0, 0)."""
    u = res.group_part
    require(u is not None and not u.is_zero and len(u.E) == 2, "unexpected result shape")
    require(u.div_weight == 0, f"div_weight {u.div_weight}")
    M = np.array([[float(u.eps.eps1[i][j].value) for j in range(2)] for i in range(2)])
    off = np.array([float(v) for v in u.eps.eps0])

    def at(xo, xi):
        e = np.linalg.solve(M, np.array([xo, xi]) - off)
        a, ph = u.q.eval(u.E.element([float(v) for v in e]))
        return float(a), float(ph)

    a0, ph0 = at(0.0, 0.0)
    for xo, xi in SAMPLE_POINTS:
        a, ph = at(xo, xi)
        want = refs.metaplectic_phase(P, xo, xi)
        dist = refs.turns_distance(ph - ph0, want)
        require(dist <= PHASE_TOL * max(1.0, abs(want)),
                f"phase off by {dist:.2e} turns at ({xo}, {xi})")
        require(abs(a - a0) <= PHASE_TOL, f"magnitude varies at ({xo}, {xi})")


def _gaussian_instance(rng: random.Random, m: int) -> Instance:
    while True:
        Ls = [refs.rotation(rng.uniform(0.3, 1.2)) @ refs.squeezer(rng.uniform(-0.5, 0.5))
              for _ in range(m)]
        P = refs.chain_action(Ls)
        # at b = 0 the kernel is no Gaussian in (x_o, x_i); draw again near it
        if abs(P[0, 1]) >= 0.02:
            break
    return Instance(f"gauss{m}", lambda: gaussian_chain_run(Ls),
                    lambda res: check_gaussian(res, P))


def free_modes(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = [_gaussian_instance(rng, m) for m in GAUSSIAN_CHAINS]
    out += [_fermion_instance(rng, n) for n in FERMION_MODES]
    return out


def _merge(largest: str, *lists: List[Instance]) -> List[Instance]:
    out = [inst for lst in lists for inst in lst]
    for inst in out:
        inst.largest = inst.name == largest
    return out


# Two workloads of two instance families each: with four, a run could be
# only 28 s long within the benchmark's time budget, and this machine's
# speed phases (20-40 s) then spread the run means past 0.25.
WORKLOADS: Dict[str, Callable[[int], List[Instance]]] = {
    "circuits": lambda seed: _merge("n12_d3", qubit_circuits(seed), qudit_mirror(seed)),
    "states_and_modes": lambda seed: _merge("steane", stabilizer_states(seed), free_modes(seed)),
}
