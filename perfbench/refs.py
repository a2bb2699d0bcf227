"""Reference computations made apart from qtensor.

Everything here uses numpy only, so a fault in the library cannot reach
the values a benchmark output is checked against.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# qubit statevector simulation

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j])


def simulate(n: int, gates: Sequence[Tuple]) -> np.ndarray:
    """State of ``gates`` applied to |0...0>, as an array of shape (2,)*n.

    A gate is ("H", q), ("S", q), ("CX", control, target) or
    ("CZ", a, b); axis q of the array is qubit q.
    """
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in gates:
        name = g[0]
        if name in ("H", "S"):
            q = g[1]
            u = _H if name == "H" else _S
            psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [q])), 0, q)
        elif name == "CX":
            c, t = g[1], g[2]
            idx = [slice(None)] * n
            idx[c] = 1
            sub = psi[tuple(idx)]
            taxis = t if t < c else t - 1
            psi[tuple(idx)] = np.flip(sub, axis=taxis)
        elif name == "CZ":
            a, b = g[1], g[2]
            idx = [slice(None)] * n
            idx[a] = 1
            idx[b] = 1
            psi[tuple(idx)] *= -1
        else:
            raise ValueError(f"unknown gate {name}")
    return psi


# ---------------------------------------------------------------------------
# Pauli matrices and stabilizer tableaux

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def pauli_matrix(s: str) -> np.ndarray:
    """Dense matrix of a signed Pauli string such as "-XZY"; the first
    letter acts on the most significant qubit."""
    sign = -1.0 if s[0] == "-" else 1.0
    body = s.lstrip("+-")
    m = np.array([[sign]], dtype=complex)
    for c in body:
        m = np.kron(m, _PAULI[c])
    return m


def random_clifford_gates(rng: random.Random, n: int, count: int) -> List[Tuple]:
    """A random sequence of H, S and CX gates on n qubits."""
    gates = []
    for _ in range(count):
        r = rng.random()
        if r < 0.3:
            gates.append(("H", rng.randrange(n)))
        elif r < 0.6:
            gates.append(("S", rng.randrange(n)))
        else:
            c, t = rng.sample(range(n), 2)
            gates.append(("CX", c, t))
    return gates


def stabilizers_of(n: int, gates: Sequence[Tuple]) -> List[str]:
    """Signed generators of the state ``simulate(n, gates)``.

    Aaronson-Gottesman tableau update (PRA 70, 052328, 2004) of the
    generators +Z_i of |0...0>; x = z = 1 on a qubit denotes Y.
    """
    x = [[0] * n for _ in range(n)]
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = [0] * n
    for g in gates:
        for row in range(n):
            xs, zs = x[row], z[row]
            if g[0] == "H":
                a = g[1]
                r[row] ^= xs[a] & zs[a]
                xs[a], zs[a] = zs[a], xs[a]
            elif g[0] == "S":
                a = g[1]
                r[row] ^= xs[a] & zs[a]
                zs[a] ^= xs[a]
            elif g[0] == "CX":
                a, b = g[1], g[2]
                r[row] ^= xs[a] & zs[b] & (xs[b] ^ zs[a] ^ 1)
                xs[b] ^= xs[a]
                zs[a] ^= zs[b]
            else:
                raise ValueError(f"unknown gate {g[0]}")
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return [("-" if r[row] else "+")
            + "".join(letters[(x[row][q], z[row][q])] for q in range(n))
            for row in range(n)]


def code_projector(gens: Sequence[str]) -> np.ndarray:
    """prod (1 + g) / 2 over the signed generators, as a dense matrix."""
    dim = 2 ** len(gens[0].lstrip("+-"))
    p = np.eye(dim, dtype=complex)
    for g in gens:
        p = p @ (np.eye(dim) + pauli_matrix(g)) / 2
    return p


def code_state(gens: Sequence[str]) -> np.ndarray:
    """Unit vector fixed by a complete set of signed generators."""
    p = code_projector(gens)
    col = int(np.argmax(np.linalg.norm(p, axis=0)))
    v = p[:, col]
    return v / np.linalg.norm(v)


def overlap_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| for unit vectors; 1 means equal up to a global phase."""
    return float(abs(np.vdot(a.ravel(), b.ravel())))


# ---------------------------------------------------------------------------
# free fermions


def beam_splitter_one_particle(theta: float) -> np.ndarray:
    """Single-particle block of exp(-i theta (c0 c1^dag + c1 c0^dag))."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]])


def beam_splitter_matrix(theta: float) -> np.ndarray:
    """The 4x4 operator on |n0 n1> of the same beam splitter."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]],
                    dtype=complex)


def brickwork_one_particle(n: int, gates: Sequence[Tuple[int, float]]) -> np.ndarray:
    """Product of the embedded 2x2 rotations, later gates on the left.

    A gate (i, theta) acts on modes i and i + 1.
    """
    u = np.eye(n, dtype=complex)
    for i, theta in gates:
        b = np.eye(n, dtype=complex)
        b[i:i + 2, i:i + 2] = beam_splitter_one_particle(theta)
        u = b @ u
    return u


# ---------------------------------------------------------------------------
# single-mode Gaussian unitaries


def rotation(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def squeezer(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def metaplectic_phase(P: np.ndarray, xo: float, xi: float) -> float:
    """Phase, in turns, of the kernel <xo|U|xi> of the Gaussian unitary
    with quadrature action P = [[a, b], [c, d]], up to a constant:
    (d xo^2 - 2 xo xi + a xi^2) / (4 pi b)."""
    a, b, d = P[0, 0], P[0, 1], P[1, 1]
    return (d * xo * xo - 2 * xo * xi + a * xi * xi) / (4 * math.pi * b)


def chain_action(Ls: Sequence[np.ndarray]) -> np.ndarray:
    """Kernel matrix P of the chain that applies gate 1 first.

    A single gate with quadrature action L has P = inv(L) (the harmonic
    oscillator propagator); kernel matrices multiply in operator order,
    later gates on the left, so P = inv(L_m) ... inv(L_1)."""
    p = np.eye(2)
    for L in Ls:
        p = np.linalg.inv(L) @ p
    return p


def turns_distance(a: float, b: float) -> float:
    """Distance between two phases in turns, modulo 1."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)
