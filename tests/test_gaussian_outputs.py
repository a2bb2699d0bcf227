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

import cmath
import json
import math
import os
import random

import numpy as np
import pytest

from qtensor import jsonio
from qtensor.engine import QTensorData
from qtensor.net import Node, NetworkSpec, run_contract
from qtensor.stab import clifford_to_tensor, gaussian_clifford

PINNED = os.path.join(os.path.dirname(__file__), "data", "gaussian_outputs.json")


def _rot(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _gate(theta: float, r: float) -> np.ndarray:
    """A rotation by theta after a squeezer exp(r), exp(-r)."""
    return _rot(theta) @ np.diag([math.exp(r), math.exp(-r)])


def _chain(Ls) -> QTensorData:
    """The contraction of ``chain_spec(Ls)``."""
    return run_contract(chain_spec(Ls)).group_part


def chain_spec(Ls) -> NetworkSpec:
    """One node per n-mode symplectic matrix in Ls, gate k on its outputs
    x{k+1}_j and its inputs x{k}_j, open on the last outputs and then the
    first inputs."""
    n, m = len(Ls[0]) // 2, len(Ls)
    spec = NetworkSpec()
    for k in range(m + 1):
        for j in range(n):
            spec.wires[f"x{k}_{j}"] = "R"
    for k, L in enumerate(Ls):
        legs = [f"x{k + 1}_{j}" for j in range(n)] + [f"x{k}_{j}" for j in range(n)]
        spec.nodes.append(Node(f"u{k}", clifford_to_tensor(gaussian_clifford(L)), legs))
    spec.open_order = [f"x{m}_{j}" for j in range(n)] + [f"x0_{j}" for j in range(n)]
    return spec


def gaussian_chains() -> dict:
    """The gates of eight chains of 4 to 6 gates, keyed by chain."""
    rng = random.Random(12)
    return {f"chain{c}_m{m}": [_gate(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5))
                               for _ in range(m)]
            for c, m in enumerate([4, 5, 6, 4, 5, 6, 4, 6])}


def gaussian_outputs() -> dict:
    """The JSON text of the contracted ``gaussian_chains``, keyed by chain."""
    return {key: jsonio.dumps(_chain(Ls)) for key, Ls in gaussian_chains().items()}


def test_gaussian_outputs_match_pinned():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = gaussian_outputs()
    assert sorted(got) == sorted(pinned)
    for key in got:
        assert got[key] == pinned[key], key


# (x_out, x_in) points at which a chain's kernel is compared with the origin
POINTS = [(0.4, 0.6), (-1.1, 0.2), (0.9, -0.7), (0.3, 1.3)]


def _entry(t: QTensorData, g) -> complex:
    """t at g, for E = R^n embedded invertibly onto G = R^n."""
    M = np.array([[float(x) for x in row] for row in t.eps.img])
    e = np.linalg.solve(M, np.asarray(g, dtype=float) - np.array([float(x) for x in t.eps.eps0]))
    a, ph = t.q.eval(t.E.element([float(x) for x in e]))
    return cmath.exp(2 * math.pi * (float(a) + 1j * float(ph)))


def _kernel_phase(P: np.ndarray, xo: float, xi: float) -> float:
    """The phase in turns of the single-mode kernel <xo|U|xi> against
    <0|U|0>, for P = [[a, b], [c, d]] the inverse quadrature action of U."""
    (a, b), (_, d) = P
    return (d * xo * xo - 2 * xo * xi + a * xi * xi) / (4 * math.pi * b)


def _check_kernel(t: QTensorData, points, phases, what) -> None:
    """The entries of t at ``points`` have the magnitude of the entry at 0
    and, against it, the phases ``phases`` in turns."""
    origin = _entry(t, [0.0] * len(points[0]))
    for g, want in zip(points, phases):
        ratio = _entry(t, g) / origin
        assert abs(abs(ratio) - 1) < 1e-6, (what, g, abs(ratio))
        diff = (cmath.phase(ratio) / (2 * math.pi) - want) % 1
        assert min(diff, 1 - diff) < 1e-6, (what, g, diff)


def _generic_gate(rng: random.Random) -> np.ndarray:
    """R(theta1) S(r) [[1, 0], [0.5, 1]] R(theta2) for random angles and
    squeezing."""
    theta1, r, theta2 = rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.2)
    return _gate(theta1, r) @ np.array([[1.0, 0.0], [0.5, 1.0]]) @ _rot(theta2)


@pytest.mark.parametrize("m", [8, 16])
def test_single_mode_chain_kernels(m):
    """Chains of generic single-mode gates give the kernel of their product
    with a constant magnitude.  Their integrated directions meet both
    factors of E."""
    for seed in range(12):
        rng = random.Random(seed)
        Ls = [_generic_gate(rng) for _ in range(m)]
        P = np.eye(2)
        for L in Ls:
            P = np.linalg.inv(L) @ P
        if abs(P[0, 1]) < 0.02:
            continue
        _check_kernel(_chain(Ls), POINTS, [_kernel_phase(P, *g) for g in POINTS], (m, seed))


def test_two_mode_rotation_chain_kernels():
    """Chains of 8 two-mode gates that rotate each mode give the product of
    the two single-mode kernels, mode 0 at (x_out, x_in) and mode 1 at
    (x_in, x_out)."""
    for seed in range(20):
        rng = random.Random(seed)
        thetas = [(rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)) for _ in range(8)]
        totals = [sum(th[j] for th in thetas) for j in range(2)]
        if min(abs(math.sin(x)) for x in totals) < 0.05:
            continue
        Ls = []
        for th in thetas:
            L = np.eye(4)
            for j in range(2):
                L[np.ix_([j, j + 2], [j, j + 2])] = _rot(th[j])
            Ls.append(L)
        points = [(xo, xi, xi, xo) for xo, xi in POINTS]
        Ps = [np.linalg.inv(_rot(x)) for x in totals]
        phases = [_kernel_phase(Ps[0], xo, xi) + _kernel_phase(Ps[1], xi, xo)
                  for xo, xi in POINTS]
        _check_kernel(_chain(Ls), points, phases, seed)
