"""Worked examples and error paths from the operation contracts that are
not covered elsewhere."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qtensor.coeff import DomainMismatch, Hom2Coeff, HomCoeff, QuadCoeff
from qtensor.dense import materialize
from qtensor.engine import (
    NotIntegrable,
    NotInvertible,
    QTensorData,
    gauss_sum,
    reduce_invertible,
    reduce_real,
    self_contract,
)
from qtensor.functions import LinearFnData, QuadraticFnData, hom_data
from qtensor.groups import GroupProduct, R, T, Zk, parse_product
from test_netcli import run_cli


def test_mixed_dimension_tensor_entries():
    # qubit-qudit coupling g0 g1 / 2 + g1^2 / 8 over Z2 x Z4
    G = parse_product("Z2,Z4")
    E = G
    q = QuadraticFnData.zero(E)
    q.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(4), T, 1))
    q.phi1[1] = QuadCoeff(Zk(4), T, 1, 0)
    t = QTensorData(G, E, LinearFnData.identity(G), q)
    d = materialize(t)
    w = np.exp(2j * np.pi / 8)
    want = np.array([
        [1, w, -1, w],
        [1, w ** 5, -1, w ** 5],
    ])
    assert np.max(np.abs(d.arr - want)) < 1e-12
    # exact sidecar carries the same phases
    assert d.exact[(0, 1)] == (Fraction(1), Fraction(1, 8))
    assert d.exact[(1, 3)] == (Fraction(1), Fraction(5, 8))


def test_self_contract_kind_mismatch():
    G = parse_product("Z2,Z3")
    E = G
    t = QTensorData(G, E, LinearFnData.identity(G), QuadraticFnData.zero(E))
    with pytest.raises(ValueError):
        self_contract(t, 0, 1)


def _kernel_column_tensor(phi_h2: int, k: int):
    """Tensor over the trivial group with E = Z_k in the kernel."""
    G = GroupProduct()
    E = parse_product(f"Z{k}")
    eps = LinearFnData(E, G, G.identity(), [])
    q = QuadraticFnData.zero(E)
    q.phi1[0] = QuadCoeff(Zk(k), T, phi_h2, 0)
    t = QTensorData(G, E, eps, q)
    rho = hom_data(E, E, [[HomCoeff(Zk(k), Zk(k), 1)]])
    return t, rho


def test_reduce_invertible_degenerate_raises():
    t, rho = _kernel_column_tensor(0, 4)  # q^(2) restricted to R is zero
    with pytest.raises(NotInvertible):
        reduce_invertible(t, rho)


def _real_kernel_tensor(a_h2):
    """Tensor over the trivial group with E = R in the kernel, q_a = a_h2 x^2 / 2."""
    G = GroupProduct()
    E = parse_product("R")
    eps = LinearFnData(E, G, G.identity(), [])
    q = QuadraticFnData.zero(E)
    q.a1[0] = QuadCoeff(R, R, a_h2, 0)
    t = QTensorData(G, E, eps, q, 0, None)
    rho = hom_data(E, E, [[HomCoeff(R, R, 1)]])
    return t, rho


def test_reduce_real_not_integrable():
    t, rho = _real_kernel_tensor(Fraction(1))  # positive quadratic exponent
    with pytest.raises(NotIntegrable):
        reduce_real(t, rho)


def test_reductions_reject_a_direction_of_another_kind():
    # the invertible reduction and the Gauss sum take Z_k, the real one R
    t, rho = _real_kernel_tensor(Fraction(-1))
    with pytest.raises(DomainMismatch):
        reduce_invertible(t, rho)
    with pytest.raises(DomainMismatch):
        gauss_sum(R, 0, Fraction(1))
    t, rho = _kernel_column_tensor(1, 3)
    with pytest.raises(DomainMismatch):
        reduce_real(t, rho)


def test_cli_unsupported_case_exit_3(tmp_path):
    # rotor tableau whose sigma_x mixes circle and integer sources in one
    # row: valid tableau, but the code-state kernel class is unsupported
    from qtensor import jsonio
    from qtensor.stab import rotor_tableau

    tab = rotor_tableau(
        np.array([[1], [1]]),
        np.array([[1, 0], [-1, 0]]),
        [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]],
    )
    f = tmp_path / "rotor.json"
    f.write_text(json.dumps(jsonio.to_json(tab)))
    r = run_cli("stab", "state", str(f))
    assert r.returncode == 3, (r.returncode, r.stderr)
    assert "unsupported" in r.stderr.lower()


def test_infinite_group_enumeration_guard():
    from qtensor.dense import InfiniteGroupError

    G = parse_product("R")
    E = parse_product("R")
    t = QTensorData(G, E, LinearFnData.identity(G), QuadraticFnData.zero(E), 0, None)
    with pytest.raises(InfiniteGroupError):
        materialize(t)


def test_divergent_prefactor_guard():
    from qtensor.dense import DivergentPrefactor

    G = parse_product("Z2")
    E = parse_product("Z2")
    t = QTensorData(G, E, LinearFnData.identity(G), QuadraticFnData.zero(E))
    t.div_weight = 1
    with pytest.raises(DivergentPrefactor):
        materialize(t)
