"""Higher-order tensors: worked data, derivatives, and the diagonal
Clifford-hierarchy correspondence."""

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qtensor.coeff import QuadCoeff, quad_apply, quad_group
from qtensor.dense import TooLargeError
from qtensor.groups import GroupProduct, T, Zk, parse_product
from qtensor.higher import (
    OrderFnData,
    ccx_gate,
    ccz_gate,
    ch_gate,
    cs_gate,
    derivative_i,
    fourier_2qubit,
    hierarchy_level_diagonal,
    is_order_i,
    order_tensor_materialize,
    t_gate,
    t_state,
    vector_31,
    vector_42,
    z4_vector_1100,
)

Z2 = parse_product("Z2")


def test_order_eval_examples():
    f = OrderFnData(3, Z2, T, {(0,): 1})
    assert f([1]) == Fraction(1, 8)
    E3 = parse_product("Z2,Z2,Z2")
    ccz = OrderFnData(3, E3, T, {(0, 1, 2): 1})
    assert ccz([1, 1, 1]) == Fraction(1, 2)
    assert ccz([1, 1, 0]) == 0
    assert f([0]) == 0


def test_derivative_examples():
    # second derivative of the quarter-square phase on Z2
    q = lambda e: quad_apply(QuadCoeff(Zk(2), T, 1, 0), e[0])
    d2 = derivative_i(q, Z2, [(1,), (1,)])
    assert T.eq(T.normalize(d2), Fraction(1, 2))
    # third derivative of the eighth phase
    f = OrderFnData(3, Z2, T, {(0,): 1})
    d3 = derivative_i(f, Z2, [(1,), (1,), (1,)])
    assert T.eq(T.normalize(d3), Fraction(1, 2))
    const = lambda e: Fraction(1, 3)
    assert T.eq(T.normalize(derivative_i(const, Z2, [(1,)])), 0)


def test_is_order_i():
    y_phase = lambda e: quad_apply(QuadCoeff(Zk(2), T, 1, 0), e[0])
    assert is_order_i(y_phase, Z2, 2)
    t_phase = OrderFnData(3, Z2, T, {(0,): 1})
    assert not is_order_i(t_phase, Z2, 2)
    assert is_order_i(t_phase, Z2, 3)
    hom = lambda e: T.normalize(Fraction(e[0], 2))
    assert is_order_i(hom, Z2, 1)
    with pytest.raises(TooLargeError):
        is_order_i(hom, parse_product("Z6,Z6,Z6"), 8)


def test_hierarchy_levels():
    z_phase = lambda e: T.normalize(Fraction(e[0], 2))
    s_phase = lambda e: T.normalize(Fraction(int(e[0]) * int(e[0]), 4))
    t_phase = lambda e: T.normalize(Fraction(int(e[0]), 8))
    assert hierarchy_level_diagonal(z_phase, Z2) == 1
    assert hierarchy_level_diagonal(s_phase, Z2) == 2
    assert hierarchy_level_diagonal(t_phase, Z2) == 3


def test_hierarchy_closure_under_addition():
    s_phase = lambda e: T.normalize(Fraction(int(e[0]) ** 2, 4))
    t_phase = lambda e: T.normalize(Fraction(int(e[0]), 8))
    both = lambda e: T.normalize(s_phase(e) + t_phase(e))
    assert hierarchy_level_diagonal(both, Z2) <= 3


def test_t_state_and_gate():
    d = order_tensor_materialize(t_state())
    want = np.array([1, cmath.exp(2j * math.pi / 8)]) / math.sqrt(2)
    assert np.max(np.abs(d.arr - want)) < 1e-12
    g = order_tensor_materialize(t_gate())
    assert np.max(np.abs(g.arr.reshape(2, 2) - np.diag([1, cmath.exp(2j * math.pi / 8)]))) < 1e-12


def test_cs_and_ccz():
    cs = order_tensor_materialize(cs_gate()).arr.reshape(4, 4)
    want = np.diag([1, 1, 1, 1j]).astype(complex)
    assert np.max(np.abs(cs - want)) < 1e-12
    ccz = order_tensor_materialize(ccz_gate()).arr.reshape(8, 8)
    want = np.diag([1] * 7 + [-1]).astype(complex)
    assert np.max(np.abs(ccz - want)) < 1e-12


def test_toffoli():
    d = order_tensor_materialize(ccx_gate())
    # indices (i0, i1, i2, o0, o1, o2)
    mat = np.zeros((8, 8), dtype=complex)
    for idx in np.ndindex(*d.dims):
        i = idx[0] * 4 + idx[1] * 2 + idx[2]
        o = idx[3] * 4 + idx[4] * 2 + idx[5]
        mat[o, i] += d.arr[idx]
    want = np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]
    assert np.max(np.abs(mat - want)) < 1e-12


def test_controlled_hadamard():
    d = order_tensor_materialize(ch_gate())
    # indices (o0, o1, i0, i1)
    mat = np.zeros((4, 4), dtype=complex)
    for idx in np.ndindex(*d.dims):
        o = idx[0] * 2 + idx[1]
        i = idx[2] * 2 + idx[3]
        mat[o, i] += d.arr[idx]
    r = 1 / math.sqrt(2)
    want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, r, r], [0, 0, r, -r]],
                    dtype=complex)
    assert np.max(np.abs(mat - want)) < 1e-10


def test_vectors():
    assert np.allclose(order_tensor_materialize(vector_31()).arr, [3, 1])
    assert np.allclose(order_tensor_materialize(vector_42()).arr, [4, 2])
    assert np.allclose(order_tensor_materialize(z4_vector_1100()).arr, [1, 1, 0, 0])


def test_fourier_2qubit():
    d = order_tensor_materialize(fourier_2qubit())
    mat = np.zeros((4, 4), dtype=complex)
    for idx in np.ndindex(*d.dims):
        i = idx[0] * 2 + idx[1]
        o = idx[2] * 2 + idx[3]
        mat[o, i] += d.arr[idx]
    w = cmath.exp(2j * math.pi / 4)
    want = np.array([[w ** (a * b) for b in range(4)] for a in range(4)]) / 2
    assert np.max(np.abs(mat - want)) < 1e-12


def test_quadratic_roundtrip_counts():
    # order-2 functions over one qubit: exactly the four quadratic phases
    fns = set()
    for h2 in range(4):
        for h1 in range(2):
            f = OrderFnData(2, Z2, T, {(0,): h2})
            # h1 cell arity 2 does not exist on one factor; vary via h2 only
    quad_fns = set()
    for h2 in range(4):
        q = QuadCoeff(Zk(2), T, h2, 0)
        quad_fns.add(tuple(quad_apply(q, g) for g in range(2)))
    order_fns = set()
    for c in range(4):
        f = OrderFnData(2, Z2, T, {(0,): c})
        order_fns.add(tuple(f([g]) for g in range(2)))
    assert order_fns == quad_fns and len(order_fns) == 4
    # over Z3 the count of quadratic functions is 9 (pointwise check)
    z3 = parse_product("Z3")
    fns3 = set()
    for h2 in range(3):
        for h1 in range(3):
            q = QuadCoeff(Zk(3), T, h2, h1)
            tab = tuple(quad_apply(q, g) for g in range(3))
            assert is_order_i(lambda e, _q=q: quad_apply(_q, e[0]), z3, 2)
            fns3.add(tab)
    assert len(fns3) == 9


def test_derivative_symmetry():
    import random

    rng = random.Random(3)
    E = parse_product("Z2,Z2")
    f = OrderFnData(3, E, T, {(0,): 3, (1,): 2, (0, 1): 1})
    elems = list(E.enumerate())
    for _ in range(10):
        args = [rng.choice(elems) for _ in range(3)]
        base = derivative_i(f, E, args)
        rng.shuffle(args)
        assert T.eq(T.normalize(derivative_i(f, E, args)), T.normalize(base))
