"""Dense oracle operations: comparison modes, contraction bookkeeping,
and tensor-product associativity of the coefficient engine."""

import math
import random

import numpy as np
import pytest

from gen import random_qtensor

from qtensor.dense import (
    DENSE_LIMIT,
    CompareReport,
    DenseTensor,
    ShapeMismatch,
    TooLargeError,
    dense_compare,
    dense_contract,
    materialize,
    self_contract_dense,
    tensor_product_dense,
)
from qtensor.engine import QTensorData, reduce_full, self_contract, tensor_product
from qtensor.functions import LinearFnData, QuadraticFnData
from qtensor.groups import GroupProduct, Zk, parse_product
from qtensor.higher import OrderTensorData, order_tensor_materialize


def test_compare_modes():
    a = DenseTensor((2,), np.array([1, 1j]))
    assert dense_compare(a, a).equal
    b = DenseTensor((2,), np.array([1j, -1]))  # i * a
    assert not dense_compare(a, b, "tol").equal
    assert dense_compare(a, b, "phase").equal
    with pytest.raises(ShapeMismatch):
        dense_compare(a, DenseTensor((3,), np.zeros(3)))


def test_compare_exact_mode():
    from fractions import Fraction

    ex = np.empty((2,), dtype=object)
    ex[0] = (Fraction(1, 2), Fraction(0))
    ex[1] = (Fraction(1, 2), Fraction(1, 4))
    a = DenseTensor((2,), np.array([1, 1j]) / math.sqrt(2), exact=ex)
    assert dense_compare(a, a, "exact").equal
    ex2 = np.empty((2,), dtype=object)
    ex2[0] = (Fraction(1, 2), Fraction(0))
    ex2[1] = (Fraction(1, 2), Fraction(3, 4))
    b = DenseTensor((2,), np.array([1, -1j]) / math.sqrt(2), exact=ex2)
    assert not dense_compare(a, b, "exact").equal


def test_trace_of_x_is_zero():
    X = DenseTensor((2, 2), np.array([[0, 1], [1, 0]]))
    tr = self_contract_dense(X, 0, 1)
    assert abs(tr.arr) < 1e-15


def test_expectation_plus_z_plus():
    plus = DenseTensor((2,), np.array([1, 1]) / math.sqrt(2))
    Z = DenseTensor((2, 2), np.array([[1, 0], [0, -1]]))
    out = dense_contract([plus, Z, plus], [(0, 0, 1, 1), (1, 0, 2, 0)])
    assert abs(out.arr) < 1e-15


def test_hh_dense_multiply():
    H = DenseTensor((2, 2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    out = dense_contract([H, H], [(0, 1, 1, 0)], [(0, 0), (1, 1)])
    assert np.max(np.abs(out.arr - np.eye(2))) < 1e-12


def test_tensor_product_associative_dense():
    rng = random.Random(41)
    for _ in range(10):
        a = random_qtensor(parse_product("Z2"), rng)
        b = random_qtensor(parse_product("Z3"), rng)
        c = random_qtensor(parse_product("Z2,Z2"), rng)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(materialize(left).arr - materialize(right).arr)) < 1e-12


def test_materialize_respects_ops_random():
    rng = random.Random(43)
    for _ in range(15):
        G = parse_product(rng.choice(["Z2,Z2", "Z4,Z4", "Z3,Z3"]))
        t = random_qtensor(G, rng)
        tc = self_contract(t, 0, 1)
        want = np.trace(materialize(t).arr)
        got = materialize(reduce_full(tc)).arr
        assert abs(got - want) < 1e-9


def test_dense_materialization_refuses_past_the_size_limit():
    # an embedding domain or an index set past DENSE_LIMIT raises before a
    # single element is enumerated or an array allocated
    big, one = GroupProduct([Zk(2)] * 23), GroupProduct([Zk(2)])
    assert big.order > DENSE_LIMIT
    for G, E in ((one, big), (big, GroupProduct())):
        t = QTensorData(G, E, LinearFnData.zero(E, G), QuadraticFnData.zero(E))
        with pytest.raises(TooLargeError, match="size limit"):
            materialize(t)
    with pytest.raises(TooLargeError, match="size limit"):
        order_tensor_materialize(OrderTensorData(one, big, []))
