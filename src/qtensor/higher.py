"""Higher-order functions and tensors over products of Z2 (closed-form
coefficients) and general finite groups (pointwise).

An order-i function stores one coefficient per strictly increasing index
tuple of each arity k <= i; over qubit factors the k-ary cell of an
order-i function takes values in Z_{2^(i-k+1)} for circle targets and in
Z_2 for qubit-valued targets.  Tensors built from these cannot be
contracted coefficient-wise in general and are materialized densely.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dense import DENSE_LIMIT, DenseTensor, InfiniteGroupError, TooLargeError
from .groups import ElementaryGroup, GroupProduct, T, Zk
from .scalar import Scalar


@dataclass
class OrderFnData:
    """Coefficient arrays of an order-i function over Z2 factors."""

    order: int
    domain: GroupProduct
    target: ElementaryGroup  # T or a finite cyclic group
    cells: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    const: Scalar = 0

    def __post_init__(self):
        assert all(f == Zk(2) for f in self.domain), "closed-form cells need qubit factors"
        for key, v in list(self.cells.items()):
            assert len(key) <= self.order
            assert all(a < b for a, b in zip(key, key[1:]))
            if v % self.cell_modulus(len(key)) == 0:
                del self.cells[key]

    def cell_modulus(self, k: int) -> int:
        if self.target.kind == "T":
            return 2 ** (self.order - k + 1)
        return self.target.k

    def __call__(self, e: Sequence) -> Scalar:
        acc = Fraction(self.const)
        for key, h in self.cells.items():
            prod = 1
            for a in key:
                prod *= int(e[a])
            if prod == 0:
                continue
            k = len(key)
            if self.target.kind == "T":
                acc += Fraction(h * prod, 2 ** (self.order - k + 1))
            else:
                acc += h * prod
        return self.target.normalize(acc)


@dataclass
class PointwiseFn:
    """Fallback representation: an explicit table over a finite domain."""

    domain: GroupProduct
    target: ElementaryGroup
    table: Dict[Tuple, Scalar]

    def __call__(self, e: Sequence) -> Scalar:
        return self.target.normalize(self.table[tuple(self.domain.element(e))])


@dataclass
class OrderTensorData:
    """(E, eps, q) with an order-(i-1) embedding and order-i phase."""

    G: GroupProduct
    E: GroupProduct
    eps: List  # one OrderFnData / PointwiseFn per G factor
    q: Optional[OrderFnData] = None  # phase function into T
    mag: float = 1.0

    def entry_sources(self):
        for e in self.E.enumerate():
            g = tuple(
                self.G[i].normalize(self.eps[i](e)) for i in range(len(self.G))
            )
            yield e, g


def derivative_i(fn: Callable, G: GroupProduct, args: Sequence) -> Scalar:
    """The |args|-th derivative by inclusion-exclusion over subsets."""
    i = len(args)
    acc = None
    for bits in itertools.product([0, 1], repeat=i):
        pt = G.identity()
        for b, g in zip(bits, args):
            if b:
                pt = G.add(pt, G.element(g))
        sign = (-1) ** (i - sum(bits))
        val = fn(pt)
        acc = val * sign if acc is None else acc + sign * val
    return acc


#: the most (i+1)-tuples of G whose derivative ``is_order_i`` evaluates
ORDER_GUARD = 10 ** 6
#: the highest level ``hierarchy_level_diagonal`` looks for
MAX_LEVEL = 6


def is_order_i(fn: Callable, G: GroupProduct, i: int, target=T) -> bool:
    """Exhaustively check that the (i+1)-st derivative vanishes."""
    if G.order ** (i + 1) > ORDER_GUARD:
        raise TooLargeError(f"|G|^{i + 1} exceeds the enumeration guard")
    elems = list(G.enumerate())
    for combo in itertools.product(elems, repeat=i + 1):
        d = derivative_i(fn, G, combo)
        if not target.eq(target.normalize(d), 0):
            return False
    return True


def hierarchy_level_diagonal(fn: Callable, G: GroupProduct) -> int:
    """Smallest i such that the phase function is order i: the level of
    diag(e^{2 pi i fn}) in the Clifford hierarchy."""
    for i in range(1, MAX_LEVEL + 1):
        if is_order_i(fn, G, i):
            return i
    raise ValueError(f"no order <= {MAX_LEVEL}")


def order_tensor_materialize(t: OrderTensorData) -> DenseTensor:
    if not (t.G.finite and t.E.finite):
        raise InfiniteGroupError("materialization needs finite groups")
    if max(t.G.order, t.E.order) > DENSE_LIMIT:
        raise TooLargeError("dense materialization would exceed the size limit")
    dims = tuple(f.k for f in t.G)
    arr = np.zeros(dims, dtype=complex)
    for e, g in t.entry_sources():
        idx = tuple(int(x) for x in g)
        ph = float(t.q(e)) if t.q is not None else 0.0
        arr[idx] += t.mag * cmath.exp(2j * math.pi * ph)
    return DenseTensor(dims, arr)


# ---------------------------------------------------------------------------
# qubit gate constructors


def _linear_eps(E: GroupProduct, G: GroupProduct, rows: List[List[int]],
                order: int = 2) -> List[OrderFnData]:
    out = []
    for i in range(len(G)):
        cells = {(j,): rows[i][j] for j in range(len(E)) if rows[i][j]}
        out.append(OrderFnData(order - 1, E, G[i], cells))
    return out


def t_state() -> OrderTensorData:
    E = GroupProduct([Zk(2)])
    G = GroupProduct([Zk(2)])
    q = OrderFnData(3, E, T, {(0,): 1})
    return OrderTensorData(G, E, _linear_eps(E, G, [[1]], order=3), q,
                           1 / math.sqrt(2))


def t_gate() -> OrderTensorData:
    E = GroupProduct([Zk(2)])
    G = GroupProduct([Zk(2), Zk(2)])
    q = OrderFnData(3, E, T, {(0,): 1})
    return OrderTensorData(G, E, _linear_eps(E, G, [[1], [1]], order=3), q)


def cs_gate() -> OrderTensorData:
    E = GroupProduct([Zk(2)] * 2)
    G = GroupProduct([Zk(2)] * 4)
    q = OrderFnData(3, E, T, {(0, 1): 1})
    rows = [[1, 0], [0, 1], [1, 0], [0, 1]]
    return OrderTensorData(G, E, _linear_eps(E, G, rows, order=3), q)


def ccz_gate() -> OrderTensorData:
    E = GroupProduct([Zk(2)] * 3)
    G = GroupProduct([Zk(2)] * 6)
    q = OrderFnData(3, E, T, {(0, 1, 2): 1})
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2
    return OrderTensorData(G, E, _linear_eps(E, G, rows, order=3), q)


def ccx_gate() -> OrderTensorData:
    """Toffoli: trivial phase, second-order embedding o2 = i2 + i0 i1."""
    E = GroupProduct([Zk(2)] * 3)
    G = GroupProduct([Zk(2)] * 6)
    eps = _linear_eps(E, G, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                             [1, 0, 0], [0, 1, 0], [0, 0, 1]], order=3)
    eps[5] = OrderFnData(2, E, Zk(2), {(2,): 1, (0, 1): 1})
    return OrderTensorData(G, E, eps, None)


def ch_gate() -> OrderTensorData:
    """Controlled Hadamard via a non-injective second-order embedding."""
    E = GroupProduct([Zk(2)] * 3)  # (i0, i1, x)
    G = GroupProduct([Zk(2)] * 4)  # (o0, o1, i0, i1)
    eps = _linear_eps(E, G, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]], order=3)
    # o1 = i1 + x i0
    eps[1] = OrderFnData(2, E, Zk(2), {(1,): 1, (0, 2): 1})
    q = OrderFnData(
        3, E, T,
        {(0, 1, 2): 1, (0, 1): 2, (0, 2): 3, (0,): 1, (2,): 2},
        const=Fraction(-1, 8),
    )
    return OrderTensorData(G, E, eps, q, 1 / math.sqrt(2))


def vector_31() -> OrderTensorData:
    E = GroupProduct([Zk(2)] * 2)
    G = GroupProduct([Zk(2)])
    eps = [OrderFnData(2, E, Zk(2), {(0, 1): 1})]
    return OrderTensorData(G, E, eps, None)


def vector_42() -> OrderTensorData:
    E = GroupProduct([Zk(2)] * 3)
    G = GroupProduct([Zk(2)])
    eps = [OrderFnData(2, E, Zk(2), {(0,): 1, (1,): 1, (2,): 1})]
    q = OrderFnData(3, E, T, {(0, 1, 2): 1})
    return OrderTensorData(G, E, eps, q)


def fourier_2qubit() -> OrderTensorData:
    """QFT on two qubits (most-significant bit first): the phase
    val(i) val(o) / 4 expands to (i0 o1 + i1 o0)/2 + i1 o1 / 4, a cubic
    function of the bits."""
    E = GroupProduct([Zk(2)] * 4)
    G = GroupProduct([Zk(2)] * 4)
    q = OrderFnData(3, E, T, {(0, 3): 2, (1, 2): 2, (1, 3): 1})
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    return OrderTensorData(G, E, _linear_eps(E, G, rows, order=3), q, 0.5)


def z4_vector_1100() -> OrderTensorData:
    E = GroupProduct([Zk(2)])
    G = GroupProduct([Zk(4)])
    table = {(Fraction(0),): 0, (Fraction(1),): 1}
    eps = [PointwiseFn(E, Zk(4), table)]
    return OrderTensorData(G, E, eps, None)
