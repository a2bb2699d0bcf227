import random
from fractions import Fraction

import pytest

from qtensor.groups import (
    ArityMismatch,
    GroupProduct,
    InfiniteGroup,
    R,
    T,
    Z,
    Zk,
    parse_product,
)


def test_add_examples():
    G = GroupProduct([Zk(2)])
    assert G.add(G.element([1]), G.element([1])) == G.element([0])
    G4 = GroupProduct([Zk(4)])
    assert G4.add(G4.element([3]), G4.element([2])) == G4.element([1])
    GT = GroupProduct([T])
    s = GT.add(GT.element([Fraction(3, 4)]), GT.element([Fraction(1, 2)]))
    assert s == GT.element([Fraction(1, 4)])


def test_neg_examples():
    G3 = GroupProduct([Zk(3)])
    assert G3.neg(G3.element([1])) == G3.element([2])
    GZ = GroupProduct([Z])
    assert GZ.neg(GZ.element([5])) == GZ.element([-5])
    GR = GroupProduct([R])
    assert GR.neg(GR.element([2.5]))[0] == -2.5


def test_enumerate():
    G = GroupProduct([Zk(2), Zk(2)])
    elems = list(G.enumerate())
    assert elems == [G.element(v) for v in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert [e[0] for e in GroupProduct([Zk(3)]).enumerate()] == [0, 1, 2]
    with pytest.raises(InfiniteGroup):
        list(GroupProduct([Z, Zk(2)]).enumerate())


def test_enumerate_count():
    for sig in ["Z2,Z3", "Z4,Z2,Z3", "Z1,Z5"]:
        G = parse_product(sig)
        elems = list(G.enumerate())
        assert len(elems) == G.order
        assert len(set(elems)) == G.order


def test_add_assoc_comm_random():
    rng = random.Random(7)
    for sig in ["Z2,Z4", "Z3,Z6,Z2", "Z5"]:
        G = parse_product(sig)
        elems = list(G.enumerate())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert G.add(a, b) == G.add(b, a)
            assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))


def test_neg_involution():
    rng = random.Random(11)
    G = parse_product("Z2,Z6,Z5")
    elems = list(G.enumerate())
    for _ in range(200):
        a = rng.choice(elems)
        assert G.neg(G.neg(a)) == a
        assert G.is_identity(G.add(a, G.neg(a)))


def test_arity_mismatch():
    G = parse_product("Z2,Z2")
    with pytest.raises(ArityMismatch):
        G.add(G.element([1, 1]), (Fraction(1),))


def test_signatures_roundtrip():
    for sig in ["Z2,Z2,R", "T,Z", "Z7", ""]:
        G = parse_product(sig)
        assert parse_product(G.signature()) == G


def test_z1_trivial():
    G = parse_product("Z1,Z2")
    assert G.order == 2
    assert list(G.enumerate())[0] == G.identity()


def test_one_object_per_group():
    """Construction, parsing, copies and pickles all give the one object of
    a group, so equality and hash are identity."""
    import copy
    import pickle

    from qtensor.groups import ElementaryGroup, parse_group

    assert ElementaryGroup("Zk", 6) is Zk(6)
    assert ElementaryGroup("Z") is Z and ElementaryGroup("T") is T and ElementaryGroup("R") is R
    for sig, G in [("Z6", Zk(6)), ("Z1", Zk(1)), ("Z", Z), ("T", T), ("R", R)]:
        assert parse_group(sig) is G
        assert copy.copy(G) is G and copy.deepcopy(G) is G
        assert pickle.loads(pickle.dumps(G)) is G
    prod = parse_product("Z4,T,R")
    assert all(a is b for a, b in zip(copy.deepcopy(prod), prod))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(prod)), prod))
    with pytest.raises(AttributeError):
        Zk(6).k = 7
    with pytest.raises(ValueError):
        ElementaryGroup("Zk", 0)


def test_one_object_per_product():
    """Products of the same factors are one object, however they are made,
    copied or unpickled; the identity is built with it."""
    import copy
    import pickle

    prod = GroupProduct([Zk(4), T, R])
    assert parse_product("Z4,T,R") is prod and GroupProduct((Zk(4), T, R)) is prod
    assert GroupProduct([Zk(4)]) * GroupProduct([T, R]) is prod
    assert GroupProduct() is parse_product("0")
    assert copy.copy(prod) is prod and copy.deepcopy(prod) is prod
    assert pickle.loads(pickle.dumps(prod)) is prod
    assert prod.identity() == (0, Fraction(0), Fraction(0)) and prod.identity() is prod.identity()
    assert prod != GroupProduct([Zk(4), R, T]) and len({prod, parse_product("Z4,T,R")}) == 1
    assert repr(prod) == ("GroupProduct(factors=(ElementaryGroup(kind='Zk', k=4), "
                          "ElementaryGroup(kind='T', k=0), ElementaryGroup(kind='R', k=0)))")
    with pytest.raises(AttributeError):
        prod.factors = ()
