"""Oracle tests for the contraction engine: every coefficient-level
operation must commute with dense materialization."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gen import random_qtensor
from test_functions import mixed_hom, mixed_quadratic
from test_solve import one_row_systems, random_hom

from qtensor import engine, solve
from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff, cell_group, image_group, quad_values
from qtensor.dense import dense_compare, materialize
from qtensor.engine import (
    Degenerate,
    QTensorData,
    gauss_sum,
    reduce_full,
    self_contract,
    tensor_product,
)
from qtensor.functions import LinearFnData, QuadraticFnData
from qtensor.groups import GroupProduct, R, T, Z, Zk, parse_product


def plus_state() -> QTensorData:
    G = parse_product("Z2")
    E = parse_product("Z2")
    t = QTensorData(G, E, LinearFnData.identity(G), QuadraticFnData.zero(E))
    t.mul_sqrt(Fraction(1, 2))
    return t


def ket0() -> QTensorData:
    G = parse_product("Z2")
    E = GroupProduct()
    eps = LinearFnData(E, G, G.element([0]), [[]])
    return QTensorData(G, E, eps, QuadraticFnData.zero(E))


def identity_op(k: int) -> QTensorData:
    G = parse_product(f"Z{k},Z{k}")
    E = parse_product(f"Z{k}")
    eps = LinearFnData(E, G, G.identity(),
                       [[HomCoeff(Zk(k), Zk(k), 1)], [HomCoeff(Zk(k), Zk(k), 1)]])
    return QTensorData(G, E, eps, QuadraticFnData.zero(E))


def hadamard() -> QTensorData:
    G = parse_product("Z2,Z2")
    E = parse_product("Z2,Z2")
    q = QuadraticFnData.zero(E)
    q.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(2), T, 1))
    t = QTensorData(G, E, LinearFnData.identity(G), q)
    t.mul_sqrt(Fraction(1, 2))
    return t


def test_materialize_plus_and_ket0():
    d = materialize(plus_state())
    assert np.allclose(d.arr, np.array([1, 1]) / math.sqrt(2))
    assert d.exact[(0,)] == (Fraction(1, 2), Fraction(0))
    d0 = materialize(ket0())
    assert np.allclose(d0.arr, [1, 0])


def test_tensor_product_matches_dense():
    rng = random.Random(31)
    for _ in range(20):
        G1 = parse_product(random.Random(rng.random()).choice(["Z2", "Z3", "Z2,Z2", "Z4"]))
        G2 = parse_product(random.Random(rng.random()).choice(["Z2", "Z6", "Z3,Z2"]))
        t1, t2 = random_qtensor(G1, rng), random_qtensor(G2, rng)
        tp = tensor_product(t1, t2)
        d = materialize(tp)
        d1, d2 = materialize(t1), materialize(t2)
        expect = np.multiply.outer(d1.arr, d2.arr)
        assert np.max(np.abs(d.arr - expect)) < 1e-9


def test_self_contract_matches_dense():
    rng = random.Random(33)
    n_done = 0
    while n_done < 30:
        sig = rng.choice(["Z2,Z2", "Z3,Z3", "Z4,Z4,Z2", "Z2,Z2,Z2", "Z6,Z6"])
        G = parse_product(sig)
        pairs = [(i, j) for i in range(len(G)) for j in range(len(G))
                 if i < j and G[i] == G[j]]
        if not pairs:
            continue
        i, j = rng.choice(pairs)
        t = random_qtensor(G, rng)
        tc = self_contract(t, i, j)
        d = materialize(tc)
        full = materialize(t).arr
        expect = np.trace(full, axis1=i, axis2=j)
        assert np.max(np.abs(d.arr - expect)) < 1e-9, (sig, i, j)
        n_done += 1


def test_reduce_full_preserves_tensor():
    rng = random.Random(35)
    for _ in range(60):
        sig = rng.choice(["Z2", "Z2,Z2", "Z3", "Z4,Z2", "Z6,Z2", "Z3,Z3", "Z4"])
        G = parse_product(sig)
        t = random_qtensor(G, rng, max_e=len(G) + 2)
        before = materialize(t).arr
        red = reduce_full(t)
        after = materialize(red).arr
        assert np.max(np.abs(before - after)) < 1e-9, sig
        # after reduction over finite groups the embedding is injective
        if not red.is_zero:
            assert red.E.order <= t.G.order or red.E.order <= (t.E.order if len(t.E) else 1)


def test_reduce_makes_embedding_injective():
    rng = random.Random(37)
    for _ in range(30):
        G = parse_product(rng.choice(["Z2,Z2", "Z4", "Z3,Z2"]))
        t = random_qtensor(G, rng, max_e=len(G) + 2)
        red = reduce_full(t)
        if red.is_zero:
            continue
        seen = set()
        for e in red.E.enumerate():
            img = red.eps(e)
            assert img not in seen, "embedding not injective after reduction"
            seen.add(img)


def test_trace_identity_is_group_order():
    for k in (2, 3, 4, 6):
        t = self_contract(identity_op(k), 0, 1)
        red = reduce_full(t)
        d = materialize(red)
        assert abs(d.arr[()] - k) < 1e-9


def test_tutorial_contraction_gives_minus_y():
    # T'_{hc} = [[1, i], [1, -i]]: q has cell (h,c) = 1 and c-vector (1,0)
    G = parse_product("Z2,Z2")
    E = parse_product("Z2,Z2")
    q = QuadraticFnData.zero(E)
    q.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(2), T, 1))
    q.phi1[1] = QuadCoeff(Zk(2), T, 1, 0)
    t = QTensorData(G, E, LinearFnData.identity(G), q)
    assert np.allclose(materialize(t).arr, np.array([[1, 1j], [1, -1j]]))
    contracted = reduce_full(self_contract(tensor_product(t, identity_op(2)), 1, 2))
    # the remaining steps contract c with a fresh identity leg; the open
    # indices are (h, other id leg) -- trace out nothing else.
    # Simpler: sum over c directly by contracting with the all-ones vector.
    ones = QTensorData(parse_product("Z2"), parse_product("Z2"),
                       LinearFnData.identity(parse_product("Z2")),
                       QuadraticFnData.zero(parse_product("Z2")))
    s = reduce_full(self_contract(tensor_product(t, ones), 1, 2))
    d = materialize(s)
    expect = np.array([1 + 1j, 1 - 1j])
    assert np.max(np.abs(d.arr - expect)) < 1e-9
    # the reduced data carries the Schur-complement bilinear 1 = 0 - 1*1*1
    assert not s.is_zero
    assert quad_bilinear_value(s) == 1


def quad_bilinear_value(t: QTensorData) -> int:
    from qtensor.coeff import quad_to_bilinear

    return int(quad_to_bilinear(t.q.phi1[0]).value)


def test_hh_is_identity():
    h2 = tensor_product(hadamard(), hadamard())
    t = reduce_full(self_contract(h2, 1, 2))
    d = materialize(t)
    assert np.max(np.abs(d.arr - np.eye(2))) < 1e-12


def test_braket_zero_plus():
    t = reduce_full(self_contract(tensor_product(ket0(), plus_state()), 0, 1))
    d = materialize(t)
    assert abs(d.arr[()] - 1 / math.sqrt(2)) < 1e-12
    assert d.exact[()] == (Fraction(1, 2), Fraction(0))


def test_gauss_sum_values():
    # over Z2 with the |Y> phase: 1 + i
    m2, ph = gauss_sum(Zk(2), *quad_values(QuadCoeff(Zk(2), T, 1, 0)))
    assert m2 == 2 and ph == Fraction(1, 8)
    # over Z4 with g^2/4-style phase (h2 = 1 means weight 1/8 * g^2 ... )
    m2, ph = gauss_sum(Zk(4), *quad_values(QuadCoeff(Zk(4), T, 1, 0)))
    assert m2 == 4
    with pytest.raises(Degenerate):
        gauss_sum(Zk(4), *quad_values(QuadCoeff(Zk(4), T, 2, 0)))


def test_gauss_sum_magnitudes_up_to_12():
    for k in range(1, 13):
        for h2 in range(2 * k if k % 2 == 0 else k):
            for h1 in range(max(k // 2, 1) if k % 2 == 0 else k):
                q = QuadCoeff(Zk(k), T, h2, h1)
                from qtensor.coeff import quad_to_bilinear

                if math.gcd(int(quad_to_bilinear(q).value), k) != 1:
                    continue
                total = sum(cmath.exp(2j * math.pi * float(__import__("qtensor.coeff",
                            fromlist=["quad_apply"]).quad_apply(q, g))) for g in range(k))
                m2, ph = gauss_sum(Zk(k), *quad_values(q))
                assert m2 == k
                assert abs(abs(total) - math.sqrt(k)) < 1e-9


def test_zero_tensor_propagates():
    G = parse_product("Z2")
    z = QTensorData.zero(G)
    t = random_qtensor(G, random.Random(1))
    tp = tensor_product(z, t)
    assert tp.is_zero
    assert np.allclose(materialize(tp).arr, 0)


def test_destructive_contraction_gives_zero():
    # <0|1> = 0: two point tensors with mismatched offsets
    G = parse_product("Z2")
    E = GroupProduct()
    k0 = QTensorData(G, E, LinearFnData(E, G, G.element([0]), [[]]),
                     QuadraticFnData.zero(E))
    k1 = QTensorData(G, E, LinearFnData(E, G, G.element([1]), [[]]),
                     QuadraticFnData.zero(E))
    t = self_contract(tensor_product(k0, k1), 0, 1)
    assert t.is_zero


def _fibre_entry(t: QTensorData, g) -> complex:
    """T(g) summed over the fibre eps^-1(g), which must be finite."""
    from qtensor.functions import hom_data
    from qtensor.solve import kernel_of_hom, solve_hom

    if t.is_zero:
        return 0j
    lin = hom_data(t.E, t.G, t.eps.eps1)
    e0 = solve_hom(lin, t.G.element([Gi.normalize(x - c)
                                     for Gi, x, c in zip(t.G, g, t.eps.eps0)]))
    if e0 is None:
        return 0j
    pres = kernel_of_hom(lin)
    total = 0j
    for k in pres.group.enumerate():
        e = t.E.add(e0, pres.inclusion(k))
        a, ph = t.q.eval(e)
        mag = math.sqrt(float(t.mag2)) if t.mag2 is not None else math.exp(2 * math.pi * float(a))
        total += mag * cmath.exp(2j * math.pi * float(ph))
    return total


def test_reduce_over_mixed_finite_and_integer_quotient():
    # E = Z x Z4 -> G = Z x Z2, (n, a) -> (n, a mod 2): reducing the order-2
    # kernel leaves a quotient with a Z2 and a Z factor, joined by the
    # image of the Z-Z4 cross cell
    E = parse_product("Z,Z4")
    G = parse_product("Z,Z2")
    eps = LinearFnData(E, G, G.identity(), [[HomCoeff(E[0], G[0], 1), HomCoeff(E[1], G[0], 0)],
                                            [HomCoeff(E[0], G[1], 0), HomCoeff(E[1], G[1], 1)]])
    crossed = 0
    for c in range(4):
        for h2 in (0, 2, 4, 6):
            for h1 in (0, 1):
                q = QuadraticFnData.zero(E)
                q.phi1[0] = QuadCoeff(E[0], T, Fraction(1, 3), Fraction(1, 5))
                q.phi1[1] = QuadCoeff(E[1], T, h2, h1)
                q.set_cell("phi", 0, 1, Hom2Coeff(E[0], E[1], T, c))
                t = QTensorData(G, E, eps, q)
                red = reduce_full(t)
                if not red.is_zero:
                    assert sorted(f.kind for f in red.E) == ["Z", "Zk"], red.E
                    assert [f.k for f in red.E if f.kind == "Zk"] == [2]
                    crossed += bool(red.q.phi2)
                for n in range(-3, 4):
                    for b in range(2):
                        want = _fibre_entry(t, (n, b))
                        got = _fibre_entry(red, (n, b))
                        assert abs(got - want) < 1e-9, (c, h2, h1, n, b, got, want)
    assert crossed


def _z101_mirror():
    """|0> on one Z101 register and the gates F P F, then their inverse: a
    qudit mirror that returns |0> exactly."""
    from qtensor.net import build_gate

    d = 101
    F = build_gate("F", [], [f"Z{d}"] * 2)
    P = QTensorData(parse_product(f"Z{d},Z{d}"), parse_product(f"Z{d}"),
                    LinearFnData(parse_product(f"Z{d}"), parse_product(f"Z{d},Z{d}"), (0, 0),
                                 [[HomCoeff(Zk(d), Zk(d), 1)]] * 2),
                    QuadraticFnData(parse_product(f"Z{d}"), phi1=[QuadCoeff(Zk(d), T, 7, 0)]))
    ket = QTensorData(parse_product(f"Z{d}"), GroupProduct(),
                      LinearFnData(GroupProduct(), parse_product(f"Z{d}"), (0,), [[]]),
                      QuadraticFnData.zero(GroupProduct()))
    P_inv = QTensorData(P.G, P.E, P.eps, -P.q)
    return ket, (F, P, F) + (F, F, F, P_inv, F, F, F)


def _counted(calls, key, fn):
    """fn, counting its calls in calls[key]."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_reductions_do_not_sample_functions(monkeypatch):
    # on the Z101 mirror a reduction may evaluate q and eps at the shift it
    # solves for, but not at every point of Z101
    calls = {"eval": 0, "eps": 0, "steps": 0}
    monkeypatch.setattr(QuadraticFnData, "eval", _counted(calls, "eval", QuadraticFnData.eval))
    monkeypatch.setattr(LinearFnData, "__call__", _counted(calls, "eps", LinearFnData.__call__))
    # every step of reduce_full passes once through one of these
    for name in ("_reduce_zero", "_reduce_invertible", "_reduce_real"):
        monkeypatch.setattr(engine, name, _counted(calls, "steps", getattr(engine, name)))
    t, gates = _z101_mirror()
    steps = 0
    for gate in gates:
        t = self_contract(tensor_product(t, gate), 0, 1)
        calls.update(eval=0, eps=0, steps=0)
        t = engine.reduce_full(t)
        assert calls["eval"] <= calls["steps"] + 1, calls
        # reduce_zero evaluates eps at e0 and rho at 1, and each of its two
        # solve_hom calls evaluates its map twice
        assert calls["eps"] <= 6 * calls["steps"], calls
        steps += calls["steps"]
    # the mirror returns |0> exactly
    assert steps >= 5 and len(t.E) == 0 and t.mag2 == 1 and t.q.phi0 == 0


def test_each_reduction_step_checks_and_pulls_back_rho_once(monkeypatch):
    """Every step of reduce_full checks rho against eps^(1) once and
    precomposes q with it once, over the Z101 mirror and over a chain of
    two-mode Gaussian gates (rotations and squeezers on each mode, then a
    beam splitter)."""
    from qtensor import net
    from test_gaussian_outputs import _chain, _rot

    calls = dict(check=0, precompose=0, steps=0, invertible=0, real=0)
    monkeypatch.setattr(engine, "_check_rho_in_kernel",
                        _counted(calls, "check", engine._check_rho_in_kernel))
    monkeypatch.setattr(QuadraticFnData, "precompose",
                        _counted(calls, "precompose", QuadraticFnData.precompose))
    monkeypatch.setattr(engine, "_reduce_step", _counted(calls, "steps", engine._reduce_step))
    monkeypatch.setattr(engine, "_reduce_invertible",
                        _counted(calls, "invertible", engine._reduce_invertible))
    monkeypatch.setattr(engine, "_reduce_real", _counted(calls, "real", engine._reduce_real))
    seen = []

    def reduce_full(t):
        calls.update(check=0, precompose=0, steps=0)
        out = engine.reduce_full(t)
        assert calls["check"] == calls["precompose"] == calls["steps"], calls
        seen.append(calls["steps"])
        return out

    t, gates = _z101_mirror()
    for gate in gates:
        t = reduce_full(self_contract(tensor_product(t, gate), 0, 1))
    assert sum(seen) >= 5 and calls["invertible"] >= 2, (seen, calls)
    monkeypatch.setattr(net, "reduce_full", reduce_full)
    seen.clear()
    c, s = math.cos(0.7), math.sin(0.7)
    splitter = np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, s, c]])
    Ls = []
    for theta, r in ((0.5, 0.3), (0.9, -0.2), (0.4, 0.4)):
        # each mode rotated by theta and squeezed, then the two mixed
        L = np.diag([math.exp(r), math.exp(-r / 2), math.exp(-r), math.exp(r / 2)])
        for j in range(2):
            L[[j, j + 2], :] = _rot(theta) @ L[[j, j + 2], :]
        Ls.append(splitter @ L)
    assert len(_chain(Ls).E) == 4
    assert sum(seen) >= 4 and calls["real"] >= 4, (seen, calls)


def _count_quotients(monkeypatch):
    """Counters of the Smith forms and of the ``quotient_by_subgroup`` calls
    that ``engine._quotient`` makes."""
    calls = {"snf": 0, "quotient": 0}
    monkeypatch.setattr(solve, "smith_normal_form",
                        _counted(calls, "snf", solve.smith_normal_form))
    monkeypatch.setattr(engine, "quotient_by_subgroup",
                        _counted(calls, "quotient", engine.quotient_by_subgroup))
    return calls


def _sums_to_quotient(t, got, order):
    """Whether t sums to |K| times its quotient ``got`` by a subgroup K of order ``order``."""
    return np.allclose(materialize(t).arr, order * materialize(got).arr, atol=1e-9)


def test_quotient_drops_a_unit_pivot_per_generator(monkeypatch):
    """A subgroup of E = O x P generated by g_c, from P_c = Z_k or Z, with a
    unit on P_c, 0 on the rest of P and no unit on a factor of O of its own
    group, is quotiented by dropping P, with no Smith form.  The generators
    handed over are mixed, each plus multiples of the earlier ones of its
    group, so a later one finds its pivot only once projected.  q and eps,
    pulled back from O through the projection that kills the subgroup, come
    back as they were; on a finite E, t sums to |K| times the quotient.  O
    mixes Z2, Z3, Z6, Z, T and R."""
    from qtensor.coeff import image_group

    calls = _count_quotients(monkeypatch)
    rng = random.Random(17)
    seen = {"gens": set(), "finite": 0, "continuous": 0, "projected": 0}
    for _ in range(300):
        # mostly one group for P, so that P and O share groups often
        kinds = rng.choice([[Zk(2), Zk(3), Zk(6), Z], [Zk(6)], [Z]])
        P = GroupProduct([rng.choice(kinds) for _ in range(rng.randrange(4))])
        O = GroupProduct(sorted((rng.choice(2 * kinds + [Zk(2), Zk(3), T, R])
                                 for _ in range(rng.randrange(4))),
                                key=lambda f: "ZTR".index(f.kind[0])))
        E, m = O * P, len(O)
        g = [list(row) for row in random_hom(P, E, rng).img]
        u = []
        for c, A in enumerate(P):
            units = [x for x in range(A.k) if math.gcd(x, A.k) == 1] if A.kind == "Zk" else [1, -1]
            others = [x for x in range(1, A.k) if x not in units] if A.kind == "Zk" else [2, -2, 3, -3]
            for j, Ej in enumerate(E):
                if j == m + c:
                    g[j][c] = rng.choice(units)
                elif j >= m:
                    g[j][c] = 0
                elif Ej is A:
                    g[j][c] = rng.choice(others or [0])
            u.append(pow(g[m + c][c], -1, A.k) if A.kind == "Zk" else g[m + c][c])
        img = [list(row) for row in g]
        for c, A in enumerate(P):
            for c0 in range(c):
                if P[c0] is A:
                    # a multiple that puts a unit on a factor of O of this group, if one does
                    ns = list(range(1, A.k)) if A.kind == "Zk" else [1, -1, 2]
                    n = next((n for n in ns if engine._pivot(
                        O, A, [row[c] + n * row[c0] for row in img[:m]]) is not None), rng.choice(ns))
                    for j, Ej in enumerate(E):
                        img[j][c] = image_group(A, Ej).normalize(img[j][c] + n * img[j][c0])
        rho = LinearFnData.of_images(P, E, E.identity(), img)
        # unprojected, a handed-over generator would find its pivot on O
        seen["projected"] += any(E[j] is A and engine._pivot(O, A, [row[c] for row in img[:m]]) == j
                                 for c, A in enumerate(P) for j in range(m))
        # e -> e_j - sum_c u_c e_c g_jc on the factors j of O
        proj = LinearFnData.of_images(E, O, O.identity(), [
            [image_group(E[l], Oj).normalize(int(l == j) if l < m else -u[l - m] * g[j][l - m])
             for l in range(len(E))] for j, Oj in enumerate(O)])
        H = parse_product("Z2,Z3,Z6" if E.finite else "Z2,Z3,Z6,T,R")
        q_O, eps_O = mixed_quadratic(O, rng), mixed_hom(O, H, rng)
        t = QTensorData(H, E, eps_O.compose_hom(proj), q_O.precompose(proj))
        calls.update(snf=0, quotient=0)
        got = engine._quotient(t, rho)
        assert calls == {"snf": 0, "quotient": 0} and got.E == O, (P, O, img)
        assert repr(got.q) == repr(q_O) and repr(got.eps) == repr(eps_O), (P, O, img)
        if E.finite and E.order <= 1296:
            assert _sums_to_quotient(t, got, P.order), (P, O, img)
            seen["finite"] += 1
        seen["gens"].add(len(P))
        seen["continuous"] += any(f.kind in ("T", "R") for f in O)
    assert seen.pop("gens") == {0, 1, 2, 3} and min(seen.values()) > 10, seen


def test_kernel_quotients_sum_to_the_tensor(monkeypatch):
    """E = Z2/Z3/Z4/Z6 mixes quotiented by the kernel of f: E -> F, with
    eps = f + eps0 and q = r o f: t sums to |K| times the quotient.  A
    Smith form runs only where ``quotient_by_subgroup`` does, for a
    generator left without a pivot."""
    calls = _count_quotients(monkeypatch)
    rng = random.Random(41)
    taken = {0: 0, 1: 0}
    for _ in range(80):
        E = GroupProduct([rng.choice([Zk(2), Zk(3), Zk(4), Zk(6)]) for _ in range(rng.randint(1, 4))])
        F = GroupProduct([rng.choice([Zk(2), Zk(3), Zk(6)]) for _ in range(rng.randint(1, 2))])
        f = random_hom(E, F, rng)
        K = solve.kernel_of_hom(f)
        eps = LinearFnData.of_images(E, F, F.element([rng.randrange(x.k) for x in F]), f.img)
        t = QTensorData(F, E, eps, mixed_quadratic(F, rng).precompose(f))
        calls.update(snf=0, quotient=0)
        got = engine._quotient(t, K.inclusion)
        assert (calls["snf"] > 0) == (calls["quotient"] == 1), (E, f.img)
        assert _sums_to_quotient(t, got, K.group.order), (E, f.img)
        taken[calls["quotient"]] += 1
    assert min(taken.values()) > 5, taken


@pytest.mark.parametrize("E, K, img, F, f", [
    # Z2 -> Z2 x Z6 with image (0, 3): no unit on the Z2 factor
    ("Z2,Z6", "Z2", [[0], [3]], "Z2,Z3", [[1, 0], [0, 1]]),
    # Z3 -> Z9 with image 3
    ("Z9", "Z3", [[3]], "Z3", [[1]]),
    # (0, 1) drops the Z2 factor; (2, 1) then projects to (2, 0), with no Z2 left
    ("Z4,Z2", "Z2,Z2", [[0, 2], [1, 1]], "Z2", [[1, 0]]),
])
def test_a_generator_without_a_pivot_takes_the_smith_quotient(monkeypatch, E, K, img, F, f):
    calls = _count_quotients(monkeypatch)
    E, K, F = parse_product(E), parse_product(K), parse_product(F)
    f = LinearFnData.of_images(E, F, F.identity(), f)
    t = QTensorData(F, E, f, mixed_quadratic(F, random.Random(3)).precompose(f))
    got = engine._quotient(t, LinearFnData.of_images(K, E, E.identity(), img))
    assert calls["quotient"] == 1 and calls["snf"] > 0
    assert _sums_to_quotient(t, got, K.order)


def test_gauss_sum_closed_form_against_brute_force():
    """Every nondegenerate (h2, h1) on Z_k for k <= 64: the exact phase of
    the closed form is the brute-force sum's phase, snapped to a fraction
    with denominator at most 8k, and the magnitude is sqrt(k)."""
    import numpy as np

    from qtensor.coeff import quad_apply, quad_group

    for k in range(1, 65):
        g2, g1 = quad_group(Zk(k), T)
        pairs = np.array([(h2, h1) for h2 in range(g2.k) for h1 in range(g1.k)])
        h2, h1, g = pairs[:, :1], pairs[:, 1:], np.arange(k)
        # quad_apply on Z_k -> T, for every pair and every point at once
        if k % 2 == 0:
            num, den = (h2 * g * g + 2 * h1 * (g - g * g)) % (2 * k), 2 * k
            bil = (h2[:, 0] - 2 * h1[:, 0]) % k
        else:
            num, den = ((h2 * ((k + 1) // 2) % k) * g * g + h1 * g) % k, k
            bil = h2[:, 0] % k
        for row, (a, b) in zip(num[:5], pairs[:5]):
            q = QuadCoeff(Zk(k), T, int(a), int(b))
            assert [Fraction(int(n), den) for n in row] == [quad_apply(q, x) for x in range(k)]
        sums = np.exp(2j * np.pi * num / den).sum(axis=1)
        for (a, b), total, bv in zip(pairs, sums, bil):
            q = QuadCoeff(Zk(k), T, int(a), int(b))
            if math.gcd(int(bv), k) != 1:
                with pytest.raises(Degenerate):
                    gauss_sum(Zk(k), *quad_values(q))
                continue
            m2, ph = gauss_sum(Zk(k), *quad_values(q))
            assert m2 == k and abs(abs(total) - math.sqrt(k)) < 1e-9
            brute = Fraction(cmath.phase(total) / (2 * math.pi)).limit_denominator(8 * k) % 1
            assert ph == brute, (k, a, b, ph, brute)


# ---------------------------------------------------------------------------
# a unit-pivot substitution and the rank-one update of the invertible
# reduction rewrite values in place; both must give what the general
# composition gives, value types included


def _substitution_systems(rng):
    """The one-row systems of the solver's tests, then rows over columns
    that include Z1."""
    yield from one_row_systems(random.Random(11))
    for _ in range(80):
        sig = rng.choice(["Z6", "Z2", "Z3", "Z"])
        E = parse_product(",".join([sig, "Z1"] + [rng.choice(["Z1", "Z2", "Z3", "Z6", "Z", "T", "R"])
                                                  for _ in range(rng.randrange(3))]))
        yield random_hom(GroupProduct(rng.sample(E.factors, len(E))), parse_product(sig), rng)


def _paired_with_pivot(q, p):
    """The kinds of the factors with a nonzero cell against factor p."""
    return {q.domain[m].kind for part in ("a", "phi") for m, b in enumerate(q.mat[part][p])
            if b and m != p}


def _entries(f):
    """(group, value) for every value of a linear or quadratic function."""
    if isinstance(f, LinearFnData):
        yield from zip(f.codomain, f.eps0)
        for Ci, row in zip(f.codomain, f.img):
            yield from ((image_group(Dj, Ci), x) for Dj, x in zip(f.domain, row))
        return
    D = f.domain
    yield from ((R, f.a0), (T, f.phi0))
    for part, A in (("a", R), ("phi", T)):
        yield from ((image_group(Dk, A), v) for Dk, v in zip(D, f.vec[part]))
        for Dk, row in zip(D, f.mat[part]):
            yield from ((cell_group(Dk, Dl, A), b) for Dl, b in zip(D, row))


def _assert_close(got, want):
    """got and want have one domain and agree to 1e-12 (mod 1 in T) on
    every value, each value exact in both or a float in both."""
    assert got.domain == want.domain
    pairs = list(zip(_entries(got), _entries(want)))
    assert len(pairs) == len(list(_entries(want)))
    for (grp, x), (_, y) in pairs:
        assert isinstance(x, float) == isinstance(y, float), (grp, x, y)
        d = abs(float(x) - float(y))
        if grp is T:
            d = min(d % 1, -d % 1)
        assert d < 1e-12, (grp, x, y)


def test_substitution_rewrites_match_the_general_composition():
    rng = random.Random(5)
    seen = dict(sigma=0, moved=0, z1=0, continuous=0, paired_continuous=0, float_read=0,
                float_elsewhere=0)
    for row in _substitution_systems(rng):
        E, G = row.domain, row.codomain
        targets = list(G.enumerate()) if G.finite else [(0,), (1,), (-2,)]
        for g in rng.sample(targets, min(3, len(targets))):
            found = solve._substitute(row, g)
            if found is None:
                continue
            shift, sub = found
            kappa = sub.inclusion
            H = GroupProduct([rng.choice([Zk(2), Zk(3), Zk(6), Z, T, R])
                              for _ in range(rng.randrange(3))] + [T, R])
            eps, q = mixed_hom(E, H, rng), mixed_quadratic(E, rng)
            assert repr(eps.substitute(sub)) == repr(eps.compose_affine(kappa, shift)), (E, g)
            assert repr(q.substitute(sub)) == repr(q.precompose_affine(kappa, shift)), (E, g, q)
            seen["sigma"] += sub.sigma != 0
            seen["moved"] += bool(sub.moved)
            seen["z1"] += any(f is Zk(1) for f in E)
            seen["continuous"] += any(f.kind in ("T", "R") for f in E)
            seen["paired_continuous"] += bool(_paired_with_pivot(q, sub.p) & {"T", "R"})
            # with a float, read by the rewrite or not, it agrees with the
            # general composition to 1e-12, value types included
            general = solve.KernelPresentation(sub.group, kappa)
            for eps_f, q_f, read in _with_a_float(eps, q, sub):
                t = QTensorData(H, E, eps_f, q_f)
                got = engine._restrict_to_coset(t, shift, sub)
                want = engine._restrict_to_coset(t, shift, general)
                _assert_close(got.eps, want.eps)
                _assert_close(got.q, want.q)
                seen["float_read" if read else "float_elsewhere"] += 1
    assert min(seen.values()) > 20, seen


def _with_a_float(eps, q, sub):
    """(eps', q', whether the substitution reads the float) for copies of
    eps and q with one value made a float: the constant of an eps row over
    T or R, read when the row has an entry at p; a phase value of q on p,
    read when nonzero, or on a moved factor, read; a cell of q against p,
    read; and a phase value on a Z_k factor that is not moved and has no
    cell against p, not read."""
    E, H, p = eps.domain, eps.codomain, sub.p
    for i in range(len(H)):
        if H[i].kind in ("T", "R"):
            eps0 = list(eps.eps0)
            eps0[i] = 0.25
            yield LinearFnData.of_images(E, H, tuple(eps0), eps.img), q, eps.img[i][p] != 0
    moved = {l for _, l, _ in sub.moved}
    paired = {m for part in ("a", "phi") for m, b in enumerate(q.mat[part][p]) if b}
    for k in range(len(E)):
        if k == p and q.vec["phi"][p] or k in moved or (
                E[k].kind == "Zk" and k not in moved | paired | {p}):
            q_f = q.copy()
            q_f.vec["phi"][k] = float(q_f.vec["phi"][k] or Fraction(1, max(E[k].k, 2)))
            yield eps, q_f, k == p or k in moved
        if k != p and isinstance(q.mat["phi"][p][k], Fraction) and q.mat["phi"][p][k]:
            q_f = q.copy()
            q_f.mat["phi"][p][k] = q_f.mat["phi"][k][p] = float(q.mat["phi"][p][k])
            yield eps, q_f, True


def test_rank_one_update_matches_q_minus_its_pullback():
    rng = random.Random(23)
    seen = {"read": 0, "elsewhere": 0}
    for _ in range(300):
        A = GroupProduct([Zk(rng.choice([2, 3, 4, 6]))])
        E = GroupProduct([rng.choice([Zk(2), Zk(3), Zk(4), Zk(6), Z])
                          for _ in range(rng.randint(1, 4))])
        q, r = mixed_quadratic(E, rng), mixed_quadratic(A, rng)
        phi = mixed_hom(E, A, rng)
        p = r.precompose(phi)
        p.a0, p.phi0 = 0, 0
        got = q.minus_pullback(phi.img[0], r.vec["phi"][0], r.mat["phi"][0][0])
        assert repr(got) == repr(q - p), (E, A, phi.img, r)
        # with a float, on phi's support or off it, in q or in r, the update
        # agrees with the difference to 1e-12, value types included
        for j, f in enumerate(phi.img[0]):
            q_f = q.copy()
            q_f.vec["phi"][j] = float(q_f.vec["phi"][j] or Fraction(1, 4))
            _assert_close(q_f.minus_pullback(phi.img[0], r.vec["phi"][0], r.mat["phi"][0][0]),
                          q_f - p)
            seen["read" if f else "elsewhere"] += 1
        q_f, r_f = q.copy(), r.copy()
        q_f.a0, r_f.vec["phi"][0] = 0.25, float(r.vec["phi"][0] or Fraction(1, 4))
        p_f = r_f.precompose(phi)
        p_f.a0, p_f.phi0 = 0, 0
        _assert_close(q_f.minus_pullback(phi.img[0], r_f.vec["phi"][0], r.mat["phi"][0][0]),
                      q_f - p_f)
    assert min(seen.values()) > 50, seen


def test_rewrites_leave_contractions_unchanged(monkeypatch):
    """Random contractions and full reductions give the same tensors, value
    types included, as with the general composition in place of the
    substitution and the rank-one update."""
    rng = random.Random(31)
    cases = []
    for _ in range(40):
        d = rng.choice([2, 3, 4, 6])
        t = random_qtensor(GroupProduct([Zk(d), Zk(rng.choice([2, 3]))]), rng, max_e=3)
        u = random_qtensor(GroupProduct([Zk(d), Zk(rng.choice([2, 3, 6]))]), rng, max_e=3)
        cases.append((t, u))

    def run():
        out = []
        for t, u in cases:
            c = self_contract(tensor_product(t, u), 0, 2)
            out.append(repr(c) + repr(reduce_full(c)))
        return out

    def general_restrict(t, shift, pres):
        kappa = pres.inclusion
        return QTensorData(t.G, pres.group, t.eps.compose_affine(kappa, shift),
                           t.q.precompose_affine(kappa, shift), t.div_weight, t.mag2)

    def general_invertible(t, rho, qres, reduce=engine._reduce_invertible):
        # q - q o gamma for gamma = rho o phi, with phi: E -> A of the update
        def minus_pullback(q, phi, v, b):
            A1 = rho.domain
            p = q.precompose(rho.compose_hom(LinearFnData.of_images(q.domain, A1, A1.identity(),
                                                                    [phi])))
            p.a0, p.phi0 = 0, 0
            return q - p

        with monkeypatch.context() as m:
            m.setattr(QuadraticFnData, "minus_pullback", minus_pullback)
            return reduce(t, rho, qres)

    fast = run()
    monkeypatch.setattr(engine, "_restrict_to_coset", general_restrict)
    monkeypatch.setattr(engine, "_reduce_invertible", general_invertible)
    assert run() == fast
