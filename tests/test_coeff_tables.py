"""Exhaustive pointwise verification of the coefficient tables.

Finite parameters run over all k, l, m <= 8; infinite groups are sampled
on exact rational points so every comparison is exact.
"""

from fractions import Fraction
from itertools import product

import pytest

from qtensor.groups import ElementaryGroup, R, T, Z, Z1, Zk
from qtensor.coeff import (
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    compose,
    dual,
    hom2_apply,
    hom2_group,
    hom2s_apply,
    hom2s_group,
    hom_apply,
    hom_fit,
    hom_from_image,
    hom_group,
    hom_of_image,
    lam,
    linear_as_quad,
    omega_cocycle,
    phi,
    quad_add,
    quad_apply,
    quad_fit,
    quad_group,
    quad_to_bilinear,
    quad_values,
    standard_quad_value,
)

KMAX = 8

FINITE = [Zk(k) for k in range(1, KMAX + 1)]
ALL_GROUPS = FINITE + [Z, T, R]


def elems(G: ElementaryGroup):
    """Sample points; exhaustive for finite groups."""
    if G.kind == "Zk":
        return [Fraction(v) for v in range(G.k)]
    if G.kind == "Z":
        return [Fraction(v) for v in range(-3, 4)]
    if G.kind == "T":
        return [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5, 8)]
    return [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(7, 4)]


def coeffs(grp: ElementaryGroup):
    """Sample coefficient values; exhaustive for finite groups."""
    if grp.kind == "Zk":
        return [Fraction(v) for v in range(grp.k)]
    if grp.kind == "Z":
        return [Fraction(v) for v in range(-2, 4)]
    if grp.kind == "T":
        return [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)]
    return [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3)]


def hom_pairs():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and (G.k > KMAX or A.k > KMAX):
                continue
            yield G, A


def test_hom_apply_is_homomorphism():
    for G, A in hom_pairs():
        for c in coeffs(hom_group(G, A)):
            h = HomCoeff(G, A, c)
            for g in elems(G):
                for gp in elems(G):
                    lhs = hom_apply(h, G.add(g, gp))
                    rhs = A.normalize(hom_apply(h, g) + hom_apply(h, gp))
                    assert A.eq(lhs, rhs), (G, A, c, g, gp)


def test_hom_iso_injective_finite():
    for G in FINITE:
        for A in FINITE + [T]:
            seen = {}
            for c in coeffs(hom_group(G, A)):
                h = HomCoeff(G, A, c)
                table = tuple(hom_apply(h, g) for g in range(G.k))
                assert table not in seen, (G, A, c, seen[table])
                seen[table] = c


def test_hom_apply_examples():
    assert hom_apply(HomCoeff(Zk(2), T, 1), 1) == Fraction(1, 2)
    assert hom_apply(HomCoeff(Z, Zk(5), 3), 2) == Fraction(1)
    assert hom_apply(HomCoeff(Zk(4), Zk(6), 0), 3) == 0
    assert hom_group(Zk(2), T) == Zk(2)
    assert hom_group(Zk(4), Zk(6)) == Zk(2)
    assert hom_group(T, R) == Z1


def test_hom2_is_bilinear():
    for G0, G1, A in product(FINITE[:4] + [Z, T, R], repeat=3):
        grp = hom2_group(G0, G1, A)
        for c in coeffs(grp):
            h = Hom2Coeff(G0, G1, A, c)
            for g0, g0p, g1 in product(elems(G0)[:3], elems(G0)[:3], elems(G1)[:3]):
                lhs = hom2_apply(h, G0.add(g0, g0p), g1)
                rhs = A.normalize(hom2_apply(h, g0, g1) + hom2_apply(h, g0p, g1))
                assert A.eq(lhs, rhs), (G0, G1, A, c)
            for g0, g1, g1p in product(elems(G0)[:3], elems(G1)[:3], elems(G1)[:3]):
                lhs = hom2_apply(h, g0, G1.add(g1, g1p))
                rhs = A.normalize(hom2_apply(h, g0, g1) + hom2_apply(h, g0, g1p))
                assert A.eq(lhs, rhs), (G0, G1, A, c)


def test_hom2_examples():
    assert hom2_apply(Hom2Coeff(Zk(2), Zk(2), T, 1), 1, 1) == Fraction(1, 2)
    h = Hom2Coeff(Z, Z, R, Fraction(5, 2))
    assert hom2_apply(h, 2, 3) == Fraction(15)
    assert hom2_apply(Hom2Coeff(Zk(3), Zk(6), T, 0), 2, 5) == 0


def test_hom2_transpose_matches():
    for G0, G1 in product(FINITE[:5] + [Z, T, R], repeat=2):
        for A in [T, R]:
            grp = hom2_group(G0, G1, A)
            assert grp == hom2_group(G1, G0, A)
            for c in coeffs(grp)[:3]:
                h = Hom2Coeff(G0, G1, A, c)
                ht = h.transpose()
                for g0, g1 in product(elems(G0)[:3], elems(G1)[:3]):
                    assert A.eq(hom2_apply(h, g0, g1), hom2_apply(ht, g1, g0))


def third_derivative_vanishes(G, A, q):
    for g0, g1, g2 in product(elems(G)[: min(4, len(elems(G)))], repeat=3):
        d3 = (
            quad_apply(q, G.add(G.add(g0, g1), g2))
            - quad_apply(q, G.add(g0, g1))
            - quad_apply(q, G.add(g0, g2))
            - quad_apply(q, G.add(g1, g2))
            + quad_apply(q, g0)
            + quad_apply(q, g1)
            + quad_apply(q, g2)
        )
        if not A.eq(A.normalize(d3), 0):
            return False
    return True


def quad_coeff_samples(G, A, limit=None):
    g2grp, g1grp = quad_group(G, A)
    combos = list(product(coeffs(g2grp), coeffs(g1grp)))
    return combos[:limit] if limit else combos


def test_quad_apply_is_quadratic():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            for h2, h1 in quad_coeff_samples(G, A, limit=12):
                q = QuadCoeff(G, A, h2, h1)
                assert third_derivative_vanishes(G, A, q), (G, A, h2, h1)
                assert A.eq(quad_apply(q, G.normalize(0)), 0)


def test_quad_iso_injective_finite():
    for G in FINITE:
        for A in FINITE + [T]:
            seen = {}
            for h2, h1 in quad_coeff_samples(G, A):
                q = QuadCoeff(G, A, h2, h1)
                table = tuple(quad_apply(q, g) for g in range(G.k))
                key = (q.h2, q.h1)
                if table in seen:
                    assert seen[table] == key, (G, A, table)
                else:
                    seen[table] = key


def test_quad_counts_z2_z3():
    z2 = {tuple(quad_apply(QuadCoeff(Zk(2), T, h2, h1), g) for g in range(2))
          for h2 in range(4) for h1 in range(1)}
    assert z2 == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(0), Fraction(3, 4)),
    }
    z3 = {tuple(quad_apply(QuadCoeff(Zk(3), T, h2, h1), g) for g in range(3))
          for h2 in range(3) for h1 in range(3)}
    expected = {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(2, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(0), Fraction(2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(2, 3), Fraction(0)),
    }
    assert z3 == expected


def test_quad_apply_paper_values():
    assert quad_apply(QuadCoeff(Zk(2), T, 1, 0), 1) == Fraction(1, 4)
    assert quad_apply(QuadCoeff(Zk(3), T, 2, 0), 2) == Fraction(1, 3)
    assert quad_apply(QuadCoeff(Zk(6), T, 0, 0), 4) == 0


def test_quad_to_bilinear_matches_second_derivative():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            for h2, h1 in quad_coeff_samples(G, A, limit=10):
                q = QuadCoeff(G, A, h2, h1)
                b = quad_to_bilinear(q)
                for g, gp in product(elems(G)[:4], repeat=2):
                    d2 = A.normalize(
                        quad_apply(q, G.add(g, gp)) - quad_apply(q, g) - quad_apply(q, gp)
                    )
                    assert A.eq(hom2_apply(b, g, gp), d2), (G, A, h2, h1, g, gp)


def test_quad_to_bilinear_examples():
    assert quad_to_bilinear(QuadCoeff(Zk(2), T, 1, 0)).value == 1
    q = QuadCoeff(Zk(5), T, 3, 1)
    assert quad_to_bilinear(q).value == 3
    assert quad_to_bilinear(QuadCoeff(Zk(4), T, 0, 0)).is_zero()


def test_linear_as_quad_pointwise():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            for c in coeffs(hom_group(G, A))[:8]:
                h = HomCoeff(G, A, c)
                q = linear_as_quad(h)
                for g in elems(G):
                    assert A.eq(quad_apply(q, g), hom_apply(h, g)), (G, A, c, g)
                if A is T:
                    # the homomorphism is read back from the value v of q
                    assert hom_of_image(G, A, quad_values(q)[0]).value == h.value


def test_linear_as_quad_examples():
    q = linear_as_quad(HomCoeff(Zk(2), T, 1))
    assert (q.h2, q.h1) == (2, 0)
    q = linear_as_quad(HomCoeff(Zk(5), T, 2))
    assert (q.h2, q.h1) == (0, 2)
    assert linear_as_quad(HomCoeff(Zk(6), T, 0)).is_zero()


def test_quad_add_pointwise():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 20:
                continue
            combos = quad_coeff_samples(G, A, limit=6)
            for (a2, a1), (b2, b1) in product(combos, repeat=2):
                qa = QuadCoeff(G, A, a2, a1)
                qb = QuadCoeff(G, A, b2, b1)
                qs = quad_add(qa, qb)
                for g in elems(G)[:5]:
                    lhs = quad_apply(qs, g)
                    rhs = A.normalize(quad_apply(qa, g) + quad_apply(qb, g))
                    assert A.eq(lhs, rhs), (G, A, (a2, a1), (b2, b1), g)


def test_quad_add_identity_and_yy():
    z = QuadCoeff(Zk(4), T, 0, 0)
    q = QuadCoeff(Zk(4), T, 3, 1)
    assert quad_add(z, q) == q
    y = QuadCoeff(Zk(2), T, 1, 0)
    s = quad_add(y, y)
    # doubling the |Y> phase gives the Z phase g/2
    for g in range(2):
        assert quad_apply(s, g) == T.normalize(Fraction(g, 2))


def compose_triples():
    for G0 in [Z, T, R] + FINITE:
        for G1 in [Z, T, R] + FINITE:
            for G2 in [Z, T, R] + FINITE:
                ks = [g.k for g in (G0, G1, G2) if g.kind == "Zk"]
                if ks and max(ks) > KMAX:
                    continue
                yield G0, G1, G2


def test_compose_pointwise():
    for G0, G1, G2 in compose_triples():
        for a in coeffs(hom_group(G0, G1))[:6]:
            h = HomCoeff(G0, G1, a)
            for b in coeffs(hom_group(G1, G2))[:6]:
                hp = HomCoeff(G1, G2, b)
                comp = compose(h, hp)
                for g in elems(G0)[:5]:
                    lhs = hom_apply(comp, g)
                    rhs = hom_apply(hp, hom_apply(h, g))
                    assert G2.eq(G2.normalize(lhs), G2.normalize(rhs)), (G0, G1, G2, a, b, g)


def test_compose_examples():
    c = compose(HomCoeff(Z, Zk(2), 1), HomCoeff(Zk(2), T, 1))
    assert hom_apply(c, 1) == Fraction(1, 2)
    c = compose(HomCoeff(Zk(2), Zk(4), 1), HomCoeff(Zk(4), Zk(4), 2))
    assert c.value == 0
    assert compose(HomCoeff(Zk(3), Zk(6), 0), HomCoeff(Zk(6), T, 5)).is_zero()


def test_dual_pointwise():
    # dual(gamma)(c) represents the map c -> c o gamma
    for H in ALL_GROUPS:
        for G in ALL_GROUPS:
            if H.kind == "Zk" and G.kind == "Zk" and H.k * G.k > 36:
                continue
            for A in [T, Zk(4), Zk(6), Z, R]:
                for gv in coeffs(hom_group(H, G))[:5]:
                    gamma = HomCoeff(H, G, gv)
                    d = dual(gamma, A)
                    assert d.source == hom_group(G, A)
                    assert d.target == hom_group(H, A)
                    for c in coeffs(hom_group(G, A))[:5]:
                        expect = compose(gamma, HomCoeff(G, A, c))
                        got = hom_apply(d, c)
                        # both live in the coefficient group hom[H|A]
                        grp = hom_group(H, A)
                        assert grp.eq(grp.normalize(got), expect.value), (H, G, A, gv, c)


def test_dual_examples():
    assert dual(HomCoeff(Zk(2), Zk(2), 1), T).value == 1
    assert dual(HomCoeff(Z, Z, 3), Z).value == 3
    assert dual(HomCoeff(Zk(4), Zk(4), 0), T).is_zero()


def test_phi_pointwise():
    for G in ALL_GROUPS:
        for H in ALL_GROUPS:
            if G.kind == "Zk" and H.kind == "Zk" and G.k * H.k > 36:
                continue
            for A in [T, R]:
                for h2, h1 in quad_coeff_samples(G, A, limit=5):
                    q = QuadCoeff(G, A, h2, h1)
                    for gv in coeffs(hom_group(H, G))[:5]:
                        gamma = HomCoeff(H, G, gv)
                        qp = phi(q, gamma)
                        for g in elems(H)[:5]:
                            lhs = quad_apply(qp, g)
                            rhs = quad_apply(q, hom_apply(gamma, g))
                            assert A.eq(lhs, A.normalize(rhs)), (G, H, A, (h2, h1), gv, g)


def test_phi_bruteforce_discrete_targets():
    # targets Z_l via the finite-source fallback
    for G in FINITE[:6]:
        for H in FINITE[:6]:
            for A in [Zk(2), Zk(4), Zk(3), Zk(6)]:
                for h2, h1 in quad_coeff_samples(G, A, limit=4):
                    q = QuadCoeff(G, A, h2, h1)
                    for gv in coeffs(hom_group(H, G))[:4]:
                        gamma = HomCoeff(H, G, gv)
                        qp = phi(q, gamma)
                        for g in range(H.k):
                            lhs = quad_apply(qp, g)
                            rhs = quad_apply(q, hom_apply(gamma, g))
                            assert A.eq(lhs, A.normalize(rhs))


def test_phi_examples():
    q = QuadCoeff(Zk(4), T, 1, 0)
    qp = phi(q, HomCoeff(Zk(2), Zk(4), 1))
    assert (qp.h2, qp.h1) == (2, 0)
    assert phi(QuadCoeff(Zk(4), T, 1, 1), HomCoeff(Zk(2), Zk(4), 0)).is_zero()
    qr = phi(QuadCoeff(R, T, Fraction(3, 2), Fraction(1, 3)), HomCoeff(R, R, Fraction(2)))
    assert (qr.h2, qr.h1) == (Fraction(6), Fraction(2, 3))


def test_lambda_pointwise():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            for c in coeffs(hom2_group(G, G, A))[:8]:
                h = Hom2Coeff(G, G, A, c)
                q = lam(h)
                for g in elems(G)[:5]:
                    assert A.eq(quad_apply(q, g), hom2_apply(h, g, g)), (G, A, c, g)


def test_lambda_examples():
    q = lam(Hom2Coeff(Zk(2), Zk(2), T, 1))
    assert (q.h2, q.h1) == (2, 0)
    q = lam(Hom2Coeff(Z, Z, Z, 1))
    assert (q.h2, q.h1) == (2, -1)
    assert lam(Hom2Coeff(Zk(5), Zk(5), T, 0)).is_zero()


def test_standard_function_refines_bilinear():
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            for b in coeffs(hom2s_group(G, A))[:8]:
                for g, gp in product(elems(G)[:4], repeat=2):
                    d2 = A.normalize(
                        standard_quad_value(G, A, b, G.add(g, gp))
                        - standard_quad_value(G, A, b, g)
                        - standard_quad_value(G, A, b, gp)
                    )
                    assert A.eq(d2, hom2s_apply(G, A, b, g, gp)), (G, A, b, g, gp)


def test_omega_cocycle_pointwise():
    # Q0(b+b') - Q0(b) - Q0(b') is the homomorphism with coefficient Omega(b,b')
    for G in ALL_GROUPS:
        for A in ALL_GROUPS:
            if G.kind == "Zk" and A.kind == "Zk" and G.k * A.k > 36:
                continue
            grp = hom2s_group(G, A)
            for b, bp in product(coeffs(grp)[:6], repeat=2):
                om = omega_cocycle(G, A, b, bp)
                h = HomCoeff(G, A, om)
                s = grp.normalize(b + bp)
                for g in elems(G)[:5]:
                    diff = A.normalize(
                        standard_quad_value(G, A, s, g)
                        - standard_quad_value(G, A, b, g)
                        - standard_quad_value(G, A, bp, g)
                    )
                    assert A.eq(diff, hom_apply(h, g)), (G, A, b, bp, g)


def test_fit_roundtrip():
    for k in range(1, 17):
        G = Zk(k)
        for A in [T, Zk(3), Zk(4), Zk(6), Zk(8)]:
            g2grp, g1grp = quad_group(G, A)
            for h2, h1 in product(range(g2grp.k), range(g1grp.k)):
                q = QuadCoeff(G, A, h2, h1)
                fit = quad_fit(G, A, lambda g: quad_apply(q, g))
                assert (fit.h2, fit.h1) == (q.h2, q.h1), (G, A, h2, h1)
    for G in FINITE:
        for A in [T, Zk(4), Zk(5)]:
            for c in coeffs(hom_group(G, A)):
                h = HomCoeff(G, A, c)
                fit = hom_fit(G, A, lambda g: hom_apply(h, g))
                assert fit.value == h.value
    # every coefficient out of Z_k or Z comes back from the image of 1, and
    # so does every bilinear one from B(1, 1), read into hom[G1|T] and then
    # into G0 as the engine reads the finite cross cells of a section
    cyclic = [Zk(k) for k in range(1, 13)] + [Z]
    for G in cyclic:
        for A in cyclic + [T]:
            for c in coeffs(hom_group(G, A)):
                h = HomCoeff(G, A, c)
                assert hom_from_image(G, A, hom_apply(h, 1)) == h, (G, A, c)
        for G1 in cyclic:
            for c in coeffs(hom2_group(G, G1, T)):
                b = Hom2Coeff(G, G1, T, c)
                b1 = hom_from_image(G1, T, hom2_apply(b, 1, 1))
                assert Hom2Coeff(G, G1, T, hom_from_image(G, b1.group, b1.value).value) == b


def test_fit_rejects_non_quadratic_values():
    q = QuadCoeff(Zk(5), T, 3, 1)
    off_by_one_step = lambda g: quad_apply(q, g) + (Fraction(1, 5) if g == 3 else 0)
    with pytest.raises(ValueError):
        quad_fit(Zk(5), T, off_by_one_step)
    with pytest.raises(ValueError):
        quad_fit(Zk(7), T, lambda g: Fraction(g ** 3, 7))
    # images of 1 that no homomorphism out of Z_k has
    for G, A, v in [(Zk(4), Zk(6), 1), (Zk(3), T, Fraction(1, 2)), (Zk(2), Z, 1),
                    (Zk(5), R, Fraction(1, 3)), (Zk(1), Zk(3), 2), (Zk(6), T, 0.1)]:
        with pytest.raises(ValueError):
            hom_from_image(G, A, v)
        with pytest.raises(ValueError):
            hom_fit(G, A, lambda g: v * g)


def test_fit_cost_is_linear_in_k(monkeypatch):
    """One fit on Z_101 evaluates each point at most twice, whatever the coefficient."""
    import qtensor.coeff as coeff

    calls = []
    plain = coeff.quad_apply

    def counted(q, g):
        calls.append(g)
        return plain(q, g)

    monkeypatch.setattr(coeff, "quad_apply", counted)
    G = Zk(101)
    for h2 in (1, 50, 100):
        q = QuadCoeff(G, T, h2, 7)
        calls.clear()
        fit = coeff.quad_fit(G, T, lambda g: coeff.quad_apply(q, g))
        assert (fit.h2, fit.h1) == (q.h2, q.h1)
        assert len(calls) <= 2 * 101, (h2, len(calls))
