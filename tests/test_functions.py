"""Pointwise oracles for the whole-function layer: evaluation, addition,
shifts, and precomposition over finite domains."""

import random
from fractions import Fraction
from itertools import product

from qtensor.groups import GroupProduct, T, R, Zk, parse_product
from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff, hom2_group, hom_group, quad_group
from qtensor.functions import LinearFnData, QuadraticFnData, hom_data


def random_quadratic(E: GroupProduct, rng: random.Random) -> QuadraticFnData:
    m = len(E)
    q = QuadraticFnData(
        E,
        0,
        Fraction(rng.randrange(8), 8),
        [QuadCoeff(E[i], R, 0, 0) for i in range(m)],
        [
            QuadCoeff(
                E[i], T,
                rng.randrange(max(quad_group(E[i], T)[0].k, 1)),
                rng.randrange(max(quad_group(E[i], T)[1].k, 1)),
            )
            for i in range(m)
        ],
    )
    for i in range(m):
        for j in range(i + 1, m):
            grp = hom2_group(E[i], E[j], T)
            q.set_cell("phi", i, j, Hom2Coeff(E[i], E[j], T, rng.randrange(max(grp.k, 1))))
    return q


def random_hom(H: GroupProduct, E: GroupProduct, rng: random.Random) -> LinearFnData:
    cells = [
        [
            HomCoeff(H[j], E[i], rng.randrange(max(hom_group(H[j], E[i]).k, 1)))
            for j in range(len(H))
        ]
        for i in range(len(E))
    ]
    return hom_data(H, E, cells)


DOMAINS = ["Z2,Z2", "Z4", "Z2,Z4", "Z3,Z3", "Z6,Z2", "Z8"]


def test_quadratic_law_exhaustive():
    rng = random.Random(3)
    for sig in DOMAINS:
        E = parse_product(sig)
        q = random_quadratic(E, rng)
        elems = list(E.enumerate())
        for g, h in product(elems, repeat=2):
            _, lhs = q.eval(E.add(g, h))
            _, qg = q.eval(g)
            _, qh = q.eval(h)
            _, q0 = q.eval(E.identity())
            d2 = Fraction(0)
            for i in range(len(E)):
                for j in range(len(E)):
                    from qtensor.coeff import hom2_apply

                    d2 += hom2_apply(q.cell("phi", i, j), g[i], h[j])
            assert T.eq(lhs, T.normalize(qg + qh + d2 - q0)), (sig, g, h)


def test_third_derivative_vanishes():
    rng = random.Random(5)
    for sig in ["Z2,Z2", "Z4,Z2"]:
        E = parse_product(sig)
        q = random_quadratic(E, rng)
        elems = list(E.enumerate())
        for g0, g1, g2 in product(elems[:4], repeat=3):
            val = Fraction(0)
            for bits in product([0, 1], repeat=3):
                pt = E.identity()
                for b, g in zip(bits, (g0, g1, g2)):
                    if b:
                        pt = E.add(pt, g)
                sign = (-1) ** (3 - sum(bits))
                _, v = q.eval(pt)
                val += sign * v
            assert T.eq(T.normalize(val), 0)


def test_add_pointwise():
    rng = random.Random(7)
    for sig in DOMAINS:
        E = parse_product(sig)
        qa = random_quadratic(E, rng)
        qb = random_quadratic(E, rng)
        qs = qa + qb
        for e in E.enumerate():
            _, va = qa.eval(e)
            _, vb = qb.eval(e)
            _, vs = qs.eval(e)
            assert T.eq(vs, T.normalize(va + vb))


def test_add_zero_identity():
    rng = random.Random(11)
    E = parse_product("Z2,Z4")
    q = random_quadratic(E, rng)
    z = QuadraticFnData.zero(E)
    s = q + z
    for e in E.enumerate():
        assert s.eval(e) == q.eval(e)


def test_shift_pointwise():
    rng = random.Random(13)
    for sig in DOMAINS:
        E = parse_product(sig)
        q = random_quadratic(E, rng)
        elems = list(E.enumerate())
        e0 = rng.choice(elems)
        # also shifts with zero components: only the first one kept, and none
        first_only = E.element([e0[0]] + [0] * (len(E) - 1))
        for shift in (e0, first_only, E.identity()):
            qs = q.shift(shift)
            for e in elems:
                assert qs.eval(e) == q.eval(E.add(e, shift)), (sig, shift, e)


def _zero_row_and_column(gam: LinearFnData) -> LinearFnData:
    """gam with its first codomain row and its last domain column set to zero."""
    H, E = gam.domain, gam.codomain
    cells = [
        [HomCoeff(H[j], E[i], 0) if i == 0 or j == len(H) - 1 else gam.eps1[i][j]
         for j in range(len(H))]
        for i in range(len(E))
    ]
    return hom_data(H, E, cells)


def _keep_phi2_cells(q: QuadraticFnData, n: int) -> QuadraticFnData:
    """q with only its first n stored off-diagonal phase cells."""
    return QuadraticFnData(q.domain, q.a0, q.phi0, list(q.a1), list(q.phi1), {},
                           dict(list(q.phi2.items())[:n]))


def test_precompose_pointwise():
    rng = random.Random(17)
    for sigH, sigE, variant in [
        ("Z2", "Z2,Z2", None), ("Z2,Z2", "Z4", None), ("Z4,Z2", "Z2,Z4", None),
        ("Z3", "Z3,Z3", None), ("Z6", "Z2,Z3", None), ("Z2,Z2", "Z2,Z2,Z2", None),
        ("Z2,Z3", "Z6,Z2,Z3", None), ("Z2,Z2,Z2", "Z2,Z2,Z2,Z2", None),
        ("Z2,Z2,Z2", "Z2,Z2,Z2,Z2", "zero row and column"), ("Z4,Z2", "Z2,Z4", "zero row and column"),
        ("Z2,Z2,Z2", "Z2,Z2,Z2,Z2", "no phi2"), ("Z2,Z3", "Z6,Z2,Z3", "no phi2"),
        ("Z2,Z2,Z2", "Z2,Z2,Z2,Z2", "one phi2 cell"), ("Z2,Z3", "Z6,Z2,Z3", "one phi2 cell"),
    ]:
        H, E = parse_product(sigH), parse_product(sigE)
        for _ in range(6):
            q = random_quadratic(E, rng)
            gam = random_hom(H, E, rng)
            if variant == "zero row and column":
                gam = _zero_row_and_column(gam)
            elif variant == "no phi2":
                q = _keep_phi2_cells(q, 0)
            elif variant == "one phi2 cell":
                q = _keep_phi2_cells(q, 1)
            qc = q.precompose(gam)
            for h in H.enumerate():
                assert qc.eval(h) == q.eval(gam(h)), (sigH, sigE, variant, h)


def test_precompose_affine_pointwise():
    rng = random.Random(19)
    H, E = parse_product("Z2,Z2"), parse_product("Z2,Z4")
    for _ in range(8):
        q = random_quadratic(E, rng)
        gam = random_hom(H, E, rng)
        e0 = rng.choice(list(E.enumerate()))
        qc = q.precompose_affine(gam, e0)
        for h in H.enumerate():
            assert qc.eval(h) == q.eval(E.add(gam(h), e0))


def test_eval_linear_examples():
    # X-operator embedding: diagonal of Z2^2 shifted by (1, 0)
    E = parse_product("Z2")
    G = parse_product("Z2,Z2")
    eps = LinearFnData(
        E, G, G.element([1, 0]),
        [[HomCoeff(Zk(2), Zk(2), 1)], [HomCoeff(Zk(2), Zk(2), 1)]],
    )
    assert eps(E.element([1])) == G.element([0, 1])
    ident = LinearFnData.identity(parse_product("Z3"))
    assert ident(parse_product("Z3").element([2])) == (Fraction(2),)


def test_linear_compose_affine():
    rng = random.Random(23)
    H, E, G = parse_product("Z2,Z2"), parse_product("Z4,Z2"), parse_product("Z2,Z4")
    for _ in range(6):
        eps_cells = [
            [HomCoeff(E[j], G[i], rng.randrange(4)) for j in range(len(E))]
            for i in range(len(G))
        ]
        eps = LinearFnData(E, G, G.element([rng.randrange(2), rng.randrange(4)]), eps_cells)
        gam = random_hom(H, E, rng)
        e0 = rng.choice(list(E.enumerate()))
        comp = eps.compose_affine(gam, e0)
        for h in H.enumerate():
            assert comp(h) == eps(E.add(gam(h), e0))


def test_quadratic_eval_paper_examples():
    # |Y> data over Z2: phi vector coefficient (1, 0)
    E = parse_product("Z2")
    q = QuadraticFnData(E, phi1=[QuadCoeff(Zk(2), T, 1, 0)])
    assert q.eval(E.element([1])) == (Fraction(0), Fraction(1, 4))
    # Hadamard over Z2^2: one bilinear cell
    E2 = parse_product("Z2,Z2")
    qh = QuadraticFnData(E2)
    qh.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(2), T, 1))
    assert qh.eval(E2.element([1, 1])) == (Fraction(0), Fraction(1, 2))
    assert qh.eval(E2.identity()) == (Fraction(0), Fraction(0))
