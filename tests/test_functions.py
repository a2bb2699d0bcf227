"""Pointwise oracles for the whole-function layer: evaluation, addition,
shifts, and precomposition over finite domains."""

import random
from fractions import Fraction
from itertools import product

from qtensor.groups import GroupProduct, R, T, Z, Zk, parse_product
from qtensor.coeff import (Hom2Coeff, HomCoeff, QuadCoeff, cell_group, hom2_group, hom2_zero,
                           hom_group, image_group, quad_group)
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


# ---------------------------------------------------------------------------
# every factor kind: Z_k, Z, T and R, both parts, exact values

MIXED = [Zk(2), Zk(3), Zk(4), Zk(6), Z, T, R]


def _exact_value(grp, rng):
    """A random exact value of a coefficient group."""
    if grp.kind == "Zk":
        return rng.randrange(grp.k)
    if grp.kind == "Z":
        return rng.randint(-3, 3)
    if grp.kind == "T":
        return Fraction(rng.randrange(12), 12)
    return Fraction(rng.randint(-6, 6), 4)


def _sample_points(G):
    """Sample elements: Z_k whole, Z in a box, T and R at rationals."""
    if G.kind == "Zk":
        return list(range(G.k))
    if G.kind == "Z":
        return [-2, -1, 0, 1, 3]
    if G.kind == "T":
        return [Fraction(0), Fraction(1, 3), Fraction(3, 4)]
    return [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2)]


def mixed_quadratic(E: GroupProduct, rng: random.Random) -> QuadraticFnData:
    """Both parts, with a random coefficient for every factor and cell."""
    m = len(E)
    q = QuadraticFnData(E, Fraction(rng.randint(-4, 4), 4), Fraction(rng.randrange(8), 8))
    for A, vec in ((R, q.a1), (T, q.phi1)):
        for i in range(m):
            g2, g1 = quad_group(E[i], A)
            vec[i] = QuadCoeff(E[i], A, _exact_value(g2, rng), _exact_value(g1, rng))
    for part, A in (("a", R), ("phi", T)):
        for i in range(m):
            for j in range(i + 1, m):
                grp = hom2_group(E[i], E[j], A)
                q.set_cell(part, i, j, Hom2Coeff(E[i], E[j], A, _exact_value(grp, rng)))
    return q


def mixed_hom(H: GroupProduct, E: GroupProduct, rng: random.Random) -> LinearFnData:
    cells = [[HomCoeff(H[j], E[i], _exact_value(hom_group(H[j], E[i]), rng)
                       if rng.random() < 0.7 else 0) for j in range(len(H))]
             for i in range(len(E))]
    return hom_data(H, E, cells)


def _values(q: QuadraticFnData):
    """The constants and every value of both parts of q."""
    yield from (q.a0, q.phi0)
    for part in ("a", "phi"):
        yield from q.vec[part]
        for row in q.mat[part]:
            yield from row


def _floated(q: QuadraticFnData, rng: random.Random) -> QuadraticFnData:
    """A copy of q with about half of its nonzero values in T or R made
    floats (values in Z, the multipliers of T factors, stay integers)."""
    out, D = q.copy(), q.domain
    for part, A in (("a", R), ("phi", T)):
        vec, mat = out.vec[part], out.mat[part]
        for k in range(len(D)):
            if vec[k] and image_group(D[k], A) in (T, R) and rng.random() < 0.5:
                vec[k] = float(vec[k])
            for l in range(k, len(D)):
                if mat[k][l] and cell_group(D[k], D[l], A) in (T, R) and rng.random() < 0.5:
                    mat[k][l] = mat[l][k] = float(mat[k][l])
    return out


def _points(G: GroupProduct, rng: random.Random, n: int = 12):
    return [G.element([rng.choice(_sample_points(f)) for f in G]) for _ in range(n)]


def _sum(x, y):
    return (R.normalize(x[0] + y[0]), T.normalize(x[1] + y[1]))


def test_operations_pointwise_on_every_factor_kind():
    rng = random.Random(29)
    for _ in range(150):
        E = GroupProduct([rng.choice(MIXED) for _ in range(rng.randint(1, 3))])
        H = GroupProduct([rng.choice(MIXED) for _ in range(rng.randint(1, 3))])
        q, p = mixed_quadratic(E, rng), mixed_quadratic(E, rng)
        gam = mixed_hom(H, E, rng)
        qc = q.precompose(gam)
        for h in _points(H, rng):
            assert qc.eval(h) == q.eval(gam(h)), (E, H, h)
        assert not any(isinstance(x, float) for x in _values(qc)), (E, H, qc)
        q_f = _floated(q, rng)
        qc_f = q_f.precompose(gam)
        for h in _points(H, rng):
            (a, phi), (a0, phi0) = qc_f.eval(h), q_f.eval(gam(h))
            assert abs(a - a0) < 1e-9 and T.eq(phi, phi0), (E, H, h)
        e0 = _points(E, rng, 1)[0]
        qs, qa, qd = q.shift(e0), q + p, q - p
        for e in _points(E, rng):
            assert qs.eval(e) == q.eval(E.add(e, e0)), (E, e0, e)
            assert qa.eval(e) == _sum(q.eval(e), p.eval(e)), (E, e)
            assert _sum(qd.eval(e), p.eval(e)) == q.eval(e), (E, e)
        F = GroupProduct([rng.choice(MIXED) for _ in range(rng.randint(1, 2))])
        r = mixed_quadratic(F, rng)
        qr = q.direct_sum(r)
        for e, f in zip(_points(E, rng), _points(F, rng)):
            assert qr.eval(e + f) == _sum(q.eval(e), r.eval(f)), (E, F, e, f)
        cols = sorted(rng.sample(range(len(E)), rng.randint(1, len(E))))
        qk = q.restrict_cols(cols)
        for e in _points(E, rng):
            full = E.element([e[j] if j in cols else 0 for j in range(len(E))])
            assert qk.eval(tuple(e[j] for j in cols)) == q.eval(full), (E, cols, e)


def test_cells_round_trip_through_the_views():
    """The cells given to the constructor come back from a1, phi1, a2 and
    phi2, and assigning to phi1[i] or set_cell writes through."""
    rng = random.Random(31)
    for _ in range(100):
        E = GroupProduct([rng.choice(MIXED) for _ in range(rng.randint(1, 4))])
        q = mixed_quadratic(E, rng)
        a1, phi1, a2, phi2 = list(q.a1), list(q.phi1), q.a2, q.phi2
        again = QuadraticFnData(E, q.a0, q.phi0, a1, phi1, a2, phi2)
        assert again == q
        assert (list(again.a1), list(again.phi1), again.a2, again.phi2) == (a1, phi1, a2, phi2)
        assert all(not c.is_zero() for c in list(a2.values()) + list(phi2.values()))
        i = rng.randrange(len(E))
        g2, g1 = quad_group(E[i], T)
        c = QuadCoeff(E[i], T, _exact_value(g2, rng), _exact_value(g1, rng))
        q.phi1[i] = c
        assert q.phi1[i] == c
        if len(E) > 1:
            grp = hom2_group(E[0], E[1], R)
            cell = Hom2Coeff(E[0], E[1], R, _exact_value(grp, rng))
            q.set_cell("a", 0, 1, cell)
            assert q.cell("a", 0, 1) == cell and q.cell("a", 1, 0) == cell.transpose()
            assert q.a2.get((0, 1), hom2_zero(E[0], E[1], R)) == cell


def test_float_term_on_z_round_trips():
    """A float term h2 x^2 on Z into T comes back with h1 the exact 0 it
    was, and is evaluated as h2 x^2."""
    for h2 in (0.3, 0.7071067811865476, 0.9999999999999998, 1e-3):
        q = QuadraticFnData(GroupProduct([Z]), phi1=[QuadCoeff(Z, T, h2, 0)])
        c = q.phi1[0]
        assert c.h2 == h2 and c.h1 == 0 and not isinstance(c.h1, float)
        for x in range(-3, 4):
            assert q.eval((x,))[1] == QuadCoeff(Z, T, h2, 0).h2 * x * x % 1.0


def test_exact_zero_terms_stay_exact_at_a_float_point():
    # a zero function on continuous factors is an exact 0 everywhere, so a
    # shift to a float point keeps exact constants
    for sig, point in (("R,R", (0.5, 1.25)), ("T,R", (0.5, 1.25)), ("Z,T", (3, 0.75))):
        q = QuadraticFnData(parse_product(sig))
        shifted = q.shift(point)
        for value in (q.eval(point), (shifted.a0, shifted.phi0)):
            assert value == (0, 0) and not any(isinstance(x, float) for x in value), (sig, value)
    # a nonzero term at a float point is a float, as before
    q = QuadraticFnData(GroupProduct([R, R]), 0, 0, [QuadCoeff(R, R, 0.5, 0), QuadCoeff(R, R, 0, 0)],
                        [QuadCoeff(R, T, 0, 0), QuadCoeff(R, T, 0, 0)])
    a, phi = q.eval((0.5, 1.25))
    assert isinstance(a, float) and a != 0 and phi == 0 and not isinstance(phi, float)


def test_linear_fn_skips_exact_zero_coordinates():
    # a float image at an exact 0 coordinate adds an exact 0, so the
    # general composition keeps the value types of the substitution
    from qtensor.solve import _substitute

    E, G = parse_product("Z2,R"), parse_product("R")
    eps = LinearFnData.of_images(E, G, (Fraction(0),), [[0, 0.5]])
    for point, want in (((0, Fraction(0)), (Fraction(0),)), ((0, 0.0), (0.0,)),
                        ((1, Fraction(2)), (1.0,))):
        assert repr(eps(point)) == repr(want), point
    # x_0 = 0 from the row (1, 0) into Z2: sigma = 0, the R column kept
    delta = LinearFnData.of_images(E, parse_product("Z2"), (0,), [[1, 0]])
    shift, sub = _substitute(delta, (0,))
    assert repr(eps.compose_affine(sub.inclusion, shift)) == repr(eps.substitute(sub))
    assert repr(eps.compose_affine(sub.inclusion, shift).eps0) == repr((Fraction(0),))
