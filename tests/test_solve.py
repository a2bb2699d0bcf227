"""Brute-force verification of the kernel / solve / quotient machinery."""

import collections
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from qtensor import solve
from qtensor.coeff import HomCoeff, hom_group
from qtensor.engine import QTensorData, self_contract
from qtensor.functions import LinearFnData, QuadraticFnData, hom_data, zero_row
from qtensor.groups import R, T, Z, Zk, parse_product
from qtensor.solve import (
    UnsupportedKernel,
    gauss_jordan,
    kernel_of_hom,
    quotient_by_subgroup,
    real_solve,
    smith_normal_form,
    solve_hom,
)


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def test_snf_random():
    rng = random.Random(1)
    for _ in range(60):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        U, S, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == S
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert S[i][j] == 0
        diag = [S[t][t] for t in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
        assert all(d >= 0 for d in diag)


def test_integer_kernel_and_solve():
    # exact integer rows over Z unknowns, eliminated once: the kernel
    # generators span the m - rank(A) dimensional solutions of A v = 0, and
    # A x = b is solved for every b in the image
    rng = random.Random(2)
    for _ in range(40):
        n, m = rng.randrange(1, 4), rng.randrange(1, 5)
        A = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        elim = solve._Elimination(A, [0] * n, [0] * m)
        kernel = elim.kernel()
        assert len(kernel) == m - minor_rank(A)
        for v, order in kernel:
            assert order == 0
            assert all(sum(A[i][j] * v[j] for j in range(m)) == 0 for i in range(n))
        x = [rng.randrange(-3, 4) for _ in range(m)]
        b = [sum(A[i][j] * x[j] for j in range(m)) for i in range(n)]
        sol = elim.solve(b)
        assert sol is not None
        assert all(sum(A[i][j] * sol[j] for j in range(m)) == b[i] for i in range(n))


def test_snf_inverse_random():
    # U^-1 is built alongside U; check U U^-1 = U^-1 U = I exactly on
    # square, non-square and singular matrices and on products of
    # elementary moves (unimodular, so S = I)
    rng = random.Random(11)
    mats = []
    for _ in range(60):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        mats.append([[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)])
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n - 1)]
        mats.append(A + [[sum(r[j] * rng.randrange(-2, 3) for r in A) for j in range(n)]])
    for _ in range(60):
        n = rng.randrange(1, 6)
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        # a product of elementary moves: add a multiple of a row, swap, negate
        for _ in range(rng.randrange(0, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            move = rng.randrange(3)
            if move == 0 and i != j:
                c = rng.randrange(-4, 5)
                U[i] = [x + c * y for x, y in zip(U[i], U[j])]
            elif move == 1:
                U[i], U[j] = U[j], U[i]
            else:
                U[i] = [-x for x in U[i]]
        mats.append(U)
    for A in mats:
        n = len(A)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        U, S, V, Uinv = smith_normal_form(A, inverse=True)
        assert (U, S, V) == smith_normal_form(A)
        assert matmul(U, Uinv) == eye and matmul(Uinv, U) == eye


def test_kernel_factors_each_matrix_once(monkeypatch):
    # Z4 x Z2 x Z6 x Z2 -> Z2 x Z4 with images [[1, 1, 1, 0], [2, 2, 2, 2]]:
    # the Z2 row pivots, and the Z4 row it leaves holds only 2s, a residual
    # with no unit; the lifted system, the generator lattice and the
    # relation matrix are each factored once, and the relation matrix's
    # U^-1 comes with its Smith form
    E, G = parse_product("Z4,Z2,Z6,Z2"), parse_product("Z2,Z4")
    vals = [[1, 1, 1, 0], [2, 1, 1, 1]]
    eps = hom_data(E, G, [[HomCoeff(E[j], G[i], vals[i][j]) for j in range(len(E))]
                          for i in range(len(G))])
    assert [list(row) for row in eps.img] == [[1, 1, 1, 0], [2, 2, 2, 2]]
    calls = []
    snf = solve.smith_normal_form
    monkeypatch.setattr(solve, "smith_normal_form",
                        lambda A, **kw: calls.append(A) or snf(A, **kw))
    pres = kernel_of_hom(eps)
    assert 1 <= len(calls) <= 3, len(calls)
    true_kernel = {e for e in E.enumerate() if G.is_identity(eps(e))}
    assert {pres.inclusion(r) for r in pres.group.enumerate()} == true_kernel


def test_unit_pivot_systems_need_no_smith_form(monkeypatch):
    # a full-rank all-Z2 system and the one-row Z2 delta of a single edge
    # eliminate completely on unit pivots, so kernels and solves make no
    # Smith form at all
    calls = []
    snf = solve.smith_normal_form
    monkeypatch.setattr(solve, "smith_normal_form",
                        lambda A, **kw: calls.append(A) or snf(A, **kw))
    full_rank = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]]
    for sigE, sigG, vals in (("Z2,Z2,Z2,Z2", "Z2,Z2,Z2", full_rank), ("Z2,Z2,Z2", "Z2", [[1, 1, 0]])):
        eps = hom_from_values(sigE, sigG, vals)
        E, G = eps.domain, eps.codomain
        pres = kernel_of_hom(eps)
        true_kernel = {e for e in E.enumerate() if G.is_identity(eps(e))}
        assert {pres.inclusion(r) for r in pres.group.enumerate()} == true_kernel
        assert pres.group.order == len(true_kernel)
        for g in G.enumerate():
            e, pres = solve.solve_with_kernel(eps, g)
            assert G.eq(eps(e), g)
    assert calls == []


def hom_from_values(sigE, sigG, vals):
    """The homomorphism with coefficient vals[i][j] from factor j of sigE
    into factor i of sigG."""
    E, G = parse_product(sigE), parse_product(sigG)
    return hom_data(E, G, [[HomCoeff(E[j], G[i], vals[i][j]) for j in range(len(E))]
                           for i in range(len(G))])


# systems that eliminate on unit pivots and leave a non-unit residual for
# the Smith form: a Z4 row holding 2 (and a Z2 column lifted to 2), Z6 ->
# Z3 and Z9 -> Z3 cells beside a Z3 pivot, Z_k columns into T rows with
# denominators 6 and 12 (the Z12 column pivots), and +-1 on Z columns in
# Z rows
PIVOT_CASES = [
    ("Z4,Z4,Z2", "Z4,Z4", [[1, 2, 1], [2, 2, 0]]),
    ("Z6,Z9,Z3", "Z3,Z3", [[1, 1, 1], [2, 1, 0]]),
    ("Z4,Z3,Z12", "T,T", [[2, 1, 0], [1, 0, 5]]),
    ("Z,Z,Z4", "Z,Z4", [[1, -2, 0], [1, 1, 2]]),
    ("Z,Z", "Z,Z", [[-1, 2], [3, 1]]),
]


def test_pivot_cases_mix_pivots_and_residual():
    for sigE, sigG, vals in PIVOT_CASES:
        eps = hom_from_values(sigE, sigG, vals)
        cols, rows = list(range(len(eps.domain))), list(range(len(eps.codomain)))
        A, mods, _ = solve._lifted_system(eps, cols, rows)
        elim = solve._Elimination(A, mods, [solve._order(f) for f in eps.domain])
        assert elim.steps and elim.residual, (sigE, sigG)


def box(G, radius):
    """The elements of G with Z components in [-radius, radius]."""
    return [G.element(v) for v in product(*[range(-radius, radius + 1) if f.kind == "Z"
                                            else range(f.k) for f in G])]


def random_hom(H, E, rng):
    cells = []
    for i in range(len(E)):
        row = []
        for j in range(len(H)):
            grp = hom_group(H[j], E[i])
            if grp.kind == "Zk":
                row.append(HomCoeff(H[j], E[i], rng.randrange(grp.k)))
            elif grp.kind == "Z":
                row.append(HomCoeff(H[j], E[i], rng.randrange(-2, 3)))
            elif grp.kind == "T":
                row.append(HomCoeff(H[j], E[i], Fraction(rng.randrange(4), 4)))
            else:
                row.append(HomCoeff(H[j], E[i], Fraction(rng.randrange(-2, 3))))
        cells.append(row)
    return hom_data(H, E, cells)


FINITE_SIGS = ["Z2,Z2", "Z4,Z2", "Z6", "Z3,Z3", "Z8,Z2", "Z2,Z3,Z4", "Z12,Z2"]
# codomains holding T: a Z_k -> T coupling v / k makes a lifted row with a
# denominator to scale away
CIRCLE_SIGS = ["T", "Z4,T", "T,Z2", "T,T"]


def check_kernel(eps):
    """kernel_of_hom(eps) against enumeration; Z factors of E run over
    [-3, 3] and those of the kernel over [-9, 9]."""
    E, G = eps.domain, eps.codomain
    pres = kernel_of_hom(eps)
    K, incl = pres.group, pres.inclusion
    # every kernel-group element maps into the true kernel
    imgs = set()
    for r in box(K, 9):
        e = incl(r)
        assert G.is_identity(eps(e)), (E, G, r, e)
        imgs.add(e)
    true_kernel = {e for e in box(E, 3) if G.is_identity(eps(e))}
    if E.finite:
        assert imgs == true_kernel, (E, G)
        assert K.order == len(true_kernel)
    else:
        assert true_kernel <= imgs, (E, G)


def test_kernel_finite_exhaustive():
    rng = random.Random(3)
    for sigE in FINITE_SIGS:
        for sigG in ["Z2", "Z4", "Z2,Z2", "Z6", "Z3"] + CIRCLE_SIGS:
            E, G = parse_product(sigE), parse_product(sigG)
            for _ in range(4):
                check_kernel(random_hom(E, G, rng))
    for case in PIVOT_CASES:
        check_kernel(hom_from_values(*case))


def test_kernel_with_z_source():
    # Z x Z2 -> Z4, map (a, b) -> a mod 4: kernel = 4Z x Z2
    E = parse_product("Z,Z2")
    G = parse_product("Z4")
    eps = hom_data(E, G, [[HomCoeff(Z, Zk(4), 1), HomCoeff(Zk(2), Zk(4), 0)]])
    pres = kernel_of_hom(eps)
    K = pres.group
    assert sorted(str(f) for f in K) == ["Z", "Z2"]
    for vals in [(1, 0), (0, 1), (2, 1)]:
        e = pres.inclusion(K.element(vals))
        assert G.is_identity(eps(e))
        assert int(e[0]) % 4 == 0


def test_kernel_circle_sources():
    # T^2 -> T, (x, y) -> 2x + y: kernel isomorphic to T
    E = parse_product("T,T")
    G = parse_product("T")
    eps = hom_data(E, G, [[HomCoeff(T, T, 2), HomCoeff(T, T, 1)]])
    pres = kernel_of_hom(eps)
    assert [f.kind for f in pres.group] == ["T"]
    for v in [Fraction(1, 3), Fraction(1, 7), 0.3]:
        e = pres.inclusion(pres.group.element([v]))
        assert G.is_identity(eps(e))
    # T -> T multiplication by 3: kernel Z3
    eps = hom_data(parse_product("T"), G, [[HomCoeff(T, T, 3)]])
    pres = kernel_of_hom(eps)
    assert [str(f) for f in pres.group] == ["Z3"]
    for r in pres.group.enumerate():
        assert G.is_identity(eps(pres.inclusion(r)))


def test_kernel_real_into_circle_is_lattice():
    # R -> T, x -> c x mod 1: kernel (1/c) Z
    E, G = parse_product("R"), parse_product("T")
    eps = hom_data(E, G, [[HomCoeff(R, T, Fraction(3))]])
    pres = kernel_of_hom(eps)
    assert [f.kind for f in pres.group] == ["Z"]
    e = pres.inclusion(pres.group.element([5]))
    assert G.is_identity(eps(e))
    assert e[0] == Fraction(5, 3)


def test_real_into_circle_wire_keeps_its_offset():
    # x -> (1/4 + c x, 0) from R into T x T: contracting the two legs
    # solves c x = 3/4 (mod 1) on the coset of the lattice (1 / c) Z, as
    # with offset 0, where x = 0
    E, G = parse_product("R"), parse_product("T,T")
    for c in (Fraction(1), Fraction(1, 2), 0.5):
        x = solve_hom(hom_from_values("R", "T", [[c]]), (Fraction(1, 4),))
        assert x is not None and T.eq(T.normalize(c * x[0]), Fraction(1, 4)), c
        outs = []
        for offset in (Fraction(1, 4), Fraction(0)):
            eps = LinearFnData(E, G, G.element([offset, 0]),
                               [[HomCoeff(R, T, c)], [HomCoeff(R, T, 0)]])
            out = self_contract(QTensorData(G, E, eps, QuadraticFnData.zero(E), 0, None), 0, 1)
            assert not out.is_zero, (c, offset)
            outs.append(out)
        assert [str(f) for f in outs[0].E] == ["Z"]
        assert (outs[0].E, outs[0].G, outs[0].div_weight) == (
            outs[1].E, outs[1].G, outs[1].div_weight)


def test_kernel_real_block():
    E, G = parse_product("R,R,R"), parse_product("R")
    eps = hom_data(E, G, [[HomCoeff(R, R, Fraction(1)), HomCoeff(R, R, Fraction(-1)),
                           HomCoeff(R, R, Fraction(0))]])
    pres = kernel_of_hom(eps)
    assert [f.kind for f in pres.group] == ["R", "R"]
    for vals in [(Fraction(1), Fraction(2)), (Fraction(-3), Fraction(1, 2))]:
        e = pres.inclusion(pres.group.element(vals))
        assert G.is_identity(eps(e))


def test_kernel_mixed_block_diagonal():
    # block-diagonal finite + real: kernels splice
    E = parse_product("Z2,R")
    G = parse_product("Z2,R")
    eps = hom_data(E, G, [
        [HomCoeff(Zk(2), Zk(2), 1), HomCoeff(R, Zk(2), 0)],
        [HomCoeff(Zk(2), R, 0), HomCoeff(R, R, Fraction(0))],
    ])
    pres = kernel_of_hom(eps)
    assert [f.kind for f in pres.group] == ["R"]


def test_kernel_mixed_row_raises():
    E = parse_product("Z,R")
    G = parse_product("R")
    eps = hom_data(E, G, [[HomCoeff(Z, R, Fraction(1)), HomCoeff(R, R, Fraction(1))]])
    with pytest.raises(UnsupportedKernel):
        kernel_of_hom(eps)


# the factors of random systems that kernel and solve must accept alike
SYSTEM_COLUMNS = ["Z2", "Z3", "Z4", "Z6", "Z", "T", "R"]
SYSTEM_ROWS = ["Z2", "Z4", "Z6", "Z", "T", "R"]


def random_system(rng):
    """A random exact homomorphism with about half its cells zero, so that
    most rows stay within one column class."""
    E = parse_product(",".join(rng.choice(SYSTEM_COLUMNS) for _ in range(rng.randrange(1, 4))))
    G = parse_product(",".join(rng.choice(SYSTEM_ROWS) for _ in range(rng.randrange(1, 3))))
    img = [[x if rng.random() < 0.5 else zero for x, zero in zip(row, zero_row(E, Gi))]
           for Gi, row in zip(G, random_hom(E, G, rng).img)]
    return LinearFnData.of_images(E, G, G.identity(), img)


def random_element(E, rng):
    return E.element([rng.randrange(f.k) if f.kind == "Zk" else
                      rng.randrange(-3, 4) if f.kind == "Z" else
                      Fraction(rng.randrange(12), 12) if f.kind == "T" else
                      Fraction(rng.randrange(-6, 7), 2) for f in E])


def test_kernel_and_solve_accept_the_same_systems():
    # one class split: the kernel raises exactly when the solve does, every
    # point of the image is solved, and solve_with_kernel returns both
    rng = random.Random(17)
    seen = collections.Counter()
    for _ in range(1500):
        eps = random_system(rng)
        E, G = eps.domain, eps.codomain
        points = [random_element(E, rng) for _ in range(3)]
        try:
            pres = kernel_of_hom(eps)
        except UnsupportedKernel:
            seen["unsupported"] += 1
            for e in points:
                with pytest.raises(UnsupportedKernel):
                    solve_hom(eps, eps(e))
            continue
        for r in [random_element(pres.group, rng) for _ in range(3)]:
            assert G.is_identity(eps(pres.inclusion(r))), (eps, r)
        for e in points:
            g = eps(e)
            sol = solve_hom(eps, g)
            assert sol is not None and G.eq(eps(sol), g), (eps, e, sol)
            assert repr(_presented(solve.solve_with_kernel(eps, g))) == repr((sol, pres)), eps
        seen.update({f"{E[j].kind}->{G[i].kind}" for i, cols in enumerate(eps.support())
                     for j in cols})
    assert min(seen[k] for k in ("unsupported", "R->T", "Z->R", "T->T", "R->R", "Z->T")) > 10, seen


def test_general_solve_factors_each_block_once(monkeypatch):
    # the solution and the kernel are read off one factorization per block:
    # no more Smith forms than the kernel alone, and one Gauss-Jordan
    # elimination of [A | b] for exact and float real rows alike
    calls = collections.Counter()

    def counted(name, fn):
        def inner(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return inner

    monkeypatch.setattr(solve, "smith_normal_form", counted("snf", solve.smith_normal_form))
    monkeypatch.setattr(solve, "gauss_jordan", counted("gj", solve.gauss_jordan))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    # systems that leave a residual after the unit pivots (4 Smith forms
    # against the kernel's 3 when the solve factors the residual again)
    for case in [("Z4,Z2,Z6,Z2", "Z2,Z4", [[1, 1, 1, 0], [2, 1, 1, 1]])] + PIVOT_CASES:
        eps = hom_from_values(*case)
        kernel_of_hom(eps)
        kernel_snf = calls["snf"]
        assert 1 <= kernel_snf <= 3, case
        calls.clear()
        for e in box(eps.domain, 1)[:24]:
            e2, _ = solve.solve_with_kernel(eps, eps(e))
            assert eps.codomain.eq(eps(e2), eps(e)) and calls["snf"] <= kernel_snf, (case, calls)
            calls.clear()
    for vals in ([[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(-1)]],
                 [[0.5, 1.25, -2.0], [1.5, 0.0, 0.75]]):
        eps = hom_from_values("R,R,R", "R,R", vals)
        G = eps.codomain
        for e in [random_element(eps.domain, random.Random(n)) for n in range(4)]:
            e2, pres = solve.solve_with_kernel(eps, eps(e))
            assert G.eq(eps(e2), eps(e)) and len(pres.group) == 1
            assert (calls["gj"], calls["lstsq"]) == (1, 0), (vals, calls)
            calls.clear()


def check_solve(eps, targets):
    """solve_hom(eps, g) for each g against the image of E, whose Z
    factors run over [-3, 3]: a target in that image must be solved, and a
    target outside the image of a finite E must not."""
    E, G = eps.domain, eps.codomain
    image = {eps(e) for e in box(E, 3)}
    for g in targets:
        sol = solve_hom(eps, g)
        if g in image:
            assert sol is not None
        if sol is not None:
            assert G.eq(eps(E.element(sol)), g)
        elif E.finite:
            assert g not in image


def test_solve_finite():
    rng = random.Random(5)
    for sigE in FINITE_SIGS:
        for sigG in ["Z2", "Z4", "Z2,Z2", "Z6"] + CIRCLE_SIGS:
            E, G = parse_product(sigE), parse_product(sigG)
            eps = random_hom(E, G, rng)
            image = {eps(e) for e in E.enumerate()}
            if all(f.kind == "Zk" for f in G):
                targets = list(G.enumerate())
            else:
                # the image and rational points, some with denominators no
                # coupling has
                targets = list(image) + [
                    G.element([rng.randrange(f.k) if f.kind == "Zk" else
                               Fraction(rng.randrange(1, 24), rng.choice([2, 3, 5, 8, 12]))
                               for f in G])
                    for _ in range(12)]
                assert any(g not in image for g in targets)
            check_solve(eps, targets)
    for case in PIVOT_CASES:
        eps = hom_from_values(*case)
        G = eps.codomain
        if any(f.kind == "T" for f in G):
            targets = [G.element([Fraction(a, 12), Fraction(b, 12)])
                       for a in range(12) for b in range(12)]
        else:
            targets = box(G, 3)
        check_solve(eps, targets)


def test_solve_real():
    E, G = parse_product("R,R"), parse_product("R")
    eps = hom_data(E, G, [[HomCoeff(R, R, Fraction(2)), HomCoeff(R, R, Fraction(1))]])
    sol = solve_hom(eps, (Fraction(5),))
    assert sol is not None and G.eq(eps(sol), (Fraction(5),))


def cofactor_det(M):
    if not M:
        return Fraction(1)
    return sum((-1) ** j * M[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def minor_rank(A):
    """The largest r with a nonzero r x r minor."""
    n, m = len(A), len(A[0])
    for r in range(min(n, m), 0, -1):
        for rows in combinations(range(n), r):
            for cols in combinations(range(m), r):
                if cofactor_det([[A[i][j] for j in cols] for i in rows]) != 0:
                    return r
    return 0


def test_elimination_random_rational():
    rng = random.Random(11)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) if rng.random() < 0.7
              else Fraction(0) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            A[-1] = [2 * x for x in A[0]]
        rank = minor_rank(A)
        _, pivots, det = gauss_jordan(A, True)
        assert len(pivots) == rank
        if n == m:
            assert det == cofactor_det(A)
        basis = real_kernel_columns(A)
        assert len(basis) == m - rank
        for v in basis:
            assert all(isinstance(x, Fraction) for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        if basis:  # each vector has its unit entry on its own free column
            assert minor_rank(basis) == len(basis)
        x0 = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(m)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        x = real_solve(A, b)
        assert x is not None and [sum(a * y for a, y in zip(row, x)) for row in A] == b
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        x = real_solve(A, b)
        solvable = minor_rank([row + [bb] for row, bb in zip(A, b)]) == rank
        assert (x is not None) == solvable
        if solvable:
            assert [sum(a * y for a, y in zip(row, x)) for row in A] == b


def real_kernel_columns(A):
    """The image columns of kernel_of_hom of x -> A x from R^m to R^n."""
    m = len(A[0])
    pres = kernel_of_hom(hom_from_values(",".join(["R"] * m), ",".join(["R"] * len(A)), A))
    return [pres.inclusion.column(q) for q in range(len(pres.group))]


def test_real_kernel_float_outputs():
    # bit patterns pinned: free columns give unit vectors, and entries below
    # PIVOT_TOL times the largest |entry| never pivot
    cases = [
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]], [[0.6666666666666665, -1.8333333333333333, 1.0]]),
        ([[1e-13, 1.0]], [[1.0, -1e-13]]),
        ([[0.3, 0.6, 0.1], [0.1, 0.2, 0.7], [0.2, 0.4, -0.6]], [[-2.0, 1.0, -0.0]]),
    ]
    for A, want in cases:
        assert repr(real_kernel_columns(A)) == repr(want)


def test_solve_circle():
    E, G = parse_product("T"), parse_product("T")
    eps = hom_data(E, G, [[HomCoeff(T, T, 2)]])
    sol = solve_hom(eps, (Fraction(1, 3),))
    assert sol is not None and G.eq(eps(sol), (Fraction(1, 3),))


def check_quotient(S, incl, pres):
    """pres presents S / image(incl): the right order, project a
    surjective homomorphism whose kernel is the image, and lifts that
    project to the generators of the quotient."""
    K, Q = incl.domain, pres.group
    img = {incl(r) for r in K.enumerate()}
    assert Q.order * len(img) == S.order
    # projection is a homomorphism with kernel = img
    for s in S.enumerate():
        for t in list(S.enumerate())[:6]:
            lhs = pres.project(S.add(s, t))
            rhs = Q.add(pres.project(s), pres.project(t))
            assert Q.eq(lhs, rhs)
    kernel_of_proj = {s for s in S.enumerate() if Q.is_identity(pres.project(s))}
    assert kernel_of_proj == img
    # lifts are sections: project(lift(q)) == q
    for qi, lif in enumerate(pres.lift):
        image_q = pres.project(S.element(lif))
        expected = Q.identity()
        expected = list(expected)
        expected[qi] = Q[qi].normalize(1)
        assert Q.eq(image_q, tuple(expected))


def test_quotient_finite():
    rng = random.Random(7)
    for sigS in ["Z4,Z2", "Z2,Z2,Z2", "Z8", "Z6,Z2"]:
        S = parse_product(sigS)
        for sigK in ["Z2", "Z2,Z2"]:
            K = parse_product(sigK)
            incl = random_hom(K, S, rng)
            check_quotient(S, incl, quotient_by_subgroup(S, incl))


# one-row discrete systems: Z_k and Z rows over Z_k, Z, T and R columns
ROW_SIGS = ["Z6", "Z4", "Z2", "Z3", "Z"]
COLUMN_SIGS = ["Z2", "Z3", "Z4", "Z6", "Z", "T", "R"]
# mixed orders: a Z6 row over Z2, Z3 and Z6 columns, which only the Z6
# column can pivot; the Z2 and Z3 entries are 3 and 2 times a unit
MIXED_ROWS = [
    ("Z2,Z3,Z6", "Z6", [[3, 2, 5]]),
    ("Z6,Z2,Z3", "Z6", [[2, 3, 4]]),
    ("Z3,Z6,Z2,Z6", "Z6", [[4, 3, 3, 1]]),
    ("Z2,Z3,Z6", "Z6", [[3, 2, 4]]),
    ("Z,Z4,Z", "Z", [[2, 0, -1]]),
]


def one_row_systems(rng):
    """Random one-row systems, a tenth of them zero rows, then MIXED_ROWS."""
    for _ in range(300):
        E = parse_product(",".join(rng.choice(COLUMN_SIGS) for _ in range(rng.randrange(1, 5))))
        G = parse_product(rng.choice(ROW_SIGS))
        eps = random_hom(E, G, rng)
        if rng.random() < 0.1:
            eps = LinearFnData.zero(E, G)
        yield eps
    for case in MIXED_ROWS:
        yield hom_from_values(*case)


def _presented(found):
    """A solve_with_kernel result with a substitution's presentation built."""
    if found is None:
        return None
    e, pres = found
    return e, solve.KernelPresentation(pres.group, pres.inclusion)


def test_substitution_matches_the_general_elimination():
    rng = random.Random(11)
    seen = {"pivot": 0, "no pivot": 0, "unsolvable": 0}
    for eps in one_row_systems(rng):
        E, G = eps.domain, eps.codomain
        disc = [j for j, f in enumerate(E) if f.kind in ("Zk", "Z")]
        A, mods, _ = solve._lifted_system(eps, disc, [0])
        pivots = solve._Elimination(A, mods, [solve._order(E[j]) for j in disc]).steps
        targets = list(G.enumerate()) if G.finite else [(c,) for c in range(-3, 4)]
        for g in targets:
            e = solve_hom(eps, g)
            general = None if e is None else (e, kernel_of_hom(eps))
            found = solve._substitute(eps, g)
            if pivots:
                seen["pivot"] += 1
                # the same solution and presentation, value types included
                assert general is not None and repr(_presented(found)) == repr(general), (
                    E, G, eps.img, g)
            else:
                seen["no pivot"] += 1
                seen["unsolvable"] += general is None
                assert found is None
            assert repr(_presented(solve.solve_with_kernel(eps, g))) == repr(general)
    assert min(seen.values()) > 20, seen
