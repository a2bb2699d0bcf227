"""Kernels, preimages, and quotients of homomorphisms between products of
elementary abelian groups.

Discrete blocks (Z_k and Z factors) are lifted to integer lattices and
handled by exact Smith normal form; real blocks use Gaussian elimination
(exact over rationals when possible, floating point with a 1e-12 pivot
threshold otherwise).  Circle-group targets are lifted through the
covering R -> R/Z by introducing auxiliary integer unknowns.  Kernel
shapes outside the supported classes raise UnsupportedKernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .coeff import HomCoeff, hom_apply, hom_zero
from .functions import LinearFnData, hom_data
from .groups import GroupProduct, R, T, Z, Zk
from .scalar import is_exact

PIVOT_TOL = 1e-12


class UnsupportedKernel(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends


def _eye(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                Oi = out[i]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def smith_normal_form(A: Sequence[Sequence[int]]):
    """U @ A @ V = S with U, V unimodular and S in Smith normal form."""
    S = [list(map(int, row)) for row in A]
    n = len(S)
    m = len(S[0]) if n else 0
    U = _eye(n)
    V = _eye(m)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(n, m):
        # find pivot of least absolute value
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] != 0 and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if S[i][t] % S[t][t] != 0:
                    add_row(t, i, -(S[i][t] // S[t][t]))
                    swap_rows(t, i)
                    done = False
            for i in range(t + 1, n):
                if S[i][t]:
                    add_row(t, i, -(S[i][t] // S[t][t]))
            for j in range(t + 1, m):
                if S[t][j] % S[t][t] != 0:
                    add_col(t, j, -(S[t][j] // S[t][t]))
                    swap_cols(t, j)
                    done = False
            for j in range(t + 1, m):
                if S[t][j]:
                    add_col(t, j, -(S[t][j] // S[t][t]))
        t += 1
    # enforce the divisibility chain
    for t in range(min(n, m)):
        if S[t][t] == 0:
            continue
        for j in range(t + 1, min(n, m)):
            if S[j][j] % S[t][t] != 0:
                add_col(j, t, 1)
                # re-run elimination at position t
                while True:
                    moved = False
                    for i in range(t, n):
                        for jj in range(t, m):
                            if S[i][jj] != 0 and abs(S[i][jj]) < abs(S[t][t]):
                                swap_rows(t, i)
                                swap_cols(t, jj)
                                moved = True
                    for i in range(t + 1, n):
                        if S[i][t]:
                            add_row(t, i, -(S[i][t] // S[t][t]))
                    for jj in range(t + 1, m):
                        if S[t][jj]:
                            add_col(t, jj, -(S[t][jj] // S[t][t]))
                    if not moved and all(S[i][t] == 0 for i in range(t + 1, n)) and all(
                        S[t][jj] == 0 for jj in range(t + 1, m)
                    ):
                        break
    for t in range(min(n, m)):
        if S[t][t] < 0:
            for row in V:
                row[t] = -row[t]
            for i in range(n):
                S[i][t] = -S[i][t]
    return U, S, V


def integer_kernel(A: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (list of columns) of {x : A x = 0} over the integers."""
    n = len(A)
    m = len(A[0]) if n else 0
    if m == 0:
        return []
    if n == 0:
        return [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    _, S, V = smith_normal_form(A)
    r = sum(1 for t in range(min(n, m)) if S[t][t] != 0)
    return [[V[i][j] for i in range(m)] for j in range(r, m)]


def solve_integer(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution of A x = b, or None."""
    n = len(A)
    m = len(A[0]) if n else 0
    if n == 0:
        return [0] * m
    U, S, V = smith_normal_form(A)
    c = [sum(U[i][j] * int(b[j]) for j in range(n)) for i in range(n)]
    y = [0] * m
    for t in range(min(n, m)):
        if S[t][t] != 0:
            if c[t] % S[t][t] != 0:
                return None
            y[t] = c[t] // S[t][t]
        elif c[t] != 0:
            return None
    for t in range(min(n, m), n):
        if c[t] != 0:
            return None
    return [sum(V[i][j] * y[j] for j in range(m)) for i in range(m)]


def lattice_basis(gens: List[List[int]]) -> List[List[int]]:
    """Basis of the lattice generated by integer column vectors."""
    if not gens:
        return []
    m = len(gens[0])
    A = [[g[i] for g in gens] for i in range(m)]  # m x len(gens)
    U, S, V = smith_normal_form(A)
    # columns of A*V span the lattice; first r are independent
    AV = _matmul(A, V)
    r = sum(1 for t in range(min(m, len(gens))) if S[t][t] != 0)
    basis = []
    for j in range(len(gens)):
        col = [AV[i][j] for i in range(m)]
        if any(col):
            basis.append(col)
    return basis[: r] if r else []


# ---------------------------------------------------------------------------
# rational / real elimination


def _rational_kernel(A: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(A)
    m = len(A[0]) if n else 0
    M = [row[:] for row in A]
    pivots = []
    r = 0
    for j in range(m):
        piv = None
        for i in range(r, n):
            if M[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][j]
        M[r] = [x / inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][j] != 0:
                f = M[i][j]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
        if r == n:
            break
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for row_idx, pj in enumerate(pivots):
            v[pj] = -M[row_idx][j]
        basis.append(v)
    return basis


def _float_kernel(A: List[List[float]]) -> List[List[float]]:
    """Kernel basis by Gaussian elimination with partial pivoting.

    Free columns yield unit basis vectors, mirroring the exact path, so
    coordinate directions known to lie in the kernel stay coordinate
    directions."""
    n = len(A)
    m = len(A[0]) if n else 0
    M = [list(map(float, row)) for row in A]
    scale = max((abs(x) for row in M for x in row), default=1.0) or 1.0
    pivots = []
    r = 0
    for j in range(m):
        piv = None
        best = PIVOT_TOL * scale
        for i in range(r, n):
            if abs(M[i][j]) > best:
                piv, best = i, abs(M[i][j])
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][j]
        M[r] = [x / inv for x in M[r]]
        for i in range(n):
            if i != r and abs(M[i][j]) > 0:
                f = M[i][j]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
        if r == n:
            break
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [0.0] * m
        v[j] = 1.0
        for row_idx, pj in enumerate(pivots):
            v[pj] = -M[row_idx][j]
        basis.append(v)
    return basis


def real_kernel(A: List[List]) -> List[List]:
    if all(is_exact(x) for row in A for x in row):
        return [[Fraction(x) for x in v] for v in _rational_kernel([[Fraction(x) for x in row] for row in A])]
    return _float_kernel([[float(x) for x in row] for row in A])


def real_solve(A: List[List], b: List) -> Optional[List]:
    """One solution of A x = b over the reals (exact if data rational)."""
    n = len(A)
    m = len(A[0]) if n else 0
    if all(is_exact(x) for row in A for x in row) and all(is_exact(x) for x in b):
        M = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(A, b)]
        r = 0
        pivots = []
        for j in range(m):
            piv = next((i for i in range(r, n) if M[i][j] != 0), None)
            if piv is None:
                continue
            M[r], M[piv] = M[piv], M[r]
            inv = M[r][j]
            M[r] = [x / inv for x in M[r]]
            for i in range(n):
                if i != r and M[i][j] != 0:
                    f = M[i][j]
                    M[i] = [x - f * y for x, y in zip(M[i], M[r])]
            pivots.append(j)
            r += 1
        for i in range(r, n):
            if M[i][m] != 0:
                return None
        x = [Fraction(0)] * m
        for row_idx, pj in enumerate(pivots):
            x[pj] = M[row_idx][m]
        return x
    import numpy as np

    M = np.array([[float(x) for x in row] for row in A], dtype=float)
    bb = np.array([float(x) for x in b], dtype=float)
    if M.size == 0:
        return [0.0] * m if not any(abs(x) > 1e-9 for x in bb) else None
    x, res, rank, sv = np.linalg.lstsq(M, bb, rcond=None)
    if np.max(np.abs(M @ x - bb)) > 1e-7:
        return None
    return list(x)


# ---------------------------------------------------------------------------
# homomorphism matrices between group products


@dataclass
class KernelPresentation:
    group: GroupProduct
    inclusion: LinearFnData  # homomorphism group -> E


def _hom_int_coeff(cell: HomCoeff, scale: Fraction) -> Optional[Fraction]:
    """The scaled integer contribution of a discrete-source cell.

    For the lifted integer equation, a source generator contributes its
    image's canonical representative times ``scale``.
    """
    src, tgt, v = cell.source, cell.target, cell.value
    if src.kind == "Zk":
        if tgt.kind == "Zk":
            return scale * (tgt.k // math.gcd(src.k, tgt.k)) * int(v)
        if tgt.kind == "T":
            return scale * Fraction(int(v), src.k)
        return Fraction(0)
    if src.kind == "Z":
        if tgt.kind == "Zk":
            return scale * int(v)
        if tgt.kind == "Z":
            return scale * int(v)
        if tgt.kind == "T":
            if not is_exact(v):
                return None
            return scale * Fraction(v)
        return None  # Z -> R real coefficient: not an integer problem
    return Fraction(0)


def _split_cols(E: GroupProduct):
    disc, cont_t, cont_r = [], [], []
    for j, f in enumerate(E):
        if f.kind in ("Zk", "Z"):
            disc.append(j)
        elif f.kind == "T":
            cont_t.append(j)
        else:
            cont_r.append(j)
    return disc, cont_t, cont_r


def kernel_of_hom(eps: LinearFnData) -> KernelPresentation:
    """Kernel of a homomorphism between group products, as a product with
    an explicit inclusion.  Supported classes: discrete-to-discrete (with
    rational circle couplings), circle-to-circle, real-to-real, and block
    combinations in which no codomain factor mixes source classes."""
    assert eps.is_homomorphism
    E, G = eps.domain, eps.codomain
    disc, cont_t, cont_r = _split_cols(E)
    # classify rows by which column classes touch them
    touch = {i: set() for i in range(len(G))}
    for i in range(len(G)):
        for j in range(len(E)):
            if not eps.eps1[i][j].is_zero():
                if j in disc:
                    touch[i].add("d")
                elif j in cont_t:
                    touch[i].add("t")
                else:
                    touch[i].add("r")
    for i, classes in touch.items():
        if len(classes) > 1:
            raise UnsupportedKernel(
                f"codomain factor {i} couples source classes {sorted(classes)}"
            )
    # handle each class independently and splice the results back together
    pieces = []  # (col_index, factor, column cells) triples via sub-presentations
    factors: List = []
    incl_cols: List[List[HomCoeff]] = []  # one list of E-cells per kernel factor

    def add_generator(factor, col_cells):
        factors.append(factor)
        incl_cols.append(col_cells)

    # --- discrete block ----------------------------------------------------
    if disc:
        rows_d = [i for i in range(len(G)) if touch[i] == {"d"}]
        _discrete_kernel(eps, disc, rows_d, add_generator)
    # --- circle block ------------------------------------------------------
    if cont_t:
        rows_t = [i for i in range(len(G)) if touch[i] == {"t"}]
        _circle_kernel(eps, cont_t, rows_t, add_generator)
    # --- real block ----------------------------------------------------------
    if cont_r:
        rows_r = [i for i in range(len(G)) if touch[i] == {"r"}]
        _real_block_kernel(eps, cont_r, rows_r, add_generator)

    K = GroupProduct(factors)
    cells = [
        [incl_cols[q][j] for q in range(len(factors))] for j in range(len(E))
    ]
    incl = hom_data(K, E, cells)
    return KernelPresentation(K, incl)


def _discrete_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    E, G = eps.domain, eps.codomain
    m = len(cols)
    # build the lifted integer system: rows scaled to integer coefficients,
    # one auxiliary integer per Z_k or T codomain factor
    A_rows: List[List[int]] = []
    aux_mod: List[int] = []
    for i in rows:
        Gi = G[i]
        if Gi.kind == "R":
            # discrete cols into R: only Z sources can couple; require zero
            # or a rational row (treated as an exact equation)
            coeffs = []
            for j in cols:
                v = eps.eps1[i][j].value
                if E[j].kind == "Z" and not is_exact(v):
                    raise UnsupportedKernel("integer lattice into real target")
                coeffs.append(Fraction(v) if E[j].kind == "Z" else Fraction(0))
            if any(coeffs):
                den = math.lcm(*[c.denominator for c in coeffs])
                A_rows.append([int(c * den) for c in coeffs])
                aux_mod.append(0)
            continue
        scale = Fraction(1)
        raw = []
        for j in cols:
            c = _hom_int_coeff(eps.eps1[i][j], Fraction(1))
            if c is None:
                raise UnsupportedKernel(
                    f"irrational coupling from {E[j]} into {Gi}"
                )
            raw.append(c)
        den = math.lcm(*[c.denominator for c in raw]) if raw else 1
        A_rows.append([int(c * den) for c in raw])
        if Gi.kind == "Zk":
            aux_mod.append(Gi.k * den)
        elif Gi.kind == "T":
            aux_mod.append(den)
        else:  # Z target: exact equation
            aux_mod.append(0)
    # assemble [A | D] with D the diagonal of auxiliary moduli
    n_rows = len(A_rows)
    aux_cols = [i for i in range(n_rows) if aux_mod[i] != 0]
    full = [
        A_rows[i] + [aux_mod[i] if i == a else 0 for a in aux_cols]
        for i in range(n_rows)
    ]
    kgens = integer_kernel(full) if n_rows else [
        [1 if t == j else 0 for t in range(m)] for j in range(m)
    ]
    xgens = [g[:m] for g in kgens]
    # column relations c_j e_j are always solutions
    for jj, j in enumerate(cols):
        if E[j].kind == "Zk":
            v = [0] * m
            v[jj] = E[j].k
            xgens.append(v)
    L = lattice_basis(xgens)
    if not L:
        return
    # relation lattice C expressed in the basis of L
    Bmat = [[L[q][i] for q in range(len(L))] for i in range(m)]  # m x rank
    Cgens = []
    for jj, j in enumerate(cols):
        if E[j].kind == "Zk":
            v = [0] * m
            v[jj] = E[j].k
            Cgens.append(v)
    Mcols = []
    for c in Cgens:
        sol = solve_integer(Bmat, c)
        assert sol is not None, "column relations must lie in the solution lattice"
        Mcols.append(sol)
    rank = len(L)
    M = [[Mcols[t][q] for t in range(len(Mcols))] for q in range(rank)]
    if Mcols:
        U, S, V = smith_normal_form(M)
        # new basis B' = B U^{-1}: columns are generators of L with orders S
        Uinv = _int_inverse(U)
        Bprime = _matmul(Bmat, Uinv)
        orders = [S[t][t] if t < len(Mcols) else 0 for t in range(rank)]
    else:
        Bprime = Bmat
        orders = [0] * rank
    for qcol in range(rank):
        order = orders[qcol]
        if order == 1:
            continue
        gen = [Bprime[i][qcol] for i in range(m)]
        factor = Zk(order) if order else Z
        col_cells = []
        for j in range(len(E)):
            if j in cols:
                gj = gen[cols.index(j)]
                col_cells.append(_incl_coeff(factor, E[j], gj))
            else:
                col_cells.append(hom_zero(factor, E[j]))
        emit(factor, col_cells)


def _int_inverse(U):
    n = len(U)
    _, S, V = smith_normal_form(U)
    assert all(abs(S[i][i]) == 1 for i in range(n)), "matrix is not unimodular"
    # U^{-1} = V S^{-1} Uu where Uu S V... easier: solve U X = I column-wise
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        x = solve_integer(U, e)
        assert x is not None
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _incl_coeff(src, tgt, g: int) -> HomCoeff:
    """Coefficient of the map r -> g*r from a kernel factor into E_j."""
    if tgt.kind == "Zk":
        k = tgt.k
        if src.kind == "Zk":
            d = math.gcd(src.k, k)
            step = k // d
            assert g % step == 0, "generator order does not divide factor order"
            return HomCoeff(src, tgt, (g // step) % d)
        return HomCoeff(src, tgt, g % k)
    if tgt.kind == "Z":
        if src.kind == "Zk":
            assert g == 0
            return hom_zero(src, tgt)
        return HomCoeff(src, tgt, g)
    raise UnsupportedKernel(f"inclusion into {tgt} from {src}")


def _circle_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    E, G = eps.domain, eps.codomain
    m = len(cols)
    mat = []
    for i in rows:
        if G[i].kind != "T":
            if any(not eps.eps1[i][j].is_zero() for j in cols):
                raise UnsupportedKernel("circle factors map only into circles")
            continue
        mat.append([int(eps.eps1[i][j].value) for j in cols])
    if not mat:
        for jj, j in enumerate(cols):
            col_cells = [
                HomCoeff(T, E[l], 1) if l == j else hom_zero(T, E[l])
                for l in range(len(E))
            ]
            emit(T, col_cells)
        return
    U, S, V = smith_normal_form(mat)
    r = min(len(mat), m)
    for t in range(m):
        s = S[t][t] if t < r else 0
        if s == 1:
            continue
        if s == 0:
            factor = T
            col_cells = []
            for l in range(len(E)):
                if l in cols:
                    col_cells.append(HomCoeff(T, T, V[cols.index(l)][t]))
                else:
                    col_cells.append(hom_zero(T, E[l]))
            emit(factor, col_cells)
        else:
            factor = Zk(s)
            col_cells = []
            for l in range(len(E)):
                if l in cols:
                    col_cells.append(HomCoeff(factor, T, V[cols.index(l)][t]))
                else:
                    col_cells.append(hom_zero(factor, E[l]))
            emit(factor, col_cells)


def _real_block_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    E, G = eps.domain, eps.codomain
    t_rows = [i for i in rows if G[i].kind == "T"
              and any(not eps.eps1[i][j].is_zero() for j in cols)]
    r_rows = [i for i in rows if G[i].kind == "R"]
    if t_rows:
        # single real source into a single circle target: kernel is a lattice
        if len(cols) == 1 and not r_rows and len(t_rows) == 1:
            c = eps.eps1[t_rows[0]][cols[0]].value
            col_cells = [
                HomCoeff(Z, E[l], 1 / c if not is_exact(c) else Fraction(1) / Fraction(c))
                if l == cols[0]
                else hom_zero(Z, E[l])
                for l in range(len(E))
            ]
            emit(Z, col_cells)
            return
        raise UnsupportedKernel("real sources into circle targets beyond 1x1")
    mat = [[eps.eps1[i][j].value for j in cols] for i in r_rows]
    basis = real_kernel(mat) if mat else [
        [Fraction(1) if t == j else Fraction(0) for t in range(len(cols))]
        for j in range(len(cols))
    ]
    for vec in basis:
        col_cells = []
        for l in range(len(E)):
            if l in cols:
                col_cells.append(HomCoeff(R, R, vec[cols.index(l)]))
            else:
                col_cells.append(hom_zero(R, E[l]))
        emit(R, col_cells)


def solve_hom(eps: LinearFnData, target: Tuple) -> Optional[Tuple]:
    """One solution e of eps(e) = target, or None.

    Solves the affine equation; the same class restrictions as
    ``kernel_of_hom`` apply.
    """
    E, G = eps.domain, eps.codomain
    b = G.sub(G.element(target), eps(E.identity()))
    disc, cont_t, cont_r = _split_cols(E)
    sol = [None] * len(E)
    # discrete part
    rows_d = []
    for i in range(len(G)):
        cells = [eps.eps1[i][j] for j in disc]
        if any(not c.is_zero() for c in cells) or (not cont_t and not cont_r):
            rows_d.append(i)
    if disc:
        A_rows, rhs, aux_mod = [], [], []
        for i in rows_d:
            Gi = G[i]
            if any(not eps.eps1[i][j].is_zero() for j in cont_t + cont_r):
                raise UnsupportedKernel("mixed-class solve")
            raw = []
            for j in disc:
                c = _hom_int_coeff(eps.eps1[i][j], Fraction(1))
                if c is None:
                    raise UnsupportedKernel("irrational discrete solve")
                raw.append(c)
            if Gi.kind == "R":
                bi = Fraction(b[i]) if is_exact(b[i]) else None
                if bi is None:
                    raise UnsupportedKernel("irrational real target in discrete solve")
                den = math.lcm(*[c.denominator for c in raw + [bi]]) if raw else 1
                A_rows.append([int(c * den) for c in raw])
                rhs.append(int(bi * den))
                aux_mod.append(0)
                continue
            bi = Fraction(b[i])
            den = math.lcm(*[c.denominator for c in raw + [bi]]) if raw else bi.denominator
            A_rows.append([int(c * den) for c in raw])
            rhs.append(int(bi * den))
            if Gi.kind == "Zk":
                aux_mod.append(Gi.k * den)
            elif Gi.kind == "T":
                aux_mod.append(den)
            else:
                aux_mod.append(0)
        aux_cols = [i for i in range(len(A_rows)) if aux_mod[i] != 0]
        full = [
            A_rows[i] + [aux_mod[i] if i == a else 0 for a in aux_cols]
            for i in range(len(A_rows))
        ]
        res = solve_integer(full, rhs) if full else [0] * len(disc)
        if res is None:
            return None
        for jj, j in enumerate(disc):
            sol[j] = res[jj]
    # circle part
    if cont_t:
        rows_t = [i for i in range(len(G)) if G[i].kind == "T"
                  and any(not eps.eps1[i][j].is_zero() for j in cont_t)]
        mat = [[int(eps.eps1[i][j].value) for j in cont_t] for i in rows_t]
        rhsv = [b[i] for i in rows_t]
        if mat:
            res = _solve_circle(mat, rhsv)
            if res is None:
                return None
            for jj, j in enumerate(cont_t):
                sol[j] = res[jj]
        else:
            for j in cont_t:
                sol[j] = 0
    # real part
    if cont_r:
        rows_r = [i for i in range(len(G)) if G[i].kind == "R"]
        mat = [[eps.eps1[i][j].value for j in cont_r] for i in rows_r]
        rhsv = [b[i] for i in rows_r]
        # contribution of already-solved discrete columns into real targets
        for idx, i in enumerate(rows_r):
            for j in disc:
                if not eps.eps1[i][j].is_zero():
                    rhsv[idx] = rhsv[idx] - hom_apply(eps.eps1[i][j], sol[j])
        if mat and any(any(not eps.eps1[i][j].is_zero() for j in cont_r) for i in rows_r):
            res = real_solve(mat, rhsv)
            if res is None:
                return None
            for jj, j in enumerate(cont_r):
                sol[j] = res[jj]
        else:
            if any(abs(float(x)) > 1e-9 for x in rhsv):
                return None
            for j in cont_r:
                sol[j] = 0
    for j in range(len(E)):
        if sol[j] is None:
            sol[j] = 0
    e = E.element(sol)
    if not G.eq(eps(e), G.element(target)):
        return None
    return e


def _solve_circle(mat: List[List[int]], rhs: List) -> Optional[List]:
    """Solve M phi = rhs (mod 1) for circle-valued unknowns."""
    U, S, V = smith_normal_form(mat)
    n, m = len(mat), len(mat[0])
    c = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = acc + U[i][j] * rhs[j]
        c.append(acc)
    y = [Fraction(0)] * m
    from .scalar import mod1 as _m1

    for t in range(m):
        s = S[t][t] if t < min(n, m) else 0
        if t < n:
            if s == 0:
                if not T.eq(_m1(c[t]), 0):
                    return None
            else:
                y[t] = c[t] / s if is_exact(c[t]) else float(c[t]) / s
    for t in range(min(n, m), n):
        if not T.eq(_m1(c[t]), 0):
            return None
    return [sum(V[i][j] * y[j] for j in range(m)) for i in range(m)]


# ---------------------------------------------------------------------------
# quotients with canonical lifts


@dataclass
class QuotientPresentation:
    group: GroupProduct
    lift: List[List]  # raw S-coordinate vector per quotient generator
    project: "object"  # callable S-element -> Q-element


def quotient_by_subgroup(S: GroupProduct, incl: LinearFnData) -> QuotientPresentation:
    """Present S / image(incl) with canonical integer lifts.

    Supports subgroups of the discrete part of S; continuous factors must
    not meet the subgroup.
    """
    K = incl.domain
    disc, cont_t, cont_r = _split_cols(S)
    for q in range(len(K)):
        for j in cont_t + cont_r:
            if not incl.eps1[j][q].is_zero():
                raise UnsupportedKernel("quotient touching continuous factors")
    m = len(disc)
    gens = []
    for q in range(len(K)):
        vec = []
        for j in disc:
            vec.append(int(hom_apply(incl.eps1[j][q], 1)))
        gens.append(vec)
    for jj, j in enumerate(disc):
        if S[j].kind == "Zk":
            v = [0] * m
            v[jj] = S[j].k
            gens.append(v)
    if not gens:
        gens = []
    M = [[g[i] for g in gens] for i in range(m)] if gens else [[0] * 0 for _ in range(m)]
    if gens:
        U, Smat, V = smith_normal_form(M)
        Uinv = _int_inverse(U)
        orders = [Smat[t][t] if t < len(gens) else 0 for t in range(m)]
    else:
        Uinv = _eye(m)
        orders = [0] * m
    factors = []
    lifts = []
    keep = []
    for t in range(m):
        o = orders[t]
        if o == 1:
            continue
        keep.append(t)
        factors.append(Zk(o) if o else Z)
        full = [0] * len(S)
        for jj, j in enumerate(disc):
            full[j] = Uinv[jj][t]
        lifts.append(full)
    # untouched continuous factors pass through
    for j in cont_t + cont_r:
        keep.append(None)
        factors.append(S[j])
        full = [0] * len(S)
        full[j] = 1
        lifts.append(full)
    Q = GroupProduct(factors)

    disc_index = {j: jj for jj, j in enumerate(disc)}
    U_loc = U if gens else _eye(m)

    def project(s):
        out = []
        ti = 0
        for t in range(m):
            o = orders[t]
            if o == 1:
                continue
            acc = 0
            for jj, j in enumerate(disc):
                acc += U_loc[t][jj] * int(s[j])
            out.append(acc)
            ti += 1
        for j in cont_t + cont_r:
            out.append(s[j])
        return Q.element(out)

    return QuotientPresentation(Q, lifts, project)
