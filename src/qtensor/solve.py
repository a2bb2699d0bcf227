"""Kernels, preimages, and quotients of homomorphisms between products of
elementary abelian groups.

Every homomorphism arrives as one matrix of generator images
(``LinearFnData.img``), and every presentation leaves as one: kernel
inclusions, solutions and quotient lifts are image columns, with no
coefficient object per cell.  Discrete blocks (Z_k and Z factors) are
lifted to integer systems by reading those images, one row per codomain
factor taken mod its order (T rows scaled to integers first, Z and R rows
exact).  Each system is first eliminated on unit
pivots (``_Elimination``): a cell whose column order equals its row's
modulus and whose value is a unit there fixes that column as a function
of the others, in the manner of a Schur complement.  Only the rows left
without a pivot, the residual, go to exact Smith normal form; a zero
residual makes the kernel the product of the free columns with no Smith
form at all.  Real blocks use one Gauss-Jordan elimination,
``gauss_jordan`` (exact over rationals when possible, floating point with
a pivot threshold of PIVOT_TOL times the largest entry otherwise).
Circle-group targets are lifted through the covering R -> R/Z by
introducing auxiliary integer unknowns.  Kernel shapes outside the
supported classes raise UnsupportedKernel.  The kernel vectors of a discrete block, from
``_Elimination.kernel``, are its inclusion's image columns as they stand,
each entry reduced in its factor.

The commonest system of a contraction skips all of that: a one-row unit
pivot is one substitution x_p = sigma + sum_l a_l x_l (``Substitution``),
which the engine applies to eps and q directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .coeff import image_apply, image_group
from .errors import Unsupported
from .functions import LinearFnData
from .groups import GroupProduct, R, T, Z, Z1, Zk
from .scalar import as_scalar, is_exact, mod1

PIVOT_TOL = 1e-12


class UnsupportedKernel(Unsupported):
    pass


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends


def _eye(n: int) -> List[List[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


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


def smith_normal_form(A: Sequence[Sequence[int]], inverse: bool = False):
    """U @ A @ V = S with U, V unimodular and S in Smith normal form.

    With ``inverse``, U^-1 comes back as a fourth matrix, built alongside
    U: a row swap on U swaps the same two columns of U^-1, and
    row_dst += c row_src on U is col_src -= c col_dst on U^-1.
    """
    S = [list(map(int, row)) for row in A]
    n = len(S)
    m = len(S[0]) if n else 0
    r = min(n, m)
    U = _eye(n)
    V = _eye(m)
    Uinv_t = _eye(n) if inverse else None  # rows are the columns of U^-1

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        if inverse:
            Uinv_t[i], Uinv_t[j] = Uinv_t[j], Uinv_t[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]
        if inverse:
            Uinv_t[src] = [x - c * y for x, y in zip(Uinv_t[src], Uinv_t[dst])]

    def add_col(src, dst, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < r:
        # find pivot of least absolute value
        piv, best = None, 0
        for i in range(t, n):
            row = S[i]
            for j in range(t, m):
                x = row[j]
                if x and (piv is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
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
    for t in range(r):
        if S[t][t] == 0:
            continue
        for j in range(t + 1, r):
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
    for t in range(r):
        if S[t][t] < 0:
            for row in V:
                row[t] = -row[t]
            for i in range(n):
                S[i][t] = -S[i][t]
    if inverse:
        return U, S, V, [list(col) for col in zip(*Uinv_t)]
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


# ---------------------------------------------------------------------------
# rational / real elimination


def gauss_jordan(A: Sequence[Sequence], exact: bool):
    """Reduced row echelon form of A, with its pivot columns and, for square
    A, its determinant (0 when singular).

    Exact data is reduced over ``Fraction``, anything else over floats.
    The pivot of a column is its largest |entry| among the rows not yet
    used, if that is above the tolerance: 0 for exact data, PIVOT_TOL times
    the largest |entry| of A for floats.  Exact results do not depend on
    the pivot choice, since the reduced row echelon form is unique.
    """
    num = Fraction if exact else float
    M = [[num(x) for x in row] for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    tol = 0 if exact else PIVOT_TOL * (max((abs(x) for row in M for x in row), default=1.0) or 1.0)
    pivots: List[int] = []
    det = num(1)
    for j in range(m):
        r = len(pivots)
        if r == n:
            break
        piv, best = None, tol
        for i in range(r, n):
            if abs(M[i][j]) > best:
                piv, best = i, abs(M[i][j])
        if piv is None:
            det = num(0)
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            det = -det
        inv = M[r][j]
        det *= inv
        M[r] = [x / inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][j]:
                f = M[i][j]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(j)
    return M, pivots, det


def real_kernel(A: List[List]) -> List[List]:
    """Basis of {x : A x = 0} over the reals, one vector per free column:
    1 there and 0 on the other free columns, so coordinate directions in
    the kernel stay coordinate directions.  Exact when A is rational."""
    exact = all(is_exact(x) for row in A for x in row)
    M, pivots, _ = gauss_jordan(A, exact)
    num = Fraction if exact else float
    m = len(A[0]) if A else 0
    basis = []
    for j in range(m):
        if j in pivots:
            continue
        v = [num(0)] * m
        v[j] = num(1)
        for row_idx, pj in enumerate(pivots):
            v[pj] = -M[row_idx][j]
        basis.append(v)
    return basis


def real_solve(A: List[List], b: List) -> Optional[List]:
    """One solution of A x = b over the reals (exact if data rational)."""
    n = len(A)
    m = len(A[0]) if n else 0
    if all(is_exact(x) for row in A for x in row) and all(is_exact(x) for x in b):
        # reducing [A | b]: the system is inconsistent iff b's column holds a pivot
        M, pivots, _ = gauss_jordan([list(row) + [bb] for row, bb in zip(A, b)], True)
        if m in pivots:
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


def _lifted_system(eps: LinearFnData, cols: List[int], rows: List[int], b=None):
    """The integer system A x = rhs (row t mod mods[t], 0 for an exact row)
    that lifts eps on the discrete columns ``cols`` and codomain ``rows``;
    ``b`` is the right-hand side of a solve, None for a kernel.

    The entries are the generator images of eps.  A row into Z_k or Z is
    integral as it stands.  A row into T or R has rational entries (a Z
    column's must be exact, and in a solve a Z column must not meet an R
    row) and is scaled by the lcm of their denominators and, in a solve,
    of b's; a T row is then taken mod that scale.  Rows into Z and R are
    exact equations, and a kernel skips zero R rows.
    """
    E, G = eps.domain, eps.codomain
    A, mods, rhs = [], [], []
    for i in rows:
        Gi, vals = G[i], [eps.img[i][j] for j in cols]
        if Gi.kind in ("Zk", "Z"):
            A.append(vals)
            mods.append(Gi.k if Gi.kind == "Zk" else 0)
            rhs.append(0 if b is None else int(b[i]))
            continue
        for j, v in zip(cols, vals):
            if E[j].kind == "Z":
                if b is not None and Gi.kind == "R":
                    raise UnsupportedKernel("integer lattice into real target in a solve")
                if not is_exact(v):
                    raise UnsupportedKernel(f"irrational coupling from {E[j]} into {Gi}")
        if b is None:
            if Gi.kind == "R" and not any(vals):
                continue
            bi = Fraction(0)
        elif Gi.kind == "R" and not is_exact(b[i]):
            raise UnsupportedKernel("irrational real target in discrete solve")
        else:
            bi = Fraction(b[i])
        den = math.lcm(bi.denominator, *[c.denominator for c in vals])
        A.append([int(c * den) for c in vals])
        mods.append(den if Gi.kind == "T" else 0)
        rhs.append(int(bi * den))
    return A, mods, rhs


def _is_unit(x: int, mod: int) -> bool:
    return x in (1, -1) if mod == 0 else mod > 1 and math.gcd(x, mod) == 1


class _Elimination:
    """A lifted system A x = rhs, row t taken mod mods[t] and unknown j in
    Z_{orders[j]} (0 for an exact row and for a Z unknown), eliminated on
    unit pivots before any Smith form.

    A pivot is a cell (i, j) with orders[j] == mods[i] whose value is a
    unit mod mods[i] (+-1 when both are 0).  Row i is scaled by the inverse
    unit, so that it reads x_j = rhs_i - sum_l A_il x_l (mod mods[i]), and
    A_rj times it is taken from every other row r, mod mods[r].  Both steps
    are well defined on the group, because each lifted cell is a
    homomorphism: A_rl orders[l] = 0 (mod mods[r]) for every row and
    column, and the updated rows keep that property.  So x_j is a function
    of the other unknowns, and the rows left without a pivot, on the
    columns left without one (the residual), hold all that remains of the
    system.  Pivot rows are kept reduced, each free of the other pivot
    columns, so a solution of the residual completes in one pass.
    """

    def __init__(self, A: Sequence[Sequence[int]], mods: List[int], orders: List[int]):
        rows = [[x % mod for x in row] if mod else list(row) for row, mod in zip(A, mods)]
        self.mods, self.orders = mods, orders
        # (pivot row, pivot column, unit, [(updated row, multiple of the pivot row)])
        self.steps: List[Tuple[int, int, int, List[Tuple[int, int]]]] = []
        left = list(range(len(rows)))
        found = True
        while found:
            found = False
            for i in list(left):
                mod = mods[i]
                for j, x in enumerate(rows[i]):
                    if x and orders[j] == mod and _is_unit(x, mod):
                        break
                else:
                    continue
                u = pow(rows[i][j], -1, mod) if mod else rows[i][j]
                pivot = rows[i] = [u * x % mod if mod else u * x for x in rows[i]]
                updates = []
                for r, row in enumerate(rows):
                    c = row[j]
                    if r != i and c:
                        rows[r] = [x - c * y for x, y in zip(row, pivot)]
                        if mods[r]:
                            rows[r] = [x % mods[r] for x in rows[r]]
                        updates.append((r, c))
                self.steps.append((i, j, u, updates))
                left.remove(i)
                found = True
        pivoted = {j for _, j, _, _ in self.steps}
        self.rows = rows
        self.free = [j for j in range(len(orders)) if j not in pivoted]
        self.zero_rows = [i for i in left if not any(rows[i][l] for l in self.free)]
        self.residual = [i for i in left if i not in self.zero_rows]

    def residual_system(self) -> List[List[int]]:
        """[R | D]: the residual R with one auxiliary unknown per modular
        row, a column of D holding its modulus."""
        aux = [i for i in self.residual if self.mods[i]]
        return [[self.rows[i][l] for l in self.free] + [self.mods[i] if i == a else 0 for a in aux]
                for i in self.residual]

    def _reduce_rhs(self, rhs: Sequence[int]) -> List[int]:
        """rhs through the row operations of the elimination."""
        b = list(rhs)
        for i, _, u, updates in self.steps:
            b[i] = u * b[i] % self.mods[i] if self.mods[i] else u * b[i]
            for r, c in updates:
                b[r] = (b[r] - c * b[i]) % self.mods[r] if self.mods[r] else b[r] - c * b[i]
        return b

    def _complete(self, x_free: Sequence[int], b: Sequence[int]) -> List[int]:
        """All unknowns from the free ones, given the reduced rhs b."""
        x = [0] * len(self.orders)
        for l, v in zip(self.free, x_free):
            x[l] = v
        for i, j, _, _ in self.steps:
            v = b[i] - sum(self.rows[i][l] * x[l] for l in self.free)
            x[j] = v % self.mods[i] if self.mods[i] else v
        return x

    def solve(self, rhs: Sequence[int]) -> Optional[List[int]]:
        """One solution of A x = rhs, or None."""
        b = self._reduce_rhs(rhs)
        if any(b[i] % self.mods[i] if self.mods[i] else b[i] for i in self.zero_rows):
            return None
        x_free = [0] * len(self.free)
        if self.residual:
            y = solve_integer(self.residual_system(), [b[i] for i in self.residual])
            if y is None:
                return None
            x_free = y[:len(self.free)]
        return self._complete(x_free, b)

    def kernel(self) -> List[Tuple[List[int], int]]:
        """Generators of the solution group of A x = 0 with their orders
        (0 for a Z factor); generators of order 1 are left out."""
        orders = [self.orders[l] for l in self.free]
        if self.residual:
            gens = _lattice_kernel(self.residual_system(), orders)
        else:
            gens = [([int(t == jj) for t in range(len(orders))], o) for jj, o in enumerate(orders)]
        zero = [0] * len(self.mods)
        return [(self._complete(g, zero), o) for g, o in gens if o != 1]


def _lattice_kernel(full: List[List[int]], orders: List[int]) -> List[Tuple[List[int], int]]:
    """Generators, with their orders, of the group of x in prod Z_{orders}
    with [A | D] (x, y) = 0 for some integer y, the system ``full``."""
    m = len(orders)
    kgens = integer_kernel(full)
    # the solutions x, with the column relations k_j e_j, generate a lattice
    rels = [(jj, k) for jj, k in enumerate(orders) if k]
    gens = [g[:m] for g in kgens] + [[k if t == jj else 0 for t in range(m)] for jj, k in rels]
    if not gens:
        return []
    # one Smith form U W V = S of the generator matrix W: the columns of
    # W V = U^-1 S are a basis B of the lattice (the first r, nonzero), and
    # a relation c has the unique coordinates S^-1 (U c) in it
    W = [[g[i] for g in gens] for i in range(m)]
    U, S, V = smith_normal_form(W)
    rank = sum(1 for t in range(min(m, len(gens))) if S[t][t] != 0)
    if not rank:
        return []
    Bmat = [row[:rank] for row in _matmul(W, V)]
    M = [[0] * len(rels) for _ in range(rank)]
    for t, (jj, k) in enumerate(rels):
        for q in range(rank):
            assert U[q][jj] * k % S[q][q] == 0, "column relations must lie in the solution lattice"
            M[q][t] = U[q][jj] * k // S[q][q]
    if rels:
        _, S, _, Uinv = smith_normal_form(M, inverse=True)
        # new basis B' = B U^{-1}: columns are generators of L with orders S
        Bprime = _matmul(Bmat, Uinv)
        orders_out = [S[t][t] if t < len(rels) else 0 for t in range(rank)]
    else:
        Bprime = Bmat
        orders_out = [0] * rank
    return [([Bprime[i][q] for i in range(m)], orders_out[q]) for q in range(rank)]


def _order(f) -> int:
    """The order of a discrete factor's generator, 0 for Z."""
    return f.k if f.kind == "Zk" else 0


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
    kind = ["d" if f.kind in ("Zk", "Z") else "t" if f.kind == "T" else "r" for f in E]
    touch = [{kind[j] for j in cols} for cols in eps.support()]
    for i, classes in enumerate(touch):
        if len(classes) > 1:
            raise UnsupportedKernel(
                f"codomain factor {i} couples source classes {sorted(classes)}"
            )
    # handle each class independently and splice the results back together
    gens = _Generators(E)
    if disc:
        rows_d = [i for i in range(len(G)) if touch[i] == {"d"}]
        _discrete_kernel(eps, disc, rows_d, gens.emit)
    if cont_t:
        rows_t = [i for i in range(len(G)) if touch[i] == {"t"}]
        _circle_kernel(eps, cont_t, rows_t, gens.emit)
    if cont_r:
        rows_r = [i for i in range(len(G)) if touch[i] == {"r"}]
        _real_block_kernel(eps, cont_r, rows_r, gens.emit)
    return gens.presentation()


class _Generators:
    """Kernel generators over E, collected one factor at a time."""

    def __init__(self, E: GroupProduct):
        self.E = E
        self.factors: List = []
        self.cols: List[List] = []  # one image column over E per kernel factor

    def emit(self, factor, images) -> None:
        """Add a kernel factor whose generator has the images {j: value} in E."""
        col = list(_zero_column(factor, self.E))
        for j, x in images.items():
            col[j] = x
        self.factors.append(factor)
        self.cols.append(col)

    def presentation(self) -> KernelPresentation:
        E, K = self.E, GroupProduct(self.factors)
        img = [list(row) for row in zip(*self.cols)] if self.cols else [[] for _ in E]
        return KernelPresentation(K, LinearFnData.of_images(K, E, E.identity(), img))


@functools.lru_cache(maxsize=4096)
def _zero_column(factor, E: GroupProduct) -> Tuple:
    """The image column of the zero homomorphism from ``factor`` into E."""
    return tuple(image_group(factor, El).normalize(0) for El in E)


def _discrete_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    """Emit the kernel generators of eps on its discrete columns: the
    vectors of ``_Elimination.kernel``, each entry the image of the
    generator in that factor of E."""
    E = eps.domain
    A, mods, _ = _lifted_system(eps, cols, rows)
    for gen, order in _Elimination(A, mods, [_order(E[j]) for j in cols]).kernel():
        factor = Zk(order) if order else Z
        emit(factor, {j: image_group(factor, E[j]).normalize(x) for j, x in zip(cols, gen) if x})


def _circle_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    E, G = eps.domain, eps.codomain
    m = len(cols)
    mat = []
    for i in rows:
        if G[i].kind != "T":
            if any(eps.nonzero(i, j) for j in cols):
                raise UnsupportedKernel("circle factors map only into circles")
            continue
        mat.append([eps.img[i][j] for j in cols])
    if not mat:
        for j in cols:
            emit(T, {j: 1})
        return
    U, S, V = smith_normal_form(mat)
    r = min(len(mat), m)
    for t in range(m):
        s = S[t][t] if t < r else 0
        if s == 1:
            continue
        # a T factor maps by integer multipliers, a Z_s factor sends 1 to V/s
        factor = T if s == 0 else Zk(s)
        emit(factor, {j: V[jj][t] if s == 0 else mod1(Fraction(V[jj][t], s))
                      for jj, j in enumerate(cols)})


def _real_block_kernel(eps: LinearFnData, cols: List[int], rows: List[int], emit):
    E, G = eps.domain, eps.codomain
    t_rows = [i for i in rows if G[i].kind == "T"
              and any(eps.nonzero(i, j) for j in cols)]
    r_rows = [i for i in rows if G[i].kind == "R"]
    if t_rows:
        # single real source into a single circle target: kernel is a lattice
        if len(cols) == 1 and not r_rows and len(t_rows) == 1:
            c = eps.img[t_rows[0]][cols[0]]
            emit(Z, {cols[0]: 1 / c if not is_exact(c) else Fraction(1) / Fraction(c)})
            return
        raise UnsupportedKernel("real sources into circle targets beyond 1x1")
    mat = [[eps.img[i][j] for j in cols] for i in r_rows]
    basis = real_kernel(mat) if mat else [
        [Fraction(1) if t == j else Fraction(0) for t in range(len(cols))]
        for j in range(len(cols))
    ]
    for vec in basis:
        emit(R, {j: as_scalar(x) for j, x in zip(cols, vec)})


def solve_hom(eps: LinearFnData, target: Tuple) -> Optional[Tuple]:
    """One solution e of eps(e) = target, or None.

    Solves the affine equation; the same class restrictions as
    ``kernel_of_hom`` apply.
    """
    E, G = eps.domain, eps.codomain
    target = G.element(target)
    b = G.sub(target, eps(E.identity()))
    disc, cont_t, cont_r = _split_cols(E)
    sol = [None] * len(E)
    # discrete part
    supp = eps.support()
    is_disc = [f.kind in ("Zk", "Z") for f in E]
    rows_d = [i for i, cols in enumerate(supp)
              if any(is_disc[j] for j in cols) or (not cont_t and not cont_r)]
    if disc:
        if any(not is_disc[j] for i in rows_d for j in supp[i]):
            raise UnsupportedKernel("mixed-class solve")
        A, mods, rhs = _lifted_system(eps, disc, rows_d, b)
        res = _Elimination(A, mods, [_order(E[j]) for j in disc]).solve(rhs)
        if res is None:
            return None
        for jj, j in enumerate(disc):
            sol[j] = res[jj]
    # circle part
    if cont_t:
        rows_t = [i for i in range(len(G)) if G[i].kind == "T"
                  and any(eps.nonzero(i, j) for j in cont_t)]
        mat = [[eps.img[i][j] for j in cont_t] for i in rows_t]
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
        mat = [[eps.img[i][j] for j in cont_r] for i in rows_r]
        rhsv = [b[i] for i in rows_r]
        # contribution of already-solved discrete columns into real targets
        for idx, i in enumerate(rows_r):
            for j in disc:
                if eps.nonzero(i, j):
                    rhsv[idx] = rhsv[idx] - image_apply(E[j], G[i], eps.img[i][j], sol[j])
        if mat and any(eps.nonzero(i, j) for i in rows_r for j in cont_r):
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
    if not G.eq(eps(e), target):
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
    for t in range(m):
        s = S[t][t] if t < min(n, m) else 0
        if t < n:
            if s == 0:
                if not T.eq(mod1(c[t]), 0):
                    return None
            else:
                y[t] = Fraction(c[t], s) if is_exact(c[t]) else float(c[t]) / s
    for t in range(min(n, m), n):
        if not T.eq(mod1(c[t]), 0):
            return None
    return [sum(V[i][j] * y[j] for j in range(m)) for i in range(m)]


def solve_with_kernel(eps: LinearFnData, target: Tuple) -> Optional[Tuple[Tuple, KernelPresentation]]:
    """``solve_hom(eps, target)`` and ``kernel_of_hom(eps)``, or None when
    there is no solution.

    A one-row system into Z_k or Z with a unit entry on a discrete column
    of the row's order is solved by substitution (``_substitute``): the
    presentation is then a ``Substitution``, whose ``group`` and
    ``inclusion`` are those of ``kernel_of_hom``.  Every other system
    takes the general path, ``solve_hom`` and then ``kernel_of_hom``."""
    found = _substitute(eps, target)
    if found is not None:
        return found
    e = solve_hom(eps, target)
    if e is None:
        return None
    return e, kernel_of_hom(eps)


class Substitution:
    """The solutions of a one-row system r x = c into Z_k or Z with a unit
    pivot r_p: x_p = sigma + sum_l a_l x_l, every other column free.

    ``keep`` lists the free columns in the order of ``kernel_of_hom``
    (discrete, then T, then R, with Z1 columns left out), ``group`` is their
    product K, ``pos`` maps a kept column to its place in K, and ``moved``
    holds (place in K, column l, integer a_l) for every a_l != 0.  The
    kernel inclusion K -> E, ``inclusion``, is built on first use.
    """

    __slots__ = ("E", "p", "sigma", "keep", "group", "pos", "moved", "_plain", "_inclusion")

    def __init__(self, E: GroupProduct, p: int, sigma: int, a: dict, keep: List[int]):
        self.E, self.p, self.sigma, self.keep = E, p, sigma, keep
        self.group = GroupProduct([E[l] for l in keep])
        self.pos = {l: j for j, l in enumerate(keep)}
        self.moved = [(j, l, a[l]) for j, l in enumerate(keep) if l in a]
        self._plain = keep == [j for j in range(len(E)) if j != p]
        self._inclusion = None

    def take(self, row: Sequence) -> Sequence:
        """The entries of a row over E at the kept columns, in order."""
        p = self.p
        return row[:p] + row[p + 1:] if self._plain else [row[l] for l in self.keep]

    @property
    def inclusion(self) -> LinearFnData:
        """e_l + a_l e_p for a discrete column l, e_l for a T or R column."""
        if self._inclusion is None:
            E, a = self.E, {l: x for _, l, x in self.moved}
            gens = _Generators(E)
            for l in self.keep:
                f = E[l]
                images = {l: 1 if f is T else Fraction(1) if f is R else f.normalize(1)}
                if l in a:
                    images[self.p] = a[l]
                gens.emit(f, images)
            self._inclusion = gens.presentation().inclusion
        return self._inclusion


def _substitute(eps: LinearFnData, target: Tuple) -> Optional[Tuple[Tuple, Substitution]]:
    """``solve_with_kernel`` of a one-row system into A = Z_k (modulus k)
    or Z (modulus 0) by one substitution, or None without a pivot.

    The pivot p is the first factor A of E with a unit entry (``_pivot``).
    With u the inverse of r_p, x_p = u (c - sum_{l != p} r_l x_l): the
    solution is sigma = u c on p and 0 elsewhere, and a_l = -u r_l.
    """
    G, E = eps.codomain, eps.domain
    if len(G) != 1 or G[0].kind not in ("Zk", "Z"):
        return None
    assert eps.is_homomorphism
    A, row = G[0], eps.img[0]
    p = _pivot(E, A, row)
    if p is None:
        return None
    mod = A.k
    u = pow(row[p], -1, mod) if mod else row[p]
    disc, cont_t, cont_r = _split_cols(E)
    sol = list(E.identity())
    sol[p] = sigma = E[p].normalize(u * int(A.normalize(target[0])))
    keep = [l for l in disc if l != p and E[l] is not Z1]
    a = {}
    for l in keep:
        y = -u * row[l] % mod if mod else -u * row[l]
        if y:
            a[l] = image_group(E[l], E[p]).normalize(y)
    return tuple(sol), Substitution(E, p, sigma, a, keep + cont_t + cont_r)


def _pivot(E: GroupProduct, A, col: List) -> Optional[int]:
    """The factor of E at which a substitution, a reduction or a quotient
    drops the direction ``col``, the image column of A, or None: for A = R
    the R factor with the largest |col_p|; otherwise the first factor that
    is A itself with a unit entry, a unit mod k on Z_k and +-1 on Z and T.
    A zero entry is never a pivot, also on Z1."""
    if A.kind == "R":
        return max((j for j, x in enumerate(col) if E[j] is R and not R.eq(x, 0)),
                   key=lambda j: abs(col[j]), default=None)
    for j, (Ej, x) in enumerate(zip(E, col)):
        if x and Ej is A and (math.gcd(int(x), A.k) == 1 if A.kind == "Zk" else abs(x) == 1):
            return j
    return None


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
    not meet the subgroup.  One Smith form of [generators | column
    relations] gives the quotient's cyclic factors, with lifts read off
    U^-1, followed by the continuous factors of S as they stand.
    """
    K = incl.domain
    disc, cont_t, cont_r = _split_cols(S)
    if any(incl.nonzero(j, q) for q in range(len(K)) for j in cont_t + cont_r):
        raise UnsupportedKernel("quotient touching continuous factors")
    m = len(disc)
    gens = [[int(incl.img[j][q]) for j in disc] for q in range(len(K))]
    for jj, j in enumerate(disc):
        if S[j].kind == "Zk":
            v = [0] * m
            v[jj] = S[j].k
            gens.append(v)
    if gens:
        U, Smat, _, Uinv = smith_normal_form([[g[i] for g in gens] for i in range(m)], inverse=True)
        orders = [Smat[t][t] if t < len(gens) else 0 for t in range(m)]
    else:
        U = Uinv = _eye(m)
        orders = [0] * m
    factors = []
    lifts = []
    for t in range(m):
        o = orders[t]
        if o == 1:
            continue
        factors.append(Zk(o) if o else Z)
        full = [0] * len(S)
        for jj, j in enumerate(disc):
            full[j] = Uinv[jj][t]
        lifts.append(full)
    # untouched continuous factors pass through
    for j in cont_t + cont_r:
        factors.append(S[j])
        full = [0] * len(S)
        full[j] = 1
        lifts.append(full)
    Q = GroupProduct(factors)

    def project(s):
        out = []
        for t in range(m):
            o = orders[t]
            if o == 1:
                continue
            acc = 0
            for jj, j in enumerate(disc):
                acc += U[t][jj] * int(s[j])
            out.append(acc)
        for j in cont_t + cont_r:
            out.append(s[j])
        return Q.element(out)

    return QuotientPresentation(Q, lifts, project)

