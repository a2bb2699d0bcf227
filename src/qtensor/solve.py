"""Kernels, preimages, and quotients of homomorphisms between products of
elementary abelian groups.

Every homomorphism arrives as one matrix of generator images
(``LinearFnData.img``), and every presentation leaves as one: kernel
inclusions, solutions and quotient lifts are image columns, with no
coefficient object per cell.

Kernels and solutions come from one routine, ``_System``, so
``kernel_of_hom``, ``solve_hom`` and ``solve_with_kernel`` accept the
same systems.  It splits the columns into three classes, discrete (Z_k
and Z), circle (T) and real (R), and a codomain factor whose nonzero
entries lie in two classes raises UnsupportedKernel.  Each class block is
eliminated once, and its particular solution and its kernel generators
are both read off that elimination:

- discrete columns, into any rows: one integer system lifted from the
  images, one row per codomain factor taken mod its order (T rows scaled
  to integers first, Z and R rows exact, a Z column's coupling exact).
  It is eliminated on unit pivots first (``_Elimination``): a cell whose
  column order equals its row's modulus and whose value is a unit there
  fixes that column as a function of the others, in the manner of a Schur
  complement.  Only the rows left without a pivot, the residual, go to
  exact Smith normal form, once; a zero residual needs none;
- circle columns, into T rows: one Smith form of the integer multipliers;
- real columns, into R rows: one Gauss-Jordan elimination
  (``gauss_jordan``) of [A | b], or of A for a kernel alone, exact over
  rationals when the data are, floating point with a pivot threshold of
  PIVOT_TOL times the largest entry otherwise; or one real column into
  one T row, whose kernel is a lattice.

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

from .coeff import image_group
from .errors import Unsupported
from .functions import LinearFnData
from .groups import GroupProduct, R, T, Z, Z1, Zk
from .scalar import PIVOT_TOL, as_scalar, is_exact, mod1


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


def _free_basis(M, pivots: List[int], m: int, num) -> List[List]:
    """The kernel basis read off a reduced row echelon form M of m columns,
    one vector per free column: 1 there and 0 on the other free columns, so
    coordinate directions in the kernel stay coordinate directions."""
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


def _particular(M, pivots: List[int], m: int, num) -> Optional[List]:
    """The solution of A x = b read off the reduced form M of [A | b], the
    free columns 0, or None when b's column holds a pivot."""
    if m in pivots:
        return None
    x = [num(0)] * m
    for row_idx, pj in enumerate(pivots):
        x[pj] = M[row_idx][m]
    return x


def real_solve(A: List[List], b: List) -> Optional[List]:
    """One solution of A x = b over the reals, from one ``gauss_jordan`` of
    [A | b]: exact when A and b are rational, floating point otherwise."""
    exact = all(is_exact(x) for row in A for x in row) and all(is_exact(x) for x in b)
    M, pivots, _ = gauss_jordan([list(row) + [bb] for row, bb in zip(A, b)], exact)
    return _particular(M, pivots, len(A[0]) if A else 0, Fraction if exact else float)


# ---------------------------------------------------------------------------
# homomorphism matrices between group products


@dataclass
class KernelPresentation:
    group: GroupProduct
    inclusion: LinearFnData  # homomorphism group -> E


def _lifted_system(eps: LinearFnData, cols: List[int], rows: List[int]):
    """The integer system A x = rhs (row t mod mods[t], 0 for an exact row)
    that lifts eps on the discrete columns ``cols`` and codomain ``rows``,
    with the scale s_t that lifts row t: a target b_t becomes rhs_t = s_t b_t.

    The entries are the generator images of eps.  A row into Z_k or Z is
    integral as it stands (scale 1).  A row into T or R has rational
    entries (a Z column's must be exact) and is scaled by the lcm of their
    denominators; a T row is then taken mod that scale.  Rows into Z and R
    are exact equations.
    """
    E, G = eps.domain, eps.codomain
    A, mods, scales = [], [], []
    for i in rows:
        Gi, vals = G[i], [eps.img[i][j] for j in cols]
        if Gi.kind in ("Zk", "Z"):
            A.append(vals)
            mods.append(Gi.k)
            scales.append(1)
            continue
        for j, v in zip(cols, vals):
            if E[j].kind == "Z" and not is_exact(v):
                raise UnsupportedKernel(f"irrational coupling from {E[j]} into {Gi}")
        den = math.lcm(*[c.denominator for c in vals])
        A.append([int(c * den) for c in vals])
        mods.append(den if Gi.kind == "T" else 0)
        scales.append(den)
    return A, mods, scales


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
    columns, so a solution of the residual completes in one pass.  The
    residual is factored once, on first use, and ``solve`` and ``kernel``
    both read that Smith form.
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

    @functools.cached_property
    def _smith(self):
        """U [R | D] V = S for the residual R with one auxiliary unknown per
        modular row, a column of D holding its modulus."""
        aux = [i for i in self.residual if self.mods[i]]
        return smith_normal_form([[self.rows[i][l] for l in self.free]
                                  + [self.mods[i] if i == a else 0 for a in aux]
                                  for i in self.residual])

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
        """One solution of A x = rhs, or None.  On the residual, with
        U [R | D] V = S and c = U b: x = V y, y_t = c_t / S_tt where S_tt
        divides c_t, and c_t = 0 wherever S_tt = 0."""
        b = self._reduce_rhs(rhs)
        if any(b[i] % self.mods[i] if self.mods[i] else b[i] for i in self.zero_rows):
            return None
        x_free = [0] * len(self.free)
        if self.residual:
            U, S, V = self._smith
            m = len(V)
            y = [0] * m
            for t, Ut in enumerate(U):
                c = sum(u * b[i] for u, i in zip(Ut, self.residual))
                s = S[t][t] if t < m else 0
                if c % s if s else c:
                    return None
                if s:
                    y[t] = c // s
            x_free = [sum(v * yj for v, yj in zip(V[l], y)) for l in range(len(self.free))]
        return self._complete(x_free, b)

    def kernel(self) -> List[Tuple[List[int], int]]:
        """Generators of the solution group of A x = 0 with their orders
        (0 for a Z factor); generators of order 1 are left out."""
        orders = [self.orders[l] for l in self.free]
        if self.residual:
            _, S, V = self._smith
            m = len(V)
            rank = sum(1 for t in range(min(len(S), m)) if S[t][t] != 0)
            gens = _lattice_kernel([[row[j] for row in V] for j in range(rank, m)], orders)
        else:
            gens = [([int(t == jj) for t in range(len(orders))], o) for jj, o in enumerate(orders)]
        zero = [0] * len(self.mods)
        return [(self._complete(g, zero), o) for g, o in gens if o != 1]


def _lattice_kernel(kgens: List[List[int]], orders: List[int]) -> List[Tuple[List[int], int]]:
    """Generators, with their orders, of the group of x in prod Z_{orders}
    with [A | D] (x, y) = 0 for some integer y, given the integer kernel
    ``kgens`` of [A | D]."""
    m = len(orders)
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


# the column class of each factor kind: discrete, circle, real
_CLASS = {"Zk": "d", "Z": "d", "T": "t", "R": "r"}


def _split_cols(E: GroupProduct):
    """The discrete, the T and the R columns of E."""
    split = {"d": [], "t": [], "r": []}
    for j, f in enumerate(E):
        split[_CLASS[f.kind]].append(j)
    return split["d"], split["t"], split["r"]


class _Discrete:
    """The block of the Z_k and Z columns: one lifted system, eliminated
    once (``_Elimination``).  A target b_t enters as s_t b_t with the row's
    scale s_t, which must be an integer: a T or R row lifted by s_t only
    reaches multiples of 1 / s_t."""

    def __init__(self, eps: LinearFnData, cols: List[int], rows: List[int]):
        E = eps.domain
        self.eps, self.cols, self.rows = eps, cols, rows
        A, mods, self.scales = _lifted_system(eps, cols, rows)
        self.elim = _Elimination(A, mods, [_order(E[j]) for j in cols])

    def solve(self, b) -> Optional[List]:
        G, rhs = self.eps.codomain, []
        for i, s in zip(self.rows, self.scales):
            if G[i].kind == "R" and not is_exact(b[i]):
                raise UnsupportedKernel("irrational real target in discrete solve")
            x = Fraction(b[i]) * s
            if x.denominator != 1:
                return None
            rhs.append(x.numerator)
        return self.elim.solve(rhs)

    def kernel(self, emit) -> None:
        """The vectors of ``_Elimination.kernel``, each entry the image of
        the generator in that factor of E."""
        E = self.eps.domain
        for gen, order in self.elim.kernel():
            factor = Zk(order) if order else Z
            emit(factor, {j: image_group(factor, E[j]).normalize(x)
                          for j, x in zip(self.cols, gen) if x})


class _Circle:
    """The block of the T columns, whose rows are T rows with integer
    multipliers M: one Smith form U M V = S.  The kernel is V's columns, a
    T factor for S_tt = 0 and a Z_s factor sending 1 to V / s for s > 1;
    M phi = b (mod 1) is solved by phi = V y, y_t = (U b)_t / S_tt, where
    (U b)_t must vanish mod 1 when S_tt = 0."""

    def __init__(self, eps: LinearFnData, cols: List[int], rows: List[int]):
        self.cols, self.rows = cols, rows
        mat = [[eps.img[i][j] for j in cols] for i in rows]
        self.smith = smith_normal_form(mat) if rows else None

    def solve(self, b) -> Optional[List]:
        m = len(self.cols)
        if not self.rows:
            return [0] * m
        U, S, V = self.smith
        y = [Fraction(0)] * m
        for t, Ut in enumerate(U):
            c = 0
            for u, i in zip(Ut, self.rows):
                c = c + u * b[i]
            s = S[t][t] if t < m else 0
            if s:
                y[t] = Fraction(c, s) if is_exact(c) else float(c) / s
            elif not T.eq(mod1(c), 0):
                return None
        return [sum(v * yj for v, yj in zip(row, y)) for row in V]

    def kernel(self, emit) -> None:
        if not self.rows:
            for j in self.cols:
                emit(T, {j: 1})
            return
        _, S, V = self.smith
        r = min(len(S), len(self.cols))
        for t in range(len(self.cols)):
            s = S[t][t] if t < r else 0
            if s == 1:
                continue
            factor = T if s == 0 else Zk(s)
            emit(factor, {j: V[jj][t] if s == 0 else mod1(Fraction(V[jj][t], s))
                          for jj, j in enumerate(self.cols)})


class _Real:
    """The block of the R columns.  Into R rows A: one ``gauss_jordan`` of
    [A | b] for a solve, of A alone for a kernel (exact when the data are
    rational); the kernel is read off the same reduced form unless the
    target alone is a float.  A single R column may instead feed a single
    T row, x -> c x mod 1: the kernel is the lattice (1 / c) Z, and b / c
    solves it."""

    def __init__(self, eps: LinearFnData, cols: List[int], rows: List[int]):
        G = eps.codomain
        self.cols, self.rows = cols, rows
        t_rows = [i for i in rows if G[i].kind == "T"]
        self.step = None
        if t_rows:
            if len(cols) > 1 or len(rows) > 1:
                raise UnsupportedKernel("real sources into circle targets beyond 1x1")
            c = eps.img[t_rows[0]][cols[0]]
            self.step = 1 / c if not is_exact(c) else Fraction(1) / Fraction(c)
            return
        self.A = [[eps.img[i][j] for j in cols] for i in rows]
        self.exact = all(is_exact(x) for row in self.A for x in row)
        self.reduced = None

    def solve(self, b) -> Optional[List]:
        if self.step is not None:
            return [b[self.rows[0]] * self.step]
        rhs = [b[i] for i in self.rows]
        exact = self.exact and all(is_exact(x) for x in rhs)
        M, pivots, _ = gauss_jordan([row + [x] for row, x in zip(self.A, rhs)], exact)
        if exact == self.exact:
            self.reduced = M, pivots
        return _particular(M, pivots, len(self.cols), Fraction if exact else float)

    def kernel(self, emit) -> None:
        if self.step is not None:
            emit(Z, {self.cols[0]: self.step})
            return
        M, pivots = self.reduced or gauss_jordan(self.A, self.exact)[:2]
        for vec in _free_basis(M, pivots, len(self.cols), Fraction if self.exact else float):
            emit(R, {j: as_scalar(x) for j, x in zip(self.cols, vec)})


class _System:
    """A homomorphism eps split into column classes (``_CLASS``) and
    eliminated once per class block, for its kernel, its solutions or both.

    A codomain factor whose nonzero entries lie in two classes raises
    UnsupportedKernel; every other row belongs to the block of its class,
    and a zero row to none, so a solution meets it only through the final
    check eps(e) = target.  Each block (``_Discrete``, ``_Circle``,
    ``_Real``) is factored once, and its solution and its kernel
    generators are both read off that factorization.
    """

    def __init__(self, eps: LinearFnData):
        E = eps.domain
        self.eps = eps
        kind = [_CLASS[f.kind] for f in E]
        touch = [{kind[j] for j in cols} for cols in eps.support()]
        for i, classes in enumerate(touch):
            if len(classes) > 1:
                raise UnsupportedKernel(
                    f"codomain factor {i} couples source classes {sorted(classes)}")
        self.blocks = [block(eps, cols, [i for i, cl in enumerate(touch) if cl == {c}])
                       for c, block, cols in zip("dtr", (_Discrete, _Circle, _Real), _split_cols(E))
                       if cols]

    def solution(self, target: Tuple) -> Optional[Tuple]:
        """One e with eps(e) = target, or None."""
        eps = self.eps
        E, G = eps.domain, eps.codomain
        target = G.element(target)
        b = G.sub(target, eps(E.identity()))
        sol = [0] * len(E)
        for block in self.blocks:
            x = block.solve(b)
            if x is None:
                return None
            for j, v in zip(block.cols, x):
                sol[j] = v
        e = E.element(sol)
        return e if G.eq(eps(e), target) else None

    def kernel(self) -> KernelPresentation:
        gens = _Generators(self.eps.domain)
        for block in self.blocks:
            block.kernel(gens.emit)
        return gens.presentation()


def kernel_of_hom(eps: LinearFnData) -> KernelPresentation:
    """Kernel of a homomorphism between group products, as a product with
    an explicit inclusion, read off ``_System``; the module docstring
    lists the supported classes."""
    assert eps.is_homomorphism
    return _System(eps).kernel()


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


def solve_hom(eps: LinearFnData, target: Tuple) -> Optional[Tuple]:
    """One solution e of eps(e) = target, or None.

    Solves the affine equation; the same class restrictions as
    ``kernel_of_hom`` apply, since both read one ``_System``.
    """
    return _System(eps).solution(target)


def solve_with_kernel(eps: LinearFnData, target: Tuple) -> Optional[Tuple[Tuple, KernelPresentation]]:
    """``solve_hom(eps, target)`` and ``kernel_of_hom(eps)``, or None when
    there is no solution.

    A one-row system into Z_k or Z with a unit entry on a discrete column
    of the row's order is solved by substitution (``_substitute``): the
    presentation is then a ``Substitution``, whose ``group`` and
    ``inclusion`` are those of ``kernel_of_hom``.  Every other system
    takes the general path: one ``_System``, whose solution and kernel
    share each block's factorization."""
    found = _substitute(eps, target)
    if found is not None:
        return found
    system = _System(eps)
    e = system.solution(target)
    if e is None:
        return None
    return e, system.kernel()


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

