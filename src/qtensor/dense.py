"""Brute-force dense tensors: the verification oracle.

Entries are complex doubles, optionally accompanied by an exact sidecar
(squared magnitude and phase as rationals) whenever every contributing
scalar was rational and each entry collects at most one term, which is
the case for reduced stabilizer-type tensors.  Contraction is naive
summation; Z2-graded index pairs collect Kozul signs computed by the
index-transposition rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import QTensorData
from .errors import Unsupported
from .groups import GroupProduct, R
from .scalar import TOL, is_exact, mod1


class InfiniteGroupError(Unsupported):
    pass


class TooLargeError(Unsupported):
    """A dense tensor or enumeration past ``DENSE_LIMIT``; the case is
    valid but the oracle refuses it."""


#: the most entries of a dense array, or elements of an enumerated domain,
#: the oracle takes on: 2**22 complex doubles are 64 MiB, one array that
#: fits beside the engine's own data on a small machine
DENSE_LIMIT = 2 ** 22


class DivergentPrefactor(Unsupported):
    pass


class ShapeMismatch(ValueError):
    pass


class BasisMismatch(ValueError):
    pass


class OrientationMismatch(ValueError):
    pass


class NotNormalizable(ValueError):
    pass


ExactEntry = Optional[Tuple[Fraction, Fraction]]  # (mag^2, phase mod 1)


@dataclass
class DenseTensor:
    dims: Tuple[int, ...]
    arr: np.ndarray
    parities: Optional[List[List[int]]] = None  # per index, per basis label
    outgoing: Optional[List[bool]] = None
    exact: Optional[np.ndarray] = None  # object array of ExactEntry

    def __post_init__(self):
        self.arr = np.asarray(self.arr, dtype=complex).reshape(self.dims)
        if self.exact is not None:
            self.exact = np.asarray(self.exact, dtype=object).reshape(self.dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    def parity_of(self, axis: int, label: int) -> int:
        if self.parities is None:
            return 0
        return self.parities[axis][label]


def tensor_product_dense(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    arr = np.multiply.outer(a.arr, b.arr)
    par = None
    if a.parities is not None or b.parities is not None:
        pa = a.parities or [[0] * d for d in a.dims]
        pb = b.parities or [[0] * d for d in b.dims]
        par = pa + pb
    out = None
    if a.outgoing is not None or b.outgoing is not None:
        oa = a.outgoing or [False] * a.n
        ob = b.outgoing or [False] * b.n
        out = oa + ob
    ex = None
    if a.exact is not None and b.exact is not None:
        ex = np.empty(a.dims + b.dims, dtype=object)
        for ia in np.ndindex(*a.dims):
            ea = a.exact[ia]
            for ib in np.ndindex(*b.dims):
                eb = b.exact[ib]
                if ea is None or eb is None:
                    ex[ia + ib] = None
                else:
                    ex[ia + ib] = (ea[0] * eb[0], mod1(ea[1] + eb[1]))
    return DenseTensor(a.dims + b.dims, arr, par, out, ex)


def self_contract_dense(t: DenseTensor, i: int, j: int) -> DenseTensor:
    """Contract index positions i and j, with graded reordering signs."""
    if t.dims[i] != t.dims[j]:
        raise BasisMismatch(f"dims {t.dims[i]} vs {t.dims[j]}")
    if t.outgoing is not None and t.parities is not None:
        if t.outgoing[i] == t.outgoing[j]:
            raise OrientationMismatch("graded contraction needs in with out")
    lo, hi = min(i, j), max(i, j)
    arr = t.arr
    if t.parities is not None:
        # move index lo rightward next to hi; each crossing of an odd pair
        # contributes a -1
        for k in range(lo + 1, hi):
            sign = np.ones((t.dims[lo], t.dims[k]))
            for x in range(t.dims[lo]):
                for y in range(t.dims[k]):
                    if t.parities[lo][x] and t.parities[k][y]:
                        sign[x, y] = -1.0
            shape = [1] * t.n
            shape[lo], shape[k] = t.dims[lo], t.dims[k]
            arr = arr * sign.reshape(shape)
    arr = np.trace(arr, axis1=lo, axis2=hi)
    # np.trace moves remaining axes keeping order lo..hi removed
    keep = [x for x in range(t.n) if x not in (lo, hi)]
    par = None if t.parities is None else [t.parities[x] for x in keep]
    out = None if t.outgoing is None else [t.outgoing[x] for x in keep]
    return DenseTensor(tuple(t.dims[x] for x in keep), arr, par, out, None)


def dense_contract(
    tensors: Sequence[DenseTensor],
    pairs: Sequence[Tuple[int, int, int, int]],
    open_order: Optional[Sequence[Tuple[int, int]]] = None,
) -> DenseTensor:
    """Contract a network given as tensors plus (t1, axis1, t2, axis2) pairs.

    Open indices are ordered by ``open_order`` (tensor, axis) entries, or
    by position if omitted.
    """
    big = tensors[0]
    offsets = [0]
    for t in tensors[1:]:
        offsets.append(big.n)
        big = tensor_product_dense(big, t)
    live = list(range(big.n))

    def pos(tn, ax):
        return live.index(offsets[tn] + ax)

    for (t1, a1, t2, a2) in pairs:
        i, j = pos(t1, a1), pos(t2, a2)
        gi, gj = live[i], live[j]
        big = self_contract_dense(big, i, j)
        live = [x for x in live if x not in (gi, gj)]
    if open_order:
        perm = [pos(tn, ax) for tn, ax in open_order]
        big = permute_dense(big, perm)
    return big


def permute_dense(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    arr = t.arr
    if t.parities is not None:
        # apply adjacent transpositions to track Kozul signs
        order = list(perm)
        cur = list(range(t.n))
        arr = arr.copy()
        # selection sort with adjacent swaps
        for target_pos, want in enumerate(order):
            src = cur.index(want)
            while src > target_pos:
                arr = _swap_adjacent(arr, t, cur, src - 1)
                cur[src - 1], cur[src] = cur[src], cur[src - 1]
                src -= 1
        par = [t.parities[p] for p in perm]
        out = None if t.outgoing is None else [t.outgoing[p] for p in perm]
        return DenseTensor(tuple(t.dims[p] for p in perm), arr, par, out, None)
    arr = np.transpose(arr, perm)
    par = None
    out = None if t.outgoing is None else [t.outgoing[p] for p in perm]
    ex = None if t.exact is None else np.transpose(t.exact, perm)
    return DenseTensor(tuple(t.dims[p] for p in perm), arr, par, out, ex)


def _swap_adjacent(arr, t: DenseTensor, cur: List[int], pos: int):
    a, b = cur[pos], cur[pos + 1]
    da, db = t.dims[a], t.dims[b]
    sign = np.ones((da, db))
    for x in range(da):
        for y in range(db):
            if t.parity_of(a, x) and t.parity_of(b, y):
                sign[x, y] = -1.0
    shape = [1] * arr.ndim
    shape[pos], shape[pos + 1] = da, db
    arr = arr * sign.reshape(shape)
    return np.swapaxes(arr, pos, pos + 1)


# ---------------------------------------------------------------------------
# materialization of quadratic tensor data


def materialize(t: QTensorData) -> DenseTensor:
    """Dense entries of a quadratic tensor over finite groups, |G| and |E|
    each at most ``DENSE_LIMIT``."""
    for f in t.G:
        if not f.finite:
            raise InfiniteGroupError(f"cannot materialize over {f}")
    if t.div_weight != 0:
        raise DivergentPrefactor(f"divergence weight {t.div_weight}")
    dims = tuple(f.k for f in t.G)
    E = GroupProduct() if t.is_zero else t.E
    for f in E:
        if not f.finite:
            raise InfiniteGroupError(f"cannot enumerate embedding domain {f}")
    if max(t.G.order, E.order) > DENSE_LIMIT:
        raise TooLargeError("dense materialization would exceed the size limit")
    arr = np.zeros(dims, dtype=complex)
    terms: dict = {}
    exact_ok = t.is_zero or t.mag2 is not None
    for e in () if t.is_zero else E.enumerate():
        g = t.eps(e)
        idx = tuple(int(x) for x in g)
        a, ph = t.q.eval(e)
        # finite tensors carry no a-part beyond the constant
        mag = math.sqrt(float(t.mag2)) if t.mag2 is not None else math.exp(
            2 * math.pi * float(a)
        )
        arr[idx] += mag * cmath.exp(2j * math.pi * float(ph))
        exact_ok = exact_ok and is_exact(ph)
        terms.setdefault(idx, []).append(mod1(ph))
    ex = None
    if exact_ok and all(len(lst) == 1 for lst in terms.values()):
        ex = np.empty(dims, dtype=object)
        for idx in np.ndindex(*dims):
            lst = terms.get(idx)
            ex[idx] = (t.mag2, Fraction(lst[0])) if lst else (Fraction(0), Fraction(0))
    return DenseTensor(dims, arr, exact=ex)


def materialize_matrix(t: QTensorData, n_out: int) -> np.ndarray:
    """Reshape a 2n-index operator tensor into a 2^..-style matrix.

    The first ``n_out`` indices are rows (outputs), the rest columns.
    """
    d = materialize(t)
    rows = int(np.prod([d.dims[i] for i in range(n_out)], initial=1))
    cols = int(np.prod([d.dims[i] for i in range(n_out, d.n)], initial=1))
    return d.arr.reshape(rows, cols)


# ---------------------------------------------------------------------------
# comparison


@dataclass
class CompareReport:
    max_dev: float
    equal: bool
    phase: complex = 1.0 + 0j


def dense_compare(a: DenseTensor, b: DenseTensor, mode: str = "tol") -> CompareReport:
    """Compare two dense tensors entry by entry: exactly on their sidecars
    (mode "exact"), up to one global phase ("phase"), or as they stand
    ("tol"), the float modes within TOL."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"{a.dims} vs {b.dims}")
    if mode == "exact":
        if a.exact is None or b.exact is None:
            raise ValueError("exact comparison needs exact sidecars on both sides")
        for idx in np.ndindex(*a.dims):
            ea, eb = a.exact[idx], b.exact[idx]
            if ea[0] != eb[0]:
                return CompareReport(float("inf"), False)
            if ea[0] != 0 and mod1(ea[1] - eb[1]) != 0:
                return CompareReport(float("inf"), False)
        return CompareReport(0.0, True)
    if mode == "phase":
        ia = np.unravel_index(np.argmax(np.abs(a.arr)), a.dims) if a.arr.size else None
        if ia is None or abs(a.arr[ia]) < TOL:
            dev = float(np.max(np.abs(b.arr))) if b.arr.size else 0.0
            return CompareReport(dev, dev <= TOL)
        if abs(b.arr[ia]) < TOL:
            return CompareReport(float("inf"), False)
        phase = a.arr[ia] / b.arr[ia]
        phase /= abs(phase)
        dev = float(np.max(np.abs(a.arr - phase * b.arr)))
        return CompareReport(dev, dev <= TOL, phase)
    dev = float(np.max(np.abs(a.arr - b.arr))) if a.arr.size else 0.0
    return CompareReport(dev, dev <= TOL)


# ---------------------------------------------------------------------------
# continuous spot checks


#: the Z directions of ``grid_materialize`` are summed over |n| <= Z_WINDOW
Z_WINDOW = 40


def grid_materialize(t: QTensorData, spacing: float = 0.05,
                     extent: float = 8.0) -> Tuple[np.ndarray, np.ndarray]:
    """Sample a tensor over R^n factors on a regular grid.

    Supports E = R^n x Z^l with the R part of eps invertible onto G = R^n
    and the Z part inside kernel(eps); Z directions are summed over a
    window, valid when q_a^(2) is negative definite.
    """
    if any(f.kind != "R" for f in t.G):
        raise NotNormalizable("grid sampling needs all-R index groups")
    rcols = [j for j in range(len(t.E)) if t.E[j].kind == "R"]
    zcols = [j for j in range(len(t.E)) if t.E[j].kind == "Z"]
    if len(rcols) + len(zcols) != len(t.E):
        raise NotNormalizable("grid sampling supports R and Z factors only")
    if len(t.G) != 1 or len(rcols) != 1:
        raise NotNormalizable("grid sampling implemented for single-mode tensors")
    c = t.eps.img[0][rcols[0]]
    if R.eq(c, 0):
        raise NotNormalizable("embedding does not cover the output mode")
    # negative definiteness of the a-part across R and Z columns
    mat = []
    for j in rcols + zcols:
        row = []
        for l in rcols + zcols:
            cell = t.q.cell("a", j, l)
            row.append(float(cell.value) if not cell.is_zero() else 0.0)
        mat.append(row)
    evs = np.linalg.eigvalsh(np.array(mat))
    if evs.max() > -TOL:
        raise NotNormalizable("q_a is not negative definite on the domain")
    xs = np.arange(-extent, extent + spacing / 2, spacing)
    vals = np.zeros(len(xs), dtype=complex)
    pref = t.prefactor() / abs(t.prefactor()) if t.mag2 is None else 1.0
    for ix, x in enumerate(xs):
        er = (x - float(t.eps.eps0[0])) / float(c)
        total = 0j
        for n in range(-Z_WINDOW, Z_WINDOW + 1) if zcols else (0,):
            e = [0.0] * len(t.E)
            e[rcols[0]] = er
            if zcols:
                e[zcols[0]] = n
            a, ph = t.q.eval(t.E.element(e))
            total += math.exp(2 * math.pi * float(a)) * cmath.exp(2j * math.pi * float(ph))
        vals[ix] = total
    return xs, vals
