"""Whole-function objects over group products, held as matrices of values.

A linear function into a group product is a constant element plus one
matrix of generator images: each Z_k or Z column holds the image of its
generator in every codomain factor, each T or R column its multiplier
(``coeff.image_group``).  Composition is a product of these matrices,
each entry normalized in its group, and application multiplies entries by
element values.

A quadratic function q = (q_a, q_phi) into R x R/Z is two constants plus,
for each part, one vector of diagonal values and one symmetric matrix of
bilinear values (``coeff.quad_values``, ``coeff.cell_group``).  A Z_k or
Z factor into T holds values at its generator, q(e_k) and
B(e_k, e_l) = q(e_k + e_l) - q(e_k) - q(e_l); every other factor holds its
multipliers, so that q(x) = v x + b x^2 / 2 on it.  Floats are carried over
as they are.  Precomposition with gamma is then b' = gamma^T b gamma, plus
the diagonal values of the generated factors, summed over the nonzero rows
of gamma.  Two steps of a contraction rewrite only the values they touch: a
unit-pivot substitution x_p = sigma + sum_l a_l x_l (``substitute``), and
the rank-one update q - r o phi for phi: E -> Z_k (``minus_pullback``).
All three sum values one way (``_Scaled``): exact values as integer
numerators over one common denominator, floats scaled by it, and each sum
normalized once in its group, exact unless a float reached it.

Neither kind of function holds a coefficient object.  The ``HomCoeff``,
``QuadCoeff`` and ``Hom2Coeff`` cells of the table-level API are converted
once on construction and rebuilt on demand by the views ``eps1``, ``a1``,
``phi1``, ``a2`` and ``phi2``; assigning to ``a1[k]`` or ``phi1[k]`` and
``set_cell`` write values.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import (
    DomainMismatch,
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    TagMismatch,
    cell_group,
    cell_of_value,
    cell_value,
    hom_image,
    hom_of_image,
    image_apply,
    image_group,
    is_generated,
    quad_apply,
    quad_of_values,
    quad_values,
    value_is_zero,
)
from .groups import GroupElement, GroupProduct, R, T, Z1
from .scalar import Scalar, as_scalar, mod1

Cell = Tuple[int, int]


class LinearFnData:
    """An affine-linear function domain -> codomain, e -> eps0 + eps1 e.

    The linear part is one matrix ``img`` of generator images: row i over
    codomain factor i, column j over domain factor j.  A Z_k or Z column
    holds the image of its generator in each codomain factor, a T or R
    column the multiplier of its map (``coeff.image_group``).  The
    constructor takes coefficient cells and converts them once;
    ``of_images`` takes the matrix itself, and ``eps1`` builds the cells
    again on demand.
    """

    __slots__ = ("domain", "codomain", "eps0", "img", "_support")

    def __init__(self, domain: GroupProduct, codomain: GroupProduct, eps0: GroupElement,
                 eps1: Sequence[Sequence[HomCoeff]]):
        n, m = len(codomain), len(domain)
        assert len(eps0) == n
        assert len(eps1) == n and all(len(row) == m for row in eps1)
        self.domain, self.codomain, self.eps0 = domain, codomain, eps0
        self.img = [[hom_image(c) for c in row] for row in eps1]
        self._support = None

    @classmethod
    def of_images(cls, domain: GroupProduct, codomain: GroupProduct, eps0: GroupElement,
                  img: List[List[Scalar]]) -> "LinearFnData":
        """The function with image matrix ``img``, whose entries are already
        normalized; the matrix is shared, not copied, and never changed."""
        out = cls.__new__(cls)
        out.domain, out.codomain, out.eps0, out.img = domain, codomain, eps0, img
        out._support = None
        return out

    @property
    def eps1(self) -> Tuple[Tuple[HomCoeff, ...], ...]:
        """The coefficient cells (rows over codomain factors), read-only."""
        return tuple(tuple(hom_of_image(Dj, Ci, v) for Dj, v in zip(self.domain, row))
                     for Ci, row in zip(self.codomain, self.img))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearFnData):
            return NotImplemented
        return (self.domain, self.codomain, self.eps0, self.img) == (
            other.domain, other.codomain, other.eps0, other.img)

    def __repr__(self) -> str:
        return (f"LinearFnData({self.domain}, {self.codomain}, eps0={self.eps0!r}, "
                f"img={self.img!r})")

    @staticmethod
    def zero(domain: GroupProduct, codomain: GroupProduct) -> "LinearFnData":
        return LinearFnData.of_images(domain, codomain, codomain.identity(),
                                      [zero_row(domain, Ci) for Ci in codomain])

    @staticmethod
    def identity(G: GroupProduct) -> "LinearFnData":
        img = [zero_row(G, Gi) for Gi in G]
        for i, Gi in enumerate(G):
            img[i][i] = image_group(Gi, Gi).normalize(1)
        return LinearFnData.of_images(G, G, G.identity(), img)

    @property
    def is_homomorphism(self) -> bool:
        return self.codomain.is_identity(self.eps0)

    def linear_part(self) -> "LinearFnData":
        """The homomorphism e -> eps1 e."""
        out = LinearFnData.of_images(self.domain, self.codomain, self.codomain.identity(),
                                     self.img)
        out._support = self._support
        return out

    def nonzero(self, i: int, j: int) -> bool:
        return _nonzero(self.img[i][j], self.domain[j], self.codomain[i])

    def support(self) -> List[List[int]]:
        """The columns of the nonzero entries of each row (computed once)."""
        if self._support is None:
            D = self.domain
            # an exact entry is normalized, so only a float needs its group's tolerance
            self._support = [[j for j, x in enumerate(row)
                              if (_nonzero(x, D[j], Ci) if isinstance(x, float) else x != 0)]
                             for Ci, row in zip(self.codomain, self.img)]
        return self._support

    def __call__(self, e: GroupElement) -> GroupElement:
        if len(e) != len(self.domain):
            raise DomainMismatch("element does not match domain")
        D = self.domain
        out = []
        for Gi, acc, row in zip(self.codomain, self.eps0, self.img):
            if Gi.kind in ("Zk", "Z"):
                # integers: reducing the sum once is reducing each term, and a
                # T or R factor maps to 0
                for Dj, v, x in zip(D, row, e):
                    if v and Dj.kind in ("Zk", "Z"):
                        acc += v * Dj.normalize(x)
            else:
                # a term at an exact 0 is an exact 0, as in QuadraticFnData.eval
                for Dj, v, x in zip(D, row, e):
                    if x != 0 or isinstance(x, float):
                        acc = acc + image_apply(Dj, Gi, v, x)
            out.append(Gi.normalize(acc))
        return tuple(out)

    def compose_hom(self, gamma: "LinearFnData") -> "LinearFnData":
        """This function composed with a homomorphism: self(gamma(.))."""
        assert gamma.is_homomorphism
        if gamma.codomain != self.domain:
            raise DomainMismatch("composition domains do not line up")
        return LinearFnData.of_images(gamma.domain, self.codomain, self.eps0,
                                      _image_product(self, gamma))

    def compose_affine(self, gamma: "LinearFnData", shift: GroupElement) -> "LinearFnData":
        """self(gamma(.) + shift), for a homomorphism gamma into the domain."""
        composed = self.compose_hom(gamma)
        return LinearFnData.of_images(gamma.domain, self.codomain, self(shift), composed.img)

    def substitute(self, sub) -> "LinearFnData":
        """``compose_affine`` through the kernel inclusion and shift of a
        ``solve.Substitution`` x_p = sigma + sum_l a_l x_l, for exact and
        float entries alike.

        Only a row with a nonzero entry r at p changes: its constant gains
        r sigma and each moved column l gains r a_l, each normalized in its
        group.  The other entries are shared; column p goes.
        """
        p, sigma, take, D = sub.p, sub.sigma, sub.take, self.domain
        eps0 = list(self.eps0)
        img = []
        for i, (Gi, row) in enumerate(zip(self.codomain, self.img)):
            new = take(row)
            r = row[p]
            if r:
                if sigma:
                    eps0[i] = Gi.normalize(eps0[i] + r * sigma)
                for j, l, a in sub.moved:
                    new[j] = image_group(D[l], Gi).normalize(new[j] + r * a)
            img.append(new)
        return LinearFnData.of_images(sub.group, self.codomain, tuple(eps0), img)

    def column(self, j: int) -> List[Scalar]:
        """The image column of domain factor j."""
        return [row[j] for row in self.img]

    def restrict_cols(self, cols: List[int]) -> "LinearFnData":
        dom = GroupProduct([self.domain[j] for j in cols])
        return LinearFnData.of_images(dom, self.codomain, self.eps0,
                                      [[row[j] for j in cols] for row in self.img])


def zero_row(domain: GroupProduct, A) -> List[Scalar]:
    """The image row of the zero homomorphism from ``domain`` into A."""
    return list(_zero_row(domain, A))


@functools.lru_cache(maxsize=4096)
def _zero_row(domain: GroupProduct, A) -> Tuple[Scalar, ...]:
    return tuple(image_group(Dj, A).normalize(0) for Dj in domain)


def _nonzero(v: Scalar, G, A) -> bool:
    """Whether the matrix entry v of a homomorphism G -> A is nonzero, with
    the float tolerance of its group (an exact entry is normalized)."""
    if isinstance(v, float):
        return not image_group(G, A).eq(v, 0)
    return v != 0


def _image_product(left: LinearFnData, right: LinearFnData) -> List[List[Scalar]]:
    """The image matrix of left o right.

    Entry (i, j) sums left[i][k] right[k][j] over the k where both entries
    are nonzero, in order of k, each term and each partial sum normalized
    in the entry's group, as the coefficient sums of ``coeff.compose``
    would be.
    """
    H = right.domain
    right_support = right.support()
    out = []
    for Ci, row, cols in zip(left.codomain, left.img, left.support()):
        acc = zero_row(H, Ci)
        for k in cols:
            a, rk = row[k], right.img[k]
            for j in right_support[k]:
                norm = image_group(H[j], Ci).normalize
                acc[j] = norm(acc[j] + norm(a * rk[j]))
        out.append(acc)
    return out


def hom_data(domain: GroupProduct, codomain: GroupProduct, cells) -> LinearFnData:
    """A homomorphism given by coefficient cells (rows over codomain)."""
    return LinearFnData(domain, codomain, codomain.identity(), cells)


# the two parts of a quadratic function and their targets
PARTS = (("a", R), ("phi", T))
_TARGETS = dict(PARTS)


@functools.lru_cache(maxsize=4096)
def _part_groups(factors: Tuple, A) -> Tuple[Tuple, Tuple[Tuple, ...]]:
    """The groups holding the vector and the matrix entries of a part into
    A over a product of ``factors`` (``coeff.image_group``, ``coeff.cell_group``)."""
    return (tuple(image_group(G, A) for G in factors),
            tuple(tuple(cell_group(G, H, A) for H in factors) for G in factors))


@functools.lru_cache(maxsize=4096)
def _zero_values(factors: Tuple, A) -> Tuple[Tuple[Scalar, ...], Tuple[Tuple[Scalar, ...], ...]]:
    """The zero vector and matrix of a part into A over a product of ``factors``."""
    vgrps, cgrps = _part_groups(factors, A)
    return (tuple(g.normalize(0) for g in vgrps),
            tuple(tuple(g.normalize(0) for g in row) for row in cgrps))


def _zero_parts(domain: GroupProduct) -> Tuple[Dict[str, List[Scalar]], Dict[str, List[List[Scalar]]]]:
    """New zero vectors and matrices of both parts over ``domain``."""
    vec, mat = {}, {}
    for part, A in PARTS:
        zv, zm = _zero_values(domain.factors, A)
        vec[part] = list(zv)
        mat[part] = [list(row) for row in zm]
    return vec, mat


def _snap(grp, v) -> Scalar:
    """v, or the exact 0 of ``grp`` for a float within tolerance of 0: an
    off-diagonal entry is stored so, and a sum reads every value so."""
    return grp.normalize(0) if isinstance(v, float) and grp.eq(v, 0) else v


class QuadraticFnData:
    """A quadratic function q = (q_a, q_phi) into R x R/Z over a group product.

    Each part ("a" into R, "phi" into T) is held as plain values, with no
    coefficient object: ``vec[part][k]`` and ``mat[part][k][k]`` are the
    values (v, b) of factor k's quadratic term (``coeff.quad_values``), and
    the symmetric ``mat[part][k][l]`` is the value of the bilinear form on
    factors k and l (``coeff.cell_group``).  A Z_k or Z factor into T is
    held by its values at the generator, q(e_k) and B(e_k, e_l) with
    B(x, y) = q(x + y) - q(x) - q(y); every other factor by its multipliers.
    An off-diagonal float within tolerance of 0 is stored as 0.

    The constructor takes coefficient cells and converts them once; ``a1``
    and ``phi1`` (one ``QuadCoeff`` per factor) and ``a2`` and ``phi2``
    (the nonzero ``Hom2Coeff`` cells above the diagonal) build them again
    on access, and assigning to ``a1[k]``, ``phi1[k]`` or ``set_cell``
    writes their values.
    """

    __slots__ = ("domain", "a0", "phi0", "vec", "mat")

    def __init__(self, domain: GroupProduct, a0: Scalar = 0, phi0: Scalar = 0,
                 a1: Sequence[QuadCoeff] = (), phi1: Sequence[QuadCoeff] = (),
                 a2: Optional[Dict[Cell, Hom2Coeff]] = None,
                 phi2: Optional[Dict[Cell, Hom2Coeff]] = None):
        self.domain, self.a0, self.phi0 = domain, as_scalar(a0), mod1(as_scalar(phi0))
        self.vec, self.mat = _zero_parts(domain)
        if a1:
            self.a1 = a1
        if phi1:
            self.phi1 = phi1
        for part, cells in (("a", a2), ("phi", phi2)):
            for (i, j), c in (cells or {}).items():
                self.set_cell(part, i, j, c)

    @classmethod
    def _of_values(cls, domain: GroupProduct, a0: Scalar, phi0: Scalar,
                   vec: Dict[str, List[Scalar]], mat: Dict[str, List[List[Scalar]]]):
        """The function with the given constants and values, all already
        normalized; they are taken over, not copied."""
        out = cls.__new__(cls)
        out.domain, out.a0, out.phi0, out.vec, out.mat = domain, a0, phi0, vec, mat
        return out

    def copy(self) -> "QuadraticFnData":
        """An independent copy."""
        return QuadraticFnData._of_values(
            self.domain, self.a0, self.phi0, {part: list(v) for part, v in self.vec.items()},
            {part: [list(row) for row in m] for part, m in self.mat.items()})

    @staticmethod
    def zero(domain: GroupProduct) -> "QuadraticFnData":
        return QuadraticFnData(domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticFnData):
            return NotImplemented
        return (self.domain, self.a0, self.phi0, self.vec, self.mat) == (
            other.domain, other.a0, other.phi0, other.vec, other.mat)

    def __repr__(self) -> str:
        return (f"QuadraticFnData({self.domain}, a0={self.a0!r}, phi0={self.phi0!r}, "
                f"vec={self.vec!r}, mat={self.mat!r})")

    # -- coefficient views ---------------------------------------------------

    @property
    def a1(self) -> "QuadTerms":
        return QuadTerms(self, "a", R)

    @a1.setter
    def a1(self, cells: Sequence[QuadCoeff]) -> None:
        self.a1.assign(cells)

    @property
    def phi1(self) -> "QuadTerms":
        return QuadTerms(self, "phi", T)

    @phi1.setter
    def phi1(self, cells: Sequence[QuadCoeff]) -> None:
        self.phi1.assign(cells)

    @property
    def a2(self) -> Dict[Cell, Hom2Coeff]:
        return self._cells("a")

    @property
    def phi2(self) -> Dict[Cell, Hom2Coeff]:
        return self._cells("phi")

    def _cells(self, part: str) -> Dict[Cell, Hom2Coeff]:
        """The nonzero cells above the diagonal, in order."""
        mat = self.mat[part]
        return {(i, j): self.cell(part, i, j)
                for i, row in enumerate(mat) for j in range(i + 1, len(row)) if row[j] != 0}

    def cell(self, part: str, i: int, j: int) -> Hom2Coeff:
        """Full bilinear matrix cell, the diagonal included."""
        D = self.domain
        return cell_of_value(D[i], D[j], _TARGETS[part], self.mat[part][i][j])

    def set_cell(self, part: str, i: int, j: int, c: Hom2Coeff) -> None:
        assert i < j, "bilinear cells must be set above the diagonal"
        D, A = self.domain, _TARGETS[part]
        if (c.g0, c.g1, c.target) != (D[i], D[j], A):
            raise TagMismatch("bilinear cell does not match the domain")
        v = cell_group(D[i], D[j], A).normalize(0) if c.is_zero() else cell_value(c)
        mat = self.mat[part]
        mat[i][j] = mat[j][i] = v

    def add_to_cell(self, part: str, i: int, j: int, x: Scalar) -> None:
        """Add x to the value of the bilinear cell (i, j), i != j."""
        D, mat = self.domain, self.mat[part]
        grp = cell_group(D[i], D[j], _TARGETS[part])
        mat[i][j] = mat[j][i] = _snap(grp, grp.normalize(mat[i][j] + grp.normalize(x)))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, e: GroupElement) -> Tuple[Scalar, Scalar]:
        return self.eval(e)

    def eval(self, e: GroupElement) -> Tuple[Scalar, Scalar]:
        D = self.domain
        if len(e) != len(D):
            raise DomainMismatch("element does not match domain")
        # every term at an exact 0 is an exact 0, so those are skipped
        live = [(i, G.normalize(x)) for i, (G, x) in enumerate(zip(D, e))
                if x != 0 or isinstance(x, float)]
        out = []
        for (part, A), acc in zip(PARTS, (self.a0, self.phi0)):
            vec, mat = self.vec[part], self.mat[part]
            for i, x in live:
                acc = acc + _quad_term(D[i], A, vec[i], mat[i][i], x)
            for n, (i, x) in enumerate(live):
                row = mat[i]
                for j, y in live[n + 1:]:
                    if row[j] != 0:
                        acc = acc + A.normalize(row[j] * x * y)
            out.append(acc)
        return as_scalar(out[0]), mod1(out[1])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QuadraticFnData") -> "QuadraticFnData":
        return self._combine(other, operator.add)

    def __sub__(self, other: "QuadraticFnData") -> "QuadraticFnData":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "QuadraticFnData":
        return self._combine(self, lambda x, _: -x)

    def _combine(self, other: "QuadraticFnData", op) -> "QuadraticFnData":
        """The function whose every value is op(own value, other's value),
        normalized in its group."""
        if self.domain != other.domain:
            raise DomainMismatch("cannot add functions over different domains")
        D = self.domain
        vec, mat = {}, {}
        for part, A in PARTS:
            sv, sm, ov, om = self.vec[part], self.mat[part], other.vec[part], other.mat[part]
            vgrps, cgrps = _part_groups(D.factors, A)
            vec[part] = [g.normalize(op(x, y)) for g, x, y in zip(vgrps, sv, ov)]
            mat[part] = [[g.normalize(op(x, y)) if i == j else _snap(g, g.normalize(op(x, y)))
                          for j, (g, x, y) in enumerate(zip(grow, row, orow))]
                         for i, (grow, row, orow) in enumerate(zip(cgrps, sm, om))]
        return QuadraticFnData._of_values(D, as_scalar(op(self.a0, other.a0)),
                                          mod1(op(self.phi0, other.phi0)), vec, mat)

    def shift(self, e0: GroupElement) -> "QuadraticFnData":
        """The function e -> self(e + e0): the constant is self(e0), and each
        factor i gains the linear term B(e0, e_i), a float within tolerance
        of 0 read as 0 (``_snap``).  The bilinear matrices are shared."""
        out = QuadraticFnData._of_values(self.domain, *self.eval(e0),
                                         {part: list(v) for part, v in self.vec.items()}, self.mat)
        support = [k for k, x in enumerate(e0) if x != 0]
        if not support:
            return out
        D = self.domain
        for part, A in PARTS:
            mat, vec = self.mat[part], out.vec[part]
            lin: Dict[int, Scalar] = {}
            for k in support:
                row, x = mat[k], e0[k]
                for i, b in enumerate(row):
                    if b != 0 and (i != k or not value_is_zero(cell_group(D[k], D[k], A), b)):
                        lin[i] = lin.get(i, 0) + b * x
            for i in sorted(lin):
                grp = image_group(D[i], A)
                d = grp.normalize(lin[i])
                if not value_is_zero(grp, d):
                    vec[i] = _snap(grp, grp.normalize(vec[i] + d))
        return out

    def precompose(self, gamma: LinearFnData) -> "QuadraticFnData":
        """The function h -> self(gamma(h)) for a homomorphism gamma, by
        ``_pullback`` over the nonzero rows of gamma."""
        assert gamma.is_homomorphism
        if gamma.codomain != self.domain:
            raise DomainMismatch("precompose domains do not line up")
        H = gamma.domain
        support = gamma.support()
        live = [k for k, cols in enumerate(support) if cols]
        out = QuadraticFnData._of_values(H, self.a0, self.phi0, *_zero_parts(H))
        for part, A in PARTS:
            vec, mat = self.vec[part], self.mat[part]
            if any(vec[k] or any(mat[k]) for k in live):
                _pullback(self.domain, H, A, vec, mat, gamma.img, support, live,
                          out.vec[part], out.mat[part])
        return out

    def precompose_affine(self, gamma: LinearFnData, shift: GroupElement) -> "QuadraticFnData":
        """The function h -> self(gamma(h) + shift)."""
        return self.shift(shift).precompose(gamma)

    def substitute(self, sub) -> "QuadraticFnData":
        """``precompose_affine`` through the kernel inclusion and shift of a
        ``solve.Substitution`` x_p = sigma + sum_l a_l x_l, for every factor
        kind and value type.

        With sigma != 0 the function is shifted by sigma e_p first
        (``shift``), which changes the constants and the values of p and of
        the factors paired with it.  Then only the values of the moved
        factors change (``_substitute_part``); the others are shared.
        """
        D, p, take = self.domain, sub.p, sub.take
        zero = D.identity()
        q = self.shift(zero[:p] + (sub.sigma,) + zero[p + 1:]) if sub.sigma else self
        vec, mat = {}, {}
        for part, A in PARTS:
            v, m = q.vec[part], q.mat[part]
            vec[part] = take(v)
            mat[part] = [take(row) for row in take(m)]
            near = [k for k, b in enumerate(m[p]) if b and k != p]
            if sub.moved and (near or v[p] or m[p][p]):
                _substitute_part(D, A, v, m, vec[part], mat[part], sub, near)
        return QuadraticFnData._of_values(sub.group, as_scalar(q.a0), mod1(q.phi0), vec, mat)

    def minus_pullback(self, phi: List[int], v: Scalar, b: Scalar) -> "QuadraticFnData":
        """self - r o phi, constants kept, for a homomorphism phi: E -> Z_k
        with integer images ``phi`` and the function r on Z_k with
        r(1) = v and B(1, 1) = b, for exact and float values alike.  phi is
        0 on T and R factors, as hom[T|Z_k] and hom[R|Z_k] are trivial.

        Only the phase values over phi's support change:
        v_j -= phi_j v + C(phi_j, 2) b and B_jl -= phi_j phi_l b, summed as
        ``_Scaled`` numerators.
        """
        supp = [(j, f) for j, f in enumerate(phi) if f]
        vgrps, cgrps = _part_groups(self.domain.factors, T)
        vec, mat = self.vec["phi"], self.mat["phi"]
        vals = {j: _snap(vgrps[j], vec[j]) for j, _ in supp}
        cells = {(j, l): _snap(cgrps[j][l], mat[j][l]) for j, _ in supp for l, _ in supp}
        v, b = _snap(T, v), _snap(T, b)
        S = _Scaled([v, b, *vals.values(), *cells.values()])
        V, B = S.num(v), S.num(b)
        out = self.copy()
        out.a0, out.phi0 = as_scalar(self.a0), mod1(self.phi0)
        ovec, omat = out.vec["phi"], out.mat["phi"]
        for j, f in supp:
            c = f * (f - 1) // 2
            ovec[j] = S.value(vgrps[j], S.num(vals[j]) - f * V - (c * B if c else 0))
            for l, g in supp:
                n = S.num(cells[j, l]) - f * g * B
                omat[j][l] = S.value(cgrps[j][l], n) if j == l else S.cell(cgrps[j][l], n)
        return out

    def restrict_cols(self, cols: List[int]) -> "QuadraticFnData":
        """Restriction to a subset of domain factors (others set to 0)."""
        dom = GroupProduct([self.domain[j] for j in cols])
        return QuadraticFnData._of_values(
            dom, self.a0, self.phi0,
            {part: [v[j] for j in cols] for part, v in self.vec.items()},
            {part: [[m[i][j] for j in cols] for i in cols] for part, m in self.mat.items()})

    def direct_sum(self, other: "QuadraticFnData") -> "QuadraticFnData":
        """The function (e, f) -> self(e) + other(f) on domain x other.domain."""
        dom = self.domain * other.domain
        vec, mat = {}, {}
        for part, A in PARTS:
            vec[part] = self.vec[part] + other.vec[part]
            zero = _zero_values(dom.factors, A)[1]
            m = len(self.domain)
            mat[part] = ([row + list(z[m:]) for row, z in zip(self.mat[part], zero)]
                         + [list(z[:m]) + row for row, z in zip(other.mat[part], zero[m:])])
        return QuadraticFnData._of_values(dom, as_scalar(self.a0 + other.a0),
                                          mod1(self.phi0 + other.phi0), vec, mat)

    def is_zero(self) -> bool:
        if as_scalar(self.a0) != 0 or mod1(self.phi0) != 0:
            return False
        D = self.domain
        for part, A in PARTS:
            mat = self.mat[part]
            for i, (G, v, row) in enumerate(zip(D, self.vec[part], mat)):
                if not (value_is_zero(image_group(G, A), v)
                        and value_is_zero(cell_group(G, G, A), row[i])):
                    return False
                if any(row[j] != 0 for j in range(i + 1, len(row))):
                    return False
        return True


class QuadTerms:
    """The quadratic coefficients of one part of a ``QuadraticFnData``, one
    ``QuadCoeff`` per factor built from its values on access; assigning a
    coefficient to an index writes its values."""

    __slots__ = ("q", "part", "target")

    def __init__(self, q: QuadraticFnData, part: str, target):
        self.q, self.part, self.target = q, part, target

    def __len__(self) -> int:
        return len(self.q.domain)

    def __getitem__(self, k: int) -> QuadCoeff:
        q = self.q
        return quad_of_values(q.domain[k], self.target, q.vec[self.part][k],
                              q.mat[self.part][k][k])

    def __setitem__(self, k: int, c: QuadCoeff) -> None:
        q = self.q
        if (c.source, c.target) != (q.domain[k], self.target):
            raise TagMismatch("quadratic coefficient does not match the domain")
        q.vec[self.part][k], q.mat[self.part][k][k] = quad_values(c)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def assign(self, cells: Sequence[QuadCoeff]) -> None:
        """Set every factor's coefficient."""
        if len(cells) != len(self):
            raise DomainMismatch("one quadratic coefficient per factor is needed")
        for k, c in enumerate(cells):
            self[k] = c


def _quad_term(G, A, v: Scalar, b: Scalar, x: Scalar) -> Scalar:
    """The value at x of the quadratic term with values (v, b) of one factor
    G into A, as ``coeff.quad_apply`` computes it."""
    if is_generated(G, A):
        if G.kind == "Z" and (isinstance(v, float) or isinstance(b, float)):
            # a float term keeps the formula of its coefficient, h2 x^2 for h1 = 0
            return quad_apply(quad_of_values(G, A, v, b), x)
        return mod1(x * v + x * (x - 1) // 2 * b)
    exact_zero = v == 0 and b == 0 and not (isinstance(v, float) or isinstance(b, float))
    if exact_zero or image_group(G, A) is Z1:
        # an exact zero term is an exact 0, also at a float point
        return A.normalize(0)
    if G.kind == "T":
        return A.normalize(v * x)
    return A.normalize(b * x * x / 2 + v * x)


class _Scaled:
    """One sum of values, as numerators over one denominator.

    L is the lcm of the denominators of the exact values in ``read``.
    ``num(x)`` is x L: an integer for an exact x, a float for a float, so a
    sum of numerators is exact unless a float reached it.  ``value`` turns
    a sum back into a value of its group, normalized once, and ``cell``
    does the same for an off-diagonal entry (``_snap``).
    """

    __slots__ = ("L",)

    def __init__(self, read):
        self.L = math.lcm(*[x.denominator for x in read if not isinstance(x, float)])

    def num(self, x):
        return x * self.L if isinstance(x, float) else x.numerator * (self.L // x.denominator)

    def value(self, grp, n) -> Scalar:
        L = self.L
        if not isinstance(n, int):
            return grp.normalize(n / L)
        return Fraction(n % L, L) if grp is T else grp.normalize(Fraction(n, L))

    def cell(self, grp, n) -> Scalar:
        return _snap(grp, self.value(grp, n))


def _substitute_part(D: GroupProduct, A, vec, mat, out_vec, out_mat, sub, near: List[int]) -> None:
    """Write into ``out_vec`` and ``out_mat``, one part of q into A
    restricted to the kept columns, the values that the substitution
    x_p = sum_l a_l x_l changes, once q is shifted by sigma e_p; ``near``
    lists the factors with a cell against p.

    With B the cells of the input, a moved factor l gets v_l + a_l v_p,
    plus C(a_l, 2) b_pp + a_l B_pl when it is generated, and
    b_ll + a_l^2 b_pp + 2 a_l B_pl; a cell of two moved factors gains
    a_l a_m b_pp + a_m B_pl + a_l B_pm, and one of a moved factor and
    another factor m of ``near``, of any kind, gains a_l B_pm.  These are
    the sums of ``_pullback`` along the kernel inclusion, as ``_Scaled``
    numerators, each normalized in its entry's group.
    """
    p, pos, moved = sub.p, sub.pos, sub.moved
    vgrps, cgrps = _part_groups(D.factors, A)
    rows = [p] + [l for _, l, _ in moved]
    others = [(pos[m], m) for m in near if m not in rows]
    cols = rows + [m for _, m in others]
    vals = {k: _snap(vgrps[k], vec[k]) for k in rows}
    cells = {(k, l): _snap(cgrps[k][l], mat[k][l]) for k in rows for l in cols}
    S = _Scaled([*vals.values(), *cells.values()])
    num = S.num
    vp, bpp = num(vals[p]), num(cells[p, p])
    for idx, (j, l, a) in enumerate(moved):
        bpl, grow = num(cells[p, l]), cgrps[l]
        n = num(vals[l]) + a * vp
        if is_generated(D[l], A):
            c = a * (a - 1) // 2
            n += (c * bpp if c else 0) + a * bpl
        out_vec[j] = S.value(vgrps[l], n)
        out_mat[j][j] = S.value(grow[l], num(cells[l, l]) + a * a * bpp + 2 * a * bpl)
        for j2, m, a2 in moved[idx + 1:]:
            out_mat[j][j2] = out_mat[j2][j] = S.cell(
                grow[m], num(cells[l, m]) + a * a2 * bpp + a2 * bpl + a * num(cells[p, m]))
        for j2, m in others:
            out_mat[j][j2] = out_mat[j2][j] = S.cell(grow[m],
                                                     num(cells[l, m]) + a * num(cells[p, m]))


_HALF = Fraction(1, 2)


def _pullback(D: GroupProduct, H: GroupProduct, A, vec, mat, img, support, live,
              out_vec, out_mat) -> None:
    """Write the values of one part of q o gamma into ``out_vec`` and
    ``out_mat`` (zero on entry), for a part into A over every factor kind.

    b'_ij = sum_kl g_ki b_kl g_lj.  A generated output factor i gets
    v'_i = sum_k [g_ki v_k + c_k(g_ki) b_kk] + sum_{k<l} g_ki g_li b_kl, with
    c_k(g) = C(g, 2) on a generated input factor and g^2 / 2 on any other;
    any other output factor gets v'_i = sum_k g_ki v_k.  The sums run over
    the ``live`` rows of gamma as ``_Scaled`` numerators, and a value
    within tolerance of 0 is skipped.
    """
    vgrps, cgrps = _part_groups(D.factors, A)
    terms = []
    for k in live:
        row, grow = mat[k], cgrps[k]
        cells = [(l, b) for l in live
                 if (b := row[l]) and not (isinstance(b, float) and grow[l].eq(b, 0))]
        terms.append((k, _snap(vgrps[k], vec[k]), cells))
    S = _Scaled([v for _, v, _ in terms] + [b for *_, cells in terms for _, b in cells])
    num = S.num
    # an integral Fraction image, as in the rows of R factors, multiplies as an int
    img = {k: [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in img[k]]
           if D[k] is R else img[k] for k in live}
    h = len(H)
    out_gen = [is_generated(Hi, A) for Hi in H]
    vnum = [0] * h
    bnum = [[0] * h for _ in range(h)]
    for k, v, cells in terms:
        # P[j] = sum_l b_kl g_lj, and low[j] its part over l < k
        P: Dict[int, Scalar] = {}
        low: Dict[int, Scalar] = {}
        bkk = 0
        for l, b in cells:
            b = num(b)
            if l == k:
                bkk = b
            gl = img[l]
            for j in support[l]:
                x = b * gl[j]
                P[j] = P.get(j, 0) + x
                if l < k:
                    low[j] = low.get(j, 0) + x
        V = num(v)
        gk = img[k]
        in_gen = is_generated(D[k], A)
        for i in support[k]:
            g = gk[i]
            if out_gen[i]:
                c = g * (g - 1) // 2 if in_gen else g * g * _HALF
                vnum[i] += g * (V + low.get(i, 0)) + (c * bkk if c and bkk else 0)
            else:
                vnum[i] += g * V
            brow = bnum[i]
            for j, y in P.items():
                if j >= i:
                    brow[j] += g * y
    vout, cout = _part_groups(H.factors, A)
    for i in range(h):
        n = vnum[i]
        if n or isinstance(n, float):
            out_vec[i] = S.value(vout[i], n)
        brow = bnum[i]
        for j in range(i, h):
            n = brow[j]
            if n or isinstance(n, float):
                out_mat[i][j] = out_mat[j][i] = (S.value if i == j else S.cell)(cout[i][j], n)
