"""Whole-function objects over group products.

A quadratic function q = (q_a, q_phi) into R x R/Z is stored as constants,
a vector of normalized quadratic coefficients (one per domain factor), and
a strictly upper triangular matrix of bilinear coefficients; the diagonal
is folded into the vector and reconstructed on demand.

A linear function into a group product is a constant element plus one
matrix of generator images: each Z_k or Z column holds the image of its
generator in every codomain factor, each T or R column its multiplier
(``coeff.image_group``).  Composition is a product of these matrices,
each entry normalized in its group, and application multiplies entries by
element values; no coefficient object is built.  The ``HomCoeff`` cells
of the table-level API are converted once on construction and rebuilt on
demand by the read-only ``eps1`` view.  ``QuadraticFnData.precompose``
builds a coefficient for each nonzero image it visits, because its
pullbacks are coefficient tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .coeff import (
    DomainMismatch,
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    conjugate_cell,
    hom2_apply,
    hom2_partial,
    hom2_zero,
    hom_image,
    hom_of_image,
    hom_zero,
    image_apply,
    image_group,
    lam,
    linear_as_quad,
    phi,
    quad_apply,
    quad_to_bilinear,
    quad_zero,
)
from .groups import GroupElement, GroupProduct, R, T
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
                for Dj, v, x in zip(D, row, e):
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


@functools.lru_cache(maxsize=4096)
def _zero_vec(domain: GroupProduct, A) -> Tuple[QuadCoeff, ...]:
    """The zero quadratic coefficient into A of each factor of ``domain``."""
    return tuple(quad_zero(Dj, A) for Dj in domain)


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


@dataclass
class QuadraticFnData:
    """A quadratic function into R x R/Z over a group product."""

    domain: GroupProduct
    a0: Scalar = 0
    phi0: Scalar = 0
    a1: List[QuadCoeff] = field(default_factory=list)
    phi1: List[QuadCoeff] = field(default_factory=list)
    a2: Dict[Cell, Hom2Coeff] = field(default_factory=dict)
    phi2: Dict[Cell, Hom2Coeff] = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.domain)
        self.a0 = as_scalar(self.a0)
        self.phi0 = mod1(as_scalar(self.phi0))
        if not self.a1:
            self.a1 = list(_zero_vec(self.domain, R))
        if not self.phi1:
            self.phi1 = list(_zero_vec(self.domain, T))
        self.a2 = {ij: c for ij, c in self.a2.items() if not c.is_zero()} if self.a2 else {}
        self.phi2 = {ij: c for ij, c in self.phi2.items() if not c.is_zero()} if self.phi2 else {}
        for store in (self.a2, self.phi2):
            for (i, j) in store:
                assert 0 <= i < j < m, "bilinear cells must be strictly upper triangular"

    @staticmethod
    def zero(domain: GroupProduct) -> "QuadraticFnData":
        return QuadraticFnData(domain)

    def cell(self, part: str, i: int, j: int) -> Hom2Coeff:
        """Full bilinear matrix cell, diagonal folded back in from q1."""
        store = self.a2 if part == "a" else self.phi2
        tgt = R if part == "a" else T
        if i == j:
            q1 = self.a1[i] if part == "a" else self.phi1[i]
            return quad_to_bilinear(q1)
        if i < j:
            return store.get((i, j), hom2_zero(self.domain[i], self.domain[j], tgt))
        return store.get((j, i), hom2_zero(self.domain[j], self.domain[i], tgt)).transpose()

    def set_cell(self, part: str, i: int, j: int, c: Hom2Coeff) -> None:
        assert i < j
        store = self.a2 if part == "a" else self.phi2
        if c.is_zero():
            store.pop((i, j), None)
        else:
            store[(i, j)] = c

    def vec(self, part: str) -> List[QuadCoeff]:
        return self.a1 if part == "a" else self.phi1

    def __call__(self, e: GroupElement) -> Tuple[Scalar, Scalar]:
        return self.eval(e)

    def eval(self, e: GroupElement) -> Tuple[Scalar, Scalar]:
        if len(e) != len(self.domain):
            raise DomainMismatch("element does not match domain")
        # every term at a finite factor's 0 is an exact 0, so those are skipped
        live = [x != 0 or G.kind != "Zk" for G, x in zip(self.domain, e)]
        a = self.a0
        ph = self.phi0
        for i, x in enumerate(e):
            if live[i]:
                a = a + quad_apply(self.a1[i], x)
                ph = ph + quad_apply(self.phi1[i], x)
        for (i, j), c in self.a2.items():
            if live[i] and live[j]:
                a = a + hom2_apply(c, e[i], e[j])
        for (i, j), c in self.phi2.items():
            if live[i] and live[j]:
                ph = ph + hom2_apply(c, e[i], e[j])
        return as_scalar(a), mod1(ph)

    def __add__(self, other: "QuadraticFnData") -> "QuadraticFnData":
        if self.domain != other.domain:
            raise DomainMismatch("cannot add functions over different domains")
        m = len(self.domain)
        out = QuadraticFnData(
            self.domain,
            self.a0 + other.a0,
            mod1(self.phi0 + other.phi0),
            [self.a1[i] + other.a1[i] for i in range(m)],
            [self.phi1[i] + other.phi1[i] for i in range(m)],
        )
        for part in ("a", "phi"):
            cells = set(getattr(self, part + "2")) | set(getattr(other, part + "2"))
            for (i, j) in cells:
                out.set_cell(part, i, j, self.cell(part, i, j) + other.cell(part, i, j))
        return out

    def __neg__(self) -> "QuadraticFnData":
        out = QuadraticFnData(
            self.domain,
            -self.a0,
            mod1(-self.phi0),
            [-c for c in self.a1],
            [-c for c in self.phi1],
        )
        for part in ("a", "phi"):
            for (i, j), c in getattr(self, part + "2").items():
                out.set_cell(part, i, j, -c)
        return out

    def _vanishes(self, part: str) -> bool:
        """Whether the part ("a" or "phi") has no quadratic or bilinear term."""
        return not getattr(self, part + "2") and all(c.is_zero() for c in self.vec(part))

    def neighbours(self, part: str, rows=None) -> List[List[Tuple[int, Hom2Coeff]]]:
        """For each factor k, the nonzero cells (l, cell(k, l)) in order of l.

        The diagonal cell is the bilinear form of the factor's quadratic
        coefficient; the stored cells appear in both rows, transposed in
        the row of their larger index.  With ``rows`` (a set of factors),
        the rows of all other factors are left empty.
        """
        m = len(self.domain)
        rows = range(m) if rows is None else rows
        nbrs: List[List[Tuple[int, Hom2Coeff]]] = [[] for _ in range(m)]
        for k, q1k in enumerate(self.vec(part)):
            if k in rows and not q1k.is_zero():
                diag = quad_to_bilinear(q1k)
                if not diag.is_zero():
                    nbrs[k].append((k, diag))
        for (k, l), c in getattr(self, part + "2").items():
            if (k not in rows and l not in rows) or c.is_zero():
                continue
            if k in rows:
                nbrs[k].append((l, c))
            if l in rows:
                nbrs[l].append((k, c.transpose()))
        for row in nbrs:
            if len(row) > 1:
                row.sort(key=lambda lc: lc[0])
        return nbrs

    def shift(self, e0: GroupElement) -> "QuadraticFnData":
        """The function e -> self(e + e0)."""
        a_val, phi_val = self.eval(e0)
        out = QuadraticFnData(
            self.domain,
            a_val,
            phi_val,
            list(self.a1),
            list(self.phi1),
            dict(self.a2),
            dict(self.phi2),
        )
        support = [k for k, x in enumerate(e0) if x != 0]
        if not support:
            return out
        # linear correction q^(2)(e0, .)
        for part, tgt in (("a", R), ("phi", T)):
            if self._vanishes(part):
                continue
            nbrs = self.neighbours(part, set(support))
            lin: Dict[int, HomCoeff] = {}
            for k in support:
                for i, cell in nbrs[k]:
                    h = lin.get(i, hom_zero(self.domain[i], tgt))
                    lin[i] = h + hom2_partial(cell, e0[k])
            vec = out.vec(part)
            for i in sorted(lin):
                if not lin[i].is_zero():
                    vec[i] = vec[i] + linear_as_quad(lin[i])
        return out

    def precompose(self, gamma: LinearFnData) -> "QuadraticFnData":
        """The function h -> self(gamma(h)) for a homomorphism gamma.

        Only nonzero cells of gamma and of the bilinear form are visited;
        each output coefficient sums its terms in the order (k, l) of the
        input cells, as a dense double loop would.
        """
        assert gamma.is_homomorphism
        if gamma.codomain != self.domain:
            raise DomainMismatch("precompose domains do not line up")
        H = gamma.domain
        # only the rows of gamma with a nonzero image contribute
        live = {k for k, cols in enumerate(gamma.support()) if cols}
        rows: Dict[int, List[Tuple[int, HomCoeff]]] = {}

        def gamma_row(k: int) -> List[Tuple[int, HomCoeff]]:
            """(j, coefficient) for the nonzero images of row k, built on first use."""
            if k not in rows:
                Ek, img = self.domain[k], gamma.img[k]
                rows[k] = [(j, hom_of_image(H[j], Ek, img[j])) for j in gamma.support()[k]]
            return rows[k]

        out = QuadraticFnData(H, self.a0, self.phi0)
        for part in ("a", "phi"):
            if self._vanishes(part):
                continue
            q1 = self.vec(part)
            vec = out.vec(part)
            cells: Dict[Cell, Hom2Coeff] = {}
            for k, nbrs in enumerate(self.neighbours(part, live)):
                quadratic = k in live and not q1[k].is_zero()
                if not quadratic and not nbrs:
                    continue
                rk = gamma_row(k)
                if quadratic:
                    for i, g in rk:
                        vec[i] = vec[i] + phi(q1[k], g)
                for l, cell in nbrs:
                    if l not in live:
                        continue
                    rl = gamma_row(l)
                    if l < k:
                        # the diagonal of H picks up B(gamma_k h, gamma_l h) once per pair {k, l}
                        gl_of = dict(rl)
                        for i, g in rk:
                            gl = gl_of.get(i)
                            if gl is not None:
                                vec[i] = vec[i] + lam(conjugate_cell(g, cell, gl))
                    for i, g in rk:
                        for j, gl in rl:
                            if j > i:
                                c = conjugate_cell(g, cell, gl)
                                cells[(i, j)] = cells[(i, j)] + c if (i, j) in cells else c
            for i, j in sorted(cells):
                out.set_cell(part, i, j, cells[(i, j)])
        return out

    def precompose_affine(self, gamma: LinearFnData, shift: GroupElement) -> "QuadraticFnData":
        """The function h -> self(gamma(h) + shift)."""
        return self.shift(shift).precompose(gamma)

    def restrict_cols(self, cols: List[int]) -> "QuadraticFnData":
        """Restriction to a subset of domain factors (others set to 0)."""
        dom = GroupProduct([self.domain[j] for j in cols])
        pos = {j: i for i, j in enumerate(cols)}
        out = QuadraticFnData(
            dom, self.a0, self.phi0,
            [self.a1[j] for j in cols],
            [self.phi1[j] for j in cols],
        )
        for part in ("a", "phi"):
            for (i, j), c in getattr(self, part + "2").items():
                if i in pos and j in pos:
                    out.set_cell(part, pos[i], pos[j], c)
        return out

    def direct_sum(self, other: "QuadraticFnData") -> "QuadraticFnData":
        dom = self.domain * other.domain
        off = len(self.domain)
        out = QuadraticFnData(
            dom,
            self.a0 + other.a0,
            mod1(self.phi0 + other.phi0),
            list(self.a1) + list(other.a1),
            list(self.phi1) + list(other.phi1),
        )
        for part in ("a", "phi"):
            for (i, j), c in getattr(self, part + "2").items():
                out.set_cell(part, i, j, c)
            for (i, j), c in getattr(other, part + "2").items():
                out.set_cell(part, i + off, j + off, c)
        return out

    def is_zero(self) -> bool:
        return (
            self.domain.factors == ()
            or (
                not self.a2
                and not self.phi2
                and all(c.is_zero() for c in self.a1)
                and all(c.is_zero() for c in self.phi1)
            )
        ) and as_scalar(self.a0) == 0 and mod1(self.phi0) == 0
