"""Whole-function objects over group products.

A quadratic function q = (q_a, q_phi) into R x R/Z is stored as constants,
a vector of normalized quadratic coefficients (one per domain factor), and
a strictly upper triangular matrix of bilinear coefficients; the diagonal
is folded into the vector and reconstructed on demand.  A linear function
into a group product is a constant element plus a matrix of homomorphism
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .coeff import (
    DomainMismatch,
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    compose,
    conjugate_cell,
    hom2_apply,
    hom2_partial,
    hom2_zero,
    hom_apply,
    hom_zero,
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


@dataclass
class LinearFnData:
    """An affine-linear function domain -> codomain."""

    domain: GroupProduct
    codomain: GroupProduct
    eps0: GroupElement
    eps1: List[List[HomCoeff]]  # rows: codomain factors, cols: domain factors

    def __post_init__(self):
        n, m = len(self.codomain), len(self.domain)
        assert len(self.eps0) == n
        assert len(self.eps1) == n and all(len(row) == m for row in self.eps1)

    @staticmethod
    def zero(domain: GroupProduct, codomain: GroupProduct) -> "LinearFnData":
        return LinearFnData(
            domain,
            codomain,
            codomain.identity(),
            [[hom_zero(domain[j], codomain[i]) for j in range(len(domain))]
             for i in range(len(codomain))],
        )

    @staticmethod
    def identity(G: GroupProduct) -> "LinearFnData":
        eps = LinearFnData.zero(G, G)
        for i in range(len(G)):
            eps.eps1[i][i] = HomCoeff(G[i], G[i], 1)
        return eps

    @property
    def is_homomorphism(self) -> bool:
        return self.codomain.is_identity(self.eps0)

    def __call__(self, e: GroupElement) -> GroupElement:
        if len(e) != len(self.domain):
            raise DomainMismatch("element does not match domain")
        out = []
        for i, Gi in enumerate(self.codomain):
            acc = self.eps0[i]
            for j in range(len(self.domain)):
                acc = acc + hom_apply(self.eps1[i][j], e[j])
            out.append(Gi.normalize(acc))
        return tuple(out)

    def compose_hom(self, gamma: "LinearFnData") -> "LinearFnData":
        """This function composed with a homomorphism: self(gamma(.))."""
        assert gamma.is_homomorphism
        if gamma.codomain != self.domain:
            raise DomainMismatch("composition domains do not line up")
        H = gamma.domain
        gamma_rows = _nonzero_rows(gamma.eps1)
        eps1 = []
        for i, Ci in enumerate(self.codomain):
            row = [hom_zero(Hj, Ci) for Hj in H]
            for k, c in enumerate(self.eps1[i]):
                if c.is_zero():
                    continue
                for j, g in gamma_rows[k]:
                    row[j] = row[j] + compose(g, c)
            eps1.append(row)
        return LinearFnData(H, self.codomain, self.eps0, eps1)

    def compose_affine(self, gamma: "LinearFnData", shift: GroupElement) -> "LinearFnData":
        """self(gamma(.) + shift), for a homomorphism gamma into the domain."""
        composed = self.compose_hom(gamma)
        delta = []
        for i, Gi in enumerate(self.codomain):
            acc = self.eps0[i]
            for j in range(len(self.domain)):
                acc = acc + hom_apply(self.eps1[i][j], shift[j])
            delta.append(Gi.normalize(acc))
        return LinearFnData(gamma.domain, self.codomain, tuple(delta), composed.eps1)

    def column(self, j: int) -> List[HomCoeff]:
        return [self.eps1[i][j] for i in range(len(self.codomain))]

    def restrict_cols(self, cols: List[int]) -> "LinearFnData":
        dom = GroupProduct([self.domain[j] for j in cols])
        return LinearFnData(
            dom, self.codomain, self.eps0,
            [[self.eps1[i][j] for j in cols] for i in range(len(self.codomain))],
        )


def _nonzero_rows(cells: List[List[HomCoeff]]) -> List[List[Tuple[int, HomCoeff]]]:
    """The (column, coefficient) pairs of each row's nonzero cells."""
    return [[(j, c) for j, c in enumerate(row) if not c.is_zero()] for row in cells]


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
            self.a1 = [quad_zero(self.domain[i], R) for i in range(m)]
        if not self.phi1:
            self.phi1 = [quad_zero(self.domain[i], T) for i in range(m)]
        self.a2 = {ij: c for ij, c in self.a2.items() if not c.is_zero()}
        self.phi2 = {ij: c for ij, c in self.phi2.items() if not c.is_zero()}
        for (i, j) in list(self.a2) + list(self.phi2):
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

    def neighbours(self, part: str) -> List[List[Tuple[int, Hom2Coeff]]]:
        """For each factor k, the nonzero cells (l, cell(k, l)) in order of l.

        The diagonal cell is the bilinear form of the factor's quadratic
        coefficient; the stored cells appear in both rows, transposed in
        the row of their larger index.
        """
        m = len(self.domain)
        nbrs: List[List[Tuple[int, Hom2Coeff]]] = [[] for _ in range(m)]
        for k, q1k in enumerate(self.vec(part)):
            diag = quad_to_bilinear(q1k)
            if not diag.is_zero():
                nbrs[k].append((k, diag))
        for (k, l), c in getattr(self, part + "2").items():
            if c.is_zero():
                continue
            nbrs[k].append((l, c))
            nbrs[l].append((k, c.transpose()))
        for row in nbrs:
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
            nbrs = self.neighbours(part)
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
        gamma_rows = _nonzero_rows(gamma.eps1)
        out = QuadraticFnData(H, self.a0, self.phi0)
        for part in ("a", "phi"):
            q1 = self.vec(part)
            vec = out.vec(part)
            cells: Dict[Cell, Hom2Coeff] = {}
            for k, nbrs in enumerate(self.neighbours(part)):
                rk = gamma_rows[k]
                if not q1[k].is_zero():
                    for i, g in rk:
                        vec[i] = vec[i] + phi(q1[k], g)
                for l, cell in nbrs:
                    rl = gamma_rows[l]
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
