"""Coefficient groups for homomorphisms, bilinear forms, and normalized
quadratic functions between elementary abelian groups, together with the
operations on coefficients: application, composition, duals, pullbacks of
quadratic coefficients along homomorphisms, diagonal restriction of
bilinear coefficients, and the inclusion of linear into quadratic
coefficients.

Every space of functions appearing here is isomorphic to a single
elementary abelian group (or a product of two), and each function is
stored as one coefficient value in that group.  All operations below are
closed-form table lookups with explicit even/odd branching for cyclic
groups; exhaustive pointwise verification lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from .groups import ElementaryGroup, R, T, Z, Z1, Zk
from .scalar import Scalar, as_scalar, is_exact, mod1


class DomainMismatch(ValueError):
    pass


class TagMismatch(ValueError):
    pass


class UnsupportedTarget(ValueError):
    pass


def _gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def _half_odd(v: int, k: int) -> int:
    """The unique h/2 in Z_k for odd k (k+1)//2 is the inverse of doubling."""
    return (v * ((k + 1) // 2)) % k


def _norm(group: ElementaryGroup, v) -> Scalar:
    if group.kind == "Zk":
        return Fraction(int(v) % group.k)
    if group.kind == "Z":
        return Fraction(int(v))
    if group.kind == "T":
        return mod1(as_scalar(v))
    return as_scalar(v)


# ---------------------------------------------------------------------------
# hom[G|A]


def hom_group(G: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    """The coefficient group of homomorphisms G -> A."""
    if G.kind == "Zk":
        if A.kind == "Zk":
            return Zk(_gcd(G.k, A.k))
        if A.kind == "T":
            return Zk(G.k)
        return Z1
    if G.kind == "Z":
        return A
    if G.kind == "T":
        return Z if A.kind == "T" else Z1
    # G = R
    return R if A.kind in ("T", "R") else Z1


@dataclass(frozen=True)
class HomCoeff:
    source: ElementaryGroup
    target: ElementaryGroup
    value: Scalar

    def __post_init__(self):
        grp = hom_group(self.source, self.target)
        object.__setattr__(self, "value", _norm(grp, self.value))

    @property
    def group(self) -> ElementaryGroup:
        return hom_group(self.source, self.target)

    def is_zero(self) -> bool:
        return self.group.eq(self.value, 0)

    def __add__(self, other: "HomCoeff") -> "HomCoeff":
        if (self.source, self.target) != (other.source, other.target):
            raise TagMismatch("hom coefficient tags differ")
        return HomCoeff(self.source, self.target, self.value + other.value)

    def __neg__(self) -> "HomCoeff":
        return HomCoeff(self.source, self.target, -self.value)


def hom_zero(G: ElementaryGroup, A: ElementaryGroup) -> HomCoeff:
    return HomCoeff(G, A, 0)


def hom_apply(h: HomCoeff, g) -> Scalar:
    """Evaluate the homomorphism with coefficient ``h`` at ``g``."""
    G, A, v = h.source, h.target, h.value
    g = G.normalize(g)
    if G.kind == "Zk":
        if A.kind == "Zk":
            d = _gcd(G.k, A.k)
            return Fraction((A.k // d) * int(v) * int(g) % A.k)
        if A.kind == "T":
            return mod1(Fraction(int(v) * int(g), G.k)) if is_exact(g) else mod1(v * g / G.k)
        return Fraction(0) if A.kind == "Z" else as_scalar(0.0) if A.kind == "R" else 0
    if G.kind == "Z":
        if A.kind == "Zk":
            return Fraction(int(v) * int(g) % A.k)
        if A.kind == "Z":
            return Fraction(int(v) * int(g))
        if A.kind == "T":
            return mod1(v * int(g))
        return v * int(g)
    if G.kind == "T":
        if A.kind == "T":
            return mod1(int(v) * g)
        return _norm(A, 0)
    # G = R
    if A.kind == "T":
        return mod1(v * g)
    if A.kind == "R":
        return v * g
    return _norm(A, 0)


# ---------------------------------------------------------------------------
# hom^2[G0,G1|A] via currying


def hom2_group(G0: ElementaryGroup, G1: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    return hom_group(G0, hom_group(G1, A))


@dataclass(frozen=True)
class Hom2Coeff:
    g0: ElementaryGroup
    g1: ElementaryGroup
    target: ElementaryGroup
    value: Scalar

    def __post_init__(self):
        grp = hom2_group(self.g0, self.g1, self.target)
        object.__setattr__(self, "value", _norm(grp, self.value))

    @property
    def group(self) -> ElementaryGroup:
        return hom2_group(self.g0, self.g1, self.target)

    def is_zero(self) -> bool:
        return self.group.eq(self.value, 0)

    def __add__(self, other: "Hom2Coeff") -> "Hom2Coeff":
        if (self.g0, self.g1, self.target) != (other.g0, other.g1, other.target):
            raise TagMismatch("bilinear coefficient tags differ")
        return Hom2Coeff(self.g0, self.g1, self.target, self.value + other.value)

    def __neg__(self) -> "Hom2Coeff":
        return Hom2Coeff(self.g0, self.g1, self.target, -self.value)

    def transpose(self) -> "Hom2Coeff":
        # the coefficient groups for (g0,g1) and (g1,g0) coincide and the
        # evaluation formulas are symmetric, so the value carries over
        return Hom2Coeff(self.g1, self.g0, self.target, self.value)

    def as_outer_hom(self) -> HomCoeff:
        """View as a homomorphism G0 -> hom[G1|A]."""
        return HomCoeff(self.g0, hom_group(self.g1, self.target), self.value)


def hom2_zero(G0, G1, A) -> Hom2Coeff:
    return Hom2Coeff(G0, G1, A, 0)


def hom2_apply(h: Hom2Coeff, g0, g1) -> Scalar:
    inner = hom_apply(h.as_outer_hom(), g0)
    return hom_apply(HomCoeff(h.g1, h.target, inner), g1)


def hom2_partial(h: Hom2Coeff, g0) -> HomCoeff:
    """Partial evaluation b(g0, .) as a homomorphism G1 -> A."""
    inner = hom_apply(h.as_outer_hom(), g0)
    return HomCoeff(h.g1, h.target, inner)


# ---------------------------------------------------------------------------
# hom_2[G|A]: normalized quadratic functions


def quad_group(G: ElementaryGroup, A: ElementaryGroup) -> Tuple[ElementaryGroup, ElementaryGroup]:
    """The pair of factor groups holding (h2, h1) quadratic coefficients."""
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l, d = A.k, _gcd(G.k, A.k)
            if k % 2 == 0 and l % 2 == 0:
                return Zk(2 * _gcd(k, l // 2)), Zk(max(d // 2, 1))
            return Zk(d), Zk(d)
        if A.kind == "T":
            if k % 2 == 0:
                return Zk(2 * k), Zk(max(k // 2, 1))
            return Zk(k), Zk(k)
        return Z1, Z1
    if G.kind == "Z":
        if A.kind == "Zk":
            return Zk(A.k), Zk(A.k)
        return A, A
    if G.kind == "T":
        return (Z1, Z) if A.kind == "T" else (Z1, Z1)
    # G = R
    if A.kind in ("T", "R"):
        return R, R
    return Z1, Z1


@dataclass(frozen=True)
class QuadCoeff:
    source: ElementaryGroup
    target: ElementaryGroup
    h2: Scalar
    h1: Scalar

    def __post_init__(self):
        g2, g1 = quad_group(self.source, self.target)
        object.__setattr__(self, "h2", _norm(g2, self.h2))
        object.__setattr__(self, "h1", _norm(g1, self.h1))

    @property
    def groups(self) -> Tuple[ElementaryGroup, ElementaryGroup]:
        return quad_group(self.source, self.target)

    def is_zero(self) -> bool:
        g2, g1 = self.groups
        return g2.eq(self.h2, 0) and g1.eq(self.h1, 0)

    def __add__(self, other: "QuadCoeff") -> "QuadCoeff":
        return quad_add(self, other)

    def __neg__(self) -> "QuadCoeff":
        return QuadCoeff(self.source, self.target, -self.h2, -self.h1)


def quad_zero(G, A) -> QuadCoeff:
    return QuadCoeff(G, A, 0, 0)


def quad_add(a: QuadCoeff, b: QuadCoeff) -> QuadCoeff:
    """Addition of normalized quadratic functions.

    The (h2, h1) parameterization used here makes the coefficient pair an
    honest product group, so addition is componentwise; the 2-cocycle
    twist of the standard-function parameterization (see
    ``omega_cocycle``) is already absorbed into the encoding.
    """
    if (a.source, a.target) != (b.source, b.target):
        raise TagMismatch("quadratic coefficient tags differ")
    return QuadCoeff(a.source, a.target, a.h2 + b.h2, a.h1 + b.h1)


def quad_apply(q: QuadCoeff, g) -> Scalar:
    """Evaluate the normalized quadratic function at a group element."""
    G, A = q.source, q.target
    h2, h1 = q.h2, q.h1
    g = G.normalize(g)
    if G.kind == "Zk":
        k = G.k
        gg = int(g)
        if A.kind == "Zk":
            l, d = A.k, _gcd(k, A.k)
            if k % 2 == 0 and l % 2 == 0:
                term = Fraction(l, _gcd(k, l // 2)) * Fraction(int(h2)) / 2 * gg * gg
                term += Fraction(l, d) * int(h1) * (gg - gg * gg)
                assert term.denominator == 1
                return Fraction(int(term) % l)
            half = _half_odd(int(h2), d)
            return Fraction((l // d) * (half * gg * gg + int(h1) * gg) % l)
        if A.kind == "T":
            if k % 2 == 0:
                return mod1(Fraction(int(h2), 2 * k) * gg * gg + Fraction(int(h1), k) * (gg - gg * gg))
            half = _half_odd(int(h2), k)
            return mod1(Fraction(half * gg * gg + int(h1) * gg, k))
        return _norm(A, 0)
    if G.kind == "Z":
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if l % 2 == 0:
                v = int(h2) * (gg * (gg + 1) // 2) + int(h1) * gg
                return Fraction(v % l)
            half = _half_odd(int(h2), l)
            return Fraction((half * gg * gg + int(h1) * gg) % l)
        if A.kind == "Z":
            return Fraction(int(h2) * (gg * (gg + 1) // 2) + int(h1) * gg)
        if A.kind == "T":
            return mod1((h2 - h1 / 2) * gg * gg + h1 / 2 * gg)
        return h2 * gg * gg / 2 + h1 * gg  # A = R
    if G.kind == "T":
        if A.kind == "T":
            return mod1(int(q.h1) * g)
        return _norm(A, 0)
    # G = R
    if A.kind == "T":
        return mod1(h2 * g * g / 2 + h1 * g)
    if A.kind == "R":
        return h2 * g * g / 2 + h1 * g
    return _norm(A, 0)


def quad_to_bilinear(q: QuadCoeff) -> Hom2Coeff:
    """The coefficient of the bilinear form (second derivative) of ``q``."""
    G, A = q.source, q.target
    h2, h1 = q.h2, q.h1
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l, d = A.k, _gcd(k, A.k)
            if k % 2 == 0 and l % 2 == 0:
                v = (d // _gcd(k, l // 2)) * int(h2) - 2 * int(h1)
                return Hom2Coeff(G, G, A, v % d)
            return Hom2Coeff(G, G, A, h2)
        if A.kind == "T":
            if k % 2 == 0:
                return Hom2Coeff(G, G, A, (int(h2) - 2 * int(h1)) % k)
            return Hom2Coeff(G, G, A, h2)
        return hom2_zero(G, G, A)
    if G.kind == "Z":
        if A.kind == "T":
            return Hom2Coeff(G, G, A, mod1(2 * h2 - h1))
        return Hom2Coeff(G, G, A, h2)
    if G.kind == "T":
        return hom2_zero(G, G, A)
    return Hom2Coeff(G, G, A, h2) if A.kind in ("T", "R") else hom2_zero(G, G, A)


def linear_as_quad(h: HomCoeff) -> QuadCoeff:
    """The coefficients of a homomorphism regarded as a quadratic function."""
    G, A, v = h.source, h.target, h.value
    if A.kind not in ("Zk", "Z", "T", "R"):
        raise UnsupportedTarget(str(A))
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l, d = A.k, _gcd(k, A.k)
            if k % 2 == 0 and l % 2 == 0:
                g2 = _gcd(k, l // 2)
                return QuadCoeff(G, A, (2 * g2 // d) * int(v), v)
            return QuadCoeff(G, A, 0, v)
        if A.kind == "T":
            if k % 2 == 0:
                return QuadCoeff(G, A, 2 * int(v), v)
            return QuadCoeff(G, A, 0, v)
        return quad_zero(G, A)
    if G.kind == "Z":
        if A.kind == "T":
            return QuadCoeff(G, A, v, mod1(2 * v))
        return QuadCoeff(G, A, 0, v)
    # T and R sources: plain inclusion into the h1 slot
    return QuadCoeff(G, A, 0, v)


def quad_as_hom(q: QuadCoeff) -> HomCoeff:
    """Extract the homomorphism a quadratic coefficient represents.

    Only valid when the bilinear part vanishes; raises otherwise.
    """
    G, A = q.source, q.target
    if not quad_to_bilinear(q).is_zero():
        raise ValueError("quadratic coefficient is not linear")
    if G.kind == "Zk":
        val = quad_apply(q, 1)
        if A.kind == "T":
            f = Fraction(val) * G.k
            assert f.denominator == 1
            return HomCoeff(G, A, int(f))
        if A.kind == "Zk":
            d = _gcd(G.k, A.k)
            step = A.k // d
            assert int(val) % step == 0
            return HomCoeff(G, A, (int(val) // step) % d)
        return hom_zero(G, A)
    if G.kind == "Z":
        return HomCoeff(G, A, quad_apply(q, 1))
    # T and R sources store the hom directly in h1
    return HomCoeff(G, A, q.h1)


# ---------------------------------------------------------------------------
# composition and duals


def compose(h: HomCoeff, hp: HomCoeff) -> HomCoeff:
    """Coefficient of the composite (apply ``h`` first, then ``hp``)."""
    if h.target != hp.source:
        raise TagMismatch(f"cannot compose {h.target} -> {hp.source}")
    G0, G1, G2 = h.source, h.target, hp.target
    out_grp = hom_group(G0, G2)
    if out_grp == Z1 or h.group == Z1 or hp.group == Z1:
        return hom_zero(G0, G2)
    a, b = h.value, hp.value
    if G0.kind == "Z":
        if G1.kind == "Z":
            # coefficient of hp applied to integer a
            return HomCoeff(G0, G2, _norm(out_grp, a * b))
        if G1.kind == "Zk":
            k = G1.k
            if G2.kind == "Zk":
                l, d = G2.k, _gcd(G1.k, G2.k)
                return HomCoeff(G0, G2, int(a) * int(b) * (l // d))
            if G2.kind == "T":
                return HomCoeff(G0, G2, Fraction(int(a) * int(b), k))
        if G1.kind == "T":
            # hp in hom[T|T] = Z
            return HomCoeff(G0, G2, mod1(a * int(b)))
        if G1.kind == "R":
            if G2.kind == "T":
                return HomCoeff(G0, G2, mod1(a * b))
            return HomCoeff(G0, G2, a * b)
    if G0.kind == "Zk":
        k = G0.k
        if G1.kind == "Zk":
            l = G1.k
            if G2.kind == "Zk":
                m = G2.k
                num = l * _gcd(k, m)
                den = _gcd(k, l) * _gcd(l, m)
                assert num % den == 0
                return HomCoeff(G0, G2, int(a) * int(b) * (num // den))
            if G2.kind == "T":
                return HomCoeff(G0, G2, int(a) * int(b) * (k // _gcd(k, l)))
        if G1.kind == "T":
            return HomCoeff(G0, G2, int(a) * int(b))
    if G0.kind == "T":
        if G1.kind == "T" and G2.kind == "T":
            return HomCoeff(G0, G2, int(a) * int(b))
    if G0.kind == "R":
        if G1.kind in ("R", "T") and G2.kind in ("R", "T"):
            bb = int(b) if G1.kind == "T" else b
            return HomCoeff(G0, G2, a * bb)
    return hom_zero(G0, G2)


def dual(h: HomCoeff, A: ElementaryGroup = T) -> HomCoeff:
    """Coefficient of the dual map hom[G|A] -> hom[H|A] for h: H -> G."""
    H, G = h.source, h.target
    D1, D2 = hom_group(G, A), hom_group(H, A)
    out_grp = hom_group(D1, D2)
    if out_grp == Z1 or D1 == Z1 or D2 == Z1:
        return hom_zero(D1, D2)
    if D1.kind in ("Zk", "Z"):
        # sample the dual map at the unit coefficient of hom[G|A]
        v = compose(h, HomCoeff(G, A, 1)).value
        if D1.kind == "Z":
            return HomCoeff(D1, D2, _norm(D2, v))
        d1 = D1.k
        if D2.kind == "Zk":
            d2 = D2.k
            step = d2 // _gcd(d1, d2)
            assert int(v) % step == 0
            return HomCoeff(D1, D2, int(v) // step)
        if D2.kind == "T":
            f = Fraction(v) * d1
            assert f.denominator == 1
            return HomCoeff(D1, D2, int(f))
        raise TagMismatch("finite dual into continuous target")
    # D1 continuous: the dual acts by multiplication with the raw value
    return HomCoeff(D1, D2, h.value)


def conjugate_cell(left: HomCoeff, mid: Hom2Coeff, right: HomCoeff, A=None) -> Hom2Coeff:
    """Coefficient of the bilinear form (x, y) -> B(left x, right y)."""
    A = mid.target if A is None else A
    if left.target != mid.g0 or right.target != mid.g1:
        raise TagMismatch("conjugation tags do not line up")
    step1 = compose(left, mid.as_outer_hom())  # source(left) -> hom[g1|A]
    step2 = compose(step1, dual(right, A))  # -> hom[source(right)|A]
    return Hom2Coeff(left.source, right.source, A, step2.value)


# ---------------------------------------------------------------------------
# Phi: pullback of quadratic coefficients, Lambda: diagonal of bilinears


def phi(q: QuadCoeff, gamma: HomCoeff) -> QuadCoeff:
    """Coefficients of the composite q(gamma(.)) for targets T and R."""
    if gamma.target != q.source:
        raise TagMismatch("phi tags do not line up")
    G, A, H = q.source, q.target, gamma.source
    if A.kind not in ("T", "R"):
        return phi_bruteforce(q, gamma)
    h2, h1, gv = q.h2, q.h1, gamma.value
    if A.kind == "R":
        if H.kind in ("Z", "R") and G.kind in ("Z", "R"):
            return QuadCoeff(H, A, h2 * gv * gv, h1 * gv)
        return quad_zero(H, A)
    # A = T
    if G.kind == "Zk":
        k = G.k
        if H.kind == "Zk":
            m = H.k
            d = _gcd(m, k)
            scale2 = Fraction(m * k, d * d)
            scale1 = m // d
            if k % 2 == 0:
                base = int(h2) - 2 * int(h1)
            else:
                base = 2 * _half_odd(int(h2), k)
            t2 = base * int(gv) * int(gv) * scale2
            assert t2.denominator == 1
            t2 = int(t2)
            t1 = int(h1) * int(gv) * scale1
            if m % 2 == 0:
                return QuadCoeff(H, A, t2 + 2 * t1, t1)
            return QuadCoeff(H, A, t2, t1)
        if H.kind == "Z":
            if k % 2 == 0:
                t2 = mod1(Fraction(int(gv) * int(gv), k) * (Fraction(int(h2), 2) - int(h1)) + Fraction(int(h1) * int(gv), k))
            else:
                t2 = mod1(Fraction(_half_odd(int(h2), k) * int(gv) * int(gv) + int(h1) * int(gv), k))
            t1 = mod1(Fraction(2 * int(h1) * int(gv), k))
            return QuadCoeff(H, A, t2, t1)
        return quad_zero(H, A)
    if G.kind == "Z":
        if H.kind == "Z":
            t2 = mod1((h2 - h1 / 2) * gv * gv + h1 / 2 * gv)
            t1 = mod1(h1 * gv)
            return QuadCoeff(H, A, t2, t1)
        return quad_zero(H, A)
    if G.kind == "T":
        h1i = int(q.h1)
        if H.kind == "Zk":
            m = H.k
            # function h -> h1 * gammabar * hbar / m
            t1 = h1i * int(gv)
            if m % 2 == 0:
                return QuadCoeff(H, A, 2 * t1, t1)
            return QuadCoeff(H, A, 0, t1)
        if H.kind == "Z":
            return QuadCoeff(H, A, mod1(h1i * gv), mod1(2 * h1i * gv))
        if H.kind == "T":
            return QuadCoeff(H, A, 0, h1i * int(gv))
        if H.kind == "R":
            return QuadCoeff(H, A, 0, h1i * gv)
        return quad_zero(H, A)
    # G = R
    if H.kind == "Z":
        return QuadCoeff(H, A, mod1(h2 * gv * gv / 2 + h1 * gv), mod1(2 * h1 * gv))
    if H.kind == "R":
        return QuadCoeff(H, A, h2 * gv * gv, h1 * gv)
    return quad_zero(H, A)


def phi_bruteforce(q: QuadCoeff, gamma: HomCoeff) -> QuadCoeff:
    """Pullback for discrete targets, by evaluation over a finite source."""
    H = gamma.source
    if H.kind not in ("Zk",):
        if gamma.is_zero():
            return quad_zero(H, q.target)
        raise UnsupportedTarget(
            f"phi with target {q.target} needs a finite source, got {H}"
        )
    return quad_fit(H, q.target, lambda g: quad_apply(q, hom_apply(gamma, g)))


def lam(h: Hom2Coeff) -> QuadCoeff:
    """Coefficients of g -> B(g, g) for a bilinear coefficient on G x G."""
    if h.g0 != h.g1:
        raise TagMismatch("lambda needs both arguments over the same group")
    G, A, v = h.g0, h.target, h.value
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l, d = A.k, _gcd(k, A.k)
            if k % 2 == 0 and l % 2 == 0:
                g2 = _gcd(k, l // 2)
                return QuadCoeff(G, A, (2 * g2 // d) * int(v), 0)
            return QuadCoeff(G, A, 2 * int(v), 0)
        if A.kind == "T":
            return QuadCoeff(G, A, 2 * int(v), 0)
        return quad_zero(G, A)
    if G.kind == "Z":
        if A.kind == "Zk":
            l = A.k
            if l % 2 == 0:
                return QuadCoeff(G, A, 2 * int(v), -int(v))
            return QuadCoeff(G, A, 2 * int(v), 0)
        if A.kind == "Z":
            return QuadCoeff(G, A, 2 * v, -v)
        if A.kind == "T":
            return QuadCoeff(G, A, v, 0)
        if A.kind == "R":
            return QuadCoeff(G, A, 2 * v, 0)
        return quad_zero(G, A)
    if G.kind == "T":
        return quad_zero(G, A)
    # G = R
    if A.kind in ("T", "R"):
        return QuadCoeff(G, A, 2 * v, 0)
    return quad_zero(G, A)


# ---------------------------------------------------------------------------
# fitting coefficients to pointwise data (finite sources)


def hom_fit(G: ElementaryGroup, A: ElementaryGroup, F: Callable) -> HomCoeff:
    """Recover the coefficient of a homomorphism from its values."""
    if G.kind != "Zk":
        raise DomainMismatch("hom_fit needs a finite source")
    grp = hom_group(G, A)
    if grp == Z1:
        return hom_zero(G, A)
    v1 = F(1)
    if A.kind == "T":
        f = Fraction(v1) * G.k
        assert f.denominator == 1, f"not a homomorphism value: {v1}"
        return HomCoeff(G, A, int(f))
    if A.kind == "Zk":
        d = _gcd(G.k, A.k)
        step = A.k // d
        assert int(v1) % step == 0, f"not a homomorphism value: {v1}"
        return HomCoeff(G, A, int(v1) // step)
    raise UnsupportedTarget(str(A))


def quad_fit(G: ElementaryGroup, A: ElementaryGroup, F: Callable) -> QuadCoeff:
    """Recover quadratic coefficients from pointwise values on Z_k.

    Enumerates the (small) h2 factor group, pins h1 from F(1), and
    verifies every point, so a wrong fit cannot slip through.
    """
    if G.kind != "Zk":
        raise DomainMismatch("quad_fit needs a finite source")
    g2grp, g1grp = quad_group(G, A)
    if g2grp == Z1 and g1grp == Z1:
        return quad_zero(G, A)
    vals = [A.normalize(F(g)) for g in range(G.k)]
    for t2 in range(max(g2grp.k, 1)):
        for t1 in range(max(g1grp.k, 1)):
            cand = QuadCoeff(G, A, t2, t1)
            if all(A.eq(quad_apply(cand, g), vals[g]) for g in range(G.k)):
                return cand
    raise ValueError(f"no quadratic coefficient matches values {vals} on {G}->{A}")


# ---------------------------------------------------------------------------
# standard quadratic functions and the addition 2-cocycle


def hom2s_group(G: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    """The group of bilinear forms arising as second derivatives."""
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            if k % 2 == 0 and A.k % 2 == 0:
                return Zk(_gcd(k, A.k // 2))
            return Zk(_gcd(k, A.k))
        if A.kind == "T":
            return Zk(k)
        return Z1
    if G.kind == "Z":
        return Zk(A.k) if A.kind == "Zk" else A
    if G.kind == "T":
        return Z1
    return R if A.kind in ("T", "R") else Z1


def hom2s_apply(G: ElementaryGroup, A: ElementaryGroup, b, g0, g1) -> Scalar:
    """Evaluate the symmetric bilinear form with coefficient b."""
    grp = hom2s_group(G, A)
    b = _norm(grp, b)
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l = A.k
            if k % 2 == 0 and l % 2 == 0:
                return Fraction((l // _gcd(k, l // 2)) * int(b) * int(g0) * int(g1) % l)
            return Fraction((l // _gcd(k, l)) * int(b) * int(g0) * int(g1) % l)
        if A.kind == "T":
            return mod1(Fraction(int(b) * int(g0) * int(g1), k))
        return _norm(A, 0)
    if G.kind == "Z":
        if A.kind == "Zk":
            return Fraction(int(b) * int(g0) * int(g1) % A.k)
        if A.kind == "Z":
            return Fraction(int(b) * int(g0) * int(g1))
        if A.kind == "T":
            return mod1(b * int(g0) * int(g1))
        return b * int(g0) * int(g1)
    if G.kind == "R" and A.kind in ("T", "R"):
        v = b * g0 * g1
        return mod1(v) if A.kind == "T" else v
    return _norm(A, 0)


def standard_quad_value(G: ElementaryGroup, A: ElementaryGroup, b, g) -> Scalar:
    """Q0(b)(g): the chosen standard quadratic refinement of b."""
    grp = hom2s_group(G, A)
    b = _norm(grp, b)
    g = G.normalize(g)
    if G.kind == "Zk":
        k = G.k
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if k % 2 == 0 and l % 2 == 0:
                v = Fraction(l, _gcd(k, l // 2)) * Fraction(int(b)) / 2 * gg * gg
                assert v.denominator == 1
                return Fraction(int(v) % l)
            d = _gcd(k, l)
            return Fraction((l // d) * _half_odd(int(b), d) * gg * gg % l)
        if A.kind == "T":
            if k % 2 == 0:
                return mod1(Fraction(int(b) * gg * gg, 2 * k))
            return mod1(Fraction(_half_odd(int(b), k) * gg * gg, k))
        return _norm(A, 0)
    if G.kind == "Z":
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if l % 2 == 0:
                return Fraction(int(b) * (gg * (gg + 1) // 2) % l)
            return Fraction(_half_odd(int(b), l) * gg * gg % l)
        if A.kind == "Z":
            return Fraction(int(b) * (gg * (gg + 1) // 2))
        if A.kind == "T":
            return mod1(b / 2 * gg * gg)
        return b / 2 * gg * gg
    if G.kind == "R" and A.kind in ("T", "R"):
        v = b * g * g / 2
        return mod1(v) if A.kind == "T" else v
    return _norm(A, 0)


def omega_cocycle(G: ElementaryGroup, A: ElementaryGroup, b, bp) -> Scalar:
    """The 2-cocycle twisting hom_2 as an extension of hom by image(d2).

    Valued in the hom[G|A] coefficient group; arguments live in
    ``hom2s_group(G, A)``.
    """
    grp = hom2s_group(G, A)
    b, bp = _norm(grp, b), _norm(grp, bp)
    homg = hom_group(G, A)
    if G.kind == "Zk" and G.k % 2 == 0:
        k = G.k
        if A.kind == "Zk" and A.k % 2 == 0:
            d2 = _gcd(k, A.k // 2)
            carry = ((int(b) + int(bp)) % d2 - int(b) - int(bp)) // d2
            return _norm(homg, (_gcd(k, A.k) // 2) * carry)
        if A.kind == "T":
            carry = ((int(b) + int(bp)) % k - int(b) - int(bp)) // k
            return _norm(homg, (k // 2) * carry)
    if G.kind == "Z" and A.kind == "T":
        carry = mod1(b + bp) - b - bp  # in {0, -1}
        return mod1(Fraction(1, 2) * carry) if is_exact(carry) else mod1(carry / 2)
    return _norm(homg, 0)
