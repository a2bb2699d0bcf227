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
A homomorphism out of Z_k or Z is read off the image of 1 by one
function, ``hom_from_image``, which raises when the value is no such
image; fitting, duals and the linear part of a quadratic coefficient go
through it.  Linear functions hold no coefficients but one matrix entry
per cell, the image of 1 or, out of T and R, the multiplier
(``image_group``); ``hom_image`` and ``hom_of_image`` convert between an
entry and its coefficient, and ``image_fit`` checks and reduces an image
read off a section.  Composition and duals work on values
(``_compose_value``, ``_dual_value``), with no intermediate coefficient
object.  Fitting
quadratic coefficients to pointwise values on Z_k is closed-form too: the
coefficients are read off one or two values and then checked against
every point, so data that is not quadratic raises instead of fitting.
Quadratic functions into T and R hold no coefficients either but values:
for Z_k or Z into T the value at the generator, q(1), and B(1, 1);
otherwise the multipliers v and b of q(x) = v x + b x^2 / 2, and for a
bilinear form B(1, 1) or its multiplier (``cell_group``).  ``quad_values``
and ``quad_of_values``, ``cell_value`` and ``cell_of_value`` convert
between values and coefficients.

Values follow ``groups``: Z_k and Z coefficients and results are plain
``int``, T and R ones ``Fraction`` or ``float``.  The coefficient groups
(``hom_group``, ``hom2_group``, ``quad_group``) depend only on their group
arguments, one object per group; they are cached, and each coefficient
keeps its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Tuple

from .groups import ElementaryGroup, R, T, Z, Z1, Zk
from .scalar import Scalar, is_exact, mod1


class DomainMismatch(ValueError):
    pass


class TagMismatch(ValueError):
    pass


class UnsupportedTarget(ValueError):
    pass


def _gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def value_is_zero(grp: ElementaryGroup, v) -> bool:
    """Whether the normalized value v of ``grp`` is 0: an exact one is 0
    exactly, a float within the group's tolerance."""
    return grp.eq(v, 0) if isinstance(v, float) else v == 0


def _half_odd(v: int, k: int) -> int:
    """The unique h/2 in Z_k for odd k (k+1)//2 is the inverse of doubling."""
    return (v * ((k + 1) // 2)) % k


# ---------------------------------------------------------------------------
# hom[G|A]


@functools.lru_cache(maxsize=None)
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
    group: ElementaryGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grp = hom_group(self.source, self.target)
        object.__setattr__(self, "group", grp)
        object.__setattr__(self, "value", grp.normalize(self.value))

    def is_zero(self) -> bool:
        return value_is_zero(self.group, self.value)


@functools.lru_cache(maxsize=None)
def hom_zero(G: ElementaryGroup, A: ElementaryGroup) -> HomCoeff:
    """The zero coefficient; frozen, so one object serves every zero cell."""
    return HomCoeff(G, A, 0)


def hom_apply(h: HomCoeff, g) -> Scalar:
    """Evaluate the homomorphism with coefficient ``h`` at ``g``."""
    G, A, v = h.source, h.target, h.value
    g = G.normalize(g)
    if G.kind == "Zk":
        if A.kind == "Zk":
            return (A.k // _gcd(G.k, A.k)) * v * g % A.k
        if A.kind == "T":
            return Fraction(v * g % G.k, G.k)
        return A.normalize(0)
    if G.kind == "Z":
        if A.kind == "Zk":
            return v * g % A.k
        if A.kind == "T":
            return mod1(v * g)
        return v * g
    if G.kind == "T":
        if A.kind == "T":
            return mod1(v * g)
        return A.normalize(0)
    # G = R
    if A.kind == "T":
        return mod1(v * g)
    if A.kind == "R":
        return v * g
    return A.normalize(0)


def hom_from_image(G: ElementaryGroup, A: ElementaryGroup, v) -> HomCoeff:
    """The coefficient of the homomorphism G -> A (G = Z_k or Z) sending 1
    to v.  Raises ``ValueError`` when no homomorphism does: v = 1 for
    Z_4 -> Z_6, v = 1/2 for Z_3 -> T, any nonzero v into Z or R from Z_k.
    """
    if G.kind == "Z":
        return HomCoeff(G, A, v)
    return HomCoeff(G, A, _finite_coefficient(G, A, v))


def _finite_coefficient(G: ElementaryGroup, A: ElementaryGroup, v) -> int:
    """The coefficient of the homomorphism G -> A (G = Z_k) sending 1 to v;
    raises as ``hom_from_image`` does."""
    if G.kind != "Zk":
        raise DomainMismatch(f"{G} is not generated by 1")
    if A.kind == "Zk":
        # hom[Z_k|Z_l] = Z_d sends 1 to (l/d) c
        c, r = divmod(int(v) % A.k, A.k // _gcd(G.k, A.k))
        ok = r == 0
    elif A.kind == "T":
        # hom[Z_k|T] = Z_k sends 1 to c/k
        f = Fraction(v) * G.k
        c, ok = f.numerator, f.denominator == 1
    else:  # hom[Z_k|Z] and hom[Z_k|R] are trivial
        c, ok = 0, A.eq(v, 0)
    if not ok:
        raise ValueError(f"{v} is not the image of 1 under a homomorphism {G} -> {A}")
    return c


# ---------------------------------------------------------------------------
# matrix entries of homomorphisms: generator images and multipliers


@functools.lru_cache(maxsize=None)
def image_group(G: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    """The group holding the matrix entry of a homomorphism G -> A.

    For G = Z_k or Z the entry is the image of 1 in A (trivial into Z and
    R from Z_k); for G = T or R it is the coefficient, the multiplier of
    the map.  Composing homomorphisms multiplies their entries, and the
    product is normalized in this group.
    """
    if G.kind == "Zk":
        return A if A.kind in ("Zk", "T") else Z1
    return hom_group(G, A)


def hom_image(h: HomCoeff) -> Scalar:
    """The matrix entry of ``h`` (see ``image_group``): ``hom_apply(h, 1)``
    for a Z_k source, the coefficient itself otherwise (for a Z source the
    coefficient group hom[Z|A] is A)."""
    G, A = h.source, h.target
    if G.kind == "Zk":
        if A.kind == "Zk":
            return A.k // _gcd(G.k, A.k) * h.value % A.k
        return Fraction(h.value, G.k) if A.kind == "T" else 0
    return h.value


def hom_of_image(G: ElementaryGroup, A: ElementaryGroup, v) -> HomCoeff:
    """The coefficient of the homomorphism G -> A with matrix entry v."""
    if G.kind == "Zk":
        return HomCoeff(G, A, _finite_coefficient(G, A, v))
    return HomCoeff(G, A, v)


def image_fit(G: ElementaryGroup, A: ElementaryGroup, v) -> Scalar:
    """The matrix entry of the homomorphism G -> A (G = Z_k or Z) sending
    1 to v, normalized; raises as ``hom_from_image`` does."""
    if G.kind == "Zk":
        c = _finite_coefficient(G, A, v)
        if A.kind == "Zk":
            return A.k // _gcd(G.k, A.k) * c % A.k
        return Fraction(c % G.k, G.k) if A.kind == "T" else 0
    return image_group(G, A).normalize(v)


# (source kind, target kind) pairs with no nonzero homomorphism
_TRIVIAL_KINDS = frozenset([("Zk", "Z"), ("Zk", "R"), ("T", "Zk"), ("T", "Z"), ("T", "R"),
                           ("R", "Zk"), ("R", "Z")])


def image_apply(G: ElementaryGroup, A: ElementaryGroup, v, g) -> Scalar:
    """``hom_apply`` of the homomorphism G -> A with matrix entry v at g."""
    if (G.kind, A.kind) in _TRIVIAL_KINDS:
        return A.normalize(0)
    return A.normalize(v * G.normalize(g))


# ---------------------------------------------------------------------------
# hom^2[G0,G1|A] via currying


@functools.lru_cache(maxsize=None)
def hom2_group(G0: ElementaryGroup, G1: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    return hom_group(G0, hom_group(G1, A))


@dataclass(frozen=True)
class Hom2Coeff:
    g0: ElementaryGroup
    g1: ElementaryGroup
    target: ElementaryGroup
    value: Scalar
    group: ElementaryGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grp = hom2_group(self.g0, self.g1, self.target)
        object.__setattr__(self, "group", grp)
        object.__setattr__(self, "value", grp.normalize(self.value))

    def is_zero(self) -> bool:
        return value_is_zero(self.group, self.value)

    def transpose(self) -> "Hom2Coeff":
        # the coefficient groups for (g0,g1) and (g1,g0) coincide and the
        # evaluation formulas are symmetric, so the value carries over
        return Hom2Coeff(self.g1, self.g0, self.target, self.value)


@functools.lru_cache(maxsize=None)
def hom2_zero(G0, G1, A) -> Hom2Coeff:
    return Hom2Coeff(G0, G1, A, 0)


def hom2_apply(h: Hom2Coeff, g0, g1) -> Scalar:
    # h is a homomorphism G0 -> hom[G1|A] with the same coefficient
    inner = hom_apply(HomCoeff(h.g0, hom_group(h.g1, h.target), h.value), g0)
    return hom_apply(HomCoeff(h.g1, h.target, inner), g1)


# ---------------------------------------------------------------------------
# hom_2[G|A]: normalized quadratic functions


@functools.lru_cache(maxsize=None)
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
    groups: Tuple[ElementaryGroup, ElementaryGroup] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g2, g1 = grps = quad_group(self.source, self.target)
        object.__setattr__(self, "groups", grps)
        object.__setattr__(self, "h2", g2.normalize(self.h2))
        object.__setattr__(self, "h1", g1.normalize(self.h1))

    def is_zero(self) -> bool:
        g2, g1 = self.groups
        return value_is_zero(g2, self.h2) and value_is_zero(g1, self.h1)


@functools.lru_cache(maxsize=None)
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
                # l / gcd(k, l/2) is even, so the h2 term is an integer
                term = (l // 2) // _gcd(k, l // 2) * h2 * gg * gg
                return (term + (l // d) * h1 * (gg - gg * gg)) % l
            half = _half_odd(h2, d)
            return (l // d) * (half * gg * gg + h1 * gg) % l
        if A.kind == "T":
            if k % 2 == 0:
                v = int(h2) * gg * gg + 2 * int(h1) * (gg - gg * gg)
                return Fraction(v % (2 * k), 2 * k)
            half = _half_odd(int(h2), k)
            return Fraction((half * gg * gg + int(h1) * gg) % k, k)
        return A.normalize(0)
    if G.kind == "Z":
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if l % 2 == 0:
                return (h2 * (gg * (gg + 1) // 2) + h1 * gg) % l
            return (_half_odd(h2, l) * gg * gg + h1 * gg) % l
        if A.kind == "Z":
            return h2 * (gg * (gg + 1) // 2) + h1 * gg
        if A.kind == "T":
            return mod1((h2 - h1 / 2) * gg * gg + h1 / 2 * gg)
        return h2 * gg * gg / 2 + h1 * gg  # A = R
    if G.kind == "T":
        if A.kind == "T":
            return mod1(h1 * g)
        return A.normalize(0)
    # G = R
    if A.kind == "T":
        return mod1(h2 * g * g / 2 + h1 * g)
    if A.kind == "R":
        return h2 * g * g / 2 + h1 * g
    return A.normalize(0)


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


# ---------------------------------------------------------------------------
# values of quadratic functions into T and R: generator values and multipliers


def is_generated(G: ElementaryGroup, A: ElementaryGroup) -> bool:
    """Whether a quadratic function G -> A (A = T or R) is held by its values
    at the generator: G = Z_k or Z and A = T.  Otherwise it is held by its
    multipliers, q(x) = v x + b x^2 / 2."""
    return A.kind == "T" and G.kind in ("Zk", "Z")


@functools.lru_cache(maxsize=None)
def cell_group(G0: ElementaryGroup, G1: ElementaryGroup, A: ElementaryGroup) -> ElementaryGroup:
    """The group holding the value of a bilinear form G0 x G1 -> A (A = T or
    R): B(1, 1) in A when both factors are generated, else the coefficient,
    the multiplier of the form."""
    grp = hom2_group(G0, G1, A)
    if grp is not Z1 and is_generated(G0, A) and is_generated(G1, A):
        return A
    return grp


def quad_values(q: QuadCoeff) -> Tuple[Scalar, Scalar]:
    """(v, b) of a quadratic coefficient into T or R: v = q(1) and
    b = B(1, 1) for a generated source (``is_generated``), else the
    multipliers v = h1 and b = h2.  Floats are carried over as they are."""
    G, A = q.source, q.target
    if not is_generated(G, A):
        return q.h1, q.h2
    if G.kind == "Z":
        # q(1) = h2 on Z -> T
        return q.h2, quad_to_bilinear(q).value
    return quad_apply(q, 1), Fraction(quad_to_bilinear(q).value, G.k)


def quad_of_values(G: ElementaryGroup, A: ElementaryGroup, v, b) -> QuadCoeff:
    """The quadratic coefficient G -> A with values (v, b) (``quad_values``)."""
    if not is_generated(G, A):
        return QuadCoeff(G, A, b, v)
    if G.kind == "Z":
        # h1 = 2 q(1) - B(1, 1); a float term h2 x^2 has v = h2 and b = mod1(2 h2),
        # so a float h1 within tolerance of 0 is read back as the exact 0 it was
        h1 = A.normalize(2 * v - b)
        return QuadCoeff(G, A, v, 0 if value_is_zero(A, h1) else h1)
    # q(2) = 2 q(1) + B(1, 1) and q(-1) = B(1, 1) - q(1)
    return _quad_closed_form(G, A, v, mod1(2 * v + b), mod1(b - v))


def cell_value(c: Hom2Coeff) -> Scalar:
    """The value of a bilinear coefficient in ``cell_group``."""
    grp = cell_group(c.g0, c.g1, c.target)
    if grp is not c.group and c.group.kind == "Zk":
        # B(1, 1) = c / d on generated factors with hom^2 = Z_d
        return Fraction(c.value, c.group.k)
    return grp.normalize(c.value)


def cell_of_value(G0: ElementaryGroup, G1: ElementaryGroup, A: ElementaryGroup, v) -> Hom2Coeff:
    """The bilinear coefficient G0 x G1 -> A with value v (``cell_value``)."""
    grp = hom2_group(G0, G1, A)
    if grp is not cell_group(G0, G1, A) and grp.kind == "Zk":
        return Hom2Coeff(G0, G1, A, int(v * grp.k))
    return Hom2Coeff(G0, G1, A, v)


# ---------------------------------------------------------------------------
# composition and duals


def compose(h: HomCoeff, hp: HomCoeff) -> HomCoeff:
    """Coefficient of the composite (apply ``h`` first, then ``hp``)."""
    if h.target != hp.source:
        raise TagMismatch(f"cannot compose {h.target} -> {hp.source}")
    G0, G2 = h.source, hp.target
    v = _compose_value(G0, h.target, G2, h.value, hp.value)
    return hom_zero(G0, G2) if v is None else HomCoeff(G0, G2, v)


def _compose_value(G0, G1, G2, a, b):
    """The coefficient, before normalization in hom[G0|G2], of the composite
    of G0 -> G1 with coefficient a and G1 -> G2 with coefficient b; None
    when the composite is zero whatever a and b are."""
    if _zero_composite(G0, G1, G2):
        return None
    if G0.kind == "Z":
        if G1.kind == "Z":
            # coefficient of hp applied to integer a
            return hom_group(G0, G2).normalize(a * b)
        if G1.kind == "Zk":
            k = G1.k
            if G2.kind == "Zk":
                l, d = G2.k, _gcd(G1.k, G2.k)
                return int(a) * int(b) * (l // d)
            if G2.kind == "T":
                return Fraction(int(a) * int(b), k)
        if G1.kind == "T":
            # hp in hom[T|T] = Z
            return mod1(a * int(b))
        if G1.kind == "R":
            if G2.kind == "T":
                return mod1(a * b)
            return a * b
    if G0.kind == "Zk":
        k = G0.k
        if G1.kind == "Zk":
            l = G1.k
            if G2.kind == "Zk":
                m = G2.k
                num = l * _gcd(k, m)
                den = _gcd(k, l) * _gcd(l, m)
                assert num % den == 0
                return int(a) * int(b) * (num // den)
            if G2.kind == "T":
                return int(a) * int(b) * (k // _gcd(k, l))
        if G1.kind == "T":
            return int(a) * int(b)
    if G0.kind == "T":
        if G1.kind == "T" and G2.kind == "T":
            return int(a) * int(b)
    if G0.kind == "R":
        if G1.kind in ("R", "T") and G2.kind in ("R", "T"):
            bb = int(b) if G1.kind == "T" else b
            return a * bb
    return None


@functools.lru_cache(maxsize=None)
def _zero_composite(G0, G1, G2) -> bool:
    """Whether every composite G0 -> G1 -> G2 is zero: one of hom[G0|G1],
    hom[G1|G2] and hom[G0|G2] is trivial."""
    return Z1 in (hom_group(G0, G2), hom_group(G0, G1), hom_group(G1, G2))


def _composite(G0, G1, G2, a, b) -> Scalar:
    """The normalized value of ``compose`` on coefficients a and b."""
    v = _compose_value(G0, G1, G2, a, b)
    return hom_group(G0, G2).normalize(0 if v is None else v)


def dual(h: HomCoeff, A: ElementaryGroup = T) -> HomCoeff:
    """Coefficient of the dual map hom[G|A] -> hom[H|A] for h: H -> G."""
    D1, D2 = hom_group(h.target, A), hom_group(h.source, A)
    v = _dual_value(h.source, h.target, A, h.value)
    return hom_zero(D1, D2) if v is None else HomCoeff(D1, D2, v)


def _dual_value(H, G, A, v):
    """The coefficient, before normalization, of ``dual`` on the coefficient
    v of H -> G; None when the dual map is zero whatever v is."""
    D1, D2 = hom_group(G, A), hom_group(H, A)
    if hom_group(D1, D2) is Z1 or D1 is Z1 or D2 is Z1:
        return None
    if D1.kind in ("Zk", "Z"):
        # the dual map sends the unit coefficient of hom[G|A] to its composite with h
        image = _composite(H, G, A, v, hom_group(G, A).normalize(1))
        return image if D1.kind == "Z" else _finite_coefficient(D1, D2, image)
    # D1 continuous: the dual acts by multiplication with the raw value
    return v


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
            scale2 = (m // d) * (k // d)
            scale1 = m // d
            if k % 2 == 0:
                base = int(h2) - 2 * int(h1)
            else:
                base = 2 * _half_odd(int(h2), k)
            t2 = base * gv * gv * scale2
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
    """Recover the coefficient of a homomorphism Z_k -> A from its values,
    which ``hom_from_image`` reads at 1."""
    if G.kind != "Zk":
        raise DomainMismatch("hom_fit needs a finite source")
    return hom_from_image(G, A, F(1))


def quad_fit(G: ElementaryGroup, A: ElementaryGroup, F: Callable) -> QuadCoeff:
    """Recover quadratic coefficients from pointwise values on Z_k.

    The coefficients are solved for in closed form, from F(1) and F(2)
    for even k and from F(1) and F(-1) for odd k, and the result is then
    checked at every point of Z_k, so values that no normalized
    quadratic function takes raise ``ValueError``.
    """
    if G.kind != "Zk":
        raise DomainMismatch("quad_fit needs a finite source")
    g2grp, g1grp = quad_group(G, A)
    if g2grp == Z1 and g1grp == Z1:
        return quad_zero(G, A)
    k = G.k
    vals = [A.normalize(F(g)) for g in range(k)]
    fit = _quad_closed_form(G, A, vals[1], vals[2 % k], vals[-1])
    if all(A.eq(quad_apply(fit, g), vals[g]) for g in range(k)):
        return fit
    raise ValueError(f"no quadratic coefficient matches values {vals} on {G}->{A}")


def _quad_closed_form(G: ElementaryGroup, A: ElementaryGroup, f1, f2, fm1) -> QuadCoeff:
    """The coefficient on Z_k -> A (A = T or Z_l) taking the value f1 at 1
    and f2 at 2 (even k, and even l for A = Z_l) or fm1 at -1 (otherwise)."""
    k = G.k
    if A.kind == "T":
        if k % 2 == 0:
            # F(1) = h2/2k and F(2) = (h2 - h1)/(k/2)
            h2 = round(2 * k * f1)
            h1 = ((2 * h2 - round(k * f2)) % k) // 2
        else:
            # F(+-1) = (h2/2 +- h1)/k
            h2 = round(k * (f1 + fm1))
            h1 = _half_odd(round(k * (f1 - fm1)), k)
    else:  # A = Z_l; every other target has trivial groups
        l, d = A.k, _gcd(k, A.k)
        if k % 2 == 0 and l % 2 == 0:
            # F(1) = s h2 and F(2) = 4 s h2 - 2 (l/d) h1 (mod l), with s = l / 2 gcd(k, l/2)
            s = l // (2 * _gcd(k, l // 2))
            h2 = int(f1) // s
            h1 = ((4 * s * h2 - int(f2)) % l) // (2 * (l // d))
        else:
            # F(+-1) = (l/d) (h2/2 +- h1) (mod l)
            step = l // d
            h2 = ((int(f1) + int(fm1)) % l) // step
            h1 = _half_odd(((int(f1) - int(fm1)) % l) // step, d)
    return QuadCoeff(G, A, h2, h1)


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
    b = grp.normalize(b)
    if G.kind == "Zk":
        k = G.k
        if A.kind == "Zk":
            l = A.k
            if k % 2 == 0 and l % 2 == 0:
                return (l // _gcd(k, l // 2)) * b * int(g0) * int(g1) % l
            return (l // _gcd(k, l)) * b * int(g0) * int(g1) % l
        if A.kind == "T":
            return mod1(Fraction(int(b) * int(g0) * int(g1), k))
        return A.normalize(0)
    if G.kind == "Z":
        if A.kind == "Zk":
            return b * int(g0) * int(g1) % A.k
        if A.kind == "Z":
            return b * int(g0) * int(g1)
        if A.kind == "T":
            return mod1(b * int(g0) * int(g1))
        return b * int(g0) * int(g1)
    if G.kind == "R" and A.kind in ("T", "R"):
        v = b * g0 * g1
        return mod1(v) if A.kind == "T" else v
    return A.normalize(0)


def standard_quad_value(G: ElementaryGroup, A: ElementaryGroup, b, g) -> Scalar:
    """Q0(b)(g): the chosen standard quadratic refinement of b."""
    grp = hom2s_group(G, A)
    b = grp.normalize(b)
    g = G.normalize(g)
    if G.kind == "Zk":
        k = G.k
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if k % 2 == 0 and l % 2 == 0:
                # l / gcd(k, l/2) is even, so the value is an integer
                return (l // 2) // _gcd(k, l // 2) * b * gg * gg % l
            d = _gcd(k, l)
            return (l // d) * _half_odd(b, d) * gg * gg % l
        if A.kind == "T":
            if k % 2 == 0:
                return mod1(Fraction(int(b) * gg * gg, 2 * k))
            return mod1(Fraction(_half_odd(int(b), k) * gg * gg, k))
        return A.normalize(0)
    if G.kind == "Z":
        gg = int(g)
        if A.kind == "Zk":
            l = A.k
            if l % 2 == 0:
                return b * (gg * (gg + 1) // 2) % l
            return _half_odd(b, l) * gg * gg % l
        if A.kind == "Z":
            return b * (gg * (gg + 1) // 2)
        if A.kind == "T":
            return mod1(b / 2 * gg * gg)
        return b / 2 * gg * gg
    if G.kind == "R" and A.kind in ("T", "R"):
        v = b * g * g / 2
        return mod1(v) if A.kind == "T" else v
    return A.normalize(0)


def omega_cocycle(G: ElementaryGroup, A: ElementaryGroup, b, bp) -> Scalar:
    """The 2-cocycle twisting hom_2 as an extension of hom by image(d2).

    Valued in the hom[G|A] coefficient group; arguments live in
    ``hom2s_group(G, A)``.
    """
    grp = hom2s_group(G, A)
    b, bp = grp.normalize(b), grp.normalize(bp)
    homg = hom_group(G, A)
    if G.kind == "Zk" and G.k % 2 == 0:
        k = G.k
        if A.kind == "Zk" and A.k % 2 == 0:
            d2 = _gcd(k, A.k // 2)
            carry = ((int(b) + int(bp)) % d2 - int(b) - int(bp)) // d2
            return homg.normalize((_gcd(k, A.k) // 2) * carry)
        if A.kind == "T":
            carry = ((int(b) + int(bp)) % k - int(b) - int(bp)) // k
            return homg.normalize((k // 2) * carry)
    if G.kind == "Z" and A.kind == "T":
        carry = mod1(b + bp) - b - bp  # in {0, -1}
        return mod1(Fraction(1, 2) * carry) if is_exact(carry) else mod1(carry / 2)
    return homg.normalize(0)
