"""Quadratic tensor data and coefficient-level contraction.

A quadratic tensor is stored as (G, E, eps, q, div_weight): the index
group G, an auxiliary group E, an affine embedding eps: E -> G, and a
quadratic function q on E, representing entries

    T(g) = sum over e in E with eps(e) = g of exp(2 pi (q_a(e) + i q_phi(e))).

``div_weight`` counts net infinite-measure factors (|R| or |Z|) collected
from character sums; self-contraction and the reductions keep the
represented tensor fixed while shrinking E.  An exact squared-magnitude
prefactor ``mag2`` rides along whenever every contributing scalar is
rational, so finite stabilizer-type results can be compared exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .coeff import (
    DomainMismatch,
    cell_group,
    hom2_group,
    hom_group,
    image_fit,
    image_group,
    is_generated,
    value_is_zero,
)
from .errors import Unsupported
from .functions import PARTS, LinearFnData, QuadraticFnData, _Scaled, zero_row
from .groups import GroupProduct, R, T, Z, Z1, Zk
from .scalar import Scalar, mod1
from .solve import (
    KernelPresentation,
    Substitution,
    UnsupportedKernel,
    _pivot,
    kernel_of_hom,
    quotient_by_subgroup,
    solve_hom,
    solve_with_kernel,
)


class NotInvertible(Unsupported):
    pass


class NotIntegrable(Unsupported):
    pass


class KernelViolation(ValueError):
    pass


class Degenerate(ValueError):
    pass


@dataclass
class QTensorData:
    G: GroupProduct
    E: GroupProduct
    eps: LinearFnData
    q: QuadraticFnData
    div_weight: int = 0
    mag2: Optional[Fraction] = Fraction(1)
    is_zero: bool = False

    def __post_init__(self):
        if not self.is_zero:
            assert self.eps.domain == self.E and self.eps.codomain == self.G
            assert self.q.domain == self.E

    @staticmethod
    def zero(G: GroupProduct) -> "QTensorData":
        E = GroupProduct()
        return QTensorData(G, E, LinearFnData.zero(E, G), QuadraticFnData.zero(E), is_zero=True)

    def mul_sqrt(self, k: Fraction) -> None:
        """Multiply the tensor by sqrt(k) for positive rational k."""
        k = Fraction(k)
        assert k > 0
        self.q.a0 = self.q.a0 + math.log(float(k)) / (4 * math.pi)
        if self.mag2 is not None:
            self.mag2 = self.mag2 * k

    def mul_phase(self, phase: Scalar) -> None:
        self.q.phi0 = mod1(self.q.phi0 + phase)

    def mul_magnitude_float(self, m: float) -> None:
        assert m > 0
        self.q.a0 = self.q.a0 + math.log(m) / (2 * math.pi)
        self.mag2 = None

    def prefactor(self) -> complex:
        """The scalar exp(2 pi (a0 + i phi0)) as a complex number."""
        mag = math.exp(2 * math.pi * float(self.q.a0))
        if self.mag2 is not None:
            mag = math.sqrt(float(self.mag2))
        return mag * cmath.exp(2j * math.pi * float(self.q.phi0))


# ---------------------------------------------------------------------------
# tensor product and self-contraction


def tensor_product(t: QTensorData, u: QTensorData) -> QTensorData:
    G = t.G * u.G
    if t.is_zero or u.is_zero:
        return QTensorData.zero(G)
    E = t.E * u.E
    eps0 = tuple(list(t.eps.eps0) + list(u.eps.eps0))
    img = [row + zero_row(u.E, Gi) for Gi, row in zip(t.G, t.eps.img)]
    img += [zero_row(t.E, Gi) + row for Gi, row in zip(u.G, u.eps.img)]
    eps = LinearFnData.of_images(E, G, eps0, img)
    q = t.q.direct_sum(u.q)
    mag2 = None if t.mag2 is None or u.mag2 is None else t.mag2 * u.mag2
    return QTensorData(G, E, eps, q, t.div_weight + u.div_weight, mag2)


def permute_legs(t: QTensorData, perm: List[int]) -> QTensorData:
    """t with its index legs reordered: leg i of the result is leg perm[i] of t."""
    G = GroupProduct([t.G[p] for p in perm])
    eps = LinearFnData.of_images(t.E, G, tuple(t.eps.eps0[p] for p in perm),
                                 [t.eps.img[p] for p in perm])
    return QTensorData(G, t.E, eps, t.q, t.div_weight, t.mag2, t.is_zero)


def self_contract(t: QTensorData, i: int, j: int) -> QTensorData:
    """Contract index positions i and j of t (equal elementary factors).

    The solutions of eps_i(e) = eps_j(e) form a coset shift + kernel(delta)
    of the one-row delta = eps1_i - eps1_j, and t is restricted to it
    (``_restrict_to_coset``).  Both come from ``solve_with_kernel``: on a
    wire of any kind whose delta row has a pivot (``solve._substitute``: a
    unit entry of the wire's order on Z_k and Z, +-1 on a T column on T,
    an R column on R), the substitution x_p = sigma + sum_l a_l x_l, which
    leaves E and rewrites only the eps rows and q values it touches,
    whatever the kinds of the other factors and the types of their values;
    otherwise the general elimination and composition.
    """
    assert i != j
    if t.G[i] != t.G[j]:
        raise ValueError(f"contracted factors differ: {t.G[i]} vs {t.G[j]}")
    rest = [x for x in range(len(t.G)) if x not in (i, j)]
    G_rest = GroupProduct([t.G[x] for x in rest])
    if t.is_zero:
        return QTensorData.zero(G_rest)
    Gc = GroupProduct([t.G[i]])
    # row i minus row j, the negation and the sum each normalized
    delta_row = []
    for Ek, a, b in zip(t.E, t.eps.img[i], t.eps.img[j]):
        norm = image_group(Ek, Gc[0]).normalize
        delta_row.append(norm(a + norm(-b)))
    delta = LinearFnData.of_images(t.E, Gc, Gc.identity(), [delta_row])
    target = Gc.element([t.G[i].normalize(t.eps.eps0[j] - t.eps.eps0[i])])
    found = solve_with_kernel(delta, target)
    if found is None:
        return QTensorData.zero(G_rest)
    eps_rest = LinearFnData.of_images(t.E, G_rest, tuple(t.eps.eps0[x] for x in rest),
                                      [t.eps.img[x] for x in rest])
    return _restrict_to_coset(QTensorData(G_rest, t.E, eps_rest, t.q, t.div_weight, t.mag2),
                              *found)


def _restrict_to_coset(t: QTensorData, shift: Tuple, pres: KernelPresentation) -> QTensorData:
    """t summed only over the coset shift + kappa(K) of E, for the kernel
    presentation (K, kappa) of ``pres``: E becomes K, and eps and q are
    composed with h -> kappa(h) + shift.

    A ``Substitution`` x_p = sigma + sum_l a_l x_l is applied to eps and q
    directly (``substitute``), rewriting only the values it touches, on
    every factor kind and value type and for a pivot of every kind; the
    presentation of a system without a pivot takes the general
    composition."""
    if isinstance(pres, Substitution):
        return QTensorData(t.G, pres.group, t.eps.substitute(pres), t.q.substitute(pres),
                           t.div_weight, t.mag2)
    kappa = pres.inclusion
    return QTensorData(t.G, pres.group, t.eps.compose_affine(kappa, shift),
                       t.q.precompose_affine(kappa, shift), t.div_weight, t.mag2)


# ---------------------------------------------------------------------------
# internals shared by the reductions


def _beta(t: QTensorData, rho: LinearFnData, part: str) -> LinearFnData:
    """The homomorphism beta: E -> A^dual with beta(e)(r) = q^(2)(rho r, e)
    for one part of q.

    Factor j's entry is read off s_j = sum_k rho_k b_kj, the value of the
    character r -> B(rho r, e_j) at the unit of A, times k for A = Z_k
    (``_dual_coefficient``); the sums are ``_Scaled`` numerators.
    """
    A = rho.domain[0]
    tgt = T if part == "phi" else R
    Astar = hom_group(A, tgt)
    E, mat = t.E, t.q.mat[part]
    rows = []
    for k in _col_support(rho, 0):
        row = mat[k]
        diagonal = not value_is_zero(cell_group(E[k], E[k], tgt), row[k])
        rows.append((rho.img[k][0], [(j, b) for j, b in enumerate(row)
                                     if b != 0 and (j != k or diagonal)]))
    S = _Scaled([b for _, cells in rows for _, b in cells])
    sums = [0] * len(E)
    for r, cells in rows:
        for j, b in cells:
            sums[j] += S.num(b) * r
    scale = A.k if A.kind == "Zk" else 1
    return LinearFnData.of_images(E, GroupProduct([Astar]), (Astar.normalize(0),),
                                  [[S.value(image_group(Ej, Astar), scale * n)
                                    for Ej, n in zip(E, sums)]])


def _dual_coefficient(A, s: Scalar) -> Scalar:
    """The coefficient in hom[A|target] of the character with value s at the
    unit of A: s k for A = Z_k, s itself otherwise."""
    return s * A.k if A.kind == "Zk" else s


def _extract_through_section(
    E: GroupProduct,
    Q: GroupProduct,
    lifts: List[List],
    qfun: QuadraticFnData,
    epsfun: LinearFnData,
) -> Tuple[QuadraticFnData, LinearFnData]:
    """q and eps pulled back to Q through the section
    sum x_t e_t -> sum x_t * lift_t, for a quotient Q of the domain E of q
    and eps (``_quotient``).

    Reading each finite factor Z_k of Q as Z makes the section a
    homomorphism, so q and eps are composed with it.  Both functions must
    be invariant under the reduced subgroup; then every composite factors
    through Z -> Z_k.  An eps entry of a finite factor is its image of 1,
    checked by ``image_fit``.  The values of q on Z and on Z_k are the same
    values at the generator, so they carry over once checked: a quadratic
    term D factors through Z_k when D(k) = 0 and k B(1, 1) = 0, a cell when
    its value is a multiple of 1/d on a hom^2 group Z_d.  The a part of a
    finite factor has trivial groups.
    """
    Qz = GroupProduct([Z if f.kind == "Zk" else f for f in Q])
    section = LinearFnData.of_images(
        Qz, E, E.identity(),
        [[image_group(Qz[t], Ej).normalize(lifts[t][j]) for t in range(len(Q))]
         for j, Ej in enumerate(E)])
    qz = qfun.precompose(section)
    ez = epsfun.compose_hom(section)
    fin = [f.kind == "Zk" for f in Q]
    _check_descent(Q, Qz, fin, qz.vec["phi"], qz.mat["phi"])
    # the values carry over; an entry of a finite factor is normalized in its group on Q
    qz.domain = Q
    for part, A in PARTS:
        vec, mat = qz.vec[part], qz.mat[part]
        for i, Qi in enumerate(Q):
            if fin[i]:
                vec[i] = image_group(Qi, A).normalize(vec[i])
            mat[i] = [cell_group(Qi, Qj, A).normalize(b) if fin[i] or fin[j] else b
                      for j, (Qj, b) in enumerate(zip(Q, mat[i]))]
    img = [[image_fit(Q[t], Gi, v) if fin[t] else v for t, v in enumerate(row)]
           for Gi, row in zip(epsfun.codomain, ez.img)]
    eps0 = tuple(Gi.normalize(x) for Gi, x in zip(epsfun.codomain, epsfun.eps0))
    return qz, LinearFnData.of_images(Q, epsfun.codomain, eps0, img)


def _check_descent(Q: GroupProduct, Qz: GroupProduct, fin: List[bool], vec, mat) -> None:
    """Raise ``ValueError`` unless the phase part of q, with values ``vec``
    and ``mat`` over Qz, factors through each finite factor Z_k of Q: its
    quadratic term D when D(k) = 0 and k B(1, 1) = 0, a cell when its value
    is a multiple of 1/d on a hom^2 group Z_d, and 0 on a trivial one."""
    for i, Qi in enumerate(Q):
        if fin[i]:
            k, v, b = Qi.k, vec[i], mat[i][i]
            if not (_integral(k * b) and _integral(k * v + k * (k - 1) // 2 * b)):
                raise ValueError(f"quadratic term ({v}, {b}) on Z does not factor through {Qi}")
        for j in range(i + 1, len(Q)):
            if fin[i] or fin[j]:
                grp, b = hom2_group(Qi, Q[j], T), mat[i][j]
                if grp is Z1:
                    ok = value_is_zero(cell_group(Qz[i], Qz[j], T), b)
                else:
                    ok = _integral(b * grp.k)
                if not ok:
                    raise ValueError(f"bilinear value {b} on Z does not factor through "
                                     f"{Qi} x {Q[j]}")


def _integral(x: Scalar) -> bool:
    """Whether x is 0 in T: an integer, or a float within tolerance of one."""
    return T.eq(x, 0) if isinstance(x, float) else x.denominator == 1


def _compact(t: QTensorData) -> QTensorData:
    """Drop trivial Z1 factors from E."""
    keep = [j for j, f in enumerate(t.E) if f is not Z1]
    return t if len(keep) == len(t.E) else _keep_factors(t, keep)


def _keep_factors(t: QTensorData, keep: List[int]) -> QTensorData:
    """t with E cut down to the factors ``keep``, the others set to 0."""
    return QTensorData(t.G, GroupProduct([t.E[j] for j in keep]), t.eps.restrict_cols(keep),
                       t.q.restrict_cols(keep), t.div_weight, t.mag2, t.is_zero)


# ---------------------------------------------------------------------------
# gauss sums


def gauss_sum(A, v: Scalar, b: Scalar) -> Tuple[Fraction, Fraction]:
    """(squared magnitude, phase) of sum over A = Z_k of exp(2 pi i q(g)), in
    closed form, for q: Z_k -> T with the values v = q(1) and b = B(1, 1)
    of ``coeff.quad_values``, so q(g) = v g + b g (g - 1) / 2.

    Requires the bilinear coefficient c = k b to be a unit mod k; the
    magnitude is then exactly sqrt(k), and the phase is an exact rational.
    With e(x) = exp(2 pi i x) and the quadratic Gauss sums
    G(a; n) = sum over Z_n of e(a g^2 / n):

    * odd k: q(g) = (s g^2 + h g) / k with 2 s = c and h = k v - s.
      Completing the square, g -> g + u with 2 s u = h, leaves
      e(-s u^2 / k) G(s; k), and G(s; k) = (s/k) eps_k sqrt(k) with the
      Jacobi symbol (s/k) and eps_k = 1 for k = 1 mod 4, i for k = 3 mod 4;
    * even k: q(g) = (c g^2 + 2 h g) / 2k with c odd and 2 h = 2 k v - c,
      and the summand has period k, so the sum is half of the one over
      Z_2k.  With c u = h (mod k) it is e(-c u^2 / 2k) G(c; 2k) / 2, and
      G(c; 2k) = (2k/c) (1 + i) eps_c^-1 sqrt(2k).
    """
    if A.kind != "Zk":
        raise DomainMismatch(f"Gauss sum over {A}, not Z_k")
    k, c = A.k, round(A.k * b) % A.k
    if math.gcd(c, k) != 1:
        raise Degenerate(f"bilinear coefficient {c} degenerate over Z_{k}")
    if k % 2:
        s = c * ((k + 1) // 2) % k
        u = (round(k * v) - s) * pow(2 * s, -1, k) % k
        phase = Fraction(-s * u * u, k) + Fraction(k % 4 == 3, 4)
        phase += Fraction(_jacobi(s, k) == -1, 2)
    else:
        u = (round(2 * k * v) - c) // 2 * pow(c, -1, k) % k
        phase = Fraction(-c * u * u, 2 * k) + Fraction(1, 8) - Fraction(c % 4 == 3, 4)
        phase += Fraction(_jacobi(2 * k, c) == -1, 2)
    return Fraction(k), mod1(phase)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


# ---------------------------------------------------------------------------
# the reductions


def _check_rho_in_kernel(t: QTensorData, rho: LinearFnData) -> None:
    composed = t.eps.compose_hom(rho)
    if any(composed.nonzero(i, 0) for i in range(len(t.G))):
        raise KernelViolation("rho does not land in kernel(eps1)")


def _pulled_back(t: QTensorData, rho: LinearFnData,
                 qres: Optional[QuadraticFnData]) -> QuadraticFnData:
    """qres = q o rho as a caller that has checked rho passes it (as
    ``_reduce_step`` does), or else q o rho once rho is checked against
    eps^(1) here."""
    if qres is None:
        _check_rho_in_kernel(t, rho)
        qres = t.q.precompose(rho)
    return qres


def _reduce_step(t: QTensorData, rho: LinearFnData) -> QTensorData:
    """One step of ``reduce_full`` over a kernel factor rho: A -> E with A =
    Z_k (k > 1), T or R.  rho is checked and q pulled back along it once,
    and qres = q o rho picks the reduction, which is handed qres.

    Over Z_k, the restricted bilinear coefficient v = k B(1, 1) decides: a
    unit mod k gives the invertible reduction, 0 the zero one, and any other
    v the zero one over the order-gcd(v, k) subgroup of A, generated by
    k / gcd(v, k), on which the form vanishes.  Over R the real reduction
    runs unless the quadratic part of qres vanishes, and the zero one then,
    as over T.
    """
    _check_rho_in_kernel(t, rho)
    qres = t.q.precompose(rho)
    A = rho.domain[0]
    if A.kind == "Zk":
        v = _restricted_bilinear(qres, A)
        g = math.gcd(v, A.k)
        if g == 1:
            return reduce_invertible(t, rho, qres)
        if v:
            A1 = GroupProduct([A])
            inner = LinearFnData.of_images(GroupProduct([Zk(g)]), A1, A1.identity(),
                                           [[image_group(Zk(g), A).normalize(A.k // g)]])
            rho, qres = rho.compose_hom(inner), qres.precompose(inner)
    elif A.kind == "R" and not _form_vanishes(qres, A):
        return reduce_real(t, rho, qres)
    return reduce_zero(t, rho, qres)


def _form_vanishes(qres: QuadraticFnData, A) -> bool:
    """Whether the bilinear form of qres = q o rho vanishes on A, both
    parts read as zero by their cell groups."""
    return all(value_is_zero(cell_group(A, A, tgt), qres.mat[part][0][0]) for part, tgt in PARTS)


def reduce_zero(t: QTensorData, rho: LinearFnData,
                qres: Optional[QuadraticFnData] = None) -> QTensorData:
    """Sum or integrate t over the image of rho: A -> E, a subgroup of the
    kernel of eps^(1) on which the bilinear form of q vanishes.  A caller
    that passes qres = q o rho has checked rho (``_pulled_back``).

    Summed over a in A, exp(2 pi q(e + rho a)) gives |A| exp(2 pi q(e)) on
    the solutions of beta(e) = -chi, chi = q_phi o rho, and 0 elsewhere.
    With a pivot p, every coset of rho(A) meets e_p = 0 exactly once
    (x = y + a rho), so E drops factor p and t is restricted to the
    solutions of beta = -chi on the other factors.  A discrete rho without
    a pivot restricts t to the solutions K2 in E first, then quotients K2
    by rho's K2 coordinates (``_quotient``).  A continuous rho without one
    raises ``UnsupportedKernel``.
    """
    qres = _pulled_back(t, rho, qres)
    A = rho.domain[0]
    if not _form_vanishes(qres, A):
        raise KernelViolation("q^(2) does not vanish on rho")
    if not value_is_zero(image_group(A, R), qres.vec["a"][0]):
        raise NotIntegrable("q_a does not vanish on the summed subgroup")
    if _beta(t, rho, "a").support()[0]:
        raise NotIntegrable("nonzero a-part pairing against a summed subgroup")
    # q_phi is the character chi in hom[A|T] = A* on the summed subgroup
    Astar = hom_group(A, T)
    chi = Astar.normalize(_dual_coefficient(A, qres.vec["phi"][0]))
    beta = _beta(t, rho, "phi")
    target = GroupProduct([Astar]).element([Astar.neg(chi)])
    r_dims_before = sum(1 for f in t.E if f.kind == "R")
    p = _pivot(t.E, A, rho.column(0))
    if p is not None:
        keep = [j for j in range(len(t.E)) if j != p]
        t, beta = _keep_factors(t, keep), beta.restrict_cols(keep)
    elif A.kind in ("T", "R"):
        raise UnsupportedKernel(f"zero reduction over {A} with no unit entry in its direction")
    found = solve_with_kernel(beta, target)
    if found is None:
        return QTensorData.zero(t.G)
    e0, pres = found
    out = _restrict_to_coset(t, e0, pres)
    if p is None:
        K2 = pres.group
        inside = solve_hom(pres.inclusion, rho(rho.domain.element([1])))
        assert inside is not None, "summed subgroup must lie in the beta kernel"
        if any(f.kind in ("T", "R") and hom_group(A, f) != Z1 for f in K2):
            raise UnsupportedKernel("discrete subgroup meeting continuous kernel factors")
        sub = LinearFnData.of_images(GroupProduct([A]), K2, K2.identity(),
                                     [[image_fit(A, f, x)] for f, x in zip(K2, inside)])
        out = _quotient(out, sub)
    if A.kind == "Zk":
        out.mul_sqrt(Fraction(A.k * A.k))
    elif A.kind in ("Z", "R"):
        out.div_weight += 1
    r_dims_after = sum(1 for f in out.E if f.kind == "R") + (1 if A.kind == "R" else 0)
    out.div_weight -= r_dims_before - r_dims_after
    return _compact(out)


def _restricted_bilinear(qres: QuadraticFnData, A) -> int:
    """The coefficient in Z_k of the bilinear form of q_phi restricted to
    A = Z_k, k B(1, 1)."""
    return int(qres.mat["phi"][0][0] * A.k)


def _col_support(lin: LinearFnData, col: int) -> List[int]:
    return [j for j in range(len(lin.codomain)) if lin.nonzero(j, col)]


def reduce_invertible(t: QTensorData, rho: LinearFnData,
                      qres: Optional[QuadraticFnData] = None) -> QTensorData:
    """Gauss-sum reduction over a finite cyclic subgroup, the image of
    rho: Z_k -> E, where q_phi^(2) is nondegenerate.  A caller that passes
    qres = q o rho has checked rho (``_pulled_back``).

    q o gamma factors as qres o phi through phi: E -> A = Z_k, so q - q o
    gamma is the rank-one update ``minus_pullback`` over phi's support, for
    exact and float values alike.  The Gauss sum over A is read off qres,
    and E is quotiented by the image of rho (``_quotient``), which drops
    the pivot factor of rho when it has one.
    """
    A = rho.domain[0]
    if A.kind != "Zk":
        raise DomainMismatch(f"invertible reduction over {A}, not Z_k")
    qres = _pulled_back(t, rho, qres)
    k = A.k
    if qres.vec["a"][0] != 0 or qres.mat["a"][0][0] != 0:
        raise NotIntegrable("q_a must vanish on the reduced subgroup")
    v = _restricted_bilinear(qres, A)
    if math.gcd(v, k) != 1:
        raise NotInvertible(f"restricted bilinear {v} not invertible mod {k}")
    vinv = pow(v, -1, k)
    # gamma = rho qinv rho* q-phi^(2): E -> A* (= Z_k) -> A -> E, the middle
    # step multiplication by vinv; q o gamma = qres o to_A
    to_A = [image_group(Ej, A).normalize(vinv * x)
            for Ej, x in zip(t.E, _beta(t, rho, "phi").img[0])]
    qtilde = t.q.minus_pullback(to_A, qres.vec["phi"][0], qres.mat["phi"][0][0])
    mag2, phase = gauss_sum(A, qres.vec["phi"][0], qres.mat["phi"][0][0])
    out = _quotient(QTensorData(t.G, t.E, t.eps, qtilde, t.div_weight, t.mag2), rho)
    out.mul_sqrt(Fraction(mag2))
    out.mul_phase(phase)
    return _compact(out)


def _quotient(t: QTensorData, rho: LinearFnData) -> QTensorData:
    """t with E replaced by its quotient by the image of rho: K -> E, for q
    and eps invariant under that image.

    Each Z_k or Z generator of K drops one pivot factor of E, in order, as
    in the row reduction of a stabilizer tableau, with no Smith form.  With
    g its image, p its pivot (``_pivot``) and u the inverse of g_p, e_p is
    -u sum_{j != p} g_j e_j modulo g, and a multiple of g that vanishes on
    p is 0, so the other factors present E / <g>.  Each later generator h is
    projected onto them, h - (h_p u) g, before it looks for its pivot.
    When every generator finds one, t keeps the factors left
    (``_keep_factors``), in the order of ``quotient_by_subgroup``:
    discrete, then T, then R.  Otherwise the quotient goes through
    ``quotient_by_subgroup`` and the section of its lifts
    (``_extract_through_section``).
    """
    E, keep = t.E, list(range(len(t.E)))
    cols = [rho.column(c) for c in range(len(rho.domain))]
    for c, (A, g) in enumerate(zip(rho.domain, cols)):
        p = _pivot(E, A, g) if A.kind in ("Zk", "Z") else None
        if p is None:
            break
        keep.remove(p)
        u = pow(int(g[p]), -1, A.k) if A.kind == "Zk" else g[p]
        for h in cols[c + 1:]:
            m, h[p] = h[p] * u, 0
            for j in keep:
                h[j] -= m * g[j]
    else:
        return _keep_factors(t, sorted(keep, key=lambda j: "ZTR".index(E[j].kind[0])))
    qpres = quotient_by_subgroup(E, rho)
    q, eps = _extract_through_section(E, qpres.group, qpres.lift, t.q, t.eps)
    return QTensorData(t.G, qpres.group, eps, q, t.div_weight, t.mag2)


def reduce_real(t: QTensorData, rho: LinearFnData,
                qres: Optional[QuadraticFnData] = None) -> QTensorData:
    """Complex Gaussian integration over the real direction rho: R -> E.
    A caller that passes qres = q o rho has checked rho (``_pulled_back``).

    As in ``reduce_zero``, x = y + a rho with y_p = 0 at the pivot p of
    rho (``_pivot``): the integral over a corrects q on the other factors,
    which stay as they are, and factor p is dropped.  A rho with no R
    entry raises ``UnsupportedKernel``.
    """
    if rho.domain[0].kind != "R":
        raise DomainMismatch(f"real reduction over {rho.domain[0]}, not R")
    qres = _pulled_back(t, rho, qres)
    p = _pivot(t.E, R, rho.column(0))
    if p is None:
        raise UnsupportedKernel("real reduction over a direction with no R entry")
    # over R the values are the multipliers: q(x) = w x + z x^2 / 2
    za, zphi = qres.mat["a"][0][0], qres.mat["phi"][0][0]
    wa, wphi = qres.vec["a"][0], qres.vec["phi"][0]
    if _form_vanishes(qres, R):
        raise Degenerate("vanishing quadratic part; use the zero reduction")
    if za > 0 and not R.eq(za, 0):
        raise NotIntegrable(f"positive real part {za} in Gaussian exponent")
    z, w = complex(float(za), float(zphi)), complex(float(wa), float(wphi))
    # complex pairing row beta_j with beta(e)(r) = q2(rho r, e) on the factors kept
    betas = [complex(float(ca), float(cp)) for j, (ca, cp) in
             enumerate(zip(_beta(t, rho, "a").img[0], _beta(t, rho, "phi").img[0])) if j != p]
    t = _keep_factors(t, [j for j in range(len(t.E)) if j != p])
    qtilde = t.q.copy()
    for j, bj in enumerate(betas):
        if bj == 0:
            continue
        # -w beta_j / z on e_j, -beta_j^2 / z on e_j^2 / 2, -beta_j beta_l / z on e_j e_l
        terms = [(None, -(w * bj) / z), (j, -(bj * bj) / z)]
        terms += [(l, -(bj * betas[l]) / z) for l in range(j + 1, len(betas))]
        for l, val in terms:
            if val != 0:
                _add_complex(qtilde, j, l, val)
    const = -(w * w) / (2 * z)
    qtilde.a0 = qtilde.a0 + const.real
    qtilde.phi0 = mod1(qtilde.phi0 + const.imag)
    out = QTensorData(t.G, t.E, t.eps, qtilde, t.div_weight, None)
    # integral prefactor 1 / sqrt(-z)
    pref = 1 / cmath.sqrt(-z)
    out.mul_magnitude_float(abs(pref))
    out.mul_phase(cmath.phase(pref) / (2 * math.pi))
    return _compact(out)


def _add_complex(q: QuadraticFnData, j: int, l: Optional[int], val: complex) -> None:
    """Add to the complex exponent q_a + i q_phi the linear term val e_j for
    l None, val e_j^2 / 2 for l = j, and val e_j e_l otherwise.  A finite
    factor (Z_k or T) takes no linear or square term, and a trivial cell
    group no cross term: val is 0 there."""
    Ej = q.domain[j]
    if l in (None, j) and Ej.kind in ("Zk", "T"):
        assert R.eq(abs(val), 0), "complex correction on a finite factor"
        return
    for (part, A), x in zip(PARTS, (val.real, val.imag)):
        vec, mat = q.vec[part], q.mat[part]
        if l is None:
            # the value at the generator or the multiplier of the linear term is x
            grp = image_group(Ej, A)
            vec[j] = grp.normalize(vec[j] + grp.normalize(x))
        elif l == j:
            if is_generated(Ej, A):
                # Z into T: q(1) gains x / 2 and B(1, 1) gains x
                vec[j] = mod1(vec[j] + x / 2)
            grp = cell_group(Ej, Ej, A)
            mat[j][j] = grp.normalize(mat[j][j] + x)
        elif cell_group(Ej, q.domain[l], A) is Z1:
            assert R.eq(x, 0)
        else:
            q.add_to_cell(part, j, l, x)


# ---------------------------------------------------------------------------
# full reduction


def reduce_full(t: QTensorData) -> QTensorData:
    """Reduce kernel factors of eps^(1) until only Z remains: each step hands
    the inclusion of the first Z_k (k > 1), T or R factor of the kernel to
    ``_reduce_step``."""
    cur = _compact(t)
    if cur.is_zero:
        return cur
    measure = _reduction_measure(cur)
    while True:
        pres = kernel_of_hom(cur.eps.linear_part())
        kk = next((kk for kk, A in enumerate(pres.group) if A.kind != "Z" and A is not Z1), None)
        if kk is None:
            return cur
        cur = _reduce_step(cur, pres.inclusion.restrict_cols([kk]))
        if cur.is_zero:
            return cur
        # each step sums out a finite subgroup of order >= 2 or integrates out
        # a whole T or R factor, so the loop ends after finitely many steps
        before, measure = measure, _reduction_measure(cur)
        assert measure < before, f"reduction step did not shrink E: {before} -> {measure}"


def residual_z_rank(t: QTensorData) -> int:
    """The number of Z factors in the kernel of eps^(1), the directions of E
    left summed with infinite measure; 0 for the zero tensor."""
    if t.is_zero:
        return 0
    K = kernel_of_hom(t.eps.linear_part()).group
    return sum(1 for f in K if f.kind == "Z")


def _reduction_measure(t: QTensorData) -> Tuple[int, int, int]:
    """(R factors, T factors, order of the finite part) of E, compared lexicographically."""
    finite = 1
    for f in t.E:
        if f.kind == "Zk":
            finite *= f.k
    return (sum(1 for f in t.E if f.kind == "R"), sum(1 for f in t.E if f.kind == "T"), finite)
