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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .coeff import (
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    compose,
    conjugate_cell,
    dual,
    hom2_apply,
    hom2_group,
    hom_apply,
    hom_fit,
    hom_group,
    hom_zero,
    quad_apply,
    quad_as_hom,
    quad_fit,
    quad_to_bilinear,
)
from .functions import LinearFnData, QuadraticFnData, hom_data
from .groups import GroupProduct, R, T, Zk
from .scalar import Scalar, is_exact, mod1, snap_rational
from .solve import (
    UnsupportedKernel,
    kernel_of_hom,
    quotient_by_subgroup,
    real_kernel,
    solve_hom,
)


class NotInvertible(ValueError):
    pass


class NotIntegrable(ValueError):
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

    def copy(self) -> "QTensorData":
        import copy as _copy

        return _copy.deepcopy(self)


# ---------------------------------------------------------------------------
# tensor product and self-contraction


def tensor_product(t: QTensorData, u: QTensorData) -> QTensorData:
    G = t.G * u.G
    if t.is_zero or u.is_zero:
        return QTensorData.zero(G)
    E = t.E * u.E
    nG_t, nE_t = len(t.G), len(t.E)
    eps0 = tuple(list(t.eps.eps0) + list(u.eps.eps0))
    cells = []
    for i in range(len(G)):
        row = []
        for j in range(len(E)):
            if i < nG_t and j < nE_t:
                row.append(t.eps.eps1[i][j])
            elif i >= nG_t and j >= nE_t:
                row.append(u.eps.eps1[i - nG_t][j - nE_t])
            else:
                row.append(hom_zero(E[j], G[i]))
        cells.append(row)
    eps = LinearFnData(E, G, eps0, cells)
    q = t.q.direct_sum(u.q)
    mag2 = None if t.mag2 is None or u.mag2 is None else t.mag2 * u.mag2
    return QTensorData(G, E, eps, q, t.div_weight + u.div_weight, mag2)


def self_contract(t: QTensorData, i: int, j: int) -> QTensorData:
    """Contract index positions i and j of t (equal elementary factors)."""
    assert i != j
    if t.G[i] != t.G[j]:
        raise ValueError(f"contracted factors differ: {t.G[i]} vs {t.G[j]}")
    rest = [x for x in range(len(t.G)) if x not in (i, j)]
    G_rest = GroupProduct([t.G[x] for x in rest])
    if t.is_zero:
        return QTensorData.zero(G_rest)
    Gc = GroupProduct([t.G[i]])
    delta_cells = [[t.eps.eps1[i][k] + (-t.eps.eps1[j][k]) for k in range(len(t.E))]]
    delta = hom_data(t.E, Gc, delta_cells)
    target = Gc.element([t.G[i].normalize(t.eps.eps0[j] - t.eps.eps0[i])])
    shift = solve_hom(delta, target)
    if shift is None:
        return QTensorData.zero(G_rest)
    pres = kernel_of_hom(delta)
    Ep, kappa = pres.group, pres.inclusion
    eps_rest = LinearFnData(
        t.E, G_rest, tuple(t.eps.eps0[x] for x in rest),
        [t.eps.eps1[x] for x in rest],
    )
    eps_new = eps_rest.compose_affine(kappa, shift)
    q_new = t.q.precompose_affine(kappa, shift)
    return QTensorData(G_rest, Ep, eps_new, q_new, t.div_weight, t.mag2)


# ---------------------------------------------------------------------------
# internals shared by the reductions


def _beta_cells(t: QTensorData, rho_cells: List[HomCoeff], part: str, A) -> LinearFnData:
    """The homomorphism beta: E -> A^dual with beta(e)(r) = q^(2)(rho r, e)."""
    Astar = hom_group(A, T if part == "phi" else R)
    target = GroupProduct([Astar])
    cells = []
    for jj in range(len(t.E)):
        acc = hom_zero(t.E[jj], Astar)
        for k in range(len(t.E)):
            if rho_cells[k].is_zero():
                continue
            cell = t.q.cell(part, k, jj)
            if cell.is_zero():
                continue
            m = cell.transpose().as_outer_hom()  # E_j -> hom[E_k|target]
            acc = acc + compose(m, dual(rho_cells[k], T if part == "phi" else R))
        cells.append(acc)
    return hom_data(t.E, target, [cells])


def _restrict_bilinear_value(t: QTensorData, rho: LinearFnData, part: str) -> Hom2Coeff:
    """rho^* q^(2) rho as a single bilinear coefficient on the 1-factor domain."""
    A = rho.domain[0]
    tgt = T if part == "phi" else R
    acc = Hom2Coeff(A, A, tgt, 0)
    for k in range(len(t.E)):
        rk = rho.eps1[k][0]
        if rk.is_zero():
            continue
        for l in range(len(t.E)):
            rl = rho.eps1[l][0]
            if rl.is_zero():
                continue
            cell = t.q.cell(part, k, l)
            if cell.is_zero():
                continue
            acc = acc + conjugate_cell(rk, cell, rl)
    return acc


def _extract_through_section(
    E: GroupProduct,
    Q: GroupProduct,
    lifts: List[List],
    qfun: QuadraticFnData,
    epsfun: LinearFnData,
) -> Tuple[QuadraticFnData, LinearFnData]:
    """Coefficients of q and eps pulled through a (possibly non-hom) section.

    The section maps sum x_t e_t to sum xbar_t * lift_t computed in E;
    both functions must be invariant under the reduced subgroup, which
    makes the composites genuine quadratic / affine-linear functions.
    Finite factors are extracted by exact sampling, infinite factors via
    coefficient-level composition (the section is a homomorphism there).
    """
    m = len(Q)

    def section(x) -> Tuple:
        comps = []
        for jj in range(len(E)):
            acc = 0
            for tt in range(m):
                xv = int(x[tt]) if Q[tt].kind in ("Zk", "Z") else x[tt]
                lv = lifts[tt][jj]
                if lv != 0 and xv != 0:
                    acc = acc + lv * xv
            comps.append(acc)
        return E.element(comps)

    fin = [tt for tt in range(m) if Q[tt].kind == "Zk"]
    inf = [tt for tt in range(m) if Q[tt].kind != "Zk"]

    out_q = QuadraticFnData.zero(Q)
    n = len(epsfun.codomain)
    out_eps = LinearFnData.zero(Q, epsfun.codomain)
    base = section(Q.identity())
    a0, phi0 = qfun.eval(base)
    out_q.a0, out_q.phi0 = a0, phi0
    out_eps.eps0 = epsfun(base)

    if inf:
        # honest homomorphism on the infinite factors, coefficients = lifts
        Qinf = GroupProduct([Q[tt] for tt in inf])
        inf_cells = [
            [HomCoeff(Q[tt], E[jj], lifts[tt][jj]) for tt in inf]
            for jj in range(len(E))
        ]
        hom_inf = hom_data(Qinf, E, inf_cells)
        q_inf = qfun.precompose(hom_inf)
        eps_inf = epsfun.compose_hom(hom_inf)
        for a, tt in enumerate(inf):
            out_q.a1[tt] = q_inf.a1[a]
            out_q.phi1[tt] = q_inf.phi1[a]
            for i in range(n):
                out_eps.eps1[i][tt] = eps_inf.eps1[i][a]
        for a in range(len(inf)):
            for b in range(a + 1, len(inf)):
                ta, tb = inf[a], inf[b]
                i, j = (ta, tb) if ta < tb else (tb, ta)
                ca = q_inf.cell("a", a, b) if ta < tb else q_inf.cell("a", b, a)
                cp = q_inf.cell("phi", a, b) if ta < tb else q_inf.cell("phi", b, a)
                out_q.set_cell("a", i, j, ca)
                out_q.set_cell("phi", i, j, cp)

    def unit(tt, v=1):
        x = [0] * m
        x[tt] = v
        return Q.element(x)

    for tt in fin:
        def Fq(u, _tt=tt):
            _, ph = qfun.eval(section(unit(_tt, u)))
            return mod1(ph - phi0)

        out_q.phi1[tt] = quad_fit(Q[tt], T, Fq)
        for i in range(n):
            def Fe(u, _tt=tt, _i=i):
                val = epsfun(section(unit(_tt, u)))[_i]
                return epsfun.codomain[_i].normalize(val - out_eps.eps0[_i])

            out_eps.eps1[i][tt] = _hom_fit_any(Q[tt], epsfun.codomain[i], Fe)

    # cross cells involving finite factors
    for a, tt in enumerate(fin):
        for uu in fin[a + 1:]:
            x = Q.add(unit(tt), unit(uu))
            _, pxy = qfun.eval(section(x))
            _, px = qfun.eval(section(unit(tt)))
            _, py = qfun.eval(section(unit(uu)))
            v = mod1(pxy - px - py + phi0)
            i, j = (tt, uu) if tt < uu else (uu, tt)
            out_q.set_cell("phi", i, j, _hom2_fit_value(Q[i], Q[j], v))
        for uu in inf:
            grp = hom2_group(Q[tt], Q[uu], T)
            if grp == Zk(1):
                continue
            # bilinear pairing between the finite section image and the lift
            e_fin = section(unit(tt))
            col = E.element([lifts[uu][jj] for jj in range(len(E))])
            v = _bilinear_pair(qfun, e_fin, col)
            i, j = (tt, uu) if tt < uu else (uu, tt)
            out_q.set_cell("phi", i, j, _hom2_fit_value(Q[i], Q[j], v))
    return out_q, out_eps


def _bilinear_pair(qfun: QuadraticFnData, e1, e2) -> Scalar:
    acc = Fraction(0)
    for k in range(len(qfun.domain)):
        for l in range(len(qfun.domain)):
            cell = qfun.cell("phi", k, l)
            if not cell.is_zero():
                acc = acc + hom2_apply(cell, e1[k], e2[l])
    return mod1(acc)


def _hom_fit_any(G, A, F) -> HomCoeff:
    if hom_group(G, A) == Zk(1):
        return hom_zero(G, A)
    if A.kind in ("Zk", "T"):
        return hom_fit(G, A, F)
    raise UnsupportedKernel(f"finite factor mapping into {A}")


def _hom2_fit_value(G0, G1, v) -> Hom2Coeff:
    """Bilinear coefficient with B(1,1) = v for finite/Z factor pairs."""
    grp = hom2_group(G0, G1, T)
    if grp == Zk(1):
        assert T.eq(mod1(v), 0), f"nonzero pairing {v} in trivial cell {G0},{G1}"
        return Hom2Coeff(G0, G1, T, 0)
    # H2(c)(1,1) = c / grp.k
    f = Fraction(v) * grp.k
    assert f.denominator == 1, f"pairing {v} incompatible with cell group {grp}"
    return Hom2Coeff(G0, G1, T, int(f))


def _compact(t: QTensorData) -> QTensorData:
    """Drop trivial Z1 factors from E."""
    keep = [j for j in range(len(t.E)) if not (t.E[j].kind == "Zk" and t.E[j].k == 1)]
    if len(keep) == len(t.E):
        return t
    E = GroupProduct([t.E[j] for j in keep])
    eps = t.eps.restrict_cols(keep)
    q = t.q.restrict_cols(keep)
    return QTensorData(t.G, E, eps, q, t.div_weight, t.mag2, t.is_zero)


# ---------------------------------------------------------------------------
# gauss sums


def gauss_sum(q: QuadCoeff, offset: Optional[HomCoeff] = None) -> Tuple[Fraction, Scalar]:
    """(squared magnitude, phase) of sum over Z_k of exp(2 pi i q(g)).

    Requires the bilinear part of q to be nondegenerate; the magnitude is
    then exactly sqrt(k).  The phase is snapped to a rational when within
    1e-9 of one with denominator at most 8k.
    """
    G = q.source
    assert G.kind == "Zk" and q.target.kind == "T"
    k = G.k
    b = quad_to_bilinear(q).value
    if math.gcd(int(b), k) != 1:
        raise Degenerate(f"bilinear coefficient {b} degenerate over Z_{k}")
    qq = q
    if offset is not None and not offset.is_zero():
        from .coeff import linear_as_quad

        qq = q + linear_as_quad(offset)
    total = 0j
    for g in range(k):
        total += cmath.exp(2j * math.pi * float(quad_apply(qq, g)))
    mag = abs(total)
    assert abs(mag - math.sqrt(k)) < 1e-9 * math.sqrt(k), f"|sum| = {mag} != sqrt({k})"
    phase = snap_rational(cmath.phase(total) / (2 * math.pi), 8 * k)
    return Fraction(k), mod1(phase)


# ---------------------------------------------------------------------------
# the three reductions


def _check_rho_in_kernel(t: QTensorData, rho: LinearFnData) -> None:
    for i in range(len(t.G)):
        acc = hom_zero(rho.domain[0], t.G[i])
        for k in range(len(t.E)):
            acc = acc + compose(rho.eps1[k][0], t.eps.eps1[i][k])
        if not acc.is_zero():
            raise KernelViolation("rho does not land in kernel(eps1)")


def reduce_zero(t: QTensorData, rho: LinearFnData) -> QTensorData:
    """Sum/integrate over a subgroup on which the bilinear form vanishes."""
    A = rho.domain[0]
    _check_rho_in_kernel(t, rho)
    if A.kind == "R":
        sup0 = [kk for kk in range(len(t.E)) if not rho.eps1[kk][0].is_zero()]
        if len(sup0) > 1:
            t, rho = _realign_real(t, rho)
    qres = t.q.precompose(rho)
    for part in ("a", "phi"):
        if not quad_to_bilinear(qres.vec(part)[0]).is_zero():
            raise KernelViolation("q^(2) does not vanish on rho")
    if not qres.a1[0].is_zero():
        raise NotIntegrable("q_a does not vanish on the summed subgroup")
    chi = quad_as_hom(qres.phi1[0])  # in hom[A|T] = A*
    rho_cells = [rho.eps1[k][0] for k in range(len(t.E))]
    beta = _beta_cells(t, rho_cells, "phi", A)
    beta_a = _beta_cells(t, rho_cells, "a", A)
    if any(not c.is_zero() for c in beta_a.eps1[0]):
        raise NotIntegrable("nonzero a-part pairing against a summed subgroup")
    Astar = hom_group(A, T)
    target = GroupProduct([Astar]).element([Astar.neg(chi.value)])
    e0 = solve_hom(beta, target)
    if e0 is None:
        return QTensorData.zero(t.G)
    pres = kernel_of_hom(beta)
    K2, kappa2 = pres.group, pres.inclusion

    shifted_q = t.q.shift(e0)
    shifted_eps = LinearFnData(t.E, t.G, t.eps(e0), t.eps.eps1)

    r_dims_before = sum(1 for f in t.E if f.kind == "R")

    if A.kind in ("T", "R"):
        # rho covers a full continuous factor of E; drop it from the kernel
        sup = [k for k in range(len(t.E)) if not rho_cells[k].is_zero()]
        assert len(sup) == 1, "continuous zero-reduction needs single-factor support"
        j0 = sup[0]
        Qfactors, lifts = [], []
        for kk in range(len(K2)):
            if K2[kk].kind == A.kind and _col_support(kappa2, kk) == [j0]:
                continue  # this is the integrated direction itself
            Qfactors.append(K2[kk])
            lifts.append(_raw_column(kappa2, kk))
        Q = GroupProduct(Qfactors)
    else:
        # find rho inside K2 and quotient it away
        rho_gen = rho(rho.domain.element([1]))
        inside = solve_hom(kappa2, rho_gen)
        assert inside is not None, "summed subgroup must lie in the beta kernel"
        incl_cells = [
            [_subgroup_coeff(A, K2[kk], inside[kk])] for kk in range(len(K2))
        ]
        sub = hom_data(GroupProduct([A]), K2, incl_cells)
        qpres = quotient_by_subgroup(K2, sub)
        Q = qpres.group
        lifts = []
        for lift_vec in qpres.lift:
            # push the K2-coordinate lift down to raw E coordinates
            lifts.append(_combine_raw(kappa2, lift_vec))
    q_new, eps_new = _extract_through_section(t.E, Q, lifts, shifted_q, shifted_eps)
    out = QTensorData(t.G, Q, eps_new, q_new, t.div_weight, t.mag2)
    if A.kind == "Zk":
        out.mul_sqrt(Fraction(A.k * A.k))
    elif A.kind in ("Z", "R"):
        out.div_weight += 1
    r_dims_after = sum(1 for f in Q if f.kind == "R") + (1 if A.kind == "R" else 0)
    out.div_weight -= r_dims_before - r_dims_after
    return _compact(out)


def _raw_column(lin: LinearFnData, col: int) -> List:
    """Raw coordinate vector of an inclusion column.

    For finite and Z source factors this is the image of the generator;
    for T and R factors it is the vector of hom coefficients (integers
    into circles, reals into reals).
    """
    src = lin.domain[col]
    out = []
    for jj in range(len(lin.codomain)):
        cell = lin.eps1[jj][col]
        if src.kind in ("Zk", "Z"):
            out.append(hom_apply(cell, 1))
        else:
            out.append(cell.value)
    return out


def _combine_raw(lin: LinearFnData, coord_vec) -> List:
    """Raw E-coordinates of an integer K2-coordinate vector."""
    out = [0] * len(lin.codomain)
    for kk in range(len(lin.domain)):
        c = coord_vec[kk]
        if c == 0:
            continue
        raw = _raw_column(lin, kk)
        for jj in range(len(out)):
            out[jj] = out[jj] + c * raw[jj]
    return out


def _col_support(lin: LinearFnData, col: int) -> List[int]:
    return [j for j in range(len(lin.codomain)) if not lin.eps1[j][col].is_zero()]


def _subgroup_coeff(A, K2f, val) -> HomCoeff:
    """Coefficient of the map A -> K2 factor sending 1 to val."""
    grp = hom_group(A, K2f)
    if grp == Zk(1):
        assert K2f.normalize(val) == 0 or K2f.kind != "Zk" and val == 0
        return hom_zero(A, K2f)
    if K2f.kind == "Zk":
        k = K2f.k
        if A.kind == "Zk":
            d = math.gcd(A.k, k)
            step = k // d
            v = int(val) % k
            assert v % step == 0
            return HomCoeff(A, K2f, (v // step) % d)
        return HomCoeff(A, K2f, val)
    if K2f.kind == "Z":
        if A.kind == "Zk":
            assert int(val) == 0
            return hom_zero(A, K2f)
        return HomCoeff(A, K2f, val)
    raise UnsupportedKernel("discrete subgroup meeting continuous kernel factors")


def reduce_invertible(t: QTensorData, rho: LinearFnData) -> QTensorData:
    """Gauss-sum reduction over a finite cyclic subgroup where q_phi^(2)
    is nondegenerate."""
    A = rho.domain[0]
    assert A.kind == "Zk"
    k = A.k
    _check_rho_in_kernel(t, rho)
    qres = t.q.precompose(rho)
    if not (qres.a1[0].is_zero() and quad_to_bilinear(qres.a1[0]).is_zero()):
        raise NotIntegrable("q_a must vanish on the reduced subgroup")
    bil = quad_to_bilinear(qres.phi1[0])
    v = int(bil.value)
    if math.gcd(v, k) != 1:
        raise NotInvertible(f"restricted bilinear {v} not invertible mod {k}")
    vinv = pow(v, -1, k)
    # gamma = rho qinv rho* q-phi^(2): one nonzero "row" through A
    rho_cells = [rho.eps1[kk][0] for kk in range(len(t.E))]
    beta = _beta_cells(t, rho_cells, "phi", A)  # E -> A*
    inv_h = HomCoeff(hom_group(A, T), A, vinv)
    gamma_cells = []
    for j in range(len(t.E)):
        to_A = compose(beta.eps1[0][j], inv_h)  # E_j -> A
        gamma_cells.append([compose(to_A, rho_cells[kk]) for kk in range(len(t.E))])
    gamma = hom_data(t.E, t.E, [[gamma_cells[j][kk] for j in range(len(t.E))]
                                for kk in range(len(t.E))])
    p = t.q.precompose(gamma)
    p.a0, p.phi0 = 0, 0
    qtilde = t.q + (-p)
    mag2, phase = gauss_sum(qres.phi1[0])
    # quotient E by the image of rho
    qpres = quotient_by_subgroup(t.E, rho)
    Q = qpres.group
    lifts = [list(lv) for lv in qpres.lift]
    q_new, eps_new = _extract_through_section(t.E, Q, lifts, qtilde, t.eps)
    out = QTensorData(t.G, Q, eps_new, q_new, t.div_weight, t.mag2)
    out.mul_sqrt(Fraction(mag2))
    out.mul_phase(phase)
    return _compact(out)


def _determinant(M) -> Fraction:
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if A[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            A[j], A[piv] = A[piv], A[j]
            det = -det
        det *= A[j][j]
        inv = A[j][j]
        A[j] = [x / inv for x in A[j]]
        for i in range(j + 1, n):
            if A[i][j] != 0:
                f = A[i][j]
                A[i] = [x - f * y for x, y in zip(A[i], A[j])]
    return det


def _realign_real(t: QTensorData, rho: LinearFnData) -> Tuple[QTensorData, LinearFnData]:
    """Change coordinates on the real block so the reduction direction is a
    single factor; the basis change has determinant +-1, preserving the
    integration measure."""
    rids = [j for j in range(len(t.E)) if t.E[j].kind == "R"]
    v = [rho.eps1[j][0].value for j in rids]
    exact = all(is_exact(x) for x in v)
    comp = real_kernel([v])
    B = [[v[i]] + [w[i] for w in comp] for i in range(len(rids))]  # columns
    det = _determinant(B) if exact else None
    if exact:
        assert det != 0
        B = [[row[0]] + [row[c] / det if c == len(rids) - 1 else row[c]
                         for c in range(1, len(rids))] for row in B]
    else:
        import numpy as np

        d = float(np.linalg.det(np.array([[float(x) for x in row] for row in B])))
        B = [[row[0]] + [row[c] / d if c == len(rids) - 1 else row[c]
                         for c in range(1, len(rids))] for row in B]
    cells = []
    for jj in range(len(t.E)):
        row = []
        for kk in range(len(t.E)):
            if t.E[jj].kind == "R" and t.E[kk].kind == "R":
                row.append(HomCoeff(R, R, B[rids.index(jj)][rids.index(kk)]))
            elif jj == kk:
                row.append(HomCoeff(t.E[kk], t.E[jj], 1))
            else:
                row.append(hom_zero(t.E[kk], t.E[jj]))
        cells.append(row)
    M = hom_data(t.E, t.E, cells)
    t2 = QTensorData(t.G, t.E, t.eps.compose_hom(M), t.q.precompose(M),
                     t.div_weight, t.mag2)
    rho_cells = [[HomCoeff(R, t.E[j], 1)] if j == rids[0] else [hom_zero(R, t.E[j])]
                 for j in range(len(t.E))]
    rho2 = hom_data(GroupProduct([R]), t.E, rho_cells)
    return t2, rho2


def reduce_real(t: QTensorData, rho: LinearFnData) -> QTensorData:
    """Complex Gaussian integration over one real direction of E."""
    A = rho.domain[0]
    assert A.kind == "R"
    _check_rho_in_kernel(t, rho)
    sup0 = [kk for kk in range(len(t.E)) if not rho.eps1[kk][0].is_zero()]
    if len(sup0) > 1:
        t, rho = _realign_real(t, rho)
    qres = t.q.precompose(rho)
    za = qres.a1[0].h2
    zphi = qres.phi1[0].h2
    wa = qres.a1[0].h1
    wphi = qres.phi1[0].h1
    z = complex(float(za), float(zphi))
    if abs(z) < 1e-12:
        raise Degenerate("vanishing quadratic part; use the zero reduction")
    if float(za) > 1e-9:
        raise NotIntegrable(f"positive real part {za} in Gaussian exponent")
    w = complex(float(wa), float(wphi))
    rho_cells = [rho.eps1[kk][0] for kk in range(len(t.E))]
    # complex pairing row beta_j with beta(e)(r) = q2(rho r, e)
    beta_a = _beta_cells(t, rho_cells, "a", A)
    beta_phi = _beta_cells(t, rho_cells, "phi", A)
    exact = all(is_exact(x) for x in (za, zphi, wa, wphi))
    beta_vals = []
    for j in range(len(t.E)):
        ca = beta_a.eps1[0][j].value
        cp = beta_phi.eps1[0][j].value
        exact = exact and is_exact(ca) and is_exact(cp)
        beta_vals.append((ca, cp))

    def cnum(pair):
        return complex(float(pair[0]), float(pair[1]))

    import copy as _copy

    qtilde = _copy.deepcopy(t.q)
    m = len(t.E)
    for j in range(m):
        bj = cnum(beta_vals[j])
        if bj == 0 and w == 0:
            continue
        # linear correction: -w beta_j / z
        lin = -(w * bj) / z
        if lin != 0:
            _add_complex_linear(qtilde, j, t.E[j], lin)
        # diagonal correction: -(beta_j)^2 / (2z) as h2 on factor j
        dia = -(bj * bj) / z
        if dia != 0:
            _add_complex_h2(qtilde, j, t.E[j], dia)
        for l in range(j + 1, m):
            bl = cnum(beta_vals[l])
            cross = -(bj * bl) / z
            if cross != 0:
                _add_complex_cell(qtilde, j, l, t.E[j], t.E[l], cross)
    const = -(w * w) / (2 * z)
    qtilde.a0 = qtilde.a0 + const.real
    qtilde.phi0 = mod1(qtilde.phi0 + const.imag)
    # integral prefactor 1 / sqrt(-z)
    root = cmath.sqrt(-z)
    pref = 1 / root
    out_mag = abs(pref)
    out_phase = cmath.phase(pref) / (2 * math.pi)
    # drop the integrated direction; complement the rest of the real block
    sup = [kk for kk in range(m) if not rho_cells[kk].is_zero()]
    if len(sup) == 1:
        keep = [kk for kk in range(m) if kk != sup[0]]
        E_new = GroupProduct([t.E[kk] for kk in keep])
        eps_new = t.eps.restrict_cols(keep)
        q_new = qtilde.restrict_cols(keep)
        out = QTensorData(t.G, E_new, eps_new, q_new, t.div_weight, None)
    else:
        raise UnsupportedKernel("real reduction needs a single-factor direction")
    out.mul_magnitude_float(out_mag)
    out.mul_phase(out_phase)
    return _compact(out)


def _add_complex_linear(q: QuadraticFnData, j: int, Ej, val: complex) -> None:
    if Ej.kind in ("Zk", "T"):
        assert abs(val) < 1e-12, "complex linear correction on a finite factor"
        return
    q.a1[j] = q.a1[j] + QuadCoeff(Ej, R, 0, val.real)
    q.phi1[j] = q.phi1[j] + QuadCoeff(Ej, T, 0, val.imag)


def _add_complex_h2(q: QuadraticFnData, j: int, Ej, val: complex) -> None:
    if Ej.kind in ("Zk", "T"):
        assert abs(val) < 1e-12
        return
    # val is the coefficient of e_j^2, i.e. h2 += val in the 1/2 h2 g^2 form
    q.a1[j] = q.a1[j] + QuadCoeff(Ej, R, val.real, 0)
    q.phi1[j] = q.phi1[j] + QuadCoeff(Ej, T, val.imag, 0)


def _add_complex_cell(q: QuadraticFnData, j: int, l: int, Ej, El, val: complex) -> None:
    grp_a = hom2_group(Ej, El, R)
    grp_p = hom2_group(Ej, El, T)
    if grp_a == Zk(1) and grp_p == Zk(1):
        assert abs(val) < 1e-12
        return
    if grp_a != Zk(1):
        q.set_cell("a", j, l, q.cell("a", j, l) + Hom2Coeff(Ej, El, R, val.real))
    else:
        assert abs(val.real) < 1e-12
    if grp_p != Zk(1):
        q.set_cell("phi", j, l, q.cell("phi", j, l) + Hom2Coeff(Ej, El, T, val.imag))
    else:
        assert abs(val.imag) < 1e-12


# ---------------------------------------------------------------------------
# full reduction


@dataclass
class ReduceReport:
    residual_z_rank: int = 0
    steps: List[str] = field(default_factory=list)


def reduce_full(t: QTensorData, report: Optional[ReduceReport] = None) -> QTensorData:
    """Repeatedly reduce kernel factors of eps^(1) until only Z remains."""
    if report is None:
        report = ReduceReport()
    cur = _compact(t)
    if cur.is_zero:
        return cur
    for _ in range(200):
        lin = hom_data(cur.E, cur.G, cur.eps.eps1)
        pres = kernel_of_hom(lin)
        K, incl = pres.group, pres.inclusion
        progress = False
        for kk in range(len(K)):
            A = K[kk]
            col = hom_data(GroupProduct([A]), cur.E,
                           [[incl.eps1[j][kk]] for j in range(len(cur.E))])
            if A.kind == "Z":
                continue
            if A.kind == "Zk":
                if A.k == 1:
                    continue
                bil = _restrict_bilinear_value(cur, col, "phi")
                v = int(bil.value)
                g = math.gcd(v, A.k)
                if v != 0 and g == 1:
                    cur = reduce_invertible(cur, col)
                    report.steps.append(f"invertible Z{A.k}")
                elif v == 0:
                    cur = reduce_zero(cur, col)
                    report.steps.append(f"zero Z{A.k}")
                else:
                    # zero-reduce the order-g subgroup inside A
                    sub = GroupProduct([Zk(g)])
                    sub_cells = [
                        [compose(HomCoeff(Zk(g), A, 1), incl.eps1[j][kk])]
                        for j in range(len(cur.E))
                    ]
                    cur = reduce_zero(cur, hom_data(sub, cur.E, sub_cells))
                    report.steps.append(f"zero Z{g} inside Z{A.k}")
                progress = True
                break
            if A.kind == "T":
                cur = reduce_zero(cur, col)
                report.steps.append("zero T")
                progress = True
                break
            if A.kind == "R":
                za = _restrict_bilinear_value(cur, col, "a").value
                zp = _restrict_bilinear_value(cur, col, "phi").value
                if abs(complex(float(za), float(zp))) < 1e-12:
                    cur = reduce_zero(cur, col)
                    report.steps.append("zero R")
                else:
                    cur = reduce_real(cur, col)
                    report.steps.append("gaussian R")
                progress = True
                break
        if cur.is_zero:
            return cur
        if not progress:
            report.residual_z_rank = sum(1 for f in K if f.kind == "Z")
            return cur
    raise RuntimeError("reduction did not terminate")
