"""Generalized Pauli operators, stabilizer tableaux, code states and
projectors, Pauli measurements, and Clifford automorphism data over
arbitrary products of elementary abelian groups, all realized as
quadratic tensor data.

The dual H* of an index group is materialized factorwise (Z_k <-> Z_k,
R <-> R, T <-> Z, Z <-> T) so that the symplectic machinery is ordinary
coefficient arithmetic.  Code states (and through them Clifford
unitaries) come in closed form straight from the tableau for every
index group; projectors and measurements assemble the unreduced tensor
data and normalize through the generic reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .coeff import (
    Hom2Coeff,
    HomCoeff,
    QuadCoeff,
    compose,
    conjugate_cell,
    dual,
    hom2_zero,
    hom_apply,
    hom_zero,
    linear_as_quad,
    quad_as_hom,
    quad_to_bilinear,
)
from .engine import QTensorData, _extract_through_section, reduce_full
from .functions import LinearFnData, QuadraticFnData, hom_data
from .groups import GroupElement, GroupProduct, R, T, Z, Zk
from .scalar import Scalar, is_exact, mod1, scalar_eq
from .solve import UnsupportedKernel, kernel_of_hom, quotient_by_subgroup, solve_hom


class OrthogonalityViolation(ValueError):
    pass


class NotSymplectic(ValueError):
    pass


class CocycleMismatch(ValueError):
    pass


class UnsolvableOffset(ValueError):
    pass


class ConditionViolation(ValueError):
    pass


def dual_factor(f) -> "ElementaryGroup":
    if f.kind == "Zk":
        return f
    if f.kind == "Z":
        return T
    if f.kind == "T":
        return Z
    return R


def dual_product(H: GroupProduct) -> GroupProduct:
    return GroupProduct([dual_factor(f) for f in H])


def pairing_cell(f) -> Hom2Coeff:
    """The canonical pairing H_i x H_i* -> T as a bilinear coefficient."""
    return Hom2Coeff(f, dual_factor(f), T, 1)


def character_apply(f, h, c) -> Scalar:
    """Evaluate the character with dual coefficient c at h in the factor."""
    return hom_apply(HomCoeff(f, T, c), h)


# ---------------------------------------------------------------------------
# generalized Pauli operators


@dataclass
class PauliLabel:
    H: GroupProduct
    h: GroupElement
    hstar: List[Scalar]  # dual coordinates, one per factor
    alpha: Scalar = 0

    def __post_init__(self):
        self.h = self.H.element(self.h)
        D = dual_product(self.H)
        self.hstar = list(D.element(self.hstar))
        self.alpha = mod1(self.alpha)


def pauli_to_tensor(p: PauliLabel) -> QTensorData:
    """Tensor of e^{2 pi i alpha} rho(h, h') over (out, in) indices.

    The operator acts as (rho phi)(x) = e^{2 pi i h'(x)} phi(x - h), so the
    entry at (e + h, e) carries the phase h'(e) + h'(h)."""
    H = p.H
    n = len(H)
    G = H * H  # (output, input)
    E = H
    cells = [[HomCoeff(H[j], H[i % n], 1) if j == i % n else hom_zero(H[j], H[i % n])
              for j in range(n)] for i in range(2 * n)]
    eps0 = G.element(list(p.h) + [0] * n)
    eps = LinearFnData(E, G, eps0, cells)
    q = QuadraticFnData.zero(E)
    extra = p.alpha
    for i, f in enumerate(H):
        q.phi1[i] = linear_as_quad(HomCoeff(f, T, p.hstar[i]))
        extra = extra + character_apply(f, p.h[i], p.hstar[i])
    q.phi0 = mod1(extra)
    return QTensorData(G, E, eps, q)


def pauli_rep_tensor(H: GroupProduct) -> QTensorData:
    """All Pauli operators as one tensor over (out, in, h, h*)."""
    n = len(H)
    D = dual_product(H)
    G = H * H * H * D
    E = H * H * D
    rows = []
    for i in range(4 * n):
        row = []
        for j in range(3 * n):
            val = 0
            # output row: h_i + h
            if i < n and (j == i or j == n + i):
                val = 1
            # input row: h_i
            elif n <= i < 2 * n and j == i - n:
                val = 1
            # shift index row
            elif 2 * n <= i < 3 * n and j == i - n:
                val = 1
            # dual index row
            elif 3 * n <= i and j == i - n:
                val = 1
            row.append(HomCoeff(E[j], G[i], val) if val else hom_zero(E[j], G[i]))
        rows.append(row)
    eps = LinearFnData(E, G, G.identity(), rows)
    q = QuadraticFnData.zero(E)
    for m in range(n):
        # h'(h_i) and h'(h) couplings
        q.set_cell("phi", m, 2 * n + m, pairing_cell(H[m]))
        q.set_cell("phi", n + m, 2 * n + m, pairing_cell(H[m]))
    return QTensorData(G, E, eps, q)


# ---------------------------------------------------------------------------
# stabilizer tableaux


@dataclass
class StabTableau:
    H: GroupProduct
    S: GroupProduct
    sigma_x: List[List[HomCoeff]]  # rows over H factors
    sigma_z: List[List[HomCoeff]]  # rows over H* factors (dual coordinates)
    p: QuadraticFnData  # over S, phi part only

    def __post_init__(self):
        n, m = len(self.H), len(self.S)
        assert len(self.sigma_x) == n and all(len(r) == m for r in self.sigma_x)
        assert len(self.sigma_z) == n and all(len(r) == m for r in self.sigma_z)
        assert self.p.domain == self.S

    def sigma_pair_cell(self, a: int, b: int) -> Hom2Coeff:
        """(sigma_z s_b)(sigma_x s_a) as a bilinear coefficient on S_a x S_b."""
        acc = hom2_zero(self.S[a], self.S[b], T)
        for i, f in enumerate(self.H):
            x, z = self.sigma_x[i][a], self.sigma_z[i][b]
            if x.is_zero() or z.is_zero():
                continue
            acc = acc + conjugate_cell(x, pairing_cell(f), z)
        return acc

    def validate(self, tol: float = 1e-9) -> None:
        m = len(self.S)
        for a in range(m):
            for b in range(m):
                want = self.sigma_pair_cell(a, b)
                if a == b:
                    got = quad_to_bilinear(self.p.phi1[a])
                else:
                    got = self.p.cell("phi", a, b)
                grp = want.group
                if not grp.eq(grp.normalize(got.value), want.value):
                    raise ConditionViolation(
                        f"tableau condition fails at cell ({a},{b}): "
                        f"{got.value} != {want.value}"
                    )
                # antisymmetry consequence sigma* J sigma = 0
                wt = self.sigma_pair_cell(b, a)
                if not grp.eq(grp.normalize(want.value), wt.transpose().value):
                    raise ConditionViolation(
                        f"sigma*J sigma nonzero at cell ({a},{b})"
                    )
        self._check_injective()

    def _check_injective(self) -> None:
        D = dual_product(self.H)
        cod = self.H * D
        cells = [self.sigma_x[i] for i in range(len(self.H))] + [
            self.sigma_z[i] for i in range(len(self.H))
        ]
        sigma = hom_data(self.S, cod, cells)
        try:
            pres = kernel_of_hom(sigma)
        except UnsupportedKernel:
            return  # injectivity not checkable in this class; constructions guard
        if len(pres.group) and any(
            f.kind != "Zk" or f.k > 1 for f in pres.group
        ):
            raise ConditionViolation("sigma is not injective")

def qubit_tableau(strings: Sequence[str]) -> StabTableau:
    """Tableau from signed qubit Pauli strings like "+XZZXI" or "-Y".

    The diagonal of p is fixed so that the stabilizer representation sends
    each generator to exactly the signed string operator (with Y = i XZ).
    """
    gens = []
    for s in strings:
        sign = 1
        body = s
        if s[0] in "+-":
            sign = -1 if s[0] == "-" else 1
            body = s[1:]
        gens.append((sign, body))
    n = len(gens[0][1])
    m = len(gens)
    H = GroupProduct([Zk(2)] * n)
    S = GroupProduct([Zk(2)] * m)
    xbits = [[1 if c in "XY" else 0 for c in body] for _, body in gens]
    zbits = [[1 if c in "ZY" else 0 for c in body] for _, body in gens]
    sx = [[HomCoeff(Zk(2), Zk(2), xbits[a][i]) for a in range(m)] for i in range(n)]
    sz = [[HomCoeff(Zk(2), Zk(2), zbits[a][i]) for a in range(m)] for i in range(n)]
    p = QuadraticFnData.zero(S)
    for a, (sign, body) in enumerate(gens):
        ny = body.count("Y")
        sa = 1 if sign < 0 else 0
        p.phi1[a] = QuadCoeff(Zk(2), T, (ny + 2 * sa) % 4, 0)
    for a in range(m):
        for b in range(a + 1, m):
            val = sum(xbits[a][i] * zbits[b][i] for i in range(n)) % 2
            if val:
                p.set_cell("phi", a, b, Hom2Coeff(Zk(2), Zk(2), T, val))
    tab = StabTableau(H, S, sx, sz, p)
    tab.validate()
    return tab


def css_tableau(Sx: GroupProduct, Sz: GroupProduct, sigma_x_cells, sigma_z_cells,
                H: GroupProduct) -> StabTableau:
    """CSS tableau: S = Sx x Sz, block-diagonal sigma, p = 0."""
    S = Sx * Sz
    n = len(H)
    mx, mz = len(Sx), len(Sz)
    sx = [[sigma_x_cells[i][a] if a < mx else hom_zero(S[a], H[i])
           for a in range(mx + mz)] for i in range(n)]
    sz = [[sigma_z_cells[i][a - mx] if a >= mx else hom_zero(S[a], dual_factor(H[i]))
           for a in range(mx + mz)] for i in range(n)]
    tab = StabTableau(H, S, sx, sz, QuadraticFnData.zero(S))
    # orthogonality sigma_z^* sigma_x = 0
    for a in range(mx):
        for b in range(mx, mx + mz):
            cell = tab.sigma_pair_cell(a, b)
            if not cell.is_zero():
                raise OrthogonalityViolation(
                    f"sigma_z^* sigma_x nonzero at ({a},{b}): {cell.value}"
                )
    tab.validate()
    return tab


def _sigma_quadratic(tab: StabTableau) -> QuadraticFnData:
    """The normalized quadratic function w(s) = (sigma_z s)(sigma_x s)."""
    from .coeff import lam

    S = tab.S
    m = len(S)
    w = QuadraticFnData.zero(S)
    for a in range(m):
        cell = tab.sigma_pair_cell(a, a)
        if not cell.is_zero():
            w.phi1[a] = w.phi1[a] + lam(cell)
        for b in range(a + 1, m):
            c = tab.sigma_pair_cell(a, b) + tab.sigma_pair_cell(b, a).transpose()
            if not c.is_zero():
                w.set_cell("phi", a, b, w.cell("phi", a, b) + c)
    return w


def _unreduced_projector(tab: StabTableau) -> QTensorData:
    """Projector data before reduction: E = H x S, entries from R(s).

    <h_o| R(s) |h_i> = e^{2 pi i (-p(s) + (sigma_z s)(h_i) + (sigma_z s)(sigma_x s))}
    at h_o = h_i + sigma_x s.
    """
    H, S = tab.H, tab.S
    n, m = len(H), len(S)
    G = H * H  # (out, in)
    E = H * S
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(n + m):
            tgt = G[i]
            if i < n:
                if j == i:
                    row.append(HomCoeff(E[j], tgt, 1))
                elif j >= n:
                    row.append(tab.sigma_x[i][j - n])
                else:
                    row.append(hom_zero(E[j], tgt))
            else:
                if j == i - n:
                    row.append(HomCoeff(E[j], tgt, 1))
                else:
                    row.append(hom_zero(E[j], tgt))
        rows.append(row)
    eps = LinearFnData(E, G, G.identity(), rows)
    q = QuadraticFnData.zero(E)
    # phase (sigma_z s)(h_i) as cells between H part and S part
    for i, f in enumerate(H):
        for b in range(m):
            zc = tab.sigma_z[i][b]
            if zc.is_zero():
                continue
            cell = conjugate_cell(HomCoeff(f, f, 1), pairing_cell(f), zc)
            q.set_cell("phi", i, n + b, q.cell("phi", i, n + b) + cell)
    # phase w(s) - p(s) on the S part
    sq = _sigma_quadratic(tab) + (-tab.p)
    for b in range(m):
        q.phi1[n + b] = q.phi1[n + b] + sq.phi1[b]
    for (a, b), c in sq.phi2.items():
        q.set_cell("phi", n + a, n + b, q.cell("phi", n + a, n + b) + c)
    t = QTensorData(G, E, eps, q)
    if S.finite:
        t.mul_sqrt(Fraction(1, S.order * S.order))
    else:
        raise UnsupportedKernel("projector needs a finite stabilizer group")
    return t


def stab_projector(tab: StabTableau) -> QTensorData:
    tab.validate()
    return reduce_full(_unreduced_projector(tab))


def _dual_hom_matrix(rows_cells, S: GroupProduct, K: GroupProduct,
                     H: GroupProduct) -> LinearFnData:
    """Matrix of kappa^* sigma_z^*: H -> K^* from sigma_z compose kappa."""
    Dk = dual_product(K)
    cells = [[dual(rows_cells[i][q], T) for i in range(len(H))] for q in range(len(K))]
    return hom_data(H, Dk, [[cells[q][i] for i in range(len(H))] for q in range(len(K))])


def stab_state(tab: StabTableau) -> QTensorData:
    """A code state of the tableau, built in closed form from (sigma_x, sigma_z, p).

    With K_x = ker(sigma_x) and h0 solving kappa_x^* sigma_z^* h0 = p o kappa_x,
    the state lives on E = S / K_x with eps(s) = h0 + sigma_x s and
    q(s) = (sigma_z s)(h0) + (sigma_z s)(sigma_x s) - p(s).  The cost is
    polynomial in the number of factors.  eps is injective, so for finite
    groups the state has unit norm with exact mag2 = |K_x| / |S|, and its
    amplitude at eps0 = h0 is real and positive.  A complete tableau fixes
    the state up to a global phase; an incomplete one yields a unit code
    state, one among many.
    """
    tab.validate()
    H, S = tab.H, tab.S
    n, m = len(H), len(S)
    sx = hom_data(S, H, tab.sigma_x)
    pres = kernel_of_hom(sx)
    Kx, kx = pres.group, pres.inclusion
    # sigma_z compose kappa_x, then dualize to get kappa_x^* sigma_z^*
    sz = hom_data(S, dual_product(H), tab.sigma_z)
    szkx = sz.compose_hom(kx)
    M = _dual_hom_matrix([[szkx.eps1[i][q] for q in range(len(Kx))]
                          for i in range(n)], S, Kx, H)
    pkx = tab.p.precompose(kx)
    target_vals = []
    for q in range(len(Kx)):
        if not quad_to_bilinear(pkx.phi1[q]).is_zero():
            raise ConditionViolation("p restricted to kernel(sigma_x) is not linear")
        target_vals.append(quad_as_hom(pkx.phi1[q]).value)
    Dk = dual_product(Kx)
    h0 = solve_hom(M, Dk.element(target_vals)) if len(Kx) else tuple(
        H.identity()
    )
    if h0 is None:
        raise UnsolvableOffset("no h0 solves kappa_x^* sigma_z^* h0 = p o kappa_x")
    h0 = H.element(h0)
    qpres = quotient_by_subgroup(S, kx)
    Q = qpres.group
    # q over S: (sigma_z^*(h0) - p + w)(s), eps over S: sigma_x offset by h0
    qS = _sigma_quadratic(tab) + (-tab.p)
    for b in range(m):
        acc = hom_zero(S[b], T)
        for i, f in enumerate(H):
            zc = tab.sigma_z[i][b]
            if zc.is_zero():
                continue
            # character (sigma_z s)(h0): compose sigma_z cell with ev at h0
            ev = HomCoeff(dual_factor(f), T, h0[i])
            acc = acc + compose(zc, ev)
        if not acc.is_zero():
            qS.phi1[b] = qS.phi1[b] + linear_as_quad(acc)
    epsS = LinearFnData(S, H, h0, tab.sigma_x)
    q_new, eps_new = _extract_through_section(S, Q, qpres.lift, qS, epsS)
    t = QTensorData(H, Q, eps_new, q_new, 0, Fraction(1))
    if S.finite and Kx.finite:
        t.mul_sqrt(Fraction(Kx.order, S.order))
    else:
        t.mag2 = None
    return t


def pauli_measurement(tab: StabTableau) -> QTensorData:
    """Syndrome POVM as a 3-index tensor over (out, in, syndrome)."""
    tab.validate()
    H, S = tab.H, tab.S
    if not (H.finite and S.finite):
        raise UnsupportedKernel("measurement tensor needs finite groups")
    n, m = len(H), len(S)
    Ds = dual_product(S)
    G = H * H * Ds
    E = H * S * Ds
    rows = []
    for i in range(2 * n + m):
        row = []
        for j in range(n + m + m):
            tgt = G[i]
            val = None
            if i < n:
                if j == i:
                    val = HomCoeff(E[j], tgt, 1)
                elif n <= j < n + m:
                    val = tab.sigma_x[i][j - n]
            elif i < 2 * n:
                if j == i - n:
                    val = HomCoeff(E[j], tgt, 1)
            else:
                if j == n + m + (i - 2 * n):
                    val = HomCoeff(E[j], tgt, 1)
            row.append(val if val is not None else hom_zero(E[j], tgt))
        rows.append(row)
    eps = LinearFnData(E, G, G.identity(), rows)
    q = QuadraticFnData.zero(E)
    for i, f in enumerate(H):
        for b in range(m):
            zc = tab.sigma_z[i][b]
            if zc.is_zero():
                continue
            cell = conjugate_cell(HomCoeff(f, f, 1), pairing_cell(f), zc)
            q.set_cell("phi", i, n + b, q.cell("phi", i, n + b) + cell)
    sq = _sigma_quadratic(tab) + (-tab.p)
    for b in range(m):
        q.phi1[n + b] = q.phi1[n + b] + sq.phi1[b]
    for (a, b), c in sq.phi2.items():
        q.set_cell("phi", n + a, n + b, q.cell("phi", n + a, n + b) + c)
    # syndrome phase u(s): pairing between S factor b and S* factor b
    for b in range(m):
        q.set_cell("phi", n + b, n + m + b, pairing_cell(S[b]))
    t = QTensorData(G, E, eps, q)
    t.mul_sqrt(Fraction(1, S.order * S.order))
    return reduce_full(t)


# ---------------------------------------------------------------------------
# Clifford automorphism data


@dataclass
class CliffordData:
    H: GroupProduct
    alpha: List[List[HomCoeff]]  # (H x H*) -> (H x H*) cells, 2n x 2n
    u: QuadraticFnData  # over H x H*, phi only

    def __post_init__(self):
        self.phase_space = self.H * dual_product(self.H)
        n2 = len(self.phase_space)
        assert len(self.alpha) == n2 and all(len(r) == n2 for r in self.alpha)
        assert self.u.domain == self.phase_space

    def alpha_hom(self) -> LinearFnData:
        return hom_data(self.phase_space, self.phase_space, self.alpha)

    def apply_alpha(self, xi: GroupElement) -> GroupElement:
        return self.alpha_hom()(xi)


def phase_space_omega(H: GroupProduct, x: GroupElement, y: GroupElement) -> Scalar:
    n = len(H)
    acc = 0
    for m in range(n):
        acc = acc + character_apply(H[m], x[m], y[n + m])
    return mod1(acc)


def clifford_check(c: CliffordData, tol: float = 1e-9) -> None:
    H = c.H
    P = c.phase_space
    n2 = len(P)
    n = len(H)

    def conj_cell(mid_k, mid_l, cell, i, j):
        return conjugate_cell(c.alpha[mid_k][i], cell, c.alpha[mid_l][j])

    for i in range(n2):
        for j in range(n2):
            # alpha^* omega alpha cell (i, j)
            acc = hom2_zero(P[i], P[j], T)
            for m in range(n):
                cell = pairing_cell(H[m])
                if not (c.alpha[m][i].is_zero() or c.alpha[n + m][j].is_zero()):
                    acc = acc + conj_cell(m, n + m, cell, i, j)
            # minus omega cell (i, j)
            if i < n and j == n + i:
                acc = acc + (-pairing_cell(H[i]))
            # compare with u^(2) cell (i, j)
            got = c.u.cell("phi", i, j)
            grp = got.group
            if not grp.eq(grp.normalize(acc.value), got.value):
                raise CocycleMismatch(
                    f"u^(2) cell ({i},{j}): expected {acc.value}, got {got.value}"
                )
    # symplectic condition alpha^* J alpha = J
    for i in range(n2):
        for j in range(n2):
            acc = hom2_zero(P[i], P[j], T)
            for m in range(n):
                cell = pairing_cell(H[m])
                if not (c.alpha[m][i].is_zero() or c.alpha[n + m][j].is_zero()):
                    acc = acc + conj_cell(m, n + m, cell, i, j)
                if not (c.alpha[n + m][i].is_zero() or c.alpha[m][j].is_zero()):
                    acc = acc + (-conjugate_cell(c.alpha[n + m][i],
                                                 pairing_cell(H[m]).transpose(),
                                                 c.alpha[m][j]))
            want = hom2_zero(P[i], P[j], T)
            if i < n and j == n + i:
                want = pairing_cell(H[i])
            elif j < n and i == n + j:
                want = -pairing_cell(H[j]).transpose()
            grp = acc.group
            if not grp.eq(grp.normalize(acc.value), want.value):
                raise NotSymplectic(f"alpha^*Jalpha != J at cell ({i},{j})")


def clifford_identity(H: GroupProduct) -> CliffordData:
    P = H * dual_product(H)
    n2 = len(P)
    alpha = [[HomCoeff(P[j], P[i], 1) if i == j else hom_zero(P[j], P[i])
              for j in range(n2)] for i in range(n2)]
    return CliffordData(H, alpha, QuadraticFnData.zero(P))


def clifford_compose(cp: CliffordData, c: CliffordData) -> CliffordData:
    """Data of the product: apply ``c`` first, then ``cp``."""
    assert cp.H == c.H
    P = c.phase_space
    n2 = len(P)
    alpha = [
        [
            _sum_cells(P[j], P[i],
                       [compose(c.alpha[k][j], cp.alpha[i][k]) for k in range(n2)])
            for j in range(n2)
        ]
        for i in range(n2)
    ]
    u = c.u + cp.u.precompose(c.alpha_hom())
    out = CliffordData(c.H, alpha, u)
    clifford_check(out)
    return out


def _sum_cells(src, tgt, cells):
    acc = hom_zero(src, tgt)
    for x in cells:
        acc = acc + x
    return acc


def clifford_to_tensor(c: CliffordData) -> QTensorData:
    """The Clifford unitary as a tensor over (out, in), unit-normalized."""
    clifford_check(c)
    H = c.H
    n = len(H)
    D = dual_product(H)
    n2 = 2 * n
    # internal complete tableau over H_code = H(out) x H(in):
    #   sigma_x = (1 0; a_xx a_xz), sigma_z = (0 -1; a_zx a_zz), p = u
    S = c.phase_space
    Hc = H * H  # (in, out) ordering per the defining derivation
    sx = [[HomCoeff(S[j], Hc[i], 1) if j == i else hom_zero(S[j], Hc[i])
           for j in range(n2)] for i in range(n)]
    sx += [[c.alpha[i - n][j] for j in range(n2)] for i in range(n, 2 * n)]
    sz = [[-HomCoeff(S[j], dual_factor(Hc[i]), 1) if j == n + i
           else hom_zero(S[j], dual_factor(Hc[i])) for j in range(n2)]
          for i in range(n)]
    sz += [[c.alpha[n + (i - n)][j] for j in range(n2)] for i in range(n, 2 * n)]
    tab = StabTableau(Hc, S, sx, sz, c.u)
    state = stab_state(tab)
    # reorder (in, out) -> (out, in)
    state = _swap_blocks(state, n)
    if H.finite:
        # the Choi state has unit norm; the unitary has Frobenius norm^2 |H|
        state.mul_sqrt(Fraction(H.order))
    return state


def _swap_blocks(t: QTensorData, n: int) -> QTensorData:
    perm = list(range(n, 2 * n)) + list(range(n))
    G = GroupProduct([t.G[p] for p in perm])
    eps = LinearFnData(t.E, G, tuple(t.eps.eps0[p] for p in perm),
                       [t.eps.eps1[p] for p in perm])
    return QTensorData(G, t.E, eps, t.q, t.div_weight, t.mag2, t.is_zero)


# ---------------------------------------------------------------------------
# continuous-variable constructors


def displacement(x: Sequence[float], p: Sequence[float]) -> PauliLabel:
    n = len(x)
    H = GroupProduct([R] * n)
    hstar = [pi_inv_scale(pv) for pv in p]
    alpha = mod1(-_dotscalar(p, x) / (4 * math.pi))
    return PauliLabel(H, tuple(x), hstar, alpha)


def pi_inv_scale(pv):
    if is_exact(pv):
        return Fraction(pv) / (2 * math.pi)
    return float(pv) / (2 * math.pi)


def _dotscalar(a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def gaussian_clifford(L: np.ndarray, d: Optional[Sequence[float]] = None) -> CliffordData:
    """Clifford data of the Gaussian unitary with quadrature action L, d.

    ``L`` is a real symplectic 2n x 2n matrix in (x..., p...) block order.
    """
    L = np.asarray(L, dtype=float)
    n2 = L.shape[0]
    n = n2 // 2
    Jt = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    if np.max(np.abs(L.T @ Jt @ L - Jt)) > 1e-9:
        raise NotSymplectic("L^T J L != J")
    d = np.zeros(n2) if d is None else np.asarray(d, dtype=float)
    pi_m = np.diag([1.0] * n + [2 * math.pi] * n)
    pi_inv = np.diag([1.0] * n + [1 / (2 * math.pi)] * n)
    Lpi_inv = pi_inv @ np.linalg.inv(L) @ pi_m
    H = GroupProduct([R] * n)
    P = H * dual_product(H)
    alpha = [[HomCoeff(P[j], P[i], float(Lpi_inv[i, j])) if abs(Lpi_inv[i, j]) > 1e-14
              else hom_zero(P[j], P[i]) for j in range(n2)] for i in range(n2)]
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    W = Lpi_inv.T @ omega_t @ Lpi_inv - omega_t
    assert np.max(np.abs(W - W.T)) < 1e-9, "u^(2) matrix must be symmetric"
    u = QuadraticFnData.zero(P)
    lin = d @ pi_inv @ Jt
    for i in range(n2):
        h2 = W[i, i]
        h1 = lin[i]
        if abs(h2) > 1e-14 or abs(h1) > 1e-14:
            u.phi1[i] = QuadCoeff(P[i], T, h2, h1)
        for j in range(i + 1, n2):
            if abs(W[i, j]) > 1e-14:
                u.set_cell("phi", i, j, Hom2Coeff(P[i], P[j], T, W[i, j]))
    c = CliffordData(H, alpha, u)
    clifford_check(c)
    return c


def gkp_tableau(L: np.ndarray) -> StabTableau:
    """GKP stabilizer tableau over H = R^n from a lattice basis.

    The displacement lattice must satisfy L^T J L in 2 pi Z (the scaled
    convention, e.g. L = sqrt(2 pi) M with M integer symplectic); this is
    exactly what makes the tableau condition close mod 1.
    """
    L = np.asarray(L, dtype=float)
    n2 = L.shape[0]
    n = n2 // 2
    Jt = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    gram = L.T @ Jt @ L / (2 * math.pi)
    if np.max(np.abs(gram - np.round(gram))) > 1e-9:
        raise NotSymplectic("L^T J L is not an integer multiple of 2 pi")
    H = GroupProduct([R] * n)
    S = GroupProduct([Z] * n2)
    sx = [[HomCoeff(Z, R, float(L[i, j])) if abs(L[i, j]) > 1e-14 else hom_zero(Z, R)
           for j in range(n2)] for i in range(n)]
    sz = [[HomCoeff(Z, R, float(L[n + i, j]) / (2 * math.pi))
           if abs(L[n + i, j]) > 1e-14 else hom_zero(Z, R)
           for j in range(n2)] for i in range(n)]
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    M = L.T @ omega_t @ L / (2 * math.pi)
    p = QuadraticFnData.zero(S)
    for a in range(n2):
        if abs(M[a, a]) > 1e-14:
            p.phi1[a] = QuadCoeff(Z, T, mod1(M[a, a] / 2), 0)
        for b in range(a + 1, n2):
            val = mod1(M[a, b])
            if not scalar_eq(val, 0) and not scalar_eq(val, 1.0):
                p.set_cell("phi", a, b, Hom2Coeff(Z, Z, T, val))
    tab = StabTableau(H, S, sx, sz, p)
    tab.validate()
    return tab


def gkp_state_data(L: np.ndarray) -> QTensorData:
    """Code-state data of a GKP code with trivial kernel(L_x)."""
    L = np.asarray(L, dtype=float)
    n2 = L.shape[0]
    n = n2 // 2
    H = GroupProduct([R] * n)
    E = GroupProduct([Z] * n2)
    cells = [[HomCoeff(Z, R, float(L[i, j])) if abs(L[i, j]) > 1e-14 else hom_zero(Z, R)
              for j in range(n2)] for i in range(n)]
    eps = LinearFnData(E, H, H.identity(), cells)
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    M = L.T @ omega_t @ L / (2 * math.pi)
    q = QuadraticFnData.zero(E)
    for a in range(n2):
        if abs(M[a, a]) > 1e-14:
            q.phi1[a] = QuadCoeff(Z, T, mod1(M[a, a] / 2), 0)
        for b in range(a + 1, n2):
            val = mod1(M[a, b])
            if not scalar_eq(val, 0) and not scalar_eq(val, 1.0):
                q.set_cell("phi", a, b, Hom2Coeff(Z, Z, T, val))
    return QTensorData(H, E, eps, q, 0, None)


def approx_gkp_state(a: float, b: float) -> QTensorData:
    """Approximate single-mode square-lattice GKP state."""
    G = GroupProduct([R])
    E = GroupProduct([R, Z])
    eps = LinearFnData(E, G, G.identity(),
                       [[HomCoeff(R, R, 1), hom_zero(Z, R)]])
    q = QuadraticFnData.zero(E)
    q.a1[0] = QuadCoeff(R, R, -a - b, 0)
    q.a1[1] = QuadCoeff(Z, R, -a, 0)
    q.set_cell("a", 0, 1, Hom2Coeff(R, Z, R, a))
    return QTensorData(G, E, eps, q, 0, None)


def rotor_tableau(Hx: np.ndarray, Hz: np.ndarray, h_xz=None) -> StabTableau:
    """Rotor code tableau over H = T^n: S = T^k x Z^l."""
    Hx = np.asarray(Hx, dtype=int) if np.size(Hx) else np.zeros((0, 0), dtype=int)
    Hz = np.asarray(Hz, dtype=int) if np.size(Hz) else np.zeros((0, 0), dtype=int)
    n = Hx.shape[0] if Hx.size else (Hz.shape[0] if Hz.size else 0)
    k = Hx.shape[1] if Hx.size else 0
    l = Hz.shape[1] if Hz.size else 0
    if h_xz is None:
        h_xz = [[Fraction(0)] * l for _ in range(n)]
    H = GroupProduct([T] * n)
    S = GroupProduct([T] * k + [Z] * l)
    if k and l:
        prod = Hx.T @ Hz
        if np.any(prod):
            raise ConditionViolation("H_x^T H_z != 0")
    # symmetry of h_xz^T H_z mod 1
    for a in range(l):
        for b in range(l):
            va = sum(Fraction(h_xz[i][a]) * int(Hz[i][b]) for i in range(n))
            vb = sum(Fraction(h_xz[i][b]) * int(Hz[i][a]) for i in range(n))
            if mod1(va - vb) != 0:
                raise ConditionViolation("h_xz^T H_z is not symmetric mod 1")
    sx = [[HomCoeff(T, T, int(Hx[i, a])) if a < k and Hx.size else
           (HomCoeff(Z, T, h_xz[i][a - k]) if a >= k else hom_zero(S[a], T))
           for a in range(k + l)] for i in range(n)]
    sz = [[hom_zero(S[a], Z) if a < k else HomCoeff(Z, Z, int(Hz[i, a - k]))
           for a in range(k + l)] for i in range(n)]
    p = QuadraticFnData.zero(S)
    for a in range(l):
        v = sum(Fraction(h_xz[i][a]) * int(Hz[i][a]) for i in range(n))
        if mod1(v) != 0:
            p.phi1[k + a] = QuadCoeff(Z, T, mod1(Fraction(v) / 2), 0)
        for b in range(a + 1, l):
            v = sum(Fraction(h_xz[i][a]) * int(Hz[i][b]) for i in range(n))
            vb = sum(Fraction(h_xz[i][b]) * int(Hz[i][a]) for i in range(n))
            if mod1(v + vb) != 0:
                p.set_cell("phi", k + a, k + b, Hom2Coeff(Z, Z, T, mod1(v)))
    tab = StabTableau(H, S, sx, sz, p)
    tab.validate()
    return tab
