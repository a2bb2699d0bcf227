"""Generalized Pauli operators, stabilizer tableaux, code states and
projectors, Pauli measurements, and Clifford automorphism data over
arbitrary products of elementary abelian groups, all realized as
quadratic tensor data.

The dual H* of an index group is materialized factorwise (Z_k <-> Z_k,
R <-> R, T <-> Z, Z <-> T).  Every phase here is one quadratic function
pulled back: the canonical pairing Omega(h, h*) = h*(h) on the phase
space H x H*, whose only cells pair H_i with H_i*, built once per H.  A
tableau holds its map sigma = (sigma_x; sigma_z): S -> H x H*, built
once.  Its pairing (sigma_z s')(sigma_x s) is the cross block of Omega
pulled back along sigma_x x sigma_z on S x S; the code state's phase is
Omega o (sigma + (h0, 0)) - p, and the projector's is
Omega(h + sigma_x s, sigma_z s) - p(s).  A Pauli operator's phase is
Omega(h + h_shift, h*) and the symplectic form of the phase space is Omega
itself.  Code states (and through them Clifford unitaries) come in closed
form straight from the tableau for every index group; projectors and
measurements assemble the unreduced tensor data and normalize through the
generic reductions.

Each object has one condition, checked once.  A tableau's is
p^(2) = sigma_z^* J sigma_x: the pairing block is compared with the cells
of p^(2), each within its group's tolerance.  p^(2) is symmetric, so the
condition already gives sigma^* J sigma = 0.  Clifford data (alpha, u) is
checked as its Choi tableau, whose pairing is alpha^* omega alpha - omega
and whose code state is the unitary; the same symmetry gives
alpha^* J alpha = J, so a non-symplectic alpha is a CocycleMismatch.
Qubit tableaux are read from Pauli strings: an optional sign + or -, then
one letter of IXYZ per qubit, all strings of one length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coeff import (Hom2Coeff, HomCoeff, QuadCoeff, cell_group, cell_of_value, hom_of_image,
                    hom_zero, value_is_zero)
from .engine import QTensorData, _extract_through_section, permute_legs, reduce_full, tensor_product
from .errors import InvalidInput
from .functions import LinearFnData, QuadraticFnData, hom_data
from .groups import GroupElement, GroupProduct, R, T, Z, Zk
from .scalar import Scalar, is_exact, mod1, scalar_eq
from .solve import UnsupportedKernel, kernel_of_hom, quotient_by_subgroup, solve_hom


class OrthogonalityViolation(InvalidInput):
    pass


class NotSymplectic(InvalidInput):
    pass


class CocycleMismatch(InvalidInput):
    pass


class UnsolvableOffset(InvalidInput):
    pass


class ConditionViolation(InvalidInput):
    pass


class SpaceMismatch(InvalidInput):
    """Clifford data on different Hilbert spaces."""


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


@functools.lru_cache(maxsize=None)
def _omega(H: GroupProduct) -> QuadraticFnData:
    """The pairing Omega(h, h*) = h*(h) on H x H*: one cell per pair
    (H_i, H_i*).  It is shared, so it is only ever read."""
    n = len(H)
    om = QuadraticFnData.zero(H * dual_product(H))
    for i, f in enumerate(H):
        om.set_cell("phi", i, n + i, Hom2Coeff(f, dual_factor(f), T, 1))
    return om


def _block(*rows: Sequence[LinearFnData]) -> LinearFnData:
    """The homomorphism whose block (r, c) is rows[r][c]: it maps the c-th
    part of the domain into the r-th part of the codomain."""
    dom = GroupProduct([f for g in rows[0] for f in g.domain])
    cod = GroupProduct([f for row in rows for f in row[0].codomain])
    img = [sum((g.img[i] for g in row), []) for row in rows for i in range(len(row[0].codomain))]
    return LinearFnData.of_images(dom, cod, cod.identity(), img)


_one, _zero = LinearFnData.identity, LinearFnData.zero


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
    entry at (e + h, e) carries the phase alpha + Omega(e + h, h')."""
    H = p.H
    G = H * H  # (output, input)
    eps = LinearFnData.of_images(H, G, G.element(list(p.h) + [0] * len(H)),
                                 _block([_one(H)], [_one(H)]).img)
    om = _omega(H).copy()
    om.phi0 = p.alpha
    q = om.precompose_affine(_block([_one(H)], [_zero(H, dual_product(H))]),
                             p.h + tuple(p.hstar))
    q.a0 = 0  # Omega has no a part, though its value at a float point has a0 = 0.0
    return QTensorData(G, H, eps, q)


def pauli_rep_tensor(H: GroupProduct) -> QTensorData:
    """All Pauli operators as one tensor over (out, in, h, h*): the entry at
    (e + h, e, h, h*) carries the phase Omega(e + h, h*)."""
    D = dual_product(H)
    one, zh, zd = _one(H), _zero(H, H), _zero(D, H)
    dual = [_zero(H, D), _zero(H, D), _one(D)]
    eps = _block([one, one, zd], [one, zh, zd], [zh, one, zd], dual)
    q = _omega(H).precompose(_block([one, one, zd], dual))
    return QTensorData(H * H * H * D, H * H * D, eps, q)


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

    @functools.cached_property
    def maps(self) -> Tuple[LinearFnData, LinearFnData, LinearFnData]:
        """sigma_x: S -> H, sigma_z: S -> H* and sigma = (sigma_x; sigma_z),
        built from the cells on first use."""
        sx = hom_data(self.S, self.H, self.sigma_x)
        sz = hom_data(self.S, dual_product(self.H), self.sigma_z)
        return sx, sz, _block([sx], [sz])

    def validate(self) -> None:
        """Check the tableau condition and that sigma is injective."""
        self._condition(ConditionViolation, "tableau condition")
        self._check_injective()

    def _condition(self, error, what: str) -> None:
        """Compare each cell (a, b) of p^(2) with the pairing
        (sigma_z s_b)(sigma_x s_a), the cross block of Omega pulled back
        along sigma_x x sigma_z on S x S, within the cell's tolerance.

        p^(2) is symmetric: its cell (b, a) is the transpose of its cell
        (a, b), over the same group.  So the condition at (a, b) and at
        (b, a) already makes the pairing symmetric, sigma^* J sigma = 0.
        """
        S, m = self.S, len(self.S)
        sx, sz, _ = self.maps
        H, D = sx.codomain, sz.codomain
        pair = _omega(H).precompose(_block([sx, _zero(S, H)], [_zero(S, D), sz])).mat["phi"]
        for a in range(m):
            for b in range(m):
                got, want = self.p.mat["phi"][a][b], pair[a][m + b]
                if not cell_group(S[a], S[b], T).eq(got, want):
                    got, want = (cell_of_value(S[a], S[b], T, v).value for v in (got, want))
                    raise error(f"{what} fails at cell ({a},{b}): {got} != {want}")

    def _check_injective(self) -> None:
        try:
            pres = kernel_of_hom(self.maps[2])
        except UnsupportedKernel:
            return  # injectivity not checkable in this class; constructions guard
        if len(pres.group) and any(
            f.kind != "Zk" or f.k > 1 for f in pres.group
        ):
            raise ConditionViolation("sigma is not injective")


def qubit_tableau(strings: Sequence[str]) -> StabTableau:
    """Tableau from signed qubit Pauli strings like "+XZZXI" or "-Y".

    Each string is an optional sign + or - and then one letter I, X, Y or Z
    per qubit; there is at least one string, and all have the same length.
    The diagonal of p is fixed so that the stabilizer representation sends
    each generator to exactly the signed string operator (with Y = i XZ).
    """
    gens = []
    for s in strings:
        sign, body = (s[0], s[1:]) if s[:1] in ("+", "-") else ("+", s)
        if not body or body.strip("IXYZ"):
            raise ConditionViolation(f"{s!r} is not a signed Pauli string over IXYZ")
        gens.append((-1 if sign == "-" else 1, body))
    if len({len(body) for _, body in gens}) != 1:
        raise ConditionViolation("need one or more Pauli strings of equal length")
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
    # the pairing vanishes off the (Sx, Sz) block, so with p = 0 the tableau
    # condition is the orthogonality sigma_z^* sigma_x = 0
    tab._condition(OrthogonalityViolation, "orthogonality sigma_z^* sigma_x = 0")
    tab._check_injective()
    return tab


def _unreduced_projector(tab: StabTableau) -> QTensorData:
    """Projector data before reduction: E = H x S, entries from R(s).

    <h_o| R(s) |h_i> = e^{2 pi i (Omega(h_i + sigma_x s, sigma_z s) - p(s))}
    at h_o = h_i + sigma_x s.
    """
    H, S = tab.H, tab.S
    if not S.finite:
        raise UnsupportedKernel("projector needs a finite stabilizer group")
    sx, sz, _ = tab.maps
    top = [_one(H), sx]
    eps = _block(top, [_one(H), _zero(S, H)])
    q = (_omega(H).precompose(_block(top, [_zero(H, sz.codomain), sz]))
         - QuadraticFnData.zero(H).direct_sum(tab.p))
    t = QTensorData(H * H, H * S, eps, q)  # G = (out, in)
    t.mul_sqrt(Fraction(1, S.order * S.order))
    return t


def stab_projector(tab: StabTableau) -> QTensorData:
    tab.validate()
    return reduce_full(_unreduced_projector(tab))


def stab_state(tab: StabTableau) -> QTensorData:
    """A code state of the tableau, built in closed form from (sigma_x, sigma_z, p).

    With K_x = ker(sigma_x) and h0 solving kappa_x^* sigma_z^* h0 = p o kappa_x,
    the state lives on E = S / K_x with eps(s) = h0 + sigma_x s and
    q(s) = Omega(sigma_x s + h0, sigma_z s) - p(s)
         = (sigma_z s)(h0) + (sigma_z s)(sigma_x s) - p(s).  The cost is
    polynomial in the number of factors.  eps is injective, so for finite
    groups the state has unit norm with exact mag2 = |K_x| / |S|, and its
    amplitude at eps0 = h0 is real and positive.  A complete tableau fixes
    the state up to a global phase; an incomplete one yields a unit code
    state, one among many.
    """
    tab.validate()
    return _code_state(tab)


def _code_state(tab: StabTableau) -> QTensorData:
    """stab_state of a tableau whose condition holds and whose sigma is
    injective."""
    H, S = tab.H, tab.S
    sx, sz, sigma = tab.maps
    pres = kernel_of_hom(sx)
    Kx, kx = pres.group, pres.inclusion
    h0 = H.identity()
    if len(Kx):
        # kappa_x^* sigma_z^* h0 is the pairing of H with K_x, curried: the
        # cross cells of Omega pulled back along 1_H x sigma_z kappa_x
        n, D = len(H), sz.codomain
        pair = _omega(H).precompose(_block([_one(H), _zero(Kx, H)],
                                           [_zero(H, D), sz.compose_hom(kx)]))
        M = hom_data(H, dual_product(Kx), [[pair.cell("phi", i, n + c).as_outer_hom()
                                            for i in range(n)] for c in range(len(Kx))])
        pkx = tab.p.precompose(kx)
        if not all(value_is_zero(cell_group(f, f, T), pkx.mat["phi"][c][c])
                   for c, f in enumerate(Kx)):
            raise ConditionViolation("p restricted to kernel(sigma_x) is not linear")
        h0 = solve_hom(M, tuple(hom_of_image(f, T, v).value
                                for f, v in zip(Kx, pkx.vec["phi"])))
        if h0 is None:
            raise UnsolvableOffset("no h0 solves kappa_x^* sigma_z^* h0 = p o kappa_x")
        h0 = H.element(h0)
    qpres = quotient_by_subgroup(S, kx)
    qS = _omega(H).precompose_affine(sigma, h0 + sz.codomain.identity()) - tab.p
    epsS = LinearFnData.of_images(S, H, h0, sx.img)
    q_new, eps_new = _extract_through_section(S, qpres.group, qpres.lift, qS, epsS)
    t = QTensorData(H, qpres.group, eps_new, q_new, 0, Fraction(1))
    if S.finite and Kx.finite:
        t.mul_sqrt(Fraction(Kx.order, S.order))
    else:
        t.mag2 = None
    return t


def pauli_measurement(tab: StabTableau) -> QTensorData:
    """Syndrome POVM as a 3-index tensor over (out, in, syndrome): the
    unreduced projector data times the identity on S*, with the syndrome
    phase u(s) pairing each S factor with its dual."""
    tab.validate()
    H, S = tab.H, tab.S
    if not (H.finite and S.finite):
        raise UnsupportedKernel("measurement tensor needs finite groups")
    n, m = len(H), len(S)
    Ds = dual_product(S)
    t = tensor_product(_unreduced_projector(tab),
                       QTensorData(Ds, Ds, _one(Ds), QuadraticFnData.zero(Ds)))
    pair = _omega(S).mat["phi"]
    for b in range(m):
        t.q.add_to_cell("phi", n + b, n + m + b, pair[b][m + b])
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


def clifford_data(H: GroupProduct, rows, terms=(), cells=()) -> CliffordData:
    """Clifford data on H with integer alpha rows over H x H*, the quadratic
    terms (i, h2) of u and its bilinear cells (i, j, value), i < j."""
    P = H * dual_product(H)
    alpha = [[HomCoeff(P[j], P[i], v) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    u = QuadraticFnData.zero(P)
    for i, h2 in terms:
        u.phi1[i] = QuadCoeff(P[i], T, h2, 0)
    for i, j, v in cells:
        u.set_cell("phi", i, j, Hom2Coeff(P[i], P[j], T, v))
    return CliffordData(H, alpha, u)


# the named qubit gates: alpha rows, u terms and u cells
QUBIT_GATES: Dict[str, tuple] = {
    "I": ([[1, 0], [0, 1]], (), ()),
    "H": ([[0, 1], [1, 0]], (), [(0, 1, 1)]),
    "S": ([[1, 0], [1, 1]], [(0, 1)], ()),
    "CX": ([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], (), ()),
    "CZ": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]], (), [(0, 1, 1)]),
}


def qubit_clifford(name: str) -> CliffordData:
    """Clifford data of a named qubit gate in ``QUBIT_GATES``: I, H or S on
    one qubit, CX or CZ on two."""
    rows = QUBIT_GATES[name][0]
    return clifford_data(GroupProduct([Zk(2)] * (len(rows) // 2)), *QUBIT_GATES[name])


def phase_space_omega(H: GroupProduct, x: GroupElement, y: GroupElement) -> Scalar:
    """Omega(x_h, y_h*): the h* part of y paired with the h part of x."""
    n = len(H)
    return _omega(H).eval(tuple(x[:n]) + tuple(y[n:]))[1]


def _choi_tableau(c: CliffordData) -> StabTableau:
    """The complete tableau over H(in) x H(out) whose code state is the Choi
    state of ``c``, with its condition checked against u^(2).

    S is the phase space, sigma_x = (1 0; alpha_x), sigma_z = (0 -1; alpha_z)
    and p = u.  The pairing is then alpha^* omega alpha - omega, so the
    tableau condition is the Clifford condition.  As u^(2) is symmetric, it
    also gives alpha^* J alpha = J: a non-symplectic alpha fails it too.
    """
    H = c.H
    n = len(H)
    S = c.phase_space
    Hc = H * H  # (in, out) ordering per the defining derivation
    sx = [[HomCoeff(S[j], Hc[i], 1) if j == i else hom_zero(S[j], Hc[i])
           for j in range(2 * n)] for i in range(n)] + c.alpha[:n]
    sz = [[-HomCoeff(S[j], dual_factor(Hc[i]), 1) if j == n + i
           else hom_zero(S[j], dual_factor(Hc[i])) for j in range(2 * n)]
          for i in range(n)] + c.alpha[n:]
    tab = StabTableau(Hc, S, sx, sz, c.u)
    tab._condition(CocycleMismatch, "u^(2) = alpha^* omega alpha - omega")
    return tab


def clifford_check(c: CliffordData) -> None:
    """Raise CocycleMismatch unless u^(2) = alpha^* omega alpha - omega."""
    _choi_tableau(c)


def clifford_identity(H: GroupProduct) -> CliffordData:
    P = H * dual_product(H)
    n2 = len(P)
    alpha = [[HomCoeff(P[j], P[i], 1) if i == j else hom_zero(P[j], P[i])
              for j in range(n2)] for i in range(n2)]
    return CliffordData(H, alpha, QuadraticFnData.zero(P))


def clifford_compose(cp: CliffordData, c: CliffordData) -> CliffordData:
    """Data of the product: apply ``c`` first, then ``cp``."""
    if cp.H != c.H:
        raise SpaceMismatch(f"cannot compose Clifford data on {c.H} and {cp.H}")
    a = c.alpha_hom()
    alpha = cp.alpha_hom().compose_hom(a)
    out = CliffordData(c.H, [list(row) for row in alpha.eps1], c.u + cp.u.precompose(a))
    clifford_check(out)
    return out


def clifford_to_tensor(c: CliffordData) -> QTensorData:
    """The Clifford unitary as a tensor over (out, in), unit-normalized."""
    # the Choi tableau's condition is the Clifford condition, checked here;
    # its sigma holds (s_x, -s_z) as rows, so it is injective
    state = _code_state(_choi_tableau(c))
    H = c.H
    n = len(H)
    # reorder (in, out) -> (out, in)
    state = permute_legs(state, list(range(n, 2 * n)) + list(range(n)))
    if H.finite:
        # the Choi state has unit norm; the unitary has Frobenius norm^2 |H|
        state.mul_sqrt(Fraction(H.order))
    return state


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


def _gkp_data(L: np.ndarray):
    """(n, sigma_x cells, p) of a GKP lattice basis L over S = Z^2n:
    sigma_x = L_x as Z -> R cells and p(s) = (L_z s)(L_x s) / 2 pi, whose
    matrix M = L^T omega L / 2 pi gives h2 = M_aa / 2 and the cells M_ab."""
    n2 = L.shape[0]
    n = n2 // 2
    sx = [[HomCoeff(Z, R, float(L[i, j])) if abs(L[i, j]) > 1e-14 else hom_zero(Z, R)
           for j in range(n2)] for i in range(n)]
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    M = L.T @ omega_t @ L / (2 * math.pi)
    p = QuadraticFnData.zero(GroupProduct([Z] * n2))
    for a in range(n2):
        if abs(M[a, a]) > 1e-14:
            p.phi1[a] = QuadCoeff(Z, T, mod1(M[a, a] / 2), 0)
        for b in range(a + 1, n2):
            val = mod1(M[a, b])
            if not scalar_eq(val, 0) and not scalar_eq(val, 1.0):
                p.set_cell("phi", a, b, Hom2Coeff(Z, Z, T, val))
    return n, sx, p


def gkp_tableau(L: np.ndarray) -> StabTableau:
    """GKP stabilizer tableau over H = R^n from a lattice basis.

    The displacement lattice must satisfy L^T J L in 2 pi Z (the scaled
    convention, e.g. L = sqrt(2 pi) M with M integer symplectic); this is
    exactly what makes the tableau condition close mod 1.
    """
    L = np.asarray(L, dtype=float)
    n, sx, p = _gkp_data(L)
    Jt = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    gram = L.T @ Jt @ L / (2 * math.pi)
    if np.max(np.abs(gram - np.round(gram))) > 1e-9:
        raise NotSymplectic("L^T J L is not an integer multiple of 2 pi")
    sz = [[HomCoeff(Z, R, float(L[n + i, j]) / (2 * math.pi))
           if abs(L[n + i, j]) > 1e-14 else hom_zero(Z, R)
           for j in range(2 * n)] for i in range(n)]
    tab = StabTableau(GroupProduct([R] * n), p.domain, sx, sz, p)
    tab.validate()
    return tab


def gkp_state_data(L: np.ndarray) -> QTensorData:
    """Code-state data of a GKP code with trivial kernel(L_x)."""
    n, sx, p = _gkp_data(np.asarray(L, dtype=float))
    H = GroupProduct([R] * n)
    return QTensorData(H, p.domain, LinearFnData(p.domain, H, H.identity(), sx), p, 0, None)


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
