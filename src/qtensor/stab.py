"""Generalized Pauli operators, stabilizer tableaux, code states and
projectors, Pauli measurements, and Clifford automorphism data over
arbitrary products of elementary abelian groups, all realized as
quadratic tensor data.

The dual H* of an index group is materialized factorwise (Z_k <-> Z_k,
R <-> R, T <-> Z, Z <-> T).  A tableau holds its maps sigma_x: S -> H and
sigma_z: S -> H*, and Clifford data their map alpha on H x H*, each as one
``LinearFnData`` matrix of generator images; p and u hold values.  Every
constructor writes these directly; coefficient cells appear only where
``jsonio`` reads and writes JSON.  Every phase here is one quadratic
function pulled back: the canonical pairing Omega(h, h*) = h*(h) on the
phase space H x H*, built once per H.  A tableau's pairing
(sigma_z s')(sigma_x s) is the cross block of Omega pulled back along
sigma_x x sigma_z on S x S; the code state's phase is
Omega o (sigma + (h0, 0)) - p with sigma = (sigma_x; sigma_z), and the
projector's is Omega(h + sigma_x s, sigma_z s) - p(s).  A Pauli
operator's phase is Omega(h + h_shift, h*) and the symplectic form of the
phase space is Omega itself.  Code states (and through them Clifford
unitaries) come in closed form straight from the tableau for every index
group; projectors and measurements assemble the unreduced tensor data and
normalize through the generic reductions.

Each object has one condition, checked once.  A tableau's is
p^(2) = sigma_z^* J sigma_x: the pairing block is compared with the
bilinear values of p, each within its group's tolerance.  p^(2) is
symmetric, so the condition already gives sigma^* J sigma = 0.  Clifford
data (alpha, u) is checked as its Choi tableau, whose pairing is
alpha^* omega alpha - omega and whose code state is the unitary, where it
becomes a tensor or is composed; the same symmetry gives
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

from .coeff import cell_group, hom_group, image_group, value_is_zero
from .engine import (QTensorData, _dual_coefficient, _quotient, permute_legs, reduce_full,
                     tensor_product)
from .errors import InvalidInput
from .functions import LinearFnData, QuadraticFnData
from .groups import GroupElement, GroupProduct, R, T, Z, Zk
from .scalar import TOL, Scalar, is_exact, mod1, scalar_eq
from .solve import UnsupportedKernel, kernel_of_hom, solve_hom


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


def dual_product(H: GroupProduct) -> GroupProduct:
    """H*, whose factors hom[H_i|T] are Z_k, T, Z and R for Z_k, Z, T and R."""
    return GroupProduct([hom_group(f, T) for f in H])


@functools.lru_cache(maxsize=None)
def _omega(H: GroupProduct) -> QuadraticFnData:
    """The pairing Omega(h, h*) = h*(h) on H x H*: one bilinear value per
    pair (H_i, H_i*), B(1, 1) = 1/k on Z_k and the multiplier 1 otherwise.
    It is shared, so it is only ever read."""
    n = len(H)
    om = QuadraticFnData.zero(H * dual_product(H))
    for i, f in enumerate(H):
        om.add_to_cell("phi", i, n + i, Fraction(1, f.k) if f.kind == "Zk" else 1)
    return om


def _of_entries(domain: GroupProduct, codomain: GroupProduct, rows) -> LinearFnData:
    """The homomorphism with matrix entries ``rows`` (``coeff.image_group``),
    one row per codomain factor, each entry normalized in its group."""
    return LinearFnData.of_images(domain, codomain, codomain.identity(),
                                  [[image_group(Dj, Ci).normalize(v) for Dj, v in zip(domain, row)]
                                   for Ci, row in zip(codomain, rows)])


def _zk_term(k: int, h2: int) -> Tuple[Fraction, Fraction]:
    """The values (q(1), B(1, 1)) of the quadratic term of Z_k into T with
    coefficient h2: q(x) = h2 x^2 / 2k for even k, (h2 / 2 mod k) x^2 / k
    for odd k."""
    v = mod1(Fraction(h2 * (k + 1 if k % 2 else 1), 2 * k))
    return v, mod1(2 * v)


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
    sigma_x: LinearFnData  # S -> H
    sigma_z: LinearFnData  # S -> H* (dual coordinates)
    p: QuadraticFnData  # over S, phi part only

    def __post_init__(self):
        sx, sz = self.sigma_x, self.sigma_z
        assert (sx.domain, sx.codomain) == (self.S, self.H)
        assert (sz.domain, sz.codomain) == (self.S, dual_product(self.H))
        assert self.p.domain == self.S

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
        S, m, H, D = self.S, len(self.S), self.H, self.sigma_z.codomain
        pair = _omega(H).precompose(_block([self.sigma_x, _zero(S, H)],
                                           [_zero(S, D), self.sigma_z])).mat["phi"]
        for a in range(m):
            for b in range(m):
                got, want = self.p.mat["phi"][a][b], pair[a][m + b]
                if not cell_group(S[a], S[b], T).eq(got, want):
                    raise error(f"{what} fails at cell ({a},{b}): {got} != {want}")

    def _check_injective(self) -> None:
        try:
            pres = kernel_of_hom(_block([self.sigma_x], [self.sigma_z]))
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
    sx = LinearFnData.of_images(S, H, H.identity(), [list(col) for col in zip(*xbits)])
    sz = LinearFnData.of_images(S, H, H.identity(), [list(col) for col in zip(*zbits)])
    p = QuadraticFnData.zero(S)
    vec, mat = p.vec["phi"], p.mat["phi"]
    for a, (sign, body) in enumerate(gens):
        sa = 1 if sign < 0 else 0
        vec[a], mat[a][a] = _zk_term(2, body.count("Y") + 2 * sa)
    for a in range(m):
        for b in range(a + 1, m):
            val = sum(xbits[a][i] * zbits[b][i] for i in range(n)) % 2
            if val:
                p.add_to_cell("phi", a, b, Fraction(val, 2))
    tab = StabTableau(H, S, sx, sz, p)
    tab.validate()
    return tab


def css_tableau(sigma_x: LinearFnData, sigma_z: LinearFnData) -> StabTableau:
    """CSS tableau from sigma_x: Sx -> H and sigma_z: Sz -> H*: S = Sx x Sz,
    block-diagonal sigma, p = 0."""
    Sx, Sz, H, D = sigma_x.domain, sigma_z.domain, sigma_x.codomain, sigma_z.codomain
    S = Sx * Sz
    tab = StabTableau(H, S, _block([sigma_x, _zero(Sz, H)]), _block([_zero(Sx, D), sigma_z]),
                      QuadraticFnData.zero(S))
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
    sx, sz = tab.sigma_x, tab.sigma_z
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
    sx, sz = tab.sigma_x, tab.sigma_z
    pres = kernel_of_hom(sx)
    Kx, kx = pres.group, pres.inclusion
    h0 = H.identity()
    if len(Kx):
        # kappa_x^* sigma_z^* h0 is the pairing of H with K_x, curried: the
        # cross values of Omega pulled back along 1_H x sigma_z kappa_x, each
        # read as the character of K_x it gives at a generator of H
        n, D, Kd = len(H), sz.codomain, dual_product(Kx)
        pair = _omega(H).precompose(_block([_one(H), _zero(Kx, H)],
                                           [_zero(H, D), sz.compose_hom(kx)])).mat["phi"]
        M = LinearFnData.of_images(H, Kd, Kd.identity(), [
            [image_group(Hi, Kd[c]).normalize(_dual_coefficient(f, pair[i][n + c]))
             for i, Hi in enumerate(H)] for c, f in enumerate(Kx)])
        pkx = tab.p.precompose(kx)
        if not all(value_is_zero(cell_group(f, f, T), pkx.mat["phi"][c][c])
                   for c, f in enumerate(Kx)):
            raise ConditionViolation("p restricted to kernel(sigma_x) is not linear")
        h0 = solve_hom(M, tuple(_dual_coefficient(f, v) for f, v in zip(Kx, pkx.vec["phi"])))
        if h0 is None:
            raise UnsolvableOffset("no h0 solves kappa_x^* sigma_z^* h0 = p o kappa_x")
        h0 = H.element(h0)
    qS = _omega(H).precompose_affine(_block([sx], [sz]), h0 + sz.codomain.identity()) - tab.p
    epsS = LinearFnData.of_images(S, H, h0, sx.img)
    t = _quotient(QTensorData(H, S, epsS, qS, 0, Fraction(1)), kx)
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
    alpha: LinearFnData  # H x H* -> H x H*
    u: QuadraticFnData  # over H x H*, phi only

    def __post_init__(self):
        self.phase_space = self.H * dual_product(self.H)
        assert self.alpha.domain == self.alpha.codomain == self.phase_space
        assert self.u.domain == self.phase_space


def clifford_data(H: GroupProduct, rows, terms=(), cells=()) -> CliffordData:
    """Clifford data on a product H of Z_k factors from integers: the rows of
    alpha over H x H* (generator images), the quadratic terms (i, h2) of u
    (``_zk_term``) and its bilinear cells (i, j, c), i < j, whose value is
    B(e_i, e_j) = c / gcd(k_i, k_j)."""
    P = H * dual_product(H)
    u = QuadraticFnData.zero(P)
    vec, mat = u.vec["phi"], u.mat["phi"]
    for i, h2 in terms:
        vec[i], mat[i][i] = _zk_term(P[i].k, h2)
    for i, j, c in cells:
        u.add_to_cell("phi", i, j, Fraction(c, math.gcd(P[i].k, P[j].k)))
    return CliffordData(H, _of_entries(P, P, rows), u)


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
    H, S = c.H, c.phase_space
    n = len(H)
    Hc = H * H  # (in, out) ordering per the defining derivation
    sx = _of_entries(S, Hc, [[int(j == i) for j in range(2 * n)] for i in range(n)]
                     + c.alpha.img[:n])
    sz = _of_entries(S, dual_product(Hc), [[-int(j == n + i) for j in range(2 * n)]
                                           for i in range(n)] + c.alpha.img[n:])
    tab = StabTableau(Hc, S, sx, sz, c.u)
    tab._condition(CocycleMismatch, "u^(2) = alpha^* omega alpha - omega")
    return tab


def clifford_check(c: CliffordData) -> None:
    """Raise CocycleMismatch unless u^(2) = alpha^* omega alpha - omega."""
    _choi_tableau(c)


def clifford_identity(H: GroupProduct) -> CliffordData:
    P = H * dual_product(H)
    return CliffordData(H, _one(P), QuadraticFnData.zero(P))


def clifford_compose(cp: CliffordData, c: CliffordData) -> CliffordData:
    """Data of the product: apply ``c`` first, then ``cp``."""
    if cp.H != c.H:
        raise SpaceMismatch(f"cannot compose Clifford data on {c.H} and {cp.H}")
    out = CliffordData(c.H, cp.alpha.compose_hom(c.alpha), c.u + cp.u.precompose(c.alpha))
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


def _real_rows(M: np.ndarray) -> List[List[Scalar]]:
    """The entries of a float matrix as R values: an exact 0 where R reads
    the entry as zero, the float otherwise."""
    return [[0 if R.eq(x, 0) else float(x) for x in row] for row in M.tolist()]


def _vanishes(M: np.ndarray) -> bool:
    """Whether every entry of a float matrix is zero as R reads it."""
    return float(np.max(np.abs(M), initial=0.0)) <= TOL


def gaussian_clifford(L: np.ndarray, d: Optional[Sequence[float]] = None) -> CliffordData:
    """Clifford data of the Gaussian unitary with quadrature action L, d.

    ``L`` is a real symplectic 2n x 2n matrix in (x..., p...) block order.
    """
    L = np.asarray(L, dtype=float)
    n2 = L.shape[0]
    n = n2 // 2
    Jt = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    if not _vanishes(L.T @ Jt @ L - Jt):
        raise NotSymplectic("L^T J L != J")
    d = np.zeros(n2) if d is None else np.asarray(d, dtype=float)
    pi_m = np.diag([1.0] * n + [2 * math.pi] * n)
    pi_inv = np.diag([1.0] * n + [1 / (2 * math.pi)] * n)
    Lpi_inv = pi_inv @ np.linalg.inv(L) @ pi_m
    H = GroupProduct([R] * n)
    P = H * dual_product(H)
    alpha = _of_entries(P, P, _real_rows(Lpi_inv))
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    W = Lpi_inv.T @ omega_t @ Lpi_inv - omega_t
    assert _vanishes(W - W.T), "u^(2) matrix must be symmetric"
    u = QuadraticFnData.zero(P)
    vec, mat = u.vec["phi"], u.mat["phi"]
    lin = d @ pi_inv @ Jt
    for i in range(n2):
        # an R factor holds the multipliers (h1, h2) of h1 x + h2 x^2 / 2
        if not (R.eq(W[i, i], 0) and R.eq(lin[i], 0)):
            vec[i], mat[i][i] = lin[i], W[i, i]
        for j in range(i + 1, n2):
            if not R.eq(W[i, j], 0):
                u.add_to_cell("phi", i, j, W[i, j])
    return CliffordData(H, alpha, u)


def _gkp_data(L: np.ndarray):
    """(n, sigma_x, p) of a GKP lattice basis L over S = Z^2n:
    sigma_x = L_x: S -> R^n and p(s) = (L_z s)(L_x s) / 2 pi, whose matrix
    M = L^T omega L / 2 pi gives p(e_a) = M_aa / 2 and B(e_a, e_b) = M_ab."""
    n2 = L.shape[0]
    n = n2 // 2
    S = GroupProduct([Z] * n2)
    sx = _of_entries(S, GroupProduct([R] * n), _real_rows(L[:n]))
    omega_t = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    M = L.T @ omega_t @ L / (2 * math.pi)
    p = QuadraticFnData.zero(S)
    vec, mat = p.vec["phi"], p.mat["phi"]
    for a in range(n2):
        if not R.eq(M[a, a], 0):
            vec[a] = mod1(M[a, a] / 2)
            mat[a][a] = mod1(2 * vec[a])
        for b in range(a + 1, n2):
            val = mod1(M[a, b])
            if not scalar_eq(val, 0) and not scalar_eq(val, 1.0):
                p.add_to_cell("phi", a, b, val)
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
    if not _vanishes(gram - np.round(gram)):
        raise NotSymplectic("L^T J L is not an integer multiple of 2 pi")
    sz = _of_entries(p.domain, sx.codomain, _real_rows(L[n:] / (2 * math.pi)))
    tab = StabTableau(sx.codomain, p.domain, sx, sz, p)
    tab.validate()
    return tab


def gkp_state_data(L: np.ndarray) -> QTensorData:
    """Code-state data of a GKP code with trivial kernel(L_x)."""
    _, sx, p = _gkp_data(np.asarray(L, dtype=float))
    return QTensorData(sx.codomain, p.domain, sx, p, 0, None)


def approx_gkp_state(a: float, b: float) -> QTensorData:
    """Approximate single-mode square-lattice GKP state."""
    G = GroupProduct([R])
    E = GroupProduct([R, Z])
    q = QuadraticFnData.zero(E)
    # a factor into R holds the multipliers of its quadratic term
    q.mat["a"][0][0], q.mat["a"][1][1] = R.normalize(-a - b), R.normalize(-a)
    q.add_to_cell("a", 0, 1, a)
    return QTensorData(G, E, _of_entries(E, G, [[1, 0]]), q, 0, None)


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
    sx = _of_entries(S, H, [[int(Hx[i, a]) for a in range(k)] + [h_xz[i][b] for b in range(l)]
                            for i in range(n)])
    sz = _of_entries(S, dual_product(H), [[0] * k + [int(Hz[i, b]) for b in range(l)]
                                          for i in range(n)])
    p = QuadraticFnData.zero(S)
    vec, mat = p.vec["phi"], p.mat["phi"]
    for a in range(l):
        v = sum(Fraction(h_xz[i][a]) * int(Hz[i][a]) for i in range(n))
        if mod1(v) != 0:
            vec[k + a] = mod1(Fraction(v) / 2)
            mat[k + a][k + a] = mod1(2 * vec[k + a])
        for b in range(a + 1, l):
            v = sum(Fraction(h_xz[i][a]) * int(Hz[i][b]) for i in range(n))
            vb = sum(Fraction(h_xz[i][b]) * int(Hz[i][a]) for i in range(n))
            if mod1(v + vb) != 0:
                p.add_to_cell("phi", k + a, k + b, mod1(v))
    tab = StabTableau(H, S, sx, sz, p)
    tab.validate()
    return tab
