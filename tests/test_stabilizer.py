"""Golden and dense-oracle tests for Pauli operators, stabilizer tableaux,
and Clifford data."""

import cmath
import math
import random
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np
import pytest

from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff
from qtensor.dense import materialize, materialize_matrix
from qtensor.engine import QTensorData, reduce_full, self_contract, tensor_product
from qtensor.functions import QuadraticFnData
from qtensor.groups import GroupProduct, T, Z, Zk, parse_product
from qtensor.stab import (
    CliffordData,
    CocycleMismatch,
    PauliLabel,
    clifford_check,
    clifford_compose,
    clifford_identity,
    clifford_to_tensor,
    css_tableau,
    dual_product,
    pauli_measurement,
    pauli_rep_tensor,
    pauli_to_tensor,
    phase_space_omega,
    qubit_tableau,
    stab_projector,
    stab_state,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Zm = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_matrix(H: GroupProduct, h, hstar, alpha=0) -> np.ndarray:
    t = pauli_to_tensor(PauliLabel(H, h, hstar, alpha))
    n = len(H)
    return materialize_matrix(t, n)


def test_pauli_xz_dense():
    H = parse_product("Z2")
    assert np.allclose(pauli_matrix(H, [1], [0]), X)
    assert np.allclose(pauli_matrix(H, [0], [1]), Zm)
    assert np.allclose(pauli_matrix(H, [0], [0]), I2)
    # Y = e^{-2 pi i / 4} rho(1,1) since rho(1,1) = [[0,1],[-1,0]]
    assert np.allclose(pauli_matrix(H, [1], [1], Fraction(-1, 4)), Y)


def test_pauli_projective_law():
    rng = random.Random(5)
    for sig in ["Z2", "Z3", "Z2,Z2", "Z4"]:
        H = parse_product(sig)
        D = dual_product(H)
        n = len(H)
        for _ in range(10):
            x1 = [rng.randrange(f.k) for f in H]
            z1 = [rng.randrange(f.k) for f in D]
            x2 = [rng.randrange(f.k) for f in H]
            z2 = [rng.randrange(f.k) for f in D]
            m1 = pauli_matrix(H, x1, z1)
            m2 = pauli_matrix(H, x2, z2)
            xs = [a + b for a, b in zip(x1, x2)]
            zs = [a + b for a, b in zip(z1, z2)]
            ms = pauli_matrix(H, xs, zs)
            xi1 = tuple(H.element(x1)) + tuple(dual_product(H).element(z1))
            xi2 = tuple(H.element(x2)) + tuple(dual_product(H).element(z2))
            om = phase_space_omega(H, xi1, xi2)
            lhs = ms
            rhs = cmath.exp(2j * math.pi * float(om)) * (m1 @ m2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9, (sig, x1, z1, x2, z2)


def test_pauli_rep_tensor_slices():
    for sig in ["Z2", "Z3"]:
        H = parse_product(sig)
        k = H[0].k
        rep = materialize(pauli_rep_tensor(H)).arr  # (out, in, h, h*)
        for h in range(k):
            for hs in range(k):
                want = pauli_matrix(H, [h], [hs])
                got = rep[:, :, h, hs]
                assert np.max(np.abs(got - want)) < 1e-9
                # unitarity of each slice
                assert np.max(np.abs(got @ got.conj().T - np.eye(k))) < 1e-9


SINGLE_QUBIT_STATES = {
    "+X": np.array([1, 1]) / math.sqrt(2),
    "-X": np.array([1, -1]) / math.sqrt(2),
    "+Y": np.array([1, 1j]) / math.sqrt(2),
    "+Z": np.array([1, 0]),
    "-Z": np.array([0, 1]),
}


def up_to_phase(a, b, tol=1e-9):
    ia = int(np.argmax(np.abs(a)))
    if abs(a[ia]) < tol:
        return np.max(np.abs(b)) < tol
    ph = b[ia] / a[ia]
    return abs(abs(ph) - 1) < tol and np.max(np.abs(a * ph - b)) < tol


def test_single_qubit_states():
    for gen, vec in SINGLE_QUBIT_STATES.items():
        tab = qubit_tableau([gen])
        st = materialize(stab_state(tab)).arr
        assert up_to_phase(vec, st), gen


def test_single_qubit_projectors():
    mats = {"+X": X, "-X": -X, "+Y": Y, "-Y": -Y, "+Z": Zm, "-Z": -Zm}
    for gen, P in mats.items():
        tab = qubit_tableau([gen])
        proj = materialize_matrix(stab_projector(tab), 1)
        want = (I2 + P) / 2
        assert np.max(np.abs(proj - want)) < 1e-9, gen


def test_bell_state():
    tab = qubit_tableau(["+XX", "+ZZ"])
    st = materialize(stab_state(tab)).arr.reshape(-1)
    assert up_to_phase(np.array([1, 0, 0, 1]) / math.sqrt(2), st)


def string_matrix(s: str) -> np.ndarray:
    mats = {"I": I2, "X": X, "Y": Y, "Z": Zm}
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    out = np.array([[sign]], dtype=complex)
    for c in s:
        out = np.kron(out, mats[c])
    return out


FIVE_QUBIT = ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"]


def test_five_qubit_code():
    tab = qubit_tableau(FIVE_QUBIT)
    proj = materialize_matrix(stab_projector(tab), 5)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-9
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-9
    assert abs(np.trace(proj).real - 2) < 1e-9  # rank 2
    for s in FIVE_QUBIT:
        W = string_matrix(s)
        assert np.max(np.abs(W @ proj - proj)) < 1e-9
        assert np.max(np.abs(proj @ W - proj)) < 1e-9


SIGNED_FIVE_QUBIT = ["+XZZXI", "-IXZZX", "+XIXZZ", "-ZXIXZ", "-ZZZZZ"]
STEANE = ["+IIIXXXX", "+IXXIIXX", "+XIXIXIX", "+IIIZZZZ", "+IZZIIZZ", "+ZIZIZIZ",
          "+ZZZZZZZ"]


def oracle_state(tab) -> np.ndarray:
    """A unit vector in the range of the dense code projector: for a
    complete tableau, the code state up to a global phase."""
    P = materialize_matrix(stab_projector(tab), len(tab.H))
    col = P[:, int(np.argmax(np.linalg.norm(P, axis=0)))]
    return col / np.linalg.norm(col)


def check_unit_code_state(tab, st) -> np.ndarray:
    """The state has unit norm, exact mag2 = 1/|support|, a real positive
    amplitude at eps0, and is fixed by the dense code projector."""
    v = materialize(st).arr
    idx = tuple(int(x) for x in st.eps.eps0)
    assert abs(v[idx].imag) < 1e-12 and v[idx].real > 0
    v = v.reshape(-1)
    assert abs(np.linalg.norm(v) - 1) < 1e-9
    assert st.mag2 == Fraction(1, int(np.count_nonzero(np.abs(v) > 1e-9)))
    P = materialize_matrix(stab_projector(tab), len(tab.H))
    assert np.max(np.abs(P @ v - v)) < 1e-9
    return v


def test_state_eigenrelations():
    for gens in [["+X"], ["-X"], ["+Y"], ["+Z"], ["+XX", "+ZZ"],
                 ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ", "+ZZZZZ"],
                 SIGNED_FIVE_QUBIT, STEANE]:
        tab = qubit_tableau(gens)
        st = materialize(stab_state(tab)).arr.reshape(-1)
        assert abs(np.linalg.norm(st) - 1) < 1e-9
        assert up_to_phase(oracle_state(tab), st), gens
        for s in gens:
            W = string_matrix(s)
            assert np.max(np.abs(W @ st - st)) < 1e-9, (gens, s)


def qudit_css(k_of: Sequence[int], sx_group: str, sx, sz_group: str, sz):
    """CSS tableau over prod Z_k from integer sigma_x / sigma_z coefficients."""
    H = GroupProduct([Zk(k) for k in k_of])
    Sx, Sz = parse_product(sx_group), parse_product(sz_group)
    sx_cells = [[HomCoeff(Sx[a], H[i], sx[i][a]) for a in range(len(Sx))]
                for i in range(len(H))]
    sz_cells = [[HomCoeff(Sz[b], H[i], sz[i][b]) for b in range(len(Sz))]
                for i in range(len(H))]
    return css_tableau(Sx, Sz, sx_cells, sz_cells, H)


def test_qudit_css_states_match_oracle():
    cases = [
        # Z3 Bell pair: X X and Z Z^-1
        qudit_css([3, 3], "Z3", [[1], [1]], "Z3", [[1], [2]]),
        # Z5 GHZ on four qudits: X X X X and Z_i Z_{i+1}^-1
        qudit_css([5] * 4, "Z5", [[1]] * 4, "Z5,Z5,Z5",
                  [[1, 0, 0], [4, 1, 0], [0, 4, 1], [0, 0, 4]]),
        # Z2 x Z4: X X^2 (order 2) and Z Z (order 4)
        qudit_css([2, 4], "Z2", [[1], [1]], "Z4", [[1], [1]]),
    ]
    for tab in cases:
        st = stab_state(tab)
        v = check_unit_code_state(tab, st)
        assert up_to_phase(oracle_state(tab), v)


def test_incomplete_tableau_gives_a_code_state():
    for gens in [["-ZZ"], FIVE_QUBIT]:
        tab = qubit_tableau(gens)
        st = stab_state(tab)
        v = check_unit_code_state(tab, st)
        for s in gens:
            W = string_matrix(s)
            assert np.max(np.abs(W @ v - v)) < 1e-9, (gens, s)


def test_css_repetition_code():
    Sx = parse_product("Z2")
    Sz = parse_product("Z2,Z2")
    H = parse_product("Z2,Z2,Z2")
    sx = [[HomCoeff(Zk(2), Zk(2), 1)] for _ in range(3)]
    zc = [[1, 0], [1, 1], [0, 1]]
    sz = [[HomCoeff(Zk(2), Zk(2), zc[i][a]) for a in range(2)] for i in range(3)]
    tab = css_tableau(Sx, Sz, sx, sz, H)
    proj = materialize_matrix(stab_projector(tab), 3)
    # <XXX, ZZI, IZZ> has three independent generators: rank 2^(3-3) = 1
    assert abs(np.trace(proj).real - 1) < 1e-9
    assert np.max(np.abs(proj @ proj - proj)) < 1e-9
    for s in ["+XXX", "+ZZI", "+IZZ"]:
        W = string_matrix(s)
        assert np.max(np.abs(W @ proj - proj)) < 1e-9
    # violation raises
    sz_bad = [[HomCoeff(Zk(2), Zk(2), 1) for _ in range(2)] for _ in range(3)]
    with pytest.raises(Exception):
        css_tableau(Sx, Sz, sx, sz_bad, H)


def test_pauli_measurement_z_and_x():
    for gen, basis in [("+Z", [np.array([1, 0]), np.array([0, 1])]),
                       ("+X", [np.array([1, 1]) / math.sqrt(2),
                               np.array([1, -1]) / math.sqrt(2)])]:
        tab = qubit_tableau([gen])
        povm = materialize(pauli_measurement(tab)).arr  # (out, in, syndrome)
        total = np.zeros((2, 2), dtype=complex)
        for s in range(2):
            P = povm[:, :, s]
            # projector onto the syndrome-s eigenspace
            assert np.max(np.abs(P @ P - P)) < 1e-9
            total += P
        assert np.max(np.abs(total - I2)) < 1e-9
        P0 = povm[:, :, 0]
        v = basis[0]
        assert np.max(np.abs(P0 - np.outer(v, v.conj()))) < 1e-9, gen


def hadamard_data() -> CliffordData:
    H = parse_product("Z2")
    P = H * dual_product(H)
    alpha = [[HomCoeff(P[1], P[0], 1) if j == 1 else HomCoeff(P[0], P[0], 0)
              for j in range(2)],
             [HomCoeff(P[0], P[1], 1) if j == 0 else HomCoeff(P[1], P[1], 0)
              for j in range(2)]]
    u = QuadraticFnData.zero(P)
    u.set_cell("phi", 0, 1, Hom2Coeff(P[0], P[1], T, 1))
    return CliffordData(H, alpha, u)


def s_gate_data() -> CliffordData:
    H = parse_product("Z2")
    P = H * dual_product(H)
    alpha = [[HomCoeff(P[0], P[0], 1), HomCoeff(P[1], P[0], 0)],
             [HomCoeff(P[0], P[1], 1), HomCoeff(P[1], P[1], 1)]]
    u = QuadraticFnData.zero(P)
    u.phi1[0] = QuadCoeff(Zk(2), T, 1, 0)
    return CliffordData(H, alpha, u)


def test_clifford_check_examples():
    clifford_check(hadamard_data())
    clifford_check(s_gate_data())
    bad = clifford_identity(parse_product("Z2"))
    bad.u.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(2), T, 1))
    with pytest.raises(CocycleMismatch):
        clifford_check(bad)


def test_clifford_to_tensor_h_s():
    Hm = materialize_matrix(clifford_to_tensor(hadamard_data()), 1)
    want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert up_to_phase(want.reshape(-1), Hm.reshape(-1))
    Sm = materialize_matrix(clifford_to_tensor(s_gate_data()), 1)
    assert up_to_phase(np.diag([1, 1j]).reshape(-1), Sm.reshape(-1))


def test_clifford_compose_hh_ss():
    h = hadamard_data()
    hh = clifford_compose(h, h)
    Um = materialize_matrix(clifford_to_tensor(hh), 1)
    assert up_to_phase(I2.reshape(-1), Um.reshape(-1))
    s = s_gate_data()
    ss = clifford_compose(s, s)
    Um = materialize_matrix(clifford_to_tensor(ss), 1)
    assert up_to_phase(Zm.reshape(-1), Um.reshape(-1))


def test_clifford_conjugation_action():
    # U rho(xi) U^dag = e^{-2 pi i u(xi)} rho(alpha xi) densely
    for data in (hadamard_data(), s_gate_data()):
        U = materialize_matrix(clifford_to_tensor(data), 1)
        H = data.H
        P = data.phase_space
        for xi_vals in product(range(2), repeat=2):
            xi = P.element(list(xi_vals))
            rho = pauli_matrix(H, [xi[0]], [xi[1]])
            lhs = U @ rho @ U.conj().T
            axi = data.apply_alpha(xi)
            _, uval = data.u.eval(xi)
            rhs = cmath.exp(-2j * math.pi * float(uval)) * pauli_matrix(
                H, [axi[0]], [axi[1]]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def cx_data() -> CliffordData:
    H = parse_product("Z2,Z2")
    P = H * dual_product(H)
    rows = [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    alpha = [[HomCoeff(P[j], P[i], rows[i][j]) for j in range(4)] for i in range(4)]
    return CliffordData(H, alpha, QuadraticFnData.zero(P))


def test_cx_clifford():
    c = cx_data()
    clifford_check(c)
    U = materialize_matrix(clifford_to_tensor(c), 2)
    CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                  dtype=complex)
    assert up_to_phase(CX.reshape(-1), U.reshape(-1))


def test_clifford_compose_random_vs_dense():
    rng = random.Random(9)
    h, s = hadamard_data(), s_gate_data()
    pool = [h, s, clifford_identity(parse_product("Z2"))]
    # grow a few words
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        c = clifford_compose(a, b)
        Ua = materialize_matrix(clifford_to_tensor(a), 1)
        Ub = materialize_matrix(clifford_to_tensor(b), 1)
        Uc = materialize_matrix(clifford_to_tensor(c), 1)
        assert up_to_phase((Ua @ Ub).reshape(-1), Uc.reshape(-1))
        pool.append(c)
