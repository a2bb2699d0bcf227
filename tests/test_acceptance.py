"""Acceptance criteria.

Each test implements one criterion at its stated tolerance and prints a
single pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to
see the lines as they complete.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gen import random_network

from qtensor.coeff import QuadCoeff, quad_apply, quad_to_bilinear, quad_values
from qtensor.dense import materialize, materialize_matrix
from qtensor.engine import (
    QTensorData,
    gauss_sum,
    reduce_full,
    self_contract,
    tensor_product,
)
from qtensor.fermion import (
    FermionTensorData,
    beam_splitter,
    fermion_dense,
    fermion_matrix,
    fermion_entry,
)
from qtensor.groups import T, Zk, parse_product
from qtensor.higher import (
    ccx_gate,
    ccz_gate,
    ch_gate,
    cs_gate,
    fourier_2qubit,
    hierarchy_level_diagonal,
    order_tensor_materialize,
    t_gate,
    t_state,
    vector_31,
    vector_42,
    z4_vector_1100,
)
from qtensor.selftest import run_selftest
from qtensor.stab import (
    approx_gkp_state,
    clifford_compose,
    clifford_to_tensor,
    gaussian_clifford,
    gkp_tableau,
    qubit_tableau,
    rotor_tableau,
    stab_projector,
    stab_state,
)


def report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {status}: {name}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_table_soundness():
    t0 = time.time()
    ok = run_selftest(8)
    dt = time.time() - t0
    report(1, "coefficient tables exhaustive k,l,m <= 8", ok and dt < 60,
           f"{dt:.1f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_enumeration_counts():
    z2 = {}
    for h2 in range(4):
        q = QuadCoeff(Zk(2), T, h2, 0)
        z2[tuple(quad_apply(q, g) for g in range(2))] = h2
    z2_expected = {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(0), Fraction(3, 4)),
    }
    z3 = set()
    for h2 in range(3):
        for h1 in range(3):
            q = QuadCoeff(Zk(3), T, h2, h1)
            z3.add(tuple(quad_apply(q, g) for g in range(3)))
    z3_expected = {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(2, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(0), Fraction(2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(2, 3), Fraction(0)),
    }
    ok = set(z2) == z2_expected and len(z2) == 4 and z3 == z3_expected and len(z3) == 9
    report(2, "4 quadratic functions over Z2, 9 over Z3, entrywise exact", ok)


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_oracle_equivalence_500_networks():
    rng = random.Random(424242)
    t0 = time.time()
    done = 0
    worst = 0.0
    exact_all = True
    while done < 500:
        drawn = random_network(rng)
        if drawn is None:
            continue
        big, pairs = drawn
        ref = materialize(big).arr
        cur = big
        axes_live = list(range(len(big.G)))
        for (a, b) in pairs:
            ia, ib = axes_live.index(a), axes_live.index(b)
            ref = np.trace(ref, axis1=min(ia, ib), axis2=max(ia, ib))
            axes_live = [x for x in axes_live if x not in (a, b)]
            cur = reduce_full(self_contract(cur, min(ia, ib), max(ia, ib)))
        out = materialize(cur)
        dev = float(np.max(np.abs(out.arr - ref))) if out.arr.size else abs(out.arr - ref)
        worst = max(worst, dev)
        if dev > 1e-9:
            report(3, "random network oracle equivalence", False,
                   f"deviation {dev:.2e} after {done} networks")
        exact_all = exact_all and (cur.is_zero or cur.mag2 is not None)
        done += 1
    dt = time.time() - t0
    report(3, "500 random networks contract identically to the dense oracle",
           worst <= 1e-9 and exact_all and dt < 300,
           f"max dev {worst:.1e}, {dt:.0f}s, rational channel kept: {exact_all}")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_gauss_sums():
    worst = 0.0
    count = 0
    for k in range(1, 13):
        g2grp = 2 * k if k % 2 == 0 else k
        g1grp = max(k // 2, 1) if k % 2 == 0 else k
        for h2 in range(g2grp):
            for h1 in range(g1grp):
                q = QuadCoeff(Zk(k), T, h2, h1)
                if math.gcd(int(quad_to_bilinear(q).value), k) != 1:
                    continue
                total = sum(
                    cmath.exp(2j * math.pi * float(quad_apply(q, g))) for g in range(k)
                )
                worst = max(worst, abs(abs(total) - math.sqrt(k)))
                m2, _ = gauss_sum(Zk(k), *quad_values(q))
                assert m2 == k
                count += 1
    report(4, "Gauss sums have magnitude sqrt(k) for all nondegenerate q, k <= 12",
           worst <= 1e-9, f"{count} sums, max dev {worst:.1e}")


# -- 5 ----------------------------------------------------------------------

I2 = np.eye(2)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def string_matrix(s):
    sign = -1 if s[0] == "-" else 1
    body = s.lstrip("+-")
    out = np.array([[sign]], dtype=complex)
    for c in body:
        out = np.kron(out, PAULI[c])
    return out


FIVE_QUBIT = ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"]


def exact_pauli_apply(string, exact_vec, dims):
    """Apply a signed Pauli string to an exact (mag2, phase) state vector."""
    sign = -1 if string[0] == "-" else 1
    body = string.lstrip("+-")
    n = len(body)
    out = np.empty(dims, dtype=object)
    for idx in np.ndindex(*dims):
        src = list(idx)
        phase = Fraction(0)
        for i, c in enumerate(body):
            if c in ("X", "Y"):
                src[i] ^= 1
        ok = True
        for i, c in enumerate(body):
            if c == "Z" and idx[i]:
                phase += Fraction(1, 2)
            if c == "Y":
                # Y = e^{-2 pi i/4} rho(1,1): phase i on |0> -> |1>, -i other
                phase += Fraction(1, 4) if idx[i] else Fraction(-1, 4)
        m2, ph = exact_vec[tuple(src)]
        if sign < 0:
            phase += Fraction(1, 2)
        out[idx] = (m2, (ph + phase) % 1)
    return out


def test_criterion_5_stabilizer_fidelity():
    cases = [(["+X"],), (["-X"],), (["+Y"],), (["+Z"],), (["+XX", "+ZZ"],),
             (FIVE_QUBIT,)]
    all_ok = True
    notes = []
    for (gens,) in cases:
        tab = qubit_tableau(gens)
        st = stab_state(tab)
        d = materialize(st)
        assert d.exact is not None, "state must carry the exact channel"
        for s in gens:
            moved = exact_pauli_apply(s, d.exact, d.dims)
            same = all(
                moved[idx][0] == d.exact[idx][0]
                and (moved[idx][0] == 0 or (moved[idx][1] - d.exact[idx][1]) % 1 == 0)
                for idx in np.ndindex(*d.dims)
            )
            all_ok = all_ok and same
            if not same:
                notes.append(f"R(s) phi != phi for {s} in {gens}")
        proj = materialize_matrix(stab_projector(tab), len(gens[0].lstrip("+-")))
        idem = np.max(np.abs(proj @ proj - proj)) < 1e-12
        herm = np.max(np.abs(proj - proj.conj().T)) < 1e-12
        n = len(gens[0].lstrip("+-"))
        want_rank = 2 ** (n - len(gens))
        rank_ok = abs(np.trace(proj).real - want_rank) < 1e-9
        all_ok = all_ok and idem and herm and rank_ok
        if not (idem and herm and rank_ok):
            notes.append(f"projector defect for {gens}")
    report(5, "stabilizer states/projectors are exact dense eigenspace objects",
           all_ok, "; ".join(notes) if notes else "X,-X,Y,Z,Bell,5-qubit")


# -- 6 ----------------------------------------------------------------------


class Cyclo8:
    """Exact arithmetic in Z[zeta_8] scaled by powers of 1/2."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = [Fraction(0)] * 8 if coeffs is None else [Fraction(x) for x in coeffs]

    @staticmethod
    def from_exact(m2: Fraction, phase: Fraction):
        # entry = sqrt(m2) e^{2 pi i phase}; phases are eighths here and
        # m2 = r^2 / 2^a with r rational
        out = Cyclo8()
        if m2 == 0:
            return out
        ph = phase % 1
        k = ph * 8
        assert k.denominator == 1, f"phase {phase} is not an eighth"
        # sqrt(m2): try rational sqrt of m2 or of 2*m2 (extra 1/sqrt2 factor)
        r = _ratsqrt(m2)
        if r is not None:
            out.c[int(k) % 8] = r
            return out
        r = _ratsqrt(m2 * 2)
        assert r is not None, f"magnitude^2 {m2} not representable"
        # 1/sqrt2 = (zeta - zeta^3)/2
        base = Cyclo8()
        base.c[int(k) % 8] = r
        half = Cyclo8()
        half.c[1] = Fraction(1, 2)
        half.c[3] = Fraction(-1, 2)
        return base * half

    def __add__(self, o):
        return Cyclo8([a + b for a, b in zip(self.c, o.c)])

    def __mul__(self, o):
        out = [Fraction(0)] * 8
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(o.c):
                if not b:
                    continue
                out[(i + j) % 8] += a * b
        return Cyclo8(out)

    def __sub__(self, o):
        return Cyclo8([a - b for a, b in zip(self.c, o.c)])

    def conj(self):
        # conjugation maps zeta^i -> zeta^{-i}
        out = Cyclo8()
        out.c[0] = self.c[0]
        for i in range(1, 8):
            out.c[8 - i] += self.c[i]
        return out

    def is_zero(self):
        # reduce modulo the relation zeta^4 = -1
        red = [self.c[i] - self.c[i + 4] for i in range(4)]
        return all(x == 0 for x in red)

    def __eq__(self, o):
        return (self - o).is_zero()


def _ratsqrt(f: Fraction):
    num = int(math.isqrt(f.numerator))
    den = int(math.isqrt(f.denominator))
    if num * num == f.numerator and den * den == f.denominator:
        return Fraction(num, den)
    return None


def exact_matrix(t: QTensorData, n_out: int):
    d = materialize(t)
    assert d.exact is not None
    rows = int(np.prod(d.dims[:n_out], initial=1))
    cols = int(np.prod(d.dims[n_out:], initial=1))
    flat = d.exact.reshape(rows, cols)
    return [[Cyclo8.from_exact(*flat[i, j]) for j in range(cols)] for i in range(rows)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Cyclo8()) for j in range(m)]
        for i in range(n)
    ]


def mat_eq(A, B):
    return all(A[i][j] == B[i][j] for i in range(len(A)) for j in range(len(A[0])))


def mat_dagger(A):
    return [[A[j][i].conj() for j in range(len(A))] for i in range(len(A[0]))]


def test_criterion_6_clifford_conversion():
    from qtensor.stab import qubit_clifford

    h, s = qubit_clifford("H"), qubit_clifford("S")
    # generate the single-qubit Clifford group from H and S data
    seen = {}

    def key(c):
        ak = tuple(tuple(int(x.value) for x in row) for row in c.alpha.eps1)
        uk = (tuple((int(q.h2), int(q.h1)) for q in c.u.phi1),
              tuple(sorted((ij, int(v.value)) for ij, v in c.u.phi2.items())))
        return ak, uk

    frontier = [h, s]
    for c in frontier:
        seen[key(c)] = c
    while frontier:
        new = []
        for a in list(seen.values()):
            for g in (h, s):
                c = clifford_compose(g, a)
                if key(c) not in seen:
                    seen[key(c)] = c
                    new.append(c)
        frontier = new
    group = list(seen.values())
    ok = len(group) == 24
    notes = [f"|<H,S>| = {len(group)}"]

    # exact conjugation check for every element plus CX and CZ
    H1 = parse_product("Z2")
    H2 = parse_product("Z2,Z2")
    from qtensor.stab import PauliLabel, pauli_to_tensor

    def conjugation_exact(c, Hgrp):
        U = exact_matrix(clifford_to_tensor(c), len(Hgrp))
        Ud = mat_dagger(U)
        P = c.phase_space
        for xi_vals in product(*[range(2)] * len(P)):
            xi = P.element(list(xi_vals))
            n = len(Hgrp)
            rho = exact_matrix(
                pauli_to_tensor(PauliLabel(Hgrp, xi[:n], xi[n:], 0)), n
            )
            lhs = mat_mul(mat_mul(U, rho), Ud)
            axi = c.alpha(xi)
            _, uval = c.u.eval(xi)
            rho2 = exact_matrix(
                pauli_to_tensor(PauliLabel(Hgrp, axi[:n], axi[n:], -uval)), n
            )
            if not mat_eq(lhs, rho2):
                return False
        return True

    for c in group:
        if not conjugation_exact(c, H1):
            ok = False
            notes.append("single-qubit conjugation mismatch")
            break
    for c in (qubit_clifford("CX"), qubit_clifford("CZ")):
        if not conjugation_exact(c, H2):
            ok = False
            notes.append("two-qubit conjugation mismatch")

    # 200 random composition pairs against dense multiplication
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        a, b = rng.choice(group), rng.choice(group)
        cab = clifford_compose(a, b)
        Ua = materialize_matrix(clifford_to_tensor(a), 1)
        Ub = materialize_matrix(clifford_to_tensor(b), 1)
        Uc = materialize_matrix(clifford_to_tensor(cab), 1)
        M = Ua @ Ub
        idx = np.unravel_index(np.argmax(np.abs(M)), M.shape)
        phase = M[idx] / Uc[idx]
        worst = max(worst, float(np.max(np.abs(M - phase * Uc))))
    ok = ok and worst < 1e-12
    report(6, "24 Cliffords + CX/CZ: exact Pauli conjugation, compose = product",
           ok, "; ".join(notes + [f"compose dev {worst:.1e}"]))


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_fermion():
    rng = random.Random(11)
    ok = True
    notes = []
    # n = 3 and n = 4 symbolic tables (random complex parameters)
    for _ in range(10):
        a, b, c, g = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
        t = FermionTensorData(3, 1, np.array([[a], [b], [c]]), np.zeros((1, 1)), g)
        table = {
            (0, 1, 1): g * a, (1, 0, 1): g * b, (1, 1, 0): g * c,
            (0, 0, 0): 0, (1, 1, 1): 0, (1, 0, 0): 0,
        }
        for x, v in table.items():
            ok = ok and abs(fermion_entry(t, list(x)) - v) < 1e-12
    for _ in range(10):
        a, b, c, d, e, f, g, h = (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)
        )
        al, gm = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        t = FermionTensorData(4, 1, np.array([[a, e], [b, f], [c, g], [d, h]]),
                              np.array([[0, al], [-al, 0]]), gm)
        checks = {
            (1, 1, 1, 1): gm * al,
            (0, 0, 1, 1): gm * (a * f - e * b),
            (0, 1, 0, 1): gm * (a * g - e * c),
            (1, 1, 0, 0): gm * (c * h - g * d),
        }
        for x, v in checks.items():
            ok = ok and abs(fermion_entry(t, list(x)) - v) < 1e-12
    if not ok:
        notes.append("worked tables")

    # beam splitter vs U(t) for 20 angles
    worst_bs = 0.0
    for i in range(20):
        th = -2.0 + 4.0 * i / 19
        U = fermion_matrix(beam_splitter(th), 2)
        cth, sth = math.cos(th), math.sin(th)
        want = np.array(
            [[1, 0, 0, 0], [0, cth, 1j * sth, 0], [0, 1j * sth, cth, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        worst_bs = max(worst_bs, float(np.max(np.abs(U - want))))
    ok = ok and worst_bs <= 1e-10

    # 100 random contractions vs the dense graded oracle
    from qtensor.dense import self_contract_dense
    from qtensor.fermion import SingularBlock, fermion_contract

    done = 0
    worst_fc = 0.0
    while done < 100:
        n_open = rng.choice([0, 2, 4])
        c = rng.choice([1, 2])
        total = n_open + 2 * c
        if total > 8:
            continue
        A = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(total)] for _ in range(total)])
        t = FermionTensorData(total, 0, np.eye(total), A - A.T, 1.0)
        try:
            res = fermion_contract(t, c)
        except SingularBlock:
            continue
        cur = fermion_dense(t, [False] * n_open + [True] * c + [False] * c)
        rem = c
        while rem:
            cur = self_contract_dense(cur, n_open + rem - 1, n_open + 2 * rem - 1)
            rem -= 1
        dev = float(np.max(np.abs(fermion_dense(res).arr - cur.arr)))
        worst_fc = max(worst_fc, dev)
        done += 1
    ok = ok and worst_fc <= 1e-8

    # angle additivity through contraction
    from test_fermion import contract_fermion_ops

    for t1, t2 in [(0.25, 0.5), (1.1, -0.3)]:
        got = fermion_matrix(contract_fermion_ops(beam_splitter(t1),
                                                  beam_splitter(t2), 2), 2)
        want = fermion_matrix(beam_splitter(t1 + t2), 2)
        ok = ok and np.max(np.abs(got - want)) < 1e-9
    report(7, "fermion tables, beam splitters, contraction vs graded oracle",
           ok, f"bs dev {worst_bs:.1e}, contraction dev {worst_fc:.1e}")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_higher_order():
    ok = True
    notes = []
    r = 1 / math.sqrt(2)
    w8 = cmath.exp(2j * math.pi / 8)

    def tensor_as_matrix(t, n_in):
        d = order_tensor_materialize(t)
        n_out = t.G and len(t.G) - n_in
        rows = int(np.prod(d.dims[n_in:], initial=1))
        cols = int(np.prod(d.dims[:n_in], initial=1))
        mat = np.zeros((rows, cols), dtype=complex)
        for idx in np.ndindex(*d.dims):
            i = 0
            for x in idx[:n_in]:
                i = 2 * i + int(x)
            o = 0
            for x in idx[n_in:]:
                o = 2 * o + int(x)
            mat[o, i] += d.arr[idx]
        return mat

    checks = [
        ("T state", order_tensor_materialize(t_state()).arr,
         np.array([1, w8]) * r),
        ("T gate", tensor_as_matrix(t_gate(), 1), np.diag([1, w8])),
        ("CS", tensor_as_matrix(cs_gate(), 2), np.diag([1, 1, 1, 1j])),
        ("CCZ", tensor_as_matrix(ccz_gate(), 3), np.diag([1] * 7 + [-1])),
        ("CCX", tensor_as_matrix(ccx_gate(), 3),
         np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]),
        ("CH", tensor_as_matrix(ch_gate(), 2),
         np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, r, r], [0, 0, r, -r]])),
        ("vec31", order_tensor_materialize(vector_31()).arr, np.array([3, 1])),
        ("vec42", order_tensor_materialize(vector_42()).arr, np.array([4, 2])),
        ("z4vec", order_tensor_materialize(z4_vector_1100()).arr,
         np.array([1, 1, 0, 0])),
        ("QFT2", tensor_as_matrix(fourier_2qubit(), 2),
         np.array([[1j ** (a * b) for b in range(4)] for a in range(4)]) / 2),
    ]
    for name, got, want in checks:
        dev = float(np.max(np.abs(np.asarray(got, dtype=complex) - want)))
        if dev > 1e-12:
            ok = False
            notes.append(f"{name} dev {dev:.1e}")
    levels = (
        hierarchy_level_diagonal(lambda e: T.normalize(Fraction(int(e[0]), 2)),
                                 parse_product("Z2")),
        hierarchy_level_diagonal(lambda e: T.normalize(Fraction(int(e[0]) ** 2, 4)),
                                 parse_product("Z2")),
        hierarchy_level_diagonal(lambda e: T.normalize(Fraction(int(e[0]), 8)),
                                 parse_product("Z2")),
    )
    if levels != (1, 2, 3):
        ok = False
        notes.append(f"hierarchy levels {levels}")
    report(8, "higher-order gate/state data materialize exactly; levels 1/2/3",
           ok, "; ".join(notes) if notes else "T,CS,CCZ,CCX,CH,(3,1),(4,2),QFT2,Z4")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_cv_spot_checks():
    from qtensor.coeff import Hom2Coeff, HomCoeff
    from qtensor.functions import LinearFnData, QuadraticFnData, hom_data
    from qtensor.groups import R
    from qtensor.solve import real_solve

    rng = random.Random(99)
    ok = True
    worst = 0.0
    # 50 random negative-definite single-mode Gaussian reductions vs the
    # closed form (1/sqrt(-q11)) exp(2 pi (q00 - q01^2/q11)/2 h^2)
    for _ in range(50):
        q00 = complex(-rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        q11 = complex(-rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        q01 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        G = parse_product("R")
        E = parse_product("R,R")
        eps = LinearFnData(E, G, G.identity(),
                           [[HomCoeff(R, R, 1), HomCoeff(R, R, 0)]])
        q = QuadraticFnData.zero(E)
        q.a1[0] = QuadCoeff(R, R, q00.real, 0)
        q.phi1[0] = QuadCoeff(R, T, q00.imag, 0)
        q.a1[1] = QuadCoeff(R, R, q11.real, 0)
        q.phi1[1] = QuadCoeff(R, T, q11.imag, 0)
        q.set_cell("a", 0, 1, Hom2Coeff(R, R, R, q01.real))
        q.set_cell("phi", 0, 1, Hom2Coeff(R, R, T, q01.imag))
        t = QTensorData(G, E, eps, q, 0, None)
        red = reduce_full(t)
        schur = q00 - q01 * q01 / q11
        got2 = complex(float(red.q.a1[0].h2), float(red.q.phi1[0].h2))
        dev = abs(got2 - schur)
        pref = red.prefactor()
        want_pref = 1 / cmath.sqrt(-q11)
        dev = max(dev, abs(pref - want_pref))
        worst = max(worst, dev)
    ok = ok and worst <= 1e-9

    # harmonic oscillator propagator coefficients, symbolically
    t_val = 1.3
    ct, st = math.cos(t_val), math.sin(t_val)
    L = np.array([[ct, -st], [st, ct]])
    U = clifford_to_tensor(gaussian_clifford(L))
    M = [[float(U.eps.eps1[i][j].value) for j in range(2)] for i in range(2)]
    base = U.q.eval(U.E.element([0.0, 0.0]))[1]
    prop_ok = True
    for (go, gi) in [(0.4, 0.6), (-1.1, 0.2), (0.9, -0.7)]:
        e = real_solve(M, [go, gi])
        ph = U.q.eval(U.E.element(e))[1]
        want = (ct * (go * go + gi * gi) - 2 * go * gi) / (4 * math.pi * st)
        diff = (float(ph) - float(base) - want) % 1.0
        prop_ok = prop_ok and min(diff, 1 - diff) < 1e-8
    ok = ok and prop_ok

    # U(t) U(-t) reduces to identity-pattern data
    U1 = clifford_to_tensor(gaussian_clifford(L))
    U2 = clifford_to_tensor(gaussian_clifford(L.T))
    red = reduce_full(self_contract(tensor_product(U1, U2), 0, 3))
    ident_ok = not red.is_zero and len(red.E) == 1
    for part in ("a", "phi"):
        for i in range(len(red.E)):
            for j in range(len(red.E)):
                ident_ok = ident_ok and red.q.cell(part, i, j).is_zero()
    col = [float(red.eps.eps1[i][0].value) for i in range(2)]
    ident_ok = ident_ok and abs(col[0] - col[1]) < 1e-9 and abs(col[0]) > 1e-9
    ok = ok and ident_ok
    report(9, "Gaussian integral closed form (50 cases), propagator kernel, U(t)U(-t)",
           ok, f"max dev {worst:.1e}")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_gkp_rotor():
    ok = True
    notes = []
    # constructor invariants validate internally (exact condition checks)
    L = math.sqrt(2 * math.pi) * np.eye(2)
    try:
        gkp_tableau(L)
    except Exception as exc:  # pragma: no cover
        ok = False
        notes.append(f"gkp invariant: {exc}")
    Hx = np.array([[1], [1]])
    Hz = np.array([[1, 0], [-1, 0]])
    try:
        rotor_tableau(Hx, Hz, [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]])
    except Exception as exc:
        ok = False
        notes.append(f"rotor invariant: {exc}")
    from qtensor.stab import ConditionViolation

    try:
        rotor_tableau(Hx, Hz, [[Fraction(0), Fraction(1, 3)], [Fraction(0), Fraction(0)]])
        ok = False
        notes.append("asymmetric h_xz accepted")
    except ConditionViolation:
        pass

    # approximate GKP comb on a grid
    from qtensor.dense import grid_materialize

    a, b = 8.0, 0.5
    st = approx_gkp_state(a, b)
    spacing = 0.02
    xs, vals = grid_materialize(st, spacing=spacing, extent=3.0)
    mags = np.abs(vals)
    peaks = [xs[i] for i in range(1, len(xs) - 1)
             if mags[i] > mags[i - 1] and mags[i] > mags[i + 1]
             and mags[i] > 0.1 * mags.max()]
    ratio = a / (a + b)
    comb_ok = len(peaks) >= 3 and all(
        abs(p - round(p / ratio) * ratio) <= spacing + 1e-9 for p in peaks
    )
    ok = ok and comb_ok
    if not comb_ok:
        notes.append(f"comb peaks {peaks}")
    report(10, "GKP/rotor constructor invariants, approximate-GKP comb",
           ok, "; ".join(notes) if notes else f"{len(peaks)} peaks, spacing {ratio:.3f}")
