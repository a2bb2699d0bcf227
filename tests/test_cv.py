"""Continuous-variable spot checks: Gaussian integrals against quadrature,
propagator coefficients, displacements, GKP and rotor constructors."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qtensor import engine
from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff
from qtensor.dense import grid_materialize
from qtensor.engine import (
    NotIntegrable,
    QTensorData,
    reduce_full,
    self_contract,
    tensor_product,
)
from qtensor.functions import LinearFnData, QuadraticFnData, hom_data
from qtensor.groups import GroupProduct, R, T, Z, parse_product
from qtensor.solve import kernel_of_hom, real_solve
from qtensor.stab import (
    ConditionViolation,
    NotSymplectic,
    approx_gkp_state,
    clifford_to_tensor,
    displacement,
    gaussian_clifford,
    gkp_state_data,
    gkp_tableau,
    pauli_to_tensor,
    rotor_tableau,
    stab_state,
)


def cv_tensor(q00, q01, q11, open_first=True, w=0) -> QTensorData:
    """Two-mode quadratic data over E = R^2 with one open index, reading
    x0: q = q00 x0^2 / 2 + q01 x0 x1 + q11 x1^2 / 2 + w x1 (complex, as
    q_a + i q_phi)."""
    G = parse_product("R")
    E = parse_product("R,R")
    eps = hom_data(E, G, [[HomCoeff(R, R, Fraction(1)), HomCoeff(R, R, 0)]])
    eps = LinearFnData(E, G, G.identity(), eps.eps1)
    q = QuadraticFnData.zero(E)
    q.a1[0] = QuadCoeff(R, R, q00.real, 0)
    q.phi1[0] = QuadCoeff(R, T, q00.imag, 0)
    q.a1[1] = QuadCoeff(R, R, q11.real, w.real)
    q.phi1[1] = QuadCoeff(R, T, q11.imag, w.imag)
    if q01:
        q.set_cell("a", 0, 1, Hom2Coeff(R, R, R, q01.real))
        q.set_cell("phi", 0, 1, Hom2Coeff(R, R, T, q01.imag))
    return QTensorData(G, E, eps, q, 0, None)


def eval_tensor_entry(t: QTensorData, e_vals) -> complex:
    a, ph = t.q.eval(t.E.element(e_vals))
    return math.exp(2 * math.pi * float(a)) * cmath.exp(2j * math.pi * float(ph))


def quadrature(f, lo=-40.0, hi=40.0, n=400001):
    """The trapezoid rule for f over [lo, hi] on n points; f takes the
    numpy grid and returns its values there."""
    xs = np.linspace(lo, hi, n)
    return np.trapezoid(f(xs), xs)


def test_gaussian_reduction_vs_quadrature():
    rng = random.Random(71)
    for _ in range(12):
        q00 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q11 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q01 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        t = cv_tensor(q00, q01, q11)
        red = reduce_full(t)
        assert not red.is_zero
        assert len(red.E) == 1
        for h in (0.0, 0.7, -1.3):
            def f(c, h=h):
                return np.exp(2 * math.pi * (0.5 * q00 * h * h + 0.5 * q11 * c * c + q01 * h * c))

            want = quadrature(f)
            got = _entry_at(red, h)
            assert abs(got - want) < 1e-6 * max(1.0, abs(want)), (q00, q01, q11, h)


def test_real_reduction_corrects_the_linear_term():
    # a linear term w x1 on the integrated direction beside the cross term
    # q01 x0 x1: the integral over x1 adds -w q01 / q11 to x0's linear term
    rng = random.Random(79)
    for _ in range(8):
        q00 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q11 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q01 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        t = cv_tensor(q00, q01, q11, w=w)
        red = reduce_full(t)
        assert len(red.E) == 1
        got_lin = complex(float(red.q.a1[0].h1), float(red.q.phi1[0].h1))
        assert abs(got_lin + w * q01 / q11) < 1e-9
        for h in (0.0, 0.7, -1.3):
            def f(c, h=h):
                return np.exp(2 * math.pi * (0.5 * q00 * h * h + 0.5 * q11 * c * c
                                             + q01 * h * c + w * c))

            # f is the unreduced tensor's entry along x1
            for c in (-0.9, 0.4):
                assert abs(f(c) - eval_tensor_entry(t, [h, c])) < 1e-9
            want = quadrature(f)
            got = _entry_at(red, h)
            assert abs(got - want) < 1e-6 * max(1.0, abs(want)), (q00, q01, q11, w, h)


@pytest.mark.parametrize("part", ["a", "phi"])
def test_real_direction_with_a_form_within_tol_takes_the_zero_reduction(monkeypatch, part):
    # over E = R^2 with eps = x0 - x1, the kernel direction rho = (1, 1)
    # meets q = -(x0 - x1)^2 / 2 + 5e-11 x0 x1 (in one part) in the form
    # q(rho) = 5e-11, which is zero as R reads it: the step takes the zero
    # reduction, a delta of infinite measure, not a Gaussian integral with
    # prefactor 1 / sqrt(-z), and ``reduce_real`` calls it degenerate
    calls = {"zero": 0, "real": 0}
    for name, key in (("_reduce_zero", "zero"), ("_reduce_real", "real")):
        def counted(*args, _fn=getattr(engine, name), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)
    G, E = parse_product("R"), parse_product("R,R")
    eps = LinearFnData.of_images(E, G, G.identity(), [[Fraction(1), Fraction(-1)]])
    q = QuadraticFnData.zero(E)
    q.mat[part][0][0] = q.mat[part][1][1] = -0.5
    q.add_to_cell(part, 0, 1, 0.5 + 2.5e-11)
    t = QTensorData(G, E, eps, q, 0, None)
    rho = kernel_of_hom(eps).inclusion
    assert 1e-11 < abs(t.q.precompose(rho).mat[part][0][0]) < 1e-10
    red = reduce_full(t)
    assert calls == {"zero": 1, "real": 0}, calls
    assert len(red.E) == 1 and red.div_weight == 1
    with pytest.raises(engine.Degenerate):
        engine.reduce_real(t, rho)


def _entry_at(t: QTensorData, h: float) -> complex:
    # single R factor, eps = [c]: preimage e = (h - eps0)/c
    c = float(t.eps.eps1[0][0].value)
    e = (h - float(t.eps.eps0[0])) / c
    a, ph = t.q.eval(t.E.element([e]))
    mag = math.exp(2 * math.pi * float(a))
    return mag * cmath.exp(2j * math.pi * float(ph))


def test_gaussian_schur_formula():
    # q'' = q00 - q01^2 / q11 on the coefficient level
    rng = random.Random(73)
    for _ in range(10):
        q00 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q11 = complex(-rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        q01 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        red = reduce_full(cv_tensor(q00, q01, q11))
        got = complex(float(red.q.a1[0].h2), float(red.q.phi1[0].h2))
        want = q00 - q01 * q01 / q11
        assert abs(got - want) < 1e-9


def ho_symplectic(t: float) -> np.ndarray:
    """Quadrature action U^dag xi U = L xi of the harmonic oscillator
    evolution U = e^{i t (x^2 + p^2) / 2}; Heisenberg gives L = e^{-Jt}."""
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def test_harmonic_oscillator_propagator_coefficients():
    # kernel exponent (1 / 4 pi sin t)(cos t (go^2 + gi^2) - 2 go gi) mod 1
    for t_val in (0.7, 1.0, 2.1):
        c = gaussian_clifford(ho_symplectic(t_val))
        U = clifford_to_tensor(c)
        assert len(U.E) == 2
        # embedding: (out, in) = eps(e); invert on samples
        M = [[float(U.eps.eps1[i][j].value) for j in range(2)] for i in range(2)]
        s, ct = math.sin(t_val), math.cos(t_val)

        def kernel_phase(go, gi):
            return (ct * (go * go + gi * gi) - 2 * go * gi) / (4 * math.pi * s)

        base = U.q.eval(U.E.element([0.0, 0.0]))[1]
        for (go, gi) in [(0.3, 0.5), (1.2, -0.4), (-0.8, 0.9)]:
            e = real_solve(M, [go, gi])
            assert e is not None
            ph = U.q.eval(U.E.element(e))[1]
            want = kernel_phase(go, gi)
            diff = (float(ph) - float(base) - want) % 1.0
            assert min(diff, 1 - diff) < 1e-8, (t_val, go, gi)


def test_propagator_inverse_gives_identity_pattern():
    t_val = 0.9
    U1 = clifford_to_tensor(gaussian_clifford(ho_symplectic(t_val)))
    U2 = clifford_to_tensor(gaussian_clifford(ho_symplectic(-t_val)))
    big = tensor_product(U1, U2)  # legs (o1, i1, o2, i2)
    # U2 U1: contract o1 with i2
    mid = self_contract(big, 0, 3)
    red = reduce_full(mid)
    assert not red.is_zero
    # identity pattern: q^(2) = 0 and the embedding kernel is the diagonal
    for part in ("a", "phi"):
        for i in range(len(red.E)):
            for j in range(len(red.E)):
                assert red.q.cell(part, i, j).is_zero(), (part, i, j)
    assert len(red.E) == 1 and red.E[0].kind == "R"
    col = [float(red.eps.eps1[i][0].value) for i in range(2)]
    assert abs(col[0] - col[1]) < 1e-9 and abs(col[0]) > 1e-9
    assert red.div_weight == 0


def test_displacement_data():
    lbl = displacement([1.0], [2 * math.pi])
    assert abs(float(lbl.alpha) - ((-0.5) % 1.0)) < 1e-12
    t = pauli_to_tensor(displacement([0.0], [0.0]))
    assert all(c.is_zero() for row in t.q.phi2.values() for c in [row])
    # pure position shift: D(x, 0) maps |psi(g)> to psi(g - x)
    x = 0.8
    D = pauli_to_tensor(displacement([x], [0.0]))
    psi = squeezed_state(1.0)
    shifted = reduce_full(self_contract(tensor_product(D, psi), 1, 2))
    xs1, v1 = grid_materialize(shifted, spacing=0.5, extent=4.0)
    xs0, v0 = grid_materialize(psi, spacing=0.5, extent=4.0)
    for i, xv in enumerate(xs1):
        j = np.argmin(np.abs(xs0 - (xv - x)))
        if abs(xs0[j] - (xv - x)) < 1e-9:
            assert abs(v1[i] - v0[j]) < 1e-9


def squeezed_state(sigma: float) -> QTensorData:
    G = parse_product("R")
    E = parse_product("R")
    q = QuadraticFnData.zero(E)
    q.a1[0] = QuadCoeff(R, R, -1.0 / sigma, 0)
    return QTensorData(G, E, LinearFnData.identity(G), q, 0, None)


def test_squeezed_norm_vs_quadrature():
    psi = squeezed_state(1.0)
    conj = squeezed_state(1.0)  # real amplitudes: conjugate equals itself
    norm2 = reduce_full(self_contract(tensor_product(psi, conj), 0, 1))
    assert len(norm2.G) == 0 and len(norm2.E) == 0
    got = norm2.prefactor()
    want = quadrature(lambda x: np.exp(2 * math.pi * (-1.0) * x * x))
    assert abs(got - want) < 1e-9


def test_grid_squeezed_norm():
    psi = squeezed_state(1.0)
    xs, vals = grid_materialize(psi, spacing=0.05, extent=8.0)
    norm2 = np.trapezoid(np.abs(vals) ** 2, xs)
    # amplitude e^{-pi x^2}, so the squared norm is 1/sqrt(2)
    want = quadrature(lambda x: np.exp(-math.pi * x * x) ** 2)
    assert abs(norm2 - want) / want < 1e-6
    assert abs(want - 1 / math.sqrt(2)) < 1e-9


def test_gkp_tableau_and_state():
    L = math.sqrt(2 * math.pi) * np.eye(2)
    tab = gkp_tableau(L)  # validates the tableau condition internally
    st = gkp_state_data(L)
    assert [f.kind for f in st.E] == ["Z", "Z"]
    assert abs(float(st.eps.eps1[0][0].value) - math.sqrt(2 * math.pi)) < 1e-12
    with pytest.raises(NotSymplectic):
        gkp_tableau(np.eye(2) * 2.0)


def test_approx_gkp_grid_comb():
    a, b = 8.0, 0.5
    st = approx_gkp_state(a, b)
    xs, vals = grid_materialize(st, spacing=0.02, extent=3.0)
    mags = np.abs(vals)
    # peaks should sit near the integers
    peaks = []
    for i in range(1, len(xs) - 1):
        if mags[i] > mags[i - 1] and mags[i] > mags[i + 1] and mags[i] > 0.1 * mags.max():
            peaks.append(xs[i])
    assert len(peaks) >= 3, "no comb structure found"
    # each tooth of the comb peaks at a i / (a + b): unit spacing squeezed
    # by the b-envelope
    ratio = a / (a + b)
    for p in peaks:
        site = round(p / ratio)
        assert abs(p - site * ratio) <= 0.02 + 1e-9, peaks


def test_rotor_tableau_css_and_violation():
    tab = rotor_tableau(np.array([[1]]), np.zeros((1, 0), dtype=int))
    st = stab_state(tab)
    # momentum-like state: constant wave function over T
    assert [f.kind for f in st.E] == ["T"]
    assert st.q.is_zero() or all(c.is_zero() for c in st.q.phi1)
    # eigenrelation on sampled points: R(s)|phi> = |phi> for the constant
    # function, since sigma_z = 0 and p = 0
    # asymmetric h_xz^T H_z: cross cells (0,1) = 0 but (1,0) = 1/3
    Hx = np.array([[1], [1]])
    Hz = np.array([[1, 0], [-1, 0]])
    hxz_bad = [[Fraction(0), Fraction(1, 3)], [Fraction(0), Fraction(0)]]
    with pytest.raises(ConditionViolation):
        rotor_tableau(Hx, Hz, hxz_bad)


def test_rotor_css_two_mode():
    # H_x^T H_z = 0 example over T^2: X-check (1,1), Z-check (1,-1)
    Hx = np.array([[1], [1]])
    Hz = np.array([[1], [-1]])
    tab = rotor_tableau(Hx, Hz)
    assert tab.S.signature() == "T,Z"


def test_complex_gaussian_correction_on_an_integer_factor():
    """Integrating out x from exp(2 pi (z x^2 / 2 + i c x n)) over E = R x Z,
    with complex z, leaves the phase of -(i c n)^2 / 2z on the Z factor:
    a quadratic e_n^2 / 2 term with an imaginary part, checked at n = 1..3
    against the closed-form integral."""
    E, G = GroupProduct([R, Z]), GroupProduct([Z])
    eps = LinearFnData(E, G, G.identity(), [[HomCoeff(R, Z, 0), HomCoeff(Z, Z, 1)]])
    q = QuadraticFnData(E)
    q.a1[0] = QuadCoeff(R, R, -1.0, 0)
    q.phi1[0] = QuadCoeff(R, T, 0.3, 0)
    q.set_cell("phi", 0, 1, Hom2Coeff(R, Z, T, 0.2))
    red = reduce_full(QTensorData(G, E, eps, q, 0, None))
    assert [f.kind for f in red.E] == ["Z"]
    z = complex(-1.0, 0.3)
    for n in (1, 2, 3):
        want = cmath.exp(-2 * math.pi * (0.2j * n) ** 2 / (2 * z)) / cmath.sqrt(-z)
        a, ph = red.q.eval(red.E.element([n]))
        got = cmath.exp(2 * math.pi * (float(a) + 1j * float(ph)))
        assert abs(got - want) < 1e-12, (n, got, want)
