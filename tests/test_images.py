"""The generator-image matrix of ``LinearFnData`` against the coefficient
tables: the ``eps1`` view gives back the cells a function was built from,
and composition and application agree with ``coeff.compose`` and
``coeff.hom_apply`` applied cell by cell."""

import os
import random
import sys
from fractions import Fraction

from qtensor import coeff
from qtensor.coeff import HomCoeff, compose, hom_apply, hom_group, hom_zero
from qtensor.functions import LinearFnData
from qtensor.groups import GroupProduct, R, T, Z, Zk
from qtensor.net import parse, run_contract
from qtensor.stab import qubit_tableau, stab_projector, stab_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = [Zk(k) for k in range(2, 13)] + [Z, T, R]


def coeff_values(grp):
    """Sample coefficient values: every one of a finite group, exact and
    float ones otherwise."""
    if grp.kind == "Zk":
        return list(range(grp.k))
    if grp.kind == "Z":
        return [-2, -1, 0, 1, 3]
    if grp.kind == "T":
        return [Fraction(0), Fraction(1, 2), Fraction(2, 3), 0.3125, 0.7]
    return [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3), 0.375, -1.25]


def element_values(G):
    if G.kind == "Zk":
        return list(range(G.k))
    if G.kind == "Z":
        return [-3, 0, 2, 5]
    if G.kind == "T":
        return [Fraction(0), Fraction(1, 3), Fraction(3, 4), 0.6]
    return [Fraction(0), Fraction(1), Fraction(-2, 3), 1.75]


def random_cell(G, A, rng):
    return HomCoeff(G, A, rng.choice(coeff_values(hom_group(G, A))))


def random_linear(D, C, rng, affine=False):
    cells = [[random_cell(Dj, Ci, rng) if rng.random() < 0.7 else hom_zero(Dj, Ci) for Dj in D]
             for Ci in C]
    eps0 = C.element([rng.choice(element_values(Ci)) for Ci in C]) if affine else C.identity()
    return LinearFnData(D, C, eps0, cells)


def random_product(rng, n):
    return GroupProduct([rng.choice(GROUPS) for _ in range(n)])


def test_eps1_view_gives_back_the_cells():
    for G in GROUPS:
        for A in GROUPS:
            cells = [[HomCoeff(G, A, v)] for v in coeff_values(hom_group(G, A))]
            D, C = GroupProduct([G]), GroupProduct([A] * len(cells))
            lin = LinearFnData(D, C, C.identity(), cells)
            assert lin.eps1 == tuple(tuple(row) for row in cells), (G, A)
            assert [list(row) for row in LinearFnData(D, C, C.identity(), lin.eps1).img] == lin.img


def _cellwise_compose(f, gamma):
    """sum_k compose(gamma[k][j], f[i][k]), the composite cell by cell."""
    fc, gc = f.eps1, gamma.eps1
    out = []
    for i, Ci in enumerate(f.codomain):
        row = []
        for j, Hj in enumerate(gamma.domain):
            acc = hom_zero(Hj, Ci)
            for k in range(len(f.domain)):
                if not fc[i][k].is_zero() and not gc[k][j].is_zero():
                    acc = HomCoeff(Hj, Ci, acc.value + compose(gc[k][j], fc[i][k]).value)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _cellwise_apply(f, e):
    """f(e) cell by cell; a coordinate that is an exact 0 adds nothing, so a
    float cell does not make the value a float there."""
    out = []
    for i, Ci in enumerate(f.codomain):
        acc = f.eps0[i]
        for j in range(len(f.domain)):
            if e[j] != 0 or isinstance(e[j], float):
                acc = acc + hom_apply(f.eps1[i][j], e[j])
        out.append(Ci.normalize(acc))
    return tuple(out)


def test_composition_and_application_match_the_cells():
    rng = random.Random(11)
    for _ in range(400):
        H, E, C = (random_product(rng, rng.randint(1, 3)) for _ in range(3))
        gamma = random_linear(H, E, rng)
        f = random_linear(E, C, rng, affine=True)
        assert f.compose_hom(gamma).eps1 == _cellwise_compose(f, gamma), (H, E, C)
        e = E.element([rng.choice(element_values(Ej)) for Ej in E])
        assert f(e) == _cellwise_apply(f, e), (E, C, e)
        affine = f.compose_affine(gamma, e)
        assert affine.eps1 == _cellwise_compose(f, gamma)
        assert affine.eps0 == _cellwise_apply(f, e)


def test_images_read_back_as_cells():
    """Z_k -> Z_l images that are multiples of l / gcd(k, l), and Z_k -> T
    images c / k, come back as the same coefficient cells."""
    D, C = GroupProduct([Zk(4), Zk(6)]), GroupProduct([Zk(6), T])
    lin = LinearFnData.of_images(D, C, C.identity(), [[3, 2], [Fraction(1, 4), Fraction(5, 6)]])
    assert lin.eps1 == ((HomCoeff(Zk(4), Zk(6), 1), HomCoeff(Zk(6), Zk(6), 2)),
                        (HomCoeff(Zk(4), T, 1), HomCoeff(Zk(6), T, 5)))


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _count_coefficient_objects(monkeypatch) -> list:
    """A list that gains one entry per HomCoeff, QuadCoeff or Hom2Coeff built
    from now on."""
    made = []
    for cls in (coeff.HomCoeff, coeff.QuadCoeff, coeff.Hom2Coeff):
        def counted(self, plain=cls.__post_init__):
            made.append(1)
            plain(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return made


def test_brickwork_builds_few_coefficient_objects(monkeypatch):
    """One contraction of the seed-7 8 x 3 brickwork of the benchmark,
    parsed beforehand, builds no coefficient object (HomCoeff, QuadCoeff or
    Hom2Coeff) over its 9 reduction steps: linear maps and quadratic
    functions hold values, not one coefficient per cell, and the Gauss sums
    read values too.  Before quadratic functions were held as values it
    built 1550; the counter itself sees the one cell built after the run."""
    workloads = _workloads()
    rng = random.Random(7)
    texts = {(n, d): workloads.circuit_net(n, workloads.brickwork_circuit(rng, n, d))
             for n, d in workloads.QUBIT_SIZES}
    spec = parse(texts[(8, 3)])
    made = _count_coefficient_objects(monkeypatch)
    run_contract(spec)
    assert made == [], len(made)
    coeff.QuadCoeff(Zk(2), T, 1, 0)
    assert len(made) == 1


def test_tableaux_and_clifford_data_build_no_coefficient_objects(monkeypatch):
    """Tableaux and Clifford data hold their maps as image matrices and
    their phases as values: a Steane tableau with signs drawn as Z twists,
    as in the benchmark's stabilizer_states, is built with qubit_tableau
    and gives its code state and a projector, and the first Gaussian chain
    of the seed-7 free_modes is built from gaussian_clifford and
    contracted, with no coefficient object at all.
    With tableaux and Clifford data held as cells they built 1789 in one
    states_and_modes pass."""
    workloads = _workloads()
    rng = random.Random(7)
    steane = workloads._z_twist(rng, ["+" + b for b in workloads.STEANE])
    gauss = next(inst for inst in workloads.free_modes(7) if inst.name.startswith("gauss"))
    made = _count_coefficient_objects(monkeypatch)
    stab_state(qubit_tableau(steane))
    stab_projector(qubit_tableau(steane[:6]))
    gauss.run()
    assert len(made) == 0, len(made)
