"""The benchmark's references, checked on their own, and each output
check shown to reject a deliberately corrupted result.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math
import random

import numpy as np
import pytest

import refs
import workloads as W
from qtensor.net import parse, run_contract
from qtensor.stab import qubit_tableau, stab_projector, stab_state


# -- references --------------------------------------------------------------


def test_bell_and_ghz_from_the_statevector_simulator():
    r = 1 / math.sqrt(2)
    bell = refs.simulate(2, [("H", 0), ("CX", 0, 1)])
    assert np.allclose(bell, np.array([[r, 0], [0, r]]))
    ghz = refs.simulate(3, [("H", 0), ("CX", 0, 1), ("CX", 1, 2)])
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = want[1, 1, 1] = r
    assert np.allclose(ghz, want)
    # CZ on |++> and S on |1>
    plus = refs.simulate(2, [("H", 0), ("H", 1), ("CZ", 0, 1)])
    assert np.allclose(plus, np.array([[1, 1], [1, -1]]) / 2)
    assert np.allclose(refs.simulate(1, [("H", 0), ("S", 0)]), np.array([r, 1j * r]))


def test_qutrit_fourier_squared_is_negation():
    w = np.exp(2j * math.pi / 3)
    F = np.array([[w ** (a * b) for b in range(3)] for a in range(3)]) / math.sqrt(3)
    neg = np.zeros((3, 3))
    for g in range(3):
        neg[(-g) % 3, g] = 1
    assert np.allclose(F @ F, neg)
    # so F F F is the inverse the mirror circuits use
    assert np.allclose(F @ F @ F @ F, np.eye(3))
    assert W.inverse_ops([("F", 0)]) == [("F", 0)] * 3


def test_single_rotation_propagator():
    t = 1.3
    ct, st = math.cos(t), math.sin(t)
    P = refs.chain_action([refs.rotation(t)])
    for go, gi in [(0.4, 0.6), (-1.1, 0.2), (0.9, -0.7)]:
        want = (ct * (go * go + gi * gi) - 2 * go * gi) / (4 * math.pi * st)
        assert abs(refs.metaplectic_phase(P, go, gi) - want) < 1e-12


def test_chain_of_rotations_adds_angles():
    P = refs.chain_action([refs.rotation(0.4), refs.rotation(0.8)])
    assert np.allclose(P, refs.chain_action([refs.rotation(1.2)]))


def test_beam_splitter_matrix():
    for th in np.linspace(-2.0, 2.0, 7):
        c, s = math.cos(th), math.sin(th)
        want = np.array([[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]])
        U = refs.beam_splitter_matrix(th)
        assert np.allclose(U, want)
        assert np.allclose(U.conj().T @ U, np.eye(4))
        assert np.allclose(U[1:3, 1:3], refs.beam_splitter_one_particle(th))
    two = refs.brickwork_one_particle(2, [(0, 0.25), (0, 0.5)])
    assert np.allclose(two, refs.beam_splitter_one_particle(0.75))


def test_tableau_generator_states_are_fixed_by_their_generators():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            gates = refs.random_clifford_gates(rng, n, 5 * n)
            psi = refs.simulate(n, gates).reshape(-1)
            gens = refs.stabilizers_of(n, gates)
            for g in gens:
                assert np.allclose(refs.pauli_matrix(g) @ psi, psi), (gates, g)
            assert abs(refs.overlap_up_to_phase(refs.code_state(gens), psi) - 1) < 1e-9


# -- each check rejects a corrupted result ------------------------------------


def _reject(check, *args):
    with pytest.raises(W.CheckFailed):
        check(*args)


def test_statevector_check_rejects_a_flipped_gate():
    gates = [("H", 0), ("S", 0), ("CX", 0, 1), ("H", 1), ("CZ", 0, 1)]
    res = run_contract(parse(W.circuit_net(2, gates)))
    W.check_statevector(res, refs.simulate(2, gates))
    flipped = gates[:2] + [("CX", 1, 0)] + gates[3:]
    _reject(W.check_statevector, res, refs.simulate(2, flipped))


def test_mirror_check_rejects_a_wrong_inverse():
    ops = [("F", 0), ("P", 0, 1), ("F", 0)]
    good = W.mirror_spec((3,), ops + W.inverse_ops(ops))
    W.check_identity(run_contract(good), 1)
    bad = W.inverse_ops(ops)
    bad[3] = ("P", 0, 1)  # the phase gate not inverted
    _reject(W.check_identity, run_contract(W.mirror_spec((3,), ops + bad)), 1)


def test_stabilizer_checks_reject_a_wrong_sign():
    gens = ["+XX", "+ZZ"]
    st = stab_state(qubit_tableau(gens))
    W.check_stab_state(st, gens)
    _reject(W.check_stab_state, st, ["+XX", "-ZZ"])
    pt = stab_projector(qubit_tableau(gens[:1]))
    W.check_projector(pt, gens[:1])
    _reject(W.check_projector, pt, ["-XX"])


def test_fermion_check_rejects_a_wrong_angle():
    gates = [(0, 0.3), (1, -0.7), (0, 1.1)]
    res = run_contract(parse(W.fermion_spec(3, gates)))
    W.check_fermion(res, refs.brickwork_one_particle(3, gates))
    _reject(W.check_fermion, res, refs.brickwork_one_particle(3, [(0, 0.3), (1, 0.7), (0, 1.1)]))


def test_gaussian_check_rejects_a_wrong_order():
    Ls = [refs.rotation(0.5) @ refs.squeezer(0.3), refs.rotation(0.7) @ refs.squeezer(-0.2)]
    res = W.gaussian_chain_run(Ls)
    W.check_gaussian(res, refs.chain_action(Ls))
    _reject(W.check_gaussian, res, refs.chain_action(Ls[::-1]))
