"""Fermionic tensors: Pfaffian oracle, worked example tables, beam
splitters, Schur-complement contraction against the dense graded
oracle, and whole networks through `run_contract`."""

import cmath
import math
import random

import numpy as np
import pytest

from qtensor.dense import (
    DenseTensor,
    TooLargeError,
    dense_contract,
    self_contract_dense,
    tensor_product_dense,
)
from qtensor import net
from qtensor.fermion import (
    FermionTensorData,
    NontrivialEmbedding,
    NotAntisymmetric,
    SingularBlock,
    beam_splitter,
    fermion_contract,
    fermion_dense,
    fermion_entry,
    fermion_identity,
    fermion_matrix,
    fermion_tensor_product,
    permute_modes,
    pfaffian,
    pfaffian_cofactor,
)
from qtensor.net import NetworkSpec, Node, parse, run_contract, verify_against_dense
from test_netcli import run_cli


def random_antisym(n, rng):
    A = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                  for _ in range(n)])
    return A - A.T


def test_pfaffian_small_cases():
    a = 2.5 - 1j
    assert abs(pfaffian(np.array([[0, a], [-a, 0]])) - a) < 1e-12
    assert pfaffian(np.zeros((3, 3))) == 0
    rng = random.Random(3)
    M = random_antisym(4, rng)
    want = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
    assert abs(pfaffian(M) - want) < 1e-12


def test_pfaffian_vs_cofactor_and_det():
    rng = random.Random(5)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            M = random_antisym(n, rng)
            pf = pfaffian(M)
            assert abs(pf - pfaffian_cofactor(M)) < 1e-9
            det = np.linalg.det(M)
            assert abs(pf * pf - det) < 1e-8 * max(1.0, abs(det))


def test_pfaffian_swap_antisymmetry():
    rng = random.Random(7)
    M = random_antisym(6, rng)
    perm = [1, 0, 2, 3, 4, 5]
    Mp = M[np.ix_(perm, perm)]
    assert abs(pfaffian(Mp) + pfaffian(M)) < 1e-10


def test_pfaffian_not_antisymmetric():
    with pytest.raises(NotAntisymmetric):
        pfaffian(np.eye(2))


def test_paper_three_mode_example():
    rng = random.Random(9)
    for _ in range(5):
        a, b, c, g = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
        t = FermionTensorData(3, 1, np.array([[a], [b], [c]]), np.zeros((1, 1)), g)
        want = {
            (0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0,
            (0, 1, 1): g * a, (1, 0, 1): g * b, (1, 1, 0): g * c,
            (1, 1, 1): 0,
        }
        for x, v in want.items():
            assert abs(fermion_entry(t, list(x)) - v) < 1e-12, x


def test_paper_four_mode_example():
    rng = random.Random(11)
    for _ in range(5):
        a, b, c, d, e, f, g, h = (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)
        )
        alpha, gamma = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        eps = np.array([[a, e], [b, f], [c, g], [d, h]])
        q2 = np.array([[0, alpha], [-alpha, 0]])
        t = FermionTensorData(4, 1, eps, q2, gamma)
        # indices decode as (x0, x1, x2, x3) = (outer row, outer col,
        # inner row, inner col) of the displayed block matrix
        assert abs(fermion_entry(t, [1, 1, 1, 1]) - gamma * alpha) < 1e-12
        assert abs(fermion_entry(t, [0, 0, 1, 1]) - gamma * (a * f - e * b)) < 1e-12
        assert abs(fermion_entry(t, [0, 1, 0, 1]) - gamma * (a * g - e * c)) < 1e-12
        assert abs(fermion_entry(t, [0, 1, 1, 0]) - gamma * (a * h - e * d)) < 1e-12
        assert abs(fermion_entry(t, [1, 0, 0, 1]) - gamma * (b * g - f * c)) < 1e-12
        assert abs(fermion_entry(t, [1, 0, 1, 0]) - gamma * (b * h - f * d)) < 1e-12
        assert abs(fermion_entry(t, [1, 1, 0, 0]) - gamma * (c * h - g * d)) < 1e-12
        assert fermion_entry(t, [1, 0, 0, 0]) == 0
        assert fermion_entry(t, [0, 0, 0, 0]) == 0


def test_parity_grading():
    rng = random.Random(13)
    t = FermionTensorData(4, 1, np.array([[1, 0], [0, 1], [1, 1], [0.5, 2]]),
                          np.array([[0, 0.3], [-0.3, 0]]), 1.0)
    for x in np.ndindex(2, 2, 2, 2):
        if sum(x) % 2 == 1 or sum(x) < 2:
            assert fermion_entry(t, list(x)) == 0


def test_identity_matrices():
    for n in (1, 2):
        t = fermion_identity(n)
        U = fermion_matrix(t, n)
        assert np.max(np.abs(U - np.eye(2 ** n))) < 1e-12


def test_beam_splitter_matrix():
    for th in (0.0, 0.3, 1.0, math.pi / 2):
        t = beam_splitter(th)
        U = fermion_matrix(t, 2)
        c, s = math.cos(th), math.sin(th)
        want = np.array(
            [[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        assert np.max(np.abs(U - want)) < 1e-10, th


def contract_fermion_ops(t1: FermionTensorData, t2: FermionTensorData,
                         modes: int) -> FermionTensorData:
    """Compose two operator tensors (in-block, out-block): t2 after t1."""
    big = fermion_tensor_product(t1, t2)
    m = modes
    # order: (t1.in, t1.out, t2.in, t2.out) -> (t1.in, t2.out | t1.out, t2.in)
    perm = (
        list(range(m))
        + list(range(3 * m, 4 * m))
        + list(range(m, 2 * m))
        + list(range(2 * m, 3 * m))
    )
    big = permute_modes(big, perm)
    return fermion_contract(big, m)


def dense_compose(t1: FermionTensorData, t2: FermionTensorData, modes: int) -> np.ndarray:
    out1 = [False] * modes + [True] * modes
    d1 = fermion_dense(t1, out1)
    d2 = fermion_dense(t2, out1)
    pairs = [(0, modes + j, 1, j) for j in range(modes)]
    open_order = [(0, j) for j in range(modes)] + [(1, modes + j) for j in range(modes)]
    return dense_contract([d1, d2], pairs, open_order)


def test_beam_splitter_composition_angles_add():
    for t1v, t2v in [(0.3, 0.5), (1.0, -0.4), (0.7, 0.7)]:
        t = contract_fermion_ops(beam_splitter(t1v), beam_splitter(t2v), 2)
        want = beam_splitter(t1v + t2v)
        U = fermion_matrix(t, 2)
        W = fermion_matrix(want, 2)
        assert np.max(np.abs(U - W)) < 1e-9, (t1v, t2v)


def test_beam_splitter_inverse_is_identity():
    t = contract_fermion_ops(beam_splitter(0.8), beam_splitter(-0.8), 2)
    U = fermion_matrix(t, 2)
    assert np.max(np.abs(U - np.eye(4))) < 1e-9


def test_contract_identity_law():
    rng = random.Random(17)
    for _ in range(5):
        q2 = random_antisym(2, rng)
        t = FermionTensorData(2, 0, np.eye(2), q2, 1.0)
        got = contract_fermion_ops(t, fermion_identity(1), 1)
        for x in np.ndindex(2, 2):
            assert abs(fermion_entry(got, list(x)) - fermion_entry(t, list(x))) < 1e-9


def test_contract_vs_dense_random():
    rng = random.Random(19)
    done = 0
    while done < 40:
        n_open = rng.choice([0, 2, 4])
        c = rng.choice([1, 2])
        total = n_open + 2 * c
        if total > 8 or total == 0:
            continue
        q2 = random_antisym(total, rng)
        t = FermionTensorData(total, 0, np.eye(total), q2,
                              complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        try:
            res = fermion_contract(t, c)
        except SingularBlock:
            continue
        # dense reference: contract mode n+j (outgoing) with n+c+j (ingoing)
        out_flags = [False] * n_open + [True] * c + [False] * c
        d = fermion_dense(t, out_flags)
        cur = d
        rem = c
        while rem:
            cur = self_contract_dense(cur, n_open + rem - 1, n_open + 2 * rem - 1)
            rem -= 1
        want = cur.arr
        got = fermion_dense(res).arr
        assert np.max(np.abs(got - want)) < 1e-8, (n_open, c)
        done += 1


def test_graded_sign_order_independence():
    rng = random.Random(23)
    for _ in range(10):
        n = 6
        q2 = random_antisym(n, rng)
        t = FermionTensorData(n, 0, np.eye(n), q2, 1.0)
        d = fermion_dense(t, [False, False, True, True, False, False])
        # contract (2,4) then (3,5) vs (3,5) then (2,4)
        a = self_contract_dense(self_contract_dense(d, 2, 4), 2, 3)
        b = self_contract_dense(self_contract_dense(d, 3, 5), 2, 3)
        assert np.max(np.abs(a.arr - b.arr)) < 1e-10


def test_trivial_embedding_check_matches_allclose():
    rng = np.random.default_rng(29)
    for n in (0, 1, 3, 6):
        for dev in (0.0, 5e-9, 2e-8, 9e-6, 2e-5, np.nan, np.inf):
            for i, j in [(0, 0), (0, n - 1), (n - 1, 0)] if n else [(None, None)]:
                eps = np.eye(n, dtype=complex) + 1e-9 * rng.uniform(-1, 1, (n, n))
                if i is not None:
                    eps[i, j] += dev * (1 if rng.uniform() < 0.5 else 1j)
                t = FermionTensorData(n, 0, eps, np.zeros((n, n)), 1.0)
                assert t.has_trivial_embedding() == np.allclose(eps, np.eye(n)), (n, dev, i, j)
    paired = FermionTensorData(2, 1, np.zeros((2, 0)), np.zeros((0, 0)), 1.0)
    assert not paired.has_trivial_embedding()


def test_nontrivial_embedding_raises_a_named_error():
    paired = FermionTensorData(2, 1, np.zeros((2, 0)), np.zeros((0, 0)), 1.0)
    bs = beam_splitter(0.3)
    with pytest.raises(NontrivialEmbedding):
        fermion_tensor_product(bs, paired)
    with pytest.raises(NontrivialEmbedding):
        permute_modes(paired, [1, 0])
    with pytest.raises(NontrivialEmbedding):
        fermion_contract(paired, 1)
    assert issubclass(NontrivialEmbedding, ValueError)


# ---------------------------------------------------------------------------
# networks


def one_shot_contract(spec: NetworkSpec) -> FermionTensorData:
    """Oracle: the product of every fermion node, one Schur complement over
    all joined pairs (first-declared end outgoing), then the open order."""
    nodes = [nd for nd in spec.nodes if isinstance(nd.payload, FermionTensorData)]
    big = nodes[0].payload
    legs = list(nodes[0].legs)
    for nd in nodes[1:]:
        big = fermion_tensor_product(big, nd.payload)
        legs += nd.legs
    pairs = [w for w in dict.fromkeys(legs) if legs.count(w) == 2]
    opens = [w for w in legs if w not in pairs]
    perm = ([legs.index(w) for w in opens] + [legs.index(w) for w in pairs]
            + [len(legs) - 1 - legs[::-1].index(w) for w in pairs])
    big = permute_modes(big, perm)
    if pairs:
        big = fermion_contract(big, len(pairs))
    return permute_modes(big, [opens.index(w) for w in spec.open_wires() if w in opens])


def random_fermion_net(rng: random.Random, kind: str) -> NetworkSpec:
    """2-4 random antisymmetric nodes of 2-4 modes, at most 6 open modes.

    ``kind`` "self_loop" joins two legs of node 0, "split" pairs legs only
    within two halves of the nodes (two components), "shuffled" declares
    the nodes in a random order."""
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
    slots = [(ni, li) for ni, m in enumerate(sizes) for li in range(m)]
    legs = [[None] * m for m in sizes]
    spec = NetworkSpec()

    def join(a, b):
        w = f"w{len(spec.wires)}"
        spec.wires[w] = "F"
        legs[a[0]][a[1]] = legs[b[0]][b[1]] = w

    if kind == "self_loop":
        join((0, 0), (0, sizes[0] - 1))
    groups = [slots]
    if kind == "split":
        cut = len(sizes) // 2
        groups = [[s for s in slots if s[0] < cut], [s for s in slots if s[0] >= cut]]
    for group in groups:
        free = [s for s in group if legs[s[0]][s[1]] is None]
        rng.shuffle(free)
        keep_open = min(len(free), rng.randint(0, 3))
        while len(free) - keep_open >= 2:
            join(free.pop(), free.pop())
    opens = []
    for ni, m in enumerate(sizes):
        for li in range(m):
            if legs[ni][li] is None:
                w = f"o{len(opens)}"
                spec.wires[w] = "F"
                legs[ni][li] = w
                opens.append(w)
    rng.shuffle(opens)
    spec.open_order = opens
    for ni, m in enumerate(sizes):
        q0 = complex(rng.uniform(0.5, 1.5), rng.uniform(-1, 1))
        t = FermionTensorData(m, 0, np.eye(m), random_antisym(m, rng), q0)
        spec.nodes.append(Node(f"n{ni}", t, legs[ni]))
    if kind == "shuffled":
        rng.shuffle(spec.nodes)
    spec.validate()
    return spec


def _contract_or_singular(fn, spec):
    try:
        return fn(spec)
    except SingularBlock:
        return None


@pytest.mark.parametrize("kind", ["random", "self_loop", "split", "shuffled"])
def test_networks_agree_with_dense_and_one_shot(kind):
    rng = random.Random({"random": 31, "self_loop": 37, "split": 41, "shuffled": 43}[kind])
    singular = 0
    for _ in range(15):
        spec = random_fermion_net(rng, kind)
        got = _contract_or_singular(lambda s: run_contract(s).fermion_part, spec)
        want = _contract_or_singular(one_shot_contract, spec)
        # both routes raise SingularBlock, or neither does
        assert (got is None) == (want is None)
        if got is None:
            singular += 1
            continue
        assert got.n == want.n
        assert np.max(np.abs(got.q2 - want.q2), initial=0.0) <= 1e-12 * max(
            1.0, float(np.max(np.abs(want.q2), initial=0.0)))
        assert abs(got.q0 - want.q0) <= 1e-12 * max(1.0, abs(want.q0))
        ok, dev = verify_against_dense(spec, run_contract(spec))
        assert ok, dev
    assert singular == 0


def test_singular_self_loop_raises_on_both_routes():
    spec = parse("wire a: F\nwire b: F\nwire c: F\n"
                 "node u = fbs(3.141592653589793)(a, b, a, c)\nopen b, c\n")
    with pytest.raises(SingularBlock):
        run_contract(spec)
    with pytest.raises(SingularBlock):
        one_shot_contract(spec)


def test_closed_ring_is_a_scalar():
    spec = parse("wire a: F\nwire b: F\nwire c: F\nwire d: F\n"
                 "node u = fbs(0.3)(a, b, c, d)\nnode v = fbs(0.5)(c, d, a, b)\n")
    got = run_contract(spec).fermion_part
    want = one_shot_contract(spec)
    assert got.n == 0 and abs(got.q0 - want.q0) < 1e-12
    ok, dev = verify_against_dense(spec, run_contract(spec))
    assert ok, dev


def brickwork_net(n: int, depth: int, rng: random.Random):
    """``depth`` layers of beam splitters on (i, i + 1), alternating
    offsets; open modes are the n inputs, then the n outputs."""
    ver = [0] * n
    lines = [f"wire f{i}_0: F" for i in range(n)]
    gates = []
    for layer in range(depth):
        for i in range(layer % 2, n - 1, 2):
            theta = rng.uniform(-math.pi, math.pi)
            ins = [f"f{i}_{ver[i]}", f"f{i + 1}_{ver[i + 1]}"]
            ver[i] += 1
            ver[i + 1] += 1
            outs = [f"f{i}_{ver[i]}", f"f{i + 1}_{ver[i + 1]}"]
            lines += [f"wire {w}: F" for w in outs]
            lines.append(f"node b{len(gates)} = fbs({theta!r})({', '.join(ins + outs)})")
            gates.append((i, theta))
    lines.append("open " + ", ".join([f"f{i}_0" for i in range(n)]
                                     + [f"f{i}_{ver[i]}" for i in range(n)]))
    return "\n".join(lines) + "\n", gates


def test_brickwork_is_the_product_of_mode_rotations():
    n = 8
    text, gates = brickwork_net(n, n, random.Random(47))
    t = run_contract(parse(text)).fermion_part
    want = np.eye(n, dtype=complex)
    for i, theta in gates:
        g = np.eye(n, dtype=complex)
        g[i:i + 2, i:i + 2] = [[math.cos(theta), 1j * math.sin(theta)],
                               [1j * math.sin(theta), math.cos(theta)]]
        want = g @ want
    assert t.n == 2 * n
    assert abs(fermion_entry(t, [0] * (2 * n)) - 1) < 1e-12
    got = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            x = [0] * (2 * n)
            x[j] = x[n + k] = 1
            got[k, j] = fermion_entry(t, x)
    assert np.max(np.abs(got - want)) < 1e-12


def test_shuffled_brickwork_matches_one_shot():
    rng = random.Random(53)
    for n in (4, 6):
        text, _ = brickwork_net(n, n, rng)
        spec = parse(text)
        rng.shuffle(spec.nodes)
        got = run_contract(spec).fermion_part
        want = one_shot_contract(spec)
        assert np.max(np.abs(got.q2 - want.q2)) < 1e-12
        assert abs(got.q0 - want.q0) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 12])
def test_brickwork_steps_stay_on_the_frontier(n, monkeypatch):
    seen = []

    def spy(t, c):
        seen.append(t.n)
        return fermion_contract(t, c)

    monkeypatch.setattr(net, "fermion_contract", spy)
    text, _ = brickwork_net(n, n, random.Random(59))
    run_contract(parse(text))
    assert seen and max(seen) <= 2 * n + 4, max(seen)


def test_dense_oracle_refuses_oversized_fermion_networks(monkeypatch):
    text, _ = brickwork_net(6, 6, random.Random(61))  # 15 nodes, 60 modes
    spec = parse(text)
    res = run_contract(spec)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense tensor built past the size limit")

    monkeypatch.setattr(net, "fermion_dense", no_dense)
    with pytest.raises(TooLargeError, match="size limit"):
        verify_against_dense(spec, res)


def test_cli_dense_refusal_exits_3(tmp_path):
    text, _ = brickwork_net(6, 6, random.Random(61))
    f = tmp_path / "brickwork6.net"
    f.write_text(text)
    for args in (("verify", str(f)), ("contract", str(f), "--verify")):
        r = run_cli(*args)
        assert r.returncode == 3, (args, r.returncode, r.stderr)
        assert "unsupported case" in r.stderr and "size limit" in r.stderr


def test_nontrivial_embedding_in_a_network():
    paired = FermionTensorData(2, 1, np.zeros((2, 0)), np.zeros((0, 0)), 1.0)
    one = NetworkSpec({"a": "F", "b": "F"}, [Node("p", paired, ["a", "b"])])
    two = NetworkSpec({"a": "F", "b": "F", "c": "F", "d": "F"},
                      [Node("u", beam_splitter(0.3), ["a", "b", "c", "d"]),
                       Node("p", paired, ["c", "d"])])
    for spec in (one, two):
        with pytest.raises(NontrivialEmbedding):
            run_contract(spec)
