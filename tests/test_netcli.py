"""Network DSL parsing, evaluation, and CLI subcommands."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qtensor import jsonio
from qtensor.coeff import Hom2Coeff
from qtensor.dense import materialize
from qtensor.fermion import beam_splitter, fermion_matrix
from qtensor.groups import T, Zk, parse_product
from qtensor.net import (
    NetSyntaxError,
    NetTypeError,
    parse,
    run_contract,
    verify_against_dense,
)
from qtensor.stab import clifford_identity

BELL = """
wire q0: Z2
wire q1: Z2
wire a: Z2
wire b: Z2
node s0 = ket0(a)
node s1 = ket0(b)
node h = H(a, q0a)
wire q0a: Z2
node cx = CX(q0a2, b, q0, q1)
wire q0a2: Z2
node link = I(q0a, q0a2)
open q0, q1
"""

# simpler: H|0> then CX onto |0>
BELL2 = """
wire a: Z2      # ket0 into H
wire c: Z2      # control into CX
wire t: Z2      # target ket0
wire q0: Z2
wire q1: Z2
node z0 = ket0(a)
node h = H(a, c)
node z1 = ket0(t)
node cx = CX(c, t, q0, q1)
open q0, q1
"""

# a third-order node (dense path) beside a fermion sector
T_BESIDE_FERMIONS = """
wire a: Z2
wire b: Z2
wire i0: F
wire i1: F
wire m0: F
wire m1: F
wire o0: F
wire o1: F
node st = plus(a)
node t = T(a, b)
node u1 = fbs(0.4)(i0, i1, m0, m1)
node u2 = fbs(0.6)(m0, m1, o0, o1)
open b, i0, i1, o0, o1
"""


def test_parse_one_node():
    spec = parse("wire a: Z2; wire b: Z2; node h = H(a, b)")
    assert len(spec.nodes) == 1
    assert spec.open_wires() == ["a", "b"]


def test_parse_wire_mismatch():
    with pytest.raises(NetTypeError):
        parse("wire a: Z2; wire b: Z3; node h = I(a, b)")


def test_parse_syntax_error():
    with pytest.raises(NetSyntaxError):
        parse("wire a Z2")
    with pytest.raises(NetSyntaxError):
        parse("wire a: Z2; node x = NOGATE(a)")


def test_bell_network():
    spec = parse(BELL2)
    res = run_contract(spec)
    d = materialize(res.group_part)
    want = np.zeros((2, 2), dtype=complex)
    want[0, 0] = want[1, 1] = 1 / math.sqrt(2)
    assert np.max(np.abs(d.arr - want)) < 1e-12
    ok, dev = verify_against_dense(spec, res)
    assert ok, dev


def test_tutorial_network_shape():
    # the M/T sandwich: two 3-leg tensors and a 2-leg tensor, three edges
    text = """
wire i: Z2
wire j: Z2
wire x: Z2
wire y: Z2
wire z: Z2
node t1 = CX(i, y, x, yout)
wire yout: Z2
node m = I(yout, z)
node t2 = CX(x, z, j, zz)
wire zz: Z2
node cap = plus(zz)
node src = plus(y)
open i, j
"""
    spec = parse(text)
    res = run_contract(spec)
    ok, dev = verify_against_dense(spec, res)
    assert ok, dev


def test_roundtrip_canonical():
    spec = parse(BELL2)
    text = spec.print_canonical()
    spec2 = parse(text)
    res1 = run_contract(spec)
    res2 = run_contract(spec2)
    d1, d2 = materialize(res1.group_part), materialize(res2.group_part)
    assert np.max(np.abs(d1.arr - d2.arr)) < 1e-12
    assert spec2.print_canonical() == text


def test_qudit_network():
    text = """
wire a: Z3
wire b: Z3
wire c: Z3
node plus3 = plus(a)
node f = F(a, b)
node f2 = F(b, c)
open c
"""
    spec = parse(text)
    res = run_contract(spec)
    ok, dev = verify_against_dense(spec, res)
    assert ok, dev


def test_fermion_network():
    text = """
wire i0: F
wire i1: F
wire m0: F
wire m1: F
wire o0: F
wire o1: F
node u1 = fbs(0.4)(i0, i1, m0, m1)
node u2 = fbs(0.6)(m0, m1, o0, o1)
open i0, i1, o0, o1
"""
    spec = parse(text)
    res = run_contract(spec)
    assert res.fermion_part is not None
    U = fermion_matrix(res.fermion_part, 2)
    W = fermion_matrix(beam_splitter(1.0), 2)
    assert np.max(np.abs(U - W)) < 1e-9
    ok, dev = verify_against_dense(spec, res)
    assert ok, dev


def test_mixed_wire_join_rejected():
    text = """
wire a: Z2
wire f: F
node k = ket0(a)
node fid = fid(1)(f, f2)
wire f2: F
node bad = I(f, a)
"""
    with pytest.raises((NetTypeError, NetSyntaxError)):
        spec = parse(text)
        run_contract(spec)


def test_higher_order_network_dense():
    text = """
wire i0: Z2
wire i1: Z2
wire m0: Z2
wire m1: Z2
wire o0: Z2
wire o1: Z2
node a = CS(i0, i1, m0, m1)
node b = CS(m0, m1, o0, o1)
open i0, i1, o0, o1
"""
    spec = parse(text)
    res = run_contract(spec)
    assert res.dense_part is not None
    mat = np.zeros((4, 4), dtype=complex)
    d = res.dense_part
    for idx in np.ndindex(*d.dims):
        i = idx[0] * 2 + idx[1]
        o = idx[2] * 2 + idx[3]
        mat[o, i] += d.arr[idx]
    # CS^2 = CZ
    assert np.max(np.abs(mat - np.diag([1, 1, 1, -1]))) < 1e-10


def test_inline_json_node(tmp_path):
    t = beam_splitter(0.7)
    payload = json.dumps(jsonio.to_json(t))
    text = "\n".join([
        "wire a: F", "wire b: F", "wire c: F", "wire d: F",
        f"node bs = json {payload} (a, b, c, d)",
        "open a, b, c, d",
    ])
    spec = parse(text)
    res = run_contract(spec)
    U = fermion_matrix(res.fermion_part, 2)
    assert np.max(np.abs(U - fermion_matrix(t, 2))) < 1e-12


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qtensor.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_cli_tables_selftest():
    r = run_cli("tables", "selftest", "--max-k", "4")
    assert r.returncode == 0, r.stderr
    assert "all tables consistent" in r.stdout


def test_cli_contract_and_verify(tmp_path):
    net = tmp_path / "bell.net"
    net.write_text(BELL2)
    r = run_cli("contract", str(net), "--verify")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["open_wires"] == ["q0", "q1"]
    r = run_cli("verify", str(net))
    assert r.returncode == 0, r.stderr


def test_cli_stab_state():
    r = run_cli("stab", "state", "gens:+XX,+ZZ")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["type"] == "qtensor"
    assert data["G"] == "Z2,Z2"


def test_cli_clifford_compose():
    r = run_cli("clifford", "compose", "H", "H")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    # H H = identity: alpha is the identity matrix
    assert data["alpha"] == [[1, 0], [0, 1]]


def test_cli_fermion_eval(tmp_path):
    t = beam_splitter(1.0)
    f = tmp_path / "bs.json"
    f.write_text(json.dumps(jsonio.to_json(t)))
    r = run_cli("fermion", "eval", str(f), "0110")
    assert r.returncode == 0, r.stderr
    # entry at (0,1,1,0) is i sin(1)
    assert f"{math.sin(1.0):.6f}i" in r.stdout
    assert "+0.000000" in r.stdout


def test_cli_usage_errors(tmp_path):
    r = run_cli("contract", "/nonexistent.net")
    assert r.returncode == 2
    r = run_cli()
    assert r.returncode == 2
    # generators that do not commute break the tableau condition
    r = run_cli("stab", "state", "gens:+XX,+XZ")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:")
    # a Clifford whose u^(2) does not match its alpha
    bad = clifford_identity(parse_product("Z2"))
    bad.u.set_cell("phi", 0, 1, Hom2Coeff(Zk(2), Zk(2), T, 1))
    f = tmp_path / "bad.json"
    f.write_text(jsonio.dumps(bad))
    for specs in ([str(f)], [str(f), "I"]):
        r = run_cli("clifford", "compose", *specs)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:")


def test_cli_contract_dense_beside_fermions(tmp_path):
    net = tmp_path / "t_fermion.net"
    net.write_text(T_BESIDE_FERMIONS)
    r = run_cli("contract", str(net))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert "dense" in out and "fermion" in out
