"""Network DSL parsing, evaluation, and CLI subcommands."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qtensor import cli, jsonio
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
from qtensor.stab import clifford_identity, qubit_tableau, stab_state

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


def test_zero_result_follows_the_open_clause():
    # <0|X|0> = 0 beside a qubit and a qutrit ket left open in the other order
    text = """
wire a: Z2
wire b: Z2
wire q: Z2
wire r: Z3
node k = ket0(a)
node x = X(a, b)
node z = ket0(b)
node kq = ket0(q)
node kr = ket0(r)
open r, q
"""
    spec = parse(text)
    res = run_contract(spec)
    assert res.group_part.is_zero and str(res.group_part.G) == "Z3,Z2"
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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    """``cli.main`` on ``args`` in this process, as a finished process: the
    exit code (argparse's ``SystemExit`` included) and the captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def test_cli_entry_point():
    """``python -m qtensor.cli`` runs ``cli.main`` and exits with its code."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    args = ("stab", "state", "gens:+XX,+ZZ")
    r = subprocess.run([sys.executable, "-m", "qtensor.cli", *args], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (r.returncode, r.stdout, r.stderr) == (0, run_cli(*args).stdout, "")


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
    # malformed Pauli strings, on the command line and in a net gate
    for gens in ("+XQ", "++X", "+XZ,+Z", ""):
        r = run_cli("stab", "state", "gens:" + gens)
        assert r.returncode == 2, (gens, r.stderr)
        assert r.stderr.startswith("error:")
    net = tmp_path / "stab.net"
    net.write_text("wire a: Z2\nnode s = stab(+XQ)(a)\nopen a\n")
    r = run_cli("contract", str(net))
    assert r.returncode == 2, r.stderr
    # payloads whose rows, columns or cells do not fit their signatures
    tab = {"type": "tableau", "H": "Z2,Z2", "S": "Z2", "sigma_x": [[1]],
           "sigma_z": [[0], [0]], "p": {"domain": "Z2"}}
    cliff = {"type": "clifford", "H": "Z2", "alpha": [[1, 0]], "u": {"domain": "Z2,Z2"}}
    for args, payload in ((("stab", "state"), tab), (("clifford", "compose"), cliff)):
        f.write_text(json.dumps(payload))
        r = run_cli(*args, str(f))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:")
    for part, key, value in (("eps", "eps1", [[1, 1]]), ("q", "phi1", [[0, 0]] * 2),
                             ("q", "phi2", {"0,0": 1})):
        payload = _z4_payload(0, 1)
        payload[part][key] = value
        net.write_text(_z4_node_net(payload))
        r = run_cli("contract", str(net))
        assert r.returncode == 2, (key, r.stderr)
        assert r.stderr.startswith("error:")


_CLIFFORD = jsonio.dumps(clifford_identity(parse_product("Z2")))
_TABLEAU = jsonio.dumps(qubit_tableau(["+X"]))
_STATE = jsonio.dumps(stab_state(qubit_tableau(["+X"])))
_FERMION = json.dumps({"type": "fermion", "n": 2, "l": 0,
                       "eps1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                       "q2": [[[0, 0]] * 2] * 2, "q0": [1, 0]})
# where a case's input file, or the directory holding it, goes on the command line
FILE, DIR = object(), object()


def _edited(text: str, edit) -> str:
    """The JSON ``text`` with ``edit`` applied to the object it encodes."""
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def _json_node(payload: str) -> str:
    """One inline json node with ``payload`` on a Z2 wire."""
    return f"wire w: Z2\nnode n = json {payload} (w)\nopen w\n"


@pytest.mark.parametrize("args, text", [
    # a wire whose group signature names no group
    (("contract", FILE), "wire a: Q2\nopen a\n"),
    # Clifford data on one qubit and on two
    (("clifford", "compose", "H", "CX"), None),
    # a fermion payload on n = 2 modes whose eps1 rows have lengths 3 and 2
    (("fermion", "eval", FILE, "01"), json.dumps(
        {"type": "fermion", "n": 2, "l": 0, "eps1": [[[1, 0]] * 3, [[1, 0]] * 2],
         "q2": [[[0, 0]] * 2] * 2, "q0": [1, 0]})),
    # a fermion payload without "type"
    (("fermion", "eval", FILE, "01"), json.dumps(
        {"n": 2, "l": 0, "eps1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
         "q2": [[[0, 0]] * 2] * 2, "q0": [1, 0]})),
    # a fermion payload whose eps1 cell is 7, not a [re, im] pair
    (("fermion", "eval", FILE, "01"), json.dumps(
        {"type": "fermion", "n": 2, "l": 0, "eps1": [[7, [0, 0]], [[0, 0], [1, 0]]],
         "q2": [[[0, 0]] * 2] * 2, "q0": [1, 0]})),
    # payloads of the wrong type: Clifford data or a state where a tableau
    # is expected, a tableau or a state where Clifford data is
    (("stab", "state", FILE), _CLIFFORD),
    (("stab", "state", FILE), _STATE),
    (("stab", "projector", FILE), _CLIFFORD),
    (("stab", "projector", FILE), _STATE),
    (("clifford", "compose", FILE), _TABLEAU),
    (("clifford", "compose", "H", FILE), _STATE),
    # a payload file and a json node that are not JSON
    (("stab", "state", FILE), "{not json"),
    (("contract", FILE), _json_node('{"type": }')),
    # payloads without a required key
    (("contract", FILE), _json_node('{"type": "qtensor"}')),
    (("stab", "state", FILE), _edited(_TABLEAU, lambda t: t.pop("sigma_x"))),
    (("clifford", "compose", FILE), _edited(_CLIFFORD, lambda c: c.pop("u"))),
    # a string where a scalar, or an integer, goes
    (("contract", FILE), _json_node(_edited(_STATE, lambda t: t["q"].update(a0="x")))),
    (("contract", FILE), _json_node(_edited(_STATE, lambda t: t.update(div_weight="x")))),
    # a negative mag2, which has no square root when the tensor is materialized
    (("contract", "--dense", FILE), _json_node(_edited(_STATE, lambda t: t.update(mag2=-1)))),
    # a tableau as a network node
    (("contract", FILE), _json_node(json.dumps(json.loads(_TABLEAU)))),
    # gate arguments that are not numbers
    (("contract", FILE), "wire a: F\nwire b: F\nwire c: F\nwire d: F\n"
                         "node u = fbs(x)(a, b, c, d)\n"),
    (("contract", FILE), "wire a: F\nwire b: F\nnode u = fid(x)(a, b)\n"),
    # a named qudit gate on wires of two factors
    (("contract", FILE), "wire a: Z2,Z2\nwire b: Z2,Z2\nnode h = H(a, b)\n"),
    # a contraction order naming a wire that is not declared, and one that is open
    (("contract", "--order", "zz", FILE), BELL2),
    (("contract", "--order", "c,q0", FILE), BELL2),
    # bitstrings with digits other than 0 and 1
    (("fermion", "eval", FILE, "02"), _FERMION),
    (("fermion", "eval", FILE, "0x"), _FERMION),
    # a bitstring whose length is not the number of modes
    (("fermion", "eval", FILE, "011"), _FERMION),
    # a fermion payload whose q2 is symmetric
    (("fermion", "eval", FILE, "00"), _edited(_FERMION, lambda t: t.update(
        q2=[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]))),
    # a directory where a payload file goes
    (("stab", "state", DIR), None),
    # a table bound below 1
    (("tables", "selftest", "--max-k", "-3"), None),
], ids=["bad_group", "mismatched_clifford", "ragged_fermion", "untyped_payload",
        "scalar_complex_cell", "state_of_clifford", "state_of_state", "projector_of_clifford",
        "projector_of_state", "compose_tableau", "compose_h_and_state", "payload_not_json",
        "node_not_json", "node_without_g", "tableau_without_sigma_x", "clifford_without_u",
        "string_a0", "string_div_weight", "negative_mag2", "tableau_node", "fbs_not_a_number",
        "fid_not_a_number", "gate_on_two_factor_wires", "order_undeclared_wire", "order_open_wire",
        "bitstring_digit_2", "bitstring_digit_x", "bitstring_wrong_length",
        "symmetric_fermion_q2", "directory_payload",
        "selftest_negative_max_k"])
def test_cli_invalid_input_exits_2(tmp_path, args, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text)
    r = run_cli(*(str(f) if a is FILE else str(tmp_path) if a is DIR else a for a in args))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr, r.stderr


@pytest.mark.parametrize("args, text", [
    (("contract", FILE), "wire a: Z2\nnode k = ket0(a)  # \xff\nopen a\n"),
    (("stab", "state", FILE), _TABLEAU.replace('"tableau"', '"tableau\xff"')),
], ids=["net_file", "json_payload"])
def test_cli_input_that_is_not_utf8_exits_2(tmp_path, args, text):
    f = tmp_path / "input"
    f.write_bytes(text.encode("latin-1"))
    r = run_cli(*(str(f) if a is FILE else a for a in args))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and "not UTF-8" in r.stderr, r.stderr


def _z4_payload(eps0, cell) -> dict:
    """A qtensor on G = Z4 with E = Z4, eps = eps0 + cell * e."""
    return {"type": "qtensor", "G": "Z4", "E": "Z4", "zero": False, "div_weight": 0,
            "eps": {"domain": "Z4", "codomain": "Z4", "eps0": [eps0], "eps1": [[cell]]},
            "q": {"domain": "Z4"}}


def _z4_node_net(payload: dict) -> str:
    """One inline node with the qtensor ``payload`` on a Z4 wire."""
    return f"wire w: Z4\nnode n = json {json.dumps(payload)} (w)\nopen w\n"


@pytest.mark.parametrize("eps0, cell", [
    (0, 2),  # integral control
    (0, {"num": 5, "den": 2}),
    (0, 2.5),
    ({"num": 1, "den": 3}, 1),
])
def test_cli_rejects_non_integral_discrete_values(tmp_path, eps0, cell):
    net = tmp_path / "z4.net"
    net.write_text(_z4_node_net(_z4_payload(eps0, cell)))
    r = run_cli("contract", str(net))
    if (eps0, cell) == (0, 2):
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["group"]["eps"]["eps1"] == [[2]]
    else:
        assert r.returncode == 2, r.stdout + r.stderr
        assert r.stderr.startswith("error:") and "not an integer" in r.stderr


def test_cli_contract_dense_beside_fermions(tmp_path):
    net = tmp_path / "t_fermion.net"
    net.write_text(T_BESIDE_FERMIONS)
    r = run_cli("contract", str(net))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert "dense" in out and "fermion" in out


def _z_embedding_net() -> str:
    """A node summed over E = Z through n -> (n, n) in Z2 x Z2, beside two
    Hadamards: one Z factor stays in ker eps1 whatever the order."""
    from qtensor.coeff import HomCoeff
    from qtensor.engine import QTensorData
    from qtensor.functions import LinearFnData, QuadraticFnData

    G, E = parse_product("Z2,Z2"), parse_product("Z")
    eps = LinearFnData(E, G, G.identity(), [[HomCoeff(E[0], G[0], 1)], [HomCoeff(E[0], G[1], 1)]])
    payload = json.dumps(jsonio.to_json(QTensorData(G, E, eps, QuadraticFnData.zero(E))))
    return "\n".join([
        "wire w1: Z2", "wire w2: Z2", "wire w3: Z2", "wire w4: Z2", "wire w5: Z2", "wire w6: Z2",
        f"node z = json {payload} (w1, w2)",
        "node i = I(w2, w3)", "node h1 = H(w4, w5)", "node h2 = H(w5, w6)",
        "open w1, w3, w4, w6",
    ])


def test_residual_z_rank_does_not_depend_on_order(tmp_path):
    spec = parse(_z_embedding_net())
    for order in (["w5", "w2"], ["w2", "w5"]):
        res = run_contract(spec, order)
        assert [f.kind for f in res.group_part.E].count("Z") == 1
        assert res.residual_z_rank == 1, order
    net = tmp_path / "z.net"
    net.write_text(_z_embedding_net())
    for order in ("w5,w2", "w2,w5"):
        r = run_cli("contract", str(net), "--order", order)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["residual_z_rank"] == 1, order


# a node on (Z, T) with E = T x T beside a node on Z: contracting the Z wire
# leaves a zero-reduction over T whose kernel column (1, -2) meets both T
# factors
TWO_FACTOR_CIRCLE_SUPPORT = (
    "wire s : Z\n"
    "wire a : T\n"
    'node x = json {"type": "qtensor", "G": "Z,T", "E": "T,T", "eps": {"domain": "T,T", '
    '"codomain": "Z,T", "eps0": [0, 0], "eps1": [[0, 0], [2, 1]]}, "q": {"domain": "T,T", '
    '"a0": 0, "phi0": 0, "a1": [[0, 0], [0, 0]], "phi1": [[0, 0], [0, 0]], "a2": {}, '
    '"phi2": {}}, "div_weight": 0, "mag2": 1, "zero": false} (s, a)\n'
    'node y = json {"type": "qtensor", "G": "Z", "E": "Z", "eps": {"domain": "Z", '
    '"codomain": "Z", "eps0": [0], "eps1": [[1]]}, "q": {"domain": "Z", "a0": 0, "phi0": 0, '
    '"a1": [[0, 0]], "phi1": [[0, 0]], "a2": {}, "phi2": {}}, "div_weight": 0, "mag2": 1, '
    '"zero": false} (s)\n'
)


def test_cli_zero_reduction_over_two_circle_factors(tmp_path):
    """x is 1 at s = 0 for every a and y is 1 on Z, so the sum over s is the
    constant 1 on T: the reduction drops the T factor where the kernel
    column has its entry 1."""
    net = tmp_path / "circle.net"
    net.write_text(TWO_FACTOR_CIRCLE_SUPPORT)
    r = run_cli("contract", str(net))
    assert r.returncode == 0, r.stdout + r.stderr
    out = json.loads(r.stdout)["group"]
    assert (out["G"], out["E"], out["div_weight"], out["mag2"]) == ("T", "T", 0, 1)
    assert out["eps"]["eps0"] == [0] and out["eps"]["eps1"] == [[1]]
    q = out["q"]
    assert (q["a0"], q["phi0"], q["a2"], q["phi2"]) == (0, 0, {}, {})
    assert q["a1"] == q["phi1"] == [[0, 0]]


def test_cli_zero_reduction_over_two_circle_factors_is_unsupported(tmp_path):
    # the row (3, -2) on leg a has the kernel column (2, 3), with no entry +-1
    net = tmp_path / "circle.net"
    net.write_text(TWO_FACTOR_CIRCLE_SUPPORT.replace('"eps1": [[0, 0], [2, 1]]',
                                                     '"eps1": [[0, 0], [3, -2]]'))
    r = run_cli("contract", str(net))
    assert r.returncode == 3, r.stdout + r.stderr
    assert r.stderr.startswith("unsupported case:") and "Traceback" not in r.stderr


def _self_loop_net(theta: float) -> str:
    """One beam splitter whose mode 0 input feeds its own mode 0 output."""
    return ("wire a: F\nwire b: F\nwire c: F\n"
            f"node u = fbs({theta!r})(a, b, a, c)\nopen b, c\n")


def test_cli_singular_fermion_contraction_is_unsupported(tmp_path):
    net = tmp_path / "loop.net"
    net.write_text(_self_loop_net(0.3))
    r = run_cli("contract", str(net))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["fermion"]["n"] == 2
    # at theta = pi the joined block [[0, 1 + cos(theta)], ...] vanishes
    net.write_text(_self_loop_net(math.pi))
    r = run_cli("contract", str(net))
    assert r.returncode == 3, r.stdout + r.stderr
    assert r.stderr.startswith("unsupported case:") and "Traceback" not in r.stderr


_PAIRED = json.dumps({"type": "fermion", "n": 2, "l": 1, "eps1": [[], []], "q2": [],
                      "q0": [1.0, 0.0]})


@pytest.mark.parametrize("text", [
    f"wire a: F\nwire b: F\nnode p = json {_PAIRED} (a, b)\nopen a, b\n",
    "wire a: F\nwire b: F\nwire c: F\nwire d: F\n"
    f"node u = fbs(0.3)(a, b, c, d)\nnode p = json {_PAIRED} (c, d)\nopen a, b\n",
])
def test_cli_fermion_node_with_pairs_is_unsupported(tmp_path, text):
    net = tmp_path / "paired.net"
    net.write_text(text)
    r = run_cli("contract", str(net))
    assert r.returncode == 3, r.stdout + r.stderr
    assert r.stderr.startswith("unsupported case:") and "Traceback" not in r.stderr
