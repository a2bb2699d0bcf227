"""Malformed input ends in exit 2 or 3, never in an uncaught exception.

Hypothesis mutates the ten ``nets/`` files and the JSON encodings of a
stabilizer tableau, Clifford data, a fermion tensor and a qtensor, and runs
``cli.main`` in-process on the result.  A mutation drops a line or a key,
replaces a group signature with a malformed token or another Z_k, makes a
row ragged, puts a string or another number where a number goes, or adds
or drops a leg.  Another number keeps a payload well formed, so that the
mutated data reaches the engine.  Valid qtensor payloads over Z, T, Z2 and
Z3 joined by one Z or T wire end in exit 0 or 3.
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtensor import cli, jsonio
from qtensor.coeff import hom2_group, hom_group, quad_group
from qtensor.fermion import beam_splitter
from qtensor.groups import T, Z1, parse_product
from qtensor.net import build_gate
from qtensor.stab import qubit_clifford, qubit_tableau

ROOT = pathlib.Path(__file__).resolve().parent.parent
NETS = {p.name: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("nets/*.net"))}

# signature keys of the payloads, and what a mutation may put there
SIG_KEYS = {"G", "E", "domain", "codomain", "H", "S"}
SIG_TOKENS = ["Z2", "Z3", "Z5", "Z1", "Z", "T", "R", "F", "Q2", "Z0", "Z-1", "Zx", "2", ""]
NUMBERS = [0, 1, 2, 3, -1, 0.5, -0.25, {"num": 1, "den": 3}]

PAYLOADS = {
    "tableau": jsonio.to_json(qubit_tableau(["+XZ", "-ZX"])),
    "clifford": jsonio.to_json(qubit_clifford("CX")),
    "fermion": jsonio.to_json(beam_splitter(0.4)),
    "qtensor": jsonio.to_json(build_gate("CZ", [], ["Z3"] * 4)),
}

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def run(argv) -> int:
    """``cli.main(argv)`` with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _slots(obj, pred):
    """The (container, key) slots of the JSON tree ``obj`` whose key and
    value satisfy ``pred``, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for k, v in items:
        if pred(k, v):
            out.append((obj, k))
        if isinstance(v, (dict, list)):
            out += _slots(v, pred)
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def mutate_json(draw, payload):
    """A copy of ``payload`` with one mutation, or the copy unchanged when the
    drawn kind has nothing to act on."""
    obj = json.loads(json.dumps(payload))
    kind = draw(st.sampled_from(["drop", "signature", "leg", "ragged", "string", "number"]))
    if kind == "drop":
        slots = _slots(obj, lambda k, v: True)
    elif kind == "signature":
        slots = _slots(obj, lambda k, v: k in SIG_KEYS)
    elif kind == "leg":
        slots = _slots(obj, lambda k, v: (k in SIG_KEYS and isinstance(v, str))
                       or (k == "n" and _is_number(v)))
    elif kind == "ragged":
        slots = _slots(obj, lambda k, v: isinstance(v, list) and v and isinstance(v[0], list))
    else:
        slots = _slots(obj, lambda k, v: _is_number(v))
    if not slots:
        return obj
    parent, key = draw(st.sampled_from(slots))
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "signature":
        parent[key] = draw(st.sampled_from(SIG_TOKENS))
    elif kind == "leg":
        if key == "n":
            parent[key] = value + draw(st.sampled_from([-1, 1]))
        else:
            parts = value.split(",")
            parent[key] = ",".join(parts[:-1] if draw(st.booleans()) else parts + ["Z3"])
    elif kind == "ragged":
        row = value[draw(st.integers(0, len(value) - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0] if row else 0)
    else:
        parent[key] = "x" if kind == "string" else draw(st.sampled_from(NUMBERS))
    return obj


_WIRE = re.compile(r"^(wire\s+\w+\s*:\s*)([\w,/]+)")
_LEGS = re.compile(r"\(([^()]*)\)\s*$")
_NUMBER = re.compile(r"(?<![\w.])\d+(\.\d+)?")


def mutate_net(draw, text: str) -> str:
    """``text`` with one line changed, dropped or given a mutated payload."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop", "signature", "leg", "string", "number", "json"]))
    pick = {
        "drop": lambda s: s.strip() and not s.startswith("#"),
        "signature": _WIRE.match,
        "leg": lambda s: s.startswith("node") and _LEGS.search(s),
        "string": lambda s: not s.startswith("#") and _NUMBER.search(s.split("#")[0]),
        "number": lambda s: not s.startswith("#") and _NUMBER.search(s.split("#")[0]),
        "json": lambda s: " json " in s,
    }[kind]
    where = [i for i, s in enumerate(lines) if pick(s)]
    if not where:
        return text
    i = draw(st.sampled_from(where))
    line = lines[i]
    if kind == "drop":
        del lines[i]
    elif kind == "signature":
        lines[i] = _WIRE.sub(lambda m: m.group(1) + draw(st.sampled_from(SIG_TOKENS)), line)
    elif kind == "leg":
        m = _LEGS.search(line)
        legs = [w.strip() for w in m.group(1).split(",") if w.strip()]
        if legs and draw(st.booleans()):
            del legs[draw(st.integers(0, len(legs) - 1))]
        else:
            legs.append(draw(st.sampled_from(legs + ["extra"])) if legs else "extra")
        lines[i] = line[:m.start()] + f"({', '.join(legs)})"
    elif kind in ("string", "number"):
        m = draw(st.sampled_from(list(_NUMBER.finditer(line.split("#")[0]))))
        new = "x" if kind == "string" else str(draw(st.sampled_from([0, 1, 2, 3, 4, 7])))
        lines[i] = line[:m.start()] + new + line[m.end():]
    else:
        start, end = line.index("{"), line.rindex("}") + 1
        payload = mutate_json(draw, json.loads(line[start:end]))
        lines[i] = line[:start] + json.dumps(payload) + line[end:]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_mutated_nets_exit_0_2_or_3(workdir, data):
    name = data.draw(st.sampled_from(sorted(NETS)))
    path = workdir / name
    path.write_text(mutate_net(data.draw, NETS[name]))
    assert run(["contract", str(path)]) in (0, 2, 3)


def _net_of_qtensor(payload) -> str:
    """One json node on four Z3 wires whose legs 0 and 2 are joined."""
    wires = "".join(f"wire w{i}: Z3\n" for i in (0, 1, 3))
    return f"{wires}node n = json {json.dumps(payload)} (w0, w1, w0, w3)\n"


@FUZZ
@given(data=st.data())
def test_mutated_payloads_exit_0_2_or_3(workdir, data):
    kind = data.draw(st.sampled_from(sorted(PAYLOADS)))
    payload = mutate_json(data.draw, PAYLOADS[kind])
    path = workdir / f"{kind}.json"
    if kind == "qtensor":
        path = workdir / "qtensor.net"
        path.write_text(_net_of_qtensor(payload))
        argv = ["contract", str(path)]
    else:
        path.write_text(json.dumps(payload))
        argv = {"tableau": ["stab", "state", str(path)],
                "clifford": ["clifford", "compose", str(path), str(path)],
                "fermion": ["fermion", "eval", str(path), "0110"]}[kind]
    assert run(argv) in (0, 2, 3)


FACTORS = ["Z", "T", "Z2", "Z3"]


def _value(draw, grp):
    """A value in the coefficient group ``grp``: an integer in a discrete
    group, a fraction with a small denominator in T."""
    n = draw(st.integers(-3, 3))
    if grp.kind in ("Zk", "Z"):
        return n
    return {"num": n, "den": draw(st.sampled_from([1, 2, 3, 4, 6]))}


def valid_qtensor(draw, G: str):
    """A well-formed qtensor payload on the legs ``G`` with 0-2 E factors from
    Z, T, Z2 and Z3, integer images and a phase part q_phi."""
    E = ",".join(draw(st.lists(st.sampled_from(FACTORS), max_size=2)))
    Gp, Ep = parse_product(G), parse_product(E)
    eps1 = [[draw(st.integers(-2, 2)) if hom_group(Ej, Gi) is not Z1 else 0 for Ej in Ep]
            for Gi in Gp]
    phi1 = [[_value(draw, grp) for grp in quad_group(Ej, T)] for Ej in Ep]
    phi2 = {f"{i},{j}": _value(draw, hom2_group(Ep[i], Ep[j], T))
            for i in range(len(Ep)) for j in range(i + 1, len(Ep)) if draw(st.booleans())}
    return {"type": "qtensor", "G": G, "E": E, "zero": False, "div_weight": 0, "mag2": 1,
            "eps": {"domain": E, "codomain": G, "eps0": [draw(st.integers(-1, 1)) for _ in Gp],
                    "eps1": eps1},
            "q": {"domain": E, "a0": 0, "phi0": 0, "a1": [[0, 0]] * len(Ep), "phi1": phi1,
                  "a2": {}, "phi2": phi2}}


def valid_pair_net(draw) -> str:
    """Two json qtensor nodes that share one Z or T wire s, each with 0-1
    more open legs."""
    shared = draw(st.sampled_from(["Z", "T"]))
    lines, nodes = [f"wire s: {shared}"], []
    for name in ("x", "y"):
        legs = [("s", shared)] + [(f"{name}o", f) for f in
                                  draw(st.lists(st.sampled_from(FACTORS), max_size=1))]
        lines += [f"wire {w}: {f}" for w, f in legs[1:]]
        payload = valid_qtensor(draw, ",".join(f for _, f in legs))
        nodes.append(f"node {name} = json {json.dumps(payload)} ({', '.join(w for w, _ in legs)})")
    return "\n".join(lines + nodes) + "\n"


@FUZZ
@given(data=st.data())
def test_valid_z_and_t_payloads_exit_0_or_3(workdir, data):
    path = workdir / "pair.net"
    path.write_text(valid_pair_net(data.draw))
    assert run(["contract", str(path)]) in (0, 3)


def test_z_and_t_census_has_at_most_13_unsupported_pairs(workdir, monkeypatch):
    """The census of the Z/T pairs that the engine does not reduce yet: at
    most 13 of the 300 derandomized pairs of the test above exit 3.  Its
    exit codes are collected by running it again; Hypothesis derives the
    derandomized examples from the test's source, so that test stays as it
    is and draws the same pairs."""
    codes = []

    def record(argv, contract=run):
        codes.append(contract(argv))
        return codes[-1]

    monkeypatch.setattr(sys.modules[__name__], "run", record)
    test_valid_z_and_t_payloads_exit_0_or_3(workdir=workdir)
    assert len(codes) == 300 and codes.count(3) <= 13, (len(codes), codes.count(3))
