"""Every shipped network file must pass oracle verification, and its
contraction must keep the presentation pinned in data/nets_contract.json.

After a change that alters the presentation on purpose, rewrite the pinned
file from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_nets_corpus as t; \\
        json.dump(t.contractions(), open('tests/data/nets_contract.json', 'w'), \\
        indent=1, sort_keys=True)"

and say why in CHANGES.md.
"""

import glob
import json
import math
import os

import numpy as np
import pytest

from qtensor.dense import materialize
from qtensor.jsonio import qtensor_to_json
from qtensor.net import parse_file, run_contract, verify_against_dense
from qtensor.stab import qubit_tableau, stab_state

NETS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "nets", "*.net")))
PINNED = os.path.join(os.path.dirname(__file__), "data", "nets_contract.json")


def contractions() -> dict:
    """The JSON of each corpus file's group part and its residual Z rank."""
    out = {}
    for path in NETS:
        res = run_contract(parse_file(path))
        g = res.group_part
        out[os.path.basename(path)] = {
            "group_part": None if g is None else json.loads(json.dumps(qtensor_to_json(g))),
            "residual_z_rank": res.residual_z_rank,
        }
    return out


def test_corpus_present():
    assert len(NETS) >= 8


@pytest.mark.parametrize("path", NETS, ids=[os.path.basename(p) for p in NETS])
def test_corpus_verifies(path):
    spec = parse_file(path)
    res = run_contract(spec)
    if res.dense_part is not None and res.group_part is None:
        return  # dense evaluation path has no independent second route here
    ok, dev = verify_against_dense(spec, res)
    assert ok, f"{os.path.basename(path)} deviates by {dev}"


def test_corpus_matches_pinned_contractions():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = contractions()
    assert sorted(got) == sorted(pinned)
    for name in got:
        # compare the serialized text, so an exact 0 and a float 0.0 differ
        assert json.dumps(got[name], sort_keys=True) == json.dumps(pinned[name], sort_keys=True), name


def test_bell_value():
    spec = parse_file([p for p in NETS if p.endswith("bell.net")][0])
    res = run_contract(spec)
    d = materialize(res.group_part)
    want = np.zeros((2, 2), dtype=complex)
    want[0, 0] = want[1, 1] = 1 / math.sqrt(2)
    assert np.max(np.abs(d.arr - want)) < 1e-12


def test_five_qubit_encoder_matches_code_state():
    spec = parse_file([p for p in NETS if p.endswith("five_qubit_encoder.net")][0])
    res = run_contract(spec)
    st = materialize(res.group_part).arr.reshape(-1)
    # the encoded |0> is stabilized by the four checks and the logical Z
    from test_stabilizer import string_matrix

    for s in ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ", "+ZZZZZ"]:
        W = string_matrix(s)
        assert np.max(np.abs(W @ st - st)) < 1e-9, s
    # and equals the tableau code state up to global phase
    tab = qubit_tableau(["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ", "+ZZZZZ"])
    want = materialize(stab_state(tab)).arr.reshape(-1)
    i = int(np.argmax(np.abs(want)))
    phase = st[i] / want[i]
    nrm = np.linalg.norm(st)
    assert abs(abs(phase) - nrm) < 1e-9
    assert np.max(np.abs(st - phase * want)) < 1e-9


def test_fermion_chain_value():
    spec = parse_file([p for p in NETS if p.endswith("fermion_chain.net")][0])
    res = run_contract(spec)
    from qtensor.fermion import beam_splitter, fermion_matrix

    got = fermion_matrix(res.fermion_part, 2)
    want = fermion_matrix(beam_splitter(1.0), 2)
    assert np.max(np.abs(got - want)) < 1e-9
