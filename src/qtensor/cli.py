"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, an input
that cannot be read, or any error derived from ``errors.InvalidInput``
(a malformed network or payload, data that breaks its conditions, a bad
argument), 3 any error derived from ``errors.Unsupported`` (a kernel
class, divergent data, or a dense evaluation past its size limit).  The
class that is raised decides the code; nothing here lists error classes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .dense import materialize
from .errors import InvalidInput, Unsupported
from .fermion import FermionTensorData, fermion_entry
from .net import ContractionResult, _read_utf8, parse_file, run_contract, verify_against_dense
from .selftest import run_selftest
from .stab import (
    QUBIT_GATES,
    CliffordData,
    StabTableau,
    clifford_check,
    clifford_compose,
    qubit_clifford,
    qubit_tableau,
    stab_projector,
    stab_state,
)


def _dense_json(d) -> list:
    """The entries of a dense tensor as [index, [re, im]] pairs."""
    return [[list(idx), [float(np.real(d.arr[idx])), float(np.imag(d.arr[idx]))]]
            for idx in np.ndindex(*d.dims)]


def _print_result(res: ContractionResult, as_dense: bool) -> None:
    out = {"open_wires": res.open_wires}
    if res.group_part is not None:
        if as_dense:
            out["group_dense"] = _dense_json(materialize(res.group_part))
        else:
            out["group"] = jsonio.to_json(res.group_part)
        if res.residual_z_rank:
            out["residual_z_rank"] = res.residual_z_rank
        if res.div_weight:
            out["div_weight"] = res.div_weight
            print(f"warning: divergence weight {res.div_weight:+d} "
                  "(infinite measure factors present)", file=sys.stderr)
    if res.fermion_part is not None:
        out["fermion"] = jsonio.to_json(res.fermion_part)
    if res.dense_part is not None:
        out["dense"] = _dense_json(res.dense_part)
    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    print()


def cmd_contract(args) -> int:
    spec = parse_file(args.file)
    order = [w.strip() for w in args.order.split(",") if w.strip()] if args.order else None
    res = run_contract(spec, order)
    if args.verify:
        ok, dev = verify_against_dense(spec, res)
        print(f"verify: max deviation {dev:.3e}", file=sys.stderr)
        if not ok:
            print("verification FAILED", file=sys.stderr)
            return 1
    _print_result(res, args.dense)
    return 0


def cmd_verify(args) -> int:
    spec = parse_file(args.file)
    res = run_contract(spec, None)
    ok, dev = verify_against_dense(spec, res)
    print(f"max deviation {dev:.3e}: {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _load_clifford(specpath: str) -> CliffordData:
    if specpath.upper() in QUBIT_GATES:
        return qubit_clifford(specpath.upper())
    c = jsonio.loads(_read_utf8(specpath), CliffordData, "Clifford data")
    clifford_check(c)
    return c


def cmd_clifford(args) -> int:
    data = [_load_clifford(p) for p in args.specs]
    if not data:
        print("need at least one Clifford spec", file=sys.stderr)
        return 2
    out = data[0]
    for c in data[1:]:
        out = clifford_compose(c, out)  # compose right-to-left like a circuit
    print(jsonio.dumps(out))
    return 0


def _load_tableau(path: str) -> StabTableau:
    if path.startswith("gens:"):
        return qubit_tableau(path[len("gens:"):].split(","))
    return jsonio.loads(_read_utf8(path), StabTableau, "a stabilizer tableau")


def cmd_stab(args) -> int:
    tab = _load_tableau(args.tableau)
    t = stab_state(tab) if args.action == "state" else stab_projector(tab)
    print(jsonio.dumps(t))
    return 0


def cmd_fermion(args) -> int:
    t = jsonio.loads(_read_utf8(args.data), FermionTensorData, "fermionic tensor data")
    if set(args.bitstring) - {"0", "1"}:
        raise InvalidInput(f"bitstring {args.bitstring!r} is not made of the digits 0 and 1")
    v = fermion_entry(t, [int(c) for c in args.bitstring])
    print(f"({v.real:+.6f}{v.imag:+.6f}i)")
    return 0


def cmd_tables(args) -> int:
    if args.max_k < 1:
        raise InvalidInput(f"--max-k {args.max_k} is not a positive integer")
    ok = run_selftest(args.max_k, log=lambda s: print(s, file=sys.stderr))
    if ok:
        print(f"all tables consistent (k,l,m <= {args.max_k})")
        return 0
    print("table verification FAILED")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qtensor",
        description="Contract networks of quadratic tensors over abelian groups "
                    "and free-fermion modes.",
    )
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("contract", help="contract a network file")
    p.add_argument("file")
    p.add_argument("--order", help="comma-separated wire contraction order")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--dense", action="store_true")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("verify", help="contract and diff against the dense oracle")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("clifford", help="operations on Clifford data")
    p.add_argument("action", choices=["compose"])
    p.add_argument("specs", nargs="*")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("stab", help="stabilizer tableau constructions")
    p.add_argument("action", choices=["state", "projector"])
    p.add_argument("tableau", help="TABLEAU.json or gens:+XZ,-ZX,...")
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("fermion", help="fermionic tensor operations")
    p.add_argument("action", choices=["eval"])
    p.add_argument("data")
    p.add_argument("bitstring")
    p.set_defaults(func=cmd_fermion)

    p = sub.add_parser("tables", help="coefficient table verification")
    p.add_argument("action", choices=["selftest"])
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(func=cmd_tables)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Unsupported as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
