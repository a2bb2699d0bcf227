"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error or invalid
network, tableau or Clifford data, 3 unsupported case (kernel class or
divergent data).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .dense import DivergentPrefactor, InfiniteGroupError, materialize
from .engine import NotIntegrable, NotInvertible
from .fermion import FermionTensorData, fermion_entry
from .groups import parse_product
from .net import (
    ContractionResult,
    NetSyntaxError,
    NetTypeError,
    parse_file,
    run_contract,
    verify_against_dense,
)
from .selftest import run_selftest
from .solve import UnsupportedKernel
from .stab import (
    CliffordData,
    CocycleMismatch,
    ConditionViolation,
    NotSymplectic,
    OrthogonalityViolation,
    UnsolvableOffset,
    clifford_check,
    clifford_compose,
    clifford_identity,
    qubit_tableau,
    stab_projector,
    stab_state,
)

INVALID_INPUT = (NetSyntaxError, NetTypeError, ConditionViolation, OrthogonalityViolation,
                 NotSymplectic, CocycleMismatch, UnsolvableOffset)
UNSUPPORTED = (UnsupportedKernel, NotIntegrable, NotInvertible,
               InfiniteGroupError, DivergentPrefactor)


def _print_result(res: ContractionResult, as_dense: bool) -> None:
    out = {"open_wires": res.open_wires}
    if res.group_part is not None:
        if as_dense:
            d = materialize(res.group_part)
            out["group_dense"] = [
                [list(idx), [float(np.real(d.arr[idx])), float(np.imag(d.arr[idx]))]]
                for idx in np.ndindex(*d.dims)
            ]
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
        d = res.dense_part
        out["dense"] = [
            [list(idx), [float(np.real(d.arr[idx])), float(np.imag(d.arr[idx]))]]
            for idx in np.ndindex(*d.dims)
        ]
    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    print()


def cmd_contract(args) -> int:
    spec = parse_file(args.file)
    order = args.order.split(",") if args.order else None
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
    from .functions import QuadraticFnData
    from .coeff import Hom2Coeff, HomCoeff, QuadCoeff
    from .groups import GroupProduct, Zk
    from .stab import dual_product

    named = specpath.upper()
    if named in ("H", "S", "I", "CX", "CZ"):
        H1 = parse_product("Z2")
        P = H1 * dual_product(H1)
        if named == "I":
            return clifford_identity(H1)
        if named == "H":
            alpha = [[HomCoeff(P[0], P[0], 0), HomCoeff(P[1], P[0], 1)],
                     [HomCoeff(P[0], P[1], 1), HomCoeff(P[1], P[1], 0)]]
            u = QuadraticFnData.zero(P)
            u.set_cell("phi", 0, 1, Hom2Coeff(P[0], P[1], parse_product("T")[0], 1))
            return CliffordData(H1, alpha, u)
        if named == "S":
            alpha = [[HomCoeff(P[0], P[0], 1), HomCoeff(P[1], P[0], 0)],
                     [HomCoeff(P[0], P[1], 1), HomCoeff(P[1], P[1], 1)]]
            u = QuadraticFnData.zero(P)
            u.phi1[0] = QuadCoeff(Zk(2), parse_product("T")[0], 1, 0)
            return CliffordData(H1, alpha, u)
        H2 = parse_product("Z2,Z2")
        P2 = H2 * dual_product(H2)
        if named == "CX":
            rows = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
            alpha = [[HomCoeff(P2[j], P2[i], rows[i][j]) for j in range(4)]
                     for i in range(4)]
            return CliffordData(H2, alpha, QuadraticFnData.zero(P2))
        if named == "CZ":
            rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
            alpha = [[HomCoeff(P2[j], P2[i], rows[i][j]) for j in range(4)]
                     for i in range(4)]
            u = QuadraticFnData.zero(P2)
            u.set_cell("phi", 0, 1, Hom2Coeff(P2[0], P2[1], parse_product("T")[0], 1))
            return CliffordData(H2, alpha, u)
    with open(specpath, "r", encoding="utf-8") as fh:
        c = jsonio.from_json(json.load(fh))
    clifford_check(c)
    return c


def cmd_clifford(args) -> int:
    if args.action != "compose":
        print("usage: qtensor clifford compose SPEC...", file=sys.stderr)
        return 2
    data = [_load_clifford(p) for p in args.specs]
    if not data:
        print("need at least one Clifford spec", file=sys.stderr)
        return 2
    out = data[0]
    for c in data[1:]:
        out = clifford_compose(c, out)  # compose right-to-left like a circuit
    print(jsonio.dumps(out))
    return 0


def _load_tableau(path: str):
    if path.startswith("gens:"):
        return qubit_tableau(path[len("gens:"):].split(","))
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.from_json(json.load(fh))


def cmd_stab(args) -> int:
    tab = _load_tableau(args.tableau)
    t = stab_state(tab) if args.action == "state" else stab_projector(tab)
    print(jsonio.dumps(t))
    return 0


def cmd_fermion(args) -> int:
    if args.action != "eval":
        print("usage: qtensor fermion eval DATA.json BITSTRING", file=sys.stderr)
        return 2
    with open(args.data, "r", encoding="utf-8") as fh:
        t = jsonio.from_json(json.load(fh))
    if not isinstance(t, FermionTensorData):
        print("payload is not fermionic tensor data", file=sys.stderr)
        return 2
    bits = [int(c) for c in args.bitstring]
    if len(bits) != t.n:
        print(f"bitstring length {len(bits)} != {t.n} modes", file=sys.stderr)
        return 2
    v = fermion_entry(t, bits)
    print(f"({v.real:+.6f}{v.imag:+.6f}i)")
    return 0


def cmd_tables(args) -> int:
    if args.action != "selftest":
        print("usage: qtensor tables selftest [--max-k K]", file=sys.stderr)
        return 2
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
    except INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UNSUPPORTED as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
