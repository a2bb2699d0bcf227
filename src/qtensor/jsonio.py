"""JSON encodings of the coefficient-level data types.

The exact field layouts are documented in docs/format.md; serialization
is stable-key-ordered so outputs diff cleanly.  Z_k and Z values must be
integers on input; any other value there raises ``NonIntegralValue``.  Row
and column counts, the lengths of a1/phi1 and the a2/phi2 cell keys must
fit the signatures, and every required key must be present; a payload
that does not, or text that is not JSON, raises ``MalformedPayload``.
"""

from __future__ import annotations

import json
from fractions import Fraction
import numpy as np

from .coeff import Hom2Coeff, HomCoeff, QuadCoeff, hom2_group, hom_group, quad_group
from .engine import QTensorData
from .errors import InvalidInput
from .fermion import FermionTensorData
from .functions import LinearFnData, QuadraticFnData
from .groups import parse_product
from .scalar import Scalar, is_exact, scalar_json
from .stab import CliffordData, StabTableau, dual_product


class NonIntegralValue(InvalidInput):
    pass


class MalformedPayload(InvalidInput):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise MalformedPayload(what)


def _get(obj, key: str, *default):
    """``obj[key]``, or the one ``default`` when the key is absent; ``obj``
    must be a JSON object, and it must hold ``key`` if no default is given."""
    _require(isinstance(obj, dict), f"expected a JSON object, got {json.dumps(obj)}")
    _require(key in obj or default, f"payload has no {key!r}")
    return obj.get(key, *default)


def _int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _scalar(obj) -> Scalar:
    """The exact or float value that ``obj`` encodes."""
    if _int(obj):
        return Fraction(obj)
    if isinstance(obj, float):
        return obj
    _require(isinstance(obj, dict) and set(obj) == {"num", "den"}
             and _int(obj["num"]) and _int(obj["den"]) and obj["den"] != 0,
             f"not a scalar encoding: {json.dumps(obj)}")
    return Fraction(obj["num"], obj["den"])


def _matrix(obj, rows: int, cols: int, what: str) -> list:
    """``obj`` checked to be a list of ``rows`` lists of ``cols`` entries."""
    _require(isinstance(obj, list) and len(obj) == rows
             and all(isinstance(r, list) and len(r) == cols for r in obj),
             f"{what} must be {rows} x {cols}")
    return obj


def _cell_key(key: str, m: int):
    """The cell (i, j) that the key "i,j" names, with i < j < m."""
    try:
        i, j = map(int, key.split(","))
    except ValueError:
        i = j = -1
    _require(0 <= i < j < m, f"cell key {key!r} is not 'i,j' with 0 <= i < j < {m}")
    return i, j


def _value(grp, obj):
    """The value ``obj`` encodes, in the group ``grp``."""
    v = _scalar(obj)
    if grp.kind in ("Zk", "Z") and not (is_exact(v) and v == int(v)):
        raise NonIntegralValue(f"{grp} value {json.dumps(obj)} is not an integer")
    return v


def _hom(src, tgt, obj) -> HomCoeff:
    return HomCoeff(src, tgt, _value(hom_group(src, tgt), obj))


def _quad(src, tgt, pair) -> QuadCoeff:
    g2, g1 = quad_group(src, tgt)
    return QuadCoeff(src, tgt, _value(g2, pair[0]), _value(g1, pair[1]))


def _cplx(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _cplx_from(v) -> complex:
    _require(isinstance(v, list) and len(v) == 2
             and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
             f"complex value {json.dumps(v)} is not a [re, im] pair of numbers")
    return complex(v[0], v[1])


def quadratic_to_json(q: QuadraticFnData) -> dict:
    return {
        "domain": q.domain.signature(),
        "a0": scalar_json(q.a0),
        "phi0": scalar_json(q.phi0),
        "a1": [[scalar_json(c.h2), scalar_json(c.h1)] for c in q.a1],
        "phi1": [[scalar_json(c.h2), scalar_json(c.h1)] for c in q.phi1],
        "a2": {f"{i},{j}": scalar_json(c.value) for (i, j), c in sorted(q.a2.items())},
        "phi2": {f"{i},{j}": scalar_json(c.value) for (i, j), c in sorted(q.phi2.items())},
    }


def quadratic_from_json(obj: dict) -> QuadraticFnData:
    from .groups import R as Rg, T as Tg

    E = parse_product(_get(obj, "domain"))
    m = len(E)
    a1 = _matrix(_get(obj, "a1", [[0, 0]] * m), m, 2, "a1")
    phi1 = _matrix(_get(obj, "phi1", [[0, 0]] * m), m, 2, "phi1")
    q = QuadraticFnData(
        E,
        _scalar(_get(obj, "a0", 0)),
        _scalar(_get(obj, "phi0", 0)),
        [_quad(E[i], Rg, v) for i, v in enumerate(a1)],
        [_quad(E[i], Tg, v) for i, v in enumerate(phi1)],
    )
    for part, A in (("a", Rg), ("phi", Tg)):
        cells = _get(obj, part + "2", {})
        _require(isinstance(cells, dict), f"{part}2 must be a JSON object")
        for key, v in cells.items():
            i, j = _cell_key(key, m)
            grp = hom2_group(E[i], E[j], A)
            q.set_cell(part, i, j, Hom2Coeff(E[i], E[j], A, _value(grp, v)))
    return q


def linear_to_json(eps: LinearFnData) -> dict:
    return {
        "domain": eps.domain.signature(),
        "codomain": eps.codomain.signature(),
        "eps0": [scalar_json(x) for x in eps.eps0],
        "eps1": [[scalar_json(c.value) for c in row] for row in eps.eps1],
    }


def linear_from_json(obj: dict) -> LinearFnData:
    E = parse_product(_get(obj, "domain"))
    G = parse_product(_get(obj, "codomain"))
    raw = _get(obj, "eps0")
    _require(isinstance(raw, list) and len(raw) == len(G), f"eps0 must have {len(G)} entries")
    eps0 = G.element([_value(Gi, x) for Gi, x in zip(G, raw)])
    cells = [[_hom(E[j], G[i], v) for j, v in enumerate(row)]
             for i, row in enumerate(_matrix(_get(obj, "eps1"), len(G), len(E), "eps1"))]
    return LinearFnData(E, G, eps0, cells)


def qtensor_to_json(t: QTensorData) -> dict:
    out = {
        "type": "qtensor",
        "G": t.G.signature(),
        "zero": t.is_zero,
        "div_weight": t.div_weight,
    }
    if not t.is_zero:
        out["E"] = t.E.signature()
        out["eps"] = linear_to_json(t.eps)
        out["q"] = quadratic_to_json(t.q)
        out["mag2"] = scalar_json(t.mag2) if t.mag2 is not None else None
    return out


def qtensor_from_json(obj: dict) -> QTensorData:
    G = parse_product(_get(obj, "G"))
    zero = _get(obj, "zero", False)
    _require(isinstance(zero, bool), "zero must be true or false")
    if zero:
        return QTensorData.zero(G)
    eps = linear_from_json(_get(obj, "eps"))
    q = quadratic_from_json(_get(obj, "q"))
    _require(eps.codomain == G and q.domain == eps.domain,
             "eps must map the domain of q into G")
    div_weight = _get(obj, "div_weight", 0)
    _require(_int(div_weight), "div_weight must be an integer")
    mag2 = _get(obj, "mag2", None)
    if mag2 is not None:
        mag2 = Fraction(_scalar(mag2))
        _require(mag2 >= 0, "mag2 must not be negative")
    return QTensorData(G, eps.domain, eps, q, div_weight, mag2)


def fermion_to_json(t: FermionTensorData) -> dict:
    return {
        "type": "fermion",
        "n": t.n,
        "l": t.l,
        "eps1": [[_cplx(v) for v in row] for row in t.eps1],
        "q2": [[_cplx(v) for v in row] for row in t.q2],
        "q0": _cplx(t.q0),
    }


def fermion_from_json(obj: dict) -> FermionTensorData:
    n, l = _get(obj, "n"), _get(obj, "l")
    _require(_int(n) and _int(l) and 0 <= 2 * l <= n,
             "fermion n and l must be integers with 0 <= 2 l <= n")
    m = n - 2 * l
    eps = [[_cplx_from(v) for v in row]
           for row in _matrix(_get(obj, "eps1"), n, m, "fermion eps1")]
    q2 = [[_cplx_from(v) for v in row] for row in _matrix(_get(obj, "q2"), m, m, "fermion q2")]
    return FermionTensorData(n, l, np.array(eps, dtype=complex).reshape(n, m),
                             np.array(q2, dtype=complex).reshape(m, m),
                             _cplx_from(_get(obj, "q0")))


def tableau_to_json(tab: StabTableau) -> dict:
    return {
        "type": "tableau",
        "H": tab.H.signature(),
        "S": tab.S.signature(),
        "sigma_x": [[scalar_json(c.value) for c in row] for row in tab.sigma_x.eps1],
        "sigma_z": [[scalar_json(c.value) for c in row] for row in tab.sigma_z.eps1],
        "p": quadratic_to_json(tab.p),
    }


def tableau_from_json(obj: dict) -> StabTableau:
    H = parse_product(_get(obj, "H"))
    S = parse_product(_get(obj, "S"))
    n, m = len(H), len(S)
    D = dual_product(H)
    sx = [[_hom(S[a], H[i], v) for a, v in enumerate(row)]
          for i, row in enumerate(_matrix(_get(obj, "sigma_x"), n, m, "sigma_x"))]
    sz = [[_hom(S[a], D[i], v) for a, v in enumerate(row)]
          for i, row in enumerate(_matrix(_get(obj, "sigma_z"), n, m, "sigma_z"))]
    p = quadratic_from_json(_get(obj, "p"))
    _require(p.domain == S, "p must be a function on S")
    return StabTableau(H, S, LinearFnData(S, H, H.identity(), sx),
                       LinearFnData(S, D, D.identity(), sz), p)


def clifford_to_json(c: CliffordData) -> dict:
    return {
        "type": "clifford",
        "H": c.H.signature(),
        "alpha": [[scalar_json(x.value) for x in row] for row in c.alpha.eps1],
        "u": quadratic_to_json(c.u),
    }


def clifford_from_json(obj: dict) -> CliffordData:
    H = parse_product(_get(obj, "H"))
    P = H * dual_product(H)
    alpha = [[_hom(P[j], P[i], v) for j, v in enumerate(row)]
             for i, row in enumerate(_matrix(_get(obj, "alpha"), len(P), len(P), "alpha"))]
    u = quadratic_from_json(_get(obj, "u"))
    _require(u.domain == P, "u must be a function on H x H*")
    return CliffordData(H, LinearFnData(P, P, P.identity(), alpha), u)


def to_json(obj) -> dict:
    if isinstance(obj, QTensorData):
        return qtensor_to_json(obj)
    if isinstance(obj, FermionTensorData):
        return fermion_to_json(obj)
    if isinstance(obj, StabTableau):
        return tableau_to_json(obj)
    if isinstance(obj, CliffordData):
        return clifford_to_json(obj)
    raise TypeError(f"no JSON encoding for {type(obj)}")


def from_json(obj: dict):
    _require(isinstance(obj, dict), "payload must be a JSON object")
    kind = obj.get("type")
    if kind == "qtensor":
        return qtensor_from_json(obj)
    if kind == "fermion":
        return fermion_from_json(obj)
    if kind == "tableau":
        return tableau_from_json(obj)
    if kind == "clifford":
        return clifford_from_json(obj)
    raise MalformedPayload(f"unknown payload type {kind!r}")


def loads(text: str, cls=object, what: str = "a payload"):
    """The payload that the JSON ``text`` encodes, which must be a ``cls``."""
    try:
        obj = from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise MalformedPayload(f"payload is not JSON: {exc}") from None
    if not isinstance(obj, cls):
        raise MalformedPayload(f"payload is not {what}")
    return obj


def dumps(obj) -> str:
    return json.dumps(to_json(obj), sort_keys=True, indent=2)
