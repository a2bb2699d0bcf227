"""Exact-or-float scalar values.

Scalars are either exact rationals (`fractions.Fraction`, covering all
integers) or floats.  Arithmetic between exact values stays exact; any
operation touching a float yields a float.  Values living on the circle
group are kept reduced to [0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

#: default tolerance for comparisons involving floats
TOL = 1e-9


def as_scalar(x) -> Scalar:
    if isinstance(x, (Fraction, int)):
        return x if isinstance(x, Fraction) else Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def mod1(x: Scalar) -> Scalar:
    """Reduce to the fundamental domain [0, 1) of R/Z."""
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return f - math.floor(f)
    r = math.fmod(float(x), 1.0)
    if r < 0.0:
        r += 1.0
    if r == 1.0:
        r = 0.0
    return r


def scalar_eq(a: Scalar, b: Scalar, tol: float = TOL) -> bool:
    """Exact equality for rational pairs, |a-b| <= tol otherwise."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) == Fraction(b)
    return abs(float(a) - float(b)) <= tol


def scalar_eq_mod1(a: Scalar, b: Scalar, tol: float = TOL) -> bool:
    """Equality on the circle: distance measured mod 1."""
    if is_exact(a) and is_exact(b):
        return mod1(Fraction(a) - Fraction(b)) == 0
    d = mod1(float(a) - float(b))
    return min(d, 1.0 - d) <= tol


def snap_rational(x: Scalar, max_den: int, tol: float = TOL) -> Scalar:
    """Round a float to a nearby fraction with small denominator, if any.

    Used to keep phases exact after operations (Gauss sums) whose results
    are known to be rational with bounded denominator.
    """
    if is_exact(x):
        return Fraction(x)
    f = Fraction(float(x)).limit_denominator(max_den)
    if abs(float(f) - float(x)) <= tol:
        return f
    return float(x)


def scalar_json(x: Scalar):
    if is_exact(x):
        f = Fraction(x)
        if f.denominator == 1:
            return int(f)
        return {"num": f.numerator, "den": f.denominator}
    return float(x)


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        return Fraction(obj["num"], obj["den"])
    raise TypeError(f"not a scalar encoding: {obj!r}")
