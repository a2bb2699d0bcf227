"""Exact-or-float scalar values.

Scalars are exact (`int` or `fractions.Fraction`) or floats.  Z_k and Z
values are plain `int`; T and R values are `Fraction` or `float`.
Arithmetic between exact values stays exact, except that `int / int` is
a float, so exact division goes through `Fraction`; any operation touching
a float yields a float.  Circle values are kept reduced to [0, 1).

Every float decision of the package reads one of two rules:

- zero and equality: a value is 0, or two values are equal, as its group
  says (``ElementaryGroup.eq``, ``coeff.value_is_zero``): exact values
  compare exactly, and floats within ``TOL`` (on the circle, mod 1);
- elimination pivots: a float pivot is usable when its magnitude exceeds
  ``PIVOT_TOL`` times the largest magnitude read (``solve.gauss_jordan``,
  ``fermion.pfaffian``).

Exact data never reaches either tolerance.  Two bounds on whole float
arrays keep values of their own, each commented where it stands:
numpy's allclose pair in ``fermion`` and the fermion oracle's bound in
``net``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

#: absolute tolerance of a float zero or a float equality
TOL = 1e-9
#: relative threshold of a float elimination pivot
PIVOT_TOL = 1e-12


def as_scalar(x) -> Scalar:
    # int and float first: isinstance against Fraction, an ABC, is slow for other types
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, Fraction)):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def is_exact(x: Scalar) -> bool:
    # int and float first, as in as_scalar: isinstance against Fraction goes through ABCMeta
    if isinstance(x, int):
        return True
    if isinstance(x, float):
        return False
    return isinstance(x, Fraction)


def mod1(x: Scalar) -> Scalar:
    """Reduce to the fundamental domain [0, 1) of R/Z."""
    if isinstance(x, int):
        return Fraction(0)
    if not isinstance(x, float) and isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        return x if 0 <= n < d else Fraction(n % d, d)
    r = math.fmod(float(x), 1.0)
    if r < 0.0:
        r += 1.0
    if r == 1.0:
        r = 0.0
    return r


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    """Exact equality for rational pairs, |a-b| <= TOL otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= TOL


def scalar_eq_mod1(a: Scalar, b: Scalar) -> bool:
    """Equality on the circle: distance measured mod 1."""
    if is_exact(a) and is_exact(b):
        return mod1(a - b) == 0
    d = mod1(float(a) - float(b))
    return min(d, 1.0 - d) <= TOL


def scalar_json(x: Scalar):
    if is_exact(x):
        f = Fraction(x)
        if f.denominator == 1:
            return int(f)
        return {"num": f.numerator, "den": f.denominator}
    return float(x)
