"""Elementary abelian groups, finite products, and element arithmetic.

The four elementary kinds are cyclic groups Z_k, the integers Z, the
circle T = R/Z, and the reals R.  A ``GroupProduct`` is an ordered list
of elementary factors; elements are stored as tuples with one value per
factor, normalized so that equality is structural (Z_k values as least
nonnegative residues, T values reduced mod 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

from .scalar import Scalar, as_scalar, mod1, scalar_eq, scalar_eq_mod1


class ArityMismatch(ValueError):
    pass


class InfiniteGroup(ValueError):
    pass


@dataclass(frozen=True)
class ElementaryGroup:
    kind: str  # "Zk" | "Z" | "T" | "R"
    k: int = 0

    def __post_init__(self):
        if self.kind == "Zk":
            if self.k < 1:
                raise ValueError("Z_k requires k >= 1")
        elif self.kind not in ("Z", "T", "R"):
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def finite(self) -> bool:
        return self.kind == "Zk"

    @property
    def order(self) -> int:
        if not self.finite:
            raise InfiniteGroup(f"{self} is infinite")
        return self.k

    def normalize(self, v) -> Scalar:
        if self.kind == "Zk":
            return Fraction(int(v) % self.k)
        if self.kind == "Z":
            return Fraction(int(v))
        if self.kind == "T":
            return mod1(as_scalar(v))
        return as_scalar(v)

    def neg(self, v) -> Scalar:
        return self.normalize(-v)

    def add(self, a, b) -> Scalar:
        return self.normalize(a + b)

    def eq(self, a, b) -> bool:
        if self.kind == "T":
            return scalar_eq_mod1(a, b)
        if self.kind in ("Zk", "Z"):
            return int(a) == int(b)
        return scalar_eq(a, b)

    def __str__(self) -> str:
        return f"Z{self.k}" if self.kind == "Zk" else self.kind


def Zk(k: int) -> ElementaryGroup:
    return ElementaryGroup("Zk", k)


Z = ElementaryGroup("Z")
T = ElementaryGroup("T")
R = ElementaryGroup("R")
Z1 = Zk(1)

GroupElement = Tuple[Scalar, ...]


@dataclass(frozen=True)
class GroupProduct:
    factors: Tuple[ElementaryGroup, ...]

    def __init__(self, factors: Sequence[ElementaryGroup] = ()):
        object.__setattr__(self, "factors", tuple(factors))

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, i) -> ElementaryGroup:
        return self.factors[i]

    def __iter__(self):
        return iter(self.factors)

    def __mul__(self, other: "GroupProduct") -> "GroupProduct":
        return GroupProduct(self.factors + other.factors)

    @property
    def finite(self) -> bool:
        return all(f.finite for f in self.factors)

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.order
        return n

    def element(self, values: Sequence) -> GroupElement:
        if len(values) != len(self.factors):
            raise ArityMismatch(
                f"expected {len(self.factors)} components, got {len(values)}"
            )
        return tuple(f.normalize(v) for f, v in zip(self.factors, values))

    def identity(self) -> GroupElement:
        return tuple(f.normalize(0) for f in self.factors)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))

    def eq(self, a: GroupElement, b: GroupElement) -> bool:
        return all(f.eq(x, y) for f, x, y in zip(self.factors, a, b))

    def is_identity(self, a: GroupElement) -> bool:
        return self.eq(a, self.identity())

    def enumerate(self) -> Iterator[GroupElement]:
        """All elements of a finite product, lexicographic order."""
        for f in self.factors:
            if not f.finite:
                raise InfiniteGroup(f"cannot enumerate factor {f}")
        ranges = [range(f.k) for f in self.factors]
        for combo in itertools.product(*ranges):
            yield tuple(Fraction(v) for v in combo)

    def signature(self) -> str:
        return ",".join(str(f) for f in self.factors)

    def _check(self, a) -> None:
        if len(a) != len(self.factors):
            raise ArityMismatch(
                f"element arity {len(a)} does not match group {self.signature()}"
            )

    def __str__(self) -> str:
        return self.signature() if self.factors else "0"


def parse_group(sig: str) -> ElementaryGroup:
    sig = sig.strip()
    if sig == "Z":
        return Z
    if sig == "T":
        return T
    if sig == "R":
        return R
    if sig.startswith("Z"):
        return Zk(int(sig[1:]))
    raise ValueError(f"bad group signature {sig!r}")


def parse_product(sig: str) -> GroupProduct:
    sig = sig.strip()
    if sig in ("", "0"):
        return GroupProduct()
    return GroupProduct([parse_group(part) for part in sig.split(",")])


TRIVIAL = GroupProduct()
