"""Elementary abelian groups, finite products, and element arithmetic.

The four elementary kinds are cyclic groups Z_k, the integers Z, the
circle T = R/Z, and the reals R.  A ``GroupProduct`` is an ordered list
of elementary factors; elements are stored as tuples with one value per
factor, normalized so that equality is structural: Z_k values are least
nonnegative residues and Z values integers, both plain ``int``; T values
are reduced mod 1 and, like R values, are ``Fraction`` or ``float``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterator, Sequence, Tuple

from .errors import InvalidInput
from .scalar import Scalar, as_scalar, mod1, scalar_eq, scalar_eq_mod1


class ArityMismatch(ValueError):
    pass


class InfiniteGroup(ValueError):
    pass


class BadSignature(InvalidInput):
    """A group signature that names no elementary group."""


class ElementaryGroup:
    """One elementary group; ``kind`` is "Zk", "Z", "T" or "R", and ``k``
    the order of a Z_k.

    There is one object per group: ``ElementaryGroup("Zk", 6) is Zk(6)``,
    and copies and unpickled groups are that object too.  So equality and
    hash are the object's own, and the coefficient tables compare groups
    by identity.
    """

    __slots__ = ("kind", "k")
    _made: Dict[Tuple[str, int], "ElementaryGroup"] = {}

    def __new__(cls, kind: str, k: int = 0):
        try:
            return cls._made[kind, k]
        except KeyError:
            pass
        if kind == "Zk":
            if k < 1:
                raise ValueError("Z_k requires k >= 1")
        elif kind not in ("Z", "T", "R"):
            raise ValueError(f"unknown group kind {kind!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        cls._made[kind, k] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("elementary groups are immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return ElementaryGroup, (self.kind, self.k)

    def __repr__(self) -> str:
        return f"ElementaryGroup(kind={self.kind!r}, k={self.k})"

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
            return int(v) % self.k
        if self.kind == "Z":
            return int(v)
        if self.kind == "T":
            return mod1(v)
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


@functools.lru_cache(maxsize=None)
def Zk(k: int) -> ElementaryGroup:
    return ElementaryGroup("Zk", k)


Z = ElementaryGroup("Z")
T = ElementaryGroup("T")
R = ElementaryGroup("R")
Z1 = Zk(1)

GroupElement = Tuple[Scalar, ...]


class GroupProduct:
    """An ordered product of elementary groups.

    As with ``ElementaryGroup`` there is one object per factor tuple, so
    equality and hash are the object's own, and copies and unpickled
    products are that object too.  The identity is built with the object.
    """

    __slots__ = ("factors", "_identity")
    _made: Dict[Tuple[ElementaryGroup, ...], "GroupProduct"] = {}

    def __new__(cls, factors: Sequence[ElementaryGroup] = ()):
        factors = tuple(factors)
        try:
            return cls._made[factors]
        except KeyError:
            pass
        self = object.__new__(cls)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_identity", tuple(f.normalize(0) for f in factors))
        cls._made[factors] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("group products are immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return GroupProduct, (self.factors,)

    def __repr__(self) -> str:
        return f"GroupProduct(factors={self.factors!r})"

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
        return self._identity

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """a + (-b), the negation normalized first as ``neg`` does."""
        self._check(a)
        self._check(b)
        return tuple(f.normalize(x + f.normalize(-y)) for f, x, y in zip(self.factors, a, b))

    def eq(self, a: GroupElement, b: GroupElement) -> bool:
        return all(f.eq(x, y) for f, x, y in zip(self.factors, a, b))

    def is_identity(self, a: GroupElement) -> bool:
        ident = self.identity()
        # an equal tuple is the identity; otherwise compare within tolerance
        return a == ident or self.eq(a, ident)

    def enumerate(self) -> Iterator[GroupElement]:
        """All elements of a finite product, lexicographic order."""
        for f in self.factors:
            if not f.finite:
                raise InfiniteGroup(f"cannot enumerate factor {f}")
        ranges = [range(f.k) for f in self.factors]
        for combo in itertools.product(*ranges):
            yield combo

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
        try:
            k = int(sig[1:])
        except ValueError:
            k = 0
        if k >= 1:
            return Zk(k)
    raise BadSignature(f"bad group signature {sig!r}")


def parse_product(sig: str) -> GroupProduct:
    if not isinstance(sig, str):
        raise BadSignature(f"bad group signature {sig!r}")
    sig = sig.strip()
    if sig in ("", "0"):
        return GroupProduct()
    return GroupProduct([parse_group(part) for part in sig.split(",")])


TRIVIAL = GroupProduct()
