"""Exact arithmetic: extended rationals, simple slopes, continued fractions.

This module also holds ``_Value``, the base of the package's immutable value
classes.

Slope values are rational numbers or the single formal value ``INFINITY``
(conceptually 1/0; there is no signed infinity).  Continued fractions follow
the convention

    [n1, n2, ..., nk] = n1 + 1/(n2 + 1/( ... + 1/nk))

evaluated with the formal rules 1/0 = INFINITY and x + 1/INFINITY = x.

Two special expansion shapes are provided.  The "even-odd" shape
[2a1, b1, ..., 2an, bn] (even entries in the odd positions) encodes braid
syllables for slopes with odd numerator.  The all-even shape, computed for a
pair (a, b) with a odd, is the normal form behind the 2-bridge formulas.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "INFINITY",
    "ExtRational",
    "SimpleSlope",
    "cf_eval",
    "expand_odd_numerator",
    "expand_all_even",
    "mod_inverse",
]


class _Infinity:
    """The formal slope 1/0.  There is a single instance, INFINITY."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

ExtRational = Fraction | _Infinity


class _Value:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Instances compare equal field
    by field within one class, hash their field tuple, refuse assignment,
    print as ``Name(field=value, ...)`` and rebuild from their fields under
    copy and pickle.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # the raising __setattr__ rules out pickle's default slot restore
        return (type(self), self._fields())


class SimpleSlope(_Value):
    """A class [p/q] in Q/Z, stored with q >= 1 and 0 <= p < q.

    The trivial class is written 0/1.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 1:
            raise DomainError("simple slope needs q >= 1")
        if not 0 <= p < q:
            raise DomainError("simple slope needs 0 <= p < q")
        if p == 0:
            if q != 1:
                raise DomainError("the trivial class is written 0/1")
        elif math.gcd(p, q) != 1:
            raise DomainError(f"simple slope {p}/{q} is not reduced")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_fraction(cls, x: Fraction) -> "SimpleSlope":
        """The class of x modulo 1."""
        return cls(x.numerator % x.denominator, x.denominator)

    def negate(self) -> "SimpleSlope":
        """The class of -p/q modulo 1."""
        return SimpleSlope.from_fraction(Fraction(-self.p, self.q))

    def __str__(self) -> str:
        return f"[ {self.p}/{self.q} ]"


def cf_eval(entries: Sequence[int]) -> ExtRational:
    """Value of the continued fraction [n1, ..., nk].

    Evaluation is total: a zero tail makes the next level INFINITY, and
    x + 1/INFINITY = x, so e.g. [2, 0, 2] = [4] and [1, 0] = INFINITY.
    """
    if not entries:
        raise DomainError("cannot evaluate an empty continued fraction")
    value: ExtRational = INFINITY  # the innermost entry n has n + 1/INFINITY = n
    for n in reversed(entries):
        if value is INFINITY:
            value = Fraction(n)
        elif value == 0:
            value = INFINITY
        else:
            value = n + 1 / value
    return value


def _nearest_even(x: Fraction) -> int:
    """Even integer nearest to x; a tie (x an odd integer) takes the smaller even."""
    return 2 * math.ceil(Fraction(x - 1, 2))


def expand_odd_numerator(x: Fraction | int) -> tuple[int, ...]:
    """Greedy expansion of x in the even-odd shape [2a1, b1, ..., 2an, bn].

    At a-steps the quotient is the nearest even integer (ties at odd integers
    go to the smaller even); at b-steps the nearest integer.  A b-step never
    meets a tie: it expands q/r, where r = p - a q is odd because p is, so
    q/r is never a half-integer.  Remainder magnitudes strictly shrink, so
    the expansion terminates, always at a b-step.

    Requires x with odd numerator; cf_eval of the result equals x exactly.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p % 2 == 0:
        raise DomainError(f"{x} has even numerator, no even-odd expansion exists")
    entries: list[int] = []
    while True:
        # x = p/q with q > 0 and p odd throughout the a-steps
        a2 = -2 * ((q - p) // (2 * q))
        entries.append(a2)
        p, q = q, p - a2 * q  # odd p keeps the remainder nonzero
        if q < 0:
            p, q = -p, -q
        b = -((q - 2 * p) // (2 * q))
        entries.append(b)
        p, q = q, p - b * q
        if not q:
            return tuple(entries)
        if q < 0:
            p, q = -p, -q


def expand_all_even(a: int, b: int) -> tuple[int, ...]:
    """All-even expansion for the pair (a, b): the greedy nearest-even
    continued fraction of a/bhat, where bhat = b for even b and b - a for odd b.

    Requires a odd >= 3, 0 < |b| < a, gcd(a, b) = 1.  The result has all
    entries even, even length, and a nonzero last entry; cf_eval of it equals
    a/bhat exactly.
    """
    if a < 3 or a % 2 == 0:
        raise DomainError("a must be odd and at least 3")
    if not 0 < abs(b) < a:
        raise DomainError("b must satisfy 0 < |b| < a")
    if math.gcd(a, b) != 1:
        raise DomainError(f"{a} and {b} are not coprime")
    bhat = b if b % 2 == 0 else b - a
    x = Fraction(a, bhat)
    entries: list[int] = []
    while True:
        e = _nearest_even(x)
        entries.append(e)
        remainder = x - e
        if not remainder:
            break
        x = 1 / remainder
    # parity of the numerator alternates odd/even along the steps, so the
    # greedy walk can only stop after an even number of entries
    assert len(entries) % 2 == 0 and entries[-1] != 0
    return tuple(entries)


def mod_inverse(b: int, a: int) -> int:
    """The inverse of b modulo a, normalized to 0 < result < a.

    Requires a >= 2 and gcd(a, b) = 1.
    """
    if a < 2:
        raise DomainError("modulus must be at least 2")
    if math.gcd(b, a) != 1:
        raise DomainError(f"{b} is not invertible modulo {a}")
    return pow(b, -1, a)
