"""Exact arithmetic: extended rationals, simple slopes, continued fractions.

This module also holds ``_Value``, the base of the package's immutable value
classes: each builds its values once, in ``__new__``, through the one setter
``_Value._of``, so no value can be changed after it is built.

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

# The most segments a word may split into, the most slopes a closed form may
# list, and the largest torus parameter |p| or |q|: each makes a list of that
# many items, so input past the limit is refused before anything is built.
SIZE_LIMIT = 65536

__all__ = [
    "INFINITY",
    "SIZE_LIMIT",
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

    A subclass names its fields in ``__slots__`` and builds its values in
    ``__new__(cls, <its fields>)``: it checks the fields there, if it checks
    any, and returns ``cls._of(...)``.  No value class defines ``__init__``,
    so calling ``__init__`` on a value again changes nothing.  ``_of`` is the
    one setter, and it builds a value with no checks, so outside ``__new__``
    it takes only fields that are valid by construction: the caller says why
    at the call site.  Instances compare equal field by field within one
    class, hash their field tuple, refuse assignment, print as
    ``Name(field=value, ...)`` and rebuild from their fields under copy and
    pickle.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the slot descriptors' setters, in field order: _of writes through
        # them, which skips the refusing __setattr__ and every name lookup
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    @classmethod
    def _of(cls, *fields: object):
        """The value with exactly these fields, past the subclass's checks."""
        setters = cls._setters
        if len(fields) != len(setters):
            raise ValueError(f"{cls.__qualname__} has {len(setters)} fields, not {len(fields)}")
        value = object.__new__(cls)
        i = 0
        for field in fields:  # indexed, not zipped: zip's pairs cost more per value
            setters[i](value, field)
            i += 1
        return value

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

    def __new__(cls, p: int, q: int) -> "SimpleSlope":
        if q < 1:
            raise DomainError("simple slope needs q >= 1")
        if not 0 <= p < q:
            raise DomainError("simple slope needs 0 <= p < q")
        if p == 0:
            if q != 1:
                raise DomainError("the trivial class is written 0/1")
        elif math.gcd(p, q) != 1:
            raise DomainError(f"simple slope {p}/{q} is not reduced")
        return cls._of(p, q)

    @classmethod
    def from_fraction(cls, x: Fraction) -> "SimpleSlope":
        """The class of x modulo 1."""
        return cls(x.numerator % x.denominator, x.denominator)

    @classmethod
    def _of_coprime(cls, p: int, q: int) -> "SimpleSlope":
        """The class of p/q modulo 1, for coprime p and q != 0, with no gcd.

        Only for a pair that is coprime by construction: the caller says why
        at the call site.  The public constructors keep their checks.
        """
        return cls._of(p % q, q) if q > 0 else cls._of(-p % -q, -q)

    def __str__(self) -> str:
        return f"[ {self.p}/{self.q} ]"


def _coprime(p: int, q: int) -> Fraction:
    """The Fraction p/q for coprime p and q != 0, built with no gcd.

    Only for a pair that is coprime by construction: the caller says why at
    the call site.  The sign moves to the numerator; then the two slot
    writes are those of CPython 3.12's Fraction._from_coprime_ints, which
    3.10 and 3.11 lack, so one path serves every supported version.
    """
    if q < 0:
        p, q = -p, -q
    x = object.__new__(Fraction)
    x._numerator = p
    x._denominator = q
    return x


# How many entries _cf_matrix multiplies by the recurrence before pairing products.
_CF_CHUNK = 64


def _cf_matrix(entries: Sequence[int]) -> tuple[int, int, int, int]:
    """The integer matrix product of the continued fraction [n1, ..., nk], k >= 1,

        [[n1, 1], [1, 0]] ... [[nk, 1], [1, 0]] = [[p, p0], [q, q0]]

    as (p, p0, q, q0): the convergent recurrence p_k = n_k p_(k-1) + p_(k-2),
    and the same for q, over each chunk of _CF_CHUNK entries, then the chunk
    products in pairs, round by round, so that each product is of numbers of
    like size.  Each factor has determinant -1, so p q0 - p0 q = (-1)^k, and
    p and q are coprime.
    """
    products = []
    for start in range(0, len(entries), _CF_CHUNK):
        p, p0, q, q0 = 1, 0, 0, 1
        for n in entries[start : start + _CF_CHUNK]:
            p, p0 = n * p + p0, p
            q, q0 = n * q + q0, q
        products.append((p, p0, q, q0))
    while len(products) > 1:
        products = [
            (p * r + p0 * s, p * r0 + p0 * s0, q * r + q0 * s, q * r0 + q0 * s0)
            for (p, p0, q, q0), (r, r0, s, s0) in zip(products[::2], products[1::2])
        ] + products[len(products) // 2 * 2 :]  # an unpaired last one waits
    return products[0]


def cf_eval(entries: Sequence[int]) -> ExtRational:
    """Value of the continued fraction [n1, ..., nk].

    Evaluation is total: a zero tail makes the next level INFINITY, and
    x + 1/INFINITY = x, so e.g. [2, 0, 2] = [4] and [1, 0] = INFINITY.

    The value is p/q, read off the first column (p, q) of _cf_matrix, where
    q = 0 reads as INFINITY, so zero entries and the formal rules need no
    case of their own.  p and q are coprime, so it is built with no gcd.
    """
    if not entries:
        raise DomainError("cannot evaluate an empty continued fraction")
    p, _, q, _ = _cf_matrix(entries)
    if q == 0:
        return INFINITY
    return _coprime(p, q)  # coprime by _cf_matrix's determinant


def _nearest_even(x: Fraction) -> int:
    """Even integer nearest to x.

    It never meets a tie: its one caller, expand_all_even, asks at a step,
    where x is odd over even, and at a landing, where x is even over odd, so
    x is never an odd integer.
    """
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
    if x.numerator % 2 == 0:
        raise DomainError(f"{x} has even numerator, no even-odd expansion exists")
    return tuple(_expand_odd(x.numerator, x.denominator))


def _expand_odd(p: int, q: int) -> list[int]:
    """The entries of expand_odd_numerator(p/q), for integers p odd and q > 0."""
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
            return entries
        if q < 0:
            p, q = -p, -q


def expand_all_even(a: int, b: int) -> tuple[int, ...]:
    """All-even expansion for the pair (a, b): the greedy nearest-even
    continued fraction of a/bhat, where bhat = b for even b and b - a for odd b.

    Requires a odd >= 3, 0 < |b| < a, gcd(a, b) = 1.  The result has all
    entries even, even length, and a nonzero last entry; cf_eval of it equals
    a/bhat exactly.  It reads as steps (the odd positions) each followed by a
    landing, and a step 2c stands for |c| slopes of the semisimple sequence,
    so the walk keeps a running count of sum(|step| / 2) and raises
    DomainError as soon as it passes SIZE_LIMIT, before any more entries are
    built.  Where every step is +-2 (b = 1 or b = a - 1) that stops the walk
    after SIZE_LIMIT + 1 steps, whatever the size of a.

    The expansion for (a, b'), with b b' = 1 (mod a), is this one reversed
    with every entry negated:

        expand_all_even(a, b') == tuple(-c for c in reversed(expand_all_even(a, b)))

    The entries' _cf_matrix is +-[[a, p], [bhat, r]].  Transposing it reverses
    the product, so the reversed entries evaluate to a/p.  The determinant is
    1 (the length is even), so p bhat = -1 (mod a), and the negated entries
    evaluate to a/-p, the value for b'.  So one expansion serves both pairs,
    but its SIZE_LIMIT count covers only the steps of (a, b), which are the
    landings of (a, b').
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
    slopes = 0
    while True:
        # x has an odd numerator and an even denominator here, so it is no
        # integer and the step leaves a nonzero remainder
        step = _nearest_even(x)
        slopes += abs(step) // 2
        if slopes > SIZE_LIMIT:
            raise DomainError(f"the sequence has more than {SIZE_LIMIT} slopes (the size limit)")
        x = 1 / (x - step)
        landing = _nearest_even(x)
        entries += (step, landing)
        if x == landing:
            break
        x = 1 / (x - landing)
    assert landing != 0
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
