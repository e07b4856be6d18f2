"""Closed forms for the tunnels of 2-bridge knots and torus knots.

The 2-bridge knot K(a, b) is parametrized by a odd >= 3 and 0 < b < a
coprime to a; K(a, b) and K(a, b') with b b' = 1 (mod a) are the same knot.
Each has four tunnels: an upper and a lower simple one, whose slope
sequences are the single classes [b'/a] and [b/a], and an upper and a lower
semisimple one, whose sequences this module computes by closed formula.  It
also builds the braid words whose upper tunnels are the semisimple ones, so
the slope engine can check the formula.

The (p, q) torus knot's tunnels have slope sequences read off the staircase
of heights ceil(k p / q), and a sequence arising that way can be recognized
and realized directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .braid import SIZE_LIMIT, BraidWord, _trim_within_limit, reverse_word, word
from .errors import DomainError
from .exact_arith import (
    SimpleSlope,
    _Value,
    cf_eval,
    expand_all_even,
    expand_odd_numerator,
    mod_inverse,
)
from .slope_engine import SlopeSequence

__all__ = [
    "TwoBridge",
    "TwoBridgeReport",
    "Rejection",
    "REJECTION_I",
    "REJECTION_II",
    "REJECTION_III",
    "REJECTION_IV",
    "two_bridge_tunnels",
    "upper_semisimple_word",
    "lower_simple_word",
    "semisimple_slopes_closed_form",
    "find_two_bridge",
    "staircase",
    "torus_braid_word",
    "torus_upper_slopes",
    "torus_lower_slopes",
    "is_toroidal",
    "toroidal_braid_word",
]


class TwoBridge(_Value):
    """The 2-bridge knot K(a, b): a odd >= 3, 0 < b < a, gcd(a, b) = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if a < 3 or a % 2 == 0:
            raise DomainError("a must be odd and at least 3")
        if not 0 < b < a:
            raise DomainError("b must satisfy 0 < b < a")
        if math.gcd(a, b) != 1:
            raise DomainError(f"{a} and {b} are not coprime")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dual_b(self) -> int:
        """The parameter b' with b b' = 1 (mod a); K(a, b') is the same knot."""
        return mod_inverse(self.b, self.a)


class TwoBridgeReport(_Value):
    """Slope sequences of the four tunnels of a 2-bridge knot."""

    __slots__ = ("upper_simple", "upper_semisimple", "lower_simple", "lower_semisimple")

    def __init__(
        self,
        upper_simple: SlopeSequence,
        upper_semisimple: SlopeSequence,
        lower_simple: SlopeSequence,
        lower_semisimple: SlopeSequence,
    ) -> None:
        object.__setattr__(self, "upper_simple", upper_simple)
        object.__setattr__(self, "upper_semisimple", upper_semisimple)
        object.__setattr__(self, "lower_simple", lower_simple)
        object.__setattr__(self, "lower_semisimple", lower_semisimple)


REJECTION_I = "m0 must be of the form [ n0/(2n0+1) ] with n0 not in {-1,0}."
REJECTION_II = "Slopes other than first must be of the form 2 + 1/k or 2 - 1/k."
REJECTION_III = "m1 must be positive or negative according as n0 is odd or even."
REJECTION_IV = (
    "The ith and (i+1)st slopes must have opposite signs when k sub i is even."
)


class Rejection(_Value):
    """Why a slope sequence is not a 2-bridge semisimple tunnel's."""

    __slots__ = ("condition", "message")

    def __init__(self, condition: str, message: str) -> None:
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "message", message)


def two_bridge_tunnels(a: int, b: int) -> TwoBridgeReport:
    """Slope sequences of all four tunnels of K(a, b), from the closed forms.

    The semisimple sequences are the upper slopes of upper_semisimple_word
    for (a, b) and (a, b'), and K(a, b) is refused exactly when the slope
    engine would refuse one of those words: when it splits into more than
    SIZE_LIMIT segments.  That count is never below the closed form's depth.
    """
    knot = TwoBridge(a, b)
    dual = knot.dual_b
    _trim_within_limit(upper_semisimple_word(a, b))
    _trim_within_limit(upper_semisimple_word(a, dual))
    return TwoBridgeReport(
        upper_simple=SlopeSequence(SimpleSlope(dual, a)),
        upper_semisimple=semisimple_slopes_closed_form(a, b),
        lower_simple=SlopeSequence(SimpleSlope(b, a)),
        lower_semisimple=semisimple_slopes_closed_form(a, dual),
    )


def upper_semisimple_word(a: int, b: int) -> BraidWord:
    """A braid word whose upper tunnel is the upper semisimple tunnel of K(a, b).

    The word spells the even-odd expansion of a/b left to right and closes
    with a single dl^-1.
    """
    TwoBridge(a, b)
    cf = expand_odd_numerator(Fraction(a, b))
    letters: list[tuple[str, int]] = []
    for j in range(0, len(cf), 2):
        letters.append(("m", -(cf[j] // 2)))
        letters.append(("s", cf[j + 1]))
    letters.append(("l", -1))
    return word(letters)


def lower_simple_word(a: int, b: int) -> BraidWord:
    """A braid word whose upper tunnel is the lower simple tunnel of K(a, b).

    It is the reverse of upper_semisimple_word(a, b): the position with the
    upper semisimple tunnel on top has the lower simple tunnel below, so the
    reversed word's upper slope sequence is the lone class [b/a].
    """
    return reverse_word(upper_semisimple_word(a, b))


def semisimple_slopes_closed_form(a: int, b: int) -> SlopeSequence:
    """Slope sequence of the upper semisimple tunnel of K(a, b), in closed form.

    The all-even expansion of (a, b) is refined so every entry in the odd
    positions is +-2 (splitting 2a into a run of 2s separated by zeros), and
    each resulting pair contributes one slope, read right to left.  So the
    sequence has sum(|step| / 2) slopes over the steps (the odd positions) of
    the expansion; over SIZE_LIMIT it raises DomainError before any is built.
    """
    TwoBridge(a, b)
    entries = expand_all_even(a, b)
    if sum(abs(step) for step in entries[::2]) // 2 > SIZE_LIMIT:
        raise DomainError(f"the sequence has more than {SIZE_LIMIT} slopes (the size limit)")
    flat: list[int] = []
    for i in range(0, len(entries), 2):
        step, landing = entries[i], entries[i + 1]
        unit = 2 if step > 0 else -2
        for _ in range(abs(step) // 2 - 1):
            flat.extend((unit, 0))
        flat.extend((unit, landing))
    pairs = [(flat[i] // 2, flat[i + 1] // 2) for i in range(0, len(flat), 2)]
    pairs.reverse()
    a0, b0 = pairs[0]
    if a0 == 1:
        first = SimpleSlope.from_fraction(Fraction(2 * b0, 4 * b0 + 1))
    else:
        first = SimpleSlope.from_fraction(Fraction(2 * b0 - 1, 4 * b0 - 1))
    rest: list[Fraction] = []
    for i in range(1, len(pairs)):
        ai, bi = pairs[i]
        prev = pairs[i - 1][0]
        if ai == 1 and prev == 1:
            k = 2 * bi + 1
        elif ai == -1 and prev == -1:
            k = 2 * bi - 1
        else:
            k = 2 * bi
        assert k != 0
        rest.append(-2 * prev + Fraction(1, k))
    return SlopeSequence(first, tuple(rest))


def find_two_bridge(
    seq: SlopeSequence,
) -> tuple[TwoBridge, TwoBridge] | Rejection:
    """Identify the 2-bridge knot whose upper semisimple tunnel has these slopes.

    On success returns (K(a, b), K(a, b')): the sequence is the upper
    semisimple tunnel of the first and the lower semisimple tunnel of the
    second.  Otherwise returns a Rejection naming the first failed condition.
    """
    if not seq:
        return Rejection("i", REJECTION_I)
    p, q = seq.first.p, seq.first.q
    if p == (q - 1) // 2:
        n0 = p
    elif p == (q + 1) // 2:
        n0 = -p
    else:
        return Rejection("i", REJECTION_I)
    signs: list[int] = []
    ks: list[int] = []
    for x in seq.rest:
        num, den = x.numerator, x.denominator
        if abs(num - 2 * den) == 1:
            signs.append(1)
            ks.append(den * (num - 2 * den))
        elif abs(num + 2 * den) == 1:
            signs.append(-1)
            ks.append(den * (num + 2 * den))
        else:
            return Rejection("ii", REJECTION_II)
    if signs and (signs[0] > 0) != (n0 % 2 != 0):
        return Rejection("iii", REJECTION_III)
    for i in range(1, len(signs)):
        if (signs[i] == signs[i - 1]) != (ks[i - 1] % 2 != 0):
            return Rejection("iv", REJECTION_IV)
    if n0 % 2 != 0:
        a_half = [-1]
        b_twice = [n0 + 1]
    else:
        a_half = [1]
        b_twice = [n0]
    for k in ks:
        prev = a_half[-1]
        cur = prev if k % 2 != 0 else -prev
        a_half.append(cur)
        if cur == 1 and prev == 1:
            b_twice.append(k - 1)
        elif cur == -1 and prev == -1:
            b_twice.append(k + 1)
        else:
            b_twice.append(k)
    entries: list[int] = []
    for i in range(len(a_half) - 1, -1, -1):
        entries.append(2 * a_half[i])
        entries.append(b_twice[i])
    x = cf_eval(entries)
    assert isinstance(x, Fraction)
    a = abs(x.numerator)
    bhat = x.denominator if x.numerator > 0 else -x.denominator
    knot = TwoBridge(a, bhat % a)
    return (knot, TwoBridge(a, knot.dual_b))


def _check_torus(p: int, q: int) -> None:
    if abs(p) < 2 or abs(q) < 2:
        raise DomainError("torus parameters need |p| and |q| at least 2")
    if abs(p) > SIZE_LIMIT or abs(q) > SIZE_LIMIT:
        raise DomainError(
            f"torus parameters need |p| and |q| at most {SIZE_LIMIT} (the size limit)"
        )
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p} and {q} are not coprime")


def staircase(p: int, q: int) -> tuple[int, ...]:
    """Heights ceil(k p / q) for k = 0, ..., q, with p, q >= 2 coprime.

    >>> staircase(13, 5)
    (0, 3, 6, 8, 11, 13)
    """
    _check_torus(p, q)
    if p < 0 or q < 0:
        raise DomainError("the staircase needs positive p and q")
    return tuple(-((-k * p) // q) for k in range(q + 1))


def torus_braid_word(p: int, q: int) -> BraidWord:
    """A braid word describing the (p, q) torus knot.

    Each unit step of the staircase of ceil(k p / q) becomes one dm and the
    riser between consecutive steps becomes a dl run.
    """
    _check_torus(p, q)
    if p < 0:
        p, q = -p, -q
    letters: list[tuple[str, int]] = []
    if q > 0:
        heights = staircase(p, q)
        for k in range(q - 1, -1, -1):
            letters.append(("l", heights[k] - heights[k + 1]))
            letters.append(("m", 1))
    else:
        heights = tuple(-((-k * q) // p) for k in range(p + 1))
        for k in range(p):
            letters.append(("l", 1))
            letters.append(("m", heights[k] - heights[k + 1]))
    return word(letters)


def _negate_slopes(seq: SlopeSequence) -> SlopeSequence:
    """The mirror sequence: every slope negated (the first one as a class)."""
    if not seq:
        return seq
    return SlopeSequence(seq.first.negate(), tuple(-x for x in seq.rest))


def torus_upper_slopes(p: int, q: int) -> SlopeSequence:
    """Slope sequence of the upper tunnel of the (p, q) torus knot.

    For positive parameters the heights above 1 on the staircase contribute
    the slopes 2h - 1; parameters of mixed sign give the mirror sequence.
    """
    _check_torus(p, q)
    if p < 0 and q < 0:
        p, q = -p, -q
    if (p < 0) != (q < 0):
        return _negate_slopes(torus_upper_slopes(abs(p), abs(q)))
    heights = staircase(p, q)
    k0 = next(k for k in range(q + 1) if heights[k] > 1)
    first = SimpleSlope.from_fraction(Fraction(1, 2 * heights[k0] - 1))
    rest = tuple(Fraction(2 * heights[k] - 1) for k in range(k0 + 1, q))
    return SlopeSequence(first, rest)


def torus_lower_slopes(p: int, q: int) -> SlopeSequence:
    """Slope sequence of the lower tunnel: the upper one with p and q swapped."""
    return torus_upper_slopes(q, p)


def _monotone_same_sign(chain: Sequence[int]) -> bool:
    """All entries positive and nondecreasing, or negative and nonincreasing."""
    if all(n > 0 for n in chain):
        return all(a <= b for a, b in zip(chain, chain[1:]))
    if all(n < 0 for n in chain):
        return all(a >= b for a, b in zip(chain, chain[1:]))
    return False


def is_toroidal(seq: SlopeSequence) -> bool:
    """Whether the sequence is the upper slope sequence of a torus knot.

    The first slope must be a class [1/q] or [(q-1)/q], contributing +-q to
    the chain of odd integers that the later slopes must continue, staying on
    one side of zero and never moving toward it.
    """
    if not seq:
        return False
    p, q = seq.first.p, seq.first.q
    if p == 1:
        n0 = q
    elif p == q - 1:
        n0 = -q
    else:
        return False
    chain = [n0]
    for x in seq.rest:
        if x.denominator != 1:
            return False
        chain.append(x.numerator)
    return _monotone_same_sign(chain)


def toroidal_braid_word(odds: Sequence[int]) -> BraidWord:
    """A braid word whose upper slope sequence has the given toroidal chain.

    The chain lists odd integers n0, n1, ..., nk, all of one sign, monotone
    away from zero, with |n0| >= 3; entry j contributes the block
    dm dl^(m_j - m_(j-1)) with m_j = -(n_j + 1)/2.
    """
    odds = list(odds)
    if not odds:
        raise DomainError("the chain must not be empty")
    if any(n % 2 == 0 for n in odds):
        raise DomainError("every chain entry must be odd")
    if abs(odds[0]) < 3:
        raise DomainError("the leading chain entry must have magnitude at least 3")
    if not _monotone_same_sign(odds):
        raise DomainError("chain entries must share a sign and be monotone away from zero")
    ms = [-(n + 1) // 2 for n in odds]
    letters: list[tuple[str, int]] = []
    for j in range(len(ms) - 1, 0, -1):
        letters.append(("m", 1))
        letters.append(("l", ms[j] - ms[j - 1]))
    letters.append(("m", 1))
    letters.append(("l", ms[0]))
    return word(letters)
