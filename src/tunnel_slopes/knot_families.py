"""Closed forms for the tunnels of 2-bridge knots and torus knots.

The 2-bridge knot K(a, b) is parametrized by a odd >= 3 and 0 < b < a
coprime to a; K(a, b) and K(a, b') with b b' = 1 (mod a) are the same knot.
Each has four tunnels: an upper and a lower simple one, whose slope
sequences are the single classes [b'/a] and [b/a], and an upper and a lower
semisimple one, whose sequences this module computes by closed formula and
recognizes by running that formula backwards.  The closed formula is one walk
over the all-even expansion of (a, b).  Run backwards, the walk's parity rule
(each later slope 2 sign + 1/k has sign minus a unit that flips after every
even k) is the recognizer's conditions iii and iv, so find_two_bridge checks
them while it rebuilds the expansion.  The expansion of (a, b') is the same
entries reversed and negated, so two_bridge_tunnels reads both semisimple
sequences from one expansion.  The module also builds the braid words whose
upper tunnels are the semisimple ones, which the CLI prints;
two_bridge_tunnels refuses K(a, b) by the same dm count that segment uses,
read off the a-steps of both words' even-odd expansions without spelling a
letter.

The torus knot T(p, q) has its braid word and tunnel slopes read off the
staircase of (|p|, |q|); the wider toroidal class is recognized and realized.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .braid import (
    _TOO_MANY_SEGMENTS,
    SIZE_LIMIT,
    BraidWord,
    _even_odd_letters,
    _reversed,
    reverse_word,
    word,
)
from .errors import DomainError
from .exact_arith import (
    SimpleSlope,
    _cf_matrix,
    _coprime,
    _Value,
    _expand_odd,
    expand_all_even,
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
    """Slope sequences of all four tunnels of K(a, b), from one expansion.

    The semisimple sequences are the upper slopes of upper_semisimple_word
    for (a, b) and (a, b'), and K(a, b) is refused exactly when the slope
    engine would refuse one of those words: when it splits into more than
    SIZE_LIMIT segments.  The refusal reads segment's dm count off the
    a-steps of the even-odd expansions of a/b and a/b' (see
    _semisimple_segments) and spells neither word.  Both sequences are read
    from expand_all_even(a, b), the lower one by walking its reversal with
    every entry negated, which is the expansion for (a, b').  expand_all_even
    counts slopes only for (a, b); the segment count is never below the
    closed form's depth, so the check keeps the walk for (a, b') within
    SIZE_LIMIT slopes too.
    """
    knot = TwoBridge(a, b)
    dual = knot.dual_b
    if max(_semisimple_segments(a, b), _semisimple_segments(a, dual)) > SIZE_LIMIT:
        raise DomainError(_TOO_MANY_SEGMENTS)
    entries = expand_all_even(a, b)
    # TwoBridge checked a odd and 0 < b < a coprime to a, so the simple
    # classes [b'/a] and [b/a] are reduced, nonintegral, of odd denominator
    return TwoBridgeReport(
        upper_simple=SlopeSequence._of_valid(SimpleSlope._of_coprime(dual, a), ()),
        upper_semisimple=_semisimple_walk(entries),
        lower_simple=SlopeSequence._of_valid(SimpleSlope._of_coprime(b, a), ()),
        lower_semisimple=_semisimple_walk([-x for x in reversed(entries)]),
    )


def _semisimple_segments(a: int, b: int) -> int:
    """The number of segments upper_semisimple_word(a, b) splits into.

    segment takes the sum of |k| over the trimmed word's dm^k letters; this
    sums |c| over the a-steps 2c of the even-odd expansion of a/b, which the
    word spells as dm^-c, with no letters spelled, merged or trimmed.  The
    two counts agree, since merging and trimming remove no dm letter:
    - a/b > 1, so the first a-step is at least 2 and the word starts with dm,
      which the <dl, s> prefix trim leaves;
    - later a-steps have magnitude at least 2, and b-steps are never 0, so
      no two dm letters merge;
    - the word ends in dl^-1, so the <dm, s> suffix trim removes nothing.
    """
    return sum(abs(step) for step in _expand_odd(a, b)[::2]) // 2


def upper_semisimple_word(a: int, b: int) -> BraidWord:
    """A braid word whose upper tunnel is the upper semisimple tunnel of K(a, b).

    The word spells the even-odd expansion of a/b left to right, as the
    reverse of braid_from_slopes's spelling, and closes with a single dl^-1.
    """
    TwoBridge(a, b)
    spelled = _reversed(_even_odd_letters(_expand_odd(a, b)))  # a odd, b > 0
    return word(spelled + (("l", -1),))


def lower_simple_word(a: int, b: int) -> BraidWord:
    """A braid word whose upper tunnel is the lower simple tunnel of K(a, b).

    It is the reverse of upper_semisimple_word(a, b): the position with the
    upper semisimple tunnel on top has the lower simple tunnel below, so the
    reversed word's upper slope sequence is the lone class [b/a].
    """
    return reverse_word(upper_semisimple_word(a, b))


def semisimple_slopes_closed_form(a: int, b: int) -> SlopeSequence:
    """Slope sequence of the upper semisimple tunnel of K(a, b), in closed form.

    The walk over the all-even expansion of (a, b), whose steps expand_all_even
    counts against SIZE_LIMIT before the expansion is complete.
    """
    TwoBridge(a, b)
    return _semisimple_walk(expand_all_even(a, b))


# The slope -unit of a walk's runs, for unit +1 and -1: shared, not built per step.
_RUN_SLOPE = {1: Fraction(-1), -1: Fraction(1)}


def _semisimple_walk(entries: Sequence[int]) -> SlopeSequence:
    """The semisimple slope sequence read off an all-even expansion.

    One walk over the steps, right to left.  A step 2c with sign alpha,
    landing on 2 beta, gives one slope and then |c| - 1 slopes equal to
    -alpha.  The rightmost step's slope is the class
    [(2 beta + (alpha - 1)/2) / (4 beta + alpha)]; every later step's is
    -2 alpha' + 1/k with k = 2 beta + (alpha + alpha')/2, where alpha' is the
    sign of the step before it in the walk.  So the sequence has
    sum(|step| / 2) slopes.
    """
    unit = 1 if entries[-2] > 0 else -1
    landing = entries[-1]
    # n / (2n + 1) with n = landing + (unit - 1) / 2, which is coprime; the
    # landing is even and nonzero, so n is neither 0 nor -1 and the class is
    # no integer, and 2n + 1 is odd
    first = SimpleSlope._of_coprime(landing + (unit - 1) // 2, 2 * landing + unit)
    rest: list[Fraction] = []
    run = abs(entries[-2]) // 2 - 1
    if run:
        rest += [_RUN_SLOPE[unit]] * run
    for i in range(len(entries) - 4, -1, -2):
        prev, unit = unit, 1 if entries[i] > 0 else -1
        k = entries[i + 1] + (unit + prev) // 2
        assert k != 0
        rest.append(_coprime(1 - 2 * prev * k, k))  # gcd(1 - 2 prev k, k) = gcd(1, k)
        run = abs(entries[i]) // 2 - 1
        if run:
            rest += [_RUN_SLOPE[unit]] * run
    # every later slope, 1 - 2 prev k over k or a run's +-1, has odd numerator
    return SlopeSequence._of_valid(first, tuple(rest))


def find_two_bridge(
    seq: SlopeSequence,
) -> tuple[TwoBridge, TwoBridge] | Rejection:
    """Identify the 2-bridge knot whose upper semisimple tunnel has these slopes.

    On success returns (K(a, b), K(a, b')): the sequence is the upper
    semisimple tunnel of the first and the lower semisimple tunnel of the
    second.  Otherwise returns a Rejection naming the first failed condition,
    where ii, on every later slope, is checked before iii and iv.

    Conditions i and ii fix n0 and each later slope 2 sign + 1/k; the
    closed form's walk, run backwards from n0, then fixes every sign.  Its
    unit starts at -1 for odd n0 and +1 for even n0 and flips after each
    even k, and each slope's sign must be minus the unit it meets: that
    parity rule is condition iii on the first later slope and iv on the
    rest.  So one loop both checks them and builds the all-even entries of
    (a, b), and both knots are read off their _cf_matrix.
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
    slopes: list[int] = []  # sign, k of each slope 2 sign + 1/k in turn
    for x in seq.rest:
        num, den = x.numerator, x.denominator
        if abs(num - 2 * den) == 1:
            slopes += (1, den * (num - 2 * den))
        elif abs(num + 2 * den) == 1:
            slopes += (-1, den * (num + 2 * den))
        else:
            return Rejection("ii", REJECTION_II)
    # the closed form's walk run backwards, one unit step 2 alpha per slope
    # landing on k - (alpha + alpha')/2 (a run of -alpha slopes comes back as
    # landings on 0, which the product merges); built right to left, then reversed
    unit = -1 if n0 % 2 != 0 else 1
    entries = [n0 - (unit - 1) // 2, 2 * unit]
    for i in range(0, len(slopes), 2):
        sign, k = slopes[i], slopes[i + 1]
        if sign != -unit:  # conditions iii and iv: the walk's parity rule
            return Rejection("iv", REJECTION_IV) if i else Rejection("iii", REJECTION_III)
        prev, unit = unit, -unit if k % 2 == 0 else unit
        entries += (k - (unit + prev) // 2, 2 * unit)
    entries.reverse()
    # (p, q) = sign (a, bhat), and the length is even, so p q0 - p0 q = +1
    # and b' = -sign p0 inverts b mod a (expand_all_even's transpose argument)
    p, p0, q, _ = _cf_matrix(entries)
    sign = 1 if p > 0 else -1
    a = abs(p)
    return (TwoBridge(a, sign * q % a), TwoBridge(a, -sign * p0 % a))


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

    (-p, -q) gives the word of (p, q), spelled with p > 0.  It reads the
    staircase of (|p|, |q|), as torus_upper_slopes does, each step spelled
    as a dl run and one dm: for q > 0 from the last step down, each run
    minus the step's rise; for q < 0 from the first step up, each run its rise.
    """
    _check_torus(p, q)
    if p < 0:
        p, q = -p, -q
    heights = staircase(p, abs(q))
    steps = range(len(heights) - 2, -1, -1) if q > 0 else range(len(heights) - 1)
    letters: list[tuple[str, int]] = []
    for k in steps:
        rise = heights[k + 1] - heights[k]
        letters += (("l", -rise if q > 0 else rise), ("m", 1))
    return word(letters)


def torus_upper_slopes(p: int, q: int) -> SlopeSequence:
    """Slope sequence of the upper tunnel of the (p, q) torus knot.

    The heights h > 1 on the staircase of (|p|, |q|), its last step left
    out, give the toroidal chain n0, n1, ..., nk of the odd integers 2h - 1,
    negated for parameters of mixed sign; the sequence is [ 1/n0 ], n1, ...,
    nk.
    """
    _check_torus(p, q)
    sign = -1 if (p < 0) != (q < 0) else 1
    chain = [sign * (2 * h - 1) for h in staircase(abs(p), abs(q))[:-1] if h > 1]
    # the chain entries are odd, and |n0| >= 3, so [1/n0] is no integer
    first = SimpleSlope._of_coprime(1, chain[0])
    return SlopeSequence._of_valid(first, tuple([_coprime(n, 1) for n in chain[1:]]))


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
    """Whether the sequence is toroidal, a class wider than torus knots' tunnels.

    The first slope, a class [1/q] or [(q-1)/q], puts +-q first in a chain of
    odd integers that the later slopes continue on one side of zero, never
    moving toward it.  [1/3], 3, 3, 101 is toroidal but no torus knot's.
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
