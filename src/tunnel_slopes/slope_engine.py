"""Slope sequences of tunnels and their conversion to and from braid words.

A (1,1)-position described by a braid word w has an upper and a lower
tunnel; each tunnel is classified by a sequence [m0], m1, ..., md where m0
is a class in Q/Z and the later entries are rationals with odd numerator.
``upper_slopes`` and ``lower_slopes`` read those sequences off a word, and
``braid_from_slopes`` builds a word realizing a given sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .braid import (
    BraidWord,
    Letter,
    _parse_int,
    _push,
    reverse_word,
    segment,
    subgroup_slope,
    winding_number,
    word,
)
from .errors import DomainError, ParseError
from .exact_arith import (
    INFINITY,
    ExtRational,
    SimpleSlope,
    _Value,
    expand_odd_numerator,
)

__all__ = [
    "SlopeSequence",
    "format_slopes",
    "parse_slopes",
    "upper_slopes",
    "lower_slopes",
    "braid_from_slopes",
    "peephole",
    "dual_slopes",
]


class SlopeSequence(_Value):
    """The slope invariant [m0], m1, ..., md of a tunnel.

    ``first`` is the class of m0 in Q/Z and ``rest`` holds m1, ..., md.  The
    empty sequence (first is None) belongs to the trivial knot; a nonempty
    sequence has a nonintegral first slope with odd denominator and later
    slopes with odd numerator.
    """

    __slots__ = ("first", "rest")

    def __init__(
        self, first: SimpleSlope | None = None, rest: tuple[Fraction, ...] = ()
    ) -> None:
        if first is None:
            if rest:
                raise DomainError("a sequence without a first slope must be empty")
        else:
            if first.p == 0:
                raise DomainError("the first slope of a tunnel is never integral")
            if first.q % 2 == 0:
                raise DomainError("the first slope of a tunnel has odd denominator")
            for x in rest:
                if x.numerator % 2 == 0:
                    raise DomainError(f"slope {x} has even numerator")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "rest", rest)

    def __bool__(self) -> bool:
        return self.first is not None


def _format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_slopes(seq: SlopeSequence) -> str:
    """Text form "[ p/q ], m1, m2, ..."; the empty sequence formats as "".

    >>> format_slopes(SlopeSequence(SimpleSlope(3, 7), (Fraction(7, 2),)))
    '[ 3/7 ], 7/2'
    """
    if not seq:
        return ""
    return ", ".join([str(seq.first)] + [_format_rational(x) for x in seq.rest])


def parse_slopes(text: str) -> SlopeSequence:
    """Parse a slope list like "[ 21, 25, 341, 60, -13, 1, -13, 1 ]".

    Brackets and commas are optional separators; the integers pair up as
    numerator, denominator, and the first pair is reduced modulo 1 to give
    m0.  Empty input is the trivial knot.
    """
    tokens = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
    if not tokens:
        return SlopeSequence()
    if len(tokens) % 2 != 0:
        raise ParseError(
            f"token {len(tokens)}: numerator {tokens[-1]!r} has no denominator"
        )
    numbers = [
        _parse_int(token, position, "integer") for position, token in enumerate(tokens, 1)
    ]
    values: list[Fraction] = []
    for i in range(0, len(numbers), 2):
        if numbers[i + 1] == 0:
            raise DomainError(f"slope {numbers[i]}/0 has zero denominator")
        values.append(Fraction(numbers[i], numbers[i + 1]))
    return SlopeSequence(SimpleSlope.from_fraction(values[0]), tuple(values[1:]))


_MS = word([("m", 1), ("s", 1)])


def _segment_slopes(omegas: Sequence[BraidWord]) -> list[ExtRational]:
    """Slope of each segment, untwisted by the winding of the word right of it."""
    slopes: list[ExtRational] = []
    suffix = BraidWord()
    for omega in omegas:
        twist = winding_number(suffix)
        slopes.append(subgroup_slope(omega * word([("l", -twist)])))
        suffix = _MS * omega * suffix
    return slopes


def _absorb_first(omegas: Sequence[BraidWord]) -> list[BraidWord]:
    """Drop the rightmost segment, twisting its winding into the next one."""
    twist = winding_number(omegas[0])
    if len(omegas) == 1:
        return []
    rest = list(omegas[1:])
    rest[0] = rest[0] * word([("l", twist)])
    return rest


def _eliminate(omegas: Sequence[BraidWord], i: int) -> list[BraidWord]:
    """Remove segment i, whose untwisted slope is infinite."""
    omegas = list(omegas)
    d = len(omegas) - 1
    if i == d:
        return omegas[:-2]
    if i == 0:
        return _absorb_first(omegas)
    merged = omegas[i + 1] * word([("l", winding_number(omegas[i]))]) * omegas[i - 1]
    return omegas[: i - 1] + [merged] + omegas[i + 2 :]


def upper_slopes(w: BraidWord) -> SlopeSequence:
    """Slope sequence of the upper tunnel of the position described by w.

    Segments whose slope degenerates to INFINITY are eliminated, and a
    rightmost segment carrying an integral first slope is absorbed into its
    neighbor, until the sequence is in its reduced form (possibly empty).
    """
    omegas = segment(w)
    while omegas:
        slopes = _segment_slopes(omegas)
        infinite = next((i for i, s in enumerate(slopes) if s is INFINITY), None)
        if infinite is not None:
            omegas = _eliminate(omegas, infinite)
        elif abs(slopes[0].numerator) == 1:
            omegas = _absorb_first(omegas)
        else:
            s0 = slopes[0]
            first = SimpleSlope.from_fraction(Fraction(s0.denominator, s0.numerator))
            return SlopeSequence(first, tuple(slopes[1:]))
    return SlopeSequence()


def lower_slopes(w: BraidWord) -> SlopeSequence:
    """Slope sequence of the lower tunnel: the upper tunnel of the reverse."""
    return upper_slopes(reverse_word(w))


def braid_from_slopes(seq: SlopeSequence) -> BraidWord:
    """A braid word whose upper tunnel has the given slope sequence.

    The empty sequence yields the empty word.  Each slope is spelled from
    its even-odd continued fraction as S = dm s^(1+bn) dl^-an ... s^b1
    dl^-a1.  The blocks are laid right to left: block i is S_i dl^t, where
    t is the winding of the word R already built to its right.  Winding is
    a homomorphism, w(AB) = w(A) + (-1)^s(A) w(B) with s(A) the total
    s-exponent of A, so with e = (-1)^s(S_i)

        w(S_i dl^t R) = (w(S_i) - e t) + e t = w(S_i).

    Each block's correction is therefore the winding of the previous
    block's spelling alone, one integer carried from block to block.  The
    word is canonicalized once, then shrunk by peephole.
    """
    if not seq:
        return BraidWord()
    targets: list[Fraction] = [Fraction(seq.first.q, seq.first.p), *seq.rest]
    blocks: list[list[Letter]] = []
    twist = 0
    for target in targets:
        cf = expand_odd_numerator(target)
        letters: list[Letter] = [("m", 1), ("s", 1)]
        winding, s_parity = 0, -1
        for j in range(len(cf) - 2, -1, -2):
            b, a = cf[j + 1], cf[j] // 2
            letters.append(("s", b))
            letters.append(("l", -a))
            if b % 2:
                s_parity = -s_parity
            winding += s_parity * a
        letters.append(("l", twist))
        blocks.append(letters)
        twist = winding
    return peephole(word([letter for block in reversed(blocks) for letter in block]))


def peephole(w: BraidWord) -> BraidWord:
    """Shrink total s-weight using g^-1 = s g s for g in {dm, dl}.

    Each rewrite replaces s^a g s^b (with a, b positive and g a single
    generator) by s^(a-1) g^-1 s^(b-1), or the mirror image for negative
    exponents; the total s-weight drops by two each time, so this stops.
    One pass pushes the letters on a stack, rewriting its top while it matches.
    """
    stack: list[Letter] = []
    for name, exponent in w.letters:
        _push(stack, name, exponent)
        while len(stack) >= 3:
            (n1, a), (g, e), (n2, b) = stack[-3:]
            if n1 != "s" or n2 != "s" or abs(e) != 1 or a * e < 0 or b * e < 0:
                break
            del stack[-3:]
            _push(stack, "s", a - e)
            _push(stack, g, -e)
            _push(stack, "s", b - e)
    return BraidWord(tuple(stack))


def dual_slopes(seq: SlopeSequence) -> SlopeSequence:
    """Slope sequence of the other tunnel of the same position.

    Realize the sequence as an upper tunnel, then read the lower one.
    """
    return lower_slopes(braid_from_slopes(seq))
