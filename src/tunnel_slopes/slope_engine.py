"""Slope sequences of tunnels and their conversion to and from braid words.

A (1,1)-position described by a braid word w has an upper and a lower
tunnel; each tunnel is classified by a sequence [m0], m1, ..., md where m0
is a class in Q/Z and the later entries are rationals with odd numerator.
``upper_slopes`` and ``lower_slopes`` read those sequences off a word, and
``braid_from_slopes`` builds a word realizing a given sequence.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain

from .braid import (
    BraidWord,
    Letter,
    _even_odd_letters,
    _parse_int,
    _push,
    _shown,
    _winding,
    reverse_word,
    segment,
    subgroup_slope,
    winding_number,
    word,
)
from .errors import DomainError, ParseError
from .exact_arith import INFINITY, SimpleSlope, _coprime, _Value, _expand_odd

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

    ``first`` is the class of m0 in Q/Z and ``rest`` holds m1, ..., md as a
    tuple, copied from any other sequence it is given, so the value is
    hashable and cannot change after its checks.  The empty sequence (first
    is None) belongs to the trivial knot; a nonempty sequence has a
    nonintegral first slope with odd denominator and later slopes with odd
    numerator.

    The public constructor checks all of that.  ``_of_valid`` skips the
    checks and the copy, for the library's own sequences: only for a first
    slope and a tuple of Fractions that are valid by construction, as above,
    and the caller says why at the call site.
    """

    __slots__ = ("first", "rest")

    def __init__(
        self, first: SimpleSlope | None = None, rest: Sequence[Fraction] = ()
    ) -> None:
        rest = tuple(rest)
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

    @classmethod
    def _of_valid(cls, first: SimpleSlope, rest: tuple[Fraction, ...]) -> "SlopeSequence":
        """The sequence [first], *rest, valid by construction, with no checks."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "first", first)
        object.__setattr__(seq, "rest", rest)
        return seq

    def __bool__(self) -> bool:
        return self.first is not None


def format_slopes(seq: SlopeSequence) -> str:
    """Text form "[ p/q ], m1, m2, ..."; the empty sequence formats as "".

    >>> format_slopes(SlopeSequence(SimpleSlope(3, 7), (Fraction(7, 2),)))
    '[ 3/7 ], 7/2'
    """
    if not seq:
        return ""
    return ", ".join([str(seq.first)] + [str(x) for x in seq.rest])


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
            f"token {len(tokens)}: numerator {_shown(tokens[-1])} has no denominator"
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


def _segment_slopes(omegas: Sequence[BraidWord]) -> list[tuple[int, int]]:
    """Slopes of the segments from the rightmost up to the first at INFINITY.

    Each slope is untwisted by the winding t of the word right of its
    segment, and kept as the integer pair (p, q) standing for p/q.
    Appending dl^t to a word u of < dl, s > maps u's slope a/b to
    (a - 2tb)/b, so the untwisted slope is the pair (a + 2tb, b).  No gcd
    is taken: subgroup_slope gives a/b in lowest terms, and gcd(a + 2tb, b)
    = gcd(a, b) = 1.  The dl-axis, INFINITY, is the pair (1, 0).

    Reading stops at the first INFINITY, segment i say, and it is the last
    pair returned; only the suffix words right of segment i are built.  The
    slopes left of it are never needed: the round merges segment i with its
    neighbours, and the next round reads every slope left of the merge
    again.  With no INFINITY, every segment's slope is returned.
    """
    slopes: list[tuple[int, int]] = []
    suffix = BraidWord()
    for omega in omegas:
        slope = subgroup_slope(omega)
        if slope is INFINITY:
            slopes.append((1, 0))
            break
        b = slope.denominator
        slopes.append((slope.numerator + 2 * winding_number(suffix) * b, b))
        suffix = _MS * omega * suffix
    return slopes


def _eliminate(omegas: Sequence[BraidWord], i: int) -> list[BraidWord]:
    """Merge segment i, whose slope is INFINITY, away.

    The last segment drops itself and the one before it.  Any other segment
    i is replaced, with its neighbours, by omegas[i + 1] dl^w omegas[i - 1],
    where w is the winding of omegas[i] and segment 0 has no right
    neighbour.
    """
    omegas = list(omegas)
    if i == len(omegas) - 1:
        return omegas[:-2]
    merged = omegas[i + 1] * word([("l", winding_number(omegas[i]))])
    if i == 0:
        return [merged] + omegas[2:]
    return omegas[: i - 1] + [merged * omegas[i - 1]] + omegas[i + 2 :]


def upper_slopes(w: BraidWord) -> SlopeSequence:
    """Slope sequence of the upper tunnel of the position described by w.

    Each round reads slopes with _segment_slopes, from segment 0 (the
    rightmost) upward, and stops at the first that degenerates to INFINITY
    (q == 0 in its pair); that segment is merged away with _eliminate.  The
    slopes left of it are never read in that round, since the merge takes
    in its neighbours and the next round reads them all again.  A round
    with no INFINITY reads every slope, and the rounds stop there.

    An integral first slope (|p| == 1, since the first slope is q/p) is
    then absorbed: merging segment 0 into segment 1 as omegas[1] dl^w, with
    w the winding of omegas[0], gives segment 1's pair untwisted by -w,
    which is the pair it already has, and leaves the suffix windings above
    unchanged.  So each absorption drops the bottom pair and keeps the rest,
    and the pairs left (possibly none) are the reduced form.  Fractions are
    built only for the sequence returned.
    """
    omegas = segment(w) or []
    slopes = _segment_slopes(omegas)
    while slopes and slopes[-1][1] == 0:
        omegas = _eliminate(omegas, len(slopes) - 1)
        slopes = _segment_slopes(omegas)
    bottom = 0
    while bottom < len(slopes) and abs(slopes[bottom][0]) == 1:
        bottom += 1
    if bottom == len(slopes):
        return SlopeSequence()
    # every pair is a coprime column (a, b) untwisted to (a + 2tb, b), and a
    # is odd, since s and dl keep the column (1, 0)'s first entry odd; the
    # bottom pop left |p| != 1, so the first slope q/p is no integer
    (p, q), *rest = slopes[bottom:]
    first = SimpleSlope._of_coprime(q, p)
    return SlopeSequence._of_valid(first, tuple([_coprime(p, q) for p, q in rest]))


def lower_slopes(w: BraidWord) -> SlopeSequence:
    """Slope sequence of the lower tunnel: the upper tunnel of the reverse."""
    return upper_slopes(reverse_word(w))


def braid_from_slopes(seq: SlopeSequence) -> BraidWord:
    """A braid word whose upper tunnel has the given slope sequence.

    The empty sequence yields the empty word.  Each slope p/q (the first one
    read as q/p from its class p/q) is expanded in integers into the
    even-odd continued fraction [2a1, b1, ..., 2an, bn], and spelled as the
    block S = dm s s^bn dl^-an ... s^b1 dl^-a1: dm s, then the 2-bridge
    spelling dm^-a1 s^b1 ... dm^-an s^bn reversed with dm and dl exchanged.
    The blocks are laid right to left: block i is S_i dl^t, where t is the
    winding of the word R already built to its right.  Winding is a
    homomorphism, w(AB) = w(A) + (-1)^s(A) w(B) with s(A) the total
    s-exponent of A, so with e = (-1)^s(S_i)

        w(S_i dl^t R) = (w(S_i) - e t) + e t = w(S_i).

    So one pass over the slopes spells each block, reads the next block's
    twist off S_i by the winding rule, and only then appends S_i's own dl^t.

    The block's s letters come merged, as _shrink needs: dm s s^bn is
    spelled dm s^(bn + 1) by raising the expansion's last b-step, and the
    speller's other letters alternate s and dl.  The dl letters that meet
    (dl^-a1 dl^t, and any zero among them) merge in _shrink's own _push,
    as does dm | dm after a block that shrank to dm alone.  The blocks'
    letters go straight into _shrink, left to right, with no word built
    before it.
    """
    if not seq:
        return BraidWord()
    blocks: list[list[Letter]] = []
    twist = 0
    pairs = [(x.numerator, x.denominator) for x in seq.rest]
    for p, q in [(seq.first.q, seq.first.p), *pairs]:
        entries = _expand_odd(p, q)
        entries[-1] += 1
        block = [("m", 1), *_even_odd_letters(entries)]
        next_twist = _winding(block)
        block.append(("l", twist))
        blocks.append(block)
        twist = next_twist
    return _shrink(chain.from_iterable(reversed(blocks)))


def peephole(w: BraidWord) -> BraidWord:
    """Shrink total s-weight using g^-1 = s g s for g in {dm, dl}.

    Each rewrite replaces s^a g s^b (with a, b positive and g a single
    generator) by s^(a-1) g^-1 s^(b-1), or the mirror image for negative
    exponents; the total s-weight drops by two each time, so this stops.
    It is one _shrink pass over the word's letters, which are canonical,
    so every s comes merged, and the check after each pushed s is enough.
    """
    return _shrink(w.letters)


def _shrink(letters: Iterable[Letter]) -> BraidWord:
    """peephole of the word these letters spell, in one pass over them.

    The letters are pushed on a stack with _push, and the stack is kept
    rewritten as far as it goes: no three adjacent letters in it match
    s^a g^+-1 s^b.  A match ends in s, so the check runs only after a
    pushed s, at the top.  A pushed dm or dl either stays on top, where no
    match ends, or cancels the top and leaves a stack that was already
    rewritten as far as it goes.  A rewrite of s^a g^e s^b keeps s^a's
    sign in s^(a-e), so below the top nothing matches that did not match
    before, and the loop checks the top again until it holds.

    Two s letters that would merge must come in merged, as in a canonical
    word: s 1 m 1 s 1 s -1 is the word s 1 m 1, but a push of its third
    letter rewrites s 1 m 1 s 1 to m -1 before the s -1 comes.  Letters of
    another name may come unmerged, since no check runs between them.
    """
    stack: list[Letter] = []
    for name, exponent in letters:
        _push(stack, name, exponent)
        if name != "s":
            continue
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
