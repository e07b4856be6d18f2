"""Words in the reduced braid group B = < dm, dl, s >.

The three generators satisfy (dm s)^2 = (dl s)^2 = 1 and
dm^-1 dl dm dl^-1 = s^2, so conjugation by s inverts dm and dl:

    dm^-1 = s dm s        dl^-1 = s dl s

A word is a sequence of letters, each a generator name ("m", "l" or "s")
with a nonzero integer exponent, adjacent letters having distinct names.
The text form is whitespace-separated name/exponent pairs, e.g.
"m -1 s -1 l 1 m -1 s 3 l -1".
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DomainError, ParseError
from .exact_arith import INFINITY, SIZE_LIMIT, ExtRational, _Value

__all__ = [
    "GENERATORS",
    "SIZE_LIMIT",
    "Letter",
    "BraidWord",
    "word",
    "parse_word",
    "format_word",
    "reverse_word",
    "winding_number",
    "double_coset_trim",
    "segment",
    "subgroup_slope",
]

GENERATORS = ("m", "l", "s")

Letter = tuple[str, int]

# the top name of an empty letter stack: it equals no letter's name
_NO_TOP = object()


class BraidWord(_Value):
    """A canonical word: merged runs, no zero exponents.

    The constructor does not check that invariant; `word` builds a
    canonical word from any letters, and every function in this package
    returns canonical words.  A canonical word may share its letter tuples
    with the letters it was built from: `word` keeps a letter that merges
    with nothing as the tuple it was given, and builds a new tuple only for
    a merged run.  reverse_word, double_coset_trim and segment rely on the
    invariant: they reverse, slice or split the letters of a canonical word
    without merging them again.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()) -> None:
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return word(self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __bool__(self) -> bool:
        return bool(self.letters)


def word(letters: Iterable[Letter]) -> BraidWord:
    """Build a canonical word, merging adjacent runs of the same generator.

    Cancellation cascades: m 1 s -2 s 2 m -1 collapses to the empty word.
    A letter that merges with no neighbour is kept as the very tuple it came
    in as, and a merged run is a new tuple.  A letter of another shape is
    converted or refused as the unpacking `name, exponent = letter` decides:
    a two-item list becomes a tuple, and a letter of another length raises
    ValueError.  An unknown generator name raises DomainError, zero
    exponent or not.
    """
    stack: list[Letter] = []
    top = _NO_TOP  # the name of stack[-1]
    for letter in letters:
        name, exponent = letter
        if name == top:
            exponent += stack.pop()[1]
            if exponent:
                stack.append((name, exponent))
            else:
                top = stack[-1][0] if stack else _NO_TOP
            continue
        if name not in GENERATORS:
            raise DomainError(f"unknown generator {name!r}")
        if exponent:
            stack.append(letter if type(letter) is tuple else (name, exponent))
            top = name
    return BraidWord(tuple(stack))


def _push(stack: list[Letter], name: str, exponent: int) -> None:
    """Append a letter to a canonical letter stack, merging it into the top.

    The stack stays canonical: a top of the same name absorbs the exponent
    and is dropped when it reaches zero, exposing a letter of another name.
    """
    if stack and stack[-1][0] == name:
        exponent += stack.pop()[1]
    if exponent:
        stack.append((name, exponent))


def _too_long(token: str, kind: str) -> str | None:
    """Why int() refused a token of decimal digits, or None for other tokens.

    Such a token fails only by exceeding Python's limit on integer string
    conversion; the message names the digit count and echoes only the
    token's start.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not digits.isdecimal():
        return None
    return (
        f"{kind} too long ({len(digits)} digits, the limit is "
        f"{sys.get_int_max_str_digits()}), got {token[:20]!r}..."
    )


def _parse_int(token: str, position: int, kind: str) -> int:
    """The integer a token spells, or a ParseError naming its position."""
    try:
        return int(token)
    except ValueError:
        pass
    message = _too_long(token, kind) or f"expected an {kind}, got {token!r}"
    raise ParseError(f"token {position}: {message}")


def parse_word(text: str) -> BraidWord:
    """Parse the text form of a word.

    >>> parse_word("m 2 s -1").letters
    (('m', 2), ('s', -1))
    """
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise ParseError(
            f"token {len(tokens)}: generator {tokens[-1]!r} has no exponent"
        )
    letters: list[Letter] = []
    for i in range(0, len(tokens), 2):
        name = tokens[i]
        if name not in GENERATORS:
            raise ParseError(f"token {i + 1}: expected one of m, l, s, got {name!r}")
        letters.append((name, _parse_int(tokens[i + 1], i + 2, "integer exponent")))
    return word(letters)


def format_word(w: BraidWord) -> str:
    """Text form of a word; the empty word formats as the empty string."""
    return " ".join(f"{name} {exponent}" for name, exponent in w.letters)


_SWAP = {"m": "l", "l": "m", "s": "s"}


def _reversed(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters in reverse order, with dm and dl exchanged."""
    return tuple([(_SWAP[name], e) for name, e in reversed(letters)])


def reverse_word(w: BraidWord) -> BraidWord:
    """Reverse the letter order and exchange dm with dl.

    This is the automorphism that exchanges the upper and lower tunnel data
    of the position the word describes.  The reverse of a canonical word
    is canonical, so its letters are not merged again.
    """
    return BraidWord(_reversed(w.letters))


def _even_odd_letters(cf: Sequence[int]) -> list[Letter]:
    """The letters dm^-a1 s^b1 ... dm^-an s^bn spelling [2a1, b1, ..., 2an, bn].

    The expansion is expand_odd_numerator's even-odd shape, spelled left to
    right and not merged: a1 is 0 when the expanded value lies within 1 of 0.
    """
    return [("s", x) if j % 2 else ("m", -(x // 2)) for j, x in enumerate(cf)]


def winding_number(w: BraidWord) -> int:
    """Total dl-exponent counted with a sign that flips at each odd s-block.

    A dl^e run contributes -e when the total s-exponent strictly before it is
    even and +e when it is odd; dm letters never contribute.

    >>> winding_number(parse_word("m 1 s 4 l -1"))
    1
    >>> winding_number(parse_word("m 1 l 1"))
    -1
    """
    total = 0
    s_parity = 1
    for name, exponent in w.letters:
        if name == "s":
            s_parity = s_parity if exponent % 2 == 0 else -s_parity
        elif name == "l":
            total -= s_parity * exponent
    return total


def double_coset_trim(w: BraidWord) -> BraidWord:
    """Strip the maximal <dl, s> prefix and the maximal <dm, s> suffix.

    Words equal up to those cosets describe the same position; a word that
    trims to nothing describes the trivial knot.  A slice of a canonical
    word is canonical, so the kept letters are not merged again.
    """
    letters = w.letters
    start = 0
    while start < len(letters) and letters[start][0] in ("l", "s"):
        start += 1
    end = len(letters)
    while end > start and letters[end - 1][0] in ("m", "s"):
        end -= 1
    return BraidWord(letters[start:end])


# the refusal of a word over the size limit, shared with the 2-bridge report;
# it leaves the count out, since the count itself may be too long to print
_TOO_MANY_SEGMENTS = f"the word has more than {SIZE_LIMIT} segments (the size limit)"


def _segment_count(letters: Iterable[Letter]) -> int:
    """The sum of |k| over the dm^k letters: a trimmed word's segment count."""
    return sum(abs(k) for name, k in letters if name == "m")


def segment(w: BraidWord) -> list[BraidWord] | None:
    """Split a word at its dm letters into subgroup segments.

    Reading each dm^-k as (s dm s)^k, the trimmed word has the form
    dm s u_d dm s u_{d-1} ... dm s u_0 with each u_i in < dl, s >; the
    returned list holds the segments s^-1 u_i indexed from the right, so
    segment(w)[0] is the rightmost.  So dm^k opens k pieces, and dm^-k
    closes the current piece with s (trimming puts a dm first, so the first
    letter has no piece to close) and opens k - 1 pieces with s^2 and one
    with s.  Returns None when the word trims to nothing (the trivial knot).

    Each piece starts as its s^-1 (so s^-1 s^2 = s, and s^-1 s is empty)
    and its letters are pushed onto it with _push, so it is built
    canonical and no piece is canonicalized again.  The trimmed word being
    canonical, a merge can happen only at a piece's start and at the s
    that closes it.

    Either way dm^+-k makes k pieces; a word that would make more than
    SIZE_LIMIT raises DomainError before any piece is built.
    """
    trimmed = double_coset_trim(w)
    if _segment_count(trimmed.letters) > SIZE_LIMIT:
        raise DomainError(_TOO_MANY_SEGMENTS)
    if not trimmed:
        return None
    pieces: list[list[Letter]] = []
    for name, exponent in trimmed.letters:
        if name != "m":
            _push(pieces[-1], name, exponent)
        elif exponent > 0:
            pieces.extend([("s", -1)] for _ in range(exponent))
        else:
            if pieces:
                _push(pieces[-1], "s", 1)
            pieces.extend([("s", 1)] for _ in range(-exponent - 1))
            pieces.append([])
    return [BraidWord(tuple(piece)) for piece in reversed(pieces)]


def _subgroup_column(u: BraidWord) -> tuple[int, int]:
    """The column (a, b) that the action of u makes of (1, 0).

    u must lie in the subgroup < dl, s >.  Read left to right, s^e adds
    e a to b and dl^e subtracts 2 e b from a.  Each step is unimodular, so
    gcd(a, b) = 1, and a stays odd; b == 0 is the dl-axis, where a = +-1.
    """
    a, b = 1, 0
    for name, exponent in u.letters:
        if name == "s":
            b += a * exponent
        elif name == "l":
            a -= 2 * exponent * b
        else:
            raise DomainError("word leaves the subgroup < dl, s >")
    assert a % 2 == 1
    return a, b


def subgroup_slope(u: BraidWord) -> ExtRational:
    """Slope of the disk obtained by pushing the primitive disk through u.

    u must lie in the subgroup < dl, s >.  The slope is a/b for the column
    (a, b) that u's action makes of (1, 0): a rational with odd numerator,
    or INFINITY for the dl-axis b == 0 (in particular for the empty word).
    The action is unimodular, so the column is coprime and a/b is already
    in lowest terms; the slope engine untwists the numerator and denominator
    as integers, with no gcd.

    >>> subgroup_slope(parse_word("s 3 l -1"))
    Fraction(7, 3)
    """
    a, b = _subgroup_column(u)
    if b == 0:
        return INFINITY
    return Fraction(a, b)
