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

from .errors import DomainError, ParseError
from .exact_arith import INFINITY, SIZE_LIMIT, ExtRational, _coprime, _Value

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


class BraidWord(_Value):
    """A canonical word: merged runs, no zero exponents.

    The constructor does not check that invariant; `word` builds a
    canonical word from any letters, and every function in this package
    returns canonical words.  __mul__, reverse_word, double_coset_trim and
    segment rely on the invariant: they join, reverse, slice or split the
    letters of canonical words without merging them again where no merge
    can happen.  A product merges only the letters at its seam, and the
    letters on either side of them are kept as they are.
    """

    __slots__ = ("letters",)

    def __new__(cls, letters: tuple[Letter, ...] = ()) -> "BraidWord":
        # one direct write through the slot's setter, not _Value._of's loop,
        # and object.__new__ read once: the engine builds hundreds of words per call
        w = _new(cls)
        _set_letters(w, letters)
        return w

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """The product: the letters of self, then those of other.

        Both words are canonical, so a merge can happen only at the seam.
        While the seam letters share a name, they merge by _push's rule; a
        merged letter ends the merging, since its neighbours have other
        names, and a cancelled pair exposes the next two letters as the
        seam.  Only the seam letters are read: the untouched letters of
        each word are kept as a slice, and the slices are joined around the
        merged letter, if any.  With an empty word or a seam of two names,
        the product is the two words' letters as they are.
        """
        left, right = self.letters, other.letters
        i, j = len(left), 0  # left[:i] and right[j:] are untouched
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            seam = [left[i - 1]]
            _push(seam, *right[j])
            i, j = i - 1, j + 1
            if seam:
                return BraidWord(left[:i] + (seam[0],) + right[j:])
        return BraidWord(left[:i] + right[j:])

    def __str__(self) -> str:
        return format_word(self)

    def __bool__(self) -> bool:
        return bool(self.letters)


_new = object.__new__
(_set_letters,) = BraidWord._setters


def word(letters: Iterable[Letter]) -> BraidWord:
    """Build a canonical word, merging adjacent runs of the same generator.

    Each letter is _push'ed onto a stack, so cancellation cascades:
    m 1 s -2 s 2 m -1 collapses to the empty word.  A letter is unpacked as
    `name, exponent`: a two-item list is taken as a tuple, and a letter of
    another length raises ValueError.  An unknown generator name raises
    DomainError, zero exponent or not.
    """
    stack: list[Letter] = []
    for name, exponent in letters:
        if name not in GENERATORS:
            raise DomainError(f"unknown generator {name!r}")
        _push(stack, name, exponent)
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


def _shown(token: str) -> str:
    """A refused token as an error message shows it: its first 20 characters."""
    return repr(token) if len(token) <= 20 else f"{token[:20]!r}..."


def _too_long(token: str, kind: str) -> str | None:
    """Why int() refused a token of decimal digits, or None for other tokens.

    The digits may carry a sign and single underscores between them, as
    int() reads them.  Such a token fails only by exceeding Python's limit
    on integer string conversion; the message names the digit count.
    """
    body = token[1:] if token[:1] in ("+", "-") else token
    digits = body.replace("_", "")
    if not digits.isdecimal() or "__" in body or "_" in (body[0], body[-1]):
        return None
    return (
        f"{kind} too long ({len(digits)} digits, the limit is "
        f"{sys.get_int_max_str_digits()}), got {_shown(token)}"
    )


def _parse_int(token: str, position: int, kind: str) -> int:
    """The integer a token spells, or a ParseError naming its position."""
    try:
        return int(token)
    except ValueError:
        pass
    message = _too_long(token, kind) or f"expected an {kind}, got {_shown(token)}"
    raise ParseError(f"token {position}: {message}")


def parse_word(text: str) -> BraidWord:
    """Parse the text form of a word.

    >>> parse_word("m 2 s -1").letters
    (('m', 2), ('s', -1))
    """
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise ParseError(
            f"token {len(tokens)}: generator {_shown(tokens[-1])} has no exponent"
        )
    letters: list[Letter] = []
    for i in range(0, len(tokens), 2):
        name = tokens[i]
        if name not in GENERATORS:
            raise ParseError(f"token {i + 1}: expected one of m, l, s, got {_shown(name)}")
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
    """The letters s^bn dl^-an ... s^b1 dl^-a1 for [2a1, b1, ..., 2an, bn].

    The expansion is expand_odd_numerator's even-odd shape, spelled right to
    left with dl for the a-steps, as braid_from_slopes lays each slope, and
    not merged: a1 is 0 when the expanded value lies within 1 of 0.  Its
    _reversed, dm^-a1 s^b1 ... dm^-an s^bn, is the 2-bridge spelling.
    """
    letters: list[Letter] = []
    for j in range(len(cf) - 2, -1, -2):
        letters += (("s", cf[j + 1]), ("l", -(cf[j] // 2)))
    return letters


def winding_number(w: BraidWord) -> int:
    """Total dl-exponent counted with a sign that flips at each odd s-block.

    A dl^e run contributes -e when the total s-exponent strictly before it is
    even and +e when it is odd; dm letters never contribute.

    >>> winding_number(parse_word("m 1 s 4 l -1"))
    1
    >>> winding_number(parse_word("m 1 l 1"))
    -1
    """
    return _winding(w.letters)


def _winding(letters: Iterable[Letter]) -> int:
    """winding_number of the word these letters spell, merged or not."""
    total = 0
    s_parity = 1
    for name, exponent in letters:
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


def segment(w: BraidWord) -> list[BraidWord] | None:
    """Split a word at its dm letters into subgroup segments.

    Reading each dm^-k as (s dm s)^k, the trimmed word has the form
    dm s u_d dm s u_{d-1} ... dm s u_0 with each u_i in < dl, s >; the
    returned list holds the segments s^-1 u_i indexed from the right, so
    segment(w)[0] is the rightmost.  So dm^k opens k pieces, and dm^-k
    closes the current piece with s (trimming puts a dm first, so the first
    letter has no piece to close) and opens k - 1 pieces with s^2 and one
    with s.  Returns None when the word trims to nothing (the trivial knot).

    Either way dm^+-k makes k pieces; a word that would make more than
    SIZE_LIMIT raises DomainError before any piece is built.  Each piece
    is a slice of the trimmed letters, canonical as it is, merged only at
    its opening and closing s (see _split).
    """
    trimmed = double_coset_trim(w)
    return _split(trimmed.letters) if trimmed else None


def _split(letters: tuple[Letter, ...]) -> list[BraidWord]:
    """The segments of a trimmed canonical word's letters, rightmost first.

    One scan finds the dm letters; the sum of their |k| is the segment
    count, checked against SIZE_LIMIT before any piece is built.  The
    letters between two dm letters, or after the last, form one slice of
    < dl, s > letters.  Its piece is s^-1 (or nothing, after a dm^-k), then
    the slice, then the closing s when the next dm letter is negative.  The
    slice is canonical and opens and closes with s or dl, so a merge can
    happen only at its first letter, with the opening s^-1, and at its last,
    with the closing s: those two go through _push, which also handles a
    slice of one letter that both merge into, and the rest of the slice is
    kept as it is.  The other |k| - 1 pieces of a dm^k are s^-1, and those
    of a dm^-k are s^-1 s^2 = s.
    """
    marks = [i for i, (name, _) in enumerate(letters) if name == "m"]
    if sum(abs(letters[i][1]) for i in marks) > SIZE_LIMIT:
        raise DomainError(_TOO_MANY_SEGMENTS)
    segments: list[BraidWord] = []
    end, closing = len(letters), False
    for i in reversed(marks):
        k = letters[i][1]
        piece: list[Letter] = [] if k < 0 else [("s", -1)]
        _push(piece, *letters[i + 1])
        piece += letters[i + 2 : end]
        if closing:
            _push(piece, "s", 1)
        segments.append(BraidWord(tuple(piece)))
        segments += [BraidWord((("s", 1 if k < 0 else -1),))] * (abs(k) - 1)
        end, closing = i, k < 0
    return segments


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
    The action is unimodular, so the column is coprime and a/b is built
    in lowest terms with no gcd; the slope engine untwists the numerator and
    denominator as integers, with no gcd either.

    >>> subgroup_slope(parse_word("s 3 l -1"))
    Fraction(7, 3)
    """
    a, b = _subgroup_column(u)
    if b == 0:
        return INFINITY
    return _coprime(a, b)  # the column of a unimodular action
