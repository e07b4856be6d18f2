"""Braid words: parsing, canonical form, winding, trimming, segments, slopes."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzing import random_subgroup_word
from tunnel_slopes import braid
from tunnel_slopes import BraidWord, DomainError, ParseError, format_word, parse_word, reverse_word
from tunnel_slopes.braid import (
    SIZE_LIMIT,
    Letter,
    _subgroup_column,
    double_coset_trim,
    segment,
    subgroup_slope,
    winding_number,
    word,
)
from tunnel_slopes.exact_arith import INFINITY


def subgroup_normal_form(u: BraidWord) -> BraidWord:
    """Normal form of a < dl, s > word under (dl s)^2 = 1.

    Writing x = dl s (an involution), every element is an alternating word
    in x and s-powers; spelling x back as dl s gives a canonical
    representative.  An oracle for subgroup_slope, which it must preserve.
    """
    symbols: list[Letter] = []  # ("x", 1) or ("s", e) with e != 0

    def push_s(e: int) -> None:
        if e == 0:
            return
        if symbols and symbols[-1][0] == "s":
            e += symbols.pop()[1]
            if e == 0:
                return
        symbols.append(("s", e))

    def push_x() -> None:
        if symbols and symbols[-1][0] == "x":
            symbols.pop()
        else:
            symbols.append(("x", 1))

    for name, exponent in u.letters:
        if name == "s":
            push_s(exponent)
        elif name == "l":
            if exponent > 0:
                for _ in range(exponent):  # dl = x s^-1
                    push_x()
                    push_s(-1)
            else:
                for _ in range(-exponent):  # dl^-1 = s x
                    push_s(1)
                    push_x()
        else:
            raise DomainError("word leaves the subgroup < dl, s >")
    letters: list[Letter] = []
    for name, exponent in symbols:
        if name == "x":
            letters.append(("l", 1))
            letters.append(("s", 1))
        else:
            letters.append(("s", exponent))
    return word(letters)


def test_word_merges_adjacent_like_generators():
    assert format_word(word([("m", 2), ("m", 3)])) == "m 5"
    assert format_word(word([("s", 1), ("s", -1)])) == ""
    assert format_word(word([("m", 1), ("s", 2), ("s", -2), ("m", -1)])) == ""
    assert format_word(word([("l", 0), ("m", 1)])) == "m 1"


def test_word_rejects_unknown_generator():
    for letters in ([("x", 1)], [("m", 1), ("x", 0)], [("s", 1), ("s", -1), ("", 1)]):
        with pytest.raises(DomainError, match="unknown generator"):
            word(letters)


def test_word_takes_list_letters_and_any_iterable():
    w = word([["m", 2], ["s", -1]])
    assert w.letters == (("m", 2), ("s", -1))
    assert all(type(letter) is tuple for letter in w.letters)
    assert hash(w) == hash(word((("m", 2), ("s", -1))))
    g = word(letter for letter in [("m", 1), ["m", 1], ("l", -3)])
    assert g.letters == (("m", 2), ("l", -3))
    assert all(type(letter) is tuple for letter in g.letters)
    assert hash(g) == hash(parse_word("m 2 l -3"))


def test_word_cancellation_exposes_the_letter_below():
    # s 2 s -2 cancels, and the next m merges into the m now on top
    assert format_word(word([["m", 1], ["s", 2], ["s", -2], ["m", 2]])) == "m 3"
    # a cascade: l and then s cancel, exposing m 2, which m 1 merges into
    assert format_word(parse_word("m 2 s 3 l 1 l -1 s -3 m 1 s 1 l 1")) == "m 3 s 1 l 1"
    assert format_word(word([("s", 1), ("s", -1), ("s", 2)])) == "s 2"
    assert format_word(word([("m", 1), ("l", 1), ("l", -1), ("l", 1)])) == "m 1 l 1"


def test_word_drops_zero_exponents():
    assert word([("m", 0)]) == word([])
    assert format_word(word([("m", 1), ("s", 0), ("m", 1)])) == "m 2"
    assert format_word(word([("s", 0), ("l", 2), ("l", 0), ("m", 0)])) == "l 2"


def test_word_refuses_letters_of_the_wrong_length():
    with pytest.raises(ValueError, match="too many values to unpack"):
        word([("m", 1, 2)])
    with pytest.raises(ValueError, match="not enough values to unpack"):
        word([("m",)])


def test_word_merges_a_run_between_unmerged_letters():
    letters = [("m", 2), ("s", 1), ("s", 2), ("l", -1)]
    assert word(letters).letters == (("m", 2), ("s", 3), ("l", -1))


def test_parse_format_round_trip():
    text = "m 3 s -2 l 3 s -4 m -1 s -4 l 3"
    assert format_word(parse_word(text)) == text
    assert parse_word("") == word([])
    assert parse_word("  m  1   l  -1 ") == parse_word("m 1 l -1")


def test_parse_error_messages_carry_token_positions():
    with pytest.raises(ParseError, match="token 3"):
        parse_word("m 1 s")
    with pytest.raises(ParseError, match="token 1.*'q'"):
        parse_word("q 1")
    with pytest.raises(ParseError, match="token 4.*'x'"):
        parse_word("m 1 s x")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
)
def test_parse_word_names_an_overlong_exponent():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ParseError) as info:
        parse_word(f"m 1 s {'7' * digits}")
    assert str(info.value) == (
        f"token 4: integer exponent too long ({digits} digits, the limit is "
        f"{sys.get_int_max_str_digits()}), got '77777777777777777777'..."
    )
    assert parse_word(f"m {'7' * (digits - 1)}").letters[0][1] == int("7" * (digits - 1))


def test_reverse_word_swaps_m_and_l():
    assert format_word(reverse_word(parse_word("m 3 s -2 l 3"))) == "m 3 s -2 l 3"
    assert format_word(reverse_word(parse_word("m 1 s 4 l -1"))) == "m -1 s 4 l 1"
    assert reverse_word(word([])) == word([])


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("mls"), st.integers(-4, 4)),
        max_size=10,
    )
)
def test_reverse_word_is_an_involution(letters):
    w = word(letters)
    assert reverse_word(reverse_word(w)) == w


def test_winding_number_pinned_values():
    assert winding_number(parse_word("m 1 s 4 l -1")) == 1
    assert winding_number(parse_word("m 1 l 1")) == -1
    assert winding_number(parse_word("m -1 s -1 l 1 m -1 s 3 l -1")) == 2
    assert winding_number(word([])) == 0
    assert winding_number(parse_word("s 5 m 2")) == 0


def _winding_by_unit_walk(w):
    """Recount the l-exponent with alternating sign, one unit letter at a time."""
    total = 0
    s_seen = 0
    for gen, exp in w.letters:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if gen == "s":
                s_seen += step
            elif gen == "l":
                total += step if s_seen % 2 else -step
    return total


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("mls"), st.integers(-5, 5)),
        max_size=12,
    )
)
def test_winding_number_matches_unit_letter_walk(letters):
    w = word(letters)
    assert winding_number(w) == _winding_by_unit_walk(w)


def test_double_coset_trim_pinned_values():
    assert double_coset_trim(parse_word("l 5 s 2")) == word([])
    assert format_word(double_coset_trim(parse_word("s 1 m 2 l 1 m 3 s -2"))) == "m 2 l 1"
    assert double_coset_trim(parse_word("m 1")) == word([])  # pure <dm, s> suffix
    assert format_word(double_coset_trim(parse_word("m 1 l 1 m 1"))) == "m 1 l 1"
    assert double_coset_trim(word([])) == word([])


def test_segment_pinned_values():
    pieces = segment(parse_word("m -1 s -1 l 1 m -1 s 3 l -1"))
    assert [format_word(p) for p in pieces] == ["s 3 l -1", "s -1 l 1 s 1"]
    pieces = segment(parse_word("m 3 s -2 l 3 s -4 m -1 s -4 l 3"))
    assert [format_word(p) for p in pieces] == [
        "s -4 l 3",
        "s -3 l 3 s -3",
        "s -1",
        "s -1",
    ]
    assert segment(parse_word("l 3 s 1 m -2")) is None
    assert [format_word(p) for p in segment(parse_word("m 1 l -1"))] == ["s -1 l -1"]
    pieces = segment(parse_word("m -3 s 1 l 1"))
    assert [format_word(p) for p in pieces] == ["s 1 l 1", "s 1", "s 1"]
    pieces = segment(parse_word("m 2 s 3 l -1 m -3 l 1"))
    assert [format_word(p) for p in pieces] == ["l 1", "s 1", "s 1", "s 2 l -1 s 1", "s -1"]


def test_segment_size_limit():
    assert SIZE_LIMIT == 65536
    assert len(segment(word([("m", SIZE_LIMIT), ("l", 1)]))) == SIZE_LIMIT
    assert len(segment(word([("m", -40000), ("s", 1), ("m", 25536), ("l", 1)]))) == SIZE_LIMIT
    for letters in (
        [("m", -SIZE_LIMIT - 1), ("s", 1), ("l", 1)],
        [("m", 30000), ("l", 1), ("m", -35537), ("l", 1)],
    ):
        with pytest.raises(DomainError) as info:
            segment(word(letters))
        assert str(info.value) == "the word has more than 65536 segments (the size limit)"


def test_subgroup_slope_pinned_values():
    assert subgroup_slope(parse_word("s 3 l -1")) == Fraction(7, 3)
    assert subgroup_slope(parse_word("s -1 l 1 s 1 l -1")) == Fraction(7, 2)
    assert subgroup_slope(parse_word("l 4")) is INFINITY
    assert subgroup_slope(word([])) is INFINITY
    assert subgroup_slope(parse_word("s -1 l -1")) == 1
    assert subgroup_slope(parse_word("s -1 l -2")) == 3


def test_subgroup_slope_rejects_m_letters():
    with pytest.raises(DomainError):
        subgroup_slope(parse_word("m 1 l 1"))


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("ls"), st.integers(-4, 4)),
        max_size=10,
    )
)
def test_subgroup_slope_has_odd_numerator(letters):
    value = subgroup_slope(word(letters))
    if value is not INFINITY:
        assert value.numerator % 2 == 1


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("ls"), st.integers(-4, 4)),
        max_size=10,
    ),
    st.integers(-50, 50),
)
def test_subgroup_slope_of_a_twisted_word_shifts_by_twice_the_twist(letters, t):
    # the slope engine untwists a segment by adding 2t to its slope
    u = word(letters)
    slope = subgroup_slope(u)
    twisted = subgroup_slope(u * word([("l", t)]))
    if slope is INFINITY:
        assert twisted is INFINITY
    else:
        assert twisted == slope - 2 * t


def test_subgroup_column_is_a_coprime_pair_with_odd_first_entry():
    # the slope engine untwists subgroup_slope's a/b to the pair (a + 2tb, b)
    # and takes no gcd, which rests on these three facts
    dl_axis = negative = 0
    for seed in range(2000):
        u = random_subgroup_word(seed, "ls", 1 + seed % 12)
        a, b = _subgroup_column(u)
        assert a % 2 == 1 and math.gcd(a, b) == 1, u
        for t in range(-5, 6):
            assert math.gcd(a + 2 * t * b, b) == 1, (u, t)
        if b == 0:
            dl_axis += 1
            assert subgroup_slope(u) is INFINITY and abs(a) == 1, u
        else:
            negative += b < 0
            assert subgroup_slope(u) == Fraction(a, b), u
    assert dl_axis >= 100 and negative >= 100


def test_subgroup_normal_form_pins_and_properties():
    assert format_word(subgroup_normal_form(parse_word("s -1 l -1"))) == "l 1 s 1"
    assert subgroup_normal_form(word([])) == word([])
    rng = random.Random(7)
    for _ in range(60):
        letters = [
            (rng.choice("ls"), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 8))
        ]
        w = word(letters)
        nf = subgroup_normal_form(w)
        assert subgroup_slope(nf) == subgroup_slope(w)
        assert subgroup_normal_form(nf) == nf


def test_braid_word_multiplication_and_truthiness():
    left = parse_word("m 1 s -1")
    right = parse_word("s 1 l 2")
    assert format_word(left * right) == "m 1 l 2"
    assert bool(word([])) is False
    assert bool(left) is True
    assert isinstance(left * right, BraidWord)


def _random_canonical(rng, length, first_not=()):
    """A seeded canonical word whose first letter's name is none of first_not."""
    letters: list[Letter] = []
    while len(letters) < length:
        last = letters[-1][0] if letters else None
        names = [n for n in ("m", "l", "s") if n != last and (letters or n not in first_not)]
        letters.append((rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 3))))
    return BraidWord(tuple(letters))


def _inverse(letters):
    return tuple((name, -exponent) for name, exponent in reversed(letters))


def test_products_merge_only_at_the_seam(monkeypatch):
    """A product merges its seam letters itself, with no call to word."""
    rng = random.Random(25)
    a = _random_canonical(rng, 300).letters
    (before, _), (name, exponent) = a[-2:]
    k = 120  # the cascade's length
    rights = {  # right letters, and the letters the product loses
        "merge": (((name, exponent),) + _random_canonical(rng, 200, (name,)).letters, 1),
        "cancel one": (
            ((name, -exponent),) + _random_canonical(rng, 200, (name, before)).letters,
            2,
        ),
        "cascade": (
            _inverse(a[-k:]) + _random_canonical(rng, 200, (a[-k][0], a[-k - 1][0])).letters,
            2 * k,
        ),
        "empties the left": (
            _inverse(a) + _random_canonical(rng, 200, (a[0][0],)).letters,
            2 * len(a),
        ),
        "empties the right": (_inverse(a[-k:]), 2 * k),
    }
    left = BraidWord(a)
    pairs = {case: (left, BraidWord(b)) for case, (b, _) in rights.items()}
    pairs["empties both"] = (left, BraidWord(_inverse(a)))
    expected = {case: word(x.letters + y.letters) for case, (x, y) in pairs.items()}
    for case, (b, lost) in rights.items():
        assert len(expected[case].letters) == len(a) + len(b) - lost, case
    assert expected["empties both"] == BraidWord()
    calls = []
    original = braid.word
    monkeypatch.setattr(braid, "word", lambda letters: calls.append(1) or original(letters))
    products = {case: x * y for case, (x, y) in pairs.items()}
    monkeypatch.undo()
    assert calls == []
    assert products == expected
