"""Slope sequences: extraction from braid words and reconstruction back."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnel_slopes import (
    DomainError,
    ParseError,
    SimpleSlope,
    SlopeSequence,
    braid_from_slopes,
    dual_slopes,
    format_slopes,
    format_word,
    lower_slopes,
    parse_slopes,
    parse_word,
    reverse_word,
    upper_slopes,
)
from tunnel_slopes.braid import word
from tunnel_slopes.slope_engine import peephole

WORKED_WORD = "m -1 s -1 l 1 m -1 s 3 l -1"
MAIN_WORD = "m 3 s -2 l 3 s -4 m -1 s -4 l 3"


def test_slope_sequence_validation():
    empty = SlopeSequence(None, ())
    assert not empty
    good = SlopeSequence(SimpleSlope(3, 7), (Fraction(7, 2),))
    assert good
    with pytest.raises(DomainError):
        SlopeSequence(None, (Fraction(3),))
    with pytest.raises(DomainError):
        SlopeSequence(SimpleSlope(0, 1), (Fraction(3),))
    with pytest.raises(DomainError):
        SlopeSequence(SimpleSlope(1, 2), (Fraction(3),))
    with pytest.raises(DomainError):
        SlopeSequence(SimpleSlope(3, 7), (Fraction(4, 3),))


def test_format_slopes_pinned_values():
    assert (
        format_slopes(SlopeSequence(SimpleSlope(3, 7), (Fraction(7, 2),)))
        == "[ 3/7 ], 7/2"
    )
    assert (
        format_slopes(
            SlopeSequence(SimpleSlope(21, 25), (Fraction(341, 60), Fraction(-13), Fraction(-13)))
        )
        == "[ 21/25 ], 341/60, -13, -13"
    )
    assert format_slopes(SlopeSequence(None, ())) == ""


def test_parse_slopes_pair_grammar():
    seq = parse_slopes("21 25 341 60 -13 1 -13 1")
    assert seq.first == SimpleSlope(21, 25)
    assert seq.rest == (Fraction(341, 60), Fraction(-13), Fraction(-13))
    bracketed = parse_slopes("[ 21, 25, 341, 60, -13, 1, -13, 1 ]")
    assert bracketed == seq
    assert parse_slopes("46 25 341 60 -13 1 -13 1") == seq  # first pair reduced mod 1
    assert parse_slopes("") == SlopeSequence(None, ())


def test_parse_slopes_errors():
    with pytest.raises(ParseError, match="token 3"):
        parse_slopes("21 25 341")
    with pytest.raises(ParseError):
        parse_slopes("a 25")
    with pytest.raises(DomainError, match="zero denominator"):
        parse_slopes("21 0")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
)
def test_parse_slopes_names_an_overlong_integer():
    digits = sys.get_int_max_str_digits() + 7
    with pytest.raises(ParseError) as info:
        parse_slopes(f"21 25 -{'3' * digits} 1")
    message = str(info.value)
    assert message == (
        f"token 3: integer too long ({digits} digits, the limit is "
        f"{sys.get_int_max_str_digits()}), got '-3333333333333333333'..."
    )


def test_upper_slopes_pinned_values():
    assert format_slopes(upper_slopes(parse_word(WORKED_WORD))) == "[ 3/7 ], 7/2"
    assert (
        format_slopes(upper_slopes(parse_word(MAIN_WORD)))
        == "[ 21/25 ], 341/60, -13, -13"
    )
    assert upper_slopes(parse_word("l 5 s 2")) == SlopeSequence(None, ())
    assert upper_slopes(word([])) == SlopeSequence(None, ())


def test_lower_slopes_is_upper_of_reverse():
    for text in (WORKED_WORD, MAIN_WORD, "m 1 l 1", ""):
        w = parse_word(text)
        assert lower_slopes(w) == upper_slopes(reverse_word(w))
    assert (
        format_slopes(lower_slopes(parse_word(MAIN_WORD)))
        == "[ 16/19 ], -7, -7, -195/31, -5, -5"
    )
    assert format_slopes(lower_slopes(parse_word(WORKED_WORD))) == "[ 2/3 ], 1/3"


def test_braid_from_slopes_deterministic_output():
    seq = parse_slopes("21 25 341 60 -13 1 -13 1")
    built = braid_from_slopes(seq)
    assert (
        format_word(built)
        == "m 1 s 1 m -1 s 1 l 1 m 1 s -2 l 3 s -3 m 1 s -3 l 2 s -1 l -1"
    )
    assert upper_slopes(built) == seq
    assert braid_from_slopes(SlopeSequence(None, ())) == word([])


def test_braid_from_slopes_round_trips_pinned_sequences():
    for text in (
        "3 7 7 2",
        "21 25 341 60 -13 1 -13 1",
        "16 19 -7 1 -7 1 -195 31 -5 1 -5 1",
        "1 3",
        "2 3 -3 1 -3 1",
    ):
        seq = parse_slopes(text)
        assert upper_slopes(braid_from_slopes(seq)) == seq


def test_peephole_pinned_values():
    assert format_word(peephole(parse_word("s 1 m 1 s 1"))) == "m -1"
    assert format_word(peephole(parse_word("s -2 l -1 s -1 m 2"))) == "s -1 l 1 m 2"
    assert peephole(word([])) == word([])
    assert format_word(peephole(parse_word("m 2 l 3"))) == "m 2 l 3"


def _s_weight(w):
    return sum(abs(e) for g, e in w.letters if g == "s")


@settings(max_examples=150, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("mls"), st.integers(-4, 4)),
        max_size=12,
    )
)
def test_peephole_preserves_slopes_and_never_grows_s_weight(letters):
    w = word(letters)
    shrunk = peephole(w)
    assert _s_weight(shrunk) <= _s_weight(w)
    assert upper_slopes(shrunk) == upper_slopes(w)
    assert lower_slopes(shrunk) == lower_slopes(w)


def test_dual_slopes_pinned_pair():
    upper = parse_slopes("21 25 341 60 -13 1 -13 1")
    lower = parse_slopes("16 19 -7 1 -7 1 -195 31 -5 1 -5 1")
    assert dual_slopes(upper) == lower
    assert dual_slopes(lower) == upper


def test_dual_slopes_is_an_involution_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        q = 2 * rng.randint(1, 12) + 1
        p = rng.randint(1, q - 1)
        while math.gcd(p, q) != 1:
            p = rng.randint(1, q - 1)
        rest = tuple(
            Fraction(2 * rng.randint(-20, 20) + 1, rng.randint(1, 12))
            for _ in range(rng.randint(0, 3))
        )
        seq = SlopeSequence(SimpleSlope(p, q), rest)
        assert dual_slopes(dual_slopes(seq)) == seq


@st.composite
def valid_slope_sequences(draw):
    q = 2 * draw(st.integers(1, 24)) + 1
    p = draw(st.integers(1, q - 1).filter(lambda v: math.gcd(v, q) == 1))
    depth = draw(st.integers(0, 4))
    rest = tuple(
        Fraction(2 * draw(st.integers(-30, 30)) + 1, draw(st.integers(1, 30)))
        for _ in range(depth)
    )
    return SlopeSequence(SimpleSlope(p, q), rest)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(valid_slope_sequences())
def test_slopes_to_braid_and_back(seq):
    assert upper_slopes(braid_from_slopes(seq)) == seq
