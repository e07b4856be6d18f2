"""Closed forms and recognizers for the two-bridge and torus families."""

import math
from fractions import Fraction

import pytest

from tunnel_slopes import (
    DomainError,
    Rejection,
    SimpleSlope,
    SlopeSequence,
    TwoBridge,
    find_two_bridge,
    format_slopes,
    format_word,
    is_toroidal,
    lower_simple_word,
    lower_slopes,
    parse_slopes,
    semisimple_slopes_closed_form,
    staircase,
    toroidal_braid_word,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    two_bridge_tunnels,
    upper_semisimple_word,
    upper_slopes,
)
from tunnel_slopes.braid import word
from tunnel_slopes.exact_arith import expand_odd_numerator


def test_two_bridge_validation_and_dual():
    assert TwoBridge(413, 227).dual_b == 131
    assert TwoBridge(493, 222).dual_b == 171
    assert TwoBridge(3, 1).dual_b == 1
    for a, b in [(4, 1), (3, 0), (3, 3), (9, 3), (1, 1)]:
        with pytest.raises(DomainError):
            TwoBridge(a, b)


def test_two_bridge_tunnels_golden_report():
    report = two_bridge_tunnels(413, 227)
    assert format_slopes(report.upper_simple) == "[ 131/413 ]"
    assert format_slopes(report.upper_semisimple) == "[ 1/3 ], 15/7, 9/5"
    assert format_slopes(report.lower_simple) == "[ 227/413 ]"
    assert format_slopes(report.lower_semisimple) == "[ 2/5 ], -1, -3/2, 1, 1, 1, 3"


def test_semisimple_word_byte_pins():
    assert (
        format_word(upper_semisimple_word(413, 227))
        == "m -1 s -6 m -1 s 6 m -1 s 1 l -1"
    )
    assert (
        format_word(lower_simple_word(413, 227))
        == "m -1 s 1 l -1 s 6 l -1 s -6 l -1"
    )


def test_closed_form_pinned_sequences():
    assert (
        format_slopes(semisimple_slopes_closed_form(413, 227))
        == "[ 1/3 ], 15/7, 9/5"
    )
    assert format_slopes(semisimple_slopes_closed_form(7, 1)) == "[ 1/3 ], 3, 3"
    assert format_slopes(semisimple_slopes_closed_form(7, 6)) == "[ 2/3 ], -3, -3"
    assert format_slopes(semisimple_slopes_closed_form(7, 2)) == "[ 2/3 ], -1"
    assert format_slopes(semisimple_slopes_closed_form(5, 2)) == "[ 2/5 ]"
    assert format_slopes(semisimple_slopes_closed_form(3, 1)) == "[ 1/3 ]"


def test_closed_form_agrees_with_engine_on_sample():
    for a in range(3, 70, 2):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            closed = semisimple_slopes_closed_form(a, b)
            engine = upper_slopes(upper_semisimple_word(a, b))
            assert closed == engine, (a, b)


def _lower_simple_word_by_letters(a, b):
    """dm^-1, then the even-odd expansion of a/b spelled right to left."""
    cf = expand_odd_numerator(Fraction(a, b))
    letters = [("m", -1)]
    for j in range(len(cf) - 2, -1, -2):
        letters.append(("s", cf[j + 1]))
        letters.append(("l", -(cf[j] // 2)))
    return word(letters)


def test_lower_simple_word_matches_its_letter_spelling():
    for a in range(3, 200, 2):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                assert lower_simple_word(a, b) == _lower_simple_word_by_letters(a, b), (a, b)


def test_lower_simple_word_relations():
    # the word puts the simple tunnel on top and the semisimple one below
    for a in range(3, 40, 2):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            w = lower_simple_word(a, b)
            assert upper_slopes(w) == SlopeSequence(SimpleSlope(b, a), ()), (a, b)
            assert lower_slopes(w) == semisimple_slopes_closed_form(a, b), (a, b)


def test_find_two_bridge_success_cases():
    match = find_two_bridge(parse_slopes("1 3 15 7 9 5"))
    assert match == (TwoBridge(413, 227), TwoBridge(413, 131))
    match = find_two_bridge(parse_slopes("1 3 15 8 -9 5"))
    assert match == (TwoBridge(493, 222), TwoBridge(493, 171))
    match = find_two_bridge(parse_slopes("2 3 -3 1 -3 1"))
    assert match == (TwoBridge(7, 6), TwoBridge(7, 6))


def test_find_two_bridge_rejections():
    result = find_two_bridge(parse_slopes("1 3 15 11 9 5"))
    assert isinstance(result, Rejection) and result.condition == "ii"
    result = find_two_bridge(parse_slopes("1 3 15 8 9 5"))
    assert isinstance(result, Rejection) and result.condition == "iv"
    result = find_two_bridge(parse_slopes("1 3 -15 8 9 5"))
    assert isinstance(result, Rejection) and result.condition == "iii"
    result = find_two_bridge(parse_slopes("2 7 3 1"))
    assert isinstance(result, Rejection) and result.condition == "i"
    result = find_two_bridge(parse_slopes(""))
    assert isinstance(result, Rejection) and result.condition == "i"


def test_find_two_bridge_inverts_closed_form_on_sample():
    for a in range(3, 80, 2):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            primary, dual = find_two_bridge(semisimple_slopes_closed_form(a, b))
            assert primary == TwoBridge(a, b), (a, b)
            assert dual == TwoBridge(a, TwoBridge(a, b).dual_b), (a, b)


def test_staircase_pinned_values():
    assert staircase(13, 5) == (0, 3, 6, 8, 11, 13)
    assert staircase(3, 2) == (0, 2, 3)
    assert staircase(2, 3) == (0, 1, 2, 2)


@pytest.mark.parametrize("p, q", [(2, 4), (-3, 5), (5, 1)])
def test_staircase_rejects_bad_parameters(p, q):
    with pytest.raises(DomainError):
        staircase(p, q)


def test_torus_braid_word_pinned_values():
    assert (
        format_word(torus_braid_word(13, 5))
        == "l -2 m 1 l -3 m 1 l -2 m 1 l -3 m 1 l -3 m 1"
    )
    assert format_word(torus_braid_word(3, 2)) == "l -1 m 1 l -2 m 1"
    assert format_word(torus_braid_word(2, 3)) == "m 1 l -1 m 1 l -1 m 1"


def test_torus_upper_slopes_pinned_values():
    assert format_slopes(torus_upper_slopes(13, 5)) == "[ 1/5 ], 11, 15, 21"
    assert (
        format_slopes(torus_upper_slopes(5, 13))
        == "[ 1/3 ], 3, 3, 5, 5, 7, 7, 7, 9, 9"
    )
    assert format_slopes(torus_upper_slopes(13, -5)) == "[ 4/5 ], -11, -15, -21"
    assert format_slopes(torus_upper_slopes(3, 2)) == "[ 1/3 ]"
    assert format_slopes(torus_upper_slopes(-13, -5)) == "[ 1/5 ], 11, 15, 21"


def test_torus_lower_slopes_swaps_parameters():
    assert torus_lower_slopes(13, 5) == torus_upper_slopes(5, 13)
    assert torus_lower_slopes(5, 13) == torus_upper_slopes(13, 5)


def test_torus_closed_form_agrees_with_engine_on_sample():
    for p in range(2, 14):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            w = torus_braid_word(p, q)
            assert torus_upper_slopes(p, q) == upper_slopes(w), (p, q)
            assert torus_lower_slopes(p, q) == lower_slopes(w), (p, q)


def test_is_toroidal_pinned_values():
    assert is_toroidal(torus_upper_slopes(13, 5))
    assert is_toroidal(torus_upper_slopes(5, 13))
    assert is_toroidal(torus_upper_slopes(13, -5))
    assert is_toroidal(semisimple_slopes_closed_form(7, 1))
    assert not is_toroidal(semisimple_slopes_closed_form(7, 2))
    assert not is_toroidal(parse_slopes("1 3 1 1"))
    assert not is_toroidal(parse_slopes("1 3 7 2"))
    assert not is_toroidal(parse_slopes("1 3 3 1 -5 1"))
    assert not is_toroidal(parse_slopes("1 3 5 1 3 1"))
    assert not is_toroidal(parse_slopes(""))


def test_two_bridge_toroidal_exactly_at_extreme_parameters():
    for a in range(3, 40, 2):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            expected = b in (1, a - 1)
            assert is_toroidal(semisimple_slopes_closed_form(a, b)) == expected, (a, b)


def test_toroidal_braid_word_pinned_values():
    assert format_word(toroidal_braid_word([3, 3])) == "m 2 l -2"
    assert format_word(toroidal_braid_word([-3, -3])) == "m 2 l 1"
    assert format_word(toroidal_braid_word([3, 3, 5])) == "m 1 l -1 m 2 l -2"


def test_toroidal_braid_word_round_trips_through_engine():
    for odds in ([3, 3], [-3, -3], [3, 3, 5], [5, 7, 7, 11], [-3, -3, -9], [3], [-5]):
        w = toroidal_braid_word(odds)
        seq = upper_slopes(w)
        assert is_toroidal(seq), odds
        n0 = odds[0]
        if n0 > 0:
            assert seq.first == SimpleSlope(1, n0), odds
        else:
            assert seq.first == SimpleSlope(-n0 - 1, -n0), odds
        assert list(int(r) for r in seq.rest) == odds[1:], odds


def test_toroidal_braid_word_rejects_bad_chains():
    for odds in ([], [2, 4], [1, 3], [3, 5, 3], [3, -3], [-3, -1]):
        with pytest.raises(DomainError):
            toroidal_braid_word(odds)
