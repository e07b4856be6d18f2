"""Closed forms and recognizers for the two-bridge and torus families."""

from fractions import Fraction
from random import Random

import pytest

from conftest import coprime_pairs, run_capped
from tunnel_slopes import (
    DomainError,
    Rejection,
    SimpleSlope,
    SlopeSequence,
    TwoBridge,
    braid_from_slopes,
    find_two_bridge,
    format_slopes,
    format_word,
    is_toroidal,
    lower_simple_word,
    lower_slopes,
    parse_slopes,
    reverse_word,
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
from tunnel_slopes.braid import SIZE_LIMIT, double_coset_trim, word
from tunnel_slopes.exact_arith import expand_odd_numerator
from tunnel_slopes.slope_engine import peephole


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


def test_braid_from_slopes_spells_the_lower_simple_word():
    # a lone class [b/a] is one block, dm s followed by the 2-bridge spelling
    # E of a/b reversed with dm and dl exchanged; the lower simple word is
    # that reversal of E dl^-1, which is dm^-1 followed by the same letters,
    # so the block is dm s dm times it.  The engine reads [b/a] back off it.
    dm_s_dm = word([("m", 1), ("s", 1), ("m", 1)])
    for a, b in coprime_pairs(range(3, 202, 2)):
        lone = SlopeSequence(SimpleSlope(b, a))
        lower = lower_simple_word(a, b)
        assert braid_from_slopes(lone) == peephole(dm_s_dm * lower), (a, b)
        assert upper_slopes(lower) == lone, (a, b)


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


_SLOPES_OVER = "the sequence has more than 65536 slopes (the size limit)"


def test_closed_form_over_the_size_limit_is_refused():
    # expand_all_even(a, 2) is (2n, +-2) with n = 65536 and 65537
    assert len(semisimple_slopes_closed_form(4 * SIZE_LIMIT + 1, 2).rest) == SIZE_LIMIT - 1
    with pytest.raises(DomainError) as info:
        semisimple_slopes_closed_form(4 * SIZE_LIMIT + 3, 2)
    assert str(info.value) == _SLOPES_OVER
    # expand_all_even(a, 1) is (a - 1)/2 pairs (+-2, +-2): 65536 and 65537 steps
    assert len(semisimple_slopes_closed_form(2 * SIZE_LIMIT + 1, 1).rest) == SIZE_LIMIT - 1
    with pytest.raises(DomainError) as info:
        semisimple_slopes_closed_form(2 * SIZE_LIMIT + 3, 1)
    assert str(info.value) == _SLOPES_OVER


def _refusal_in_a_capped_child(a, b):
    """(exit code, stdout, stderr) of the closed form of K(a, b) in a capped
    child, printing the DomainError it raises."""
    code = (
        "from tunnel_slopes import DomainError, semisimple_slopes_closed_form\n"
        "try:\n"
        f"    semisimple_slopes_closed_form({a}, {b})\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_capped(["-c", code])
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_form_far_over_the_size_limit_is_refused_at_once():
    assert _refusal_in_a_capped_child(10**9 + 7, 2) == (0, _SLOPES_OVER + "\n", "")


@pytest.mark.parametrize("b", [1, 10**9 + 6], ids=["b=1", "b=a-1"])
def test_closed_form_refuses_an_alternating_expansion_at_once(b):
    # every step of expand_all_even(a, b) is +-2 here, so it has a - 1
    # entries unless the walk stops at the budget
    assert _refusal_in_a_capped_child(10**9 + 7, b) == (0, _SLOPES_OVER + "\n", "")


@pytest.mark.parametrize(
    "a, b, later",
    [(2 * SIZE_LIMIT + 1, 1, SIZE_LIMIT - 1), (2 * SIZE_LIMIT - 1, 2 * SIZE_LIMIT - 2, SIZE_LIMIT - 2)],
    ids=["b=1", "b=a-1"],
)
def test_self_dual_pairs_at_the_limit_have_equal_semisimple_tunnels(a, b, later):
    # b' = b, and expand_all_even(a, b) alternates +-2, so its reversal,
    # negated, is itself: both semisimple lines are the closed form of (a, b)
    assert TwoBridge(a, b).dual_b == b
    report = two_bridge_tunnels(a, b)
    closed = semisimple_slopes_closed_form(a, b)
    assert report.lower_semisimple == report.upper_semisimple == closed
    assert len(closed.rest) == later


def _lower_simple_word_by_letters(a, b):
    """dm^-1, then the even-odd expansion of a/b spelled right to left."""
    cf = expand_odd_numerator(Fraction(a, b))
    letters = [("m", -1)]
    for j in range(len(cf) - 2, -1, -2):
        letters.append(("s", cf[j + 1]))
        letters.append(("l", -(cf[j] // 2)))
    return word(letters)


def test_lower_simple_word_matches_its_letter_spelling():
    for a, b in coprime_pairs(range(3, 200, 2)):
        assert lower_simple_word(a, b) == _lower_simple_word_by_letters(a, b), (a, b)


def test_lower_simple_word_relations():
    # the word puts the simple tunnel on top and the semisimple one below
    for a, b in coprime_pairs(range(3, 40, 2)):
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
    # ii wins over an earlier iv mismatch: 11/3 is not 2 +- 1/k
    result = find_two_bridge(parse_slopes("1 3 15 8 9 5 11 3"))
    assert isinstance(result, Rejection) and result.condition == "ii"
    result = find_two_bridge(parse_slopes("1 3 -15 8 9 5"))
    assert isinstance(result, Rejection) and result.condition == "iii"
    result = find_two_bridge(parse_slopes("2 7 3 1"))
    assert isinstance(result, Rejection) and result.condition == "i"
    result = find_two_bridge(parse_slopes(""))
    assert isinstance(result, Rejection) and result.condition == "i"


def _odd_fibonacci_pair(digits):
    """(F_n, F_(n-1)) for the first odd F_n with this many digits."""
    a, b = 1, 1
    while a < 10 ** (digits - 1) or a % 2 == 0:
        a, b = a + b, a
    return a, b


@pytest.mark.parametrize(
    "a, b",
    [(262145, 2), (131071, 131069), _odd_fibonacci_pair(1000)],
    ids=["K(262145,2)", "K(131071,131069)", "fibonacci-1000-digits"],
)
def test_find_two_bridge_inverts_closed_form_at_scale(a, b):
    # 65,536 slopes (the size limit) and 32,768, then a pair whose
    # expansion evaluates to a thousand-digit a/bhat
    primary, dual = find_two_bridge(semisimple_slopes_closed_form(a, b))
    assert primary == TwoBridge(a, b)
    assert dual == TwoBridge(a, TwoBridge(a, b).dual_b)


def _converse_draw(rng):
    """A random sequence meeting conditions i-iv, and whether all |k| <= 20.

    n0 is not -1 or 0, each later slope is 2 sign + 1/k with k != 0, the
    first sign is + exactly when n0 is odd (iii), and a sign repeats exactly
    after an odd k (iv).  About one draw in five has some 20-30-digit k.
    """
    n0 = rng.choice([n for n in range(-30, 31) if n not in (-1, 0)])
    ks = [rng.choice([k for k in range(-20, 21) if k]) for _ in range(rng.randint(0, 12))]
    small = not ks or rng.random() >= 0.25
    if not small:
        for _ in range(rng.randint(1, min(3, len(ks)))):
            digits = rng.randint(20, 30)
            ks[rng.randrange(len(ks))] = rng.choice([1, -1]) * rng.randrange(
                10 ** (digits - 1), 10**digits
            )
    sign = 1 if n0 % 2 != 0 else -1
    rest = []
    for i, k in enumerate(ks):
        if i and ks[i - 1] % 2 == 0:
            sign = -sign
        rest.append(2 * sign + Fraction(1, k))
    first = SimpleSlope.from_fraction(Fraction(n0, 2 * n0 + 1))
    return SlopeSequence(first, tuple(rest)), small


def test_find_two_bridge_recognizes_every_sequence_meeting_its_conditions():
    rng = Random(808)
    small_draws = 0
    for _ in range(2000):
        seq, small = _converse_draw(rng)
        match = find_two_bridge(seq)
        assert not isinstance(match, Rejection), (seq, match)
        primary, dual = match
        assert primary.a == dual.a and dual.b == primary.dual_b, seq
        assert semisimple_slopes_closed_form(primary.a, primary.b) == seq, seq
        # with a large k the dual sequence has about |k|/2 slopes and is refused
        if small:
            assert two_bridge_tunnels(dual.a, dual.b).lower_semisimple == seq, seq
            small_draws += 1
    assert 1400 < small_draws < 1800


def test_semisimple_word_never_has_fewer_segments_than_the_closed_form_has_slopes():
    # two_bridge_tunnels refuses by the word's count, so the closed form's
    # own size refusal cannot reach twoBridge
    gaps = set()
    for a, b in coprime_pairs([*range(3, 202, 2), 401, 801, 1201]):
        trimmed = double_coset_trim(upper_semisimple_word(a, b))
        count = sum(abs(k) for name, k in trimmed.letters if name == "m")
        gaps.add(count - 1 - len(semisimple_slopes_closed_form(a, b).rest))
    assert min(gaps) == 0, gaps


def test_staircase_pinned_values():
    assert staircase(13, 5) == (0, 3, 6, 8, 11, 13)
    assert staircase(3, 2) == (0, 2, 3)
    assert staircase(2, 3) == (0, 1, 2, 2)


@pytest.mark.parametrize("p, q", [(2, 4), (-3, 5), (5, 1)])
def test_staircase_rejects_bad_parameters(p, q):
    with pytest.raises(DomainError):
        staircase(p, q)


def test_torus_parameters_over_the_size_limit_are_refused():
    assert len(staircase(3, SIZE_LIMIT)) == SIZE_LIMIT + 1
    message = "torus parameters need |p| and |q| at most 65536 (the size limit)"
    for build in (staircase, torus_braid_word, torus_upper_slopes, torus_lower_slopes):
        for p, q in ((3, SIZE_LIMIT + 1), (SIZE_LIMIT + 2, 3), (-3, -(SIZE_LIMIT + 1))):
            with pytest.raises(DomainError) as info:
                build(p, q)
            assert str(info.value) == message, (build, p, q)


def test_torus_braid_word_pinned_values():
    assert (
        format_word(torus_braid_word(13, 5))
        == "l -2 m 1 l -3 m 1 l -2 m 1 l -3 m 1 l -3 m 1"
    )
    assert format_word(torus_braid_word(3, 2)) == "l -1 m 1 l -2 m 1"
    assert format_word(torus_braid_word(2, 3)) == "m 1 l -1 m 1 l -1 m 1"
    # mixed signs: the staircase of (13, 5), or of (5, 13), read from its first step up
    for p, q in ((13, -5), (-13, 5)):
        assert format_word(torus_braid_word(p, q)) == "l 3 m 1 l 3 m 1 l 2 m 1 l 3 m 1 l 2 m 1"
    assert format_word(torus_braid_word(5, -13)) == "l 1 m 2 l 1 m 3 l 1 m 2 l 1 m 3 l 1 m 3"


def test_mixed_sign_torus_words_reverse_when_p_and_q_swap():
    # opposite signs only: the words of (3, 2) and (2, 3), pinned above, are no reverses
    checked = 0
    for a, b in coprime_pairs(range(3, 71)):
        if b == 1:
            continue
        for p, q in ((a, -b), (-a, b), (b, -a), (-b, a)):
            assert torus_braid_word(p, q) == reverse_word(torus_braid_word(q, p)), (p, q)
            checked += 1
    assert checked == 5696, checked


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


def test_torus_lower_slopes_refusal_names_p_and_q_in_the_order_given():
    for p, q in ((4, 6), (-4, 6)):
        with pytest.raises(DomainError) as info:
            torus_lower_slopes(p, q)
        assert str(info.value) == f"{p} and {q} are not coprime"


def test_is_toroidal_pinned_values():
    assert is_toroidal(torus_upper_slopes(13, 5))
    assert is_toroidal(torus_upper_slopes(5, 13))
    assert is_toroidal(torus_upper_slopes(13, -5))
    assert is_toroidal(semisimple_slopes_closed_form(7, 1))
    # the paper's toroidal class is wider than the torus knots': the heights
    # 2, 2, 2, 51 of this chain are no line's staircase
    assert is_toroidal(parse_slopes("1 3 3 1 3 1 101 1"))
    assert not is_toroidal(semisimple_slopes_closed_form(7, 2))
    assert not is_toroidal(parse_slopes("1 3 1 1"))
    assert not is_toroidal(parse_slopes("1 3 7 2"))
    assert not is_toroidal(parse_slopes("1 3 3 1 -5 1"))
    assert not is_toroidal(parse_slopes("1 3 5 1 3 1"))
    assert not is_toroidal(parse_slopes(""))


def test_toroidal_braid_word_pinned_values():
    assert format_word(toroidal_braid_word([3, 3])) == "m 2 l -2"
    assert format_word(toroidal_braid_word([-3, -3])) == "m 2 l 1"
    assert format_word(toroidal_braid_word([3, 3, 5])) == "m 1 l -1 m 2 l -2"
    assert format_word(toroidal_braid_word([-3, -5, -5, -11])) == "m 1 l 3 m 2 l 1 m 1 l 1"
    assert format_word(toroidal_braid_word([5, 7, 7, 11])) == "m 1 l -2 m 2 l -1 m 1 l -3"
    assert format_word(toroidal_braid_word([3, 3, 3, 101])) == "m 1 l -49 m 3 l -2"


def test_toroidal_braid_word_round_trips_through_engine():
    chains = ([3, 3], [-3, -3], [3, 3, 5], [5, 7, 7, 11], [-3, -3, -9], [3], [-5], [3, 3, 3, 101])
    for odds in chains:
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
