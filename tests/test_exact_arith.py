"""Continued fractions, 2x2 matrices, greedy expansions, modular inverses."""

import math
import pickle
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAT_IDENTITY, MAT_L, MAT_U, Mat2, coprime_pairs, matrix_cf_value
from tunnel_slopes import DomainError, SimpleSlope
from tunnel_slopes.exact_arith import (
    INFINITY,
    _coprime,
    cf_eval,
    expand_all_even,
    expand_odd_numerator,
    mod_inverse,
)


def test_cf_eval_basic_values():
    assert cf_eval([2, 3]) == Fraction(7, 3)
    assert cf_eval([2, 1, -2, -1]) == Fraction(7, 2)
    assert cf_eval([-2, -1]) == -3
    assert cf_eval([4]) == 4
    assert cf_eval([0]) == 0


def test_cf_eval_formal_infinity_rules():
    assert cf_eval([1, 0]) is INFINITY
    assert cf_eval([2, 0, 2]) == 4
    assert cf_eval([3, 0, 0]) == 3
    assert cf_eval([0, 2]) == Fraction(1, 2)


def test_cf_eval_rejects_empty():
    with pytest.raises(DomainError):
        cf_eval([])


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
def test_cf_eval_matches_matrix_oracle_random(entries):
    recursive = cf_eval(entries)
    algebraic = matrix_cf_value(entries)
    if recursive is INFINITY or algebraic is INFINITY:
        assert recursive is algebraic
    else:
        assert recursive == algebraic


def test_matrix_powers_and_inverse():
    assert MAT_U**5 == Mat2(1, 5, 0, 1)
    assert MAT_L**-3 == Mat2(1, 0, -3, 1)
    m = Mat2(2, 1, 1, 1)
    assert m.det() == 1
    assert m**-1 * m == MAT_IDENTITY
    assert (m * m).det() == 1
    with pytest.raises(DomainError):
        Mat2(2, 0, 0, 1) ** -1


def test_expand_odd_numerator_golden_values():
    assert expand_odd_numerator(Fraction(7, 3)) == (2, 3)
    assert expand_odd_numerator(Fraction(7, 2)) == (4, -2)
    assert expand_odd_numerator(Fraction(413, 227)) == (2, -6, 2, 6, 2, 1)
    assert expand_odd_numerator(Fraction(25, 21)) == (2, -1, -4, -4)
    assert expand_odd_numerator(Fraction(341, 60)) == (6, -3, -6, -3)


def test_expand_odd_numerator_tie_breaking():
    # at an odd integer the even step takes the smaller even neighbor; the
    # integer step never meets a tie (7/2 steps to 4 and leaves -1/2, whose
    # reciprocal -2 is exact)
    assert expand_odd_numerator(3) == (2, 1)
    assert expand_odd_numerator(1) == (0, 1)
    assert expand_odd_numerator(-13) == (-14, 1)
    assert expand_odd_numerator(Fraction(7, 2)) == (4, -2)


def test_expand_odd_numerator_rejects_even_numerator():
    with pytest.raises(DomainError):
        expand_odd_numerator(Fraction(4, 3))


@settings(max_examples=300, derandomize=True)
@given(st.integers(-2000, 2000), st.integers(1, 999))
def test_expand_odd_numerator_round_trip_and_shape(k, den):
    x = Fraction(2 * k + 1, den)
    cf = expand_odd_numerator(x)
    assert cf_eval(cf) == x
    assert len(cf) % 2 == 0
    assert all(cf[i] % 2 == 0 for i in range(0, len(cf), 2))
    assert all(cf[i] != 0 for i in range(1, len(cf), 2))


def test_expand_all_even_golden_values():
    assert expand_all_even(413, 227) == (-2, -4, -2, 8, -2, 2)
    assert expand_all_even(3, 1) == (-2, 2)
    assert expand_all_even(5, 2) == (2, 2)
    assert expand_all_even(7, 1) == (-2, 2, -2, 2, -2, 2)
    assert expand_all_even(7, 6) == (2, -2, 2, -2, 2, -2)


def test_expand_all_even_accepts_negative_second_parameter():
    cf = expand_all_even(413, -227)
    assert cf_eval(cf) == Fraction(413, -227 - 413)
    assert len(cf) % 2 == 0 and all(e % 2 == 0 for e in cf) and cf[-1] != 0


def test_expand_all_even_never_rounds_a_tie():
    # each tail cf_eval(entries[i:]) is the x the expansion rounded to its
    # nearest even entries[i]; a tie would be an odd integer, 1 from each
    # even neighbour.  The tails are built right to left as p/q, from
    # INFINITY = 1/0 by p/q -> n + q/p, so p and q stay coprime, and the
    # whole expansion's tail is a/bhat.
    expansions = 0
    for a, b in coprime_pairs(range(3, 202, 2)):
        for c in (b, -b):
            entries = expand_all_even(a, c)
            p, q = 1, 0
            for i in reversed(range(len(entries))):
                p, q = entries[i] * p + q, p
                assert abs(p - entries[i] * q) <= abs(q), (a, c, i)
                assert not (abs(q) == 1 and p % 2 != 0), (a, c, i)
            assert Fraction(p, q) == Fraction(a, c if c % 2 == 0 else c - a), (a, c)
            expansions += 1
    assert expansions == 2 * 8282


def test_expand_all_even_rejects_bad_inputs():
    for a, b in [(4, 1), (1, 1), (9, 0), (9, 9), (9, 11), (9, 3)]:
        with pytest.raises(DomainError):
            expand_all_even(a, b)


def _reversed_negated(entries):
    return tuple(-c for c in reversed(entries))


def test_expand_all_even_of_the_dual_pair_is_the_reversal_negated():
    # b b' = 1 (mod a): transposing the continued-fraction matrix product
    # reverses the fraction; two_bridge_tunnels reads the lower semisimple
    # tunnel of K(a, b) from expand_all_even(a, b) this way.  Every a <= 201,
    # then the rest of the benchmark catalog's tables.
    checked = 0
    for a, b in coprime_pairs([*range(3, 202, 2), 401, 801, 1201]):
        dual = expand_all_even(a, pow(b, -1, a))
        assert dual == _reversed_negated(expand_all_even(a, b)), (a, b)
        checked += 1
    assert checked == 10410


def test_expand_all_even_of_the_dual_pair_is_the_reversal_negated_on_large_parameters():
    rng = Random(3001)
    checked = skipped = 0
    while checked < 200:
        digits = rng.randint(20, 30)
        a = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        try:
            entries, dual = expand_all_even(a, b), expand_all_even(a, pow(b, -1, a))
        except DomainError:  # more than SIZE_LIMIT slopes for b or for b'
            skipped += 1
            continue
        assert dual == _reversed_negated(entries), (a, b)
        checked += 1
    # one draw from this seed has more than SIZE_LIMIT slopes
    assert skipped == 1


def test_mod_inverse_golden_and_errors():
    assert mod_inverse(227, 413) == 131
    assert mod_inverse(222, 493) == 171
    assert mod_inverse(1, 2) == 1
    with pytest.raises(DomainError):
        mod_inverse(3, 1)
    with pytest.raises(DomainError):
        mod_inverse(6, 9)


def test_simple_slope_normalization_and_display():
    assert SimpleSlope.from_fraction(Fraction(46, 25)) == SimpleSlope(21, 25)
    assert SimpleSlope.from_fraction(Fraction(-1, 3)) == SimpleSlope(2, 3)
    assert SimpleSlope.from_fraction(Fraction(7, 1)) == SimpleSlope(0, 1)
    assert str(SimpleSlope(21, 25)) == "[ 21/25 ]"
    assert str(SimpleSlope(0, 1)) == "[ 0/1 ]"


def test_simple_slope_rejects_invalid():
    for p, q in [(1, 0), (3, 2), (-1, 3), (2, 4), (0, 3)]:
        with pytest.raises(DomainError):
            SimpleSlope(p, q)


@pytest.fixture
def no_int_str_limit():
    """Lift the limit on int-to-str conversion, so 5000-digit values print."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _seeded_pairs():
    """Seeded coprime pairs (p, q), q != 0, of either sign, up to 5000 digits."""
    rng = Random(2212)
    pairs = [(0, 1), (0, -1), (1, -1), (-7, -3), (5, 1), (-5, -1)]
    for digits in [1, 2, 30, 5000] * 25:
        p = rng.randint(-(10**digits), 10**digits)
        q = rng.choice((-1, 1)) * rng.randint(1, 10**digits)
        g = math.gcd(p, q)
        pairs.append((p // g, q // g))
    return pairs


def test_coprime_builds_the_fraction_the_constructor_builds(no_int_str_limit):
    # _coprime writes Fraction's slots itself, so a change to them fails here
    other = Fraction(-22, 7)
    for p, q in _seeded_pairs():
        x, y = _coprime(p, q), Fraction(p, q)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert x == y and hash(x) == hash(y)
        assert (str(x), repr(x)) == (str(y), repr(y))
        z = pickle.loads(pickle.dumps(x))
        assert type(z) is Fraction and (z.numerator, z.denominator) == (y.numerator, y.denominator)
        for op in (
            lambda u: u + other,
            lambda u: u - 1,
            lambda u: u * other,
            lambda u: u / other,
            lambda u: -u,
            lambda u: abs(u),
            lambda u: u < other,
            lambda u: math.floor(u),
            lambda u: u.limit_denominator(10),
        ):
            assert op(x) == op(y)


def test_simple_slope_of_coprime_equals_the_checked_class(no_int_str_limit):
    for p, q in _seeded_pairs():
        x, y = SimpleSlope._of_coprime(p, q), SimpleSlope.from_fraction(Fraction(p, q))
        assert type(x) is SimpleSlope
        assert (x.p, x.q) == (y.p, y.q)
        assert x == y and hash(x) == hash(y)
        assert (str(x), repr(x)) == (str(y), repr(y))
        z = pickle.loads(pickle.dumps(x))
        assert type(z) is SimpleSlope and z == y
