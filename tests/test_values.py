"""Value semantics of the package's immutable value classes.

Every value class compares field by field against its own class only, hashes
its fields, refuses assignment, prints as Name(field=value, ...), and
survives copy and pickle round trips.  The sequences the library builds
with no checks must equal what the checked constructors build.
"""

import copy
import math
import pickle
from fractions import Fraction
from random import Random

import pytest

from conftest import Mat2
from fuzzing import FuzzPlan, random_valid_slopes, random_word
from tunnel_slopes import (
    BraidWord,
    DomainError,
    Rejection,
    SimpleSlope,
    SlopeSequence,
    TwoBridge,
    TwoBridgeReport,
    braid_from_slopes,
    lower_slopes,
    torus_upper_slopes,
    two_bridge_tunnels,
    upper_slopes,
)

REPORT = two_bridge_tunnels(7, 3)

# (value, an equal value built independently, a different value of the same
# class, the field names in order, the pinned repr)
CASES = [
    (
        Mat2(1, 2, 3, 4),
        Mat2(a=1, b=2, c=3, d=4),
        Mat2(1, 2, 3, 5),
        ("a", "b", "c", "d"),
        "Mat2(a=1, b=2, c=3, d=4)",
    ),
    (
        SimpleSlope(3, 7),
        SimpleSlope(q=7, p=3),
        SimpleSlope(2, 7),
        ("p", "q"),
        "SimpleSlope(p=3, q=7)",
    ),
    (
        BraidWord((("m", 2), ("s", -1))),
        BraidWord(letters=(("m", 2), ("s", -1))),
        BraidWord(),
        ("letters",),
        "BraidWord(letters=(('m', 2), ('s', -1)))",
    ),
    (
        SlopeSequence(SimpleSlope(3, 7), (Fraction(7, 2),)),
        SlopeSequence(rest=(Fraction(7, 2),), first=SimpleSlope(3, 7)),
        SlopeSequence(),
        ("first", "rest"),
        "SlopeSequence(first=SimpleSlope(p=3, q=7), rest=(Fraction(7, 2),))",
    ),
    (
        TwoBridge(7, 3),
        TwoBridge(b=3, a=7),
        TwoBridge(7, 2),
        ("a", "b"),
        "TwoBridge(a=7, b=3)",
    ),
    (
        REPORT,
        TwoBridgeReport(
            upper_simple=REPORT.upper_simple,
            upper_semisimple=REPORT.upper_semisimple,
            lower_simple=REPORT.lower_simple,
            lower_semisimple=REPORT.lower_semisimple,
        ),
        two_bridge_tunnels(7, 2),
        ("upper_simple", "upper_semisimple", "lower_simple", "lower_semisimple"),
        "TwoBridgeReport(upper_simple=SlopeSequence(first=SimpleSlope(p=5, q=7), rest=()), "
        "upper_semisimple=SlopeSequence(first=SimpleSlope(p=3, q=7), rest=()), "
        "lower_simple=SlopeSequence(first=SimpleSlope(p=3, q=7), rest=()), "
        "lower_semisimple=SlopeSequence(first=SimpleSlope(p=1, q=3), rest=(Fraction(1, 1),)))",
    ),
    (
        Rejection("i", "message"),
        Rejection(condition="i", message="message"),
        Rejection("ii", "message"),
        ("condition", "message"),
        "Rejection(condition='i', message='message')",
    ),
    (
        FuzzPlan(5, ((0, "ms2", 1),)),
        FuzzPlan(seed=5, insertions=((0, "ms2", 1),)),
        FuzzPlan(5, ()),
        ("seed", "insertions"),
        "FuzzPlan(seed=5, insertions=((0, 'ms2', 1),))",
    ),
]

IDS = [type(case[0]).__name__ for case in CASES]


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("value, twin, other, names, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(value, twin, other, names, text):
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(_fields(value, names))
    assert value != other
    assert len({value, twin, other}) == 2


@pytest.mark.parametrize("value, twin, other, names, text", CASES, ids=IDS)
def test_equality_is_within_one_class(value, twin, other, names, text):
    fields = _fields(value, names)
    assert value != fields
    assert value.__eq__(fields) is NotImplemented
    for case in CASES:
        if type(case[0]) is not type(value):
            assert value != case[0]
            assert value.__eq__(case[0]) is NotImplemented


@pytest.mark.parametrize("value, twin, other, names, text", CASES, ids=IDS)
def test_assignment_raises(value, twin, other, names, text):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


@pytest.mark.parametrize("value, twin, other, names, text", CASES, ids=IDS)
def test_repr_is_pinned(value, twin, other, names, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, twin, other, names, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trips(value, twin, other, names, text):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, names[0], getattr(other, names[0]))


def test_defaults():
    assert BraidWord().letters == ()
    assert not BraidWord()
    empty = SlopeSequence()
    assert (empty.first, empty.rest) == (None, ())
    assert SlopeSequence(SimpleSlope(1, 3)).rest == ()


def test_slope_sequence_keeps_its_later_slopes_as_a_tuple():
    later = [Fraction(7, 2), Fraction(-13)]
    from_list = SlopeSequence(SimpleSlope(3, 7), later)
    from_tuple = SlopeSequence(SimpleSlope(3, 7), tuple(later))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert from_list.rest == (Fraction(7, 2), Fraction(-13))
    # the list can change after the odd-numerator check; the sequence cannot
    later[0] = Fraction(2, 3)
    assert from_list == from_tuple
    rest = from_tuple.rest
    assert SlopeSequence(SimpleSlope(3, 7), rest).rest is rest


def _assert_valid_as_built(seq):
    """The sequence is what the public constructors build from its values."""
    assert type(seq.rest) is tuple
    assert SlopeSequence(seq.first, seq.rest) == seq
    if seq:
        assert SimpleSlope(seq.first.p, seq.first.q) == seq.first
    for x in seq.rest:
        assert type(x) is Fraction and x.numerator % 2 == 1
        assert Fraction(x.numerator, x.denominator) == x


# The closed forms, torus_upper_slopes and the engine build their sequences
# with SlopeSequence._of_valid, which checks nothing: each value must still
# pass the public constructor's checks and equal what it builds.
def test_closed_forms_build_valid_sequences():
    for a in range(3, 402, 2):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                report = two_bridge_tunnels(a, b)
                _assert_valid_as_built(report.upper_simple)
                _assert_valid_as_built(report.upper_semisimple)
                _assert_valid_as_built(report.lower_simple)
                _assert_valid_as_built(report.lower_semisimple)


def test_torus_upper_slopes_build_valid_sequences():
    params = [n for n in range(-64, 65) if abs(n) >= 2]
    for p in params:
        for q in params:
            if math.gcd(p, q) == 1:
                _assert_valid_as_built(torus_upper_slopes(p, q))


def test_the_engine_builds_valid_sequences():
    rng = Random(2026)
    for i in range(2000):
        if i % 2:
            w = braid_from_slopes(random_valid_slopes(rng, max_d=8))
        else:
            w = random_word(rng)
        _assert_valid_as_built(upper_slopes(w))
        _assert_valid_as_built(lower_slopes(w))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimpleSlope(0, 0), "simple slope needs q >= 1"),
        (lambda: SimpleSlope(7, 7), "simple slope needs 0 <= p < q"),
        (lambda: SimpleSlope(-1, 7), "simple slope needs 0 <= p < q"),
        (lambda: SimpleSlope(0, 3), "the trivial class is written 0/1"),
        (lambda: SimpleSlope(2, 4), "simple slope 2/4 is not reduced"),
        (lambda: SimpleSlope(p=2, q=4), "simple slope 2/4 is not reduced"),
        (lambda: TwoBridge(4, 1), "a must be odd and at least 3"),
        (lambda: TwoBridge(1, 1), "a must be odd and at least 3"),
        (lambda: TwoBridge(7, 7), "b must satisfy 0 < b < a"),
        (lambda: TwoBridge(a=9, b=3), "9 and 3 are not coprime"),
        (
            lambda: SlopeSequence(None, (Fraction(1),)),
            "a sequence without a first slope must be empty",
        ),
        (
            lambda: SlopeSequence(SimpleSlope(0, 1)),
            "the first slope of a tunnel is never integral",
        ),
        (
            lambda: SlopeSequence(SimpleSlope(1, 4)),
            "the first slope of a tunnel has odd denominator",
        ),
        (
            lambda: SlopeSequence(SimpleSlope(1, 3), (Fraction(3), Fraction(2, 3))),
            "slope 2/3 has even numerator",
        ),
    ],
)
def test_invalid_fields_raise_domain_error(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
