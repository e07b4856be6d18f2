"""Value semantics of the package's immutable value classes.

Every value class compares field by field against its own class only, hashes
its fields, refuses assignment, prints as Name(field=value, ...), and
survives copy and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import Mat2
from fuzzing import FuzzPlan
from tunnel_slopes import (
    BraidWord,
    DomainError,
    Rejection,
    SimpleSlope,
    SlopeSequence,
    TwoBridge,
    TwoBridgeReport,
    two_bridge_tunnels,
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
