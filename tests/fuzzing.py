"""Randomized checking tools: relator fuzzing and reproducible random inputs.

Everything here is deterministic in a seed (random_valid_slopes in the
Random it is given), so a failing case can be replayed from its seed alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from random import Random
from typing import Sequence

from tunnel_slopes import BraidWord, DomainError, SimpleSlope, SlopeSequence
from tunnel_slopes.braid import Letter, word
from tunnel_slopes.exact_arith import _Value, cf_eval

# Each value spells a word equal to the identity: (dm s)^2, (dl s)^2, and
# s^-2 dm^-1 dl dm dl^-1.
RELATORS: dict[str, tuple[Letter, ...]] = {
    "ms2": (("m", 1), ("s", 1), ("m", 1), ("s", 1)),
    "ls2": (("l", 1), ("s", 1), ("l", 1), ("s", 1)),
    "comm": (("s", -2), ("m", -1), ("l", 1), ("m", 1), ("l", -1)),
}


class FuzzPlan(_Value):
    """A reproducible list of relator insertions: (position, relator, direction)."""

    __slots__ = ("seed", "insertions")

    def __init__(self, seed: int, insertions: tuple[tuple[int, str, int], ...]) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "insertions", insertions)


def _unit_letters(w: BraidWord) -> list[Letter]:
    units: list[Letter] = []
    for name, exponent in w.letters:
        step = 1 if exponent > 0 else -1
        units.extend([(name, step)] * abs(exponent))
    return units


def apply_fuzz(w: BraidWord, plan: FuzzPlan) -> BraidWord:
    """Insert the plan's relators into w; the result equals w in the group.

    Positions index the word spelled out in unit letters, so insertions can
    land inside a run; each insertion counts toward later positions.
    """
    units = _unit_letters(w)
    for position, name, direction in plan.insertions:
        if name not in RELATORS:
            raise DomainError(f"unknown relator {name!r}")
        if not 0 <= position <= len(units):
            raise DomainError(f"insertion position {position} outside the word")
        relator = RELATORS[name]
        if direction < 0:
            relator = tuple((g, -e) for g, e in reversed(relator))
        units[position:position] = list(relator)
    return word(units)


def random_fuzz_plan(seed: int, w: BraidWord, count: int = 4) -> FuzzPlan:
    """A seed-determined plan of relator insertions valid for w."""
    rng = Random(seed)
    length = sum(abs(e) for _, e in w.letters)
    names = sorted(RELATORS)
    insertions: list[tuple[int, str, int]] = []
    for _ in range(count):
        name = rng.choice(names)
        insertions.append((rng.randint(0, length), name, rng.choice((1, -1))))
        length += len(RELATORS[name])
    return FuzzPlan(seed, tuple(insertions))


def random_valid_slopes(rng: Random, max_d: int = 5, bound: int = 99) -> SlopeSequence:
    """A valid slope sequence drawn from rng, with at most max_d later slopes.

    The first slope is a reduced p/q with odd q up to the bound; each later
    slope has an odd numerator and positive denominator within the bound.
    p is drawn until it is coprime to q, so memory does not grow with the
    bound and entries may have 30 digits or more.
    """
    d = rng.randint(0, max_d)
    q = 2 * rng.randint(1, (bound - 1) // 2) + 1
    p = rng.randint(1, q - 1)
    while gcd(p, q) != 1:
        p = rng.randint(1, q - 1)
    rest = tuple(
        Fraction(2 * rng.randint(-((bound + 1) // 2), (bound - 1) // 2) + 1, rng.randint(1, bound))
        for _ in range(d)
    )
    return SlopeSequence(SimpleSlope(p, q), rest)


def random_word(rng: Random) -> BraidWord:
    """A word of up to 16 runs drawn from rng, in dm, dl and s with exponents within 4."""
    return word(
        (rng.choice("mls"), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
        for _ in range(rng.randint(0, 16))
    )


def random_subgroup_word(seed: int, gens: Sequence[str], length: int) -> BraidWord:
    """A seed-determined word of the given run length in the given generators."""
    rng = Random(seed)
    letters = [
        (rng.choice(list(gens)), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(length)
    ]
    return word(letters)


def brute_force_cf_search(
    x: Fraction | int, max_pairs: int, bound: int
) -> list[tuple[int, ...]]:
    """All continued fractions [2a1, b1, ..., 2an, bn] evaluating to x.

    Searches every sequence of up to max_pairs pairs whose entries stay
    within the bound (even entries in the odd positions, either parity in
    the even ones, zeros allowed).  Exponential; meant as an independent
    oracle for the greedy expansion on small inputs.  An empty list means
    nothing was found.
    """
    x = Fraction(x)
    evens = [e for e in range(-bound, bound + 1) if e % 2 == 0]
    ints = list(range(-bound, bound + 1))
    solutions: list[tuple[int, ...]] = []
    for pairs in range(1, max_pairs + 1):
        pools = [evens, ints] * pairs
        for combo in itertools.product(*pools):
            if cf_eval(combo) == x:
                solutions.append(tuple(combo))
    return solutions
