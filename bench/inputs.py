"""Seeded input generators for the three workloads.

Every generator takes the seed (or an RNG made from it) as an argument and
uses only ``random.Random``; the same seed gives the same inputs.  Inputs are
built from plain integers and ``Fraction`` values here and handed to the
library only as arguments, so the program under test sees nothing but the
generated inputs.  Expected answers for the CLI cases are computed in this
process with the library's public functions, before any timing starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Optional

# engine-roundtrip: every depth from 4 to 12 once per cycle, in a seeded
# order.  A continuous run of depths keeps p50 and p90 inside the bulk of
# the latency distribution instead of on the gap between two rungs, and a
# cycle is short enough (~0.1 s at the seed commit) that a run holds
# hundreds of operations.  The cubic growth at larger depths is measured by
# the growth ladders of the traced run instead.
ENGINE_DEPTHS = tuple(range(4, 13))
ENTRY_BOUND = 99

# two-bridge-catalog: full tables of K(a, b) for these odd a.
CATALOG_A = (201, 401, 801, 1201)
CATALOG_BLOCKS = 5


def rng_for(seed: int, purpose: str) -> Random:
    """An RNG for one purpose; string seeds hash the same in every process."""
    return Random(f"{purpose}:{seed}")


def slope_sequence(rng: Random, depth: int, bound: int = ENTRY_BOUND):
    """A valid slope sequence with exactly ``depth`` later slopes.

    The first slope is p/q with odd q in [3, bound] and p coprime to q; each
    later slope has an odd numerator in [-bound, bound] and a denominator in
    [1, bound] (reducing keeps the numerator odd).  Returned as the plain
    pair (first, rest) of ``(p, q)`` and a tuple of ``Fraction``.
    """
    q = 2 * rng.randint(1, (bound - 1) // 2) + 1
    p = rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1])
    rest = tuple(
        Fraction(2 * rng.randint(-((bound + 1) // 2), (bound - 1) // 2) + 1, rng.randint(1, bound))
        for _ in range(depth)
    )
    return (p, q), rest


def engine_stream(seed: int) -> Iterator[tuple[int, tuple]]:
    """Endless (depth, sequence) pairs cycling through ENGINE_DEPTHS.

    Each cycle visits every depth once in a fresh seeded order.  No sequence
    is yielded twice, so a memo cache has nothing to reuse.
    """
    rng = rng_for(seed, "engine")
    seen: set = set()
    while True:
        depths = list(ENGINE_DEPTHS)
        rng.shuffle(depths)
        for depth in depths:
            seq = slope_sequence(rng, depth)
            while seq in seen:
                seq = slope_sequence(rng, depth)
            seen.add(seq)
            yield depth, seq


def catalog_pairs(a_values=CATALOG_A) -> list[tuple[int, int]]:
    """Every (a, b) with 0 < b < a and gcd(a, b) = 1, for each a."""
    return [(a, b) for a in a_values for b in range(1, a) if math.gcd(a, b) == 1]


def _euclid_weight(a: int, b: int) -> int:
    """Sum of the partial quotients of a/b: how long K(a, b)'s words get."""
    total = 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def catalog_pass(rng: Random, pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """One pass over the whole table, as CATALOG_BLOCKS blocks of equal mix.

    The tables are fixed by CATALOG_A, so every seed runs the same queries;
    the seed sets their order.  Queries are ranked by the word length of
    both K(a, b) and K(a, b') and dealt round-robin into the blocks, so every
    block holds the same share of the heavy tail and blocks can be timed
    against each other.
    """
    ranked = sorted(pairs, key=lambda p: _euclid_weight(p[0], p[1]) + _euclid_weight(p[0], pow(p[1], -1, p[0])))
    blocks = [ranked[i::CATALOG_BLOCKS] for i in range(CATALOG_BLOCKS)]
    for block in blocks:
        rng.shuffle(block)
    rng.shuffle(blocks)
    return [block for block in blocks if block]


def catalog_properties(pairs: list[tuple[int, int]], upper_semisimple_word) -> dict:
    """Input properties of the catalog: table sizes, m-exponent sums, repeats.

    The m-exponent sum of the upper semisimple word is the number of
    segments the engine splits it into; it is near a/2 when b or its dual is
    near 1.  A query repeats work when its knot K(a, b) = K(a, b') was
    already queried in the same pass as the other parameter.
    """
    sums = sorted(
        sum(abs(e) for name, e in upper_semisimple_word(a, b).letters if name == "m")
        for a, b in pairs
    )
    knots: set = set()
    repeats = 0
    for a, b in pairs:
        knot = (a, min(b, pow(b, -1, a)))
        repeats += knot in knots
        knots.add(knot)
    return {
        "tables": {a: sum(1 for x, _ in pairs if x == a) for a in sorted({a for a, _ in pairs})},
        "m_exponent_sum_p50": sums[len(sums) // 2],
        "m_exponent_sum_max": sums[-1],
        "repeated_knot_share": repeats / len(pairs),
    }


# ---------------------------------------------------------------------------
# cli-oneshot


@dataclass(frozen=True)
class CliCase:
    """One command line and what it must produce.

    With code 0 the stdout must equal ``text`` byte for byte, or parse as
    JSON equal to ``payload``, and stderr must be empty.  With code 1 or 2
    stdout must be empty and stderr must say why.
    """

    kind: str
    argv: tuple[str, ...]
    code: int
    text: Optional[str] = None
    payload: Optional[dict] = None


_MAIN_WORD = "m 3 s -2 l 3 s -4 m -1 s -4 l 3".split()
_MAIN_UPPER = "21 25 341 60 -13 1 -13 1".split()

# The README transcripts, pinned byte for byte.
README_CASES = (
    (["upperSlopes", *_MAIN_WORD], "[ 21/25 ], 341/60, -13, -13\n"),
    (["lowerSlopes", *_MAIN_WORD], "[ 16/19 ], -7, -7, -195/31, -5, -5\n"),
    (
        ["braidWord", *_MAIN_UPPER],
        "m 1 s 1 m -1 s 1 l 1 m 1 s -2 l 3 s -3 m 1 s -3 l 2 s -1 l -1\n",
    ),
    (["dualSlopes", *_MAIN_UPPER], "[ 16/19 ], -7, -7, -195/31, -5, -5\n"),
    (
        ["twoBridge", "413", "227"],
        "Upper simple tunnel:     [ 131/413 ]\n"
        "Upper semisimple tunnel: [ 1/3 ], 15/7, 9/5\n"
        "Lower simple tunnel:     [ 227/413 ]\n"
        "Lower semisimple tunnel: [ 2/5 ], -1, -3/2, 1, 1, 1, 3\n",
    ),
    (["upperSemisimpleBraidWord", "413", "227"], "m -1 s -6 m -1 s 6 m -1 s 1 l -1\n"),
    (["torusUpperSlopes", "13", "5"], "[ 1/5 ], 11, 15, 21\n"),
    (
        ["fullTorusBraidWord", "13", "5"],
        "l -2 m 1 l -3 m 1 l -2 m 1 l -3 m 1 l -3 m 1\n",
    ),
    (
        ["find2BridgeKnot", "1", "3", "15", "7", "9", "5"],
        "The tunnel is the upper semisimple tunnel of K( 413, 227 ), "
        "or equivalently the lower semisimple tunnel of K( 413, 131 ).\n",
    ),
    (
        ["find2BridgeKnot", "1", "3", "15", "11", "9", "5"],
        "Slopes other than first must be of the form 2 + 1/k or 2 - 1/k.\n",
    ),
    (
        ["upperSlopes", "--json", *_MAIN_WORD],
        '{"numerators": [21, 341, -13, -13], "denominators": [25, 60, 1, 1]}\n',
    ),
    (
        ["find2BridgeKnot", "--json", "1", "3", "15", "7", "9", "5"],
        '{"matched": true, "a": 413, "b": 227, "dual_b": 131}\n',
    ),
)

# Malformed input exits 2, out-of-domain input exits 1.
ERROR_CASES = (
    (["upperSlopes", "m", "1", "s"], 2),
    (["lowerSlopes", "q", "1"], 2),
    (["braidWord", "1", "x"], 2),
    (["twoBridge", "7"], 2),
    (["noSuchCommand"], 2),
    (["twoBridge", "8", "3"], 1),
    (["twoBridge", "9", "3"], 1),
    (["torusUpperSlopes", "4", "6"], 1),
    (["braidWord", "1", "2"], 1),
    (["dualSlopes", "3", "0"], 1),
)

_TWO_BRIDGE_FIELDS = (
    ("Upper simple tunnel:", "upper_simple"),
    ("Upper semisimple tunnel:", "upper_semisimple"),
    ("Lower simple tunnel:", "lower_simple"),
    ("Lower semisimple tunnel:", "lower_semisimple"),
)


def _random_word(rng: Random) -> list[str]:
    tokens: list[str] = []
    last = None
    for _ in range(rng.randint(4, 8)):
        name = rng.choice([g for g in "mls" if g != last])
        tokens += [name, str(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))]
        last = name
    return tokens


def _slope_tokens(first, rest) -> list[str]:
    tokens = [str(first[0]), str(first[1])]
    for x in rest:
        tokens += [str(x.numerator), str(x.denominator)]
    return tokens


def _two_bridge_params(rng: Random) -> tuple[int, int]:
    a = 2 * rng.randint(1, 499) + 1
    b = rng.choice([k for k in range(1, a) if math.gcd(a, k) == 1])
    return a, b


def _torus_params(rng: Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(2, 25), rng.randint(2, 25)
        if math.gcd(p, q) == 1:
            return p * rng.choice((1, -1)), q * rng.choice((1, -1))


def cli_cases(seed: int, lib) -> list[CliCase]:
    """The CLI deck: README transcripts, seeded cases, error cases.

    ``lib`` is the imported ``tunnel_slopes`` package; the seeded cases'
    expected output is the library's answer for the same input.  Every one
    of the 12 subcommands gets a text case and a ``--json`` case.  The deck
    is returned in a seeded order.
    """
    rng = rng_for(seed, "cli")
    cli = lib.cli

    def slopes_text(seq) -> str:
        return (lib.format_slopes(seq) if seq else cli.TRIVIAL_TEXT) + "\n"

    def slopes_json(seq) -> dict:
        if not seq:
            return {"numerators": [], "denominators": []}
        return {
            "numerators": [seq.first.p] + [x.numerator for x in seq.rest],
            "denominators": [seq.first.q] + [x.denominator for x in seq.rest],
        }

    def word_text(w) -> str:
        return lib.format_word(w) + "\n"

    def word_json(w) -> dict:
        return {"word": lib.format_word(w)}

    def find_answer(seq):
        result = lib.find_two_bridge(seq)
        if isinstance(result, lib.Rejection):
            return result.message + "\n", {
                "matched": False,
                "condition": result.condition,
                "message": result.message,
            }
        knot, dual = result
        return (
            cli.SUCCESS_SENTENCE.format(a=knot.a, b=knot.b, b2=dual.b) + "\n",
            {"matched": True, "a": knot.a, "b": knot.b, "dual_b": dual.b},
        )

    def two_bridge_answer(a, b):
        report = lib.two_bridge_tunnels(a, b)
        text = "".join(
            f"{label:<25}{lib.format_slopes(getattr(report, field))}\n"
            for label, field in _TWO_BRIDGE_FIELDS
        )
        payload = {field: slopes_json(getattr(report, field)) for _, field in _TWO_BRIDGE_FIELDS}
        return text, payload

    def random_sequence():
        first, rest = slope_sequence(rng, rng.randint(0, 3))
        return _slope_tokens(first, rest)

    cases = [CliCase("readme", tuple(argv), 0, text=text) for argv, text in README_CASES]
    cases += [CliCase(f"exit{code}", tuple(argv), code) for argv, code in ERROR_CASES]

    def add(command, args, text, payload):
        cases.append(CliCase("seeded", (command, *args), 0, text=text))
        cases.append(CliCase("seeded", (command, "--json", *args), 0, payload=payload))

    for command, fn in (
        ("upperSlopes", lib.upper_slopes),
        ("lowerSlopes", lib.lower_slopes),
    ):
        tokens = _random_word(rng)
        seq = fn(lib.parse_word(" ".join(tokens)))
        add(command, tokens, slopes_text(seq), slopes_json(seq))
    tokens = _random_word(rng)
    w = lib.reverse_word(lib.parse_word(" ".join(tokens)))
    add("reverseBraid", tokens, word_text(w), word_json(w))

    tokens = random_sequence()
    w = lib.braid_from_slopes(lib.parse_slopes(" ".join(tokens)))
    add("braidWord", tokens, word_text(w), word_json(w))
    tokens = random_sequence()
    seq = lib.dual_slopes(lib.parse_slopes(" ".join(tokens)))
    add("dualSlopes", tokens, slopes_text(seq), slopes_json(seq))

    a, b = _two_bridge_params(rng)
    add("twoBridge", [str(a), str(b)], *two_bridge_answer(a, b))
    for command, fn in (
        ("upperSemisimpleBraidWord", lib.upper_semisimple_word),
        ("lowerSimpleBraidWord", lib.lower_simple_word),
    ):
        a, b = _two_bridge_params(rng)
        w = fn(a, b)
        add(command, [str(a), str(b)], word_text(w), word_json(w))

    for command, fn in (
        ("torusUpperSlopes", lib.torus_upper_slopes),
        ("torusLowerSlopes", lib.torus_lower_slopes),
    ):
        p, q = _torus_params(rng)
        seq = fn(p, q)
        add(command, [str(p), str(q)], slopes_text(seq), slopes_json(seq))
    p, q = _torus_params(rng)
    w = lib.torus_braid_word(p, q)
    add("fullTorusBraidWord", [str(p), str(q)], word_text(w), word_json(w))

    a, b = _two_bridge_params(rng)
    seq = lib.semisimple_slopes_closed_form(a, b)
    tokens = _slope_tokens((seq.first.p, seq.first.q), seq.rest)
    add("find2BridgeKnot", tokens, *find_answer(seq))

    rng.shuffle(cases)
    return cases


def check_cli_result(case: CliCase, code: int, out: str, err: str) -> Optional[str]:
    """None when the process did what the case requires, else the reason."""
    if code != case.code:
        return f"exit {code}, expected {case.code}: {err.strip()[:200]}"
    if case.code != 0:
        if out or not err:
            return "an error must print nothing on stdout and a reason on stderr"
        return None
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    if case.text is not None:
        return None if out == case.text else f"stdout {out!r} != {case.text!r}"
    try:
        got = json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out!r}"
    return None if got == case.payload else f"JSON {got!r} != {case.payload!r}"
