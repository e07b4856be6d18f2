"""Mutation gate: each row breaks the code on purpose, and its tests must notice.

Run from the repository root:

    python tests/mutants.py

A row names a file, an exact text in it, the text that replaces it, the test
node ids to run, and the outcome expected: "killed" (the tests fail) or
"survives" (they pass, for the reason the row gives).  Each row runs on a
fresh temporary copy of src/, tests/, demos/ and README.md with
PYTHONPATH=src.  The old text must occur exactly once in the repository's own
file, which is counted before any copy is made, or the row fails as stale; a
row whose anchor moves is updated with the code it anchors, and Tier-1 checks
every anchor and node statically.  The listed nodes are first run once on an
unchanged copy, where every one must pass.  The script exits 0 when every row
has its expected outcome.  pytest does not collect it: the file name has no
test_ prefix and it defines no test functions.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos")
COPIED_FILES = ("pyproject.toml", "README.md")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    nodes: tuple[str, ...]
    expect: str = "killed"
    reason: str = ""


BRAID = "src/tunnel_slopes/braid.py"
ENGINE = "src/tunnel_slopes/slope_engine.py"
ARITH = "src/tunnel_slopes/exact_arith.py"
FAMILIES = "src/tunnel_slopes/knot_families.py"

ROUND_TRIP = (
    "tests/test_slope_engine.py::test_braid_from_slopes_deterministic_output",
    "tests/test_slope_engine.py::test_braid_from_slopes_round_trips_pinned_sequences",
)
SPELLING_ORACLE = (
    "tests/test_oracles.py::test_braid_from_slopes_matches_oracle_on_random_sequences",
    "tests/test_oracles.py::test_braid_from_slopes_matches_oracle_on_lower_sequences",
    "tests/test_oracles.py::test_braid_from_slopes_matches_oracle_on_deep_sequences",
)
# The Tier-1 digest of the torus corpus (tests/digests.py): the row that names
# it alone was found by running candidate mutants against the rest of Tier-1,
# which it passes.  Mixed-sign torus words are pinned as well.
DIGEST_TORUS = "tests/test_digests.py::test_answers_match_the_recorded_digest[torus]"
TORUS_WORD_PINS = "tests/test_knot_families.py::test_torus_braid_word_pinned_values"
CF_MATRIX_ORACLE = "tests/test_oracles.py::test_cf_matrix_matches_the_recurrence_across_chunks"
RECOGNIZER = (
    "tests/test_acceptance.py::test_criterion_08_recognizer_inverts_closed_form",
    "tests/test_knot_families.py::test_find_two_bridge_success_cases",
    "tests/test_oracles.py::test_find_two_bridge_matches_oracle_on_random_sequences",
)
REJECTIONS = (
    "tests/test_knot_families.py::test_find_two_bridge_rejections",
    "tests/test_oracles.py::test_find_two_bridge_matches_oracle_on_random_sequences",
)
CLOSED_FORM = (
    "tests/test_knot_families.py::test_two_bridge_tunnels_golden_report",
    "tests/test_knot_families.py::test_closed_form_pinned_sequences",
    "tests/test_acceptance.py::test_criterion_07_closed_forms_match_engine",
    "tests/test_acceptance.py::test_criterion_08_recognizer_inverts_closed_form",
    "tests/test_digests.py::test_answers_match_the_recorded_digest[two-bridge]",
)
README_UPPER = (
    "tests/test_cli.py::test_readme_transcript[upperSlopes m 3 s -2 l 3 s -4 m -1 s -4 l 3]"
)

ROWS = (
    # the letter kernel: _push, which word folds over its letters
    Mutant(
        "word keeps the cancelled name on top",
        BRAID,
        "    if stack and stack[-1][0] == name:\n",
        "    if stack and stack[-1][0] == name and stack[-1][1] != -exponent:\n",
        ("tests/test_braid.py::test_word_cancellation_exposes_the_letter_below",),
    ),
    Mutant(
        "word appends a zero-exponent letter",
        BRAID,
        "    if exponent:\n        stack.append((name, exponent))",
        "    if True:\n        stack.append((name, exponent))",
        ("tests/test_braid.py::test_word_drops_zero_exponents",),
    ),
    Mutant(
        "word skips the generator check for a zero exponent",
        BRAID,
        "if name not in GENERATORS:\n            raise DomainError",
        "if exponent and name not in GENERATORS:\n            raise DomainError",
        ("tests/test_oracles.py::test_word_layer_matches_oracles_on_letter_lists",),
    ),
    # the product: a merge only at the seam
    Mutant(
        "the product never merges its seam",
        BRAID,
        "while i and j < len(right) and left[i - 1][0] == right[j][0]:",
        "while False:",
        ("tests/test_oracles.py::test_products_match_the_oracle_and_are_canonical",),
    ),
    Mutant(
        "the product's seam test reads the left word's first letter",
        BRAID,
        "left[i - 1][0] == right[j][0]:",
        "left[0][0] == right[j][0]:",
        ("tests/test_oracles.py::test_products_match_the_oracle_and_are_canonical",),
    ),
    Mutant(
        "the product's cascade stops after its first cancelled pair",
        BRAID,
        "while i and j < len(right) and left[i - 1][0] == right[j][0]:",
        "if i and j < len(right) and left[i - 1][0] == right[j][0]:",
        ("tests/test_oracles.py::test_products_match_the_oracle_and_are_canonical",),
    ),
    Mutant(
        "the product drops a nonzero merged seam letter",
        BRAID,
        "return BraidWord(left[:i] + (seam[0],) + right[j:])",
        "return BraidWord(left[:i] + right[j:])",
        ("tests/test_oracles.py::test_products_match_the_oracle_and_are_canonical",),
    ),
    Mutant(
        "the product re-canonicalizes a seam of one name with word",
        BRAID,
        "        i, j = len(left), 0",
        "        if left and right and left[-1][0] == right[0][0]:\n"
        "            return word(left + right)\n"
        "        i, j = len(left), 0",
        ("tests/test_braid.py::test_products_merge_only_at_the_seam",),
    ),
    # braid_from_slopes: the twist carried from block to block, and each block's dm s
    Mutant(
        "carried twist flipped",
        ENGINE,
        'block.append(("l", twist))',
        'block.append(("l", -twist))',
        ROUND_TRIP,
    ),
    Mutant(
        "carried twist zeroed",
        ENGINE,
        'block.append(("l", twist))',
        'block.append(("l", 0))',
        ROUND_TRIP,
    ),
    Mutant(
        "the twist is read after the block's own dl letter is appended",
        ENGINE,
        '        next_twist = _winding(block)\n        block.append(("l", twist))\n',
        '        block.append(("l", twist))\n        next_twist = _winding(block)\n',
        SPELLING_ORACLE,
    ),
    Mutant(
        "the block's dm s is spelled apart, so s 1 and s^bn reach _shrink unmerged",
        ENGINE,
        '        entries[-1] += 1\n        block = [("m", 1), *_even_odd_letters(entries)]\n',
        '        block = [("m", 1), ("s", 1), *_even_odd_letters(entries)]\n',
        ("tests/test_oracles.py::test_braid_from_slopes_matches_oracle_on_random_sequences",),
    ),
    Mutant(
        "the last b-step is not raised",
        ENGINE,
        "        entries[-1] += 1\n",
        "",
        ROUND_TRIP,
    ),
    # the one shrinking pass, shared by peephole and braid_from_slopes
    Mutant(
        "_shrink's rewrite keeps g's sign",
        ENGINE,
        "_push(stack, g, -e)",
        "_push(stack, g, e)",
        ("tests/test_slope_engine.py::test_peephole_pinned_values",),
    ),
    Mutant(
        "the s-only guard is inverted",
        ENGINE,
        'if name != "s":\n            continue',
        'if name == "s":\n            continue',
        ("tests/test_slope_engine.py::test_peephole_pinned_values",),
    ),
    # the one winding rule
    Mutant(
        "winding_number's s-parity starts at -1",
        BRAID,
        "    total = 0\n    s_parity = 1\n",
        "    total = 0\n    s_parity = -1\n",
        ("tests/test_braid.py::test_winding_number_pinned_values",),
    ),
    # the one even-odd speller
    Mutant(
        "the speller writes b-steps as dm",
        BRAID,
        'letters += (("s", cf[j + 1]),',
        'letters += (("m", cf[j + 1]),',
        ("tests/test_knot_families.py::test_semisimple_word_byte_pins",),
    ),
    Mutant(
        "the speller leaves dm and dl unswapped",
        BRAID,
        '("l", -(cf[j] // 2)))',
        '("m", -(cf[j] // 2)))',
        SPELLING_ORACLE,
    ),
    Mutant(
        "the reversal keeps dm and dl",
        BRAID,
        "tuple([(_SWAP[name], e) for name, e in reversed(letters)])",
        "tuple([(name, e) for name, e in reversed(letters)])",
        ("tests/test_knot_families.py::test_semisimple_word_byte_pins",),
    ),
    # the splitter: a merge only at a piece's opening and closing s
    Mutant(
        "the splitter leaves a piece's closing s unmerged",
        BRAID,
        '            _push(piece, "s", 1)',
        '            piece.append(("s", 1))',
        ("tests/test_oracles.py::test_random_words_match_oracles",),
    ),
    # the one segment count, and the two checks against SIZE_LIMIT
    Mutant(
        "the segment count reads s letters",
        BRAID,
        "if sum(abs(letters[i][1]) for i in marks) > SIZE_LIMIT:",
        "if sum(abs(letters[i][1]) for i in range(len(letters)) "
        'if letters[i][0] == "s") > SIZE_LIMIT:',
        ("tests/test_braid.py::test_segment_size_limit",),
    ),
    Mutant(
        "segment refuses at the limit",
        BRAID,
        "for i in marks) > SIZE_LIMIT:",
        "for i in marks) >= SIZE_LIMIT:",
        ("tests/test_braid.py::test_segment_size_limit",),
    ),
    Mutant(
        "two_bridge_tunnels refuses at the limit",
        FAMILIES,
        "_semisimple_segments(a, dual)) > SIZE_LIMIT:",
        "_semisimple_segments(a, dual)) >= SIZE_LIMIT:",
        ("tests/test_cli.py::test_two_bridge_at_the_size_limit_runs_at_once",),
    ),
    Mutant(
        "_semisimple_segments sums the landings instead of the steps",
        FAMILIES,
        "for step in _expand_odd(a, b)[::2]",
        "for step in _expand_odd(a, b)[1::2]",
        (
            "tests/test_oracles.py::"
            "test_two_bridge_tunnels_refuse_as_the_engine_does_near_the_size_limit",
            "tests/test_oracles.py::test_semisimple_segment_count_is_the_trimmed_words_dm_total",
        ),
    ),
    Mutant(
        "two_bridge_tunnels counts only (a, b)",
        FAMILIES,
        "max(_semisimple_segments(a, b), _semisimple_segments(a, dual))",
        "_semisimple_segments(a, b)",
        (
            "tests/test_oracles.py::"
            "test_two_bridge_tunnels_refuse_as_the_engine_does_near_the_size_limit",
        ),
    ),
    # the reduction loop
    Mutant(
        "_segment_slopes untwists with the wrong sign",
        ENGINE,
        "slope.numerator + 2 * winding_number(suffix) * b",
        "slope.numerator - 2 * winding_number(suffix) * b",
        ("tests/test_slope_engine.py::test_upper_slopes_pinned_values",),
    ),
    Mutant(
        "the bottom pop drops at most one integral slope",
        ENGINE,
        "    while bottom < len(slopes) and abs(slopes[bottom][0]) == 1:\n",
        "    if bottom < len(slopes) and abs(slopes[bottom][0]) == 1:\n",
        ("tests/test_oracles.py::test_upper_slopes_matches_oracle_on_random_words",),
    ),
    Mutant(
        "_eliminate merges with its neighbours in the wrong order",
        ENGINE,
        "[merged * omegas[i - 1]]",
        "[omegas[i - 1] * merged]",
        ("tests/test_slope_engine.py::test_dual_slopes_pinned_pair",),
    ),
    # continued fractions
    Mutant(
        "the a-step rounds ties up",
        ARITH,
        "a2 = -2 * ((q - p) // (2 * q))",
        "a2 = 2 * ((p + q) // (2 * q))",
        ("tests/test_exact_arith.py::test_expand_odd_numerator_tie_breaking",),
    ),
    Mutant(
        "_coprime keeps a negative denominator",
        ARITH,
        "    if q < 0:\n        p, q = -p, -q\n    x = object.__new__(Fraction)\n",
        "    x = object.__new__(Fraction)\n",
        (
            "tests/test_exact_arith.py::"
            "test_coprime_builds_the_fraction_the_constructor_builds",
        ),
    ),
    # cf_eval's recurrence is _cf_matrix's, which find_two_bridge shares
    Mutant(
        "cf_eval starts from the other identity column",
        ARITH,
        "    p, p0, q, q0 = 1, 0, 0, 1\n",
        "    p, p0, q, q0 = 0, 1, 1, 0\n",
        (
            "tests/test_exact_arith.py::test_cf_eval_basic_values",
            "tests/test_oracles.py::test_cf_eval_matches_both_oracles",
        ),
    ),
    # the balanced product: chunks by the recurrence, then rounds of pairs
    Mutant(
        "a round of the product drops the unpaired last matrix",
        ARITH,
        "        ] + products[len(products) // 2 * 2 :]  # an unpaired last one waits\n",
        "        ]\n",
        (CF_MATRIX_ORACLE,),
    ),
    Mutant(
        "a chunk slice repeats the next chunk's first entry",
        ARITH,
        "entries[start : start + _CF_CHUNK]",
        "entries[start : start + _CF_CHUNK + 1]",
        (CF_MATRIX_ORACLE,),
    ),
    Mutant(
        "cf_eval reads INFINITY off p instead of q",
        ARITH,
        "    if q == 0:\n        return INFINITY\n",
        "    if p == 0:\n        return INFINITY\n",
        (
            "tests/test_exact_arith.py::test_cf_eval_formal_infinity_rules",
            "tests/test_oracles.py::test_cf_eval_matches_both_oracles",
        ),
    ),
    Mutant(
        "_nearest_even rounds ties up",
        ARITH,
        "return 2 * math.ceil(Fraction(x - 1, 2))",
        "return 2 * math.floor(Fraction(x + 1, 2))",
        (
            "tests/test_exact_arith.py::test_expand_all_even_golden_values",
            "tests/test_exact_arith.py::test_expand_all_even_never_rounds_a_tie",
        ),
        expect="survives",
        reason="expand_all_even asks at odd over even or even over odd, never an odd "
        "integer, so _nearest_even never meets a tie",
    ),
    # values: built once, in __new__, through the one setter
    Mutant(
        "_of drops its field-count check",
        ARITH,
        "        if len(fields) != len(setters):\n"
        '            raise ValueError(f"{cls.__qualname__} has {len(setters)} fields, not {len(fields)}")\n',
        "",
        ("tests/test_values.py::test_of_builds_the_value_from_exactly_its_fields",),
    ),
    Mutant(
        "SimpleSlope builds before its gcd check",
        ARITH,
        "        elif math.gcd(p, q) != 1:\n",
        "        else:\n            return cls._of(p, q)\n        if math.gcd(p, q) != 1:\n",
        ("tests/test_values.py::test_invalid_fields_raise_domain_error",),
    ),
    Mutant(
        "a value class keeps a field-setting __init__",
        ARITH,
        '    __slots__ = ("p", "q")\n',
        '    __slots__ = ("p", "q")\n\n'
        "    def __init__(self, p, q):\n"
        '        object.__setattr__(self, "p", p)\n'
        '        object.__setattr__(self, "q", q)\n',
        ("tests/test_values.py::test_calling_init_again_changes_nothing",),
    ),
    # sequences built by construction, with no checks
    Mutant(
        "the walk appends the run slope with the wrong sign",
        FAMILIES,
        "_RUN_SLOPE = {1: Fraction(-1), -1: Fraction(1)}",
        "_RUN_SLOPE = {1: Fraction(1), -1: Fraction(-1)}",
        ("tests/test_knot_families.py::test_two_bridge_tunnels_golden_report",),
    ),
    Mutant(
        "the walk's step slope gets an even numerator",
        FAMILIES,
        "slopes.append(_coprime(1 - 2 * prev * k, k))",
        "slopes.append(_coprime(2 - 2 * prev * k, k))",
        ("tests/test_values.py::test_closed_forms_build_valid_sequences",),
    ),
    Mutant(
        "the walk keeps its first slope's own class, not its reciprocal's",
        FAMILIES,
        "SimpleSlope._of_coprime(m0.denominator, m0.numerator)",
        "SimpleSlope._of_coprime(m0.numerator, m0.denominator)",
        CLOSED_FORM,
    ),
    Mutant(
        "the walk starts from unit +1",
        FAMILIES,
        "    unit = -1  # the seed\n",
        "    unit = 1  # the seed\n",
        CLOSED_FORM,
        expect="survives",
        reason="m0 is a class mod 1: a seed of +1 gives k + 1 and [(k + 1)/(-2k - 1)] = "
        "[k/(2k + 1)], and every later step meets the sign of the step before it, so "
        "only the recognizer's seed is pinned",
    ),
    Mutant(
        "parse_slopes builds through _of",
        ENGINE,
        "    return SlopeSequence(SimpleSlope.from_fraction(values[0]), tuple(values[1:]))",
        "    return SlopeSequence._of(SimpleSlope.from_fraction(values[0]), tuple(values[1:]))",
        ("tests/test_slope_engine.py::test_parse_slopes_errors",),
    ),
    # mixed-sign torus knots: slopes that only the digest corpora reach, and words
    Mutant(
        "torus_upper_slopes keeps the chain positive for negative p and positive q",
        FAMILIES,
        "sign = -1 if (p < 0) != (q < 0) else 1",
        "sign = -1 if q < 0 < p else 1",
        (DIGEST_TORUS,),
    ),
    Mutant(
        "torus_braid_word drops the last block of a mixed-sign staircase",
        FAMILIES,
        "heights if q > 0 else heights[::-1]",
        "heights if q > 0 else heights[-2::-1]",
        (DIGEST_TORUS, TORUS_WORD_PINS),
    ),
    Mutant(
        "torus_braid_word reads a mixed-sign staircase downward",
        FAMILIES,
        "heights if q > 0 else heights[::-1]",
        "heights if q > 0 else [-h for h in heights]",
        (DIGEST_TORUS, TORUS_WORD_PINS),
    ),
    # the staircase walk that spells torus and toroidal words
    Mutant(
        "the staircase walk reads its heights upward",
        FAMILIES,
        "for k in range(len(heights) - 2, -1, -1):",
        "for k in range(len(heights) - 1):",
        (TORUS_WORD_PINS,),
    ),
    Mutant(
        "toroidal_braid_word walks its heights from n0, not from 0",
        FAMILIES,
        "heights = [0] + [(n + 1) // 2 for n in odds]",
        "heights = [(n + 1) // 2 for n in odds]",
        (
            "tests/test_knot_families.py::test_toroidal_braid_word_pinned_values",
            "tests/test_oracles.py::test_toroidal_braid_word_matches_oracle",
        ),
    ),
    Mutant(
        "torus_lower_slopes checks the swapped parameters",
        FAMILIES,
        "    _check_torus(p, q)  # so that a refusal names p and q in the order given\n",
        "",
        (
            "tests/test_knot_families.py::"
            "test_torus_lower_slopes_refusal_names_p_and_q_in_the_order_given",
            "tests/test_cli.py::test_torus_lower_slopes_refusal_names_p_and_q_in_the_order_given",
        ),
    ),
    # the text form, as the README shows it
    Mutant(
        "format_slopes joins with a bare comma",
        ENGINE,
        'return ", ".join([str(seq.first)]',
        'return ",".join([str(seq.first)]',
        (README_UPPER,),
    ),
    # refusals, which show a token's start only
    Mutant(
        "a refusal echoes the whole token",
        BRAID,
        '    return repr(token) if len(token) <= 20 else f"{token[:20]!r}..."\n',
        "    return repr(token)\n",
        ("tests/test_cli.py::test_a_refused_token_is_not_echoed",),
    ),
    # the recognizer: one test 2 sign + 1/k over m0 read as q/p and every later
    # slope, then one walk from unit -1
    Mutant(
        "find_two_bridge reads m0 as p/q",
        FAMILIES,
        "pairs = [(seq.first.q, seq.first.p)]",
        "pairs = [(seq.first.p, seq.first.q)]",
        RECOGNIZER,
    ),
    Mutant(
        "find_two_bridge swaps its i and ii rejections",
        FAMILIES,
        'return Rejection("ii", REJECTION_II) if slopes else Rejection("i", REJECTION_I)',
        'return Rejection("i", REJECTION_I) if slopes else Rejection("ii", REJECTION_II)',
        REJECTIONS,
    ),
    Mutant(
        "find_two_bridge's walk starts from unit +1",
        FAMILIES,
        "    unit = -1\n    entries: list[int] = []\n",
        "    unit = 1\n    entries: list[int] = []\n",
        RECOGNIZER,
    ),
    Mutant(
        "find_two_bridge reports iii only at m0's index",
        FAMILIES,
        'REJECTION_IV) if i > 2 else Rejection("iii"',
        'REJECTION_IV) if i > 0 else Rejection("iii"',
        REJECTIONS,
    ),
    Mutant(
        "find_two_bridge flips its unit after odd k",
        FAMILIES,
        "prev, unit = unit, -unit if k % 2 == 0 else unit",
        "prev, unit = unit, -unit if k % 2 == 1 else unit",
        ("tests/test_knot_families.py::test_find_two_bridge_rejections",),
    ),
    Mutant(
        "find_two_bridge reads p0 for q in the transposed product",
        FAMILIES,
        "    p, q, p0, _ = _cf_matrix(entries)\n",
        "    p, p0, q, _ = _cf_matrix(entries)\n",
        RECOGNIZER,
    ),
    Mutant(
        "find_two_bridge swaps b and b' in the knots it builds",
        FAMILIES,
        "return (TwoBridge._of(a, sign * q % a), TwoBridge._of(a, -sign * p0 % a))",
        "return (TwoBridge._of(a, -sign * p0 % a), TwoBridge._of(a, sign * q % a))",
        RECOGNIZER,
    ),
    Mutant(
        "find_two_bridge reads b' with the wrong sign",
        FAMILIES,
        "-sign * p0",
        "sign * p0",
        RECOGNIZER,
    ),
)


def _copy(into: Path) -> None:
    for name in COPIED:
        shutil.copytree(ROOT / name, into / name, ignore=IGNORED)
    for name in COPIED_FILES:
        shutil.copy(ROOT / name, into / name)


def _pytest(where: Path, nodes: tuple[str, ...]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(command, cwd=where, env=env, capture_output=True, text=True)
    return done.returncode


def anchor_count(row: Mutant) -> int:
    """How often the row's old text occurs in the repository's own file."""
    return (ROOT / row.path).read_text().count(row.old)


def _outcome(row: Mutant) -> str:
    """killed, survives, stale (the old text is not there once), or error."""
    if anchor_count(row) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / row.path
        target.write_text(target.read_text().replace(row.old, row.new))
        code = _pytest(where, row.nodes)
    return {0: "survives", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    nodes = tuple(dict.fromkeys(node for row in ROWS for node in row.nodes))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), nodes)
    if code != 0:
        print(f"the unchanged code fails the listed tests (pytest exit {code})")
        return 1
    failures = 0
    for row in ROWS:
        start = time.perf_counter()
        outcome = _outcome(row)
        ok = outcome == row.expect
        failures += not ok
        note = f" ({row.reason})" if row.reason and ok else ""
        print(
            f"{'ok ' if ok else 'BAD'} {outcome:<9} {row.name}{note}"
            f"  [{time.perf_counter() - start:.1f} s]"
            + ("" if ok else f"; expected {row.expect}")
        )
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
