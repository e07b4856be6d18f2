"""Acceptance checks: one test per criterion, all comparisons exact."""

import math
import random
import time
from fractions import Fraction

from conftest import coprime_pairs, matrix_cf_value, run_cli
from fuzzing import apply_fuzz, random_fuzz_plan, random_subgroup_word, random_valid_slopes
from tunnel_slopes import (
    TwoBridge,
    braid_from_slopes,
    find_two_bridge,
    is_toroidal,
    lower_slopes,
    parse_slopes,
    parse_word,
    semisimple_slopes_closed_form,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    upper_semisimple_word,
    upper_slopes,
)
from tunnel_slopes.braid import winding_number, word
from tunnel_slopes.exact_arith import (
    INFINITY,
    cf_eval,
    expand_all_even,
    expand_odd_numerator,
    mod_inverse,
)

MAIN_WORD = "m 3 s -2 l 3 s -4 m -1 s -4 l 3".split()
WORKED_WORD = "m -1 s -1 l 1 m -1 s 3 l -1".split()
MAIN_UPPER = "21 25 341 60 -13 1 -13 1".split()
MAIN_LOWER = "16 19 -7 1 -7 1 -195 31 -5 1 -5 1".split()


def _expect(argv, expected_stdout):
    code, out, err = run_cli(argv)
    assert code == 0, (argv, err)
    assert out == expected_stdout, (argv, out)


# The transcripts criterion 01 pins beyond the README's own, which
# tests/test_cli.py runs one by one.
_BEYOND_THE_README = [
    (["lowerSimpleBraidWord", "413", "227"], "m -1 s 1 l -1 s 6 l -1 s -6 l -1\n"),
    (["torusLowerSlopes", "13", "5"], "[ 1/3 ], 3, 3, 5, 5, 7, 7, 7, 9, 9\n"),
    (
        ["find2BridgeKnot", "1", "3", "15", "8", "-9", "5"],
        "The tunnel is the upper semisimple tunnel of K( 493, 222 ), "
        "or equivalently the lower semisimple tunnel of K( 493, 171 ).\n",
    ),
    (
        ["find2BridgeKnot", "1", "3", "15", "8", "9", "5"],
        "The ith and (i+1)st slopes must have opposite signs when k sub i is even.\n",
    ),
    (
        ["find2BridgeKnot", "1", "3", "-15", "8", "9", "5"],
        "m1 must be positive or negative according as n0 is odd or even.\n",
    ),
]


def test_criterion_01_golden_transcripts():
    for argv, stdout in _BEYOND_THE_README:
        _expect(argv, stdout)
    print("criterion 01 PASS: golden command transcripts reproduced byte-exactly")


def test_criterion_02_worked_example():
    _expect(["upperSlopes", *WORKED_WORD], "[ 3/7 ], 7/2\n")
    _expect(["lowerSlopes", *WORKED_WORD], "[ 2/3 ], 1/3\n")
    print("criterion 02 PASS: worked example gives [ 3/7 ], 7/2 and [ 2/3 ], 1/3")


def test_criterion_03_dual_slopes_both_directions():
    _expect(["dualSlopes", *MAIN_UPPER], "[ 16/19 ], -7, -7, -195/31, -5, -5\n")
    _expect(["dualSlopes", *MAIN_LOWER], "[ 21/25 ], 341/60, -13, -13\n")
    print("criterion 03 PASS: dual slope computation agrees in both directions")


def test_criterion_04_braid_reconstruction_round_trips():
    start = time.perf_counter()
    target = parse_slopes(" ".join(MAIN_UPPER))
    assert upper_slopes(braid_from_slopes(target)) == target
    for seed in range(1000):
        seq = random_valid_slopes(random.Random(seed), max_d=5, bound=99)
        assert upper_slopes(braid_from_slopes(seq)) == seq, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print(
        f"criterion 04 PASS: 1001 slope-to-braid round trips exact in {elapsed:.2f}s"
    )


def test_criterion_05_relator_fuzzing_preserves_invariants():
    base = parse_word(" ".join(MAIN_WORD))
    up, low, wind = upper_slopes(base), lower_slopes(base), winding_number(base)
    for seed in range(500):
        plan = random_fuzz_plan(seed, base, count=1 + seed % 4)
        fuzzed = apply_fuzz(base, plan)
        assert upper_slopes(fuzzed) == up, seed
        assert lower_slopes(fuzzed) == low, seed
        assert winding_number(fuzzed) == wind, seed
    print("criterion 05 PASS: 500 relator-fuzzed words keep slopes and winding")


def test_criterion_06_double_coset_invariance():
    bases = [
        parse_word(" ".join(MAIN_WORD)),
        parse_word(" ".join(WORKED_WORD)),
        torus_braid_word(13, 5),
        word([]),
    ]
    for seed in range(500):
        base = bases[seed % len(bases)]
        u = random_subgroup_word(seed, gens=("l", "s"), length=1 + seed % 5)
        v = random_subgroup_word(seed + 10_000, gens=("m", "s"), length=1 + seed % 5)
        assert upper_slopes(u * base * v) == upper_slopes(base), seed
        assert lower_slopes(u * base * v) == lower_slopes(base), seed
    print("criterion 06 PASS: 500 double-coset translates leave both slope sets fixed")


def test_criterion_07_closed_forms_match_engine():
    checked = 0
    for a, b in coprime_pairs(range(3, 200, 2)):
        closed = semisimple_slopes_closed_form(a, b)
        assert closed == upper_slopes(upper_semisimple_word(a, b)), (a, b)
        checked += 1
    torus_checked = 0
    for p in range(3, 31):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            w = torus_braid_word(p, q)
            assert torus_upper_slopes(p, q) == upper_slopes(w), (p, q)
            assert torus_lower_slopes(p, q) == lower_slopes(w), (p, q)
            torus_checked += 1
    print(
        f"criterion 07 PASS: closed forms equal engine output "
        f"({checked} two-bridge, {torus_checked} torus parameter pairs)"
    )


def test_criterion_08_recognizer_inverts_closed_form():
    checked = 0
    for a, b in coprime_pairs(range(3, 200, 2)):
        result = find_two_bridge(semisimple_slopes_closed_form(a, b))
        assert result == (TwoBridge(a, b), TwoBridge(a, TwoBridge(a, b).dual_b)), (a, b)
        checked += 1
    print(f"criterion 08 PASS: recognizer re-identifies all {checked} parameter pairs")


def test_criterion_09_toroidal_classification():
    for p in range(3, 31):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            assert is_toroidal(torus_upper_slopes(p, q)), (p, q)
            assert is_toroidal(torus_lower_slopes(p, q)), (p, q)
    for a, b in coprime_pairs(range(3, 100, 2)):
        expected = b in (1, a - 1)
        got = is_toroidal(semisimple_slopes_closed_form(a, b))
        assert got == expected, (a, b)
    print(
        "criterion 09 PASS: torus sequences classify toroidal; two-bridge "
        "sequences only at b in {1, a-1}"
    )


def test_criterion_10_arithmetic_layer():
    rng = random.Random(12345)
    for _ in range(10_000):
        entries = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        recursive = cf_eval(entries)
        algebraic = matrix_cf_value(entries)
        if recursive is INFINITY or algebraic is INFINITY:
            assert recursive is algebraic, entries
        else:
            assert recursive == algebraic, entries
    rng = random.Random(999)
    for _ in range(1000):
        x = Fraction(2 * rng.randint(-5000, 4999) + 1, rng.randint(1, 9999))
        assert cf_eval(expand_odd_numerator(x)) == x, x
    for a, b in coprime_pairs(range(3, 200, 2)):
        cf = expand_all_even(a, b)
        bhat = b if b % 2 == 0 else b - a
        assert cf_eval(cf) == Fraction(a, bhat), (a, b)
        assert len(cf) % 2 == 0 and all(e % 2 == 0 for e in cf), (a, b)
        assert 0 not in cf, (a, b)
    for a, b in coprime_pairs(range(2, 1001)):
        inv = mod_inverse(b, a)
        assert (b * inv) % a == 1, (a, b)
        assert mod_inverse(inv, a) == b, (a, b)
    print(
        "criterion 10 PASS: continued-fraction, expansion, and modular layers "
        "agree with independent checks"
    )
