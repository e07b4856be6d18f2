"""Fuzzing helpers (relator insertion plans, random inputs, brute-force search)
and the mutation gate's rows."""

import ast
import math
from fractions import Fraction
from random import Random

import pytest

import mutants
from fuzzing import (
    RELATORS,
    FuzzPlan,
    apply_fuzz,
    brute_force_cf_search,
    random_fuzz_plan,
    random_subgroup_word,
    random_valid_slopes,
)
from tunnel_slopes import DomainError, braid_from_slopes, lower_slopes, parse_word, upper_slopes
from tunnel_slopes.braid import winding_number, word
from tunnel_slopes.exact_arith import cf_eval, expand_odd_numerator


def test_relators_act_trivially():
    for name, letters in RELATORS.items():
        relator = word(letters)
        assert upper_slopes(relator) == upper_slopes(word([])), name
        assert lower_slopes(relator) == lower_slopes(word([])), name
        assert winding_number(relator) == 0, name


def test_inserting_a_relator_into_the_empty_word_changes_nothing():
    plan = FuzzPlan(seed=0, insertions=((0, "ls2", 1),))
    fuzzed = apply_fuzz(word([]), plan)
    assert fuzzed
    assert upper_slopes(fuzzed) == upper_slopes(word([]))


def test_apply_fuzz_validates_positions_and_names():
    base = parse_word("m 1 l 1")
    with pytest.raises(DomainError):
        apply_fuzz(base, FuzzPlan(seed=0, insertions=((99, "ms2", 1),)))
    with pytest.raises(DomainError):
        apply_fuzz(base, FuzzPlan(seed=0, insertions=((-1, "ms2", 1),)))
    with pytest.raises(DomainError):
        apply_fuzz(base, FuzzPlan(seed=0, insertions=((0, "nope", 1),)))


def test_fuzz_plans_are_deterministic_per_seed():
    base = parse_word("m 3 s -2 l 3 s -4 m -1 s -4 l 3")
    for seed in range(20):
        first = random_fuzz_plan(seed, base, count=4)
        second = random_fuzz_plan(seed, base, count=4)
        assert first == second
        assert apply_fuzz(base, first) == apply_fuzz(base, second)
    assert random_fuzz_plan(1, base, count=3) != random_fuzz_plan(2, base, count=3)


def test_fuzzing_preserves_invariants_on_a_sample():
    base = parse_word("m 3 s -2 l 3 s -4 m -1 s -4 l 3")
    up, low, wind = upper_slopes(base), lower_slopes(base), winding_number(base)
    for seed in range(40):
        fuzzed = apply_fuzz(base, random_fuzz_plan(seed, base, count=3))
        assert upper_slopes(fuzzed) == up, seed
        assert lower_slopes(fuzzed) == low, seed
        assert winding_number(fuzzed) == wind, seed


def test_random_valid_slopes_is_deterministic_and_valid():
    for bound in (30, 31):
        for seed in range(60):
            first = random_valid_slopes(Random(seed), max_d=3, bound=bound)
            assert first == random_valid_slopes(Random(seed), max_d=3, bound=bound)
            assert first.first is not None
            assert first.first.q % 2 == 1 and first.first.q <= bound
            assert 0 < first.first.p < first.first.q
            assert math.gcd(first.first.p, first.first.q) == 1
            assert len(first.rest) <= 3
            for r in first.rest:
                assert r.numerator % 2 == 1
                assert abs(r.numerator) <= bound and 1 <= r.denominator <= bound
            # the sequence must actually drive the braid builder
            assert upper_slopes(braid_from_slopes(first)) == first


def test_random_subgroup_word_uses_only_named_generators():
    for seed in range(30):
        w = random_subgroup_word(seed, gens=("l", "s"), length=6)
        assert w == random_subgroup_word(seed, gens=("l", "s"), length=6)
        assert all(g in ("l", "s") for g, _ in w.letters)
        assert all(e != 0 for _, e in w.letters)  # canonical form drops zeros
        v = random_subgroup_word(seed, gens=("m", "s"), length=5)
        assert all(g in ("m", "s") for g, _ in v.letters)


def test_brute_force_search_pinned_values():
    assert (2, 3) in brute_force_cf_search(Fraction(7, 3), max_pairs=2, bound=9)
    assert (4, -2) in brute_force_cf_search(Fraction(7, 2), max_pairs=2, bound=9)
    assert (0, 1) in brute_force_cf_search(Fraction(1), max_pairs=1, bound=3)


def test_brute_force_solutions_all_evaluate_correctly_and_contain_greedy():
    import random

    rng = random.Random(4242)
    for _ in range(60):
        x = Fraction(2 * rng.randint(-8, 8) + 1, rng.randint(1, 6))
        greedy = expand_odd_numerator(x)
        pairs = len(greedy) // 2
        bound = max(abs(e) for e in greedy)
        solutions = brute_force_cf_search(x, max_pairs=pairs, bound=bound)
        assert greedy in solutions, x
        for cf in solutions:
            assert cf_eval(cf) == x, (x, cf)


def test_every_mutation_row_names_one_anchor_and_existing_tests():
    """The gate's rows, checked without running them: each old text occurs
    once in its file, and each node names a test function that exists."""
    defined: dict[str, set[str]] = {}
    for row in mutants.ROWS:
        assert mutants.anchor_count(row) == 1, row.name
        for node in row.nodes:
            path, function = node.split("[")[0].split("::")
            if path not in defined:
                tree = ast.parse((mutants.ROOT / path).read_text())
                defined[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert function in defined[path], (row.name, node)
