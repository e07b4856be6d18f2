"""The one-pass `segment` and `peephole` against the multi-pass code they replaced.

The oracles below spell the old algorithms out: `segment` by first rewriting
every dm^-k as (s dm s)^k and trimming again, and `peephole` by rescanning
the whole word from its start after each rewrite.  The production versions
must give the same letters on random, relator-fuzzed and deep words.
"""

from random import Random

from fuzzing import apply_fuzz, random_fuzz_plan, random_valid_slopes

from tunnel_slopes import DomainError, braid_from_slopes, reverse_word
from tunnel_slopes import slope_engine
from tunnel_slopes.braid import BraidWord, double_coset_trim, segment, word
from tunnel_slopes.slope_engine import peephole


def _expand_negative_m(letters):
    """Rewrite each dm^-k (k > 0) as (s dm s)^k so dm appears only positively."""
    rewritten = []
    for name, exponent in letters:
        if name == "m" and exponent < 0:
            k = -exponent
            rewritten.append(("s", 1))
            for _ in range(k - 1):
                rewritten.append(("m", 1))
                rewritten.append(("s", 2))
            rewritten.append(("m", 1))
            rewritten.append(("s", 1))
        else:
            rewritten.append((name, exponent))
    return word(rewritten)


def oracle_segment(w):
    """Segments of w read off the word with dm rewritten to positive exponents."""
    trimmed = double_coset_trim(w)
    if not trimmed:
        return None
    expanded = double_coset_trim(_expand_negative_m(trimmed.letters))
    assert expanded, "a nontrivial word stays nontrivial under rewriting"
    pieces = []
    for name, exponent in expanded.letters:
        if name == "m":
            assert exponent > 0
            for _ in range(exponent):
                pieces.append([])
        else:
            if not pieces:
                raise DomainError("word does not start with dm after trimming")
            pieces[-1].append((name, exponent))
    return [word([("s", -1)] + piece) for piece in reversed(pieces)]


def oracle_peephole(w):
    """Apply the leftmost rewrite s^a g^±1 s^b -> s^(a∓1) g^∓1 s^(b∓1) until none is left."""
    letters = list(w.letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 2):
            (n1, a), (g, e), (n2, b) = letters[i], letters[i + 1], letters[i + 2]
            if n1 != "s" or n2 != "s" or g == "s" or abs(e) != 1:
                continue
            if e == 1 and a >= 1 and b >= 1:
                patch = [("s", a - 1), (g, -1), ("s", b - 1)]
            elif e == -1 and a <= -1 and b <= -1:
                patch = [("s", a + 1), (g, 1), ("s", b + 1)]
            else:
                continue
            letters[i : i + 3] = patch
            letters = list(word(letters).letters)
            changed = True
            break
    return BraidWord(tuple(letters))


def _piece_letters(pieces):
    return None if pieces is None else [p.letters for p in pieces]


def _assert_same_as_oracles(w):
    assert _piece_letters(segment(w)) == _piece_letters(oracle_segment(w)), w
    assert peephole(w).letters == oracle_peephole(w).letters, w


def _random_word(rng):
    return word(
        (rng.choice("mls"), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
        for _ in range(rng.randint(0, 16))
    )


def test_random_words_match_oracles():
    rng = Random(20100630)
    for _ in range(6000):
        _assert_same_as_oracles(_random_word(rng))


def test_relator_fuzzed_words_match_oracles():
    rng = Random(5232)
    for seed in range(800):
        w = _random_word(rng)
        fuzzed = apply_fuzz(w, random_fuzz_plan(seed, w, count=rng.randint(1, 6)))
        _assert_same_as_oracles(fuzzed)
        _assert_same_as_oracles(reverse_word(fuzzed))


def _deep_sequences(count):
    seed = 0
    while count:
        seq = random_valid_slopes(seed, max_d=40)
        seed += 1
        if 30 <= len(seq.rest) <= 40:
            count -= 1
            yield seq


def test_deep_words_match_oracles(monkeypatch):
    rewritten = 0
    for seq in _deep_sequences(20):
        built = braid_from_slopes(seq)
        with monkeypatch.context() as patch:
            patch.setattr(slope_engine, "peephole", lambda w: w)
            spelled = braid_from_slopes(seq)
        rewritten += spelled != built
        assert oracle_peephole(spelled) == built
        for w in (spelled, built, reverse_word(spelled), reverse_word(built)):
            _assert_same_as_oracles(w)
    assert rewritten >= 10
