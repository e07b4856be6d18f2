"""The production code against the slower code it replaced.

The oracles below spell the old algorithms out: `segment` by first rewriting
every dm^-k as (s dm s)^k and trimming again; `peephole` by rescanning the
whole word from its start after each rewrite; `braid_from_slopes` by
prepending each block to the canonical word built so far, twisting it by
that word's winding, and shrinking the spelled word with the `peephole`
oracle; `expand_odd_numerator` by stepping in `Fraction` arithmetic;
`two_bridge_tunnels` by running the slope engine on the semisimple braid
words; and `upper_slopes` by its two-rule reduction loop, which eliminates
the first infinite slope with one helper and absorbs an integral first
slope with another, reading each slope off a word twisted by dl^-t.
`peephole` and `braid_from_slopes` share one shrinking pass, so neither
oracle runs it.  The oracle's spelled words, before any rewrite, are also
the deep words that the `segment` and `peephole` oracles read.  The
production versions must give the same letters, sequences or reports on
random, relator-fuzzed and deep inputs, and `two_bridge_tunnels` must
refuse the same parameters: the segment count it reads off the a-steps of
the even-odd expansions must be the dm total of the trimmed semisimple
braid words, and of their old left-to-right spelling before any merge.
`find_two_bridge` checks conditions iii and iv inside its inverse walk; its
oracle checks them in passes of their own, and the two must give the same
match or the same rejection on random sequences near the semisimple ones.
`cf_eval` multiplies integer matrices; its oracle evaluates right to left in
`Fraction` arithmetic with the formal rules for INFINITY as cases of their
own, and the recognizer's oracle uses it, so that it runs none of the code
under test.  The matrix product runs the convergent recurrence over chunks
and multiplies the chunk products in balanced rounds; its oracle runs the
recurrence over all the entries, and the two must give the same matrix on
either side of every chunk boundary.  `torus_braid_word` reads the
staircase of (|p|, |q|) for either sign; its oracle reads the staircase of
(|q|, p) for mixed signs and leaves `word` to merge its dm runs, and the two
must spell the same words.
`toroidal_braid_word` walks its chain's heights (n + 1)/2 the same way; its
oracle spells one block per chain entry, as the word was once spelled, and
the two must spell the same words on long chains of either sign.

The word layer once canonicalized every word it made: `reverse_word`,
`double_coset_trim` and each `segment` piece passed their letters through
`word` again.  Its oracles keep that code, and `oracle_word` merges by
another algorithm than `word`, a fold of the one-letter merge `_push`: it
sums the runs of one name in whole passes until a pass changes nothing.
`word` must give its letters and its errors; the production versions
reverse, slice and split canonical words as they are, and must give the
same letters too.  The product of two canonical words merges only its seam
letters; it must give `oracle_word`'s letters when the seam merges,
cancels in a cascade, or touches an empty word.  Every word-returning
public function must return a canonical word.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import groupby, product
from operator import itemgetter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coprime_pairs, matrix_cf_value
from fuzzing import apply_fuzz, random_fuzz_plan, random_valid_slopes, random_word

from tunnel_slopes import (
    DomainError,
    Rejection,
    SimpleSlope,
    SlopeSequence,
    TwoBridge,
    TwoBridgeReport,
    braid_from_slopes,
    find_two_bridge,
    lower_slopes,
    reverse_word,
    semisimple_slopes_closed_form,
    two_bridge_tunnels,
    upper_semisimple_word,
    upper_slopes,
)
from tunnel_slopes.braid import (
    GENERATORS,
    SIZE_LIMIT,
    BraidWord,
    double_coset_trim,
    parse_word,
    segment,
    subgroup_slope,
    winding_number,
    word,
)
from tunnel_slopes.exact_arith import (
    _CF_CHUNK,
    INFINITY,
    _cf_matrix,
    cf_eval,
    expand_odd_numerator,
)
from tunnel_slopes.knot_families import (
    REJECTION_I,
    REJECTION_II,
    REJECTION_III,
    REJECTION_IV,
    _check_torus,
    _semisimple_segments,
    lower_simple_word,
    staircase,
    toroidal_braid_word,
    torus_braid_word,
)
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


def test_random_words_match_oracles():
    rng = Random(20100630)
    for _ in range(6000):
        _assert_same_as_oracles(random_word(rng))


def test_relator_fuzzed_words_match_oracles():
    rng = Random(5232)
    for seed in range(800):
        w = random_word(rng)
        fuzzed = apply_fuzz(w, random_fuzz_plan(seed, w, count=rng.randint(1, 6)))
        _assert_same_as_oracles(fuzzed)
        _assert_same_as_oracles(reverse_word(fuzzed))


def _deep_sequences(count):
    seed = 0
    while count:
        seq = random_valid_slopes(Random(seed), max_d=40)
        seed += 1
        if 30 <= len(seq.rest) <= 40:
            count -= 1
            yield seq


def test_deep_words_match_oracles():
    rewritten = 0
    for seq in _deep_sequences(20):
        built = braid_from_slopes(seq)
        spelled = oracle_spelled_word(seq)
        rewritten += spelled != built
        assert oracle_peephole(spelled) == built
        for w in (spelled, built, reverse_word(spelled), reverse_word(built)):
            _assert_same_as_oracles(w)
    assert rewritten >= 10


def oracle_word(letters):
    """Merge in passes until a pass changes nothing.

    Each pass groups adjacent letters by name, sums each run and drops the
    runs that sum to zero, which may bring two runs of one name together
    for the next pass.
    """
    letters = list(letters)
    for name, _ in letters:
        if name not in GENERATORS:
            raise DomainError(f"unknown generator {name!r}")
    while True:
        merged = []
        for name, run in groupby(letters, key=itemgetter(0)):
            exponent = sum(e for _, e in run)
            if exponent:
                merged.append((name, exponent))
        if merged == letters:
            return BraidWord(tuple(merged))
        letters = merged


def oracle_reverse_word(w):
    """Reverse the letters, swap dm and dl, and canonicalize the result again."""
    swap = {"m": "l", "l": "m", "s": "s"}
    return oracle_word((swap[name], exponent) for name, exponent in reversed(w.letters))


def oracle_double_coset_trim(w):
    """Strip the <dl, s> prefix and the <dm, s> suffix, then canonicalize again."""
    letters = list(w.letters)
    start = 0
    while start < len(letters) and letters[start][0] in ("l", "s"):
        start += 1
    end = len(letters)
    while end > start and letters[end - 1][0] in ("m", "s"):
        end -= 1
    return oracle_word(letters[start:end])


def oracle_piecewise_segment(w):
    """Split the trimmed word at dm, then canonicalize s^-1 and each piece.

    The size check is left out: the words drawn here are far below it, and
    tests/test_braid.py pins segment's refusal.
    """
    trimmed = oracle_double_coset_trim(w)
    if not trimmed:
        return None
    pieces = []
    for name, exponent in trimmed.letters:
        if name != "m":
            pieces[-1].append((name, exponent))
        elif exponent > 0:
            pieces.extend([] for _ in range(exponent))
        else:
            if pieces:
                pieces[-1].append(("s", 1))
            pieces.extend([("s", 2)] for _ in range(-exponent - 1))
            pieces.append([("s", 1)])
    return [oracle_word([("s", -1)] + piece) for piece in reversed(pieces)]


_exponents = st.integers(-4, 4)  # zero included
_letter_lists = st.lists(st.tuples(st.sampled_from(GENERATORS), _exponents), max_size=16)


@st.composite
def _cancelling_letter_lists(draw):
    """Letters, then their inverse, between two more lists: the merges cascade."""
    inner = draw(_letter_lists)
    inverse = [(name, -exponent) for name, exponent in reversed(inner)]
    return draw(_letter_lists) + inner + inverse + draw(_letter_lists)


@st.composite
def _letter_lists_with_a_bad_name(draw):
    letters = draw(_letter_lists)
    position = draw(st.integers(0, len(letters)))
    bad = (draw(st.sampled_from(("x", "M", "dm", ""))), draw(_exponents))
    return letters[:position] + [bad] + letters[position:]


@st.composite
def _canonical_words(draw):
    """Words built letter by letter as canonical, with dm^+-k runs up to k = 6."""
    letters = []
    for _ in range(draw(st.integers(0, 14))):
        name = draw(st.sampled_from([n for n in GENERATORS if not letters or n != letters[-1][0]]))
        bound = 6 if name == "m" else 4
        letters.append((name, draw(st.integers(-bound, bound).filter(bool))))
    return BraidWord(tuple(letters))


def _assert_word_layer_matches_oracles(w):
    assert reverse_word(w).letters == oracle_reverse_word(w).letters, w
    assert double_coset_trim(w).letters == oracle_double_coset_trim(w).letters, w
    assert _piece_letters(segment(w)) == _piece_letters(oracle_piecewise_segment(w)), w


@settings(max_examples=300, derandomize=True)
@given(st.one_of(_letter_lists, _cancelling_letter_lists(), _letter_lists_with_a_bad_name()))
def test_word_layer_matches_oracles_on_letter_lists(letters):
    if any(name not in GENERATORS for name, _ in letters):
        with pytest.raises(DomainError) as production:
            word(letters)
        with pytest.raises(DomainError) as oracle:
            oracle_word(letters)
        assert str(production.value) == str(oracle.value)
        return
    w = word(letters)
    assert w.letters == oracle_word(letters).letters, letters
    _assert_word_layer_matches_oracles(w)


@settings(max_examples=300, derandomize=True)
@given(_canonical_words())
def test_word_layer_matches_oracles_on_canonical_words(w):
    assert word(w.letters) == w
    _assert_word_layer_matches_oracles(w)


def _assert_canonical(w):
    assert isinstance(w, BraidWord) and isinstance(w.letters, tuple), w
    for name, exponent in w.letters:
        assert name in GENERATORS and isinstance(exponent, int) and exponent, w
    assert all(x[0] != y[0] for x, y in zip(w.letters, w.letters[1:])), w


@st.composite
def _word_pairs(draw):
    """Two canonical words, often with a seam where merges happen.

    Besides two independent words: either word empty; a right word whose
    first letter merges with the left word's last without cancelling it; and
    a right word that starts with the inverse of any suffix of the left word,
    the whole word included, and may end there, so that cancellation
    cascades across the seam and may empty either word.
    """
    left, right = draw(_canonical_words()), draw(_canonical_words())
    shape = draw(st.sampled_from(("any", "empty", "merge", "cancel")))
    if shape == "empty":
        return draw(st.sampled_from(((BraidWord(), right), (left, BraidWord()))))
    if shape == "any" or not left:
        return left, right
    if shape == "merge":
        name, exponent = left.letters[-1]
        start = ((name, draw(st.integers(-6, 6).filter(lambda e: e and e != -exponent))),)
    else:
        cancelled = left.letters[-draw(st.integers(1, len(left.letters))) :]
        start = tuple((name, -exponent) for name, exponent in reversed(cancelled))
    rest = right.letters if shape == "merge" or draw(st.booleans()) else ()
    if rest and rest[0][0] == start[-1][0]:
        rest = rest[1:]  # the next letter has another name, so right stays canonical
    return left, BraidWord(start + rest)


@settings(max_examples=300, derandomize=True)
@given(_word_pairs())
def test_products_match_the_oracle_and_are_canonical(pair):
    a, b = pair
    product = a * b
    assert product.letters == oracle_word(a.letters + b.letters).letters, (a, b)
    _assert_canonical(product)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    letters=st.one_of(_letter_lists, _cancelling_letter_lists()),
    other=_letter_lists,
    seed=st.integers(0, 10**6),
    a_half=st.integers(1, 200),
    b=st.integers(1, 400),
    p=st.integers(2, 40),
    q=st.integers(-40, 40).filter(lambda q: abs(q) >= 2),
    n0=st.integers(1, 15),
    steps=st.lists(st.integers(0, 4), max_size=6),
    sign=st.sampled_from((1, -1)),
)
def test_every_word_returning_function_returns_canonical_words(
    letters, other, seed, a_half, b, p, q, n0, steps, sign
):
    w = word(letters)
    a = 2 * a_half + 1
    b = b % (a - 1) + 1
    while math.gcd(a, b) != 1:  # gcd(a, a - 1) = 1, so b stays below a
        b += 1
    while math.gcd(p, q) != 1:
        q += 1 if q > 0 else -1
    chain = [2 * n0 + 1]
    for step in steps:
        chain.append(chain[-1] + 2 * step)
    words = [
        w,
        parse_word(" ".join(f"{name} {exponent}" for name, exponent in letters)),
        reverse_word(w),
        double_coset_trim(w),
        w * word(other),
        peephole(w),
        braid_from_slopes(random_valid_slopes(Random(seed), max_d=8)),
        upper_semisimple_word(a, b),
        lower_simple_word(a, b),
        torus_braid_word(p, q),
        torus_braid_word(q, p),
        toroidal_braid_word([sign * n for n in chain]),
    ]
    for u in list(words):
        words.extend(segment(u) or ())
    for u in words:
        _assert_canonical(u)


_MS = word([("m", 1), ("s", 1)])


def _oracle_segment_slopes(omegas):
    """Slope of each segment, untwisted by the winding of the word right of it."""
    slopes = []
    suffix = BraidWord()
    for omega in omegas:
        twist = winding_number(suffix)
        slopes.append(subgroup_slope(omega * word([("l", -twist)])))
        suffix = _MS * omega * suffix
    return slopes


def _oracle_absorb_first(omegas):
    """Drop the rightmost segment, twisting its winding into the next one."""
    twist = winding_number(omegas[0])
    if len(omegas) == 1:
        return []
    rest = list(omegas[1:])
    rest[0] = rest[0] * word([("l", twist)])
    return rest


def _oracle_eliminate(omegas, i):
    """Remove segment i, whose untwisted slope is infinite."""
    omegas = list(omegas)
    d = len(omegas) - 1
    if i == d:
        return omegas[:-2]
    if i == 0:
        return _oracle_absorb_first(omegas)
    merged = omegas[i + 1] * word([("l", winding_number(omegas[i]))]) * omegas[i - 1]
    return omegas[: i - 1] + [merged] + omegas[i + 2 :]


def oracle_upper_slopes(w):
    """Eliminate the first infinite slope, else absorb an integral first slope.

    Two rules spelled by two helpers, each slope read off a twisted word.
    """
    omegas = segment(w)
    while omegas:
        slopes = _oracle_segment_slopes(omegas)
        infinite = next((i for i, s in enumerate(slopes) if s is INFINITY), None)
        if infinite is not None:
            omegas = _oracle_eliminate(omegas, infinite)
        elif abs(slopes[0].numerator) == 1:
            omegas = _oracle_absorb_first(omegas)
        else:
            s0 = slopes[0]
            first = SimpleSlope.from_fraction(Fraction(s0.denominator, s0.numerator))
            return SlopeSequence(first, tuple(slopes[1:]))
    return SlopeSequence()


def _assert_engine_matches_oracle(w):
    assert upper_slopes(w) == oracle_upper_slopes(w), w
    reverse = reverse_word(w)
    assert upper_slopes(reverse) == oracle_upper_slopes(reverse), w


def test_upper_slopes_matches_oracle_on_random_words():
    rng = Random(1802)
    for _ in range(10_000):
        _assert_engine_matches_oracle(random_word(rng))


def test_upper_slopes_matches_oracle_on_relator_fuzzed_words():
    rng = Random(1803)
    for seed in range(800):
        w = random_word(rng)
        plan = random_fuzz_plan(seed, w, count=rng.randint(1, 6))
        _assert_engine_matches_oracle(apply_fuzz(w, plan))


def test_lower_slopes_matches_oracle_on_deep_sequences():
    # small entries keep the reversed words within reach of the cubic loops
    rng = Random(1804)
    depths = set()
    for _ in range(100):
        w = braid_from_slopes(random_valid_slopes(rng, max_d=40, bound=9))
        lower = lower_slopes(w)
        depths.add(len(lower.rest) if lower else -1)
        assert lower == oracle_upper_slopes(reverse_word(w)), w
        assert upper_slopes(w) == oracle_upper_slopes(w), w
    assert max(depths) >= 40


def oracle_cf_eval(entries):
    """[n1, ..., nk] in Fraction arithmetic, right to left, with the formal
    rules 1/0 = INFINITY and x + 1/INFINITY = x as cases of their own."""
    if not entries:
        raise DomainError("cannot evaluate an empty continued fraction")
    value = INFINITY  # the innermost entry n has n + 1/INFINITY = n
    for n in reversed(entries):
        if value is INFINITY:
            value = Fraction(n)
        elif value == 0:
            value = INFINITY
        else:
            value = n + 1 / value
    return value


def _cf_entry_lists():
    """Every list over -3..3 up to length 5; lists of 20-30-digit entries up
    to length 200; and lists with runs of zeros, at the ends and inside."""
    for length in range(1, 6):
        yield from product(range(-3, 4), repeat=length)
    rng = Random(2424)
    for length in (1, 2, 3, 200, *(rng.randint(4, 199) for _ in range(12))):
        yield [rng.choice((-1, 1)) * rng.randrange(10**19, 10**30) for _ in range(length)]
    for i in range(2000):
        bound = 10**25 if i % 10 == 0 else 5
        entries = []
        for _ in range(rng.randint(1, 6)):
            entries += [rng.randint(-bound, bound) for _ in range(rng.randint(0, 4))]
            entries += [0] * rng.randint(1, 5)
        entries += [rng.randint(-bound, bound) for _ in range(rng.randint(0, 4))]
        yield entries


def test_cf_eval_matches_both_oracles():
    infinite = 0
    for entries in _cf_entry_lists():
        got = cf_eval(entries)
        for want in (oracle_cf_eval(entries), matrix_cf_value(entries)):
            if want is INFINITY:
                assert got is INFINITY, entries
            else:
                assert type(got) is Fraction and got == want, entries
                assert got.denominator > 0, entries
        infinite += got is INFINITY
    assert infinite >= 600, infinite


def oracle_cf_matrix(entries):
    """The product of the factors [[n, 1], [1, 0]] as (p, p0, q, q0), left to
    right by the convergent recurrence over all the entries at once."""
    p, p0, q, q0 = 1, 0, 0, 1
    for n in entries:
        p, p0 = n * p + p0, p
        q, q0 = n * q + q0, q
    return p, p0, q, q0


def test_cf_matrix_matches_the_recurrence_across_chunks():
    rng = Random(6464)
    lengths = (_CF_CHUNK - 1, _CF_CHUNK, _CF_CHUNK + 1, 2 * _CF_CHUNK + 1, 1000)
    lists = [[rng.randint(-99, 99) for _ in range(length)] for length in lengths]
    for entries in [*_cf_entry_lists(), *lists]:
        assert _cf_matrix(entries) == oracle_cf_matrix(entries), entries


def oracle_expand_odd_numerator(x):
    """Even-odd expansion by nearest-even and nearest-integer steps on Fractions."""
    x = Fraction(x)
    entries = []
    while True:
        a2 = 2 * math.ceil((x - 1) / 2)  # a tie at an odd integer takes the smaller even
        entries.append(a2)
        x = 1 / (x - a2)
        b = math.ceil(x - Fraction(1, 2))  # a tie at a half-integer takes the floor
        entries.append(b)
        remainder = x - b
        if not remainder:
            return tuple(entries)
        x = 1 / remainder


def oracle_spelled_word(seq):
    """Blocks prepended one by one, each twisted by the winding of the word so far."""
    if not seq:
        return BraidWord()
    result = BraidWord()
    for target in [Fraction(seq.first.q, seq.first.p), *seq.rest]:
        cf = oracle_expand_odd_numerator(target)
        letters = [("m", 1), ("s", 1)]
        for j in range(len(cf) - 2, -1, -2):
            letters.append(("s", cf[j + 1]))
            letters.append(("l", -(cf[j] // 2)))
        letters.append(("l", winding_number(result)))
        result = word(letters) * result
    return result


def oracle_braid_from_slopes(seq):
    """The spelled word shrunk by the rescanning peephole oracle."""
    return oracle_peephole(oracle_spelled_word(seq))


def _random_fraction(rng, bound):
    return Fraction(2 * rng.randint(-bound // 2, bound // 2) + 1, rng.randint(1, bound))


def test_expansion_matches_oracle_on_ties_and_random_fractions():
    for n in range(-499, 502, 2):  # every odd integer is a tie at the a-step
        assert expand_odd_numerator(n) == oracle_expand_odd_numerator(n), n
    rng = Random(1729)
    for i in range(100_000):
        x = _random_fraction(rng, 10**30 if i % 100 == 0 else 99)
        assert expand_odd_numerator(x) == oracle_expand_odd_numerator(x), x


def test_braid_from_slopes_matches_oracle_on_random_sequences():
    rng = Random(2010)
    for i in range(600):
        seq = random_valid_slopes(rng, max_d=40, bound=10**30 if i % 5 == 0 else 999)
        assert braid_from_slopes(seq).letters == oracle_braid_from_slopes(seq).letters, seq


def test_braid_from_slopes_matches_oracle_on_lower_sequences():
    # small entries keep the reversed words within reach of the engine
    rng = Random(1004)
    depths = set()
    for _ in range(100):
        lower = lower_slopes(braid_from_slopes(random_valid_slopes(rng, max_d=40, bound=9)))
        depths.add(len(lower.rest) if lower else -1)
        assert braid_from_slopes(lower).letters == oracle_braid_from_slopes(lower).letters, lower
    assert max(depths) >= 40


def test_braid_from_slopes_matches_oracle_on_deep_sequences():
    # the oracle rereads the whole word built so far for each block's twist,
    # quadratic in the depth, so a few deep draws keep its cost near a second
    rng = Random(3003)
    for i in range(16):
        bound = 10**30 if i % 4 == 0 else 999
        seq = SlopeSequence()
        while len(seq.rest) < 200:  # depth 200-300
            seq = random_valid_slopes(rng, max_d=300, bound=bound)
        assert braid_from_slopes(seq).letters == oracle_braid_from_slopes(seq).letters, seq


def test_the_unshrunk_spelled_word_has_the_same_slopes_both_ways():
    # the shrink changes neither tunnel: the spelled blocks alone realize the
    # upper sequence and give braid_from_slopes' lower one
    rng = Random(1212)
    for _ in range(300):
        seq = random_valid_slopes(rng, max_d=12)
        spelled = oracle_spelled_word(seq)
        assert upper_slopes(spelled) == seq, seq
        assert lower_slopes(spelled) == lower_slopes(braid_from_slopes(seq)), seq


def oracle_two_bridge_tunnels(a, b, engine=upper_slopes):
    """All four tunnels of K(a, b), the semisimple ones read by the slope engine.

    The engine refuses a word in its first step, `segment`, when the word
    splits into more than SIZE_LIMIT segments; passing `segment` as the
    engine keeps that refusal and skips the reduction.
    """
    dual = TwoBridge(a, b).dual_b
    return TwoBridgeReport(
        upper_simple=SlopeSequence(SimpleSlope(dual, a)),
        upper_semisimple=engine(upper_semisimple_word(a, b)),
        lower_simple=SlopeSequence(SimpleSlope(b, a)),
        lower_semisimple=engine(upper_semisimple_word(a, dual)),
    )


def _segment_count(a, b):
    return sum(abs(k) for name, k in upper_semisimple_word(a, b).letters if name == "m")


def test_two_bridge_tunnels_match_engine_oracle_on_catalog_tables():
    # the benchmark catalog's tables; acceptance criterion 07 covers every
    # a below 200 for the closed form alone
    checked = 0
    for a, b in coprime_pairs([201, 401, 801, 1201]):
        assert two_bridge_tunnels(a, b) == oracle_two_bridge_tunnels(a, b), (a, b)
        checked += 1
    assert checked == 2260


def test_two_bridge_tunnels_match_engine_oracle_on_large_parameters():
    rng = Random(1201)
    checked = 0
    while checked < 200:
        digits = rng.randint(20, 30)
        a = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        b = rng.randrange(1, a)
        if math.gcd(a, b) != 1:
            continue
        # deep words cost the engine quadratic time; random b keeps most shallow
        if max(_segment_count(a, b), _segment_count(a, pow(b, -1, a))) > 300:
            continue
        assert two_bridge_tunnels(a, b) == oracle_two_bridge_tunnels(a, b), (a, b)
        checked += 1


def _refusal(tunnels, a, b):
    try:
        tunnels(a, b)
    except DomainError as exc:
        return str(exc)
    return None


# (a, b): segments of the semisimple words for b and b', slopes of the closed forms
_NEAR_LIMIT = [
    (4 * SIZE_LIMIT + 1, 2),  # 65536 and 1 segments, 65536 and 1 slopes
    (4 * SIZE_LIMIT + 3, 2),  # 65537 and 1, 65537 and 1
    (393215, 3),  # 65536 and 65536, 65536 and 65536
    (393217, 3),  # 65536 and 65537, 65536 and 65537
    (524269, 4),  # 65536 and 2, 65535 and 2
    (524277, 4),  # 65537 and 2, 65536 and 2
]


def test_two_bridge_tunnels_refuse_as_the_engine_does_near_the_size_limit():
    refusing_oracle = partial(oracle_two_bridge_tunnels, engine=segment)
    outcomes = []
    for a, b in _NEAR_LIMIT:
        for x in (b, pow(b, -1, a)):
            refusal = _refusal(two_bridge_tunnels, a, x)
            assert refusal == _refusal(refusing_oracle, a, x), (a, x)
            outcomes.append(refusal)
    assert set(outcomes) == {None, f"the word has more than {SIZE_LIMIT} segments (the size limit)"}
    # the word's count, not the closed form's depth, decides the refusal
    assert _segment_count(524277, 4) == SIZE_LIMIT + 1
    assert len(semisimple_slopes_closed_form(524277, 4).rest) + 1 == SIZE_LIMIT


def _trimmed_dm_total(a, b):
    trimmed = double_coset_trim(upper_semisimple_word(a, b))
    return sum(abs(k) for name, k in trimmed.letters if name == "m")


def oracle_even_odd_letters(cf):
    """The 2-bridge spelling dm^-a1 s^b1 ... dm^-an s^bn, left to right."""
    return [("s", x) if j % 2 else ("m", -(x // 2)) for j, x in enumerate(cf)]


def _spelled_dm_total(a, b):
    spelled = oracle_even_odd_letters(expand_odd_numerator(Fraction(a, b)))
    return sum(abs(k) for name, k in spelled if name == "m")


def test_semisimple_segment_count_is_the_trimmed_words_dm_total():
    # b' runs over the same residues as b, so one pass over the coprime pairs
    # checks the count for c = b and for c = b' alike
    for a, c in coprime_pairs(range(3, 402, 2)):
        count = _semisimple_segments(a, c)
        assert count == _trimmed_dm_total(a, c) == _spelled_dm_total(a, c), (a, c)
    for a, b in [*_NEAR_LIMIT, (131073, 1)]:
        for c in (b, pow(b, -1, a)):
            count = _semisimple_segments(a, c)
            assert count == _trimmed_dm_total(a, c) == _spelled_dm_total(a, c), (a, c)
    # K(262145, 2) and K(131073, 1) are accepted at the limit, K(524277, 4) is refused
    assert _semisimple_segments(4 * SIZE_LIMIT + 1, 2) == SIZE_LIMIT
    assert _semisimple_segments(131073, 1) == SIZE_LIMIT
    assert _semisimple_segments(524277, 4) == SIZE_LIMIT + 1


def oracle_find_two_bridge(seq):
    """The recognizer with conditions iii and iv checked in passes of their own.

    It collects each later slope's sign and k in two lists, checks the first
    sign against the parity of n0 (iii) and each sign change against the k
    before it (iv), and only then rebuilds the all-even expansion.  It reads
    n0 off the class [p/q] by p == (q +- 1) // 2 and seeds the walk's unit
    from n0's parity, where find_two_bridge reads m0 as the slope 2 + 1/n0
    and walks from a unit of -1, so the two share no first-slope code.
    """
    if not seq:
        return Rejection("i", REJECTION_I)
    p, q = seq.first.p, seq.first.q
    if p == (q - 1) // 2:
        n0 = p
    elif p == (q + 1) // 2:
        n0 = -p
    else:
        return Rejection("i", REJECTION_I)
    signs = []
    ks = []
    for x in seq.rest:
        num, den = x.numerator, x.denominator
        if abs(num - 2 * den) == 1:
            signs.append(1)
            ks.append(den * (num - 2 * den))
        elif abs(num + 2 * den) == 1:
            signs.append(-1)
            ks.append(den * (num + 2 * den))
        else:
            return Rejection("ii", REJECTION_II)
    if signs and (signs[0] > 0) != (n0 % 2 != 0):
        return Rejection("iii", REJECTION_III)
    for i in range(1, len(signs)):
        if (signs[i] == signs[i - 1]) != (ks[i - 1] % 2 != 0):
            return Rejection("iv", REJECTION_IV)
    unit = -1 if n0 % 2 != 0 else 1
    entries = [n0 - (unit - 1) // 2, 2 * unit]
    for k in ks:
        prev = unit
        if k % 2 == 0:
            unit = -unit
        entries += (k - (unit + prev) // 2, 2 * unit)
    entries.reverse()
    x = oracle_cf_eval(entries)
    assert isinstance(x, Fraction)
    a = abs(x.numerator)
    bhat = x.denominator if x.numerator > 0 else -x.denominator
    knot = TwoBridge(a, bhat % a)
    return (knot, TwoBridge(a, knot.dual_b))


def _recognizer_draw(rng):
    """A random sequence near the 2-bridge semisimple ones.

    The first slope is [n0/(2n0 + 1)] with n0 not in {-1, 0}, or on about one
    draw in five any class; one draw in 50 is empty.  Each later slope is
    2 sign + 1/k, its sign as conditions iii and iv want it but flipped about
    one time in 8, or about one time in 25 any fraction with odd numerator.
    About one k in 40 has 20-30 digits.
    """
    if rng.random() < 0.02:
        return SlopeSequence()
    n0 = rng.choice([n for n in range(-30, 31) if n not in (-1, 0)])
    if rng.random() < 0.2:
        q = 2 * rng.randint(1, 30) + 1
        first = SimpleSlope.from_fraction(Fraction(rng.randrange(1, q), q))
    else:
        first = SimpleSlope.from_fraction(Fraction(n0, 2 * n0 + 1))
    sign = 1 if n0 % 2 != 0 else -1
    rest = []
    k = 1  # the k before the first later slope: odd, so iii sets its sign
    for _ in range(rng.randint(0, 8)):
        if k % 2 == 0:
            sign = -sign
        k = rng.choice([n for n in range(-20, 21) if n])
        if rng.random() < 0.025:
            k *= rng.randrange(10**19, 10**30)
        roll = rng.random()
        if roll < 0.04:
            rest.append(_random_fraction(rng, 99))
        else:
            rest.append(2 * (-sign if roll < 0.16 else sign) + Fraction(1, k))
    return SlopeSequence(first, tuple(rest))


def test_find_two_bridge_matches_oracle_on_random_sequences():
    rng = Random(1006)
    outcomes = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "match": 0}
    for _ in range(20_000):
        seq = _recognizer_draw(rng)
        result = find_two_bridge(seq)
        assert result == oracle_find_two_bridge(seq), seq
        outcomes[result.condition if isinstance(result, Rejection) else "match"] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def oracle_torus_braid_word(p, q):
    """The torus word with mixed signs read off the other staircase.

    For q < 0 it reads the staircase of (|q|, p) from its last step down,
    each step spelled as one dl and a dm run of its rise, and leaves `word`
    to merge the runs.
    """
    _check_torus(p, q)
    if p < 0:
        p, q = -p, -q
    heights = staircase(p, q) if q > 0 else staircase(-q, p)
    letters = []
    for k in range(len(heights) - 2, -1, -1):
        rise = heights[k + 1] - heights[k]
        letters += (("l", -rise), ("m", 1)) if q > 0 else (("l", 1), ("m", rise))
    return word(letters)


def _torus_pairs():
    """Every coprime (p, q) with 2 <= |p|, |q| <= 64 in all four sign patterns;
    pairs at the size limit; and seeded pairs up to 65,536 whose magnitudes
    are log-uniform, so that most are small."""
    for p, q in product(range(2, 65), repeat=2):
        if math.gcd(p, q) == 1:
            yield from ((p, q), (-p, q), (p, -q), (-p, -q))
    yield from ((65536, 65535), (-65536, 65535), (65535, -2), (2, -65535), (-65535, 2))
    rng = Random(65536)
    for _ in range(24):
        p, q = (rng.choice((1, -1)) * rng.randint(2, 2 ** rng.randint(2, 16)) for _ in "pq")
        if math.gcd(p, q) == 1:
            yield p, q


def test_torus_braid_word_matches_oracle():
    checked = 0
    for p, q in _torus_pairs():
        assert torus_braid_word(p, q).letters == oracle_torus_braid_word(p, q).letters, (p, q)
        checked += 1
    assert checked == 9585, checked


def oracle_toroidal_braid_word(odds):
    """The toroidal word spelled block by block, from the last entry down.

    With m_j = -(n_j + 1)/2, entry j > 0 gives dm dl^(m_j - m_(j-1)) and the
    leading entry gives dm dl^m_0 last.
    """
    ms = [-(n + 1) // 2 for n in odds]
    letters = []
    for j in range(len(ms) - 1, 0, -1):
        letters.append(("m", 1))
        letters.append(("l", ms[j] - ms[j - 1]))
    letters.append(("m", 1))
    letters.append(("l", ms[0]))
    return word(letters)


def _toroidal_chains():
    """2,500 seeded chains of either sign: a third lead with 3, the rest with
    odd entries up to about two million; steps of 0, 2 or up to 100; up to
    257 entries."""
    rng = Random(2605)
    for _ in range(2500):
        chain = [3 if rng.randint(0, 2) == 0 else 2 * rng.randint(2, 2 ** rng.randint(2, 20)) + 1]
        for _ in range(rng.randint(0, 2 ** rng.randint(0, 8))):
            chain.append(chain[-1] + 2 * rng.choice((0, 0, 1, rng.randint(0, 50))))
        sign = rng.choice((1, -1))
        yield [sign * n for n in chain]


def test_toroidal_braid_word_matches_oracle():
    seen = {"leading 3": 0, "negative": 0, "repeated": 0, "jump over 50": 0, "over 100 long": 0}
    for odds in _toroidal_chains():
        assert toroidal_braid_word(odds).letters == oracle_toroidal_braid_word(odds).letters, odds
        steps = [abs(b - a) for a, b in zip(odds, odds[1:])]
        seen["leading 3"] += abs(odds[0]) == 3
        seen["negative"] += odds[0] < 0
        seen["repeated"] += 0 in steps
        seen["jump over 50"] += max(steps, default=0) > 50
        seen["over 100 long"] += len(odds) > 100
    assert min(seen.values()) >= 200, seen
