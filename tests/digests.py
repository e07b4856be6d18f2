"""Answer digests: one sha256 per seeded corpus, over the text of the answers.

Run from the repository root:

    PYTHONPATH=src python tests/digests.py          # compare with tests/digests.json
    PYTHONPATH=src python tests/digests.py --write  # record the digests there

Each corpus is a fixed, seeded list of inputs, and its digest hashes the text
forms of the library's answers on them, one line per answer, refusal texts
included.  The full corpora are checked by this script, and a tenth of each
(every tenth input, or a tenth as many draws) by
tests/test_digests.py in Tier-1; both sets are recorded.  A changed digest
means a changed answer or a changed corpus.  Only text is hashed, and the
draws use Random(int) with randint and choice, which give the same values on
every supported Python, so the digests do too.  pytest does not collect this
file: the name has no test_ prefix and it defines no test functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path
from random import Random

from fuzzing import apply_fuzz, random_fuzz_plan, random_valid_slopes, random_word
from tunnel_slopes import (
    BraidWord,
    DomainError,
    Rejection,
    SlopeSequence,
    braid_from_slopes,
    dual_slopes,
    find_two_bridge,
    format_slopes,
    format_word,
    is_toroidal,
    lower_simple_word,
    lower_slopes,
    reverse_word,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    two_bridge_tunnels,
    upper_semisimple_word,
    upper_slopes,
)
from tunnel_slopes.braid import SIZE_LIMIT, word

RECORD = Path(__file__).resolve().parent / "digests.json"
SIZES = {"full": 1, "tenth": 10}
WORDS = 12000
SEQUENCES = 5000


def _text(answer: object) -> str:
    if isinstance(answer, SlopeSequence):
        return format_slopes(answer)
    if isinstance(answer, BraidWord):
        return format_word(answer)
    if isinstance(answer, Rejection):
        return f"rejected {answer.condition}: {answer.message}"
    if isinstance(answer, tuple):
        return " ".join(f"K({k.a}, {k.b})" for k in answer)
    return str(answer)


def _answer(fn, *args) -> str:
    try:
        return _text(fn(*args))
    except DomainError as exc:
        return f"error: {exc}"


def words(divisor: int):
    """Both tunnels of random words, their reverses and relator-fuzzed copies."""
    rng = Random(2601)
    refused = word([("m", SIZE_LIMIT + 1), ("s", 1), ("l", 1)])
    for w in [refused, reverse_word(refused)]:
        yield _answer(upper_slopes, w)
    for seed in range(WORDS // divisor):
        w = random_word(rng)
        fuzzed = apply_fuzz(w, random_fuzz_plan(seed, w, count=rng.randint(1, 6)))
        for u in (w, reverse_word(w), fuzzed):
            yield f"{_text(u)} | {_answer(upper_slopes, u)} | {_answer(lower_slopes, u)}"


def sequences(divisor: int):
    """The word of a random sequence, its tunnels, the dual, and both recognizers."""
    rng = Random(2602)
    for _ in range(SEQUENCES // divisor):
        seq = random_valid_slopes(rng, max_d=8)
        w = braid_from_slopes(seq)
        answers = (
            _text(seq),
            _text(w),
            _answer(upper_slopes, w),
            _answer(lower_slopes, w),
            _answer(dual_slopes, seq),
            _answer(find_two_bridge, seq),
            _text(is_toroidal(seq)),
        )
        yield " | ".join(answers)


def two_bridge(divisor: int):
    """Every coprime pair with a <= 401: the four tunnels, the recognizer, the words."""
    yield _answer(two_bridge_tunnels, 1000000007, 1)
    pairs = [(a, b) for a in range(3, 402, 2) for b in range(1, a) if math.gcd(a, b) == 1]
    for a, b in pairs[::divisor]:
        report = two_bridge_tunnels(a, b)
        answers = (
            f"K({a}, {b})",
            _text(report.upper_simple),
            _text(report.upper_semisimple),
            _text(report.lower_simple),
            _text(report.lower_semisimple),
            _answer(find_two_bridge, report.upper_semisimple),
            _answer(find_two_bridge, report.lower_semisimple),
            _text(upper_semisimple_word(a, b)),
            _text(lower_simple_word(a, b)),
        )
        yield " | ".join(answers)


def torus(divisor: int):
    """Every torus knot with |p|, |q| <= 64: both tunnels, the word, the recognizer."""
    params = [n for n in range(-64, 65) if abs(n) >= 2]
    pairs = [(p, q) for p in params for q in params if math.gcd(p, q) == 1]
    for p, q in pairs[::divisor]:
        upper = torus_upper_slopes(p, q)
        answers = (
            f"T({p}, {q})",
            _text(upper),
            _text(torus_lower_slopes(p, q)),
            _text(torus_braid_word(p, q)),
            _text(is_toroidal(upper)),
        )
        yield " | ".join(answers)


CORPORA = {"words": words, "sequences": sequences, "two-bridge": two_bridge, "torus": torus}


def digest(name: str, divisor: int) -> str:
    """The sha256 of one corpus's answer lines, at a divisor of its full size."""
    h = hashlib.sha256()
    for line in CORPORA[name](divisor):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def recorded() -> dict[str, dict[str, str]]:
    return json.loads(RECORD.read_text())


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/digests.py [--write]", file=sys.stderr)
        return 2
    sizes = SIZES if argv else {"full": SIZES["full"]}
    found: dict[str, dict[str, str]] = {}
    for size, divisor in sizes.items():
        found[size] = {}
        for name in CORPORA:
            start = time.perf_counter()
            found[size][name] = digest(name, divisor)
            print(f"{size} {name} {found[size][name]}  [{time.perf_counter() - start:.1f} s]")
    if argv:
        RECORD.write_text(json.dumps(found, indent=2) + "\n")
        print(f"written to {RECORD.name}")
        return 0
    expected = recorded()["full"]
    changed = [name for name in CORPORA if found["full"][name] != expected.get(name)]
    for name in changed:
        print(f"CHANGED {name}: recorded {expected.get(name)}")
    print(f"{len(CORPORA) - len(changed)} of {len(CORPORA)} digests as recorded")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
