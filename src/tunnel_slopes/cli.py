"""Command-line interface for computing tunnel slope invariants.

Braid words are given as generator/exponent pairs ("m 3 s -2 l 3"), slope
sequences as flat numerator/denominator pair lists ("21 25 341 60 -13 1");
both may be quoted as a single argument or spread over several.  Brackets
and commas are ignored in slope sequences only; in a braid word they are
part of a token, so "[m 3, s -2]" does not parse.  Every subcommand accepts
--json for a machine-readable form of the same numbers.

`main` reads a command line by one grammar and writes its own help, usage
and error text from the rows of `_commands`:

- The first token names a command; -h or --help in its place prints the
  program help.
- After the name, -h or --help anywhere prints that command's help, and
  --json anywhere selects JSON output.
- Every other token is an argument: a braid word, a slope list, or exactly
  two integers.  No other token is an option: "--" and abbreviations such
  as "--js" are arguments like any other.

Exit status: 0 on success (help included), 1 for a value outside an
operation's domain, 2 for a line that does not parse: no command or an
unknown one, a malformed word or slope list, or the wrong number of integers.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

from .braid import BraidWord, _parse_int, _shown, format_word, parse_word, reverse_word
from .errors import DomainError, ParseError
from .knot_families import (
    Rejection,
    TwoBridgeReport,
    find_two_bridge,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    two_bridge_tunnels,
    upper_semisimple_word,
    lower_simple_word,
)
from .slope_engine import (
    SlopeSequence,
    braid_from_slopes,
    dual_slopes,
    format_slopes,
    lower_slopes,
    parse_slopes,
    upper_slopes,
)

__all__ = ["main", "TRIVIAL_TEXT", "SUCCESS_SENTENCE"]

TRIVIAL_TEXT = "trivial knot (empty slope sequence)"

SUCCESS_SENTENCE = (
    "The tunnel is the upper semisimple tunnel of K( {a}, {b} ), "
    "or equivalently the lower semisimple tunnel of K( {a}, {b2} )."
)

_TWO_BRIDGE_LABELS = (
    ("Upper simple tunnel:", "upper_simple"),
    ("Upper semisimple tunnel:", "upper_semisimple"),
    ("Lower simple tunnel:", "lower_simple"),
    ("Lower semisimple tunnel:", "lower_semisimple"),
)

# Argument kinds, each a tuple of (name, help text): a braid word or a slope
# list spread over any number of tokens, or two integer parameters.
_WORD = (("word", "braid word, e.g. 'm 3 s -2 l 3'"),)
_SLOPES = (("slopes", "numerator/denominator pairs, e.g. '21 25 341 60 -13 1'"),)
_A_B = (("a", "odd parameter a >= 3"), ("b", "parameter b with 0 < b < a, coprime to a"))
_P_Q = (("p", "coprime parameter with |p| >= 2"), ("q", "coprime parameter with |q| >= 2"))


def _commands() -> tuple:
    """The subcommands in help order: (name, argument kind, function, help).

    Built on each call, so a row holds whatever function this module's name
    is bound to at that moment; a wrapper installed on the module attribute
    (as the benchmark's tracer does) sees every command's call.
    """
    return (
        ("upperSlopes", _WORD, upper_slopes, "slopes of the upper tunnel"),
        ("lowerSlopes", _WORD, lower_slopes, "slopes of the lower tunnel"),
        ("braidWord", _SLOPES, braid_from_slopes, "braid word realizing the slopes"),
        ("dualSlopes", _SLOPES, dual_slopes, "slopes of the other tunnel"),
        ("twoBridge", _A_B, two_bridge_tunnels, "all four tunnels of K(a, b)"),
        ("upperSemisimpleBraidWord", _A_B, upper_semisimple_word,
         "braid word for the upper semisimple tunnel of K(a, b)"),
        ("lowerSimpleBraidWord", _A_B, lower_simple_word,
         "braid word for the lower simple tunnel of K(a, b)"),
        ("torusUpperSlopes", _P_Q, torus_upper_slopes, "upper tunnel slopes of the torus knot"),
        ("torusLowerSlopes", _P_Q, torus_lower_slopes, "lower tunnel slopes of the torus knot"),
        ("fullTorusBraidWord", _P_Q, torus_braid_word, "braid word for the torus knot"),
        ("find2BridgeKnot", _SLOPES, find_two_bridge,
         "identify the 2-bridge knot with these semisimple tunnel slopes"),
        ("reverseBraid", _WORD, reverse_word, "reverse the braid description"),
    )


def _slope_arrays(seq: SlopeSequence) -> dict:
    if not seq:
        return {"numerators": [], "denominators": []}
    return {
        "numerators": [seq.first.p] + [x.numerator for x in seq.rest],
        "denominators": [seq.first.q] + [x.denominator for x in seq.rest],
    }


def _render(result, json_mode: bool) -> str:
    """The whole output for a command's result, as text or one JSON object."""
    if isinstance(result, SlopeSequence):
        text = format_slopes(result) if result else TRIVIAL_TEXT
        payload = _slope_arrays(result)
    elif isinstance(result, BraidWord):
        text = format_word(result)
        payload = {"word": text}
    elif isinstance(result, TwoBridgeReport):
        text = "\n".join(
            f"{label:<25}{format_slopes(getattr(result, field))}"
            for label, field in _TWO_BRIDGE_LABELS
        )
        payload = {field: _slope_arrays(getattr(result, field)) for _, field in _TWO_BRIDGE_LABELS}
    elif isinstance(result, Rejection):
        text = result.message
        payload = {"matched": False, "condition": result.condition, "message": result.message}
    else:  # a find_two_bridge match (K(a, b), K(a, b'))
        knot, dual = result
        text = SUCCESS_SENTENCE.format(a=knot.a, b=knot.b, b2=dual.b)
        payload = {"matched": True, "a": knot.a, "b": knot.b, "dual_b": dual.b}
    if not json_mode:
        return text
    import json  # only --json output needs it; a plain run starts without it

    return json.dumps(payload)


def _program_help(rows) -> str:
    names = "".join(f"\n  {name:<26}{help_text}" for name, _, _, help_text in rows)
    return (
        "usage: tunnel-slopes [-h] <command> [--json] [arguments ...]\n\n"
        f"Slope invariants of (1,1)-knot tunnels from braid words.\n\ncommands:{names}\n\n"
        "Run 'tunnel-slopes <command> --help' for a command's arguments."
    )


def _command_help(row) -> str:
    name, kind, _, help_text = row
    usage = f"[{kind[0][0]} ...]" if kind in (_WORD, _SLOPES) else " ".join(p for p, _ in kind)
    params = "".join(f"\n  {param:<12}{param_help}" for param, param_help in kind)
    return (
        f"usage: tunnel-slopes {name} [-h] [--json] {usage}\n\n{help_text}\n\n"
        f"arguments:{params}\n\noptions:\n  -h, --help  show this help message and exit\n"
        "  --json      print the result as one JSON object"
    )


def _fail(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(text: str) -> int:
    """Print text on stdout and return 0, or 1 when the reader closed stdout early."""
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe fails here, inside the guard
    except BrokenPipeError:
        # the flush at interpreter exit would fail again, so point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default); return the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    rows = {row[0]: row for row in _commands()}
    if argv[:1] in (["-h"], ["--help"]):
        return _write(_program_help(rows.values()))
    if not argv or argv[0] not in rows:
        given = f"unknown command {_shown(argv[0])}" if argv else "no command given"
        return _fail(f"{given}; run 'tunnel-slopes --help' for the list", 2)
    name, kind, run, _ = rows[argv[0]]
    tokens = argv[1:]
    if "-h" in tokens or "--help" in tokens:
        return _write(_command_help(rows[name]))
    values = [token for token in tokens if token != "--json"]
    try:
        if kind is _WORD:
            inputs = (parse_word(" ".join(values)),)
        elif kind is _SLOPES:
            inputs = (parse_slopes(" ".join(values)),)
        elif len(values) != len(kind):
            params = " ".join(param for param, _ in kind)
            raise ParseError(f"{name} takes {len(kind)} integers ({params}), got {len(values)}")
        else:
            inputs = tuple(_parse_int(token, i, "integer") for i, token in enumerate(values, 1))
        result = run(*inputs)
    except ParseError as exc:
        return _fail(exc, 2)
    except DomainError as exc:
        return _fail(exc, 1)
    try:
        output = _render(result, "--json" in tokens)
    except ValueError:  # an integer over Python's limit on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        return _fail(f"the result has an integer too long to print (the limit is {limit} digits)", 1)
    return _write(output)


if __name__ == "__main__":
    raise SystemExit(main())
