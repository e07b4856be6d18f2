"""Command-line interface for computing tunnel slope invariants.

Braid words are given as generator/exponent pairs ("m 3 s -2 l 3"), slope
sequences as flat numerator/denominator pair lists ("21 25 341 60 -13 1");
both may be quoted as a single argument or spread over several.  Brackets
and commas are ignored in slope sequences only; in a braid word they are
part of a token, so "[m 3, s -2]" does not parse.  Every subcommand accepts
--json for a machine-readable form of the same numbers.

A command line takes one of two routes to the same namespace.  A well-formed
line is read directly, without importing argparse: a known command, then
tokens that are each --json or plainly positional, with every --json before
or after the positionals, and exactly two integers for a command that takes
parameters.  Every other line, -h/--help included, goes to the argparse parser
of `build_parser`, which alone writes help, usage and error text.  From the
namespace on, both routes run the same code.

Exit status: 0 on success, 1 for a value outside an operation's domain,
2 for input that does not parse (argparse usage errors included).
"""

from __future__ import annotations

import sys
import types
from collections.abc import Sequence

from .braid import BraidWord, _too_long, format_word, parse_word, reverse_word
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

__all__ = ["main", "build_parser", "TRIVIAL_TEXT", "SUCCESS_SENTENCE"]

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

# Argument kinds: a braid word or a slope list spread over any number of
# tokens, or two integer parameters, each given as (name, help text).
_WORD = "word"
_SLOPES = "slopes"
_A_B = (("a", "odd parameter a >= 3"), ("b", "parameter b with 0 < b < a, coprime to a"))
_P_Q = (("p", "coprime parameter with |p| >= 2"), ("q", "coprime parameter with |q| >= 2"))

_TEXT_HELP = {
    _WORD: "braid word, e.g. 'm 3 s -2 l 3'",
    _SLOPES: "numerator/denominator pairs, e.g. '21 25 341 60 -13 1'",
}


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


def _integer(text: str) -> int:
    """The argparse type of integer parameters; an overlong one is not echoed whole."""
    try:
        return int(text)
    except ValueError:
        pass
    import argparse

    raise argparse.ArgumentTypeError(_too_long(text, "integer") or f"invalid int value: {text!r}")


def _quick_parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse would give for argv, or None to leave argv to argparse.

    Accepts only lines that argparse reads the same way.  Each token other
    than --json must be certainly positional: argparse takes a token that
    starts with "-" for an option unless a private pattern calls it a negative
    number, so the only such token accepted is that pattern's plainest case,
    "-" and ASCII digits.  A "*" argument gets one contiguous run of tokens, so
    --json may only lead or trail it.
    """
    if not argv:
        return None
    for name, kind, run, _ in _commands():
        if name == argv[0]:
            break
    else:
        return None
    tokens = argv[1:]
    start, stop = 0, len(tokens)
    while start < stop and tokens[start] == "--json":
        start += 1
    while stop > start and tokens[stop - 1] == "--json":
        stop -= 1
    values = tokens[start:stop]
    for token in values:
        if token.startswith("-") and not (token[1:].isascii() and token[1:].isdigit()):
            return None
    args = types.SimpleNamespace(command=name, run=run, kind=kind, json=len(values) < len(tokens))
    if kind in _TEXT_HELP:
        setattr(args, kind, values)
        return args
    if len(values) != len(kind):
        return None
    for (param, _), token in zip(kind, values):
        try:
            setattr(args, param, int(token))
        except ValueError:  # not an integer, or over the int-from-str limit
            return None
    return args


def _inputs(args) -> tuple:
    """The library function's arguments, parsed from either route's namespace."""
    if args.kind == _WORD:
        return (parse_word(" ".join(args.word)),)
    if args.kind == _SLOPES:
        return (parse_slopes(" ".join(args.slopes)),)
    return tuple(getattr(args, name) for name, _ in args.kind)


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


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help and malformed lines need it; see the module docstring

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print the result as one JSON object"
    )
    parser = argparse.ArgumentParser(
        prog="tunnel-slopes",
        description="Slope invariants of (1,1)-knot tunnels from braid words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind, run, help_text in _commands():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if kind in _TEXT_HELP:
            p.add_argument(kind, nargs="*", help=_TEXT_HELP[kind])
        else:
            for param, param_help in kind:
                p.add_argument(param, type=_integer, help=param_help)
        p.set_defaults(run=run, kind=kind)
    return parser


def _fail(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _quick_parse(argv) or build_parser().parse_args(argv)
    try:
        result = args.run(*_inputs(args))
    except ParseError as exc:
        return _fail(exc, 2)
    except DomainError as exc:
        return _fail(exc, 1)
    try:
        output = _render(result, args.json)
    except ValueError:  # an integer over Python's limit on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        return _fail(f"the result has an integer too long to print (the limit is {limit} digits)", 1)
    print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
