"""Command-line interface for computing tunnel slope invariants.

Braid words are given as generator/exponent pairs ("m 3 s -2 l 3"), slope
sequences as flat numerator/denominator pair lists ("21 25 341 60 -13 1");
both may be quoted as a single argument or spread over several, with
brackets and commas ignored.  Every subcommand accepts --json for a
machine-readable form of the same numbers.

Exit status: 0 on success, 1 for a value outside an operation's domain,
2 for input that does not parse (argparse usage errors included).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .braid import BraidWord, format_word, parse_word, reverse_word
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


def _slope_arrays(seq: SlopeSequence) -> dict:
    if not seq:
        return {"numerators": [], "denominators": []}
    return {
        "numerators": [seq.first.p] + [x.numerator for x in seq.rest],
        "denominators": [seq.first.q] + [x.denominator for x in seq.rest],
    }


def _print_json(payload: dict) -> None:
    import json  # only --json output needs it; a plain run starts without it

    print(json.dumps(payload))


def _emit_slopes(seq: SlopeSequence, json_mode: bool) -> None:
    if json_mode:
        _print_json(_slope_arrays(seq))
    elif seq:
        print(format_slopes(seq))
    else:
        print(TRIVIAL_TEXT)


def _emit_word(w: BraidWord, json_mode: bool) -> None:
    if json_mode:
        _print_json({"word": format_word(w)})
    else:
        print(format_word(w))


def _emit_two_bridge(report: TwoBridgeReport, json_mode: bool) -> None:
    if json_mode:
        payload = {
            field: _slope_arrays(getattr(report, field))
            for _, field in _TWO_BRIDGE_LABELS
        }
        _print_json(payload)
        return
    for label, field in _TWO_BRIDGE_LABELS:
        print(f"{label:<25}{format_slopes(getattr(report, field))}")


def _cmd_upper_slopes(args: argparse.Namespace) -> None:
    _emit_slopes(upper_slopes(parse_word(" ".join(args.word))), args.json)


def _cmd_lower_slopes(args: argparse.Namespace) -> None:
    _emit_slopes(lower_slopes(parse_word(" ".join(args.word))), args.json)


def _cmd_braid_word(args: argparse.Namespace) -> None:
    _emit_word(braid_from_slopes(parse_slopes(" ".join(args.slopes))), args.json)


def _cmd_dual_slopes(args: argparse.Namespace) -> None:
    _emit_slopes(dual_slopes(parse_slopes(" ".join(args.slopes))), args.json)


def _cmd_two_bridge(args: argparse.Namespace) -> None:
    _emit_two_bridge(two_bridge_tunnels(args.a, args.b), args.json)


def _cmd_upper_semisimple_word(args: argparse.Namespace) -> None:
    _emit_word(upper_semisimple_word(args.a, args.b), args.json)


def _cmd_lower_simple_word(args: argparse.Namespace) -> None:
    _emit_word(lower_simple_word(args.a, args.b), args.json)


def _cmd_torus_upper(args: argparse.Namespace) -> None:
    _emit_slopes(torus_upper_slopes(args.p, args.q), args.json)


def _cmd_torus_lower(args: argparse.Namespace) -> None:
    _emit_slopes(torus_lower_slopes(args.p, args.q), args.json)


def _cmd_torus_word(args: argparse.Namespace) -> None:
    _emit_word(torus_braid_word(args.p, args.q), args.json)


def _cmd_find_two_bridge(args: argparse.Namespace) -> None:
    result = find_two_bridge(parse_slopes(" ".join(args.slopes)))
    if isinstance(result, Rejection):
        if args.json:
            _print_json(
                {
                    "matched": False,
                    "condition": result.condition,
                    "message": result.message,
                }
            )
        else:
            print(result.message)
        return
    knot, dual = result
    if args.json:
        _print_json({"matched": True, "a": knot.a, "b": knot.b, "dual_b": dual.b})
    else:
        print(SUCCESS_SENTENCE.format(a=knot.a, b=knot.b, b2=dual.b))


def _cmd_reverse_braid(args: argparse.Namespace) -> None:
    _emit_word(reverse_word(parse_word(" ".join(args.word))), args.json)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print the result as one JSON object"
    )
    parser = argparse.ArgumentParser(
        prog="tunnel-slopes",
        description="Slope invariants of (1,1)-knot tunnels from braid words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_command(name: str, run, help_text: str) -> None:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("word", nargs="*", help="braid word, e.g. 'm 3 s -2 l 3'")
        p.set_defaults(run=run)

    def slopes_command(name: str, run, help_text: str) -> None:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument(
            "slopes",
            nargs="*",
            help="numerator/denominator pairs, e.g. '21 25 341 60 -13 1'",
        )
        p.set_defaults(run=run)

    def two_bridge_command(name: str, run, help_text: str) -> None:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("a", type=int, help="odd parameter a >= 3")
        p.add_argument("b", type=int, help="parameter b with 0 < b < a, coprime to a")
        p.set_defaults(run=run)

    def torus_command(name: str, run, help_text: str) -> None:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("p", type=int, help="coprime parameter with |p| >= 2")
        p.add_argument("q", type=int, help="coprime parameter with |q| >= 2")
        p.set_defaults(run=run)

    word_command("upperSlopes", _cmd_upper_slopes, "slopes of the upper tunnel")
    word_command("lowerSlopes", _cmd_lower_slopes, "slopes of the lower tunnel")
    slopes_command("braidWord", _cmd_braid_word, "braid word realizing the slopes")
    slopes_command("dualSlopes", _cmd_dual_slopes, "slopes of the other tunnel")
    two_bridge_command("twoBridge", _cmd_two_bridge, "all four tunnels of K(a, b)")
    two_bridge_command(
        "upperSemisimpleBraidWord",
        _cmd_upper_semisimple_word,
        "braid word for the upper semisimple tunnel of K(a, b)",
    )
    two_bridge_command(
        "lowerSimpleBraidWord",
        _cmd_lower_simple_word,
        "braid word for the lower simple tunnel of K(a, b)",
    )
    torus_command(
        "torusUpperSlopes", _cmd_torus_upper, "upper tunnel slopes of the torus knot"
    )
    torus_command(
        "torusLowerSlopes", _cmd_torus_lower, "lower tunnel slopes of the torus knot"
    )
    torus_command(
        "fullTorusBraidWord", _cmd_torus_word, "braid word for the torus knot"
    )
    slopes_command(
        "find2BridgeKnot",
        _cmd_find_two_bridge,
        "identify the 2-bridge knot with these semisimple tunnel slopes",
    )
    word_command("reverseBraid", _cmd_reverse_braid, "reverse the braid description")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
