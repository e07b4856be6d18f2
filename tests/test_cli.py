"""Command-line interface: golden transcripts, JSON mode, exit codes."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import cap_address_space, readme_transcripts, run_capped, run_cli
from tunnel_slopes import SimpleSlope, SlopeSequence, format_slopes
from tunnel_slopes import cli

MAIN_WORD = ["m", "3", "s", "-2", "l", "3", "s", "-4", "m", "-1", "s", "-4", "l", "3"]


README_TRANSCRIPTS = readme_transcripts()


def test_the_readme_shows_twelve_transcripts():
    assert len(README_TRANSCRIPTS) == 12


@pytest.mark.parametrize(
    "argv, stdout", README_TRANSCRIPTS, ids=[" ".join(argv) for argv, _ in README_TRANSCRIPTS]
)
def test_readme_transcript(argv, stdout):
    assert run_cli(argv) == (0, stdout, "")


def test_json_reverse_braid():
    code, out, _ = run_cli(["reverseBraid", "--json", "m", "1", "s", "4", "l", "-1"])
    assert code == 0
    assert json.loads(out) == {"word": "m -1 s 4 l 1"}


def test_json_two_bridge_and_recognizer():
    code, out, _ = run_cli(["twoBridge", "--json", "413", "227"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "upper_simple",
        "upper_semisimple",
        "lower_simple",
        "lower_semisimple",
    }
    assert payload["upper_semisimple"] == {
        "numerators": [1, 15, 9],
        "denominators": [3, 7, 5],
    }
    code, out, _ = run_cli(["find2BridgeKnot", "--json", "2", "7", "3", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] is False and payload["condition"] == "i"


def test_json_arrays_rebuild_the_text_output():
    code, text_out, _ = run_cli(["lowerSlopes", *MAIN_WORD])
    assert code == 0
    code, json_out, _ = run_cli(["lowerSlopes", "--json", *MAIN_WORD])
    assert code == 0
    payload = json.loads(json_out)
    nums, dens = payload["numerators"], payload["denominators"]
    seq = SlopeSequence(
        SimpleSlope(nums[0], dens[0]),
        tuple(Fraction(n, d) for n, d in zip(nums[1:], dens[1:])),
    )
    assert format_slopes(seq) == text_out.strip()


def test_domain_error_exits_one():
    limit = sys.get_int_max_str_digits()
    # parameters under the int-to-str limit (2580 nines at the default 4300)
    # whose products in the result are over it
    nines = "9" * (limit * 3 // 5)
    overlong = ["upperSlopes", "m", "1", "s", nines, "l", nines, "s", "3", "l", nines, "s", nines]
    too_long = f"the result has an integer too long to print (the limit is {limit} digits)"
    for argv, message in [
        (["twoBridge", "4", "1"], "a must be odd and at least 3"),
        (overlong, too_long),
        (overlong + ["--json"], too_long),
    ]:
        code, out, err = run_cli(argv)
        assert code == 1, argv[:3]
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


_SEGMENTS_OVER = "the word has more than 65536 segments (the size limit)"
_TORUS_OVER = "torus parameters need |p| and |q| at most 65536 (the size limit)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twoBridge", "7" * 300, "2"], _SEGMENTS_OVER),
        # the smallest b = 2 case over the limit: dm^-65537 s^-2 dl^-1
        (["twoBridge", str(4 * 65536 + 3), "2"], _SEGMENTS_OVER),
        # 65,536 closed-form slopes, but a word of 65,537 segments
        (["twoBridge", "524277", "4"], _SEGMENTS_OVER),
        (["twoBridge", "1000000007", "1"], _SEGMENTS_OVER),
        (["upperSlopes", "m", "-" + "9" * 50, "s", "1", "l", "1"], _SEGMENTS_OVER),
        (["torusUpperSlopes", "3", "1000000001"], _TORUS_OVER),
        (["fullTorusBraidWord", "3", "1000000001"], _TORUS_OVER),
    ],
    ids=[
        "twoBridge",
        "twoBridgeAtLimit",
        "twoBridgeSlopesAtLimit",
        "twoBridgeFarOver",
        "upperSlopes",
        "torusUpperSlopes",
        "fullTorusBraidWord",
    ],
)
def test_input_over_the_size_limit_exits_one(argv, message):
    proc = run_capped(["-m", "tunnel_slopes", *argv])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message}\n"


def test_torus_lower_slopes_refusal_names_p_and_q_in_the_order_given():
    assert run_cli(["torusLowerSlopes", "4", "6"]) == (1, "", "error: 4 and 6 are not coprime\n")


def test_two_bridge_at_the_size_limit_runs_at_once():
    # the upper semisimple word dm^-65536 s^2 dl^-1 has exactly 65536 segments
    proc = run_capped(["-m", "tunnel_slopes", "twoBridge", str(4 * 65536 + 1), "2"])
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    label, slopes = lines[1][:25], lines[1][25:].split(", ")
    assert (label, slopes[0]) == ("Upper semisimple tunnel: ", "[ 2/5 ]")
    assert slopes[1:] == ["-1"] * 65535


# Accepted input at the limit of the commands that run no reduction loop:
# (argv, the start of stdout).  K(262145, 2) is K(4 * 65536 + 1, 2), whose
# upper semisimple word has exactly 65536 segments.
_AT_THE_LIMIT = [
    (
        ["braidWord", "1", "3", *["7", "5"] * 59999],
        "m 1 s 2 l -1 s -2 l 1 m 1 s 2 l -1 s -2 l 1 m 1 ",
    ),
    (
        ["find2BridgeKnot", "2", "5", *["-1", "1"] * 65535],
        "The tunnel is the upper semisimple tunnel of K( 262145, 2 ), "
        "or equivalently the lower semisimple tunnel of K( 262145, 131073 ).\n",
    ),
    (["torusUpperSlopes", "65536", "65535"], "[ 1/3 ], 5, 7, 9, 11, "),
    (["torusLowerSlopes", "65536", "65535"], "[ 1/3 ], 5, 7, 9, 11, "),
    (["fullTorusBraidWord", "65536", "65535"], "l -1 m 1 l -1 m 1 "),
    (["fullTorusBraidWord", "-65536", "65535"], "l 2 m 1 l 1 m 1 "),
    (["upperSemisimpleBraidWord", "262145", "2"], "m -65536 s 2 l -1\n"),
    (["lowerSimpleBraidWord", "262145", "2"], "m -1 s 2 l -65536\n"),
]


@pytest.mark.parametrize(
    "argv, start",
    _AT_THE_LIMIT,
    ids=[
        "braidWord",
        "find2BridgeKnot",
        "torusUpperSlopes",
        "torusLowerSlopes",
        "fullTorusBraidWord",
        "fullTorusBraidWordNegative",
        "upperSemisimpleBraidWord",
        "lowerSimpleBraidWord",
    ],
)
def test_input_at_the_limit_runs_at_once(argv, start):
    proc = run_capped(["-m", "tunnel_slopes", *argv])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(start)


# Lines the reduction loop and the recognizer must get through at once:
# (argv, exit status, stdout, stderr).  m -4000 s 1 l 1 splits into 4000
# segments whose slopes are all integral, and lowerSlopes reads the same word
# from its reverse.  The long-exponent line is one segment of 4290-digit
# exponents whose column grows to about 430,000 digits; its slopes are read
# with no gcd.  The recognizer's lines have 16,384 and 65,536 slopes
# 2 + 1/20, -2 + 1/20, ..., and their a has 26,245 and 104,973 digits, too
# many to print; the longer is the line CI runs through the console script.
_DIGITS_4290 = "7" * 4290
_TOO_LONG_TO_PRINT = (
    "error: the result has an integer too long to print (the limit is 4300 digits)\n"
)
_ENGINE_AT_SCALE = [
    (["upperSlopes", "m", "-4000", "s", "1", "l", "1"], 0, cli.TRIVIAL_TEXT + "\n", ""),
    (["lowerSlopes", "m", "1", "s", "1", "l", "-4000"], 0, cli.TRIVIAL_TEXT + "\n", ""),
    (
        ["upperSlopes", "m", "-1", *["s", _DIGITS_4290, "l", _DIGITS_4290] * 50, "s", "1"],
        1,
        "",
        _TOO_LONG_TO_PRINT,
    ),
    (["find2BridgeKnot", "1", "3", *["41", "20", "-39", "20"] * 8192], 1, "", _TOO_LONG_TO_PRINT),
    (["find2BridgeKnot", "1", "3", *["41", "20", "-39", "20"] * 32768], 1, "", _TOO_LONG_TO_PRINT),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    _ENGINE_AT_SCALE,
    ids=[
        "upperSlopesIntegral",
        "lowerSlopesIntegral",
        "upperSlopesLongExponents",
        "find2BridgeKnotTooLongToPrint",
        "find2BridgeKnotTooLongToPrintAt65536Slopes",
    ],
)
def test_reduction_at_scale_runs_at_once(argv, code, out, err):
    proc = run_capped(["-m", "tunnel_slopes", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_a_reader_that_closes_stdout_early_gets_a_quiet_exit():
    # the word runs to about 1.3 MB, far more than a pipe holds, so the
    # child is still writing when its reader goes
    argv, start = _AT_THE_LIMIT[0]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tunnel_slopes", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=cap_address_space,
    )
    assert proc.stdout.read(10) == start[:10].encode()
    proc.stdout.close()
    _, err = proc.communicate(timeout=20)
    # no traceback, and no "Exception ignored" line from the flush at exit
    assert (proc.returncode, err) == (1, b"")


def test_parse_error_exits_two():
    code, out, err = run_cli(["upperSlopes", "m", "1", "s"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_brackets_and_commas_do_not_parse_in_a_braid_word():
    # slope lists ignore them; braid words take them as part of a token
    code, out, err = run_cli(["upperSlopes", "[m 3, s -2, l 3]"])
    assert (code, out) == (2, "")
    assert err == "error: token 1: expected one of m, l, s, got '[m'\n"
    code, out, err = run_cli(["braidWord", "[21 25, 341 60]"])
    assert (code, err) == (0, "")
    assert out == "m 1 s -2 l 3 s -3 m 1 s -3 l 2 s -1 l -1\n"


def test_unknown_command_exits_two():
    code, out, err = run_cli(["noSuchCommand"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# Every refusal that quotes a token, given a token of 100,000 characters or
# of one digit over int()'s limit, with or without "_" between the digits:
# (argv, message).  A message shows a token's first 20 characters, and only
# digits that int() would read are "too long".
_LONG, _SHOWN = "a" * 100_000, f"{'a' * 20!r}..."
_LIMIT = sys.get_int_max_str_digits()
_TOO_LONG = f"too long ({_LIMIT + 1} digits, the limit is {_LIMIT}), got"
_REFUSED_TOKENS = {
    "unknownCommand": (
        [_LONG],
        f"unknown command {_SHOWN}; run 'tunnel-slopes --help' for the list",
    ),
    "unknownGenerator": (
        ["upperSlopes", _LONG, "1"],
        f"token 1: expected one of m, l, s, got {_SHOWN}",
    ),
    "noExponent": (
        ["upperSlopes", "m", "1", _LONG],
        f"token 3: generator {_SHOWN} has no exponent",
    ),
    "noDenominator": (["dualSlopes", _LONG], f"token 1: numerator {_SHOWN} has no denominator"),
    "notAnInteger": (["twoBridge", _LONG, "2"], f"token 1: expected an integer, got {_SHOWN}"),
    "integerTooLong": (
        ["twoBridge", "7" * (_LIMIT + 1), "2"],
        f"token 1: integer {_TOO_LONG} {'7' * 20!r}...",
    ),
    "underscoredIntegerTooLong": (
        ["upperSlopes", "m", "_".join("7" * (_LIMIT + 1))],
        f"token 2: integer exponent {_TOO_LONG} {'7_' * 10!r}...",
    ),
    "trailingUnderscore": (
        ["upperSlopes", "m", "7_" * (_LIMIT + 1)],
        f"token 2: expected an integer exponent, got {'7_' * 10!r}...",
    ),
}


@pytest.mark.parametrize("argv, message", _REFUSED_TOKENS.values(), ids=_REFUSED_TOKENS.keys())
def test_a_refused_token_is_not_echoed(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 300


# The names in help order, each with the parameters its help names.
_HELP_PARAMETERS = (
    ("upperSlopes", ("word",)),
    ("lowerSlopes", ("word",)),
    ("braidWord", ("slopes",)),
    ("dualSlopes", ("slopes",)),
    ("twoBridge", ("a", "b")),
    ("upperSemisimpleBraidWord", ("a", "b")),
    ("lowerSimpleBraidWord", ("a", "b")),
    ("torusUpperSlopes", ("p", "q")),
    ("torusLowerSlopes", ("p", "q")),
    ("fullTorusBraidWord", ("p", "q")),
    ("find2BridgeKnot", ("slopes",)),
    ("reverseBraid", ("word",)),
)


def test_help_lists_every_command_and_its_parameters():
    names = [name for name, _ in _HELP_PARAMETERS]
    assert [row[0] for row in cli._commands()] == names
    for argv in (["--help"], ["-h"]):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: tunnel-slopes")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert listed == names
    for name, parameters in _HELP_PARAMETERS:
        code, out, err = run_cli([name, "--help"])
        assert (code, err) == (0, ""), name
        assert out.startswith(f"usage: tunnel-slopes {name} "), name
        described = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert described == [*parameters, "-h,", "--json"], name


def test_module_entry_point_runs_in_subprocess():
    argv, stdout = README_TRANSCRIPTS[0]
    proc = run_capped(["-m", "tunnel_slopes", *argv])
    assert (proc.returncode, proc.stdout) == (0, stdout)


# A plain run imports neither argparse nor typing, nor the dataclass machinery
# (with inspect behind it), nor json; a --json run loads json but still no
# argparse.  The script records sys.modules before loading the package and
# reports only what loading and running add, so modules that the interpreter's
# site hooks preload do not count.  runpy runs the package as `python -m
# tunnel_slopes` does, so the same interpreter's sys.modules can be read
# afterwards.
_FOOTPRINT_SCRIPT = """
import runpy, sys
watched = ("argparse", "typing", "dataclasses", "inspect", "json")
before = set(sys.modules)
import tunnel_slopes.cli
after_import = [name for name in watched if name in sys.modules and name not in before]
sys.argv = ["tunnel_slopes", *sys.argv[1:]]
try:
    runpy.run_module("tunnel_slopes", run_name="__main__", alter_sys=True)
finally:
    after_run = [name for name in watched if name in sys.modules and name not in before]
    print("loaded:", after_import, after_run, "json" in sys.modules, file=sys.stderr)
"""


def _footprint(argv):
    return run_capped(["-c", _FOOTPRINT_SCRIPT, *argv])


def test_help_and_usage_errors_import_no_argparse():
    for argv, code in [
        (["-h"], 0),
        (["twoBridge", "--help"], 0),
        (["noSuchCommand"], 2),
        (["twoBridge", "7"], 2),
        ([], 2),
    ]:
        proc = _footprint(argv)
        assert proc.returncode == code, argv
        assert proc.stderr.splitlines()[-1] == "loaded: [] [] False", argv


def test_plain_run_imports_no_dataclasses_inspect_or_json():
    proc = _footprint(["upperSlopes", "m", "3", "s", "-2", "l", "3"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[ 16/19 ], -7, -7\n"
    assert proc.stderr.startswith("loaded: [] [] "), proc.stderr
    proc = _footprint(["upperSlopes", "--json", "m", "3", "s", "-2", "l", "3"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"numerators": [16, -7, -7], "denominators": [19, 1, 1]}
    assert proc.stderr in ("loaded: [] ['json'] True\n", "loaded: [] [] True\n"), proc.stderr


_WORD_COMMANDS = ("upperSlopes", "lowerSlopes", "reverseBraid")
_SLOPES_COMMANDS = ("braidWord", "dualSlopes", "find2BridgeKnot")
_PAIR_COMMANDS = (
    "twoBridge",
    "upperSemisimpleBraidWord",
    "lowerSimpleBraidWord",
    "torusUpperSlopes",
    "torusLowerSlopes",
    "fullTorusBraidWord",
)
_JUNK = ("x", "q", "1/2", "1.5", "-", "+", "[", "]", ",", "--", "0x3", "--bogus", "")


def _fuzz_token(rng, pool):
    return rng.choice(_JUNK) if rng.random() < 0.04 else rng.choice(pool)


def _fuzz_argv(rng):
    command = rng.choice(_WORD_COMMANDS + _SLOPES_COMMANDS + _PAIR_COMMANDS)
    if command in _WORD_COMMANDS:
        exponents = [str(e) for e in range(-5, 6)]
        args = []
        for _ in range(rng.randint(0, 8)):
            args += [_fuzz_token(rng, "mls"), _fuzz_token(rng, exponents)]
    elif command in _SLOPES_COMMANDS:
        numbers = [str(n) for n in range(-40, 41)]
        args = [_fuzz_token(rng, numbers) for _ in range(2 * rng.randint(0, 4))]
    else:
        a = rng.randint(-45, 45)
        b = rng.randint(1, max(abs(a), 1)) if rng.random() < 0.6 else rng.randint(-45, 45)
        args = [_fuzz_token(rng, [str(a)]), _fuzz_token(rng, [str(b)])]
    if rng.random() < 0.1:  # an odd token count, or a missing / extra parameter
        if args and rng.random() < 0.5:
            args.pop()
        else:
            args.append(str(rng.randint(-9, 9)))
    if rng.random() < 0.3:
        args.insert(rng.randint(0, len(args)), "--json")
    if rng.random() < 0.03:
        command = rng.choice(("noSuchCommand", "upperslopes", "--json", "-h"))
    return [command, *args]


def test_seeded_fuzz_exits_cleanly():
    rng = random.Random(20100629)
    codes = set()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert (code == 0) == (err == ""), argv
        codes.add(code)
    assert codes == {0, 1, 2}


_TWO_BRIDGE_413_227 = (
    "Upper simple tunnel:     [ 131/413 ]\n"
    "Upper semisimple tunnel: [ 1/3 ], 15/7, 9/5\n"
    "Lower simple tunnel:     [ 227/413 ]\n"
    "Lower semisimple tunnel: [ 2/5 ], -1, -3/2, 1, 1, 1, 3\n"
)
_TWO_BRIDGE_413_227_JSON = json.dumps(
    {
        "upper_simple": {"numerators": [131], "denominators": [413]},
        "upper_semisimple": {"numerators": [1, 15, 9], "denominators": [3, 7, 5]},
        "lower_simple": {"numerators": [227], "denominators": [413]},
        "lower_semisimple": {
            "numerators": [2, -1, -3, 1, 1, 1, 3],
            "denominators": [5, 1, 2, 1, 1, 1, 1],
        },
    }
) + "\n"
_EMPTY_JSON = '{"numerators": [], "denominators": []}\n'
_TRIVIAL = "trivial knot (empty slope sequence)\n"
_CASCADE = "m 2 s 3 l 1 l -1 s -3 m 1 s 1 l 1".split()

# Command lines the README does not show, most at the edges of the grammar:
# (argv, exit code, stdout when the exit is 0).  A help line pins only its
# usage line; the help test reads the rest.  Six lines read differently from
# the argparse-based parser that this one replaced; each is marked "Was".
_EDGE_ARGV = [
    (["upperSlopes", "l", "5", "s", "2"], 0, _TRIVIAL),
    # the README's braidWord transcript, read back
    (
        ["upperSlopes", *"m 1 s 1 m -1 s 1 l 1 m 1 s -2 l 3 s -3 m 1 s -3 l 2 s -1 l -1".split()],
        0,
        "[ 21/25 ], 341/60, -13, -13\n",
    ),
    (["upperSlopes", "m", "-200", "s", "1", "l", "1"], 0, _TRIVIAL),
    (["upperSlopes", "m", "-400", "s", "1", "l", "1"], 0, _TRIVIAL),
    (["reverseBraid", "m", "1", "s", "4", "l", "-1"], 0, "m -1 s 4 l 1\n"),
    # a canonical word's letters are reversed without merging them again
    (["reverseBraid", *MAIN_WORD], 0, "m 3 s -4 l -1 s -4 m 3 s -2 l 3\n"),
    # a cancellation cascade: l and then s cancel, exposing m 2, which m 1 merges into
    (["reverseBraid", *_CASCADE], 0, "m 1 s 1 l 3\n"),
    (["upperSlopes", *_CASCADE], 0, _TRIVIAL),
    (
        ["find2BridgeKnot", "2", "7", "3", "1"],
        0,
        "m0 must be of the form [ n0/(2n0+1) ] with n0 not in {-1,0}.\n",
    ),
    (["upperSlopes", "--json", "m", "1"], 0, _EMPTY_JSON),
    (["upperSlopes", "m", "1", "--json"], 0, _EMPTY_JSON),
    (["upperSlopes", "--json", "--json", "m", "1", "--json"], 0, _EMPTY_JSON),
    # Was exit 2: argparse ended the word at --json and refused the "1" after it.
    (["upperSlopes", "m", "--json", "1"], 0, _EMPTY_JSON),
    (["upperSlopes", "--json"], 0, _EMPTY_JSON),
    (["upperSlopes"], 0, _TRIVIAL),
    # Was exit 0: argparse took --js and --j as abbreviations of --json.
    (["upperSlopes", "--js", "m", "1"], 2, None),
    (["upperSlopes", "m", "1", "--j"], 2, None),
    (["upperSlopes", "--json=1", "m", "1"], 2, None),
    (["upperSlopes", "m", "-", "1"], 2, None),
    # Was exit 0: argparse dropped "--" as the end of its options.
    (["upperSlopes", "--", "m", "1"], 2, None),
    (["upperSlopes", "m", "1", "--"], 2, None),
    (["upperSlopes", "m", "-1 2"], 2, None),
    (["upperSlopes", "m 3 s -2 l 3"], 0, "[ 16/19 ], -7, -7\n"),
    (["upperSlopes", "m", "-0", "l", "1"], 0, _TRIVIAL),
    (["upperSlopes", "-m", "1"], 2, None),
    (["upperSlopes", ""], 0, _TRIVIAL),
    (["dualSlopes", "-.5", "1"], 2, None),
    (["dualSlopes", "1", "3", "-1.5", "1"], 2, None),
    (["dualSlopes", "1", "3", "-1e3", "1"], 2, None),
    # Was exit 2: argparse took -1_001 for an unknown option; int() reads it.
    (["dualSlopes", "1", "3", "-1_001", "1"], 0, "[ 2/3 ], " + "-3, " * 500 + "-7/2\n"),
    (["dualSlopes", "1", "3", "-\u0661", "1"], 0, "[ 2/3 ], -7/2\n"),
    (
        ["braidWord", "21", "25", "341", "60", "-13", "1"],
        0,
        "m 1 s 2 l 1 m 1 s -2 l 3 s -3 m 1 s -3 l 2 s -1 l -1\n",
    ),
    (["twoBridge", "-1", "2"], 1, None),
    (["twoBridge", "413", "-227"], 1, None),
    (["twoBridge", "+413", "227"], 0, _TWO_BRIDGE_413_227),
    (["twoBridge", " 413 ", "227"], 0, _TWO_BRIDGE_413_227),
    (
        ["twoBridge", "1_001", "2"],
        0,
        "Upper simple tunnel:     [ 501/1001 ]\n"
        "Upper semisimple tunnel: [ 2/5 ], " + ", ".join(["-1"] * 249) + "\n"
        "Lower simple tunnel:     [ 2/1001 ]\n"
        "Lower semisimple tunnel: [ 501/1001 ]\n",
    ),
    (["twoBridge", "\u0664\u0661\u0663", "\u0662\u0662\u0667"], 0, _TWO_BRIDGE_413_227),
    (["twoBridge", "-\u0664\u0661\u0663", "2"], 1, None),
    (["twoBridge", "413", "2.0"], 2, None),
    (["twoBridge", "7" * (sys.get_int_max_str_digits() + 1), "2"], 2, None),
    (["twoBridge", "413"], 2, None),
    (["twoBridge", "413", "227", "5"], 2, None),
    (["twoBridge", "--json", "413", "227", "--json"], 0, _TWO_BRIDGE_413_227_JSON),
    (["twoBridge", "413", "--json", "227"], 0, _TWO_BRIDGE_413_227_JSON),
    (["twoBridge", "-h"], 0, "usage: tunnel-slopes twoBridge [-h] [--json] a b\n"),
    (["twoBridge", "--help"], 0, "usage: tunnel-slopes twoBridge [-h] [--json] a b\n"),
    (["-h"], 0, "usage: tunnel-slopes "),
    (["--json", "upperSlopes"], 2, None),
    ([], 2, None),
    (["upperslopes", "m", "1"], 2, None),
    (["upperSlo", "m", "1"], 2, None),
]


def test_edge_lines_give_their_pinned_output():
    for argv, code, stdout in _EDGE_ARGV:
        got_code, out, err = run_cli(argv)
        assert got_code == code, argv
        if code != 0:
            assert out == "" and err.startswith("error: "), argv
        elif stdout.startswith("usage: "):
            assert out.startswith(stdout) and err == "", argv
        else:
            assert (out, err) == (stdout, ""), argv
