"""Shared helpers for the test suite."""

import contextlib
import io
import math
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

from tunnel_slopes import DomainError
from tunnel_slopes.cli import main
from tunnel_slopes.exact_arith import INFINITY, _Value


class Mat2(_Value):
    """A 2x2 integer matrix [[a, b], [c, d]], row major."""

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        return cls._of(a, b, c, d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            if self.det() != 1:
                raise DomainError("negative power needs determinant 1")
            return Mat2(self.d, -self.b, -self.c, self.a) ** (-n)
        result, base = MAT_IDENTITY, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def column(self, j: int) -> tuple[int, int]:
        return (self.a, self.c) if j == 0 else (self.b, self.d)


MAT_IDENTITY = Mat2(1, 0, 0, 1)
MAT_U = Mat2(1, 1, 0, 1)
MAT_L = Mat2(1, 0, 1, 1)


def matrix_cf_value(entries):
    """Continued-fraction value via alternating U/L matrix products.

    U^n1 L^n2 U^n3 ... applied to the right basis column gives
    n1 + 1/(n2 + 1/(...)) including the formal infinite value.  cf_eval
    multiplies the factors [[n, 1], [1, 0]] instead, so this is an oracle
    for it built from other matrices.
    """
    prod = MAT_IDENTITY
    for i, n in enumerate(entries):
        prod = prod * ((MAT_U if i % 2 == 0 else MAT_L) ** n)
    num, den = prod.column(0 if len(entries) % 2 == 0 else 1)
    return INFINITY if den == 0 else Fraction(num, den)


def coprime_pairs(a_values):
    """Every (a, b) with 0 < b < a and gcd(a, b) = 1, a by a, each b ascending."""
    for a in a_values:
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                yield a, b


def run_cli(argv):
    """Run the command line in-process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def readme_transcripts():
    """Every `$ tunnel-slopes ...` line of README.md: (argv, expected stdout).

    The expected stdout is the lines after the command, up to the next blank
    line or code fence.
    """
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    transcripts = []
    for i, line in enumerate(lines):
        if line.startswith("$ tunnel-slopes "):
            shown = takewhile(lambda out: out and not out.startswith("```"), lines[i + 1 :])
            transcripts.append((shlex.split(line)[2:], "".join(out + "\n" for out in shown)))
    return transcripts


def cap_address_space():
    """Limit a child to 600 MB of address space, so a runaway fails fast."""
    cap = 600 * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_capped(args):
    """Run `python <args>` in a child under the 600 MB cap and a 20 s timeout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=cap_address_space,
    )
