"""Shared helpers for the test suite."""

import contextlib
import io
import resource
from fractions import Fraction

from tunnel_slopes import DomainError
from tunnel_slopes.cli import main
from tunnel_slopes.exact_arith import INFINITY, _Value


class Mat2(_Value):
    """A 2x2 integer matrix [[a, b], [c, d]], row major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

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


def run_cli(argv):
    """Run the command line in-process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cap_address_space():
    """Limit a child to 600 MB of address space, so a runaway fails fast."""
    cap = 600 * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
