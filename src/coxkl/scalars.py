"""Exact base-field scalars.

Two coefficient fields are supported: the rationals, represented by
`fractions.Fraction` (plain `int` is accepted and mixes freely), and the
real quadratic field Q(sqrt 5), represented by `Sqrt5`.  Everything is
duck-typed: the Laurent-polynomial layer only needs `+`, `-`, `*`, `/`,
`==`, truthiness and hashing from its coefficients.

The embedding of Q(sqrt 5) into the reals is fixed with sqrt(5) > 0; all
sign tests use that embedding.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Sqrt5:
    """An element a + b*sqrt(5) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return self.a == a and self.b == b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Sqrt5({self.a}, {self.b})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}r5"
        return f"{self.a}+{self.b}r5" if self.b > 0 else f"{self.a}{self.b}r5"

    def __add__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return Sqrt5(self.a + a, self.b + b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt5(-self.a, -self.b)

    def __sub__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return Sqrt5(self.a - a, self.b - b)

    def __rsub__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return Sqrt5(a - self.a, b - self.b)

    def __mul__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return Sqrt5(self.a * a + 5 * self.b * b, self.a * b + self.b * a)

    __rmul__ = __mul__

    def inverse(self):
        # (a + b r5)(a - b r5) = a^2 - 5 b^2, nonzero for nonzero input
        n = self.a * self.a - 5 * self.b * self.b
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return Sqrt5(self.a / n, -self.b / n)

    def __truediv__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return self * Sqrt5(a, b).inverse()

    def __rtruediv__(self, other):
        a, b = _parts(other)
        if a is None:
            return NotImplemented
        return Sqrt5(a, b) * self.inverse()

    def sign(self):
        """Sign of a + b*sqrt(5) under the real embedding with sqrt(5) > 0."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: compare |a| with |b|*sqrt(5)
        d = a * a - 5 * b * b
        sa = 1 if a > 0 else -1
        return sa * ((d > 0) - (d < 0))


def _parts(x):
    """Rational/quadratic parts of a scalar, or (None, None) if foreign."""
    if isinstance(x, Sqrt5):
        return x.a, x.b
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return None, None


#: the golden ratio (1 + sqrt(5)) / 2, the Cartan entry driver for m = 5 bonds
GOLDEN = Sqrt5(Fraction(1, 2), Fraction(1, 2))


def scalar_inv(c):
    """Multiplicative inverse in whichever field `c` lives in."""
    if isinstance(c, Sqrt5):
        return c.inverse()
    return Fraction(1) / Fraction(c)


def scalar_str(c) -> str:
    if isinstance(c, Sqrt5):
        return str(c)
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else str(c)


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
# the rational part, if any, ends where the signed r5 part begins
_SQRT5_RE = re.compile(
    rf"^(?:(?P<a>{_RATIONAL})(?=[+-]|$))?(?:(?P<b>{_RATIONAL})r5)?$"
)


def parse_scalar(text: str):
    """Inverse of `scalar_str`: "a", "a+br5", "a-br5" or "br5"."""
    m = _SQRT5_RE.match(text)
    if not text or not m:
        raise ValueError(f"bad scalar {text!r}")
    a = Fraction(m.group("a") or 0)
    if m.group("b") is None:
        return a
    return Sqrt5(a, Fraction(m.group("b")))
