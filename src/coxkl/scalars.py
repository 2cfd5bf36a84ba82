"""Exact base-field scalars.

Two coefficient fields are supported: the rationals, represented by
`fractions.Fraction` (plain `int` is accepted and mixes freely), and the
real quadratic field Q(sqrt 5), represented by `Sqrt5`.  Everything is
duck-typed: the Laurent-polynomial layer only needs `+`, `-`, `*`, `/`,
`==`, truthiness and hashing from its coefficients.
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


def _parts(x):
    """Rational/quadratic parts of a scalar, or (None, None) if foreign."""
    if isinstance(x, Sqrt5):
        return x.a, x.b
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return None, None


def rational_block(c) -> list[list[Fraction]]:
    """[[a, 5b], [b, a]], the matrix of multiplication by c = a + b sqrt(5)
    on the Q-basis (1, sqrt(5)): a ring homomorphism from Q(sqrt 5) to the
    2 x 2 matrices over Q (restriction of scalars).

    >>> phi, y = Sqrt5(Fraction(1, 2), Fraction(1, 2)), Sqrt5(-1, Fraction(1, 2))
    >>> [[str(x) for x in row] for row in rational_block(phi)]
    [['1/2', '5/2'], ['1/2', '1/2']]
    >>> p, q = rational_block(phi), rational_block(y)
    >>> rational_block(phi * y) == [[p[i][0] * q[0][j] + p[i][1] * q[1][j]
    ...                              for j in (0, 1)] for i in (0, 1)]
    True
    """
    a, b = _parts(c)
    return [[a, 5 * b], [b, a]]


def scalar_inv(c):
    """Multiplicative inverse in whichever field `c` lives in."""
    if isinstance(c, Sqrt5):
        return c.inverse()
    return Fraction(1) / Fraction(c)


def scalar_str(c) -> str:
    if c.__class__ is int:
        return str(c)
    if isinstance(c, Sqrt5):
        return str(c)
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else str(c)


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
# the rational part, if any, ends where the signed r5 part begins; digits
# are ASCII.  Compiled on the first parse, through `re`'s own cache.
_SQRT5 = rf"(?:(?P<a>{_RATIONAL})(?=[+-]|\Z))?(?:(?P<b>{_RATIONAL})r5)?"


def parse_scalar(text: str):
    """Inverse of `scalar_str`: "a", "a+br5", "a-br5" or "br5".

    A zero denominator raises ValueError."""
    m = re.fullmatch(_SQRT5, text, re.ASCII)
    if not text or not m:
        raise ValueError(f"bad scalar {text!r}")
    try:
        a = Fraction(m.group("a") or 0)
        if m.group("b") is None:
            return a
        return Sqrt5(a, Fraction(m.group("b")))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
