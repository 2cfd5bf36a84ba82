"""Sparse exact Laurent polynomials in one variable v, and dense matrices over them.

A polynomial is a map {exponent: coefficient} with no stored zeros, so equality
is structural.  Coefficients live in an exact field (Fraction or Sqrt5, see
`scalars`); the weight group is fixed to the integers, so exponents are ints.

The valuation of a polynomial is its minimal stored exponent (+infinity for 0,
encoded as None).  The bar involution negates exponents.  Division is only
defined by units, i.e. single-term polynomials.

>>> f = LaurentPoly({2: 1, 5: 3})
>>> f.valuation()
2
>>> bar(LaurentPoly({2: 1}))
LaurentPoly({-2: 1})
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import Sqrt5, parse_scalar, scalar_inv, scalar_str

#: coefficient types that mix with LaurentPoly as constants
_SCALARS = (int, Fraction, Sqrt5)


class LaurentPoly:
    """Sparse Laurent polynomial over an exact coefficient field."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.coeffs = {k: c for k, c in coeffs.items() if c}
        else:
            self.coeffs = {}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def scalar(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    # -- basic protocol ------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        return format_laurent(self)

    # -- ring operations -----------------------------------------------------

    # The operators test `other.__class__ is LaurentPoly` first: Fraction is
    # an ABC, so an isinstance test against _SCALARS costs an ABC check on
    # every polynomial-by-polynomial operation.

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, _SCALARS):
                other = LaurentPoly.scalar(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, _SCALARS):
                other = LaurentPoly.scalar(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, _SCALARS):
                if not other:
                    return LaurentPoly()
                res = LaurentPoly.__new__(LaurentPoly)
                res.coeffs = {k: c * other for k, c in self.coeffs.items()}
                return res
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    # -- valuation-ring structure ---------------------------------------------

    def valuation(self):
        """Minimal exponent, or None for the zero polynomial (+infinity)."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def degree(self):
        """Maximal exponent, or None for the zero polynomial (-infinity)."""
        if not self.coeffs:
            return None
        return max(self.coeffs)

    def lowest_term(self):
        """Coefficient at the valuation; errors on the zero polynomial."""
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no lowest term")
        return self.coeffs[min(self.coeffs)]

    def constant_term(self):
        return self.coeffs.get(0, Fraction(0))

    def coefficient(self, k: int):
        return self.coeffs.get(k, Fraction(0))

    def is_unit(self) -> bool:
        """Units of F[v, v^-1] are the single-term polynomials."""
        return len(self.coeffs) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ZeroDivisionError("only units (monomials) are invertible")
        ((k, c),) = self.coeffs.items()
        return LaurentPoly({-k: scalar_inv(c)})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in F[v, v^-1]; raises if the quotient is not exact."""
        if not isinstance(other, LaurentPoly) or not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.coeffs:
            return LaurentPoly()
        if other.is_unit():
            return self * other.unit_inverse()
        num = dict(self.coeffs)
        dd = other.degree()
        lead = other.coeffs[dd]
        # an exact quotient has all exponents >= nu(self) - nu(other)
        kmin = self.valuation() - other.valuation()
        out: dict = {}
        while num:
            nd = max(num)
            k = nd - dd
            if k < kmin:
                raise ArithmeticError("inexact Laurent division")
            q = num[nd] * scalar_inv(lead)
            out[k] = q
            for e, c in other.coeffs.items():
                t = e + k
                s = num.get(t, 0) - q * c
                if s:
                    num[t] = s
                else:
                    num.pop(t, None)
        return LaurentPoly(out)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


# -- sparse linear combinations ------------------------------------------------
#
# Beyond `LaurentPoly` arithmetic itself, a product takes one of three routes:
# along a word of generators, `wgraph.word_products`; by a monomial v^k,
# `shift`, one pass over the keys; a sum of products, `@` on matrices or one
# bare {exponent: coefficient} map per output entry wrapped once by
# `from_sum`, which drops the zeros: `out = out + a * b` would build two
# polynomials per term.  The loops that do this (`LaurentMatrix.__matmul__`,
# `KLContext._pstar_critical`, the (C3) check of `asymptotic.verify_cell_axioms`)
# keep the double loop inline, since a call per product shows there.
# Everything else that sums sparse maps uses `add_term`.


def add_term(out: dict, key, c) -> None:
    """out[key] += c in a sparse map that stores no zeros."""
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def from_sum(out: dict) -> LaurentPoly:
    """The polynomial of an accumulated map, which it takes over: `out` is
    kept as it is unless it holds a cancelled term, and must not be used
    after the call."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = out if all(out.values()) else {k: c for k, c in out.items() if c}
    return res


def shift(f: LaurentPoly, k: int) -> LaurentPoly:
    """f * v^k by one pass over the keys; shift(f, 0) is f itself."""
    if not k:
        return f
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = {e + k: c for e, c in f.coeffs.items()}
    return res


# -- packed integers -----------------------------------------------------------
#
# Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): a Laurent
# polynomial f = sum_k c_k v^k over Z, with every exponent >= an offset e and
# every |c_k| < 2^(B-1), is stored as the integer x = (v^-e f)(2^B).  Evaluation
# at 2^B is a ring map Z[v] -> Z, so sums and products of packed integers are
# exact whatever B is; only reading digits back needs the bound, and it needs
# it on the result alone, never on an intermediate.  The width B comes from
# `packed_width` of a coefficient bound proved before any packing.


def packed_width(bound: int) -> int:
    """The width B that holds every coefficient of absolute value <= bound:
    2^(B-1) = 2^bound.bit_length() > bound.

    >>> packed_width(7), packed_width(8)
    (4, 5)
    """
    return bound.bit_length() + 1


def pack(f: LaurentPoly, width: int, offset: int = 0) -> int:
    """(v^-offset f)(2^width) for f over Z with no exponent below offset.

    >>> pack(LaurentPoly({-1: -3, 0: 1, 2: 5}), 4, -1)
    20493
    >>> -3 + 1 * 16 + 5 * 16 ** 3
    20493
    """
    return sum(c << width * (k - offset) for k, c in f.coeffs.items())


def packed_valuation(x: int, width: int):
    """The lowest digit position of x, None for 0.

    The lowest set bit of x = c_k 2^(Bk) + 2^(B(k+1)) * (higher digits),
    c_k != 0, is the one of c_k 2^(Bk), at Bk + nu_2(c_k), and
    nu_2(c_k) < B - 1 since |c_k| < 2^(B-1).  It holds for negative x too,
    since x & -x is the lowest set bit of |x|.

    >>> packed_valuation(pack(LaurentPoly({-1: -3, 2: 5}), 4, -2), 4)
    1
    """
    return ((x & -x).bit_length() - 1) // width if x else None


def packed_digit(x: int, k: int, width: int) -> int:
    """The signed digit c_k of x at position k.

    With L = sum_(j<k) c_j 2^(Bj), |L| <= (2^(B-1) - 1)(2^(Bk) - 1)/(2^B - 1)
    < 2^(Bk-1), so adding 2^(Bk-1) (none for k = 0) and shifting by Bk
    drops L exactly and leaves X = sum_(j>=k) c_j 2^(B(j-k)).  Then
    c_k + 2^(B-1) lies in (0, 2^B), so it is X + 2^(B-1) mod 2^B.

    >>> x = pack(LaurentPoly({-1: -3, 0: 1, 2: -5}), 4, -1)
    >>> [packed_digit(x, k, 4) for k in range(5)]
    [-3, 1, 0, -5, 0]
    """
    half = 1 << width - 1
    shift_by = width * k
    if shift_by:
        x = (x + (1 << shift_by - 1)) >> shift_by
    return ((x + half) & ((half << 1) - 1)) - half


def unpack(x: int, width: int, offset: int = 0) -> LaurentPoly:
    """The polynomial f with pack(f, width, offset) = x, given that every
    coefficient of f has absolute value < 2^(width-1).

    >>> f = LaurentPoly({-3: -7, -1: 1, 4: -1})
    >>> unpack(pack(f, 4, -3), 4, -3) == f
    True
    >>> unpack(pack(-f, 4, -5), 4, -5) == -f
    True
    """
    half = 1 << width - 1
    mask = (half << 1) - 1
    out = {}
    k = packed_valuation(x, width)
    if k is not None:
        # no digit below k: x is exactly the shift of the higher ones
        x >>= width * k
        k += offset
        while x:
            c = ((x + half) & mask) - half
            if c:
                out[k] = c
            x = (x - c) >> width
            k += 1
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = out
    return res


def l1_norm(f: LaurentPoly):
    """sum_k |c_k|: the factor by which a product with f can raise the
    largest absolute coefficient."""
    return sum(abs(c) for c in f.coeffs.values())


def bar(f: LaurentPoly) -> LaurentPoly:
    """The involution v^k -> v^-k."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = {-k: c for k, c in f.coeffs.items()}
    return res


def negative_part(f: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({k: c for k, c in f.coeffs.items() if k < 0})


def positive_part(f: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({k: c for k, c in f.coeffs.items() if k > 0})


def is_bar_invariant(f: LaurentPoly) -> bool:
    return bar(f) == f


def laurent_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """A gcd in F[v, v^-1], normalized to valuation 0 and lowest term 1.

    Units of the Laurent ring are monomials, so the gcd is only canonical up
    to that normalization.
    """
    def norm(p: LaurentPoly) -> LaurentPoly:
        shifted = shift(p, -p.valuation())
        lt = shifted.coeffs[0]
        if lt != 1:
            shifted = shifted * scalar_inv(lt)
        return shifted

    if not f:
        return norm(g) if g else LaurentPoly()
    if not g:
        return norm(f)
    a, b = norm(f), norm(g)
    while b:
        # ordinary polynomial remainder after the valuation shift
        r = a
        while r and r.degree() >= b.degree():
            lead = r.coeffs[r.degree()] * scalar_inv(b.coeffs[b.degree()])
            r = r - b * LaurentPoly({r.degree() - b.degree(): lead})
        a, b = b, norm(r) if r else LaurentPoly()
    return norm(a)


# -- text format -------------------------------------------------------------
#
# Wire format: terms joined by " + " as `format_laurent` writes them, e.g.
# "-1*v^-1 + 2 + (1/2+1/2r5)*v^1", a Q(sqrt 5) coefficient with an irrational
# part in parentheses.  `parse_laurent` reads one term per match of _TERM:
#
#   term  = sign (coeff | power | coeff ["*"] power)
#   sign  = "+" | "-" | "+ -", which the first term may leave out
#   coeff = digits ["/" digits] | "(" scalar ")"    power = "v" ["^" [+-] digits]
#
# Digits are ASCII.  Whitespace may stand between two tokens, but not between
# two word characters (_SPLIT: "1/2 3" is not 1/23).  So blank text, an
# empty term ("1++2"), a digit after ")" ("(3)0") and "\u0662" are refused.
# Both are compiled on the first parse, through `re`'s own cache.

_TERM = (
    r"\s*(?P<sign>\+\s*-|[+-]|^)\s*"
    r"(?:(?P<num>[0-9]+(?:\s*/\s*[0-9]+)?)|\((?P<paren>[^()]*)\)|(?=v))"
    r"(?:\s*\*?\s*(?P<var>v)(?:\s*\^\s*(?P<exp>[+-]?\s*[0-9]+))?)?\s*"
)
_SPLIT = r"\w\s+\w"


def format_laurent(f: LaurentPoly) -> str:
    if not f.coeffs:
        return "0"
    parts = []
    for k in sorted(f.coeffs):
        c = f.coeffs[k]
        cs = scalar_str(c)
        if isinstance(c, Sqrt5) and c.b:
            cs = f"({cs})"
        parts.append(cs if k == 0 else f"{cs}*v^{k}")
    return " + ".join(parts)


def laurent_formatter():
    """`format_laurent` for one output with repeated values: each distinct
    polynomial, keyed by its coefficient items, is formatted once, in a dict
    that lives as long as the returned function."""
    texts: dict = {}

    def fmt(f: LaurentPoly) -> str:
        key = tuple(f.coeffs.items())
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_laurent(f)
        return text

    return fmt


def parse_laurent(text: str) -> LaurentPoly:
    """Inverse of `format_laurent`; malformed text or a coefficient with a
    zero denominator raises ValueError."""
    if re.search(_SPLIT, text):
        raise ValueError(f"bad Laurent polynomial {text!r}")
    term = re.compile(_TERM)
    out: dict = {}
    pos = 0
    while True:
        m = term.match(text, pos)
        if m is None:
            raise ValueError(f"bad Laurent term {text[pos:]!r} in {text!r}")
        coeff = m["num"] or m["paren"]
        c = Fraction(1) if coeff is None else parse_scalar("".join(coeff.split()))
        k = int("".join(m["exp"].split())) if m["exp"] else (1 if m["var"] else 0)
        add_term(out, k, -c if m["sign"].endswith("-") else c)
        pos = m.end()
        if pos == len(text):
            return LaurentPoly(out)


# -- matrices ----------------------------------------------------------------


class LaurentMatrix:
    """Dense matrix of LaurentPoly entries with dimension-checked arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[ZERO for _ in range(cols)] for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match dimensions")
            self.entries = [list(r) for r in entries]

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        m = LaurentMatrix(n, n)
        for i in range(n):
            m.entries[i][i] = ONE
        return m

    @staticmethod
    def from_scalar_rows(rows) -> "LaurentMatrix":
        """Build from a grid of bare field scalars."""
        r = len(rows)
        c = len(rows[0])
        return LaurentMatrix(
            r, c, [[LaurentPoly({0: x}) if x else ZERO for x in row] for row in rows]
        )

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_laurent(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix({self.rows}x{self.cols}: [{body}])"

    def copy(self) -> "LaurentMatrix":
        return LaurentMatrix(self.rows, self.cols, self.entries)

    def __add__(self, other):
        self._check_same_shape(other)
        return LaurentMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return LaurentMatrix(
            self.rows,
            self.cols,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return LaurentMatrix(
            self.rows, self.cols, [[-a for a in r] for r in self.entries]
        )

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        ncols = other.cols
        entries = []
        for arow in self.entries:
            # entry j accumulates in acc[j], created at its first term
            acc: list = [None] * ncols
            for a, brow in zip(arow, other.entries):
                if not a.coeffs:
                    continue
                ac = a.coeffs.items()
                for j, b in enumerate(brow):
                    bc = b.coeffs
                    if not bc:
                        continue
                    out = acc[j]
                    if out is None:
                        out = acc[j] = {}
                    for k2, c2 in bc.items():
                        for k1, c1 in ac:
                            k = k1 + k2
                            cur = out.get(k)
                            out[k] = c1 * c2 if cur is None else cur + c1 * c2
            entries.append([ZERO if out is None else from_sum(out) for out in acc])
        return LaurentMatrix(self.rows, ncols, entries)

    def scale(self, f) -> "LaurentMatrix":
        """Multiply every entry by a LaurentPoly or scalar."""
        return LaurentMatrix(
            self.rows, self.cols, [[e * f for e in row] for row in self.entries]
        )

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def trace(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        out: dict = {}
        for i, row in enumerate(self.entries):
            for k, c in row[i].coeffs.items():
                out[k] = out.get(k, 0) + c
        return from_sum(out)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def valuation(self):
        """min over entry valuations; None (=+infinity) for the zero matrix."""
        vals = [e.valuation() for row in self.entries for e in row if e.coeffs]
        return min(vals) if vals else None

    def max_degree(self):
        degs = [e.degree() for row in self.entries for e in row if e.coeffs]
        return max(degs) if degs else None

    def residue(self):
        """Entrywise constant terms, as a scalar grid; requires valuation >= 0."""
        v = self.valuation()
        if v is not None and v < 0:
            raise ValueError("matrix has a pole: valuation < 0")
        return [[e.constant_term() for e in row] for row in self.entries]

    def at_one(self):
        """Entrywise values at v = 1 (each the sum of its coefficients), as a
        scalar grid."""
        return [[sum(e.coeffs.values()) for e in row] for row in self.entries]

    def is_constant(self) -> bool:
        return all(
            not e.coeffs or set(e.coeffs) == {0} for row in self.entries for e in row
        )

