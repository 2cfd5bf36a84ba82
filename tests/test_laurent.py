"""Laurent polynomial layer: arithmetic, valuations, bar, text format."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import GOLDEN, sqrt5_sign

from coxkl.laurent import (
    LaurentMatrix,
    LaurentPoly,
    bar,
    format_laurent,
    from_sum,
    laurent_gcd,
    l1_norm,
    negative_part,
    pack,
    packed_digit,
    packed_valuation,
    packed_width,
    parse_laurent,
    positive_part,
    shift,
    unpack,
)
from coxkl.scalars import Sqrt5, parse_scalar, scalar_str


def lp(d):
    return LaurentPoly(d)


polys = st.dictionaries(
    st.integers(-5, 5), st.integers(-4, 4).map(Fraction), max_size=5
).map(LaurentPoly)


def test_valuation_examples():
    assert lp({2: 1, 5: 3}).valuation() == 2
    assert lp({}).valuation() is None  # zero -> +infinity
    assert lp({-1: 1, 0: 1}).valuation() == -1


def test_lowest_term_examples():
    assert lp({3: 2, 4: -1}).lowest_term() == 2
    assert lp({0: 7}).lowest_term() == 7
    assert lp({-2: -1, 0: 1}).lowest_term() == -1
    with pytest.raises(ZeroDivisionError):
        lp({}).lowest_term()


def test_bar_examples():
    assert bar(lp({1: 1, -1: 1})) == lp({1: 1, -1: 1})
    assert bar(lp({2: 1})) == lp({-2: 1})
    assert bar(lp({0: 1, 1: 1})) == lp({0: 1, -1: 1})


def test_matrix_valuation_examples():
    m = LaurentMatrix(2, 2, [[lp({1: 1}), lp({2: 1})], [lp({}), lp({3: 1})]])
    assert m.valuation() == 1
    assert LaurentMatrix(2, 2).valuation() is None
    m = LaurentMatrix(2, 2, [[lp({-1: 1}), lp({0: 1})], [lp({0: 1}), lp({1: 1})]])
    assert m.valuation() == -1


@given(polys, polys)
def test_valuation_additive(f, g):
    if f and g:
        assert (f * g).valuation() == f.valuation() + g.valuation()
        assert (f * g).lowest_term() == f.lowest_term() * g.lowest_term()


@given(polys, polys)
def test_bar_is_ring_involution(f, g):
    assert bar(bar(f)) == f
    assert bar(f * g) == bar(f) * bar(g)
    assert bar(f + g) == bar(f) + bar(g)


@given(polys)
def test_split_reassembles(f):
    neg, pos = negative_part(f), positive_part(f)
    assert neg + LaurentPoly.scalar(f.constant_term()) + pos == f
    assert all(k < 0 for k in neg.coeffs) and all(k > 0 for k in pos.coeffs)


@given(polys)
def test_format_parse_roundtrip(f):
    assert parse_laurent(format_laurent(f)) == f


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
scalars = st.one_of(
    rationals, st.builds(Sqrt5, rationals, rationals), st.integers(-3, 3)
)
field_polys = st.dictionaries(st.integers(-5, 5), scalars, max_size=5).map(
    LaurentPoly
)


@given(field_polys)
def test_format_parse_roundtrip_over_both_fields(f):
    text = format_laurent(f)
    assert parse_laurent(text) == f
    assert format_laurent(parse_laurent(text)) == text


@given(field_polys, field_polys, scalars)
def test_sub_agrees_with_adding_the_negative(f, g, c):
    # the same values and the same coefficient types as f + (-g)
    for lhs, rhs in ((f - g, f + (-g)), (f - c, f + (-c)), (c - f, -f + c)):
        assert lhs == rhs
        assert {k: type(x) for k, x in lhs.coeffs.items()} == {
            k: type(x) for k, x in rhs.coeffs.items()
        }
    assert f - g + g == f


def matrices(rows, cols):
    grid = st.lists(field_polys, min_size=cols, max_size=cols)
    return st.lists(grid, min_size=rows, max_size=rows).map(
        lambda entries: LaurentMatrix(rows, cols, entries)
    )


def term_product(a, b):
    """a @ b as the sum of LaurentPoly products, one term at a time."""
    out = LaurentMatrix(a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out.entries[i][j] = out.entries[i][j] + a.entries[i][k] * b.entries[k][j]
    return out


def stores_no_zero(m):
    return all(c for row in m.entries for e in row for c in e.coeffs.values())


@given(st.data())
def test_matmul_sums_the_term_products(data):
    """Over ints, Fraction and Sqrt5, and for products that cancel to 0:
    [a | a] @ [b ; -b] is zero in every entry."""
    m, n, p = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
    a, b = data.draw(matrices(m, n)), data.draw(matrices(n, p))
    prod = a @ b
    assert prod == term_product(a, b)
    assert stores_no_zero(prod)
    aa = LaurentMatrix(m, 2 * n, [row + row for row in a.entries])
    bb = LaurentMatrix(2 * n, p, b.entries + (-b).entries)
    cancelled = aa @ bb
    assert cancelled == term_product(aa, bb)
    assert cancelled.is_zero() and stores_no_zero(cancelled)


@given(field_polys, field_polys)
def test_from_sum_drops_cancelled_terms(f, g):
    out = dict(f.coeffs)
    for k, c in g.coeffs.items():
        out[k] = out.get(k, 0) + c
    for k, c in g.coeffs.items():
        out[k] -= c
    h = from_sum(out)
    assert h == f and all(h.coeffs.values())


@given(field_polys, st.integers(-6, 6))
def test_shift_is_a_monomial_product(f, k):
    g = shift(f, k)
    assert g == f * LaurentPoly({k: 1})
    assert all(g.coeffs.values())
    assert shift(f, 0) is f


def test_sqrt5_wire_format():
    f = lp({-1: Sqrt5(-1, 1), 0: GOLDEN, 1: Sqrt5(0, -1), 2: Fraction(-3, 2)})
    text = "(-1+1r5)*v^-1 + (1/2+1/2r5) + (-1r5)*v^1 + -3/2*v^2"
    assert format_laurent(f) == text
    assert parse_laurent(text) == f
    assert parse_laurent("-(1/2-3r5)v^2") == lp({2: Sqrt5(Fraction(-1, 2), 3)})
    # a rational Sqrt5 coefficient prints as before, without parentheses
    assert format_laurent(lp({1: Sqrt5(2)})) == "2*v^1"
    for bad in ("(1+)", "(r5)", "((1))", "(1/21/2r5)", "(1+2r5", "()", "#0"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


def test_parse_scalar_reads_the_whole_text():
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    assert parse_scalar("1/2+1/2r5") == GOLDEN
    assert parse_scalar("-1r5") == Sqrt5(0, -1)
    # a final newline is text too
    for bad in ("", " ", "1 ", " 1", "1\n", "1/2r5\n", "1+\n", "r5", "1+",
                "1r5+2", "1/2/3", "\u0662", "1/0"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_sqrt5_scalars_mix_with_laurent_polys():
    one = lp({0: 1})
    assert one + GOLDEN == GOLDEN + one == lp({0: Sqrt5(Fraction(3, 2), Fraction(1, 2))})
    assert one - GOLDEN == -(GOLDEN - one)
    assert lp({0: GOLDEN}) == GOLDEN and lp({1: GOLDEN}) != GOLDEN
    assert lp({0: GOLDEN}) - GOLDEN == lp({})


def test_parser_variants():
    assert parse_laurent("-1*v^-1 + 2 + 1*v^3") == lp({-1: -1, 0: 2, 3: 1})
    assert parse_laurent("-v^-1+2+v^3") == lp({-1: -1, 0: 2, 3: 1})
    assert parse_laurent(" v ") == lp({1: 1})
    assert parse_laurent("1/2 - v^2") == lp({0: Fraction(1, 2), 2: -1})
    assert parse_laurent("0") == lp({})
    with pytest.raises(ValueError):
        parse_laurent("v^")


# -- the wire-format grammar: a term is a coefficient, a power of v or both,
# and the terms are joined by "+", "-" or "+ -"; whitespace may stand
# between two tokens unless both are word characters.

SPACES = st.text(alphabet=" \t\n\u00a0", max_size=2)
# the zeros of the Arabic-Indic, extended Arabic-Indic, Devanagari, Bengali
# and fullwidth digit runs
NON_ASCII_ZEROS = "\u0660\u06f0\u0966\u09e6\uff10"


@st.composite
def coefficient_tokens(draw):
    """A bare, rational or parenthesized coefficient, as (tokens, value)."""
    kind = draw(st.sampled_from(["bare", "rational", "paren"]))
    if kind == "bare":
        n = draw(st.integers(0, 99))
        return [str(n)], Fraction(n)
    if kind == "rational":
        p, q = draw(st.integers(0, 20)), draw(st.integers(1, 9))
        return [str(p), "/", str(q)], Fraction(p, q)
    c = draw(scalars)
    return ["(", scalar_str(c), ")"], c


@st.composite
def power_tokens(draw):
    """v, v^k or v^+k, as (tokens, exponent)."""
    k = draw(st.integers(-6, 6))
    if k == 1 and draw(st.booleans()):
        return ["v"], 1
    sign = "-" if k < 0 else draw(st.sampled_from(["", "+"]))
    return ["v", "^"] + ([sign] if sign else []) + [str(abs(k))], k


@st.composite
def wire_texts(draw):
    """A text of the grammar and the polynomial it denotes."""
    tokens, value = [], LaurentPoly()
    for i in range(draw(st.integers(1, 4))):
        signs = [[], ["-"], ["+"], ["+", "-"]] if i == 0 else [["+"], ["-"], ["+", "-"]]
        sign = draw(st.sampled_from(signs))
        kind = draw(st.sampled_from(["coeff", "power", "both"]))
        ctoks, c = draw(coefficient_tokens()) if kind != "power" else ([], Fraction(1))
        ptoks, k = draw(power_tokens()) if kind != "coeff" else ([], 0)
        star = ["*"] if ctoks and ptoks and draw(st.booleans()) else []
        tokens += sign + ctoks + star + ptoks
        value = value + LaurentPoly({k: -c if sign[-1:] == ["-"] else c})
    text = draw(SPACES)
    for a, b in zip(tokens, tokens[1:] + [""]):
        text += a
        if not (b and a[-1].isalnum() and b[0].isalnum()):
            text += draw(SPACES)
    return text, value


@settings(max_examples=300, deadline=None)
@given(wire_texts())
def test_parse_laurent_reads_the_grammar(case):
    text, value = case
    assert parse_laurent(text) == value


@st.composite
def malformed_texts(draw):
    """One text of each class outside the grammar: blank text, an empty
    term, digits after a ")" and a non-ASCII digit."""
    kind = draw(st.sampled_from(["blank", "empty term", "after paren", "digit"]))
    a, _ = draw(wire_texts())
    b, _ = draw(wire_texts())
    if kind == "blank":
        return draw(SPACES)
    if kind == "empty term":
        form = draw(st.sampled_from(
            ["+", " + ", "{a} +", "{a}+ +{b}", "{a} ++ {b}", "++{a}", "{a} + {b}+"]
        ))
        return form.format(a=a, b=b)
    if kind == "after paren":
        paren, digits = f"({scalar_str(draw(scalars))})", draw(st.integers(0, 99))
        form = draw(st.sampled_from(["{p}{d}", "{a} + {p}{d}", "{p}{d}*v", "{p}{d} + {b}"]))
        return form.format(p=paren, d=digits, a=a, b=b)
    at = [i for i, ch in enumerate(a) if ch in "0123456789"]
    assume(at)
    i = draw(st.sampled_from(at))
    zero = draw(st.sampled_from(NON_ASCII_ZEROS))
    return a[:i] + chr(ord(zero) + int(a[i])) + a[i + 1:]


@settings(max_examples=300, deadline=None)
@given(malformed_texts())
def test_parse_laurent_refuses_malformed_text(text):
    with pytest.raises(ValueError):
        parse_laurent(text)


@given(polys, polys)
def test_divexact(f, g):
    if g:
        assert (f * g).divexact(g) == f


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        lp({0: 1, 1: 1}).divexact(lp({0: 1, 2: 1}))


@given(polys, polys, polys)
def test_gcd_divides(f, g, h):
    d = laurent_gcd(f * h, g * h)
    if f * h or g * h:
        if f * h:
            (f * h).divexact(d)
        if g * h:
            (g * h).divexact(d)
        if h:
            # the common factor must divide the gcd
            d.divexact(laurent_gcd(h, h))


def test_unit_inverse():
    u = lp({3: Fraction(2)})
    assert u * u.unit_inverse() == lp({0: 1})
    with pytest.raises(ZeroDivisionError):
        lp({0: 1, 1: 1}).unit_inverse()


def test_sqrt5_field():
    x = GOLDEN
    assert x * x == x + 1  # golden ratio identity
    assert (x / x) == Sqrt5(1)
    assert sqrt5_sign(x) == 1
    assert sqrt5_sign(Sqrt5(1) - x) == -1
    assert sqrt5_sign(Sqrt5(2, -1)) < 0  # 2 - sqrt5 < 0
    assert sqrt5_sign(Sqrt5(3, -1)) > 0  # 3 - sqrt5 > 0
    f = LaurentPoly({0: GOLDEN, 1: Sqrt5(1)})
    assert (f * f).coefficient(0) == GOLDEN * GOLDEN


def test_matrix_arithmetic_checks_shapes():
    a = LaurentMatrix.identity(2)
    b = LaurentMatrix(2, 3)
    with pytest.raises(ValueError):
        a + b
    assert (a @ b).cols == 3
    with pytest.raises(ValueError):
        b @ b


int_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-300, 300), max_size=6
).map(LaurentPoly)


@given(int_polys, int_polys)
def test_packed_form_is_exact_below_its_width(f, g):
    """pack, unpack, the valuation and every digit round-trip at the width of
    the largest coefficient, and the packed product at the width of the
    bound L1(f) * max|g| is the product of the packed factors."""
    offset = -6
    width = packed_width(max(map(abs, f.coeffs.values()), default=0))
    x = pack(f, width, offset)
    assert unpack(x, width, offset) == f
    assert packed_valuation(x, width) == (
        None if not f else f.valuation() - offset
    )
    assert [packed_digit(x, k, width) for k in range(14)] == [
        f.coeffs.get(k + offset, 0) for k in range(14)
    ]
    bound = l1_norm(f) * max(map(abs, g.coeffs.values()), default=0)
    width = packed_width(bound)
    product = pack(f, width, offset) * pack(g, width, offset)
    assert unpack(product, width, 2 * offset) == f * g
