"""Exact linear algebra: the v = 1 rank certificate and its Bareiss fallback,
and the sparse Gauss-Jordan over F against Bareiss ranks and the dense
inverse."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st
from oracles import GOLDEN

import coxkl.linalg as linalg
from coxkl.asymptotic import (
    cell_basis,
    irreducible_cell_reps,
    irreducible_data,
    irreducible_reps_from_graphs,
)
from coxkl.balance import gram_invariant_form
from coxkl.blocks import intertwiner_space
from coxkl.fixtures import b3_chi9_conjugate, b3_graphs, shared_engine
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly, laurent_gcd
from coxkl.linalg import (
    _jordan_echelonize,
    f_identity,
    f_mat_mul,
    f_mat_transpose,
    f_row_reduce,
    f_sparse_inverse,
    laurent_kernel,
    laurent_rank,
)
from coxkl.scalars import Sqrt5, scalar_inv
from coxkl.wgraph import WGraph, kl_left_cell_wgraphs, wgraph_matrices

V = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})

polys = st.dictionaries(
    st.integers(-2, 2), st.integers(-2, 2).map(Fraction), max_size=3
).map(LaurentPoly)


@st.composite
def laurent_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = draw(
        st.lists(st.lists(polys, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    return LaurentMatrix(rows, cols, entries)


def bareiss_rank(m: LaurentMatrix) -> int:
    return len(_jordan_echelonize([list(r) for r in m.entries]))


def assert_canonical(vec):
    """Content 1, valuation 0 and lowest term 1 in the first nonzero entry."""
    nonzero = [e for e in vec if e]
    assert reduce(laurent_gcd, nonzero, LaurentPoly()) == ONE
    assert min(e.valuation() for e in nonzero) == 0
    assert nonzero[0].lowest_term() == 1


@given(laurent_matrices())
def test_kernel_vectors_are_canonical(m):
    kernel = laurent_kernel(m)
    assert len(kernel) == m.cols - bareiss_rank(m)
    for vec in kernel:
        assert_canonical(vec)


def test_kernel_vector_loses_its_content_and_sign():
    # the Bareiss vector (v^2 - 1, 1 + v) has content 1 + v and lowest term -1
    m = LaurentMatrix(1, 2, [[ONE + V, ONE - V * V]])
    assert laurent_kernel(m) == [[ONE - V, -ONE]]


def test_kernel_vectors_of_intertwiner_systems_are_canonical(kl_b3):
    pairs = [(b3_graphs()["chi9"], b3_chi9_conjugate())]
    pairs += [(g, g) for g, _ in kl_left_cell_wgraphs(kl_b3) if g.size <= 4]
    for g1, g2 in pairs:
        r1, r2 = wgraph_matrices(g1), wgraph_matrices(g2)
        for a in intertwiner_space(r1, r2):
            assert_canonical([e for row in a.entries for e in row])


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return _jordan_echelonize(rows)

    monkeypatch.setattr(linalg, "_jordan_echelonize", spy)
    return calls


@given(laurent_matrices())
def test_rank_matches_bareiss(m):
    assert laurent_rank(m) == bareiss_rank(m)


def test_rank_falls_back_when_v_equals_one_is_degenerate(bareiss_calls):
    # det = v - 1: rank 1 at v = 1, rank 2 over F(v)
    m = LaurentMatrix(2, 2, [[V, ONE], [ONE, ONE]])
    assert laurent_rank(m) == 2
    assert bareiss_calls == [2]


def test_rank_of_a_singular_matrix(bareiss_calls):
    m = LaurentMatrix(2, 3, [[V, ONE, V * V], [V * V, V, V * V * V]])
    assert laurent_rank(m) == 1
    assert bareiss_calls == [2]


def test_full_rank_at_one_needs_no_elimination(bareiss_calls):
    m = LaurentMatrix(2, 3, [[V, ONE, LaurentPoly()], [ONE, V + V, ONE]])
    assert laurent_rank(m) == 2
    assert bareiss_calls == []


@pytest.mark.parametrize("group", ["A3", "I2(5)", "B3:2,1,1"])
def test_gram_forms_are_certified_at_one(group, bareiss_calls):
    """At v = 1 a Gram form is I plus a positive semidefinite matrix, so the
    certificate decides the form of every KL left-cell module."""
    kl = KLContext(shared_engine(group))
    for cgraph, _ in kl_left_cell_wgraphs(kl):
        form = gram_invariant_form(wgraph_matrices(cgraph))
        assert laurent_rank(form) == cgraph.size
    assert bareiss_calls == []


def test_golden_gram_form_is_certified_at_one(bareiss_calls):
    """The I2(5) reflection module has weights -phi, so its form lives over
    Q(sqrt 5)."""
    eng = shared_engine("I2(5)")
    w = LaurentPoly({0: -GOLDEN})
    g = WGraph(eng, [frozenset({0}), frozenset({1})], {(0, 0, 1): w, (1, 1, 0): w})
    omega = gram_invariant_form(wgraph_matrices(g))
    assert laurent_rank(omega) == 2
    assert bareiss_calls == []
    assert bareiss_rank(omega) == 2


def test_gram_forms_of_b3_table_graphs_match_bareiss():
    for rep, data in irreducible_reps_from_graphs(b3_graphs().values()):
        omega = data.form
        assert laurent_rank(omega) == bareiss_rank(omega) == rep.dim


# -- the inverse over F ---------------------------------------------------------


def dense_inverse(a):
    """Gauss-Jordan on dense rows of [a | I], pivoting on the first nonzero
    at or below the diagonal; raises ZeroDivisionError on singular input."""
    n = len(a)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, f_identity(n))]
    for c in range(n):
        pr = None
        for r in range(c, n):
            if work[r][c]:
                pr = r
                break
        if pr is None:
            raise ZeroDivisionError("singular matrix over F")
        work[c], work[pr] = work[pr], work[c]
        inv = scalar_inv(work[c][c])
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


rationals = st.sampled_from([0, 0, 0, 1, -1, 2, -3]).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
quadratics = st.builds(Sqrt5, rationals, rationals)


@st.composite
def square_matrices(draw):
    """A random, signed permutation or singular n x n matrix, n <= 6, over Q
    or Q(sqrt 5); returns (matrix, known_singular)."""
    n = draw(st.integers(1, 6))
    scalars = draw(st.sampled_from([rationals, quadratics]))
    kind = draw(st.sampled_from(["random", "signed permutation", "singular"]))
    if kind == "signed permutation":
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, (j, e) in enumerate(zip(perm, signs)):
            m[i][j] = Fraction(e)
        return m, False
    m = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular":
        # one row is a combination of the others (the zero row when n = 1)
        k = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(scalars, min_size=n, max_size=n))
        m[k] = [
            sum((coeffs[i] * m[i][j] for i in range(n) if i != k), Fraction(0))
            for j in range(n)
        ]
        return m, True
    return m, False


@st.composite
def scalar_matrices(draw):
    """A random r x c matrix, r, c <= 5, over Q or Q(sqrt 5); when r > 1 one
    row may be drawn as a combination of the others."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    scalars = draw(st.sampled_from([rationals, quadratics]))
    m = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(scalars, min_size=rows - 1, max_size=rows - 1))
        m[-1] = [
            sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0))
            for j in range(cols)
        ]
    return m


@given(scalar_matrices())
def test_rank_over_f_matches_bareiss(m):
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    pivots = f_row_reduce(rows, len(m[0]))
    constant = [[LaurentPoly({0: x}) for x in row] for row in m]
    assert len(pivots) == bareiss_rank(LaurentMatrix(len(m), len(m[0]), constant))
    # reduced echelon form: each pivot row is 1 at its pivot column and no
    # other row has a nonzero there
    for i, c in enumerate(pivots):
        assert [row.get(c, 0) for row in rows] == [int(r == i) for r in range(len(m))]


def sparse_inverse(a):
    """`f_sparse_inverse` on the nonzeros of a dense matrix, made dense."""
    inv = f_sparse_inverse([{j: x for j, x in enumerate(row) if x} for row in a])
    return [[row.get(j, 0) for j in range(len(a))] for row in inv]


@given(square_matrices())
def test_inverse_matches_dense_gauss_jordan(case):
    m, singular = case
    try:
        expected = dense_inverse(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            sparse_inverse(m)
        return
    assert not singular
    got = sparse_inverse(m)
    assert got == expected
    assert f_mat_mul(got, m) == f_identity(len(m))


def test_inverse_of_the_a4_cell_basis_matrix():
    """The A4 basis matrix is a signed permutation matrix of order 120, so its
    inverse is its transpose."""
    kl = KLContext(shared_engine("A4"))
    eng = kl.engine
    cd = cell_basis(irreducible_data(eng, irreducible_cell_reps(kl)), kl)
    mat = [
        [cd.basis[trip].get(w, Fraction(0)) for w in eng.elements]
        for trip in sorted(cd.basis)
    ]
    entries = [x for row in mat for x in row if x]
    assert len(mat) == 120 and len(entries) == 120
    assert set(entries) <= {1, -1}
    inv = sparse_inverse(mat)
    assert inv == f_mat_transpose(mat) == dense_inverse(mat)
