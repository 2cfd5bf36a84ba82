"""Exact linear algebra: the v = 1 rank certificate and its Bareiss fallback."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import coxkl.linalg as linalg
from coxkl.asymptotic import irreducible_reps_from_graphs
from coxkl.balance import gram_invariant_form
from coxkl.fixtures import b3_graphs, shared_engine
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly
from coxkl.linalg import _jordan_echelonize, laurent_rank
from coxkl.scalars import GOLDEN
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
        assert not form.singular
    assert bareiss_calls == []


def test_golden_gram_form_is_certified_at_one(bareiss_calls):
    """The I2(5) reflection module has weights -phi, so its form lives over
    Q(sqrt 5)."""
    eng = shared_engine("I2(5)")
    w = LaurentPoly({0: -GOLDEN})
    g = WGraph(eng, [frozenset({0}), frozenset({1})], {(0, 0, 1): w, (1, 1, 0): w})
    omega = gram_invariant_form(wgraph_matrices(g)).matrix
    assert laurent_rank(omega) == 2
    assert bareiss_calls == []
    assert bareiss_rank(omega) == 2


def test_gram_forms_of_b3_table_graphs_match_bareiss():
    for rep, data in irreducible_reps_from_graphs(b3_graphs().values()):
        omega = data.form.matrix
        assert laurent_rank(omega) == bareiss_rank(omega) == rep.dim
