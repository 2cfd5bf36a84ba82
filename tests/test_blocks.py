"""Block structure: diagonal congruences, label recovery, intertwiners,
residue block reports and isomorphism certificates."""

from fractions import Fraction

import pytest
from oracles import a_bound_check, direct_sum

from coxkl.balance import gram_invariant_form
from coxkl.blocks import (
    block_report,
    intertwiner_space,
    label_multiset_from_character,
    omega_iso_certificate,
    tw_diagonal_congruence,
)
from coxkl.coxeter import build_group
from coxkl.fixtures import b3_chi9_conjugate, b3_graphs, catalogue, reflection_graph
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly
from coxkl.wgraph import WGraph, kl_wgraph, wgraph_matrices


def test_congruence_identity_and_generators(kl_a2):
    g = kl_wgraph(kl_a2)
    eng = kl_a2.engine
    r = tw_diagonal_congruence(g, eng.identity)
    assert r.ok
    assert all(r.residue[i][i] == 1 for i in range(g.size))
    r = tw_diagonal_congruence(g, eng.simple[0])
    assert r.ok
    for i in range(g.size):
        expected = -1 if 0 in g.labels[i] else 0
        assert r.residue[i][i] == expected


def test_congruence_all_a2(kl_a2):
    g = kl_wgraph(kl_a2)
    for w in kl_a2.engine.elements:
        assert tw_diagonal_congruence(g, w).ok, w


def all_reduced_words(eng, w):
    if w == eng.identity:
        yield []
        return
    for s in sorted(eng.left_descent_set(w)):
        for rest in all_reduced_words(eng, eng.simple[s] * w):
            yield [s] + rest


def test_congruence_reduced_word_independent(kl_a2, kl_b3):
    g = kl_wgraph(kl_a2)
    eng = kl_a2.engine
    for w in eng.elements:
        for word in all_reduced_words(eng, w):
            assert tw_diagonal_congruence(g, w, word=word).ok, (w, word)
    bad = tw_diagonal_congruence(g, eng.w0, word=[0, 1])
    assert not bad.ok
    gb = kl_wgraph(kl_b3)
    for w in kl_b3.engine.elements:
        if w.length() <= 3:
            for word in all_reduced_words(kl_b3.engine, w):
                assert tw_diagonal_congruence(gb, w, word=word).ok, (w, word)


@pytest.mark.parametrize("group", ["B3:2,1,1", "B3:1,2,2", "I2(6):3,1"])
def test_congruence_with_unequal_weights(group):
    """v^L(w) omega(T_w) for unequal weights: every w, and every reduced
    word of the w with l(w) <= 3."""
    eng = build_group(group)
    g = kl_wgraph(KLContext(eng))
    for w in eng.elements:
        assert tw_diagonal_congruence(g, w).ok, w
        if w.length() <= 3:
            for word in all_reduced_words(eng, w):
                assert tw_diagonal_congruence(g, w, word=word).ok, (w, word)


def test_congruence_chi7_unsupported_word(b3):
    g = b3_graphs()["chi7"]
    eng = g.engine
    w = eng.simple[1] * eng.simple[2]
    r = tw_diagonal_congruence(g, w)
    assert r.ok
    # labels are singletons so supp(w) = {1,2} is contained in none: zero
    assert all(r.residue[i][i] == 0 for i in range(g.size))


def test_congruence_b3_short_words(kl_b3):
    g = kl_wgraph(kl_b3)
    for w in kl_b3.engine.elements:
        if w.length() <= 3:
            assert tw_diagonal_congruence(g, w).ok, w


def test_label_multiset_examples(a2):
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    assert label_multiset_from_character(triv) == {frozenset(): 1}
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    assert label_multiset_from_character(sign) == {frozenset({0, 1}): 1}
    chi7 = wgraph_matrices(b3_graphs()["chi7"])
    assert label_multiset_from_character(chi7) == {
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
    }


def test_label_multiset_all_fixtures():
    for name, g in catalogue().items():
        rep = wgraph_matrices(g)
        assert label_multiset_from_character(rep) == g.label_multiset(), name


def test_a_bound(a2):
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    r = a_bound_check(sign, {frozenset({0, 1}): 1})
    assert r.ok and r.slack == 0 and r.a_value == 3
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    r = a_bound_check(triv, {frozenset(): 1})
    assert r.ok and r.a_value == 0 and r.bound == 0
    chi7 = b3_graphs()["chi7"]
    rep = wgraph_matrices(chi7)
    r = a_bound_check(rep, chi7.label_multiset())
    assert r.ok and r.a_value == 1 and r.bound == 1 and r.slack == 0


def test_intertwiner_space(a2):
    refl = wgraph_matrices(reflection_graph(a2))
    space = intertwiner_space(refl, refl)
    assert len(space) == 1
    a = space[0]
    assert a.is_constant()
    # identity direction
    assert a == LaurentMatrix.identity(2)
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    assert intertwiner_space(triv, sign) == []


def test_intertwiner_recovers_conjugation(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    m = LaurentMatrix.from_scalar_rows([[Fraction(3), 0], [0, Fraction(5)]])
    m_inv = LaurentMatrix.from_scalar_rows(
        [[Fraction(1, 3), 0], [0, Fraction(1, 5)]]
    )
    rep2 = rep.conjugate(m, m_inv)
    space = intertwiner_space(rep2, rep)
    assert len(space) == 1
    a = space[0]
    # spans the conjugator up to the canonical unit normalization
    assert a.entries[0][0] * m.entries[1][1] == a.entries[1][1] * m.entries[0][0]


def test_block_report_identity():
    ident = LaurentMatrix.identity(3)
    labels = [frozenset({0}), frozenset({1}), frozenset({2})]
    r = block_report(ident, labels, labels)
    assert r.diagonal and r.triangular


def test_block_report_flags():
    labels = [frozenset({0, 1}), frozenset({0})]
    m = LaurentMatrix.from_scalar_rows([[Fraction(1), Fraction(1)], [0, Fraction(1)]])
    r = block_report(m, labels, labels)
    # the nonzero off block has row label {0,1} containing column label {0}
    assert not r.diagonal and r.triangular
    m2 = LaurentMatrix.from_scalar_rows([[Fraction(1), 0], [Fraction(1), Fraction(1)]])
    r2 = block_report(m2, labels, labels)
    assert not r2.diagonal and not r2.triangular
    with pytest.raises(ValueError):
        block_report(m.scale(LaurentPoly({1: 1})), labels, labels)


def test_block_report_keeps_only_nonzero_off_label_blocks():
    """Of the six off-label blocks only ({0}, {0,1}) has a nonzero residue;
    its column label is not inside its row label."""
    labels = [frozenset({0, 1}), frozenset({0}), frozenset({1})]
    m = LaurentMatrix.from_scalar_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    r = block_report(m, labels, labels)
    assert r.offdiag_residues == {(frozenset({0}), frozenset({0, 1})): [[1]]}
    assert not r.diagonal and not r.triangular


def test_chi9_pair_blocks():
    g1 = b3_graphs()["chi9"]
    g2 = b3_chi9_conjugate()
    r1 = wgraph_matrices(g1)
    r2 = wgraph_matrices(g2)
    space = intertwiner_space(r1, r2)
    assert space
    for a in space:
        r = block_report(a, g2.labels, g1.labels)
        assert r.diagonal
    cert = omega_iso_certificate(g1, g2, space)
    assert cert is not None and cert.ok
    assert all(v == 0 for v in cert.residuals.values())


def test_identity_pair_certificate():
    g = b3_graphs()["chi9"]
    rep = wgraph_matrices(g)
    cert = omega_iso_certificate(g, g, intertwiner_space(rep, rep))
    assert cert.ok and cert.matrix == LaurentMatrix.identity(3)


def test_certificate_absent_for_distinct_characters(a2):
    triv = WGraph(a2, [frozenset()], {})
    sign = WGraph(a2, [frozenset({0, 1})], {})
    space = intertwiner_space(wgraph_matrices(triv), wgraph_matrices(sign))
    assert omega_iso_certificate(triv, sign, space) is None


def test_gram_forms_block_diagonal():
    for name in ("b3_chi5", "b3_chi7", "b3_chi9", "b3_chi10", "a3_refl", "a3_ext2"):
        g = catalogue()[name]
        rep = wgraph_matrices(g)
        form = gram_invariant_form(rep)
        r = block_report(form, g.labels, g.labels)
        assert r.diagonal, name


def test_repeated_label_intertwiners_block_diagonal(a2):
    # reducible pair with repeated labels: refl + refl
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    double = direct_sum(rep, rep)
    labels = list(g.labels) + list(g.labels)
    space = intertwiner_space(double, double)
    assert len(space) == 4  # Schur: 2x2 copies of scalars
    for a in space:
        r = block_report(a, labels, labels)
        assert r.diagonal
