"""Acceptance suite: one test per criterion, exact assertions, timed where
the criterion states a budget.  Each test prints its pass line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import time
from fractions import Fraction
from itertools import product

import pytest
from oracles import (
    braid_commutator_tau,
    eigenspace_label_multiplicities,
    is_balanced,
    jdata_from_cells,
    strictify,
)
from tbasis import TBasis

from coxkl.asymptotic import (
    JElement,
    cell_basis,
    cell_representation,
    irreducible_cell_reps,
    j_multiply,
    verify_cell_axioms,
)
from coxkl.balance import (
    a_value,
    balance,
    gram_invariant_form,
    leading_coefficients,
)
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
from coxkl.laurent import LaurentMatrix, LaurentPoly, ONE
from coxkl.wgraph import (
    WGraph,
    braid_commutator_direct,
    compatibility_graph,
    kl_left_cell_wgraphs,
    kl_wgraph,
    omega_gy_relations_check,
    omega_matrices,
    validate_wgraph,
    wgraph_matrices,
)


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_01_dihedral_kl():
    start = time.time()
    for m in (3, 4, 5, 6):
        eng = build_group(f"I2({m})")
        kl = KLContext(eng)
        for y in eng.elements:
            for w in eng.elements:
                if eng.bruhat_le(y, w):
                    assert kl.kl_polynomial(y, w) == ONE, (m, y, w)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"dihedral run took {elapsed:.2f}s"
    _report(1, f"dihedral P=1 for m=3..6 in {elapsed:.2f}s")


def test_criterion_02_w0_column(kl_a3, kl_b3, kl_b3w):
    start = time.time()
    for kl in (kl_a3, kl_b3, kl_b3w):
        eng = kl.engine
        for x in eng.elements:
            assert kl.kl_polynomial(x, eng.w0) == ONE, (eng.datum.name, x)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, f"P(x, w0) = 1 in A3, B3, B3:2,1,1 in {elapsed:.2f}s")


def test_criterion_03_c_basis_oracle(kl_a2, kl_b3):
    start = time.time()
    for kl in (kl_a2, kl_b3):
        tb = TBasis(kl)
        for w in kl.engine.elements:
            c = kl.c_basis(w)
            oracle = tb.c_basis_by_bar_fixed_point(w)
            assert c == oracle, w
            assert tb.hecke_bar(c) == c
            assert c[w] == ONE
            for y, coeff in c.items():
                if y != w:
                    assert coeff.valuation() > 0
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"C-basis equals the bar fixed point on A2 and B3 in {elapsed:.2f}s")


def test_criterion_04_parity(kl_b3w):
    eng = kl_b3w.engine
    for y in eng.elements:
        for w in eng.elements:
            p = kl_b3w.kl_polynomial(y, w)
            assert all(k % 2 == 0 for k in p.coeffs), (y, w)
    _report(4, "P(y, w) has even support for all 48x48 pairs of B3:2,1,1")


def test_criterion_05_b3_table_validation():
    graphs = b3_graphs()
    assert len(graphs) == 10
    for name, g in graphs.items():
        rep = validate_wgraph(g)
        assert rep.ok, (name, rep.failures)
        # tau route vs direct alternating products, entrywise
        mats = wgraph_matrices(g)
        eng = g.engine
        for s in range(3):
            for t in range(s + 1, 3):
                m = eng.datum.coxeter_matrix[s][t]
                zeta = LaurentPoly({1: 1, -1: -1})
                via_tau = braid_commutator_tau(mats.gens[s], mats.gens[t], m, zeta)
                direct = braid_commutator_direct(mats.gens[s], mats.gens[t], m)
                assert via_tau == direct
                assert direct.is_zero()
    _report(5, "all ten B3 graphs pass; tau and direct routes agree entrywise")


def test_criterion_06_eigenspace_vs_character():
    for name, g in catalogue().items():
        rep = wgraph_matrices(g)
        eig = eigenspace_label_multiplicities(rep)
        char = label_multiset_from_character(rep)
        assert eig == char == g.label_multiset(), name
    chi7 = catalogue()["b3_chi7"]
    assert eigenspace_label_multiplicities(wgraph_matrices(chi7)) == {
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
    }
    _report(6, "eigenspace and character label multisets agree on every fixture")


def test_criterion_07_diagonal_congruence(kl_a2, kl_b3):
    g_a2 = kl_wgraph(kl_a2)
    for w in kl_a2.engine.elements:
        assert tw_diagonal_congruence(g_a2, w).ok, w
    for name in ("a2_refl", "a2_trivial", "a2_sign"):
        g = catalogue()[name]
        for w in g.engine.elements:
            assert tw_diagonal_congruence(g, w).ok, (name, w)
    g_b3 = kl_wgraph(kl_b3)
    short = [w for w in kl_b3.engine.elements if w.length() <= 3]
    for w in short:
        assert tw_diagonal_congruence(g_b3, w).ok, w
    table = b3_graphs()
    eng_t = next(iter(table.values())).engine
    short_t = [w for w in eng_t.elements if w.length() <= 3]
    for name, g in table.items():
        for w in short_t:
            assert tw_diagonal_congruence(g, w).ok, (name, w)
    _report(7, "v^L(w) omega(T_w) diagonal congruence on A2 (all) and B3 (l<=3)")


def test_criterion_08_balancing(kl_a2, kl_a3):
    for kl in (kl_a2, kl_a3):
        for cgraph, _ in kl_left_cell_wgraphs(kl):
            rep = wgraph_matrices(cgraph)
            a = a_value(rep)
            ok, _w = is_balanced(rep, a)
            assert ok, cgraph.labels
            if rep.dim < 2:
                continue
            # deliberately v-scaled conjugate
            scale = LaurentMatrix.identity(rep.dim)
            scale_inv = LaurentMatrix.identity(rep.dim)
            scale.entries[0][0] = LaurentPoly({3: 1})
            scale_inv.entries[0][0] = LaurentPoly({-3: 1})
            twisted = rep.conjugate(scale, scale_inv)
            ok_t, _w = is_balanced(twisted, a)
            assert not ok_t
            rep2, data = balance(twisted)
            ok2, _w = is_balanced(rep2, data.a_value)
            assert ok2 and data.a_value == a
            hist = data.degree_history
            assert all(x >= y for x, y in zip(hist, hist[1:])), hist
    _report(8, "cell modules balanced; scaled conjugates rebalance with "
               "monotone degrees")


def test_criterion_09_schur_relations(kl_a2, kl_a3):
    for kl, expected in ((kl_a2, 6), (kl_a3, 24)):
        eng = kl.engine
        jd = jdata_from_cells(kl)
        assert sum(ir.rep.dim ** 2 for ir in jd.reps) == expected == eng.order
        # (a) row orthogonality
        for i1, ir1 in enumerate(jd.reps):
            for i2, ir2 in enumerate(jd.reps):
                d1, d2 = ir1.rep.dim, ir2.rep.dim
                for s in range(d1):
                    for t in range(d1):
                        for u in range(d2):
                            for v in range(d2):
                                acc = Fraction(0)
                                for x in eng.elements:
                                    c1 = ir1.data.leading.get(x)
                                    c2 = ir2.data.leading.get(x.inverse())
                                    if c1 and c2:
                                        acc += c1[s][t] * c2[u][v]
                                if i1 == i2 and s == v and t == u:
                                    assert acc == ir1.f
                                else:
                                    assert acc == 0
        # (b) dual orthogonality
        for x in eng.elements:
            for y in eng.elements:
                acc = Fraction(0)
                for ir in jd.reps:
                    cx = ir.data.leading.get(x)
                    cy = ir.data.leading.get(y.inverse())
                    if cx and cy:
                        finv = Fraction(1) / Fraction(ir.f)
                        for s in range(ir.rep.dim):
                            for t in range(ir.rep.dim):
                                acc += finv * cx[s][t] * cy[t][s]
                assert acc == (1 if x == y else 0)
    _report(9, "leading-coefficient Schur relations exact on A2 and A3")


def test_criterion_10_j_axioms(kl_a2):
    start = time.time()
    eng = kl_a2.engine
    jd = jdata_from_cells(kl_a2)
    one = jd.unit()
    for x in eng.elements:
        tx = JElement.basis(x)
        assert j_multiply(one, tx, jd) == tx
        assert j_multiply(tx, one, jd) == tx
    for x, y, z in product(eng.elements, repeat=3):
        lhs = j_multiply(
            j_multiply(JElement.basis(x), JElement.basis(y), jd),
            JElement.basis(z),
            jd,
        )
        rhs = j_multiply(
            JElement.basis(x),
            j_multiply(JElement.basis(y), JElement.basis(z), jd),
            jd,
        )
        assert lhs == rhs
    for (x, y), row in jd.gamma.items():
        for z, val in row.items():
            assert jd.gamma_value(y, z, x) == val
    for x in eng.elements:
        for y in eng.elements:
            acc = sum(
                jd.gamma_value(x.inverse(), y, z) * jd.n.get(z, Fraction(0))
                for z in eng.elements
            )
            assert acc == (1 if x == y else 0)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(10, f"J axioms over all 216 A2 triples in {elapsed:.2f}s")


def test_criterion_11_cell_representation(kl_a2):
    eng = kl_a2.engine
    for rep, data in irreducible_cell_reps(kl_a2):
        psi = cell_representation(rep, data.a_value, data.leading, kl_a2)
        ident = LaurentMatrix.identity(psi.dim)
        for s in range(2):
            zeta = LaurentPoly({1: 1, -1: -1})
            assert psi.gens[s] @ psi.gens[s] == ident + psi.gens[s].scale(zeta)
        assert braid_commutator_direct(psi.gens[0], psi.gens[1], 3).is_zero()
        ok, _ = is_balanced(psi, data.a_value)
        assert ok
        for w in eng.elements:
            assert psi.character(w) == rep.character(w)
        assert leading_coefficients(psi) == (data.a_value, data.leading)
    _report(11, "psi is a balanced representation with matching character "
                "and leading table for each A2 cell")


def test_criterion_12_cell_basis(kl_a2):
    jd = jdata_from_cells(kl_a2)
    cd = cell_basis(jd.reps, kl_a2)
    assert len(cd.basis) == 6 and sorted(cd.dims) == [1, 1, 2]
    report = verify_cell_axioms(cd, kl_a2)
    assert report.ok, report.failures
    _report(12, "A2 cell basis (1 + 4 + 1 elements) satisfies (C1)-(C3)")


def _constructed_pairs():
    """Identity pair, seeded label-respecting constant conjugate, chi9 pair."""
    pairs = []
    chi7 = b3_graphs()["chi7"]
    pairs.append(("identity", chi7, chi7))
    a3 = build_group("A3")
    refl = reflection_graph(a3)
    diag = [Fraction(2), Fraction(5), Fraction(3)]
    om = omega_matrices(refl)
    edges = {}
    m = LaurentMatrix.from_scalar_rows(
        [[diag[0], 0, 0], [0, diag[1], 0], [0, 0, diag[2]]]
    )
    m_inv = LaurentMatrix.from_scalar_rows(
        [[1 / diag[0], 0, 0], [0, 1 / diag[1], 0], [0, 0, 1 / diag[2]]]
    )
    for s in range(3):
        xs = m_inv @ om.x[s] @ m
        for i in range(3):
            for j in range(3):
                if xs.entries[i][j]:
                    edges[(s, i, j)] = xs.entries[i][j]
    conj = WGraph(a3, refl.labels, edges)
    pairs.append(("a3-conjugate", refl, conj))
    pairs.append(("chi9", b3_graphs()["chi9"], b3_chi9_conjugate()))
    return pairs


def test_criterion_13_block_diagonality():
    for name, g1, g2 in _constructed_pairs():
        assert validate_wgraph(g2).ok, name
        r1 = wgraph_matrices(g1)
        r2 = wgraph_matrices(g2)
        space = intertwiner_space(r1, r2)
        assert space, name
        for a in space:
            rep = block_report(a, g2.labels, g1.labels)
            assert rep.diagonal, name
        for g, r in ((g1, r1), (g2, r2)):
            form = gram_invariant_form(r)
            rep = block_report(form, g.labels, g.labels)
            assert rep.diagonal, name
    _report(13, "intertwiners and invariant forms block diagonal mod m on "
                "3 constructed pairs")


def test_criterion_14_strictification(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    form = gram_invariant_form(rep)
    rep2, form2, _l = strictify(rep, form, list(g.labels))
    res = form2.residue()
    d = [res[i][i] for i in range(2)]
    assert all(d)
    assert all(not res[i][j] for i in range(2) for j in range(2) if i != j)
    a, table = leading_coefficients(rep2)
    assert a == a_value(rep2)
    for w in a2.elements:
        cw = table.get(w)
        cwi = table.get(w.inverse())
        if cw is None:
            assert cwi is None
            continue
        for s in range(2):
            for t in range(2):
                assert d[t] * cwi[t][s] == d[s] * cw[s][t], w
    _report(14, "strictified form diagonal mod m; d_t c(w^-1)_ts = d_s c(w)_st "
                "on the A2 reflection module")


def test_criterion_15_omega_gy_relations(kl_a3):
    g = kl_wgraph(kl_a3)
    report = omega_gy_relations_check(g)
    assert report.ok, report.failures
    cg = compatibility_graph(kl_a3.engine.datum)
    pairs = {
        tuple(sorted((tuple(sorted(i)), tuple(sorted(j)))))
        for (i, j) in cg.transversal
    }
    assert pairs == {
        ((0,), (1,)),
        ((1,), (2,)),
        ((0, 2), (1,)),
        ((0, 2), (1, 2)),
        ((0, 1), (0, 2)),
    }
    _report(15, f"(alpha),(beta),(gamma) hold on the A3 KL graph "
                f"({report.checked} identities); transversal edges match")


def test_criterion_16_omega_certificates():
    for name, g1, g2 in _constructed_pairs():
        space = intertwiner_space(wgraph_matrices(g1), wgraph_matrices(g2))
        cert = omega_iso_certificate(g1, g2, space)
        assert cert is not None and cert.ok, name
        assert all(v == 0 for v in cert.residuals.values()), name
    _report(16, "Omega-isomorphism certificates with zero residuals on all "
                "constructed pairs")
