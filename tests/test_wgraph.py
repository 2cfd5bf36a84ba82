"""W-graphs: matrices, validation routes, constructions, Omega matrices,
path-sum relations, compatibility graph, eigenspace label recovery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    braid_commutator_tau,
    eigenspace_label_multiplicities,
    omega_reconstruction,
    walk,
)

from coxkl import wgraph
from coxkl.blocks import intertwiner_space
from coxkl.coxeter import build_group
from coxkl.fixtures import b3_graphs, catalogue, reflection_graph, shared_engine
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly
from coxkl.scalars import Sqrt5
from coxkl.wgraph import (
    Representation,
    WGraph,
    braid_commutator_direct,
    compatibility_graph,
    dual_wgraph,
    is_geck,
    kl_left_cell_wgraphs,
    label_classes,
    kl_wgraph,
    omega_gy_relations_check,
    omega_matrices,
    parabolic_restrict,
    tau_poly,
    validate_wgraph,
    wgraph_cells,
    wgraph_from_json,
    wgraph_matrices,
    wgraph_to_json,
    word_products,
)


def c(x):
    return LaurentPoly({0: Fraction(x)})


def test_one_dimensional_matrices(a2):
    triv = WGraph(a2, [frozenset()], {})
    rep = wgraph_matrices(triv)
    assert rep.gens[0] == LaurentMatrix(1, 1, [[LaurentPoly({1: 1})]])
    sign = WGraph(a2, [frozenset({0, 1})], {})
    rep = wgraph_matrices(sign)
    assert rep.gens[1] == LaurentMatrix(1, 1, [[LaurentPoly({-1: -1})]])


def test_reflection_graph_braid(a2):
    g = reflection_graph(a2)
    assert [sorted(l) for l in g.labels] == [[0], [1]]
    assert g.weight(0, 0, 1) == c(-1) and g.weight(1, 1, 0) == c(-1)
    assert validate_wgraph(g).ok


def test_support_condition_enforced(a2):
    g = WGraph(a2, [frozenset({0}), frozenset({1})], {(1, 0, 1): c(1)})
    with pytest.raises(ValueError):
        wgraph_matrices(g)


def test_tau_poly():
    assert tau_poly(0) == [1]
    assert tau_poly(1) == [0, 1]
    assert tau_poly(2) == [-1, 0, 1]  # X^2 - 1
    assert tau_poly(3) == [0, -2, 0, 1]  # X^3 - 2X
    # parity: tau_r(-X) = (-1)^r tau_r(X)
    for r in range(6):
        coeffs = tau_poly(r)
        assert all(cf == 0 for i, cf in enumerate(coeffs) if (r - i) % 2)
        assert coeffs[-1] == 1


def test_commutator_routes_agree(a2, b3):
    for eng, g in ((a2, reflection_graph(a2)), (b3, b3_graphs()["chi7"])):
        rep = wgraph_matrices(g)
        for s in range(eng.datum.rank):
            for t in range(s + 1, eng.datum.rank):
                m = eng.datum.coxeter_matrix[s][t]
                zeta = LaurentPoly({1: 1, -1: -1})
                via_tau = braid_commutator_tau(rep.gens[s], rep.gens[t], m, zeta)
                direct = braid_commutator_direct(rep.gens[s], rep.gens[t], m)
                assert via_tau == direct
                assert direct.is_zero()


def test_validate_detects_perturbation(a2):
    g = reflection_graph(a2)
    bad = WGraph(a2, g.labels, dict(g.edges))
    bad.edges[(0, 0, 1)] = c(-2)
    report = validate_wgraph(bad)
    assert not report.ok
    assert any("braid" in f for f in report.failures)


def test_validate_rejects_perturbed_unequal_weight_graph():
    # unequal weights: only the direct route applies
    eng = build_group("I2(4):2,1")
    g = kl_wgraph(KLContext(eng))
    assert validate_wgraph(g).ok
    bad = WGraph(eng, g.labels, dict(g.edges))
    assert bad.edges[(0, 1, 3)] == LaurentPoly({-1: 1, 1: 1})
    bad.edges[(0, 1, 3)] = LaurentPoly({-1: 2, 1: 2})
    report = validate_wgraph(bad)
    assert not report.ok
    assert report.failures == ["braid relation fails for pair (0,1)"]


rationals = st.sampled_from([1, -1, 2, -3]).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
coefficients = rationals | st.builds(Sqrt5, rationals, rationals)


@st.composite
def support_respecting_graphs(draw):
    """A W-graph on 1..5 vertices over an equal- or unequal-weight group,
    with random labels and, on each (s, x, y) with s in I(x) minus I(y), a
    random Laurent weight over Q or Q(sqrt 5), or none."""
    eng = shared_engine(draw(st.sampled_from(
        ["A3", "B3:2,1,1", "I2(5)", "H3", "I2(4):3,1", "D4"]
    )))
    rank = eng.datum.rank
    d = draw(st.integers(1, 5))
    labels = [draw(st.frozensets(st.integers(0, rank - 1))) for _ in range(d)]
    weights = st.dictionaries(st.integers(-3, 3), coefficients, max_size=3)
    edges = {
        (s, x, y): LaurentPoly(draw(weights))
        for s in range(rank)
        for x in range(d)
        for y in range(d)
        if s in labels[x] - labels[y] and draw(st.booleans())
    }
    return WGraph(eng, labels, edges)


@settings(max_examples=60, deadline=None)
@given(support_respecting_graphs())
def test_the_support_condition_implies_the_quadratic_relations(g):
    """`validate_wgraph` checks the support condition and leaves the
    quadratic relations T_s^2 = 1 + (v_s - v_s^-1) T_s to the argument in
    its docstring; here they are multiplied out, for every weight."""
    rep = wgraph_matrices(g)
    ident = LaurentMatrix.identity(rep.dim)
    for s, t in enumerate(rep.gens):
        ls = g.engine.generator_weight(s)
        assert t @ t == ident + t.scale(LaurentPoly({ls: 1, -ls: -1}))


@settings(max_examples=60, deadline=None)
@given(support_respecting_graphs())
def test_the_support_condition_fixes_the_eigenspace_multiplicities(g):
    """`coxkl labels` reports the label multiset as the eigenspace
    multiplicities, by the support condition alone; Laurent elimination of
    the -v_s^-1-eigenspaces agrees whether or not the braid relations hold."""
    assert eigenspace_label_multiplicities(wgraph_matrices(g)) == g.label_multiset()


def test_an_arrow_against_the_support_condition_moves_a_label(a2):
    """Labels [{0}, {0}] with an arrow 1 -> 0 for s = 0 break the support
    condition, and the eigenspace multiplicities are no longer the labels:
    rho(T_0) = [[-v^-1, 1], [0, -v^-1]] has a one-dimensional
    -v^-1-eigenspace."""
    labels = [frozenset({0}), frozenset({0})]
    g = WGraph(a2, labels, {(0, 0, 1): c(1)})
    assert not validate_wgraph(g).ok
    minus, one = LaurentPoly({-1: -1}), c(1)
    rep = Representation(a2, [
        LaurentMatrix(2, 2, [[minus, one], [LaurentPoly(), minus]]),
        LaurentMatrix.identity(2).scale(LaurentPoly({1: 1})),
    ])
    assert g.label_multiset() == {frozenset({0}): 2}
    assert eigenspace_label_multiplicities(rep) == {
        frozenset(): 1,
        frozenset({0}): 1,
    }


def test_is_geck():
    b3 = build_group("B3:2,1,1")
    g = WGraph(b3, [frozenset({0}), frozenset({1})], {(0, 0, 1): c(1)})
    ok, _ = is_geck(g)
    assert ok
    g2 = WGraph(
        b3,
        [frozenset({0}), frozenset({1})],
        {(0, 0, 1): LaurentPoly({1: 1, -1: 1})},
    )
    ok2, _ = is_geck(g2)  # palindromic, exponents within (-2, 2)
    assert ok2
    g3 = WGraph(
        b3,
        [frozenset({1}), frozenset({0})],
        {(1, 0, 1): LaurentPoly({1: 1, -1: 1})},
    )
    ok3, diag3 = is_geck(g3)  # L(s1) = 1: the degree bound fails
    assert not ok3 and diag3
    g4 = WGraph(b3, [frozenset({0}), frozenset({1})], {(0, 0, 1): LaurentPoly({1: 1})})
    ok4, diag4 = is_geck(g4)  # v^1 is not palindromic
    assert not ok4


def test_dual(a2):
    g = reflection_graph(a2)
    d = dual_wgraph(g)
    assert [sorted(l) for l in d.labels] == [[1], [0]]
    assert validate_wgraph(d).ok
    dd = dual_wgraph(d)
    assert dd.labels == g.labels and dd.edges == g.edges
    triv = WGraph(a2, [frozenset()], {})
    assert dual_wgraph(triv).labels == [frozenset({0, 1})]
    # dual matrices realize the twisted transpose of rho(T_s)^-1, which is
    # rho(T_s) - (v_s - v_s^-1)
    rep = wgraph_matrices(g)
    drep = wgraph_matrices(d)
    zeta = LaurentMatrix.identity(2).scale(LaurentPoly({1: 1, -1: -1}))
    for s in range(2):
        assert drep.gens[s] == (zeta - rep.gens[s]).transpose()


def test_dual_chi7_is_chi8():
    graphs = b3_graphs()
    d = dual_wgraph(graphs["chi7"])
    chi8 = graphs["chi8"]
    # equal up to vertex relabeling: match by sorting labels
    perm = {i: chi8.labels.index(l) for i, l in enumerate(d.labels)}
    remapped = {
        (s, perm[x], perm[y]): w for (s, x, y), w in d.edges.items()
    }
    assert sorted(d.labels, key=sorted) == sorted(chi8.labels, key=sorted)
    assert remapped == chi8.edges


def test_parabolic_restrict():
    g = b3_graphs()["chi7"]
    whole, eng, order = parabolic_restrict(g, frozenset({0, 1, 2}))
    assert eng is g.engine and whole.edges == g.edges
    sub, sub_eng, order = parabolic_restrict(g, frozenset({1, 2}))
    assert sub_eng.datum.name == "A2"
    assert validate_wgraph(sub).ok
    empty, _, _ = parabolic_restrict(g, frozenset())
    assert all(l == frozenset() for l in empty.labels)


def test_restrictions_share_the_engine_of_their_parabolic():
    """chi7 and chi8 of B3 restrict to {1, 2} over one A2 engine, and to the
    disconnected {0, 2} (no catalogue type) over one engine too, so the
    restrictions can be intertwined: their Hom spaces have dimension 1 and
    2.  A weighted parent gives its restriction another engine."""
    graphs = b3_graphs()
    for j, engine, dim in (({1, 2}, shared_engine("A2"), 1), ({0, 2}, None, 2)):
        (r7, e7, _), (r8, e8, _) = (
            parabolic_restrict(graphs[k], frozenset(j)) for k in ("chi7", "chi8")
        )
        assert e7 is e8 is (engine or e7)
        assert len(intertwiner_space(wgraph_matrices(r7), wgraph_matrices(r8))) == dim
    weighted = WGraph(shared_engine("B3:2,1,1"), [frozenset()], {})
    _, ew, _ = parabolic_restrict(weighted, frozenset({0, 2}))
    assert ew is not e7 and ew.datum.weights == [2, 1] and e7.datum.weights == [1, 1]


def test_json_loads_of_one_graph_compare_equal():
    """Loads of one file, however its group is spelled, share an engine."""
    g = b3_graphs()["chi7"]
    data = wgraph_to_json(g)
    assert wgraph_from_json(data) == wgraph_from_json(data) == g
    data["group"] = "B3:1,1,1"
    assert wgraph_from_json(data) == g


def test_wgraph_cells(a2, kl_a2):
    # no edges -> one cell per vertex
    g = WGraph(a2, [frozenset(), frozenset({0, 1})], {})
    assert len(wgraph_cells(g)) == 2
    full = kl_wgraph(kl_a2)
    parts = wgraph_cells(full)
    cell_sets = {
        frozenset(a2.elements[v] for v in verts) for _, verts in parts
    }
    assert cell_sets == {frozenset(b) for b in kl_a2.cells("left").blocks}
    for cg, _ in parts:
        assert validate_wgraph(cg).ok


def test_kl_wgraph(kl_a2):
    eng = kl_a2.engine
    g = kl_wgraph(kl_a2)
    assert g.labels[eng.identity.index] == frozenset()
    assert g.labels[eng.w0.index] == frozenset({0, 1})
    assert validate_wgraph(g).ok
    ok, _ = is_geck(g)
    assert ok
    for w in g.edges.values():
        ct = w.constant_term()
        assert w == LaurentPoly({0: ct})  # integer (constant) weights
        assert Fraction(ct).denominator == 1


def test_kl_wgraph_multiparameter():
    # unequal weights produce genuinely non-constant palindromic edge weights
    eng = build_group("I2(4):2,1")
    kl = KLContext(eng)
    g = kl_wgraph(kl)
    assert validate_wgraph(g).ok
    ok, diag = is_geck(g)
    assert ok, diag
    assert any(len(w.coeffs) > 1 for w in g.edges.values())


def test_representation_walk_matches_word_products(kl_a2):
    from coxkl.fixtures import reflection_graph

    g = reflection_graph(kl_a2.engine)
    rep = wgraph_matrices(g)
    seen = {}
    for w, m in walk(rep):
        assert w not in seen
        seen[w] = m
        assert m == rep.t_matrix(w)
    assert len(seen) == kl_a2.engine.order


@pytest.mark.parametrize("name", ["a2_refl", "b3_chi7"])
def test_word_products_are_the_t_matrices_of_the_prefixes(a2, name):
    """Each prefix product along a canonical word is rho(T_x) of the
    prefix's element x, by `t_matrix` and by the walk oracle; the empty
    word gives the identity alone."""
    g = reflection_graph(a2) if name == "a2_refl" else b3_graphs()["chi7"]
    eng, rep = g.engine, wgraph_matrices(g)
    oracle = dict(walk(rep))
    assert list(word_products(rep.gens, [])) == [LaurentMatrix.identity(g.size)]
    for w in eng.elements:
        word = eng.reduced_word(w)
        prods = list(word_products(rep.gens, word))
        assert len(prods) == len(word) + 1
        for k, m in enumerate(prods):
            x = eng.from_word(word[:k])
            assert m == rep.t_matrix(x) == oracle[x], (w, k)


def test_omega_matrices(kl_a2):
    for g in (kl_wgraph(kl_a2), reflection_graph(kl_a2.engine)):
        om = omega_matrices(g)
        d = g.size
        for s in range(2):
            assert om.e[s] @ om.e[s] == om.e[s]
            assert om.e[s] @ om.x[s] == om.x[s]
            assert (om.x[s] @ om.e[s]).is_zero()
        # e_s is the diagonal projection onto the vertices labelled by s,
        # and x_s maps J-labelled vertices to I-labelled ones only when
        # s is in I and not in J
        for s in range(2):
            assert om.e[s] == LaurentMatrix.from_scalar_rows(
                [[int(i == j and s in g.labels[i]) for j in range(d)]
                 for i in range(d)]
            )
            for i in range(d):
                for j in range(d):
                    if om.x[s].entries[i][j]:
                        assert s in g.labels[i] and s not in g.labels[j]
        rep = omega_reconstruction(g, om)
        direct = wgraph_matrices(g)
        assert all(rep.gens[s] == direct.gens[s] for s in range(2))


def test_omega_gy_relations(kl_a2, kl_a3):
    g = kl_wgraph(kl_a2)
    assert omega_gy_relations_check(g).ok
    # explicit alpha relation on the reflection graph: X_{12} X_{21} = E_1,
    # the ({0}, {0}) block of x_0 x_1 (the only other label is {1})
    refl = reflection_graph(kl_a2.engine)
    om = omega_matrices(refl)
    classes = label_classes(refl.labels)
    assert set(classes) == {frozenset({0}), frozenset({1})}
    prod = om.x[0] @ om.x[1]
    rows = classes[frozenset({0})]
    assert [[prod.entries[i][j] for j in rows] for i in rows] == [
        [c(1) if i == j else LaurentPoly() for j in rows] for i in rows
    ]
    ga3 = kl_wgraph(kl_a3)
    assert omega_gy_relations_check(ga3).ok
    # single-vertex graphs pass vacuously
    triv = WGraph(kl_a2.engine, [frozenset()], {})
    assert omega_gy_relations_check(triv).ok


def test_omega_gy_needs_equal_parameters():
    eng = build_group("B3:2,1,1")
    g = WGraph(eng, [frozenset()], {})
    with pytest.raises(ValueError):
        omega_gy_relations_check(g)


def test_compatibility_graph(a3):
    cg = compatibility_graph(a3.datum)
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
    # inclusions I > J always give an edge, and they are the edges that
    # are not transversal
    subsets = cg.vertices
    assert cg.edges - cg.transversal == {
        (i, j) for i in subsets for j in subsets if j < i
    }
    i2 = build_group("I2(5)")
    cg2 = compatibility_graph(i2.datum)
    pairs2 = {
        tuple(sorted((tuple(sorted(i)), tuple(sorted(j)))))
        for (i, j) in cg2.transversal
    }
    assert pairs2 == {((0,), (1,))}


def test_eigenspace_label_multiplicities(a2):
    triv = WGraph(a2, [frozenset()], {})
    rep = wgraph_matrices(triv)
    assert eigenspace_label_multiplicities(rep) == {frozenset(): 1}
    for name in ("a2_refl", "b3_chi7", "b3_chi9", "a3_ext2"):
        g = catalogue()[name]
        rep = wgraph_matrices(g)
        assert eigenspace_label_multiplicities(rep) == g.label_multiset()
    chi7 = catalogue()["b3_chi7"]
    assert eigenspace_label_multiplicities(wgraph_matrices(chi7)) == {
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
    }


def test_eigenspace_matches_e_s_projection(a2):
    # the -v_s^-1 eigenspace of rho(T_s) is exactly the image of e_s
    from coxkl.laurent import LaurentMatrix as LM
    from coxkl.linalg import laurent_kernel

    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    om = omega_matrices(g)
    for s in range(2):
        ls = a2.generator_weight(s)
        cond = rep.gens[s] + LM.identity(rep.dim).scale(LaurentPoly({-ls: 1}))
        ker = laurent_kernel(LM(rep.dim, rep.dim, cond.entries))
        rank_e = sum(1 for i in range(rep.dim) if om.e[s].entries[i][i])
        assert len(ker) == rank_e
        # containment: e_s fixes every kernel vector
        for vec in ker:
            img = [
                sum(
                    (om.e[s].entries[i][j] * vec[j] for j in range(rep.dim)),
                    LaurentPoly(),
                )
                for i in range(rep.dim)
            ]
            assert img == list(vec)


def test_all_fixtures_validate():
    for name, g in catalogue().items():
        assert validate_wgraph(g).ok, name
        ok, diag = is_geck(g)
        assert ok, (name, diag)


def test_cells_of_fixture_cells_are_wgraphs(kl_a3):
    full = kl_wgraph(kl_a3)
    for cg, _ in wgraph_cells(full):
        assert validate_wgraph(cg).ok
    cell_sets = {
        frozenset(kl_a3.engine.elements[v] for v in verts)
        for _, verts in wgraph_cells(full)
    }
    assert cell_sets == {frozenset(b) for b in kl_a3.cells("left").blocks}


@pytest.mark.parametrize("name", ["kl_a3", "kl_b3", "kl_b3w"])
def test_kl_left_cell_wgraphs_cut_along_kl_cells(request, monkeypatch, name):
    """The blocks come from `KLContext.cells("left")`, not from a second
    component search; `wgraph_cells` of the full KL W-graph is the
    reference route."""
    kl = request.getfixturevalue(name)
    elements = kl.engine.elements
    reference = [
        (cg, [elements[v] for v in verts])
        for cg, verts in wgraph_cells(kl_wgraph(kl))
    ]
    monkeypatch.setattr(wgraph, "wgraph_cells", None)
    cut = kl_left_cell_wgraphs(kl)
    assert [els for _, els in cut] == kl.cells("left").blocks
    assert cut == reference


def test_arrow_blocks_respect_compatibility():
    # nonzero X^s_{IJ} on transversal label pairs needs the complete
    # bipartite bond pattern between I \ J and J \ I
    for name, g in catalogue().items():
        cg = compatibility_graph(g.engine.datum)
        for s, x, y in g.edges:
            i_lab, j_lab = g.labels[x], g.labels[y]
            assert (i_lab, j_lab) in cg.edges, (name, i_lab, j_lab)
