"""Balancing: Gram forms, a-values, the degree-safe base change, leading
tables and per-block strictification."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    GOLDEN,
    direct_sum,
    is_balanced,
    leading_by_walk,
    schur_f,
    strictify,
    walk,
)

from coxkl import wgraph
from coxkl.asymptotic import _schur_unit, class_character
from coxkl.balance import (
    NotBalancedError,
    VerificationError,
    _eliminate,
    a_value,
    balance,
    gram_invariant_form,
    leading_coefficients,
)
from coxkl.fixtures import (
    b3_graphs,
    catalogue,
    reflection_graph,
    shared_engine,
    trivial_graph,
)
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly
from coxkl.linalg import laurent_rank
from coxkl.scalars import Sqrt5, scalar_inv
from coxkl.wgraph import WGraph, kl_left_cell_wgraphs, wgraph_matrices


def test_gram_form_trivial(a2):
    triv = WGraph(a2, [frozenset()], {})
    rep = wgraph_matrices(triv)
    form = gram_invariant_form(rep)
    # sum_w v^{2 l(w)}, normalized: 1 + 2v^2 + 2v^4 + v^6
    assert form.entries[0][0] == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})
    assert laurent_rank(form) == 1


def test_gram_form_invariance_extends_to_all_w(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    omega = gram_invariant_form(rep)
    for w in a2.elements:
        m = rep.t_matrix(w)
        mi = rep.t_matrix(w.inverse())
        assert omega @ m == mi.transpose() @ omega


def test_a_value_oracle(a2):
    # independent route: multiply the 2x2 reflection matrices explicitly and
    # minimize the trace valuation over the six elements
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    words = [[], [0], [1], [0, 1], [1, 0], [0, 1, 0]]
    alpha = 0
    for word in words:
        m = LaurentMatrix.identity(2)
        for s in word:
            m = m @ rep.gens[s]
        v = m.trace().valuation()
        if v is not None:
            alpha = min(alpha, v)
    assert alpha == -1
    assert a_value(rep) == 1


def test_a_value_one_dims(a2):
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    assert a_value(triv) == 0
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    assert a_value(sign) == a2.weight(a2.w0) == 3


def test_balance_already_balanced(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    rep2, data = balance(rep)
    assert data.a_value == 1
    # pure residue-field step: Q is constant
    assert data.q.is_constant()
    ok, witness = is_balanced(rep2, 1)
    assert ok
    hist = data.degree_history
    assert all(a >= b for a, b in zip(hist, hist[1:]))


def test_balance_restores_scaled_conjugate(a3, kl_a3):
    for cgraph, _ in kl_left_cell_wgraphs(kl_a3):
        if cgraph.size < 2:
            continue
        rep = wgraph_matrices(cgraph)
        a = a_value(rep)
        d = rep.dim
        scale = LaurentMatrix.identity(d)
        scale_inv = LaurentMatrix.identity(d)
        scale.entries[0][0] = LaurentPoly({2: 1})
        scale_inv.entries[0][0] = LaurentPoly({-2: 1})
        twisted = rep.conjugate(scale, scale_inv)
        ok, witness = is_balanced(twisted, a)
        assert not ok and witness is not None
        rep2, data = balance(twisted)
        assert data.a_value == a
        ok2, _ = is_balanced(rep2, a)
        assert ok2
        hist = data.degree_history
        assert all(x >= y for x, y in zip(hist, hist[1:]))
        # Q Q^-1 = 1 and the conjugated form is the transported one
        assert data.q @ data.q_inv == LaurentMatrix.identity(d)
        break


@pytest.mark.parametrize("group", ["B2", "I2(5)", "I2(6)", "B3:2,1,1"])
def test_balance_undoes_monomial_base_changes(group):
    """A KL left cell conjugated by diag(v^e_1, ..., v^e_d) is balanced by a
    monomial base change followed by the cell's own, so `balance` balances
    it with the cell's a-value, wherever a rescaling step brings a residue
    back above an earlier pivot.  An elimination that leaves such residues
    refuses some of these conjugates on each of the four groups."""
    rng = random.Random(1)
    for cgraph, _ in kl_left_cell_wgraphs(KLContext(shared_engine(group))):
        rep = wgraph_matrices(cgraph)
        d, a = rep.dim, a_value(rep)
        for _ in range(6):
            shifts = [rng.randint(-4, 4) for _ in range(d)]
            q = LaurentMatrix.identity(d)
            q_inv = LaurentMatrix.identity(d)
            for i, e in enumerate(shifts):
                q.entries[i][i] = LaurentPoly({e: 1})
                q_inv.entries[i][i] = LaurentPoly({-e: 1})
            rep2, data = balance(rep.conjugate(q, q_inv))
            assert data.a_value == a and is_balanced(rep2, a)[0], shifts
            hist = data.degree_history
            assert all(x >= y for x, y in zip(hist, hist[1:])), shifts


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[{}, {0: 1}], [{0: 1}, {}]], "degenerate pivot chain at step 0"),
        ([[{1: 1}, {}], [{}, {0: 1}]], "half-integral scaling exponent at step 0"),
    ],
)
def test_balance_refusals_are_verification_failures(entries, message):
    form = LaurentMatrix(2, 2, [[LaurentPoly(e) for e in row] for row in entries])
    with pytest.raises(VerificationError, match=message):
        _eliminate(form)


def test_balance_refuses_a_singular_form_whose_pivot_keeps_vanishing():
    """B^Tr B for the row B = (v^2 + v^3, -1) is singular.  At step 1 each
    rescaling brings back the residue above pivot 0, and clearing it leaves
    Omega_11 = v^2 again; the determinant bound on the rescalings ends that
    cycle."""
    entries = [[{4: 1, 5: 2, 6: 1}, {2: -1, 3: -1}], [{2: -1, 3: -1}, {0: 1}]]
    form = LaurentMatrix(2, 2, [[LaurentPoly(e) for e in row] for row in entries])
    with pytest.raises(VerificationError, match="step 1: the form is singular"):
        _eliminate(form)


def test_leading_coefficients(a2):
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    assert leading_coefficients(triv) == (0, {a2.identity: [[Fraction(1)]]})
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    assert leading_coefficients(sign) == (3, {a2.w0: [[Fraction(-1)]]})
    refl = wgraph_matrices(reflection_graph(a2))
    a, table = leading_coefficients(refl)
    s, t = a2.simple
    assert a == 1
    assert set(table) == {s, t, s * t, t * s}  # the middle two-sided cell


def test_leading_coefficients_refuse_an_unbalanced_module(a2):
    """The reflection module conjugated by diag(1, v^2) has an entry of
    valuation -2 < -a = -1; the refusal names the first such w of the walk
    and carries the a-value, which conjugation leaves alone."""
    rep = wgraph_matrices(reflection_graph(a2))
    q = LaurentMatrix.identity(2)
    q_inv = LaurentMatrix.identity(2)
    q.entries[1][1] = LaurentPoly({2: 1})
    q_inv.entries[1][1] = LaurentPoly({-2: 1})
    twisted = rep.conjugate(q, q_inv)
    ok, witness = is_balanced(twisted, 1)
    assert not ok
    with pytest.raises(NotBalancedError) as err:
        leading_coefficients(twisted)
    assert err.value.a_value == 1
    assert str(err.value) == f"Representation not balanced! (witness {witness!r})"


def test_strictify_roundtrip(a2):
    # a repeated-label block: direct sum of two copies of the reflection
    # module, mixed inside one label block by a unitriangular constant matrix
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    double = direct_sum(rep, rep)
    labels = list(g.labels) + list(g.labels)
    mix = [
        [Fraction(1), 0, Fraction(1), 0],
        [0, Fraction(1), 0, 0],
        [0, 0, Fraction(1), 0],
        [0, 0, 0, Fraction(1)],
    ]
    mix_inv = [
        [Fraction(1), 0, Fraction(-1), 0],
        [0, Fraction(1), 0, 0],
        [0, 0, Fraction(1), 0],
        [0, 0, 0, Fraction(1)],
    ]
    p = LaurentMatrix.from_scalar_rows(mix)
    p_inv = LaurentMatrix.from_scalar_rows(mix_inv)
    twisted = double.conjugate(p, p_inv)
    form = gram_invariant_form(twisted)
    res = form.residue()
    assert any(res[i][j] for i in range(4) for j in range(4) if i != j)
    rep2, form2, l_full = strictify(twisted, form, labels)
    res2 = form2.residue()
    assert all(not res2[i][j] for i in range(4) for j in range(4) if i != j)
    a, table = leading_coefficients(rep2)
    assert a == a_value(rep2)
    ok, _ = is_balanced(rep2, a)
    assert ok
    # strict-balance relation d_t c(w^-1)_{ts} = d_s c(w)_{st}
    d = [res2[i][i] for i in range(4)]
    for w, cw in table.items():
        cwi = table[w.inverse()]
        for s_i in range(4):
            for t_i in range(4):
                assert d[t_i] * cwi[t_i][s_i] == d[s_i] * cw[s_i][t_i]


def test_strictify_rejects_cross_block_mixing(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    form = gram_invariant_form(rep)
    # claim a wrong grouping: both vertices share a label -> fine, block 2x2
    rep2, form2, _ = strictify(rep, form, [frozenset({0}), frozenset({0})])
    assert form2.residue()[0][1] == 0
    # but residues that genuinely cross distinct labels must be rejected
    bad = LaurentMatrix.from_scalar_rows(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]]
    )
    with pytest.raises(ValueError):
        strictify(rep, bad, list(g.labels))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]],
         "degenerate pivot chain at step 1: zero diagonal"),
        ([[{0: 1}, {0: 1}], [{0: 1}, {0: 1, 2: 1}]], "a residue pivot vanishes"),
    ],
)
def test_strictify_refuses_a_vanishing_residue_pivot(a2, entries, message):
    """The residue [[1, 1], [1, 1]] on one label block has no LDL^T
    factorization, whether the second pivot vanishes outright or only mod m."""
    rep = wgraph_matrices(reflection_graph(a2))
    form = LaurentMatrix(2, 2, [[LaurentPoly(e) for e in row] for row in entries])
    with pytest.raises(VerificationError, match=message):
        strictify(rep, form, [frozenset({0}), frozenset({0})])


def test_strictify_identity_on_diagonal_forms(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    rep_b, data = balance(rep)
    rep2, form2, l_full = strictify(rep_b, data.form, list(g.labels))
    assert l_full == [[Fraction(1), 0], [0, Fraction(1)]]
    assert all(rep2.gens[s] == rep_b.gens[s] for s in range(2))


def test_a_value_invariant_under_constant_conjugation(a2):
    g = reflection_graph(a2)
    rep = wgraph_matrices(g)
    p = LaurentMatrix.from_scalar_rows([[Fraction(1), Fraction(2)], [0, Fraction(1)]])
    p_inv = LaurentMatrix.from_scalar_rows(
        [[Fraction(1), Fraction(-2)], [0, Fraction(1)]]
    )
    assert a_value(rep.conjugate(p, p_inv)) == a_value(rep)


def test_gram_block_diagonal_for_fixtures(b3):
    cat = catalogue()
    for name in ("b3_chi7", "b3_chi9", "b3_chi5"):
        g = cat[name]
        rep = wgraph_matrices(g)
        form = gram_invariant_form(rep)
        res = form.residue()
        for i in range(g.size):
            for j in range(g.size):
                if g.labels[i] != g.labels[j]:
                    assert not res[i][j], (name, i, j)


def gram_by_transposes(rep):
    """The Gram sum from full products, sum_w m^T m, normalized."""
    omega = LaurentMatrix(rep.dim, rep.dim)
    for _, m in walk(rep):
        omega = omega + (m.transpose() @ m)
    val = omega.valuation()
    return omega.scale(LaurentPoly({-val: 1})) if val else omega


def leading_by_shift(rep, a):
    """The leading table from the scaled matrices v^a rho(T_w) mod m."""
    out = {}
    for w, m in walk(rep):
        shifted = m.scale(LaurentPoly({a: 1}))
        if shifted.valuation() == 0:
            out[w] = shifted.residue()
    return out


def distinct_modules(case):
    if case == "B3 tables":
        return [wgraph_matrices(g) for g in b3_graphs().values()]
    modules = {}
    for cgraph, _ in kl_left_cell_wgraphs(KLContext(shared_engine(case))):
        rep = wgraph_matrices(cgraph)
        modules.setdefault(class_character(rep), rep)
    return list(modules.values())


@pytest.mark.parametrize("case", ["A3", "A4", "B3 tables", "I2(4):2,1", "B3:1,2,2"])
def test_fused_walks_match_separate_walks(case):
    """The coset Gram form, the balanced walk's a-value and leading table,
    and the Schur unit read off that table, equal the routes that walk W
    once per quantity."""
    for rep in distinct_modules(case):
        form = gram_invariant_form(rep)
        assert form == gram_by_transposes(rep)
        rep2, data = balance(rep)
        a = data.a_value
        assert data.a_value == a_value(rep) == a_value(rep2)
        assert data.leading == leading_by_shift(rep2, a)
        assert leading_coefficients(rep2) == (a, data.leading)
        assert _schur_unit(data.leading) == schur_f(rep2, a)[1]


GRAM_CASES = [
    "A3", "A4", "H3", "I2(5)", "B3:1,2,2", "B3:3,1,1", "I2(4):2,1", "B3 tables",
]


@lru_cache(maxsize=None)
def left_cell_modules(case):
    """The module of every KL left cell of a group, or of each B3 table."""
    if case == "B3 tables":
        graphs = b3_graphs().values()
    else:
        kl = KLContext(shared_engine(case))
        graphs = [cgraph for cgraph, _ in kl_left_cell_wgraphs(kl)]
    return tuple(wgraph_matrices(g) for g in graphs)


@pytest.mark.parametrize("case", GRAM_CASES)
def test_coset_gram_equals_the_walk_sum(case):
    for rep in left_cell_modules(case):
        assert gram_invariant_form(rep) == gram_by_transposes(rep)


def unitriangular_inverse(u):
    """U^-1 = I + N + ... + N^(d-1) for U = I - N, N strictly upper."""
    d = u.rows
    n = LaurentMatrix.identity(d) - u
    inv, power = LaurentMatrix.identity(d), LaurentMatrix.identity(d)
    for _ in range(d - 1):
        power = power @ n
        inv = inv + power
    return inv


small_polys = st.dictionaries(
    st.integers(-2, 2), st.integers(-2, 2).map(Fraction), max_size=2
).map(LaurentPoly)

#: as small_polys, with the non-integral coefficients -1/2 and 1/3
small_fraction_polys = st.dictionaries(
    st.integers(-2, 2),
    st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 3), 1, 2]).map(Fraction),
    max_size=2,
).map(LaurentPoly)

#: the units c_i of a monomial conjugate
small_units = st.sampled_from([-2, -1, 1, 3]).map(Fraction)

#: over Q(sqrt 5): 1/2 + 1/2 sqrt 5, -1 + 1/2 sqrt 5, 2 + sqrt 5 and -1
sqrt5_scalars = st.sampled_from(
    [GOLDEN, Sqrt5(-1, Fraction(1, 2)), Sqrt5(2, 1), Fraction(-1)]
)
#: exponent 0 is drawn twice as often as -1 or 1, so that fewer of the
#: conjugates are refused
small_sqrt5_polys = st.dictionaries(
    st.sampled_from([-1, 0, 0, 1]), sqrt5_scalars, max_size=2
).map(LaurentPoly)


def draw_dense_conjugate(data, rep, polys=small_polys, units=small_units):
    """A conjugate of rep by a monomial matrix diag(c_i v^e_i) P, c_i drawn
    from units, or by a unitriangular one with entries drawn from polys;
    its generators are dense."""
    d = rep.dim
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(d)))
        shifts = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        scalars = data.draw(st.lists(units, min_size=d, max_size=d))
        q, q_inv = LaurentMatrix(d, d), LaurentMatrix(d, d)
        for i, (j, e, c) in enumerate(zip(perm, shifts, scalars)):
            q.entries[i][j] = LaurentPoly({e: c})
            q_inv.entries[j][i] = LaurentPoly({-e: scalar_inv(c)})
    else:
        q = LaurentMatrix.identity(d)
        for i in range(d):
            for j in range(i + 1, d):
                q.entries[i][j] = data.draw(polys)
        q_inv = unitriangular_inverse(q)
    assert q @ q_inv == LaurentMatrix.identity(d)
    return rep.conjugate(q, q_inv)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(GRAM_CASES), st.data())
def test_coset_gram_equals_the_walk_sum_on_dense_conjugates(case, data):
    """Conjugates by a monomial matrix diag(c_i v^e_i) P, or by a
    unitriangular one, whose generators are dense."""
    rep = data.draw(st.sampled_from(left_cell_modules(case)))
    conj = draw_dense_conjugate(data, rep)
    assert gram_invariant_form(conj) == gram_by_transposes(conj)


def packed_outcome(rep):
    """`leading_coefficients` in the form of `oracles.leading_by_walk`, the
    table as its list of items so that the key order counts."""
    try:
        a, table = leading_coefficients(rep)
    except NotBalancedError as exc:
        return exc.a_value, None, exc.witness
    return a, list(table.items()), None


def laurent_outcome(rep):
    a, table, witness = leading_by_walk(rep)
    return a, None if table is None else list(table.items()), witness


#: the entries of dense conjugates over each coefficient field
CONJUGATE_ENTRIES = {
    "Q": (small_fraction_polys, small_units),
    "Q(sqrt 5)": (small_sqrt5_polys, sqrt5_scalars),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([c for c in GRAM_CASES if c not in ("A4", "H3")]),
    st.sampled_from(list(CONJUGATE_ENTRIES)),
    st.data(),
)
def test_packed_walk_matches_the_laurent_walk(case, field, data):
    """On dense conjugates with Fraction or Q(sqrt 5) coefficients, balanced
    or not, the packed walk gives the a-value, the leading table in walk
    order and the refusal's witness of the Laurent walk.  A4 and H3 are
    left out: on a dense conjugate of their cells the Laurent walk takes
    tens of seconds."""
    rep = data.draw(st.sampled_from(left_cell_modules(case)))
    conj = draw_dense_conjugate(data, rep, *CONJUGATE_ENTRIES[field])
    assert packed_outcome(conj) == laurent_outcome(conj)


def test_packed_walk_comparison_fails_at_a_planted_width(monkeypatch):
    """A width of 3 bits holds digits up to 3 in absolute value only; the
    packed walk then misreads the conjugate of the 6-dimensional KL left
    cell module of A4 by I + 2 E_01, and that of the 4-dimensional one of
    I2(5) by I + phi E_01, a module over Q(sqrt 5); the comparison with the
    Laurent walk sees both."""
    conjugates = []
    for case, c in (("A4", 2), ("I2(5)", GOLDEN)):
        rep = max(left_cell_modules(case), key=lambda r: r.dim)
        q, q_inv = LaurentMatrix.identity(rep.dim), LaurentMatrix.identity(rep.dim)
        q.entries[0][1], q_inv.entries[0][1] = LaurentPoly({0: c}), LaurentPoly({0: -c})
        conjugates.append(rep.conjugate(q, q_inv))
    for rep in conjugates:
        assert packed_outcome(rep) == laurent_outcome(rep)
    monkeypatch.setattr(wgraph, "packed_width", lambda bound: 3)
    for rep in conjugates:
        assert packed_outcome(rep) != laurent_outcome(rep)


@pytest.mark.parametrize("group, count", [("A4", 14), ("B3", 12), ("H3", 19)])
def test_coset_chain_has_one_representative_per_coset(monkeypatch, group, count):
    """Level k of the chain lists D_k, and W_(k+1) = W_k D_k with lengths
    adding and each product met once, so the Gram sum over the chain visits
    sum_k [W_(k+1) : W_k] representatives: two products with a generator
    for each one but the identities, and two for each generator's
    invariance check."""
    eng = shared_engine(group)
    products = []
    matmul = LaurentMatrix.__matmul__

    def counted(x, y):
        products.append(1)
        return matmul(x, y)

    monkeypatch.setattr(LaurentMatrix, "__matmul__", counted)
    gram_invariant_form(wgraph_matrices(trivial_graph(eng)))
    assert len(products) == 2 * count
    monkeypatch.undo()
    chain = eng.coset_chain()
    assert len(chain) == eng.datum.rank
    assert sum(len(level) for level in chain) == count
    parabolic = [0]
    for k, level in enumerate(chain):
        reps = [d for d, _, _ in level]
        for d, parent, s in level:
            if parent is not None:
                assert eng.rmul[s][parent] == d and parent in reps[: reps.index(d)]
        pairs = [(x, d) for x in parabolic for d in reps]
        products = [(eng.elements[x] * eng.elements[d]).index for x, d in pairs]
        assert all(
            eng.lengths[p] == eng.lengths[x] + eng.lengths[d]
            for p, (x, d) in zip(products, pairs)
        )
        parabolic = sorted(products)
        assert parabolic == [
            w.index for w in eng.elements if eng.support(w) <= set(range(k + 1))
        ]
    assert len(parabolic) == eng.order


def test_gram_refuses_a_module_that_is_not_a_hecke_module():
    """b3_chi7 with one edge weight doubled breaks the braid relations; the
    invariance check on the summed form refuses it."""
    g = b3_graphs()["chi7"]
    edges = dict(g.edges)
    edges[0, 0, 1] = edges[0, 0, 1] * 2
    rep = wgraph_matrices(WGraph(g.engine, g.labels, edges))
    with pytest.raises(VerificationError, match="Gram form is not invariant"):
        gram_invariant_form(rep)
