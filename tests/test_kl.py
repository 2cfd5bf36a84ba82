"""Kazhdan-Lusztig layer: recursion vs naive and interval-scan oracles,
mu-lists, C-basis dual routes, structure constants, a-function data and
cells.

The cells, the KL W-graph and `KLContext.h_structure` all read how C_s acts
off the mu edges; the structure constants through full T-basis products
(`tbasis.TBasis`) are the independent oracle for them here."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st
from oracles import h_column as oracle_h_column
from oracles import lusztig_a_delta_n as oracle_a_delta_n
from tbasis import TBasis

from coxkl import kl as kl_module
from coxkl.coxeter import CATALOGUE, bit_indices, build_group
from coxkl.graphs import condensation_order
from coxkl.kl import KLContext
from coxkl.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    add_term,
    bar,
    negative_part,
    positive_part,
)
from coxkl.wgraph import kl_wgraph, wgraph_matrices


def naive_pstar(kl, memo, y, w):
    """The defining recursion with t = min left descent, no critical-pair
    reduction; equal-parameter groups only (mu via the v^-1 coefficient)."""
    eng = kl.engine
    if not eng.bruhat_le(y, w):
        return ZERO
    if y == w:
        return ONE
    key = (y.index, w.index)
    if key in memo:
        return memo[key]
    t = min(eng.left_descent_set(w))
    gt = eng.simple[t]
    tw = gt * w
    vt = LaurentPoly({eng.generator_weight(t): 1})
    if t not in eng.left_descent_set(y):
        res = naive_pstar(kl, memo, gt * y, w) * vt.unit_inverse()
    else:
        res = naive_pstar(kl, memo, y, tw) * vt + naive_pstar(kl, memo, gt * y, tw)
        for z in eng.bruhat_interval(y, tw):
            if t in eng.left_descent_set(z) and z != tw:
                mu = (naive_pstar(kl, memo, z, tw) * vt).constant_term()
                if mu:
                    res = res - naive_pstar(kl, memo, y, z) * mu
    memo[key] = res
    return res


def test_pstar_against_naive_recursion(kl_a2, kl_a3):
    for kl in (kl_a2, kl_a3):
        memo = {}
        for y in kl.engine.elements:
            for w in kl.engine.elements:
                assert kl.pstar(y, w) == naive_pstar(kl, memo, y, w), (y, w)


class IntervalScanKL:
    """P* and mu by scanning whole Bruhat intervals, for any weights.

    Each new critical pair (u, v) scans [u, tv] for the z with tz < z and
    asks mu(z, tv, t) of each; the unequal-weight mu scans [y, w] the same
    way.  Every mu value is memoized, zeros included.
    """

    def __init__(self, engine):
        self.engine = engine
        self.critical_pair = KLContext(engine).critical_pair
        self._pstar, self._mu = {}, {}

    def pstar(self, y, w):
        gamma, u, v = self.critical_pair(y, w)
        if gamma is None:
            return ZERO
        if u == v:
            return LaurentPoly({-gamma: 1})
        key = (u.index, v.index)
        klp = self._pstar.get(key)
        if klp is None:
            eng = self.engine
            t = min(eng.left_descent_set(v))
            tu, tv = eng.simple[t] * u, eng.simple[t] * v
            vt = LaurentPoly({eng.generator_weight(t): 1})
            klp = self.pstar(u, tv) * vt + self.pstar(tu, tv)
            for z in eng.bruhat_interval(u, tv):
                if t in eng.left_descent_set(z):
                    m = self.mu(z, tv, t)
                    if m:
                        klp = klp - self.pstar(u, z) * m
            self._pstar[key] = klp
        return klp * LaurentPoly({-gamma: 1})

    def mu(self, y, w, s):
        eng = self.engine
        if (
            s not in eng.left_descent_set(y)
            or s in eng.left_descent_set(w)
            or y == w
            or not eng.bruhat_le(y, w)
        ):
            return ZERO
        key = (y.index, w.index, s)
        if key in self._mu:
            return self._mu[key]
        alpha = self.pstar(y, w) * LaurentPoly({eng.generator_weight(s): 1})
        alpha = alpha - negative_part(alpha)
        weights = {eng.generator_weight(t) for t in eng.support(w)}
        if weights | {eng.generator_weight(s)} == {eng.generator_weight(s)}:
            m = alpha
        else:
            for z in eng.bruhat_interval(y, w):
                if z != y and s in eng.left_descent_set(z):
                    mz = self.mu(z, w, s)
                    if mz:
                        alpha = alpha - self.pstar(y, z) * mz
                        alpha = alpha - negative_part(alpha)
            m = alpha + bar(positive_part(alpha))
        self._mu[key] = m
        return m


ORACLE_GROUPS = [
    "B3:2,1,1", "B3:1,2,2", "I2(4):2,1", "I2(5)", "H3", "D4", "A4", "B4",
]


@pytest.mark.parametrize("group", ORACLE_GROUPS)
def test_pstar_and_mu_match_interval_scan(group):
    eng = build_group(group)
    kl, oracle = KLContext(eng), IntervalScanKL(eng)
    rank = eng.datum.rank
    for w in eng.elements:
        for y in eng.elements:
            assert kl.pstar(y, w) == oracle.pstar(y, w), (y, w)
            for s in range(rank):
                assert kl.mu(y, w, s) == oracle.mu(y, w, s), (y, w, s)
        for s in range(rank):
            if s in eng.left_descent_set(w):
                continue
            mus = kl.mu_list(w, s)
            assert mus is kl.mu_list(w, s)  # memoized per (w, s)
            assert all(mus.values())  # no zero is stored
            expect = {y.index for y in eng.elements if oracle.mu(y, w, s)}
            assert set(mus) == expect, (w, s)


@pytest.mark.parametrize("group", ["B3:2,1,1", "D4"])
def test_pstar_recursion_asks_only_for_pairs_below(group):
    # a recursion step for the critical pair (u, v) may ask for one pair off
    # the Bruhat order, (u, tv) in v_t P*_{u,tv}; the mu-list terms P*_{u,z}
    # and P*_{y,z} are asked for only when u <= z, resp. y <= z
    eng = build_group(group)
    kl = KLContext(eng)
    inner, off_order = kl.pstar, []

    def spy(y, w):
        if not eng.bruhat_le(y, w):
            off_order.append((y, w))
        return inner(y, w)

    kl.pstar = spy
    for w in eng.elements:
        for yi in bit_indices(eng.bruhat_down(w)):
            kl.pstar(eng.elements[yi], w)
    kl.wgraph_edges()
    assert len(off_order) <= len(kl._pstar)


ROW_GROUPS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)",
    "B3:2,1,1", "B3:1,2,2", "I2(4):2,1", "B4:2,1,1,1",
]


@pytest.mark.parametrize("group", ROW_GROUPS)
def test_pstar_row_matches_pstar(group):
    eng = build_group(group)
    kl = KLContext(eng)
    for w in eng.elements:
        row = kl.pstar_row(w)
        assert set(row) == set(bit_indices(eng.bruhat_down(w))), w
        for yi, p in row.items():
            assert p == kl.pstar(eng.elements[yi], w), (yi, w)


def test_pstar_is_computed_only_at_critical_pairs():
    # the equal-parameter mu-lists read P* at critical pairs only, so the
    # B4 W-graph needs few critical-pair reductions (31,300 when every
    # candidate y went through `pstar`)
    eng = build_group("B4")
    kl = KLContext(eng)
    inner, calls = kl.critical_pair, []

    def spy(y, w):
        calls.append(None)
        return inner(y, w)

    kl.critical_pair = spy
    kl_wgraph(kl)
    assert len(calls) < 5000
    for key in kl._pstar:
        ui, vi = divmod(key, eng.order)
        assert ui != vi and eng.bruhat_down(eng.elements[vi]) >> ui & 1
        assert eng.ldesc[vi] & ~eng.ldesc[ui] == 0
        assert eng.rdesc[vi] & ~eng.rdesc[ui] == 0


def test_mu_list_needs_an_ascent(kl_a2):
    s = kl_a2.engine.simple[0]
    assert kl_a2.mu_list(kl_a2.engine.identity, 0) == {}
    with pytest.raises(ValueError):
        kl_a2.mu_list(s, 0)


def test_pstar_basics(kl_a2):
    eng = kl_a2.engine
    for w in eng.elements:
        assert kl_a2.pstar(w, w) == ONE
    s, t = eng.simple
    # y not below w
    assert kl_a2.pstar(eng.w0, s) == ZERO
    # dihedral: P = 1 whenever y <= w
    for y in eng.elements:
        for w in eng.elements:
            if eng.bruhat_le(y, w):
                assert kl_a2.kl_polynomial(y, w) == ONE


def test_critical_pair(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    for w in eng.elements:
        gamma, u, v = kl_a2.critical_pair(w, w)
        assert gamma == 0 and u == w and v == w
    gamma, u, v = kl_a2.critical_pair(t, s)
    assert gamma is None
    # re-expansion identity: P*_{y,w} = v^-gamma P*_{u,v}
    for y in eng.elements:
        for w in eng.elements:
            gamma, u, v = kl_a2.critical_pair(y, w)
            if gamma is None:
                assert kl_a2.pstar(y, w) == ZERO
            else:
                assert kl_a2.pstar(y, w) == kl_a2.pstar(u, v) * LaurentPoly(
                    {-gamma: 1}
                )


def test_a3_w0_column(kl_a3):
    eng = kl_a3.engine
    for x in eng.elements:
        assert kl_a3.kl_polynomial(x, eng.w0) == ONE


def test_a3_nontrivial_value(kl_a3):
    # the classical 1 + q example in rank 3
    eng = kl_a3.engine
    s1, s2, s3 = eng.simple
    p = kl_a3.kl_polynomial(s2, s2 * s1 * s3 * s2)
    assert p == LaurentPoly({0: 1, 2: 1})


def test_mu_examples(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    # sy > y forces mu = 0
    assert kl_a2.mu(eng.identity, s, 0) == ZERO
    # frozen: mu_{s, ts} = 1 for the unique admissible generator, which is
    # s itself (the nonvanishing condition needs a left descent of y = s);
    # value = the v^-1 coefficient of P*_{s,ts} = v^-1
    assert kl_a2.pstar(s, t * s) == LaurentPoly({-1: 1})
    assert kl_a2.mu(s, t * s, 0) == ONE
    assert kl_a2.mu(s, t * s, 1) == ZERO
    # bar invariance of every computed value
    for y in eng.elements:
        for w in eng.elements:
            for g in range(2):
                m = kl_a2.mu(y, w, g)
                assert bar(m) == m


def test_mu_multiparameter(kl_b3w):
    eng = kl_b3w.engine
    # bar-invariance, the weighted degree bound v_s mu in Z[G>0], and parity
    # of v^{L(w)-L(y)} v_s mu
    for y in eng.elements[:16]:
        for w in eng.elements[:24]:
            for s in range(3):
                m = kl_b3w.mu(y, w, s)
                if m:
                    assert bar(m) == m
                    ls = eng.generator_weight(s)
                    shifted = m * LaurentPoly({ls: 1})
                    assert shifted.valuation() > 0
                    scaled = m * LaurentPoly({eng.weight(w) - eng.weight(y) + ls: 1})
                    assert all(k % 2 == 0 for k in scaled.coeffs)


def test_mu_dihedral_unequal_weights():
    # the known closed value in the even dihedral case with weights a != b:
    # mu_{s, ts} for the heavy generator equals v^(a-b) + v^(b-a)
    eng = build_group("I2(4):2,1")
    kl = KLContext(eng)
    s, t = eng.simple
    assert kl.mu(s, t * s, 0) == LaurentPoly({1: 1, -1: 1})


def test_parity(kl_b3w):
    eng = kl_b3w.engine
    for y in eng.elements:
        for w in eng.elements:
            p = kl_b3w.kl_polynomial(y, w)
            assert all(k % 2 == 0 for k in p.coeffs), (y, w, p)


def test_pstar_inverse_symmetry(kl_a3):
    eng = kl_a3.engine
    for y in eng.elements:
        for w in eng.elements:
            assert kl_a3.pstar(y, w) == kl_a3.pstar(y.inverse(), w.inverse())


def test_t_multiply(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    t_multiply = TBasis(kl_a2).t_multiply
    zeta = LaurentPoly({1: 1, -1: -1})
    prod = t_multiply({s: ONE}, {s: ONE})
    assert prod == {eng.identity: ONE, s: zeta}
    h = {s: LaurentPoly({2: 3}), eng.w0: ONE}
    assert t_multiply({eng.identity: ONE}, h) == h
    assert t_multiply({s: ONE}, {t: ONE}) == {s * t: ONE}


def test_hecke_bar(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    tb = TBasis(kl_a2)
    zeta = LaurentPoly({1: 1, -1: -1})
    assert tb.hecke_bar({s: ONE}) == {s: ONE, eng.identity: -zeta}
    h = {s: LaurentPoly({2: 1}), s * t: LaurentPoly({-1: 2}), eng.w0: ONE}
    assert tb.hecke_bar(tb.hecke_bar(h)) == h
    # multiplicativity of the bar involution
    h2 = {t: ONE, eng.identity: LaurentPoly({1: 1})}
    lhs = tb.hecke_bar(tb.t_multiply(h, h2))
    rhs = tb.t_multiply(tb.hecke_bar(h), tb.hecke_bar(h2))
    assert lhs == rhs


def test_c_basis(kl_a2, kl_b3):
    eng = kl_a2.engine
    s, t = eng.simple
    assert kl_a2.c_basis(eng.identity) == {eng.identity: ONE}
    assert kl_a2.c_basis(s) == {s: ONE, eng.identity: LaurentPoly({1: -1})}
    for kl in (kl_a2, kl_b3):
        tb = TBasis(kl)
        for w in kl.engine.elements:
            c = kl.c_basis(w)
            # dual route: bar-invariant fixed point
            assert c == tb.c_basis_by_bar_fixed_point(w)
            assert tb.hecke_bar(c) == c
            assert c[w] == ONE
            for y, coeff in c.items():
                if y != w:
                    # C_w lies in T_w + sum of strictly positive coefficients
                    assert coeff.valuation() > 0


def test_c_to_t_roundtrip(kl_a2):
    eng = kl_a2.engine
    h = {eng.w0: LaurentPoly({-2: 3}), eng.simple[0]: ONE}
    tb = TBasis(kl_a2)
    assert tb.t_to_c(tb.c_to_t(h)) == h


def test_h_structure(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    # unit column
    for y in eng.elements:
        h = kl_a2.h_structure(eng.identity, y)
        assert h == {y: ONE}
    # frozen: C_s C_s = -(v + v^-1) C_s
    h = kl_a2.h_structure(s, s)
    assert h == {s: LaurentPoly({1: -1, -1: -1})}
    # support stays below the left cell of y in the preorder
    cells = kl_a2.cells("left")
    for x in eng.elements:
        for y in eng.elements:
            by = cells.block_of(y)
            for z in kl_a2.h_structure(x, y):
                bz = cells.block_of(z)
                assert (bz, by) in cells.leq


@pytest.mark.parametrize(
    "group, pairs",
    [("A3", None), ("I2(5)", None), ("B3", 200), ("B3:2,1,1", 200)],
)
def test_h_structure_matches_t_basis_products(group, pairs):
    """The W-graph columns give the same h_{x,y,z} as full T-basis products,
    on every pair or on a seeded sample of pairs."""
    kl = KLContext(build_group(group))
    oracle = TBasis(KLContext(kl.engine)).h_structure
    els = kl.engine.elements
    if pairs is None:
        sample = [(x, y) for x in els for y in els]
    else:
        rng = random.Random(8)
        sample = [(rng.choice(els), rng.choice(els)) for _ in range(pairs)]
    for x, y in sample:
        assert kl.h_structure(x, y) == oracle(x, y), (x, y)


#: every shipped type with |W| <= 192, the structure-constant guard, and
#: the unequal weights of its types B and I2(even)
H_TABLE_GROUPS = [name for name, (_, order) in CATALOGUE.items() if order <= 192] + [
    "B2:2,1", "B2:1,2", "B3:2,1,1", "B3:1,2,2", "B3:3,1,1",
    "I2(4):2,1", "I2(4):3,1", "I2(6):2,1", "I2(6):3,1",
]


@pytest.mark.parametrize("group", H_TABLE_GROUPS)
def test_packed_h_table_matches_the_laurent_oracle(group):
    """a, Delta, n, the Duflo set and gamma read off the packed h-columns
    equal those read off the Laurent h-columns of `oracles.h_column`."""
    kl = KLContext(build_group(group))
    assert kl.lusztig_a_delta_n() == oracle_a_delta_n(KLContext(kl.engine))


def test_h_structure_comparison_fails_at_a_planted_width(monkeypatch):
    """A width of 3 bits holds digits up to 3 in absolute value only.  The
    h-table of B3 has coefficients up to 18, so the unpacked columns no
    longer match the Laurent ones.  (a and gamma read only lowest digits,
    which a too narrow width can leave intact.)"""
    monkeypatch.setattr(kl_module, "packed_width", lambda bound: 3)
    kl = KLContext(build_group("B3"))
    y = kl.engine.w0
    column = oracle_h_column(KLContext(kl.engine), y)
    assert any(
        kl.h_structure(x, y) != {kl.engine.elements[z]: h for z, h in column[x.index].items()}
        for x in kl.engine.elements
    )


@pytest.mark.parametrize("group", ["A3", "I2(5)", "B3:2,1,1", "I2(6):3,1"])
def test_h_structure_unpacks_the_laurent_columns(group):
    """Every h_{x,y,.} unpacked from the packed columns is the Laurent one,
    with its keys in the same order."""
    kl = KLContext(build_group(group))
    laurent = KLContext(kl.engine)
    els = kl.engine.elements
    for y in els:
        column = oracle_h_column(laurent, y)
        for x in els:
            h = kl.h_structure(x, y)
            assert list(h.items()) == [(els[z], p) for z, p in column[x.index].items()]


def test_a_delta_n_duflo(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    adn = kl_a2.lusztig_a_delta_n()
    assert adn.a[eng.identity] == 0
    assert adn.a[eng.w0] == 3  # frozen: brute force over the h-table equals L(w0)
    assert adn.duflo == {eng.identity, s, t, eng.w0}
    # delta(z) = l(z) in the dihedral case, n_z = 1
    for z in eng.elements:
        assert adn.delta[z] == z.length()
        assert adn.n[z] == 1


@pytest.fixture(scope="module")
def kl_i25():
    return KLContext(build_group("I2(5)"))


@lru_cache(maxsize=None)
def h_route_edges(kl, side):
    """adj[y] = {z != y : h_{s,y,z} != 0} ("left") or {z != y : h_{y,s,z} != 0}
    ("right") over the generators s, through full T-basis products."""
    eng = kl.engine
    oracle = TBasis(kl).h_structure
    adj = [set() for _ in eng.elements]
    for y in eng.elements:
        for gen in eng.simple:
            h = oracle(gen, y) if side == "left" else oracle(y, gen)
            adj[y.index].update(z.index for z, c in h.items() if c and z != y)
    return adj


def reachability_cells(adj):
    """Cells and their preorder by plain reachability: x <= y iff there is a
    path y -> ... -> x.  Returns (cells, pairs (cell of x, cell of y))."""
    n = len(adj)
    reach = []
    for y in range(n):
        seen, stack = {y}, [y]
        while stack:
            for x in adj[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        reach.append(seen)
    cell = [frozenset(x for x in reach[y] if y in reach[x]) for y in range(n)]
    return set(cell), {(cell[x], cell[y]) for y in range(n) for x in reach[y]}


@pytest.mark.parametrize("name", ["kl_a3", "kl_b3", "kl_b3w", "kl_i25"])
def test_wgraph_edges_match_h_structure(request, name):
    kl = request.getfixturevalue(name)
    adj = [set() for _ in kl.engine.elements]
    for _, x, y in kl.wgraph_edges():
        adj[y].add(x)
    assert adj == h_route_edges(kl, "left")


@pytest.mark.parametrize("name", ["kl_a3", "kl_b3", "kl_b3w"])
def test_cells_match_h_route(request, name):
    kl = request.getfixturevalue(name)
    left, right = h_route_edges(kl, "left"), h_route_edges(kl, "right")
    routes = {
        "left": left,
        "right": right,
        "two-sided": [a | b for a, b in zip(left, right)],
    }
    for kind, adj in routes.items():
        part = kl.cells(kind)
        blocks = [frozenset(w.index for w in b) for b in part.blocks]
        cells, leq = reachability_cells(adj)
        assert set(blocks) == cells, kind
        assert {(blocks[i], blocks[j]) for i, j in part.leq} == leq, kind
        # lowest cells first: a block comes before every block above it
        assert all(i <= j for i, j in part.leq), kind


digraphs = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.sets(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n
    )
)


@given(digraphs)
def test_condensation_order_matches_reachability(adj):
    """Blocks are the classes of mutual reachability, leq is reachability
    between blocks, and a block comes before every block it is reached from."""
    blocks, leq = condensation_order(len(adj), adj)
    blocks = [frozenset(b) for b in blocks]
    cells, pairs = reachability_cells(adj)
    assert len(blocks) == len(cells) and set(blocks) == cells
    assert {(blocks[i], blocks[j]) for i, j in leq} == pairs
    assert all(i <= j for i, j in leq)


DEEP = 5000


@pytest.mark.parametrize("adj, blocks, leq", [
    # a directed cycle: one block, closed only when the sweep is back at 0
    ([{(i + 1) % DEEP} for i in range(DEEP)], [list(range(DEEP))], {(0, 0)}),
    # a path with edges both ways: one block
    ([{j for j in (i - 1, i + 1) if 0 <= j < DEEP} for i in range(DEEP)],
     [list(range(DEEP))], {(0, 0)}),
    # a path whose last vertex is a sink and whose other vertices close into
    # a cycle: the sink is reached 5000 levels deep and comes first
    ([{i + 1} for i in range(DEEP - 2)] + [{0, DEEP - 1}, set()],
     [[DEEP - 1], list(range(DEEP - 1))], {(0, 0), (1, 1), (0, 1)}),
], ids=["cycle", "two-way path", "path into a sink"])
def test_condensation_order_on_deep_digraphs(adj, blocks, leq):
    """The sweep is iterative: depth 5000 is far past the recursion limit.
    (A one-way path of this length would do too, but its preorder holds
    n(n+1)/2 pairs.)"""
    assert condensation_order(DEEP, adj) == (blocks, leq)


@pytest.mark.parametrize("name", ["kl_a3", "kl_b3w", "kl_i25"])
def test_wgraph_columns_match_h_structure(request, name):
    # T_g = C_g + v^L(g), so T_g C_w = sum_z h_{g,w,z} C_z + v^L(g) C_w is
    # column w of the W-graph matrix of T_g, and `t_columns()[g][w]` holds
    # exactly its nonzero entries
    kl = request.getfixturevalue(name)
    eng = kl.engine
    gens = wgraph_matrices(kl_wgraph(kl)).gens
    sparse = kl.t_columns()
    oracle = TBasis(kl).h_structure
    for g, gen in enumerate(eng.simple):
        vg = LaurentPoly({eng.generator_weight(g): 1})
        for w in eng.elements:
            expect = dict(oracle(gen, w))
            add_term(expect, w, vg)
            column = {z: gens[g].entries[z.index][w.index] for z in eng.elements}
            column = {z: c for z, c in column.items() if c}
            assert column == expect, (g, w)
            assert sparse[g][w.index] == {
                z.index: c for z, c in column.items()
            }, (g, w)


def test_cells(kl_a2):
    eng = kl_a2.engine
    s, t = eng.simple
    left = kl_a2.cells("left")
    assert {frozenset(b) for b in left.blocks} == {
        frozenset({eng.identity}),
        frozenset({s, t * s}),
        frozenset({t, s * t}),
        frozenset({eng.w0}),
    }
    assert sum(len(b) for b in left.blocks) == eng.order
    two = {frozenset(b) for b in kl_a2.cells("two-sided").blocks}
    assert frozenset({eng.identity}) in two
    assert frozenset({eng.w0}) in two
    # left cells of w map to right cells of w^-1
    right = kl_a2.cells("right")
    assert {frozenset(x.inverse() for x in b) for b in left.blocks} == {
        frozenset(b) for b in right.blocks
    }


def test_cells_left_right_duality_a3(kl_a3):
    left = kl_a3.cells("left")
    right = kl_a3.cells("right")
    assert {frozenset(x.inverse() for x in b) for b in left.blocks} == {
        frozenset(b) for b in right.blocks
    }


def test_integer_coefficients(kl_a3):
    eng = kl_a3.engine
    for y in eng.elements:
        for w in eng.elements:
            for c in kl_a3.pstar(y, w).coeffs.values():
                assert Fraction(c).denominator == 1


def test_h_structure_integral(kl_a2):
    eng = kl_a2.engine
    for x in eng.elements:
        for y in eng.elements:
            for h in kl_a2.h_structure(x, y).values():
                for c in h.coeffs.values():
                    assert Fraction(c).denominator == 1


def test_trace_form_duality(kl_a2):
    # (T_w) and (T_{w^-1}) are dual bases for the trace T_w -> delta_{1,w}
    eng = kl_a2.engine
    for u in eng.elements:
        for w in eng.elements:
            prod = TBasis(kl_a2).t_multiply({u: ONE}, {w: ONE})
            tau = prod.get(eng.identity)
            if w == u.inverse():
                assert tau == ONE
            else:
                assert not tau
