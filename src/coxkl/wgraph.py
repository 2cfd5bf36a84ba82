"""W-graphs, their Hecke matrices, validation, constructions and the
idempotent/arrow matrices of the associated path-algebra action.

A W-graph is a vertex list with label sets I(x) in S and generator-indexed
edge weights m^s_{xy}, subject to the support condition
m^s_{xy} != 0  =>  s in I(x) \\ I(y).  The induced generator matrix has
-v_s^-1 on labeled diagonal entries, v_s elsewhere, and the weights off the
diagonal.  Braid relations are checked by direct alternating products, a
check valid for every weight function.  A module walks W once, in packed
integers over Q, through the restriction of scalars when its coefficients
lie in Q(sqrt 5) (`Representation.valuation_walk`).  The KL W-graph reads
the edge map that `KLContext.wgraph_edges` builds once per context.  By
the support condition the -v_s^-1-eigenspace of rho(T_s) is the span of
the vertices x with s in I(x), so the label multiset of a W-graph is also
its eigenspace multiplicities.  The tests keep in `tests/oracles.py` the
walk in Laurent matrices, the Chebyshev-style commutator identity (tau
route, valid for equal weights only), the generator matrices rebuilt from
the idempotent and arrow matrices, direct sums of modules, and the label
multiset recovered from the eigenspaces by Laurent elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .coxeter import (
    CoxeterDatum,
    Element,
    GroupEngine,
    build_group,
    recognize_type,
    type_string,
)
from .graphs import condensation_order, edge_adjacency
from .kl import KLContext
from .laurent import (
    ONE,
    ZERO,
    LaurentMatrix,
    LaurentPoly,
    is_bar_invariant,
    l1_norm,
    laurent_formatter,
    pack,
    packed_digit,
    packed_valuation,
    packed_width,
    parse_laurent,
)
from .scalars import Sqrt5, rational_block


class WGraph:
    """Vertex labels and generator-indexed edge weights over one group."""

    def __init__(
        self,
        engine: GroupEngine,
        labels: list[frozenset[int]],
        edges: dict[tuple[int, int, int], LaurentPoly] | None = None,
    ):
        self.engine = engine
        self.labels = [frozenset(l) for l in labels]
        #: (s, x, y) -> m^s_{xy}, nonzero entries only
        self.edges = {k: w for k, w in edges.items() if w} if edges else {}

    def __eq__(self, other):
        if other.__class__ is not WGraph:
            return NotImplemented
        return (self.engine, self.labels, self.edges) == (
            other.engine, other.labels, other.edges
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    def weight(self, s: int, x: int, y: int) -> LaurentPoly:
        return self.edges.get((s, x, y), ZERO)

    def label_multiset(self) -> dict[frozenset, int]:
        return {l: len(v) for l, v in label_classes(self.labels).items()}


def label_subsets(rank: int) -> list[frozenset[int]]:
    """Every subset of S = {0, ..., rank-1}, by size and then lexicographically."""
    return [
        frozenset(c) for r in range(rank + 1) for c in combinations(range(rank), r)
    ]


def label_classes(labels) -> dict[frozenset, list[int]]:
    """{label: the indices carrying it}, labels in order of first occurrence."""
    out: dict[frozenset, list[int]] = {}
    for i, l in enumerate(labels):
        out.setdefault(l, []).append(i)
    return out


class Representation:
    """Generator matrices rho(T_s) of a Hecke-algebra module over one group."""

    def __init__(self, engine: GroupEngine, gens: list[LaurentMatrix]):
        if len(gens) != engine.datum.rank:
            raise ValueError("need one matrix per generator")
        dim = gens[0].rows
        for g in gens:
            if g.rows != dim or g.cols != dim:
                raise ValueError("generator matrices must be square, equal size")
        self.engine = engine
        self.dim = dim
        self.gens = gens

    def t_matrix(self, w: Element) -> LaurentMatrix:
        m = LaurentMatrix.identity(self.dim)
        for s in self.engine.reduced_word(w):
            m = m @ self.gens[s]
        return m

    def character(self, w: Element) -> LaurentPoly:
        return self.t_matrix(w).trace()

    def valuation_walk(self):
        """Yield (w, nu(rho(T_w)), nu(trace rho(T_w)), lowest) over all of W,
        depth-first along the canonical ascent tree (`GroupEngine.ascent_walk`),
        keeping one running matrix of packed integers per length; lowest() is
        the grid of coefficients of v^nu(rho(T_w)), and None stands for the
        valuation of 0.

        The walk runs over Q: rho_Q is rho, k = 1, or, when a coefficient
        lies in Q(sqrt 5), its restriction of scalars, k = 2, with each
        coefficient c replaced by the block `scalars.rational_block(c)`.  A
        block is fixed by its first column, so the running matrices keep the
        columns k j only (kd x d); entry (i, j) of rho(T_w) has its parts in
        rows k i and k i + 1 of column j.

        Let D be the lcm of the denominators of rho_Q, e_s the valuation of
        rho(T_s) and G_s = D v^-e_s rho_Q(T_s), a matrix over Z[v].  Along
        the path s_1, ..., s_l from 1 to w, at depth l = l(w),
        G_(s_l) ... G_(s_1) = D^l v^-e(w) rho_Q(T_w) with
        e(w) = e_(s_1) + ... + e_(s_l); so a coefficient of rho(T_w) is the
        decoded digit over D^l.  Bound: with R the largest row sum of
        |coefficient| over the G_s, each coefficient of G_s M is at most R
        times the largest one of M, so the depth-l product has coefficients
        at most R^l and each part of its trace at most d R^l <= d R^l(w0)
        (R >= 1, since every row of an invertible matrix is nonzero).  Packed
        at width `packed_width(d R^l(w0))`, every valuation and digit read
        back is exact (`laurent.packed_valuation`, `laurent.packed_digit`).
        The valuation of a matrix, or of both parts of a trace, is that of
        the bitwise or of its entries, whose lowest set bit is the lowest one
        among them.
        """
        eng, d = self.engine, self.dim
        elements = eng.elements
        gens, k = self.gens, 1
        if any(isinstance(c, Sqrt5) for g in gens for row in g.entries
               for x in row for c in x.coeffs.values()):
            gens, k = [LaurentMatrix(2 * d, 2 * d, [
                [LaurentPoly({e: rational_block(c)[r][t] for e, c in x.coeffs.items()})
                 for x in row for t in (0, 1)]
                for row in g.entries for r in (0, 1)
            ]) for g in gens], 2
        den = lcm(*(c.denominator for g in gens for row in g.entries
                    for x in row for c in x.coeffs.values()))
        lows = [g.valuation() or 0 for g in gens]
        # rows of G_s as (column, polynomial over Z) pairs, zeros left out
        scaled = [
            [
                [
                    (j, LaurentPoly({
                        e - lows[s]: c.numerator * (den // c.denominator)
                        for e, c in x.coeffs.items()
                    }))
                    for j, x in enumerate(row) if x
                ]
                for row in g.entries
            ]
            for s, g in enumerate(gens)
        ]
        row_sum = max(sum(l1_norm(f) for _, f in row) for g in scaled for row in g)
        width = packed_width(d * row_sum ** eng.n_positive)
        gens = [[[(j, pack(f, width)) for j, f in row] for row in g] for g in scaled]
        traces = [[(k * i + r, i) for i in range(d)] for r in range(k)]

        def lowest(m, v, depth):
            # the digits at position v over D^depth; no entry has a lower one
            if den == 1:
                grid = [[packed_digit(x, v, width) for x in row] for row in m]
            else:
                scale = den ** depth
                grid = [[Fraction(packed_digit(x, v, width), scale) for x in row]
                        for row in m]
            if k == 1:
                return grid
            return [[Sqrt5(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(grid[::2], grid[1::2])]

        ident = [[int(i == k * j) for j in range(d)] for i in range(k * d)]
        yield eng.identity, 0, 0, lambda: lowest(ident, 0, 0)
        path = [(ident, 0)]
        for wi, s, l in eng.ascent_walk():
            pm, off = path[l - 1]
            m = []
            for row in gens[s]:
                acc = None
                for t, g in row:
                    pt = pm[t]
                    acc = ([g * x for x in pt] if acc is None
                           else [a + g * x for a, x in zip(acc, pt)])
                m.append([0] * d if acc is None else acc)
            off += lows[s]
            del path[l:]
            path.append((m, off))
            low = tr = 0
            for row in m:
                for x in row:
                    low |= x
            for cells in traces:
                tr |= sum(m[i][j] for i, j in cells)
            v = packed_valuation(low, width)
            t = packed_valuation(tr, width)
            yield (
                elements[wi],
                None if v is None else v + off,
                None if t is None else t + off,
                lambda m=m, v=v, l=l: lowest(m, v, l),
            )

    def conjugate(self, p: LaurentMatrix, p_inv: LaurentMatrix) -> "Representation":
        return Representation(self.engine, [p_inv @ g @ p for g in self.gens])


class OmegaMatrices(NamedTuple):
    """Idempotent and arrow matrices of a W-graph module."""

    e: dict[int, LaurentMatrix]
    x: dict[int, LaurentMatrix]


# -- matrices of a W-graph -----------------------------------------------------


def wgraph_matrices(g: WGraph) -> Representation:
    """The generator matrices rho(T_s) induced by a W-graph."""
    eng = g.engine
    d = g.size
    _check_support(g)
    gens = []
    for s in range(eng.datum.rank):
        ls = eng.generator_weight(s)
        m = LaurentMatrix(d, d)
        for i in range(d):
            m.entries[i][i] = LaurentPoly({-ls: -1} if s in g.labels[i] else {ls: 1})
        gens.append(m)
    for (s, x, y), wgt in g.edges.items():
        gens[s].entries[x][y] = wgt
    return Representation(eng, gens)


def _check_support(g: WGraph):
    for (s, x, y), wgt in g.edges.items():
        if wgt and s not in (g.labels[x] - g.labels[y]):
            raise ValueError(
                f"support condition violated at s={s}, edge {y}->{x}: "
                f"s must lie in I(x) minus I(y)"
            )


# -- braid commutators ----------------------------------------------------------


def tau_poly(r: int) -> list[int]:
    """Coefficients [a_0, ..., a_r] of the monic degree-r commutator polynomial,
    defined by tau_-1 = 0, tau_0 = 1, tau_r = X tau_{r-1} - tau_{r-2}."""
    if r < -1:
        raise ValueError("r must be >= -1")
    if r == -1:
        return []
    prev, cur = [], [1]
    for _ in range(r):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def braid_commutator_direct(
    a: LaurentMatrix, b: LaurentMatrix, m: int
) -> LaurentMatrix:
    """Delta_m(a, b) = abab... - baba... with m factors each."""
    left = LaurentMatrix.identity(a.rows)
    right = LaurentMatrix.identity(a.rows)
    for i in range(m):
        left = left @ (a if i % 2 == 0 else b)
        right = right @ (b if i % 2 == 0 else a)
    return left - right


class ValidationReport(NamedTuple):
    ok: bool
    failures: list[str]
    checked_pairs: list[tuple[int, int]]

    def __bool__(self):
        return self.ok


def validate_wgraph(g: WGraph) -> ValidationReport:
    """Check the support condition and the braid relations.

    The support condition implies the quadratic relations, so they are not
    multiplied out.  Write rho(T_s) = -v_s^-1 e_s + v_s (1 - e_s) + x_s, with
    e_s the diagonal idempotent of the vertices whose label holds s and x_s
    the arrows for s.  The support condition puts every such arrow from a
    vertex without s to a vertex with s, so x_s = e_s x_s (1 - e_s); hence
    x_s^2 = 0, e_s x_s = x_s and x_s e_s = 0, and

        rho(T_s)^2 = v_s^-2 e_s + v_s^2 (1 - e_s) + (v_s - v_s^-1) x_s
                   = 1 + (v_s - v_s^-1) rho(T_s)

    for every weight v_s = v^L(s).  Each braid commutator is the difference
    of the two alternating products of m generator matrices
    (`braid_commutator_direct`), valid for equal and unequal weights alike.
    """
    eng = g.engine
    failures: list[str] = []
    try:
        _check_support(g)
    except ValueError as exc:
        return ValidationReport(False, [str(exc)], [])
    rep = wgraph_matrices(g)
    checked = []
    for s, t in combinations(range(eng.datum.rank), 2):
        m = eng.datum.coxeter_matrix[s][t]
        checked.append((s, t))
        if not braid_commutator_direct(rep.gens[s], rep.gens[t], m).is_zero():
            failures.append(f"braid relation fails for pair ({s},{t})")
    return ValidationReport(not failures, failures, checked)


def is_geck(g: WGraph):
    """Palindromic weights within the strict degree bound |gamma| < L(s)."""
    diagnostics = []
    for (s, x, y), wgt in g.edges.items():
        ls = g.engine.generator_weight(s)
        if not is_bar_invariant(wgt):
            diagnostics.append(f"weight at (s={s}, {y}->{x}) is not palindromic")
        if wgt and (wgt.degree() >= ls or wgt.valuation() <= -ls):
            diagnostics.append(
                f"weight at (s={s}, {y}->{x}) breaks the degree bound (-{ls}, {ls})"
            )
    return not diagnostics, diagnostics


# -- constructions -----------------------------------------------------------------


def dual_wgraph(g: WGraph) -> WGraph:
    """Complement all labels, transpose and negate all weights."""
    full = frozenset(range(g.engine.datum.rank))
    labels = [full - l for l in g.labels]
    edges = {(s, y, x): -w for (s, x, y), w in g.edges.items()}
    return WGraph(g.engine, labels, edges)


def parabolic_restrict(g: WGraph, j: frozenset[int]):
    """Restrict to the parabolic subgroup generated by J.

    Returns (sub_wgraph, sub_engine, index_map) where index_map sends the new
    generator indices 0..|J|-1 to the old ones.  When the sub-diagram is a
    shipped type, the sub-engine is built under that name (so the JSON form
    round-trips); otherwise it carries an opaque name, and `wgraph restrict`
    refuses it.  A generator index outside 0..rank-1 raises ValueError.
    """
    rank = g.engine.datum.rank
    bad = sorted(a for a in j if a not in range(rank))
    if bad:
        raise ValueError(f"generators {bad} are out of range 0..{rank - 1}")
    j = sorted(j)
    if frozenset(j) == frozenset(range(rank)):
        return WGraph(g.engine, list(g.labels), dict(g.edges)), g.engine, j
    old = g.engine.datum
    matrix = [[old.coxeter_matrix[a][b] for b in j] for a in j]
    weights = [old.weights[a] for a in j]
    rec = recognize_type(matrix)
    if rec is not None:
        base, perm = rec
        order = [j[p] for p in perm]  # new index i <-> old generator order[i]
        sub = build_group(type_string(base, [old.weights[a] for a in order]))
    else:
        order = list(j)
        sub = GroupEngine(CoxeterDatum(matrix, weights, name=f"{old.name}|{j}"))
    back = {a: i for i, a in enumerate(order)}
    labels = [frozenset(back[s] for s in l if s in back) for l in g.labels]
    edges = {
        (back[s], x, y): w for (s, x, y), w in g.edges.items() if s in back
    }
    return WGraph(sub, labels, edges), sub, order


def induced_wgraph(g: WGraph, verts: list[int]) -> WGraph:
    """The W-graph that g induces on the vertices verts, renumbered in that
    order."""
    pos = {v: i for i, v in enumerate(verts)}
    edges = {
        (s, pos[x], pos[y]): w
        for (s, x, y), w in g.edges.items()
        if x in pos and y in pos
    }
    return WGraph(g.engine, [g.labels[v] for v in verts], edges)


def wgraph_cells(g: WGraph) -> list[tuple[WGraph, list[int]]]:
    """Strongly connected components of the edge-support digraph.

    Each component induces a W-graph on its vertex subset; returns pairs
    (cell_graph, vertex_indices) in the order of `condensation_order`:
    lowest cells first, ties by smallest vertex index.
    """
    blocks, _ = condensation_order(g.size, edge_adjacency(g.size, g.edges))
    return [(induced_wgraph(g, verts), verts) for verts in blocks]


def kl_wgraph(kl: KLContext) -> WGraph:
    """The Kazhdan-Lusztig W-graph of the regular module in the C-basis.

    Vertices are the group elements in canonical order, labels are the left
    descent sets, and the edges are `KLContext.wgraph_edges`: weight 1 on
    ascent edges y -> sy and the signed mu values on descent edges.
    """
    eng = kl.engine
    labels = [frozenset(eng.left_descent_set(w)) for w in eng.elements]
    return WGraph(eng, labels, kl.wgraph_edges())


def kl_left_cell_wgraphs(kl: KLContext) -> list[tuple[WGraph, list[Element]]]:
    """Left-cell W-graphs cut out of the full KL W-graph along the blocks of
    `KLContext.cells("left")`."""
    full = kl_wgraph(kl)
    return [
        (induced_wgraph(full, [w.index for w in block]), block)
        for block in kl.cells("left").blocks
    ]


# -- Omega matrices and relations -----------------------------------------------------


def omega_matrices(g: WGraph) -> OmegaMatrices:
    """Projections e_s onto the vertices labelled by s, and arrow matrices
    x_s holding the weights of the s-edges."""
    rank = g.engine.datum.rank
    d = g.size
    e = {s: LaurentMatrix(d, d) for s in range(rank)}
    x = {s: LaurentMatrix(d, d) for s in range(rank)}
    for i, label in enumerate(g.labels):
        for s in label:
            e[s].entries[i][i] = ONE
    for (s, i, j), w in g.edges.items():
        x[s].entries[i][j] = w
    return OmegaMatrices(e, x)


class RelationReport(NamedTuple):
    ok: bool
    failures: list[str]
    checked: int

    def __bool__(self):
        return self.ok


def omega_gy_relations_check(g: WGraph) -> RelationReport:
    """Verify the path-sum relations of the one-parameter W-graph algebra.

    For every generator pair s != t of equal weight and the label sets
    present in the graph, this checks the three relation families:
    (alpha) the tau-coefficient combination of alternating path sums,
    (beta) equality of the two arrow blocks on doubly-labeled edges,
    (gamma) symmetry of even-length path sums.
    A path sum E_I (x_s x_t ...) E_J is the (I, J) label block of the
    alternating product, so each relation asks that one block vanish.  A
    graph that breaks the support condition fails before any relation is
    checked, as in `validate_wgraph`.
    """
    eng = g.engine
    if not eng.datum.is_equal_parameter():
        raise ValueError("path-sum relations are only available for equal parameters")
    try:
        _check_support(g)
    except ValueError as exc:
        return RelationReport(False, [str(exc)], 0)
    om = omega_matrices(g)
    d = g.size
    classes = label_classes(g.labels)
    present = sorted(classes, key=lambda l: (len(l), sorted(l)))
    failures = []
    checked = 0

    prods: dict[tuple[int, int, int], LaurentMatrix] = {}

    def alternating(s, t, k) -> LaurentMatrix:
        # x_s x_t x_s ... with k factors, cached
        key = (s, t, k)
        m = prods.get(key)
        if m is None:
            if k == 0:
                m = LaurentMatrix.identity(d)
            else:
                m = alternating(s, t, k - 1) @ (om.x[s] if (k - 1) % 2 == 0 else om.x[t])
            prods[key] = m
        return m

    def block_vanishes(m: LaurentMatrix, i_lab, j_lab) -> bool:
        return not any(
            m.entries[i][j] for i in classes[i_lab] for j in classes[j_lab]
        )

    for s, t in combinations(range(eng.datum.rank), 2):
        m = eng.datum.coxeter_matrix[s][t]
        # (alpha): s in I, t not in I; J likewise for odd m, swapped for even m
        js, jt = (s, t) if m % 2 == 1 else (t, s)
        alpha = [
            (i_lab, j_lab)
            for i_lab in present
            if s in i_lab and t not in i_lab
            for j_lab in present
            if js in j_lab and jt not in j_lab
        ]
        # (beta) and (gamma): {s, t} in I, J disjoint from {s, t}
        both = [
            (i_lab, j_lab)
            for i_lab in present
            if {s, t} <= i_lab
            for j_lab in present
            if not {s, t} & j_lab
        ]
        if alpha:
            # sum_k tau_k (x_s x_t ...)_k over the m coefficients of the
            # monic tau_poly(m - 1)
            comb = LaurentMatrix(d, d)
            for k, c in enumerate(tau_poly(m - 1)):
                if c:
                    comb = comb + alternating(s, t, k).scale(LaurentPoly({0: c}))
            for i_lab, j_lab in alpha:
                checked += 1
                if not block_vanishes(comb, i_lab, j_lab):
                    failures.append(
                        f"(alpha) fails for s={s},t={t},I={sorted(i_lab)},J={sorted(j_lab)}"
                    )
        if not both:
            continue
        # D_r = (x_s x_t ...)_r - (x_t x_s ...)_r; (beta) compares the
        # arrow blocks X^s_IJ and X^t_IJ, the r = 1 case
        diffs = {
            r: alternating(s, t, r) - alternating(t, s, r) for r in range(1, m + 1)
        }
        for i_lab, j_lab in both:
            checked += 1
            if not block_vanishes(diffs[1], i_lab, j_lab):
                failures.append(
                    f"(beta) fails for s={s},t={t},I={sorted(i_lab)},J={sorted(j_lab)}"
                )
        for i_lab, j_lab in both:
            for r in range(2, m + 1):
                checked += 1
                if not block_vanishes(diffs[r], i_lab, j_lab):
                    failures.append(
                        f"(gamma) fails for s={s},t={t},r={r},"
                        f"I={sorted(i_lab)},J={sorted(j_lab)}"
                    )
    return RelationReport(not failures, failures, checked)


# -- compatibility graph -----------------------------------------------------------------


class CompatibilityGraph(NamedTuple):
    vertices: list[frozenset]
    #: directed edges (target I, source J), i.e. "I <- J"
    edges: set[tuple[frozenset, frozenset]]
    transversal: set[tuple[frozenset, frozenset]]


def compatibility_graph(datum: CoxeterDatum) -> CompatibilityGraph:
    """Edge I <- J iff I\\J is nonempty and each s in I\\J bonds (m > 2)
    with each t in J\\I in the diagram."""
    subsets = label_subsets(datum.rank)
    edges = set()
    transversal = set()
    for i_lab in subsets:
        for j_lab in subsets:
            diff = i_lab - j_lab
            if not diff:
                continue
            other = j_lab - i_lab
            if all(
                datum.coxeter_matrix[s][t] > 2 for s in diff for t in other
            ):
                edges.add((i_lab, j_lab))
                if other:
                    transversal.add((i_lab, j_lab))
    return CompatibilityGraph(subsets, edges, transversal)


# -- JSON wire format ------------------------------------------------------------------------


def wgraph_to_json(g: WGraph) -> dict:
    verts = [
        {"id": i, "label": sorted(l)} for i, l in enumerate(g.labels)
    ]
    fmt = laurent_formatter()  # edge weights repeat a few values
    edges = [
        {"s": s, "from": y, "to": x, "weight": fmt(w)}
        for (s, x, y), w in sorted(g.edges.items())
    ]
    datum = g.engine.datum
    group = type_string(datum.name, datum.weights)
    return {"group": group, "vertices": verts, "edges": edges}


class WGraphFormatError(ValueError):
    """A W-graph file that does not describe a W-graph on its group."""


def _fields(obj, keys, where: str) -> list:
    """The values of `keys` in the JSON object `obj`, or a format error."""
    if not isinstance(obj, dict):
        raise WGraphFormatError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise WGraphFormatError(f"{where} has no {key!r}")
    return [obj[key] for key in keys]


def wgraph_group(data) -> str:
    """The type string of a W-graph file."""
    (group,) = _fields(data, ("group",), "W-graph file")
    if not isinstance(group, str):
        raise WGraphFormatError(f"'group' = {group!r} is not a type string")
    return group


def wgraph_from_json(data: dict, engine: GroupEngine | None = None) -> WGraph:
    """Read the wire format, rejecting missing keys, labels outside S,
    out-of-range edge ends or generators, and an edge (s, from, to) given
    twice."""
    group = wgraph_group(data)
    vertices, edge_list = _fields(data, ("vertices", "edges"), "W-graph file")
    if engine is None:
        engine = build_group(group)
    for name, val in (("vertices", vertices), ("edges", edge_list)):
        if not isinstance(val, list):
            raise WGraphFormatError(f"{name!r} is not a list")
    if not vertices:
        raise WGraphFormatError("'vertices' is empty: a W-graph needs a vertex")
    gens = range(engine.datum.rank)
    rows = [_fields(v, ("id", "label"), f"vertex entry {k}")
            for k, v in enumerate(vertices)]
    ids = [i for i, _ in rows]
    if not all(type(i) is int for i in ids) or sorted(ids) != list(range(len(ids))):
        raise WGraphFormatError("vertex ids must be 0..n-1")
    labels = [None] * len(rows)
    for i, label in rows:
        if not (
            isinstance(label, list)
            and all(type(s) is int for s in label)
            and set(label) <= set(gens)
        ):
            raise WGraphFormatError(
                f"vertex {i}: label {label} is not a subset of S = {list(gens)}"
            )
        labels[i] = frozenset(label)
    edges = {}
    for k, e in enumerate(edge_list):
        s, frm, to, weight = _fields(e, ("s", "from", "to", "weight"), f"edge {k}")
        for name, val, allowed in (
            ("s", s, gens),
            ("from", frm, range(len(labels))),
            ("to", to, range(len(labels))),
        ):
            if type(val) is not int or val not in allowed:
                raise WGraphFormatError(
                    f"edge {k}: {name!r} = {val!r} "
                    f"is out of range {allowed.start}..{allowed.stop - 1}"
                )
        key = (s, to, frm)
        if key in edges:
            raise WGraphFormatError(
                f"edge {k}: (s, from, to) = ({s}, {frm}, {to}) appears twice"
            )
        if not isinstance(weight, str):
            raise WGraphFormatError(f"edge {k}: weight {weight!r} is not a string")
        edges[key] = parse_laurent(weight)
    return WGraph(engine, labels, edges)
