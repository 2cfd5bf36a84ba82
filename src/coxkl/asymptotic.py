"""Schur constants, the asymptotic algebra J, distinguished involutions,
cell representations through the leading-coefficient homomorphism, and the
cellular basis built from balanced representations.

The structure constants are
    gamma_{x,y,z} = sum_l f_l^-1 tr(c^l(x) c^l(y) c^l(z)),
    n_x           = sum_l f_l^-1 tr(c^l(x^-1)),
computed from one balanced representation per isomorphism type; the table is
well defined independently of those choices and the test suite exercises
that.  t_x t_y = sum_z gamma_{x,y,z} t_{z^-1} with unit sum_d n_d t_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .balance import (
    BalancedData,
    VerificationError,
    a_value,
    balance,
    is_balanced,
    leading_coefficients,
)
from .coxeter import Element, GroupEngine
from .kl import CellPartition, KLContext
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    ONE,
    SparseCombination,
    ZERO,
    add_term,
    bar,
)
from .linalg import (
    f_identity,
    f_mat_eq,
    f_mat_inverse,
    f_mat_is_zero,
    f_mat_mul,
    f_mat_scale,
    f_mat_trace,
    f_mat_transpose,
)
from .scalars import scalar_inv
from .wgraph import (
    Representation,
    WGraph,
    kl_left_cell_wgraphs,
    kl_wgraph,
    validate_wgraph,
    wgraph_matrices,
)

_JDATA_ORDER_LIMIT = 120


@dataclass
class IrreducibleDatum:
    """A balanced representation of one isomorphism type with its constants."""

    rep: Representation
    data: BalancedData
    c_poly: LaurentPoly
    f: object  # F-unit


@dataclass
class JData:
    """Leading-coefficient structure constants of the asymptotic algebra."""

    engine: GroupEngine
    reps: list[IrreducibleDatum]
    #: sparse (x, y) -> {z: gamma_{x,y,z}}
    gamma: dict[tuple[Element, Element], dict[Element, object]]
    n: dict[Element, object]
    duflo: set[Element]

    def gamma_value(self, x: Element, y: Element, z: Element):
        return self.gamma.get((x, y), {}).get(z, Fraction(0))

    def unit(self) -> "JElement":
        return JElement({d: LaurentPoly({0: self.n[d]}) for d in self.duflo})


@dataclass
class JElement(SparseCombination):
    """An element of J (coefficients may carry v-powers, as phi produces)."""

    coeffs: dict[Element, LaurentPoly] = field(default_factory=dict)

    @staticmethod
    def basis(w: Element) -> "JElement":
        return JElement({w: ONE})


# -- Schur constants ------------------------------------------------------------


def schur_f(rep: Representation, a: int | None = None, entry=(0, 0)):
    """The Schur element and its leading unit of an irreducible balanced rep.

    c = sum_w rho(T_{w^-1})_{ts} rho(T_w)_{st} at the fixed entry (s, t);
    f = lowest_term(v^{2a} c).  Vanishing c or a lowest term at the wrong
    degree signals a non-irreducible or non-balanced input.  `balance`
    records c at entry (0, 0) from its leading-table walk; this separate
    walk is the oracle for it.
    """
    s, t = entry
    st_vals: dict[Element, LaurentPoly] = {}
    ts_vals: dict[Element, LaurentPoly] = {}
    for w, m in rep.walk():
        st_vals[w] = m.entries[s][t]
        ts_vals[w] = m.entries[t][s]
    c = ZERO
    for w, x in st_vals.items():
        c = c + ts_vals[w.inverse()] * x
    if a is None:
        a = a_value(rep)
    return c, _schur_unit(c, a)


def _schur_unit(c: LaurentPoly, a: int):
    """f = lowest_term(v^{2a} c), refusing a Schur sum that vanishes or whose
    lowest term sits at the wrong degree."""
    if not c:
        raise VerificationError(
            "Schur sum vanishes: representation is not irreducible"
        )
    shifted = c * LaurentPoly({2 * a: 1})
    if shifted.valuation() != 0:
        raise VerificationError(
            "Schur element has the wrong valuation: representation is not "
            "balanced or not irreducible"
        )
    return shifted.lowest_term()


# -- the gamma/n table -----------------------------------------------------------


def _check_order(engine: GroupEngine, order_limit: int = _JDATA_ORDER_LIMIT):
    if engine.order > order_limit:
        raise ValueError(
            f"|W| = {engine.order} exceeds the structure-constant guard "
            f"{order_limit}"
        )


def gamma_n_table(
    engine: GroupEngine,
    reps: list[tuple[Representation, BalancedData]],
    order_limit: int = _JDATA_ORDER_LIMIT,
) -> JData:
    """Structure constants from a complete set of balanced representations."""
    _check_order(engine, order_limit)
    total = sum(r.dim * r.dim for r, _ in reps)
    if total != engine.order:
        raise VerificationError(
            f"dimension sum {total} != |W| = {engine.order}: the "
            f"representation set is incomplete or redundant"
        )
    irreducibles = [
        IrreducibleDatum(rep, data, data.schur, _schur_unit(data.schur, data.a_value))
        for rep, data in reps
    ]
    gamma: dict[tuple[Element, Element], dict[Element, object]] = {}
    n: dict[Element, object] = {}
    for ir in irreducibles:
        finv = scalar_inv(ir.f)
        lead = ir.data.leading
        for x, cx in lead.items():
            xi = x.inverse()
            if xi in lead:
                val = f_mat_trace(lead[xi]) * finv
                if val:
                    n[x] = n.get(x, Fraction(0)) + val
        for x, cx in lead.items():
            for y, cy in lead.items():
                # tr(c_x c_y c_z) = sum_{i,j} (c_x c_y)_{ij} (c_z)_{ji}
                prod = [
                    (i, j, pij)
                    for i, prow in enumerate(f_mat_mul(cx, cy))
                    for j, pij in enumerate(prow)
                    if pij
                ]
                if not prod:
                    continue
                for z, cz in lead.items():
                    t = sum(pij * cz[j][i] for i, j, pij in prod if cz[j][i]) * finv
                    if t:
                        key = (x, y)
                        row = gamma.setdefault(key, {})
                        row[z] = row.get(z, Fraction(0)) + t
    # drop exact zeros produced by cross-type cancellation
    n = {x: v for x, v in n.items() if v}
    gamma = {
        k: {z: v for z, v in row.items() if v} for k, row in gamma.items()
    }
    gamma = {k: row for k, row in gamma.items() if row}
    duflo = {x for x, v in n.items() if v}
    return JData(engine, irreducibles, gamma, n, duflo)


def j_multiply(a: JElement, b: JElement, data: JData) -> JElement:
    """t_x t_y = sum_z gamma_{x,y,z} t_{z^-1}, extended bilinearly."""
    out: dict[Element, LaurentPoly] = {}
    for x, cx in a.coeffs.items():
        for y, cy in b.coeffs.items():
            row = data.gamma.get((x, y))
            if not row:
                continue
            c = cx * cy
            for z, gv in row.items():
                add_term(out, z.inverse(), c * gv)
    return JElement(out)


# -- distinguished involutions ------------------------------------------------------


def duflo_from_reps(
    rep: Representation, data: BalancedData, kl: KLContext
):
    """Distinguished involutions visible in one balanced representation.

    Filters the leading support by involutivity, weight parity, idempotency
    of +-c(z), pairwise commuting/absorption pruning, and finally the
    valuation test a = nu(bar(P*_{1,z})).  Returns (duflo_set, ntilde) where
    ntilde[d] = (-1)^l(d) * lowest_term(bar(P*_{1,d})).
    """
    eng = rep.engine
    a = data.a_value
    idem_mats: list = []
    fibers: list[set[Element]] = []
    for z, cz in data.leading.items():
        if z * z != eng.identity:
            continue
        if (eng.weight(z) - a) % 2:
            continue
        sq = f_mat_mul(cz, cz)
        if f_mat_eq(sq, cz):
            e = cz
        elif f_mat_eq(sq, f_mat_scale(cz, -1)):
            e = f_mat_scale(cz, -1)
        else:
            continue
        placed = False
        for i, known in enumerate(idem_mats):
            if f_mat_eq(known, e):
                fibers[i].add(z)
                placed = True
                break
        if not placed:
            idem_mats.append(e)
            fibers.append({z})
    alive = [True] * len(idem_mats)
    for i in range(len(idem_mats)):
        if not alive[i]:
            continue
        for j in range(i + 1, len(idem_mats)):
            if not alive[j]:
                continue
            ef = f_mat_mul(idem_mats[i], idem_mats[j])
            fe = f_mat_mul(idem_mats[j], idem_mats[i])
            if not f_mat_eq(ef, fe):
                alive[i] = alive[j] = False
                break
            if not f_mat_is_zero(ef):
                if not f_mat_eq(ef, idem_mats[j]):
                    alive[i] = False
                    break
                if not f_mat_eq(ef, idem_mats[i]):
                    alive[j] = False
    duflo: set[Element] = set()
    ntilde: dict[Element, object] = {}
    for i, fiber in enumerate(fibers):
        if not alive[i]:
            continue
        for z in fiber:
            p = bar(kl.pstar(eng.identity, z))
            if p and p.valuation() == a:
                duflo.add(z)
                sign = -1 if z.length() % 2 else 1
                ntilde[z] = p.lowest_term() * sign
    return duflo, ntilde


# -- the leading-coefficient homomorphism -----------------------------------------------


def lusztig_phi(
    w: Element, data: JData, kl: KLContext, cells: CellPartition
) -> JElement:
    """phi(C_w) = sum over d in D and z two-sided-equivalent to d of
    n_d h_{w,d,z} t_z."""
    if cells.kind != "two-sided":
        raise ValueError("phi needs the two-sided cell partition")
    out: dict[Element, LaurentPoly] = {}
    for d in data.duflo:
        bd = cells.block_of(d)
        block = set(cells.blocks[bd])
        h = kl.h_structure(w, d)
        nd = data.n[d]
        for z, hv in h.items():
            if z in block and hv:
                add_term(out, z, hv * nd)
    return JElement(out)


def cell_representation(
    rep: Representation, data: BalancedData, kl: KLContext
) -> Representation:
    """psi = rho_bar . phi, assembled from left-cell W-graph modules.

    psi(T_s) = sum over visible Duflo d and z in the left cell of d of
    ntilde_d sigma(T_s)_{z,d} rho_bar(t_z).
    """
    eng = rep.engine
    duflo, ntilde = duflo_from_reps(rep, data, kl)
    if not duflo:
        raise ValueError("no distinguished involution visible in this module")
    cells = kl_left_cell_wgraphs(kl)
    d = rep.dim
    gens = [LaurentMatrix(d, d) for _ in range(eng.datum.rank)]
    for dd in duflo:
        cell = next((c, els) for c, els in cells if dd in els)
        cgraph, els = cell
        pos = {e: i for i, e in enumerate(els)}
        sigma = wgraph_matrices(cgraph)
        for z in els:
            cz = data.leading.get(z)
            if cz is None:
                continue
            coef_mat = LaurentMatrix.from_scalar_rows(
                f_mat_scale(cz, ntilde[dd])
            )
            for s in range(eng.datum.rank):
                entry = sigma.gens[s].entries[pos[z]][pos[dd]]
                if entry:
                    gens[s] = gens[s] + coef_mat.scale(entry)
    return Representation(eng, gens)


@dataclass
class GeckMuellerReport:
    balanced: bool
    a_value: int | None
    entrywise_equal: bool | None
    characters_equal: bool | None
    verdict: str

    def __bool__(self):
        return self.verdict == "equal"


def geck_mueller_check(g: WGraph, kl: KLContext) -> GeckMuellerReport:
    """Compare the module of an irreducible Geck graph with its cell module.

    Reports whether the graph's representation is balanced, whether
    psi = rho_bar . phi reproduces it entrywise, and whether at least the
    characters agree (the reconstruction is H-isomorphic by construction).
    """
    val = validate_wgraph(g)
    if not val.ok:
        return GeckMuellerReport(False, None, None, None, f"invalid graph: {val.failures}")
    rep = wgraph_matrices(g)
    a = a_value(rep)
    ok, _ = is_balanced(rep, a)
    if not ok:
        return GeckMuellerReport(False, a, None, None, "not balanced")
    data = BalancedData(
        a_value=a,
        q=LaurentMatrix.identity(rep.dim),
        q_inv=LaurentMatrix.identity(rep.dim),
        d=[],
        leading=leading_coefficients(rep, a),
    )
    psi = cell_representation(rep, data, kl)
    equal = all(psi.gens[s] == rep.gens[s] for s in range(rep.engine.datum.rank))
    # both walks visit W in the same canonical order
    chars = all(
        mp.trace() == mr.trace()
        for (_, mp), (_, mr) in zip(psi.walk(), rep.walk())
    )
    verdict = "equal" if equal else ("H-isomorphic-but-unequal" if chars else "mismatch")
    return GeckMuellerReport(True, a, equal, chars, verdict)


# -- the cellular basis ----------------------------------------------------------------


@dataclass
class CellDatum:
    """A cellular basis indexed by (type, row, column) triples."""

    engine: GroupEngine
    #: per type: dimension of the index set M(lambda)
    dims: list[int]
    #: (lambda, s, t) -> C-basis coefficients over F
    basis: dict[tuple[int, int, int], dict[Element, object]]
    #: strict order pairs (lam, mu) meaning lam < mu
    lambda_lt: set[tuple[int, int]]
    #: per type: index of its two-sided cell block
    cell_block: list[int]


def invariant_form_over_f(ir: IrreducibleDatum):
    """B = normalized sum_x rho_bar(t_x)^T rho_bar(t_x) over F."""
    d = ir.rep.dim
    b = [[Fraction(0)] * d for _ in range(d)]
    for x, cx in ir.data.leading.items():
        b = [
            [bij + pij for bij, pij in zip(brow, prow)]
            for brow, prow in zip(b, f_mat_mul(f_mat_transpose(cx), cx))
        ]
    flat = [x for row in b for x in row]
    if all(isinstance(x, (int, Fraction)) and Fraction(x).denominator == 1 for x in flat):
        g = 0
        for x in flat:
            g = gcd(g, int(Fraction(x)))
        if g > 1:
            b = f_mat_scale(b, Fraction(1, g))
    else:
        first = next((x for x in flat if x), None)
        if first:
            b = f_mat_scale(b, scalar_inv(first))
    return b


def cell_basis(data: JData, kl: KLContext) -> CellDatum:
    """Construct C^lambda_{st} = sum_w (B_l rho_bar_l(t_w))_{st} C_w."""
    eng = data.engine
    two_sided = kl.cells("two-sided")
    dims = []
    basis: dict[tuple[int, int, int], dict[Element, object]] = {}
    cell_block = []
    for li, ir in enumerate(data.reps):
        d = ir.rep.dim
        dims.append(d)
        b = invariant_form_over_f(ir)
        support_blocks = {two_sided.block_of(w) for w in ir.data.leading}
        if len(support_blocks) != 1:
            raise AssertionError(
                "leading support of an irreducible crosses two-sided cells"
            )
        cell_block.append(next(iter(support_blocks)))
        for w, cw in ir.data.leading.items():
            m = f_mat_mul(b, cw)
            for s in range(d):
                for t in range(d):
                    if m[s][t]:
                        basis.setdefault((li, s, t), {})[w] = m[s][t]
    lambda_lt = set()
    for i in range(len(data.reps)):
        for j in range(len(data.reps)):
            bi, bj = cell_block[i], cell_block[j]
            if bi != bj and (bi, bj) in two_sided.leq:
                lambda_lt.add((i, j))
    return CellDatum(eng, dims, basis, lambda_lt, cell_block)


@dataclass
class CellAxiomReport:
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def verify_cell_axioms(cd: CellDatum, kl: KLContext) -> CellAxiomReport:
    """Check (C1) basis, (C2) *-symmetry, (C3) left multiplication congruence."""
    eng = cd.engine
    failures: list[str] = []
    triples = sorted(cd.basis)
    index_of = {trip: i for i, trip in enumerate(triples)}
    if len(triples) != eng.order:
        failures.append(
            f"(C1) fails: {len(triples)} basis elements for |W| = {eng.order}"
        )
        return CellAxiomReport(False, failures)
    mat = [
        [cd.basis[trip].get(w, Fraction(0)) for w in eng.elements]
        for trip in triples
    ]
    try:
        # row w of the inverse converts the C_w coefficient to cell coords
        minv = f_mat_inverse(mat)
    except ZeroDivisionError:
        failures.append("(C1) fails: cell elements are linearly dependent")
        return CellAxiomReport(False, failures)
    # (C2): the involution T_w -> T_{w^-1} sends C_w to C_{w^-1}
    for (li, s, t) in triples:
        starred = {w.inverse(): c for w, c in cd.basis[(li, s, t)].items()}
        if starred != cd.basis.get((li, t, s), {}):
            failures.append(f"(C2) fails at lambda={li}, (s,t)=({s},{t})")
    # (C3): T_g C^l_{st} = sum_u r_g(u, s) C^l_{ut} modulo strictly smaller types
    minv_support = [[(r, x) for r, x in enumerate(row) if x] for row in minv]

    def to_cell_coords(h: dict[Element, LaurentPoly]):
        out = [ZERO] * len(triples)
        for w, c in h.items():
            for r, x in minv_support[w.index]:
                out[r] = out[r] + c * x
        return out

    # column w of the KL W-graph matrix of T_g is T_g C_w in the C-basis
    columns = [
        [
            [(eng.elements[z], hv) for z, hv in enumerate(col) if hv]
            for col in m.transpose().entries
        ]
        for m in wgraph_matrices(kl_wgraph(kl)).gens
    ]
    for li, dl in enumerate(cd.dims):
        for g in range(eng.datum.rank):
            r_coeffs: dict[tuple[int, int], LaurentPoly] = {}
            for t in range(dl):
                for s in range(dl):
                    prod: dict[Element, LaurentPoly] = {}
                    for w, c in cd.basis[(li, s, t)].items():
                        for z, hv in columns[g][w.index]:
                            add_term(prod, z, hv * c)
                    coords = to_cell_coords(prod)
                    for i, trip in enumerate(triples):
                        coeff = coords[i]
                        if not coeff:
                            continue
                        mu, u, vv = trip
                        if mu == li:
                            if vv != t:
                                failures.append(
                                    f"(C3) fails: T_{g} C^{li}_{s}{t} hits "
                                    f"column {vv} != {t}"
                                )
                            else:
                                prev = r_coeffs.get((u, s))
                                if prev is None:
                                    r_coeffs[(u, s)] = coeff
                                elif prev != coeff:
                                    failures.append(
                                        f"(C3) fails: r_{g}({u},{s}) depends "
                                        f"on the column index"
                                    )
                        elif (mu, li) not in cd.lambda_lt:
                            failures.append(
                                f"(C3) fails: T_{g} C^{li}_{s}{t} leaks into "
                                f"type {mu} not below {li}"
                            )
    return CellAxiomReport(not failures, failures)


# -- assembling complete irreducible sets ------------------------------------------------


def class_character(rep: Representation) -> tuple:
    """The W-character of rep at v = 1, one value per conjugacy class.

    Each generator matrix is taken at v = 1, every entry the sum of its
    coefficients, and the trace is read along the reduced word of each
    class representative of `GroupEngine.conjugacy_class_representatives`.
    """
    eng = rep.engine
    at_one = [g.at_one() for g in rep.gens]
    values = []
    for w in eng.conjugacy_class_representatives():
        m = f_identity(rep.dim)
        for s in eng.words[w.index]:
            m = f_mat_mul(m, at_one[s])
        values.append(f_mat_trace(m))
    return tuple(values)


def irreducible_cell_reps(kl: KLContext):
    """One balanced representation per isomorphism type, from KL left cells.

    Cell modules are told apart by `class_character`, their W-character at
    v = 1 on class representatives, and no module is walked before the
    dimension-sum identity below accepts the set.  That key is exact.  Over
    K = F'(v), with F' a splitting field of W, the Hecke algebra H_K is split
    semisimple, and Tits' deformation theorem makes v -> 1 a bijection
    Irr(H_K) -> Irr(W) with chi_E(T_w)|_{v=1} = chi_{E_1}(w), so it induces
    an isomorphism of Grothendieck groups R(H_K) -> R(W) (Geck-Pfeiffer
    2000, 7.4 and 9.3).  A W-graph module M is defined over F[v, v^-1], and
    the trace of a product of its matrices commutes with v -> 1, so the
    W-character of M at v = 1 is the image of [M].  Two cell modules
    therefore have equal H-characters exactly when their W-characters agree,
    and W-characters are class functions.

    One cell module per character is kept, M_1..M_k, and the modules are
    irreducible exactly when sum_j dim(M_j)^2 = |W|.  Over K the Hecke
    algebra is semisimple, so distinct characters make the M_j pairwise
    non-isomorphic, and every simple module E occurs in some M_j because
    the left cells filter the regular module.  Writing M_j = sum_E m_jE E
    and d_E = n_E dim D_E with D_E = End(E),
        sum_j dim(M_j)^2 >= sum_j sum_E m_jE^2 d_E^2 >= sum_E d_E^2
                         >= sum_E n_E^2 dim D_E = |W|,
    with equality exactly when every M_j is simple with End(M_j) = K
    (Geck-Pfeiffer 2000, Tits deformation; Lusztig, CRM Monogr. 18).
    """
    eng = kl.engine
    modules: dict[tuple, Representation] = {}
    for cgraph, _ in kl_left_cell_wgraphs(kl):
        rep = wgraph_matrices(cgraph)
        modules.setdefault(class_character(rep), rep)
    total = sum(rep.dim * rep.dim for rep in modules.values())
    if total != eng.order:
        raise VerificationError(
            "a KL left cell of this group is reducible; supply explicit "
            "graphs for its constituents instead (distinct cell modules "
            f"have dimension sum {total} != |W| = {eng.order})"
        )
    return [balance(rep) for rep in modules.values()]


def irreducible_reps_from_graphs(graphs) -> list[tuple[Representation, BalancedData]]:
    """Balance a supplied family of irreducible W-graphs (one per type).

    This is the route for groups whose KL left cells are reducible (B3 has
    six such cells); completeness is still checked by the dimension sum in
    `gamma_n_table`.
    """
    out = []
    for g in graphs:
        rep = wgraph_matrices(g)
        rep2, data = balance(rep)
        out.append((rep2, data))
    return out


def jdata_from_cells(kl: KLContext) -> JData:
    # refuse a group too large for `gamma_n_table` before balancing anything
    _check_order(kl.engine)
    return gamma_n_table(kl.engine, irreducible_cell_reps(kl))


def jdata_from_graphs(kl: KLContext, graphs) -> JData:
    _check_order(kl.engine)
    return gamma_n_table(kl.engine, irreducible_reps_from_graphs(graphs))
