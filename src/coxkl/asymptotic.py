"""Schur constants, the asymptotic algebra J, cell representations through
the leading-coefficient homomorphism, and the cellular basis built from
balanced representations.

J has basis t_w with t_x t_y = sum_z gamma_{x,y,z} t_{z^-1} and unit
sum_d n_d t_d.  `jdata_from_kl` reads it off the h-table of the KL W-graph
by Lusztig's definitions, for every type and weight, and checks the unit
by integer sums over the sparse gamma rows, building no element of J.
Delta and n, and so the distinguished involutions, are read once per
context by `KLContext.delta_n`, for J and for the cell representations
alike.  The leading-matrix route
    gamma_{x,y,z} = sum_l f_l^-1 tr(c^l(x) c^l(y) c^l(z)),
    n_x           = sum_l f_l^-1 tr(c^l(x^-1)),
from one balanced representation per isomorphism type (`gamma_n_table`),
is the test oracle for that ring.  The cellular basis (Geck 2009) reads only
the balanced modules and their Schur units (`irreducible_data`), never gamma;
its form B is the diagonal residue d of the balanced invariant form that
`balance` leaves, scaled to d_0 = 1 (`cell_form`).  Its axiom check and the
cell representations read T_s C_w off the sparse columns of
`KLContext.t_columns`, never dense KL W-graph matrices.  The Schur element
from its own walk, Lusztig's homomorphism phi, the elements of J and their
product, J from the KL cell modules and B summed as sum_x c_x^T c_x are
test oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .balance import (
    BalancedData,
    NotBalancedError,
    VerificationError,
    balance,
    leading_coefficients,
)
from .coxeter import Element, GroupEngine
from .kl import KLContext
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    add_term,
    from_sum,
)
from .linalg import (
    f_identity,
    f_mat_mul,
    f_mat_scale,
    f_mat_trace,
    f_sparse_inverse,
)
from .scalars import scalar_inv
from .wgraph import (
    Representation,
    WGraph,
    kl_left_cell_wgraphs,
    validate_wgraph,
    wgraph_matrices,
)


class IrreducibleDatum(NamedTuple):
    """A balanced representation of one isomorphism type with its constants."""

    rep: Representation
    data: BalancedData
    f: object  # F-unit


class JData(NamedTuple):
    """Leading-coefficient structure constants of the asymptotic algebra."""

    engine: GroupEngine
    #: the balanced modules of the leading-matrix route; empty for J read
    #: off the h-table
    reps: list[IrreducibleDatum]
    #: sparse (x, y) -> {z: gamma_{x,y,z}}
    gamma: dict[tuple[Element, Element], dict[Element, object]]
    n: dict[Element, object]
    duflo: set[Element]

    def gamma_value(self, x: Element, y: Element, z: Element):
        return self.gamma.get((x, y), {}).get(z, Fraction(0))


# -- Schur constants ------------------------------------------------------------


def _schur_unit(leading: dict[Element, list]):
    """f = sum_w c(w)_00 c(w^-1)_00 over the leading table, refusing f = 0.

    Every entry of a module balanced at a has valuation >= -a, so f is the
    coefficient of v^-2a in the Schur sum sum_w rho(T_{w^-1})_00 rho(T_w)_00,
    and f = 0 exactly when that sum vanishes or starts above v^-2a.
    """
    f = sum(
        c[0][0] * leading[w.inverse()][0][0]
        for w, c in leading.items()
        if w.inverse() in leading
    )
    if not f:
        raise VerificationError(
            "the Schur element has no term at v^-2a: representation is not "
            "irreducible"
        )
    return f


# -- the gamma/n table -----------------------------------------------------------


def irreducible_data(
    engine: GroupEngine, reps: list[tuple[Representation, BalancedData]]
) -> list[IrreducibleDatum]:
    """A complete set of balanced representations with their Schur units.

    Refuses a set whose dimension sum is not |W|, and a leading table whose
    Schur unit `_schur_unit` finds to be 0.
    """
    total = sum(r.dim * r.dim for r, _ in reps)
    if total != engine.order:
        raise VerificationError(
            f"dimension sum {total} != |W| = {engine.order}: the "
            f"representation set is incomplete or redundant"
        )
    return [
        IrreducibleDatum(rep, data, _schur_unit(data.leading))
        for rep, data in reps
    ]


def gamma_n_table(
    engine: GroupEngine, reps: list[tuple[Representation, BalancedData]]
) -> JData:
    """Structure constants from a complete set of balanced representations."""
    irreducibles = irreducible_data(engine, reps)
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


# -- the leading-coefficient homomorphism -----------------------------------------------


def cell_representation(
    rep: Representation, a: int, leading: dict[Element, list], kl: KLContext
) -> Representation:
    """psi = rho_bar . phi, assembled from left-cell W-graph modules, for a
    balanced rep with a-value a and leading table rho_bar.

    psi(T_s) = sum over visible Duflo d and z in the left cell of d of
    ntilde_d sigma(T_s)_{z,d} rho_bar(t_z), where sigma(T_s)_{z,d} is entry
    z of the column T_s C_d of `KLContext.t_columns`.  The visible Duflo d
    are the z of the leading table with Delta(z) = a, and
    ntilde_d = (-1)^l(d) n_d, both read off `KLContext.delta_n`.
    """
    eng = rep.engine
    delta, n = kl.delta_n()
    ntilde = {
        z: -n[z] if z.length() % 2 else n[z] for z in leading if delta[z] == a
    }
    if not ntilde:
        raise ValueError("no distinguished involution visible in this module")
    left = kl.cells("left")
    columns = kl.t_columns()
    d = rep.dim
    gens = [LaurentMatrix(d, d) for _ in range(eng.datum.rank)]
    for dd, nd in ntilde.items():
        cell = {z.index for z in left.blocks[left.block_of(dd)]}
        for s, gen in enumerate(columns):
            for zi, entry in gen[dd.index].items():
                cz = leading.get(eng.elements[zi])
                if zi in cell and cz is not None:
                    coef_mat = LaurentMatrix.from_scalar_rows(f_mat_scale(cz, nd))
                    gens[s] = gens[s] + coef_mat.scale(entry)
    return Representation(eng, gens)


class GeckMuellerReport(NamedTuple):
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
    Both are H-modules over F[v, v^-1], so their H-characters agree exactly
    when their `class_character`s at v = 1 do, by the argument of
    `irreducible_cell_reps`; the comparison at every T_w is the test oracle.
    """
    val = validate_wgraph(g)
    if not val.ok:
        return GeckMuellerReport(False, None, None, None, f"invalid graph: {val.failures}")
    rep = wgraph_matrices(g)
    try:
        a, leading = leading_coefficients(rep)
    except NotBalancedError as err:
        return GeckMuellerReport(False, err.a_value, None, None, "not balanced")
    psi = cell_representation(rep, a, leading, kl)
    equal = all(psi.gens[s] == rep.gens[s] for s in range(rep.engine.datum.rank))
    chars = class_character(psi) == class_character(rep)
    verdict = "equal" if equal else ("H-isomorphic-but-unequal" if chars else "mismatch")
    return GeckMuellerReport(True, a, equal, chars, verdict)


# -- the cellular basis ----------------------------------------------------------------


class CellDatum(NamedTuple):
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


def cell_form(d: list) -> list:
    """Geck's form B = diag(d / d_0) from the diagonal residues d of a
    balanced module.  Its Gram residue is sum_x c_x^T c_x, as rho(T_w) =
    v^-a (c_w + O(v)); the module is absolutely irreducible (the dimension
    sum of `irreducible_data`), so the symmetric Omega_0 with Omega_0 c_w =
    c_(w^-1)^T Omega_0 span a line, and diag(d) lies on it whatever base
    change `balance` made."""
    inv = scalar_inv(d[0])
    return [x * inv for x in d]


def cell_basis(irreducibles: list[IrreducibleDatum], kl: KLContext) -> CellDatum:
    """Construct C^lambda_{st} = sum_w (B_l rho_bar_l(t_w))_{st} C_w, with
    B_l = diag(`cell_form`) read off the balanced module of type l."""
    eng = kl.engine
    two_sided = kl.cells("two-sided")
    dims = []
    basis: dict[tuple[int, int, int], dict[Element, object]] = {}
    cell_block = []
    for li, ir in enumerate(irreducibles):
        d = ir.rep.dim
        dims.append(d)
        b = cell_form(ir.data.d)
        support_blocks = {two_sided.block_of(w) for w in ir.data.leading}
        if len(support_blocks) != 1:
            raise AssertionError(
                "leading support of an irreducible crosses two-sided cells"
            )
        cell_block.append(next(iter(support_blocks)))
        for w, cw in ir.data.leading.items():
            for s in range(d):
                for t, c in enumerate(cw[s]):
                    if c:
                        basis.setdefault((li, s, t), {})[w] = b[s] * c
    lambda_lt = set()
    for i in range(len(irreducibles)):
        for j in range(len(irreducibles)):
            bi, bj = cell_block[i], cell_block[j]
            if bi != bj and (bi, bj) in two_sided.leq:
                lambda_lt.add((i, j))
    return CellDatum(eng, dims, basis, lambda_lt, cell_block)


class CellAxiomReport(NamedTuple):
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def verify_cell_axioms(cd: CellDatum, kl: KLContext) -> CellAxiomReport:
    """Check (C1) basis, (C2) *-symmetry, (C3) left multiplication congruence."""
    eng = cd.engine
    failures: list[str] = []
    triples = sorted(cd.basis)
    if len(triples) != eng.order:
        failures.append(
            f"(C1) fails: {len(triples)} basis elements for |W| = {eng.order}"
        )
        return CellAxiomReport(False, failures)
    rows = [{w.index: c for w, c in cd.basis[trip].items()} for trip in triples]
    try:
        # row w of the inverse converts the C_w coefficient to cell coords
        minv = f_sparse_inverse(rows)
    except ZeroDivisionError:
        failures.append("(C1) fails: cell elements are linearly dependent")
        return CellAxiomReport(False, failures)
    # (C2): the involution T_w -> T_{w^-1} sends C_w to C_{w^-1}
    for (li, s, t) in triples:
        starred = {w.inverse(): c for w, c in cd.basis[(li, s, t)].items()}
        if starred != cd.basis.get((li, t, s), {}):
            failures.append(f"(C2) fails at lambda={li}, (s,t)=({s},{t})")
    # (C3): T_g C^l_{st} = sum_u r_g(u, s) C^l_{ut} modulo strictly smaller types
    columns = kl.t_columns()
    for li, dl in enumerate(cd.dims):
        for g in range(eng.datum.rank):
            r_coeffs: dict[tuple[int, int], LaurentPoly] = {}
            for t in range(dl):
                for s in range(dl):
                    # T_g C_w = sum_z hv C_z, and C_z = sum_r minv[z][r] C_r;
                    # coordinate r accumulates in a bare map, wrapped once
                    coords: dict[int, dict] = {}
                    for w, c in cd.basis[(li, s, t)].items():
                        for z, hv in columns[g][w.index].items():
                            hc = hv.coeffs
                            for r, x in minv[z].items():
                                cx = c * x
                                out = coords.get(r)
                                if out is None:
                                    out = coords[r] = {}
                                for k, h in hc.items():
                                    cur = out.get(k)
                                    out[k] = h * cx if cur is None else cur + h * cx
                    for i in sorted(coords):
                        coeff = from_sum(coords[i])
                        if not coeff:
                            continue
                        mu, u, vv = triples[i]
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


def jdata_from_kl(kl: KLContext) -> JData:
    """J read off the h-table of the KL W-graph, for every type and weight.

    gamma and D come from `KLContext.lusztig_a_delta_n`, and
    n_d = (-1)^l(d) lowest_term(bar(P*_{1,d})) for d in D.  The ring is
    checked for P7, gamma_{x,y,z} = gamma_{y,z,x}, and for the unit
    sum_d n_d t_d before it is returned: t_x (sum_d n_d t_d) = t_x, so for
    every x the integer sum sum_d n_d gamma_{x,d,z} over the sparse rows
    (x, d) must be 1 at z = x^-1 and 0 elsewhere.  Under P7 that is the left
    identity too, as sum_d n_d gamma_{d,x,z} = sum_d n_d gamma_{z,d,x}.
    """
    adn = kl.lusztig_a_delta_n()
    n = {d: adn.n[d] * (-1 if d.length() % 2 else 1) for d in adn.duflo}
    jd = JData(kl.engine, [], adn.gamma, n, adn.duflo)
    for (x, y), row in jd.gamma.items():
        for z, val in row.items():
            if jd.gamma_value(y, z, x) != val:
                raise VerificationError(
                    f"P7 fails: gamma_{{x,y,z}} != gamma_{{y,z,x}} at "
                    f"(x, y, z) = ({x.index}, {y.index}, {z.index})"
                )
    for x in kl.engine.elements:
        # t_x (sum_d n_d t_d) as {z: coefficient of t_z^-1}
        right: dict = {}
        for d, nd in n.items():
            for z, val in jd.gamma.get((x, d), {}).items():
                add_term(right, z, nd * val)
        if right != {x.inverse(): 1}:
            raise VerificationError(
                f"sum_d n_d t_d is not the unit of J: it fails on t_{x.index}"
            )
    return jd


def jdata_from_graphs(kl: KLContext, graphs) -> JData:
    """J by the leading-matrix route from one irreducible W-graph per type,
    for groups with reducible KL left cells (B3 has six); `irreducible_data`
    refuses a set whose dimension sum is not |W|."""
    return gamma_n_table(kl.engine, [balance(wgraph_matrices(g)) for g in graphs])
