"""Asymptotic algebra: Schur constants, gamma/n tables, J multiplication,
Duflo involutions, cell representations and the cellular basis."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from oracles import (
    jdata_from_cells,
    lusztig_phi,
    one_line,
    rsk_insertion,
    schur_f,
    walk,
)

from coxkl import asymptotic
from coxkl.asymptotic import (
    JElement,
    cell_basis,
    cell_representation,
    class_character,
    duflo_from_reps,
    gamma_n_table,
    geck_mueller_check,
    invariant_form_over_f,
    irreducible_cell_reps,
    irreducible_reps_from_graphs,
    j_multiply,
    jdata_from_graphs,
    jdata_from_kl,
    verify_cell_axioms,
)
from coxkl.balance import VerificationError, balance, leading_coefficients
from coxkl.blocks import intertwiner_space
from coxkl.fixtures import b3_graphs, catalogue, reflection_graph, shared_engine
from coxkl.kl import KLContext
from coxkl.laurent import LaurentMatrix, LaurentPoly
from coxkl.linalg import f_mat_mul, f_mat_trace, f_mat_transpose, laurent_rank
from coxkl.scalars import scalar_inv
from coxkl.wgraph import (
    Representation,
    WGraph,
    kl_left_cell_wgraphs,
    wgraph_matrices,
)


@pytest.fixture(scope="module")
def jd_a2(kl_a2):
    return jdata_from_cells(kl_a2)


@pytest.fixture(scope="module")
def jd_a3(kl_a3):
    return jdata_from_cells(kl_a3)


def test_schur_trivial_and_sign(a2):
    triv = wgraph_matrices(WGraph(a2, [frozenset()], {}))
    c, f = schur_f(triv, 0)
    # Poincare series of A2
    assert c == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})
    assert f == 1
    sign = wgraph_matrices(WGraph(a2, [frozenset({0, 1})], {}))
    c, f = schur_f(sign, 3)
    assert f == 1


def test_schur_entry_independent(a2):
    refl = wgraph_matrices(reflection_graph(a2))
    results = {schur_f(refl, 1, entry=e) for e in ((0, 0), (0, 1), (1, 0), (1, 1))}
    # all entries give the same Schur element
    assert len({str(c.coeffs) for c, f in results}) == 1


def test_gamma_n_table_guards(kl_a2, a2):
    reps = irreducible_cell_reps(kl_a2)
    with pytest.raises(VerificationError):
        gamma_n_table(a2, reps[:2])  # incomplete set
    # modules of another group fail the dimension sum of B4
    with pytest.raises(VerificationError, match=r"dimension sum 6 != \|W\| = 384"):
        gamma_n_table(shared_engine("B4"), reps)


def gamma_n_by_triple_products(reps):
    """The table from full products: gamma = sum f^-1 tr((c_x c_y) c_z)."""
    gamma, n = {}, {}
    for rep, data in reps:
        _, f = schur_f(rep, data.a_value)
        finv = scalar_inv(f)
        lead = data.leading
        for x, cx in lead.items():
            if x.inverse() in lead:
                n[x] = n.get(x, 0) + f_mat_trace(lead[x.inverse()]) * finv
            for y, cy in lead.items():
                for z, cz in lead.items():
                    t = f_mat_trace(f_mat_mul(f_mat_mul(cx, cy), cz)) * finv
                    row = gamma.setdefault((x, y), {})
                    row[z] = row.get(z, 0) + t
    gamma = {k: {z: t for z, t in row.items() if t} for k, row in gamma.items()}
    return (
        {k: row for k, row in gamma.items() if row},
        {x: t for x, t in n.items() if t},
    )


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_gamma_n_table_matches_triple_products(group):
    eng = shared_engine(group)
    if group == "B3":
        reps = irreducible_reps_from_graphs(b3_graphs().values())
    else:
        reps = irreducible_cell_reps(KLContext(eng))
    jd = gamma_n_table(eng, reps)
    assert (jd.gamma, jd.n) == gamma_n_by_triple_products(reps)


@pytest.mark.parametrize("group", ["A3", "A4", "B3", "B3:1,2,2", "I2(4):2,1"])
def test_kl_route_matches_leading_matrices(group):
    """gamma, n and D read off the h-table equal the leading-matrix table of
    balanced modules: KL cell modules, or the B3 table graphs."""
    kl = KLContext(shared_engine(group))
    if group == "B3":
        jd = jdata_from_graphs(kl, b3_graphs().values())
    else:
        jd = jdata_from_cells(kl)
    jk = jdata_from_kl(kl)
    assert (jk.gamma, jk.n, jk.duflo) == (jd.gamma, jd.n, jd.duflo)


@pytest.mark.parametrize("group", ["B2", "I2(5)", "I2(6)", "I2(4):3,1"])
def test_kl_route_is_associative_with_cell_support(group):
    """On groups with reducible left cells: J is associative, and
    gamma_{x,y,z} != 0 forces x ~L y^-1, y ~L z^-1 and z ~L x^-1."""
    kl = KLContext(shared_engine(group))
    jd = jdata_from_kl(kl)
    els = kl.engine.elements
    basis = [JElement.basis(x) for x in els]
    for tx, ty, tz in product(basis, repeat=3):
        assert j_multiply(j_multiply(tx, ty, jd), tz, jd) == j_multiply(
            tx, j_multiply(ty, tz, jd), jd
        )
    cells = kl.cells("left")
    for (x, y), row in jd.gamma.items():
        for z in row:
            assert cells.block_of(x) == cells.block_of(y.inverse())
            assert cells.block_of(y) == cells.block_of(z.inverse())
            assert cells.block_of(z) == cells.block_of(x.inverse())


def test_gamma_well_defined_across_models(kl_a2, a2):
    """gamma and n agree when a type is realized by a different balanced rep."""
    reps = irreducible_cell_reps(kl_a2)
    jd1 = gamma_n_table(a2, reps)
    # replace the 2-dim member by a constant-conjugated model
    swapped = []
    for rep, data in reps:
        if rep.dim == 2:
            p = LaurentMatrix.from_scalar_rows(
                [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
            )
            p_inv = LaurentMatrix.from_scalar_rows(
                [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
            )
            rep2 = rep.conjugate(p, p_inv)
            rep2b, data2 = balance(rep2)
            swapped.append((rep2b, data2))
        else:
            swapped.append((rep, data))
    jd2 = gamma_n_table(a2, swapped)
    assert jd1.n == jd2.n
    assert jd1.gamma == jd2.gamma


def test_gamma_integral_and_symmetric(jd_a2, jd_a3):
    for jd in (jd_a2, jd_a3):
        for (x, y), row in jd.gamma.items():
            for z, val in row.items():
                assert Fraction(val).denominator == 1
                assert jd.gamma_value(y, z, x) == val  # cyclic
                assert (
                    jd.gamma_value(y.inverse(), x.inverse(), z.inverse()) == val
                )  # star twist
        for x, nx in jd.n.items():
            assert jd.n.get(x.inverse()) == nx


def test_gamma_n_delta_identity(jd_a2, a2):
    for x in a2.elements:
        for y in a2.elements:
            s = sum(
                jd_a2.gamma_value(x.inverse(), y, z) * jd_a2.n.get(z, Fraction(0))
                for z in a2.elements
            )
            assert s == (1 if x == y else 0)


def test_j_unit_and_associativity(jd_a2, a2):
    one = jd_a2.unit()
    for x in a2.elements:
        tx = JElement.basis(x)
        assert j_multiply(one, tx, jd_a2) == tx
        assert j_multiply(tx, one, jd_a2) == tx
    for x, y, z in product(a2.elements, repeat=3):
        lhs = j_multiply(
            j_multiply(JElement.basis(x), JElement.basis(y), jd_a2),
            JElement.basis(z),
            jd_a2,
        )
        rhs = j_multiply(
            JElement.basis(x),
            j_multiply(JElement.basis(y), JElement.basis(z), jd_a2),
            jd_a2,
        )
        assert lhs == rhs


def test_j_support_respects_cells(jd_a2, kl_a2):
    cells = kl_a2.cells("left")
    for (x, y), row in jd_a2.gamma.items():
        # gamma_{x,y,z} != 0 forces x ~L y^-1, y ~L z^-1, z ~L x^-1
        for z in row:
            assert cells.block_of(x) == cells.block_of(y.inverse())
            assert cells.block_of(y) == cells.block_of(z.inverse())
            assert cells.block_of(z) == cells.block_of(x.inverse())


def test_rho_bar_multiplicative_unital(jd_a2):
    for ir in jd_a2.reps:
        lead = ir.data.leading
        # rho_bar(1_J) = identity
        d = ir.rep.dim
        ident = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
        acc = [[Fraction(0)] * d for _ in range(d)]
        for x, nx in jd_a2.n.items():
            cx = lead.get(x)
            if cx:
                acc = [
                    [a + nx * b for a, b in zip(ra, rb)]
                    for ra, rb in zip(acc, cx)
                ]
        assert acc == ident
        # rho_bar(t_x t_y) = rho_bar(t_x) rho_bar(t_y)
        for x, cx in lead.items():
            for y, cy in lead.items():
                prod = f_mat_mul(cx, cy)
                expected = [[Fraction(0)] * d for _ in range(d)]
                row = jd_a2.gamma.get((x, y), {})
                for z, gv in row.items():
                    cz = lead.get(z.inverse())
                    if cz:
                        expected = [
                            [a + gv * b for a, b in zip(ra, rb)]
                            for ra, rb in zip(expected, cz)
                        ]
                assert prod == expected, (x, y)


def test_schur_relations_leading(jd_a2, a2):
    """Row and column orthogonality of the leading coefficient tables."""
    reps = jd_a2.reps
    for li, ir1 in enumerate(reps):
        for lj, ir2 in enumerate(reps):
            d1, d2 = ir1.rep.dim, ir2.rep.dim
            for s in range(d1):
                for t in range(d1):
                    for u in range(d2):
                        for v in range(d2):
                            acc = Fraction(0)
                            for x in a2.elements:
                                c1 = ir1.data.leading.get(x)
                                c2 = ir2.data.leading.get(x.inverse())
                                if c1 and c2:
                                    acc += c1[s][t] * c2[u][v]
                            if li == lj and s == v and t == u:
                                assert acc == ir1.f
                            else:
                                assert acc == 0
    # dual orthogonality
    for x in a2.elements:
        for y in a2.elements:
            acc = Fraction(0)
            for ir in reps:
                cx = ir.data.leading.get(x)
                cy = ir.data.leading.get(y.inverse())
                if cx and cy:
                    finv = Fraction(1) / Fraction(ir.f)
                    for s in range(ir.rep.dim):
                        for t in range(ir.rep.dim):
                            acc += finv * cx[s][t] * cy[t][s]
            assert acc == (1 if x == y else 0)


def test_duflo_from_reps(kl_a2, a2):
    for rep, data in irreducible_cell_reps(kl_a2):
        duflo, ntilde = duflo_from_reps(data.a_value, data.leading, kl_a2)
        s, t = a2.simple
        if rep.dim == 2:
            assert duflo == {s, t}
            assert ntilde == {s: -1, t: -1}
        elif data.a_value == 0:
            assert duflo == {a2.identity}
            assert ntilde == {a2.identity: 1}
        else:
            assert duflo == {a2.w0}
            assert ntilde == {a2.w0: -1}


def test_lusztig_phi(jd_a2, kl_a2, a2):
    cells2 = kl_a2.cells("two-sided")
    assert lusztig_phi(a2.identity, jd_a2, kl_a2, cells2) == jd_a2.unit()
    # multiplicativity on C-basis products
    for x in a2.elements:
        for y in a2.elements:
            lhs = JElement({})
            for z, hv in kl_a2.h_structure(x, y).items():
                lhs = lhs + lusztig_phi(z, jd_a2, kl_a2, cells2).scale(hv)
            rhs = j_multiply(
                lusztig_phi(x, jd_a2, kl_a2, cells2),
                lusztig_phi(y, jd_a2, kl_a2, cells2),
                jd_a2,
            )
            assert lhs == rhs
    # surjectivity: the phi matrix has full rank over the Laurent field
    rows = []
    for w in a2.elements:
        img = lusztig_phi(w, jd_a2, kl_a2, cells2)
        rows.append([img.coeffs.get(z, LaurentPoly()) for z in a2.elements])
    assert laurent_rank(LaurentMatrix(6, 6, rows)) == 6


def test_cell_representation(kl_a2, a2):
    for rep, data in irreducible_cell_reps(kl_a2):
        psi = cell_representation(rep, data.a_value, data.leading, kl_a2)
        # representation relations via the validator machinery
        from coxkl.wgraph import braid_commutator_direct

        ident = LaurentMatrix.identity(psi.dim)
        for s in range(2):
            zeta = LaurentPoly({1: 1, -1: -1})
            assert psi.gens[s] @ psi.gens[s] == ident + psi.gens[s].scale(zeta)
        assert braid_commutator_direct(psi.gens[0], psi.gens[1], 3).is_zero()
        # same character, balanced, leading table equal to rho_bar
        for w in a2.elements:
            assert psi.character(w) == rep.character(w)
        assert leading_coefficients(psi) == (data.a_value, data.leading)


def test_geck_mueller(kl_a2, a2):
    g = reflection_graph(a2)
    report = geck_mueller_check(g, kl_a2)
    assert report.balanced and report.characters_equal
    sign = WGraph(a2, [frozenset({0, 1})], {})
    assert geck_mueller_check(sign, kl_a2).verdict == "equal"
    # non-Geck perturbation is rejected as invalid or unbalanced
    bad = WGraph(a2, g.labels, dict(g.edges))
    bad.edges[(0, 0, 1)] = LaurentPoly({0: 5})
    report = geck_mueller_check(bad, kl_a2)
    assert report.verdict != "equal"


CATALOGUE = catalogue()


@lru_cache(maxsize=None)
def shared_kl(engine):
    return KLContext(engine)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_geck_mueller_reproduces_every_fixture(name):
    """psi = rho_bar . phi equals the module entrywise on every shipped
    graph, the ten B3 table graphs and the Q(sqrt 5) ones included."""
    g = CATALOGUE[name]
    assert geck_mueller_check(g, shared_kl(g.engine)).verdict == "equal"


def characters_by_walks(psi, rep):
    """The H-characters compared at every T_w; both walks visit W in the
    same canonical order."""
    return all(
        mp.trace() == mr.trace() for (_, mp), (_, mr) in zip(walk(psi), walk(rep))
    )


def record_psi(monkeypatch, perturb):
    """Record each psi `geck_mueller_check` builds; with perturb, first add
    1 to entry (0, 0) of its generator 0, which moves the trace at T_s0."""
    made = []
    real = asymptotic.cell_representation

    def record(rep, a, leading, kl):
        psi = real(rep, a, leading, kl)
        if perturb:
            g0 = psi.gens[0].copy()
            g0.entries[0][0] = g0.entries[0][0] + LaurentPoly({0: 1})
            psi = Representation(psi.engine, [g0, *psi.gens[1:]])
        made.append(psi)
        return psi

    monkeypatch.setattr(asymptotic, "cell_representation", record)
    return made


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_class_characters_decide_as_the_full_walk(monkeypatch, name):
    """Characters compared on conjugacy class representatives agree with
    the comparison at every T_w."""
    made = record_psi(monkeypatch, perturb=False)
    g = CATALOGUE[name]
    report = geck_mueller_check(g, shared_kl(g.engine))
    assert report.characters_equal == characters_by_walks(made[0], wgraph_matrices(g))


@pytest.mark.parametrize("name", ["a2_refl", "a3_ext2", "b3_chi7", "h3_sign"])
def test_a_perturbed_psi_fails_both_character_routes(monkeypatch, name):
    made = record_psi(monkeypatch, perturb=True)
    g = CATALOGUE[name]
    report = geck_mueller_check(g, shared_kl(g.engine))
    assert report.characters_equal is False and report.verdict == "mismatch"
    assert not characters_by_walks(made[0], wgraph_matrices(g))


def test_invariant_form_over_f(jd_a2):
    for ir in jd_a2.reps:
        b = invariant_form_over_f(ir)
        for x, cx in ir.data.leading.items():
            cxi = ir.data.leading[x.inverse()]
            lhs = f_mat_mul(b, cx)
            rhs = f_mat_mul(f_mat_transpose(cxi), b)
            assert lhs == rhs


def test_cell_basis_axioms(jd_a2, kl_a2):
    cd = cell_basis(jd_a2.reps, kl_a2)
    assert sorted(cd.dims) == [1, 1, 2]
    assert len(cd.basis) == 6  # 1 + 4 + 1
    report = verify_cell_axioms(cd, kl_a2)
    assert report.ok, report.failures
    # the type order respects the two-sided cell order
    two = kl_a2.cells("two-sided")
    for (i, j) in cd.lambda_lt:
        assert (cd.cell_block[i], cd.cell_block[j]) in two.leq
        assert cd.cell_block[i] != cd.cell_block[j]


def test_cell_basis_axioms_a3(jd_a3, kl_a3):
    cd = cell_basis(jd_a3.reps, kl_a3)
    assert len(cd.basis) == 24
    report = verify_cell_axioms(cd, kl_a3)
    assert report.ok, report.failures


def _failures(cd, kl, basis):
    report = verify_cell_axioms(cd._replace(basis=basis), kl)
    assert not report.ok
    return report.failures


def test_cell_axioms_reject_a_higher_cell_term(jd_a3, kl_a3):
    """C_w from a two-sided cell above lambda makes T_g C^lambda_{st} leak
    into a type that is not below lambda."""
    cd = cell_basis(jd_a3.reps, kl_a3)
    two = kl_a3.cells("two-sided")
    lam, mu = min(cd.lambda_lt)
    w = next(w for w in kl_a3.engine.elements
             if two.block_of(w) == cd.cell_block[mu])
    basis = dict(cd.basis)
    key = next(k for k in sorted(basis) if k[0] == lam)
    basis[key] = dict(basis[key])
    basis[key][w] = basis[key].get(w, 0) + 1
    assert _failures(cd, kl_a3, basis) == [
        "(C3) fails: T_2 C^0_00 leaks into type 1 not below 0",
        "(C3) fails: T_2 C^0_00 leaks into type 1 not below 0",
        "(C3) fails: T_1 C^1_11 hits column 0 != 1",
        "(C3) fails: T_2 C^1_02 hits column 0 != 2",
    ]


def test_cell_axioms_reject_a_broken_star(jd_a3, kl_a3):
    cd = cell_basis(jd_a3.reps, kl_a3)
    li, s, t = next(k for k in sorted(cd.basis) if k[1] != k[2])
    basis = dict(cd.basis)
    basis[(li, s, t)] = {w: 2 * c for w, c in basis[(li, s, t)].items()}
    failures = _failures(cd, kl_a3, basis)
    assert f"(C2) fails at lambda={li}, (s,t)=({s},{t})" in failures
    assert f"(C2) fails at lambda={li}, (s,t)=({t},{s})" in failures


def test_cell_axioms_reject_swapped_indices(jd_a3, kl_a3):
    """Swapping C^lambda_{st} and C^lambda_{ts} keeps (C2), since * swaps
    them too, but T_g then lands in the wrong column: (C3) fails."""
    cd = cell_basis(jd_a3.reps, kl_a3)
    li, s, t = next(k for k in sorted(cd.basis) if k[1] != k[2])
    basis = dict(cd.basis)
    basis[(li, s, t)], basis[(li, t, s)] = basis[(li, t, s)], basis[(li, s, t)]
    assert _failures(cd, kl_a3, basis) == [
        "(C3) fails: T_0 C^1_20 hits column 1 != 0",
        "(C3) fails: T_1 C^1_01 hits column 0 != 1",
        "(C3) fails: r_1(0,0) depends on the column index",
        "(C3) fails: T_1 C^1_01 hits column 0 != 1",
        "(C3) fails: T_1 C^1_11 hits column 0 != 1",
        "(C3) fails: r_1(1,1) depends on the column index",
        "(C3) fails: r_1(1,1) depends on the column index",
        "(C3) fails: T_2 C^1_00 hits column 1 != 0",
        "(C3) fails: T_2 C^1_10 hits column 1 != 0",
        "(C3) fails: r_2(0,0) depends on the column index",
        "(C3) fails: r_2(1,1) depends on the column index",
        "(C3) fails: r_2(1,1) depends on the column index",
    ]


@pytest.mark.parametrize(
    "group", ["A2", "A3", "I2(4):2,1", "B3:1,2,2", "B2", "I2(5)"]
)
def test_cell_irreducibility_matches_commutant_oracle(group):
    """The dimension-sum identity accepts exactly when every distinct cell
    module has a one-dimensional commutant (Laurent intertwiner solve)."""
    kl = KLContext(shared_engine(group))
    modules, seen = [], []
    for cgraph, _ in kl_left_cell_wgraphs(kl):
        rep = wgraph_matrices(cgraph)
        char = [rep.character(w) for w in kl.engine.elements]
        if char not in seen:
            seen.append(char)
            modules.append(rep)
    oracle = all(len(intertwiner_space(rep, rep)) == 1 for rep in modules)
    try:
        reps = irreducible_cell_reps(kl)
    except VerificationError as exc:
        assert "reducible" in str(exc)
        accepted = False
    else:
        assert [rep.dim for rep, _ in reps] == [rep.dim for rep in modules]
        accepted = True
    assert accepted == oracle


def test_b3_reducible_cells_need_table_graphs():
    eng = shared_engine("B3")
    kl = KLContext(eng)
    # six left cells of B3 are reducible, so the cell route must refuse
    with pytest.raises(ValueError):
        irreducible_cell_reps(kl)
    jd = jdata_from_graphs(kl, b3_graphs().values())
    # one Duflo involution per left cell
    assert len(jd.duflo) == len(kl.cells("left").blocks) == 14
    one = jd.unit()
    for x in list(eng.elements)[:6]:
        tx = JElement.basis(x)
        assert j_multiply(one, tx, jd) == tx
        assert j_multiply(tx, one, jd) == tx
    for (x, y), row in jd.gamma.items():
        for z, val in row.items():
            assert Fraction(val).denominator == 1
            assert jd.gamma_value(y, z, x) == val


def lusztig_p_failures(kl, jd) -> list[str]:
    """Where J breaks Lusztig's P13 (each left cell holds exactly one Duflo
    element), P6 (Duflo elements are involutions) or P5 (n_d = +-1), or a
    is not constant on a two-sided cell (Lusztig, CRM Monogr. 18, 14.2)."""
    failures = []
    for k, block in enumerate(kl.cells("left").blocks):
        found = sum(w in jd.duflo for w in block)
        if found != 1:
            failures.append(f"P13: left cell {k} holds {found} Duflo elements")
    for d in sorted(jd.duflo, key=lambda w: w.index):
        if d.inverse() != d:
            failures.append(f"P6: Duflo element {d.index} is not an involution")
        if jd.n[d] not in (1, -1):
            failures.append(f"P5: n_{d.index} = {jd.n[d]}")
    a = kl.lusztig_a_delta_n().a
    for k, block in enumerate(kl.cells("two-sided").blocks):
        if len({a[w] for w in block}) != 1:
            failures.append(f"a is not constant on two-sided cell {k}")
    return failures


@pytest.mark.parametrize(
    "group, cells", [("B4", 50), ("A5", 76), ("B4:4,1,1,1", 76)]
)
def test_large_groups_keep_p5_p6_p13(jdata_run, group, cells):
    """|D| is the number of left cells, by P13."""
    _, kl, jd = jdata_run(group)
    assert len(kl.cells("left").blocks) == len(jd.duflo) == cells
    assert lusztig_p_failures(kl, jd) == []


def test_p13_fails_without_one_duflo_element(jdata_run):
    _, kl, jd = jdata_run("B4:4,1,1,1")
    d = min(jd.duflo, key=lambda w: w.index)
    k = kl.cells("left").block_of(d)
    failures = lusztig_p_failures(kl, jd._replace(duflo=jd.duflo - {d}))
    assert failures == [f"P13: left cell {k} holds 0 Duflo elements"]


@pytest.mark.parametrize("group", ["A5", "B4:4,1,1,1"])
def test_every_involution_is_a_duflo_element(jdata_run, group):
    """Every left-cell module is irreducible, so each irreducible chi is the
    module of chi(1) left cells, and sum chi(1) counts the involutions, as
    every representation of W is real (Frobenius-Schur)."""
    _, kl, jd = jdata_run(group)
    eng = kl.engine
    involutions = {w for w in eng.elements if w.inverse() == w}
    assert jd.duflo == involutions
    dims = {}
    for cgraph, _ in kl_left_cell_wgraphs(kl):
        rep = wgraph_matrices(cgraph)
        dims.setdefault(class_character(rep), rep.dim)
    assert sum(d * d for d in dims.values()) == eng.order
    assert len(kl.cells("left").blocks) == sum(dims.values()) == len(involutions)


@pytest.mark.parametrize("group", ["A3", "A4", "A5"])
def test_type_a_a_values_and_left_cells_by_robinson_schensted(jdata_run, group):
    """a(w) = sum_i (i - 1) lambda_i for lambda the shape of the insertion
    tableau of w, and the left cells are the fibres of the insertion tableau
    of w^-1 (Kazhdan-Lusztig, Invent. Math. 53, 1979)."""
    _, kl, _ = jdata_run(group)
    a = kl.lusztig_a_delta_n().a
    fibres = {}
    for w in kl.engine.elements:
        shape = [len(row) for row in rsk_insertion(one_line(w))]
        assert a[w] == sum(i * part for i, part in enumerate(shape)), w.index
        fibres.setdefault(rsk_insertion(one_line(w.inverse())), set()).add(w)
    left = {frozenset(block) for block in kl.cells("left").blocks}
    assert left == {frozenset(f) for f in fibres.values()}


def test_cell_axioms_report_a_dependent_basis(jd_a3, kl_a3):
    """A basis element copied over another makes the basis matrix singular:
    a (C1) failure report, not an error from the elimination."""
    cd = cell_basis(jd_a3.reps, kl_a3)
    first, second = sorted(cd.basis)[:2]
    basis = dict(cd.basis)
    basis[second] = dict(basis[first])
    failures = _failures(cd, kl_a3, basis)
    assert failures == ["(C1) fails: cell elements are linearly dependent"]


def laurent_character_partition(kl):
    """Left cells grouped by full Laurent characters, one walk per cell."""
    groups: dict = {}
    for k, (cgraph, _) in enumerate(kl_left_cell_wgraphs(kl)):
        char = tuple(m.trace() for _, m in walk(wgraph_matrices(cgraph)))
        groups.setdefault(char, []).append(k)
    return sorted(groups.values())


def class_character_partition(kl):
    groups: dict = {}
    for k, (cgraph, _) in enumerate(kl_left_cell_wgraphs(kl)):
        groups.setdefault(class_character(wgraph_matrices(cgraph)), []).append(k)
    return sorted(groups.values())


@pytest.mark.parametrize(
    "group",
    ["A2", "A3", "A4", "B2", "B3", "D4", "H3", "I2(3)", "I2(4)", "I2(5)",
     "I2(6)", "B3:2,1,1", "B3:1,2,2", "I2(4):2,1", "I2(4):3,1", "I2(6):2,1"],
)
def test_class_characters_group_cells_as_laurent_characters(group):
    """W-characters at v = 1 on class representatives tell cell modules
    apart exactly when their H-characters, walked over all of W, differ."""
    kl = KLContext(shared_engine(group))
    assert class_character_partition(kl) == laurent_character_partition(kl)


def test_cell_modules_are_walked_only_when_balanced(monkeypatch, count_walks):
    """On A4, `jdata_from_cells` walks W once for each balanced module: 7
    irreducibles, 7 walks.  A refused group is refused before any walk,
    with the dimension sum unchanged."""
    walks = count_walks
    at_first_balance = []
    real_balance = asymptotic.balance

    def first_balance(rep):
        at_first_balance.append(len(walks))
        return real_balance(rep)

    monkeypatch.setattr(asymptotic, "balance", first_balance)
    jd = jdata_from_cells(KLContext(shared_engine("A4")))
    assert len(jd.reps) == 7 and len(walks) == 7
    assert at_first_balance[0] == 0
    for group, total, order in (("B2", 20, 8), ("H3", 188, 120)):
        walks.clear()
        with pytest.raises(VerificationError) as exc:
            irreducible_cell_reps(KLContext(shared_engine(group)))
        assert f"dimension sum {total} != |W| = {order}" in str(exc.value)
        assert not walks


def test_gamma_table_refuses_a_bad_schur_sum(kl_a2, a2):
    """A leading table whose (0, 0) entries are 0 has Schur unit 0."""
    reps = irreducible_cell_reps(kl_a2)
    (rep, data), rest = reps[0], reps[1:]
    leading = {w: [[Fraction(0), *c[0][1:]], *c[1:]] for w, c in data.leading.items()}
    bad = [(rep, data._replace(leading=leading)), *rest]
    with pytest.raises(VerificationError, match="no term at v\\^-2a"):
        gamma_n_table(a2, bad)
