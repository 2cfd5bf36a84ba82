"""Second routes that the tests hold the production code against.

No `coxkl` command calls these.  Each one reaches a fact that `coxkl`
computes one way by another route: the braid commutator through the
Chebyshev-style polynomial tau, the generator matrices rebuilt from the
idempotent and arrow matrices, balancedness, the leading table and the
Schur element from Laurent walks of their own, the h-table in Laurent
polynomials, Lusztig's homomorphism phi read off the h-table, and J from
the leading matrices of the KL cell modules.  The golden ratio and the real
sign of a Q(sqrt 5) element serve the tests of that field and the
root-system oracle of the group tables.
"""

from fractions import Fraction

from coxkl.asymptotic import JElement, gamma_n_table, irreducible_cell_reps
from coxkl.balance import VerificationError
from coxkl.kl import ADeltaN
from coxkl.laurent import (
    ZERO,
    LaurentMatrix,
    LaurentPoly,
    add_term,
    bar,
    from_sum,
    shift,
)
from coxkl.scalars import Sqrt5
from coxkl.wgraph import Representation, tau_poly


#: the golden ratio (1 + sqrt(5)) / 2
GOLDEN = Sqrt5(Fraction(1, 2), Fraction(1, 2))


def sqrt5_sign(x: Sqrt5) -> int:
    """Sign of a + b*sqrt(5) under the real embedding with sqrt(5) > 0."""
    a, b = x.a, x.b
    if not b:
        return (a > 0) - (a < 0)
    if not a:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: compare |a| with |b|*sqrt(5)
    d = a * a - 5 * b * b
    sa = 1 if a > 0 else -1
    return sa * ((d > 0) - (d < 0))


def braid_commutator_tau(a, b, m: int, zeta: LaurentPoly) -> LaurentMatrix:
    """Delta_m(a, b) via (-1)^(m-1) tau_{m-1}(a + b - zeta) (a - b), an
    identity of equal weights."""
    shifted = a + b - LaurentMatrix.identity(a.rows).scale(zeta)
    t = LaurentMatrix(a.rows, a.cols)
    power = LaurentMatrix.identity(a.rows)
    for c in tau_poly(m - 1):
        if c:
            t = t + power.scale(LaurentPoly({0: c}))
        power = power @ shifted
    out = t @ (a - b)
    return -out if (m - 1) % 2 else out


def omega_reconstruction(g, om) -> Representation:
    """rho(T_s) = -v_s^-1 e_s + v_s (1 - e_s) + x_s, entry by entry."""
    eng = g.engine
    ident = LaurentMatrix.identity(g.size)
    gens = []
    for s in range(eng.datum.rank):
        ls = eng.generator_weight(s)
        gens.append(
            om.e[s].scale(LaurentPoly({-ls: -1}))
            + (ident - om.e[s]).scale(LaurentPoly({ls: 1}))
            + om.x[s]
        )
    return Representation(eng, gens)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """The block-diagonal module r1 + r2."""
    n, m = r1.dim, r2.dim
    gens = []
    for a, b in zip(r1.gens, r2.gens):
        g = LaurentMatrix(n + m, n + m)
        for i in range(n):
            g.entries[i][:n] = a.entries[i]
        for i in range(m):
            g.entries[n + i][n:] = b.entries[i]
        gens.append(g)
    return Representation(r1.engine, gens)


def is_balanced(rep: Representation, a: int):
    """Check nu(rho(T_w)) >= -a for all w with equality somewhere.

    Returns (ok, witness): on failure the witness violates the bound, on
    success it attains it.
    """
    attained = None
    for w, m in rep.walk():
        v = m.valuation()
        if v is None:
            continue
        if v < -a:
            return False, w
        if v == -a and attained is None:
            attained = w
    return attained is not None, attained


def leading_by_walk(rep: Representation):
    """(a, leading table, witness) by the Laurent `walk`: a from the
    traces, the table of residues of v^a rho(T_w) over the w of valuation
    -a in walk order, and the first w of valuation below -a, or None.  The
    table is None when there is a witness."""
    walked = list(rep.walk())
    a = -min(t for t in (m.trace().valuation() for _, m in walked) if t is not None)
    for w, m in walked:
        if m.valuation() < -a:
            return a, None, w
    zero = Fraction(0)
    table = {
        w: [[e.coeffs.get(-a, zero) for e in row] for row in m.entries]
        for w, m in walked
        if m.valuation() == -a
    }
    return a, table, None


def schur_f(rep: Representation, a: int, entry=(0, 0)):
    """The Schur element c = sum_w rho(T_{w^-1})_{ts} rho(T_w)_{st} at the
    entry (s, t) and its unit f = lowest_term(v^{2a} c), from a walk of its
    own; `asymptotic._schur_unit` reads f at entry (0, 0) off the leading
    table.  Refuses a sum that vanishes or whose lowest term is not at
    v^-2a."""
    s, t = entry
    st_vals, ts_vals = {}, {}
    for w, m in rep.walk():
        st_vals[w] = m.entries[s][t]
        ts_vals[w] = m.entries[t][s]
    c = ZERO
    for w, x in st_vals.items():
        c = c + ts_vals[w.inverse()] * x
    if not c:
        raise VerificationError("Schur sum vanishes")
    shifted = shift(c, 2 * a)
    if shifted.valuation() != 0:
        raise VerificationError("Schur element has the wrong valuation")
    return c, shifted.lowest_term()


def h_column(kl, y) -> list[dict[int, LaurentPoly]]:
    """C_x C_y = sum_z h_{x,y,z} C_z for every x, in Laurent polynomials:
    entry x.index is {z.index: h}.  The recursion of `KLContext.h_column`,
    C_x C_y = C_s (C_x' C_y) - sum_z w_{s,z,x'} C_z C_y for x = s x', with
    no packing."""
    eng = kl.engine
    cols = kl._generator_columns()
    column: list[dict[int, LaurentPoly]] = [{y.index: LaurentPoly({0: 1})}]
    for xi in range(1, eng.order):
        s = eng.words[xi][0]
        xp = eng.lmul[s][xi]
        gen = cols[s]
        acc: dict[int, dict] = {}
        for u, c in column[xp].items():
            for z, weight in gen[u]:
                out = acc.setdefault(z, {})
                for k1, c1 in c.coeffs.items():
                    for k2, c2 in weight.coeffs.items():
                        add_term(out, k1 + k2, c1 * c2)
        for z, weight in gen[xp]:
            if z != xi:
                for t, c in column[z].items():
                    out = acc.setdefault(t, {})
                    for k1, c1 in c.coeffs.items():
                        for k2, c2 in weight.coeffs.items():
                            add_term(out, k1 + k2, -c1 * c2)
        row = {}
        for z, out in acc.items():
            h = from_sum(out)
            if h:
                row[z] = h
        column.append(row)
    return column


def lusztig_a_delta_n(kl) -> ADeltaN:
    """a, Delta, n, the Duflo set and gamma as `KLContext.lusztig_a_delta_n`
    defines them, read off the Laurent h-columns of `h_column`."""
    eng = kl.engine
    elements = eng.elements
    a = [0] * eng.order
    lead = [{} for _ in elements]
    for y in elements:
        for xi, row in enumerate(h_column(kl, y)):
            for zi, h in row.items():
                k = -h.valuation()
                if k > a[zi]:
                    a[zi], lead[zi] = k, {}
                if k == a[zi]:
                    lead[zi][(xi, y.index)] = h.coeffs[-k]
    gamma = {}
    for zi, terms in enumerate(lead):
        z_inv = elements[eng.inverses[zi]]
        for (xi, yi), c in terms.items():
            gamma.setdefault((elements[xi], elements[yi]), {})[z_inv] = c
    a_of = {z: a[z.index] for z in elements}
    delta, n = {}, {}
    for z in elements:
        p = bar(kl.pstar(eng.identity, z))
        delta[z], n[z] = p.valuation(), p.lowest_term()
    duflo = {z for z in elements if a_of[z] == delta[z]}
    return ADeltaN(a_of, delta, n, duflo, gamma)


def lusztig_phi(w, data, kl, cells) -> JElement:
    """phi(C_w) = sum over d in D and z two-sided-equivalent to d of
    n_d h_{w,d,z} t_z."""
    if cells.kind != "two-sided":
        raise ValueError("phi needs the two-sided cell partition")
    out = {}
    for d in data.duflo:
        block = set(cells.blocks[cells.block_of(d)])
        for z, hv in kl.h_structure(w, d).items():
            if z in block and hv:
                add_term(out, z, hv * data.n[d])
    return JElement(out)


def jdata_from_cells(kl):
    """J from the leading matrices of one balanced KL cell module per type."""
    return gamma_n_table(kl.engine, irreducible_cell_reps(kl))
