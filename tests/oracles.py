"""Second routes that the tests hold the production code against.

No `coxkl` command calls these.  Each one reaches a fact that `coxkl`
computes one way by another route: the braid commutator through the
Chebyshev-style polynomial tau, the generator matrices rebuilt from the
idempotent and arrow matrices, balancedness and the Schur element from walks
of their own, Lusztig's homomorphism phi read off the h-table, and J from the
leading matrices of the KL cell modules.  The golden ratio and the real sign
of a Q(sqrt 5) element serve the tests of that field and the root-system
oracle of the group tables.
"""

from fractions import Fraction

from coxkl.asymptotic import JElement, gamma_n_table, irreducible_cell_reps
from coxkl.balance import VerificationError
from coxkl.laurent import ZERO, LaurentMatrix, LaurentPoly, add_term, shift
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
