"""Second routes that the tests hold the production code against.

No `coxkl` command calls these.  Each one reaches a fact that `coxkl`
computes one way by another route: the braid commutator through the
Chebyshev-style polynomial tau, the generator matrices rebuilt from the
idempotent and arrow matrices, the walk of W in Laurent matrices over Q or
Q(sqrt 5) where `coxkl` walks packed integers over Q, and from it
balancedness, the leading table and the Schur element, the h-table in Laurent
polynomials, the elements of J with their product and unit (`coxkl jdata`
checks the unit by integer sums over the gamma table), Lusztig's
homomorphism phi read off the h-table, J from the leading matrices of the
KL cell modules, Geck's form B summed as
sum_x c_x^T c_x over a leading table, the bound of the a-value by
the labels of a W-graph, the label multiset of a W-graph recovered from the
-v_s^-1-eigenspaces of its generator matrices by Laurent elimination (`coxkl
labels` reads it off the support condition), strictification of a form
whose residue is block diagonal by labels through the elimination of
`balance`, and the Robinson-Schensted insertion tableau, which describes
the a-values and left cells of type A with no KL data.  The Bruhat
downsets come from whole interval images under a left descent, where
`coxkl` ORs the downsets of the coatoms.  The golden
ratio and the real sign of a Q(sqrt 5) element serve the tests of that field
and the root-system oracle of the group tables.
"""

from bisect import bisect
from fractions import Fraction
from typing import NamedTuple

from coxkl.asymptotic import gamma_n_table, irreducible_cell_reps
from coxkl.balance import VerificationError, _eliminate, a_value
from coxkl.coxeter import bit_indices
from coxkl.kl import ADeltaN
from coxkl.laurent import (
    ONE,
    ZERO,
    LaurentMatrix,
    LaurentPoly,
    add_term,
    bar,
    from_sum,
    shift,
)
from coxkl.linalg import f_mat_mul, f_mat_transpose, laurent_kernel, laurent_rank
from coxkl.scalars import Sqrt5
from coxkl.wgraph import Representation, label_subsets, tau_poly


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


def downsets_by_s_image(eng) -> list[int]:
    """The Bruhat downset bitsets of `GroupEngine._downsets`, one interval
    image at a time: for the first letter s of the canonical word of w,
    [1, w] is [1, sw] together with its image under left multiplication by s."""
    down = [1]
    for i in range(1, eng.order):
        row = eng.lmul[eng.words[i][0]]
        below = down[row[i]]
        image = 0
        for x in bit_indices(below):
            image |= 1 << row[x]
        down.append(below | image)
    return down


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


def walk(rep: Representation):
    """Yield (w, rho(T_w)) over all of W in Laurent matrices, in the order of
    `Representation.valuation_walk`: depth-first along the canonical ascent
    tree (`GroupEngine.ascent_walk`), keeping one running matrix per
    length."""
    eng = rep.engine
    m = LaurentMatrix.identity(rep.dim)
    yield eng.identity, m
    path = [m]
    for wi, s, l in eng.ascent_walk():
        m = rep.gens[s] @ path[l - 1]
        del path[l:]
        path.append(m)
        yield eng.elements[wi], m


def is_balanced(rep: Representation, a: int):
    """Check nu(rho(T_w)) >= -a for all w with equality somewhere.

    Returns (ok, witness): on failure the witness violates the bound, on
    success it attains it.
    """
    attained = None
    for w, m in walk(rep):
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
    walked = list(walk(rep))
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
    for w, m in walk(rep):
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


class JElement:
    """An element of J, a sparse map {w: coefficient of t_w} that stores no
    zeros (coefficients may carry v-powers, as phi produces)."""

    def __init__(self, coeffs=None):
        self.coeffs = {w: c for w, c in coeffs.items() if c} if coeffs else {}

    def __eq__(self, other):
        if not isinstance(other, JElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"JElement({self.coeffs!r})"

    def __add__(self, other: "JElement") -> "JElement":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            add_term(out, w, c)
        return JElement(out)

    def scale(self, f) -> "JElement":
        return JElement({w: c * f for w, c in self.coeffs.items()} if f else {})

    def __bool__(self):
        return bool(self.coeffs)

    @staticmethod
    def basis(w) -> "JElement":
        return JElement({w: ONE})


def j_multiply(a: JElement, b: JElement, data) -> JElement:
    """t_x t_y = sum_z gamma_{x,y,z} t_{z^-1}, extended bilinearly."""
    out = {}
    for x, cx in a.coeffs.items():
        for y, cy in b.coeffs.items():
            row = data.gamma.get((x, y))
            if not row:
                continue
            c = cx * cy
            for z, gv in row.items():
                add_term(out, z.inverse(), c * gv)
    return JElement(out)


def j_unit(data) -> JElement:
    """sum_d n_d t_d over the Duflo set of a `JData`."""
    return JElement({d: LaurentPoly({0: data.n[d]}) for d in data.duflo})


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


def leading_gram_form(leading: dict) -> list:
    """sum_x c_x^T c_x over a leading table: the residue of the Gram form of
    its balanced module, Geck's form B up to a scalar (`coxkl` reads B off
    the balanced residues d, `asymptotic.cell_form`)."""
    forms = [f_mat_mul(f_mat_transpose(c), c) for c in leading.values()]
    return [[sum(col) for col in zip(*rows)] for rows in zip(*forms)]


class ABoundReport(NamedTuple):
    ok: bool
    a_value: int
    bound: int
    slack: int

    def __bool__(self):
        return self.ok


def a_bound_check(rep: Representation, labels: dict[frozenset, int]) -> ABoundReport:
    """a >= max over occurring labels I of L(w_I), with the attained slack."""
    eng = rep.engine
    a = a_value(rep)
    bound = 0
    for label, count in labels.items():
        if count:
            bound = max(bound, eng.weight(eng.longest_element(label)))
    return ABoundReport(a >= bound, a, bound, a - bound)


def eigenspace_label_multiplicities(rep: Representation) -> dict[frozenset, int]:
    """Vertex-label multiplicities recovered from eigenspace dimensions.

    For each I the multiplicity is dim of the intersection of the
    -v_s^-1 eigenspaces over s in I, modulo the span of the deeper
    intersections with one extra generator.  All kernels are computed
    fraction-free over the Laurent ring.
    """
    eng = rep.engine
    n = eng.datum.rank
    d = rep.dim
    ident = LaurentMatrix.identity(d)

    kernels: dict[frozenset, list[list[LaurentPoly]]] = {}

    def kernel_of(i_lab: frozenset):
        if i_lab in kernels:
            return kernels[i_lab]
        if not i_lab:
            basis = [
                [ONE if j == i else ZERO for j in range(d)] for i in range(d)
            ]
            kernels[i_lab] = basis
            return basis
        rows = []
        for s in i_lab:
            ls = eng.generator_weight(s)
            cond = rep.gens[s] + ident.scale(LaurentPoly({-ls: 1}))
            rows.extend(cond.entries)
        basis = laurent_kernel(LaurentMatrix(len(rows), d, rows))
        kernels[i_lab] = basis
        return basis

    out: dict[frozenset, int] = {}
    for i_lab in label_subsets(n):
        top = kernel_of(i_lab)
        dim_top = len(top)
        stacked = []
        for s in range(n):
            if s not in i_lab:
                stacked.extend(kernel_of(i_lab | {s}))
        if stacked:
            dim_sub = laurent_rank(LaurentMatrix(len(stacked), d, stacked))
        else:
            dim_sub = 0
        out[i_lab] = dim_top - dim_sub
    return {k: v for k, v in out.items() if v}


def strictify(
    rep: Representation,
    form: LaurentMatrix,
    labels: list[frozenset],
):
    """Make the residue of the form fully diagonal inside each label block.

    The form's residue must already be block diagonal with respect to the
    label grouping (that is the content of the off-diagonal-vanishing lemma);
    a violation raises ValueError with the offending block pair.  The
    residue's pivots must not vanish: then the elimination of `balance`
    never rescales, and its unit upper-triangular Q is L^-Tr for the
    LDL^Tr factorization of the residue, block by block.  A vanishing pivot
    raises VerificationError.  Returns (rep', form', l_matrix) where
    l_matrix = L is block unitriangular over F.
    """
    d = rep.dim
    if len(labels) != d:
        raise ValueError("need one label per matrix index")
    val = form.valuation()
    res = (form.scale(LaurentPoly({-val: 1})) if val else form).residue()
    for i in range(d):
        for j in range(d):
            if labels[i] != labels[j] and res[i][j]:
                raise ValueError(
                    f"form residue is not block diagonal: block "
                    f"({sorted(labels[i])}, {sorted(labels[j])}) is nonzero"
                )
    omega, q, q_inv, _, _ = _eliminate(form)
    if not q.is_constant():
        raise VerificationError(
            "a residue pivot vanishes: the form is not definite on a label block"
        )
    l_full = f_mat_transpose(q_inv.residue())
    return rep.conjugate(q, q_inv), omega, l_full


def one_line(w) -> tuple:
    """w(0), ..., w(n) for w in type A_n, s_i being the transposition (i, i+1)
    and the reduced word read as a composite of maps."""
    line = list(range(w.engine.datum.rank + 1))
    for s in w.engine.words[w.index]:
        line[s], line[s + 1] = line[s + 1], line[s]
    return tuple(line)


def rsk_insertion(seq) -> tuple:
    """The Robinson-Schensted insertion tableau of a sequence of distinct
    numbers, as a tuple of rows."""
    rows = []
    for x in seq:
        for row in rows:
            k = bisect(row, x)
            if k == len(row):
                row.append(x)
                break
            row[k], x = x, row[k]
        else:
            rows.append([x])
    return tuple(map(tuple, rows))
