"""Invariant bilinear forms, the degree-safe balancing base change, a-values,
and leading-coefficient extraction.

The invariant form is always produced by the full Gram sum over the standard
basis, never by linear solving, so every intermediate stays inside the
Laurent ring.  The sum runs over the cosets of a chain of parabolic
subgroups: each w is x d with x in the smaller subgroup, d a distinguished
coset representative and T_w = T_x T_d, so a level of the recursion sums
rho(T_d)^Tr Omega rho(T_d) over the representatives d, a few dozen terms
where W has hundreds of elements.  One symmetric elimination diagonalises
the residue of the form, in place on a copy: each step scales a row and a
column by a monomial, clears any residue this brings back above its pivot,
and then clears the residues right of its pivot, all by paired column and
row operations, building no matrix product.  The maximal entry degree of
the form never grows from step to step, and the step history is recorded
so callers can assert that.  `balance` runs that elimination on the Gram
form; strictification, a test oracle in `tests/oracles.py`, runs it on a
form whose residue is block diagonal by labels.  One depth-first sweep of
the balanced module gives its a-value and its leading table, so `balance`
walks W once per module.  The sweep runs on packed integers
(`Representation.valuation_walk`), exact at a width fixed by a coefficient
bound; a module over Q(sqrt 5) is swept as its restriction of scalars to Q.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import Element
from .laurent import LaurentMatrix, LaurentPoly, from_sum
from .scalars import scalar_inv, scalar_str
from .wgraph import Representation


class VerificationError(ValueError):
    """A mathematical check failed on well-formed input (CLI exit 1)."""


class NotBalancedError(VerificationError):
    """rho(T_w) has valuation below -a; carries that w and the a-value of
    the walk."""

    def __init__(self, witness: Element, a: int):
        super().__init__(f"Representation not balanced! (witness {witness!r})")
        self.witness = witness
        self.a_value = a


class BalancedData(NamedTuple):
    """Outcome of balancing: the a-value, base change and leading table."""

    a_value: int
    q: LaurentMatrix
    q_inv: LaurentMatrix
    d: list  # diagonal residues of the balanced form
    leading: dict[Element, list]
    degree_history: list
    #: the balanced invariant form
    form: LaurentMatrix


def gram_invariant_form(rep: Representation) -> LaurentMatrix:
    """Omega = v^-nu * sum_w rho(T_w)^Tr rho(T_w), normalized to valuation 0,
    by the parabolic coset recursion: a symmetric matrix intertwining rho
    with its transpose-dual.

    Along the chain of `GroupEngine.coset_chain`, T_xd = T_x T_d for x in
    W_k and d in D_k, so the partial sum Omega_k over W_k gives
    Omega_(k+1) = sum_(d in D_k) rho(T_d)^Tr Omega_k rho(T_d).  The term of
    d = p s is rho(T_s)^Tr (term of p) rho(T_s), so each representative
    costs two products with one generator.  A level sums its terms in
    place, upper triangle only, and wraps each entry once.  The invariance
    identity Omega rho(T_s) = rho(T_s)^Tr Omega is verified for every
    generator (T_s is *-fixed); a failure, which only a module that is not
    a Hecke module can produce, raises VerificationError.
    """
    d = rep.dim
    gens_tr = [g.transpose() for g in rep.gens]
    omega = LaurentMatrix.identity(d)
    for level in rep.engine.coset_chain():
        acc = [[{} for _ in range(d)] for _ in range(d)]
        terms = {}
        for x, p, s in level:
            term = omega if p is None else gens_tr[s] @ terms[p] @ rep.gens[s]
            terms[x] = term
            for i, row in enumerate(term.entries):
                acc_i = acc[i]
                for j in range(i, d):
                    cell = acc_i[j]
                    for k, c in row[j].coeffs.items():
                        cell[k] = cell.get(k, 0) + c
        omega = LaurentMatrix(d, d)
        for i in range(d):
            for j in range(i, d):
                omega.entries[i][j] = omega.entries[j][i] = from_sum(acc[i][j])
    val = omega.valuation()
    if val:
        omega = omega.scale(LaurentPoly({-val: 1}))
    for s, g in enumerate(rep.gens):
        if (omega @ g) != (g.transpose() @ omega):
            raise VerificationError(f"Gram form is not invariant for generator {s}")
    return omega


def a_value(rep: Representation) -> int:
    """-min_w nu(trace rho(T_w)), by depth-first traversal."""
    alpha = 0
    for _, _, t, _ in rep.valuation_walk():
        if t is not None and t < alpha:
            alpha = t
    return -alpha


def leading_coefficients(rep: Representation):
    """The a-value and the sparse leading table c(w) = (v^a rho(T_w)) mod m
    over F, as (a, table), from one walk of W (`valuation_walk`).

    The walk reads a = -min_w nu(trace rho(T_w)) and keeps the residues at
    the lowest matrix valuation met so far, starting afresh each time that
    valuation drops.  A matrix with valuation below -a raises
    NotBalancedError, naming the first such w of the walk: it is one of the
    drops.  Otherwise the lowest matrix valuation is -a, since no trace has
    a lower valuation than its matrix.
    """
    alpha = low = 0
    drops = []
    table: dict[Element, list] = {}
    for w, v, t, lowest in rep.valuation_walk():
        if v is None:
            continue
        if t is not None and t < alpha:
            alpha = t
        if v < low:
            low, table = v, {}
            drops.append((v, w))
        if v == low:
            # the residue of v^-low rho(T_w): the coefficients of v^low
            table[w] = lowest()
    for v, w in drops:
        if v < alpha:
            raise NotBalancedError(w, -alpha)
    return -alpha, table


def _eliminate(matrix: LaurentMatrix):
    """The degree-safe symmetric elimination, in place on a copy of matrix
    normalized to valuation 0.

    Step i scales row and column i by v^-gamma, gamma = nu(Omega_ii)/2.
    That can bring back a residue at (k, i) above an earlier pivot k; it is
    cleared against pivot k as below, which can raise nu(Omega_ii) again, so
    the step rescales until nu(Omega_ii) = 0.  A clearing keeps det(Omega)
    and a rescaling lowers its valuation by 2 gamma.  Without a pole that
    valuation stays >= 0, and it starts at most d times the maximal entry
    degree D unless det(Omega) = 0; so rescalings worth more than d D
    that create no pole prove the form singular, which ends the chain.  Then for each j > i with
    c = -res(Omega_ij)/res(Omega_ii) nonzero it adds c times column i to
    column j and then c times row i to row j (the congruence by
    R = I + c E_ij, which leaves Omega_ik alone for k != j); Q takes the
    same column step and Q^-1 the row step "row i -= c row j".  Returns
    (Q^Tr Omega Q, Q, Q^-1, the diagonal residues, the maximal entry degree
    before and after each step).  The residue of Q^Tr Omega Q is diagonal.
    """
    d = matrix.rows
    omega = matrix.copy()
    val = omega.valuation()
    if val:
        omega = omega.scale(LaurentPoly({-val: 1}))
    w = omega.entries
    q = LaurentMatrix.identity(d)
    q_inv = LaurentMatrix.identity(d)
    qe, qie = q.entries, q_inv.entries

    def clear(p, t, c):
        # the congruence by I + c E_pt, and the same step on Q and Q^-1
        for rows in (w, qe):
            for row in rows:
                if row[p]:
                    row[t] = row[t] + row[p] * c
        w[t] = [x + y * c if y else x for x, y in zip(w[t], w[p])]
        qie[p] = [x - y * c if y else x for x, y in zip(qie[p], qie[t])]

    diag = []
    history = [omega.max_degree()]
    budget = d * (history[0] or 0)
    for i in range(d):
        while True:
            vii = w[i][i].valuation()
            if vii is None:
                raise VerificationError(
                    f"degenerate pivot chain at step {i}: zero diagonal"
                )
            if not vii:
                break
            if vii % 2:
                raise VerificationError(
                    f"half-integral scaling exponent at step {i}: "
                    f"the leading Gram is not definite"
                )
            gamma = vii // 2
            mono_dn = LaurentPoly({-gamma: 1})
            w[i] = [x * mono_dn for x in w[i]]
            for k in range(d):
                w[k][i] = w[k][i] * mono_dn
                qe[k][i] = qe[k][i] * mono_dn
            qie[i] = [x * LaurentPoly({gamma: 1}) for x in qie[i]]
            ov = omega.valuation()
            if ov is not None and ov < 0:
                raise VerificationError(
                    f"degenerate pivot chain at step {i}: pole created"
                )
            budget -= vii
            if budget < 0:
                raise VerificationError(
                    f"degenerate pivot chain at step {i}: the form is singular"
                )
            # residue-field steps clearing the residues the rescaling
            # brought back above the pivot
            for k in range(i):
                ct = w[k][i].constant_term()
                if ct:
                    clear(k, i, -ct * scalar_inv(diag[k]))
        dii = w[i][i].lowest_term()
        diag.append(dii)
        inv_dii = scalar_inv(dii)
        # residue-field steps clearing the residues right of the pivot
        for j in range(i + 1, d):
            ct = w[i][j].constant_term()
            if ct:
                clear(i, j, -ct * inv_dii)
        history.append(omega.max_degree())
    return omega, q, q_inv, diag, history


def balance(rep: Representation):
    """Degree-safe balancing base change.

    Returns (rep', data) where rep' = Q^-1 rep Q is balanced, the Gram form
    transformed by Q is congruent to an invertible diagonal matrix mod m, and
    data.degree_history records the maximal entry degree after each step
    (monotonically non-increasing).  The final invariant form is stored on
    the returned data as `form`; the a-value and the leading table come
    from one walk of rep' (`leading_coefficients`).  The elimination leaves
    a diagonal residue; a nonzero off-diagonal residue would raise
    VerificationError naming the first one.
    """
    omega, q, q_inv, diag, history = _eliminate(gram_invariant_form(rep))
    res = omega.residue()
    for i in range(rep.dim):
        for j in range(rep.dim):
            if i != j and res[i][j]:
                raise VerificationError(
                    f"the balancing elimination leaves an off-diagonal "
                    f"residue: entry ({i},{j}) is {scalar_str(res[i][j])}"
                )
    # the elimination often leaves Q = I (every KL left cell of A4 is
    # balanced as it comes), and then rep is its own conjugate
    rep2 = rep if q == LaurentMatrix.identity(rep.dim) else rep.conjugate(q, q_inv)
    # trace(Q^-1 rho Q) = trace(rho): the a-value is the one of rho
    a, leading = leading_coefficients(rep2)
    data = BalancedData(
        a_value=a,
        q=q,
        q_inv=q_inv,
        d=diag,
        leading=leading,
        degree_history=history,
        form=omega,
    )
    return rep2, data
