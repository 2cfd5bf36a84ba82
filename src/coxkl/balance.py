"""Invariant bilinear forms, the degree-safe balancing base change, a-values,
leading-coefficient extraction and per-block strictification.

The invariant form is always produced by the full Gram sum over the standard
basis (one depth-first sweep with a single running matrix), never by linear
solving, so every intermediate stays inside the Laurent ring; the same sweep
gives the a-value.  One symmetric elimination diagonalises the residue of
the form, in place on a copy: each step scales a row and a column by a
monomial, clears any residue this brings back above its pivot, and then
clears the residues right of its pivot, all by paired column and row
operations, building no matrix product.  The maximal entry degree
of the form never grows from step to step, and the step history is recorded
so callers can assert that.  `balance` runs that elimination on the Gram
form, and `strictify` runs it on a form whose residue is block diagonal by
labels.  One more sweep of the balanced module gives its leading table, so
`balance` walks W twice per module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coxeter import Element
from .laurent import LaurentMatrix, LaurentPoly
from .linalg import f_mat_transpose
from .scalars import scalar_inv, scalar_str
from .wgraph import Representation


class VerificationError(ValueError):
    """A mathematical check failed on well-formed input (CLI exit 1)."""


class InvariantForm(NamedTuple):
    """A symmetric matrix intertwining rho with its transpose-dual, and the
    a-value -min_w nu(trace rho(T_w)) of rho."""

    matrix: LaurentMatrix
    a_value: int


class BalancedData(NamedTuple):
    """Outcome of balancing: the a-value, base change and leading table."""

    a_value: int
    q: LaurentMatrix
    q_inv: LaurentMatrix
    d: list  # diagonal residues of the balanced form
    leading: dict[Element, list]
    degree_history: list
    #: the balanced invariant form
    form: InvariantForm


def gram_invariant_form(rep: Representation) -> InvariantForm:
    """Omega = v^-nu * sum_w rho(T_w)^Tr rho(T_w), normalized to valuation 0,
    and the a-value, from one walk of W.

    Each row r of rho(T_w) adds r_i r_j to the coefficient table of entry
    (i, j) for i <= j, in place; the lower triangle is filled by symmetry.
    The walk also records min_w nu(trace rho(T_w)).  The invariance identity
    Omega rho(T_s) = rho(T_s)^Tr Omega is verified for every generator (T_s
    is *-fixed); a failure, which only a module that is not a Hecke module
    can produce, raises VerificationError.
    """
    d = rep.dim
    acc = [[{} for _ in range(d)] for _ in range(d)]
    alpha = 0
    for _, m in rep.walk():
        v = m.trace().valuation()
        if v is not None and v < alpha:
            alpha = v
        for row in m.entries:
            nz = [(i, e.coeffs) for i, e in enumerate(row) if e.coeffs]
            for p, (i, ci) in enumerate(nz):
                acc_i = acc[i]
                for j, cj in nz[p:]:
                    cell = acc_i[j]
                    for k1, c1 in ci.items():
                        for k2, c2 in cj.items():
                            k = k1 + k2
                            cell[k] = cell.get(k, 0) + c1 * c2
    omega = LaurentMatrix(d, d)
    for i in range(d):
        for j in range(i, d):
            omega.entries[i][j] = omega.entries[j][i] = LaurentPoly(acc[i][j])
    val = omega.valuation()
    if val:
        omega = omega.scale(LaurentPoly({-val: 1}))
    for s, g in enumerate(rep.gens):
        if (omega @ g) != (g.transpose() @ omega):
            raise VerificationError(f"Gram form is not invariant for generator {s}")
    return InvariantForm(omega, -alpha)


def a_value(rep: Representation) -> int:
    """-min_w nu(trace rho(T_w)), by depth-first traversal."""
    alpha = 0
    for _, m in rep.walk():
        tr = m.trace()
        v = tr.valuation()
        if v is not None and v < alpha:
            alpha = v
    return -alpha


def leading_coefficients(rep: Representation, a: int) -> dict[Element, list]:
    """The sparse leading table c(w) = (v^a rho(T_w)) mod m over F.

    Raises as soon as the traversal meets a matrix with valuation below -a.
    """
    out: dict[Element, list] = {}
    zero, low = Fraction(0), -a
    for w, m in rep.walk():
        v = m.valuation()
        if v is None:
            continue
        if v < low:
            raise VerificationError(f"Representation not balanced! (witness {w!r})")
        if v == low:
            # the residue of v^a rho(T_w): the coefficients of v^-a
            out[w] = [[e.coeffs.get(low, zero) for e in row] for row in m.entries]
    return out


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


def balance(rep: Representation, form: InvariantForm | None = None):
    """Degree-safe balancing base change.

    Returns (rep', data) where rep' = Q^-1 rep Q is balanced, the transformed
    form is congruent to an invertible diagonal matrix mod m, and
    data.degree_history records the maximal entry degree after each step
    (monotonically non-increasing).  The final invariant form is stored on
    the returned data as `form`.  The elimination leaves a diagonal
    residue; a nonzero off-diagonal residue would raise VerificationError
    naming the first one.
    """
    if form is None:
        form = gram_invariant_form(rep)
    omega, q, q_inv, diag, history = _eliminate(form.matrix)
    res = omega.residue()
    for i in range(rep.dim):
        for j in range(rep.dim):
            if i != j and res[i][j]:
                raise VerificationError(
                    f"the balancing elimination leaves an off-diagonal "
                    f"residue: entry ({i},{j}) is {scalar_str(res[i][j])}"
                )
    rep2 = rep.conjugate(q, q_inv)
    # trace(Q^-1 rho Q) = trace(rho): the a-value is the one the Gram walk saw
    a = form.a_value
    data = BalancedData(
        a_value=a,
        q=q,
        q_inv=q_inv,
        d=diag,
        leading=leading_coefficients(rep2, a),
        degree_history=history,
        form=InvariantForm(omega, a),
    )
    return rep2, data


def strictify(
    rep: Representation,
    form: InvariantForm,
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
    omega = form.matrix
    val = omega.valuation()
    res = (omega.scale(LaurentPoly({-val: 1})) if val else omega).residue()
    for i in range(d):
        for j in range(d):
            if labels[i] != labels[j] and res[i][j]:
                raise ValueError(
                    f"form residue is not block diagonal: block "
                    f"({sorted(labels[i])}, {sorted(labels[j])}) is nonzero"
                )
    omega, q, q_inv, _, _ = _eliminate(omega)
    if not q.is_constant():
        raise VerificationError(
            "a residue pivot vanishes: the form is not definite on a label block"
        )
    l_full = f_mat_transpose(q_inv.residue())
    return rep.conjugate(q, q_inv), InvariantForm(omega, form.a_value), l_full
