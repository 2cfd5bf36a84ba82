"""Invariant bilinear forms, the degree-safe balancing base change, a-values,
leading-coefficient extraction and per-block strictification.

The invariant form is always produced by the full Gram sum over the standard
basis (one depth-first sweep with a single running matrix), never by linear
solving, so every intermediate stays inside the Laurent ring; the same sweep
gives the a-value.  The balancing base change interleaves monomial diagonal
steps with residue-field row steps; the maximal entry degree of the form
never grows from step to step, and the step history is recorded so callers
can assert that.  One more sweep of the balanced module gives its leading
table and its Schur sum, so `balance` walks W twice per module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coxeter import Element
from .laurent import ZERO, LaurentMatrix, LaurentPoly
from .linalg import (
    f_identity,
    f_ldl,
    f_mat_inverse,
    f_mat_is_zero,
    laurent_rank,
)
from .scalars import scalar_inv
from .wgraph import Representation


class VerificationError(ValueError):
    """A mathematical check failed on well-formed input (CLI exit 1)."""


@dataclass
class InvariantForm:
    """A symmetric matrix intertwining rho with its transpose-dual, and the
    a-value -min_w nu(trace rho(T_w)) of rho."""

    matrix: LaurentMatrix
    a_value: int
    singular: bool = False


@dataclass
class BalancedData:
    """Outcome of balancing: the a-value, base change and leading table."""

    a_value: int
    q: LaurentMatrix
    q_inv: LaurentMatrix
    d: list  # diagonal residues of the balanced form
    leading: dict[Element, list] = field(default_factory=dict)
    #: the Schur sum sum_w rho(T_{w^-1})_00 rho(T_w)_00; None for a
    #: representation taken as balanced
    schur: LaurentPoly | None = None
    degree_history: list = field(default_factory=list)
    #: the balanced invariant form; None for a representation taken as balanced
    form: InvariantForm | None = None


def gram_invariant_form(rep: Representation) -> InvariantForm:
    """Omega = v^-nu * sum_w rho(T_w)^Tr rho(T_w), normalized to valuation 0,
    and the a-value, from one walk of W.

    Each row r of rho(T_w) adds r_i r_j to the coefficient table of entry
    (i, j) for i <= j, in place; the lower triangle is filled by symmetry.
    The walk also records min_w nu(trace rho(T_w)).  The invariance identity
    Omega rho(T_s) = rho(T_s)^Tr Omega is verified for every generator (T_s
    is *-fixed); a failure, which only a module that is not a Hecke module
    can produce, raises VerificationError.  A singular form is flagged but
    still returned.
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
    singular = laurent_rank(omega) < d
    return InvariantForm(omega, -alpha, singular)


def a_value(rep: Representation) -> int:
    """-min_w nu(trace rho(T_w)), by depth-first traversal."""
    alpha = 0
    for _, m in rep.walk():
        tr = m.trace()
        v = tr.valuation()
        if v is not None and v < alpha:
            alpha = v
    return -alpha


def _leading_walk(rep: Representation, a: int):
    """One walk of W: the leading table and the (0, 0) entries rho(T_w)_00.

    Raises as soon as the traversal meets a matrix with valuation below -a.
    """
    out: dict[Element, list] = {}
    corner: dict[Element, LaurentPoly] = {}
    zero, low = Fraction(0), -a
    for w, m in rep.walk():
        corner[w] = m.entries[0][0]
        v = m.valuation()
        if v is None:
            continue
        if v < low:
            raise VerificationError(f"Representation not balanced! (witness {w!r})")
        if v == low:
            # the residue of v^a rho(T_w): the coefficients of v^-a
            out[w] = [[e.coeffs.get(low, zero) for e in row] for row in m.entries]
    return out, corner


def leading_coefficients(rep: Representation, a: int) -> dict[Element, list]:
    """The sparse leading table c(w) = (v^a rho(T_w)) mod m over F.

    Raises as soon as the traversal meets a matrix with valuation below -a.
    """
    return _leading_walk(rep, a)[0]


def balance(rep: Representation, form: InvariantForm | None = None):
    """Degree-safe balancing base change.

    Returns (rep', data) where rep' = Q^-1 rep Q is balanced, the transformed
    form is congruent to an invertible diagonal matrix mod m, and
    data.degree_history records the maximal entry degree after each step
    (monotonically non-increasing).  The final invariant form is stored on
    the returned data as `form`.
    """
    if form is None:
        form = gram_invariant_form(rep)
    d = rep.dim
    omega = form.matrix.copy()
    val = omega.valuation()
    if val:
        omega = omega.scale(LaurentPoly({-val: 1}))
    q = LaurentMatrix.identity(d)
    q_inv = LaurentMatrix.identity(d)
    diag = []
    history = [omega.max_degree()]
    for i in range(d):
        vii = omega.entries[i][i].valuation()
        if vii is None:
            raise VerificationError(
                f"degenerate pivot chain at step {i}: zero diagonal"
            )
        if vii % 2:
            raise VerificationError(
                f"half-integral scaling exponent at step {i}: "
                f"the leading Gram is not definite"
            )
        gamma = vii // 2
        if gamma:
            mono_dn = LaurentPoly({-gamma: 1})
            mono_up = LaurentPoly({gamma: 1})
            for j in range(d):
                omega.entries[i][j] = omega.entries[i][j] * mono_dn
            for j in range(d):
                omega.entries[j][i] = omega.entries[j][i] * mono_dn
            for j in range(d):
                q.entries[j][i] = q.entries[j][i] * mono_dn
            for j in range(d):
                q_inv.entries[i][j] = q_inv.entries[i][j] * mono_up
        ov = omega.valuation()
        if ov is not None and ov < 0:
            raise VerificationError(
                f"degenerate pivot chain at step {i}: pole created"
            )
        dii = omega.entries[i][i].lowest_term()
        diag.append(dii)
        inv_dii = scalar_inv(dii)
        # residue-field row step clearing the residues right of the pivot
        coeffs = {}
        for j in range(i + 1, d):
            ct = omega.entries[i][j].constant_term()
            if ct:
                coeffs[j] = -ct * inv_dii
        if coeffs:
            r = LaurentMatrix.identity(d)
            r_inv = LaurentMatrix.identity(d)
            for j, c in coeffs.items():
                r.entries[i][j] = LaurentPoly({0: c})
                r_inv.entries[i][j] = LaurentPoly({0: -c})
            omega = r.transpose() @ omega @ r
            q = q @ r
            q_inv = r_inv @ q_inv
        history.append(omega.max_degree())
    res = omega.residue()
    for i in range(d):
        for j in range(d):
            if i != j and res[i][j]:
                raise AssertionError("balance post-state: residue not diagonal")
    rep2 = rep.conjugate(q, q_inv)
    # trace(Q^-1 rho Q) = trace(rho): the a-value is the one the Gram walk saw
    a = form.a_value
    leading, corner = _leading_walk(rep2, a)
    schur = ZERO
    for w, x in corner.items():
        schur = schur + corner[w.inverse()] * x
    data = BalancedData(
        a_value=a,
        q=q,
        q_inv=q_inv,
        d=diag,
        leading=leading,
        schur=schur,
        degree_history=history,
        form=InvariantForm(omega, a, form.singular),
    )
    return rep2, data


def strictify(
    rep: Representation,
    form: InvariantForm,
    labels: list[frozenset],
):
    """Per-label-block Cholesky making the residue of the form fully diagonal.

    The form's residue must already be block diagonal with respect to the
    label grouping (that is the content of the off-diagonal-vanishing lemma);
    a violation raises with the offending block pair.  Returns
    (rep', form', l_matrix) where l_matrix is block unitriangular over F.
    """
    d = rep.dim
    if len(labels) != d:
        raise ValueError("need one label per matrix index")
    omega = form.matrix
    val = omega.valuation()
    if val:
        omega = omega.scale(LaurentPoly({-val: 1}))
    res = omega.residue()
    groups: dict[frozenset, list[int]] = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, []).append(i)
    ordered = sorted(groups, key=lambda l: (-len(l), sorted(l)))
    for a_l in ordered:
        for b_l in ordered:
            if a_l == b_l:
                continue
            block = [[res[i][j] for j in groups[b_l]] for i in groups[a_l]]
            if not f_mat_is_zero(block):
                raise ValueError(
                    f"form residue is not block diagonal: block "
                    f"({sorted(a_l)}, {sorted(b_l)}) is nonzero"
                )
    l_full = f_identity(d)
    for lab in ordered:
        idx = groups[lab]
        block = [[res[i][j] for j in idx] for i in idx]
        l_block, _ = f_ldl(block)
        for bi, i in enumerate(idx):
            for bj, j in enumerate(idx):
                l_full[i][j] = l_block[bi][bj]
    # residue block = L D L^T, so the diagonalizing base change is L^-T
    l_inv = f_mat_inverse(l_full)
    q = LaurentMatrix.from_scalar_rows(
        [[l_inv[j][i] for j in range(d)] for i in range(d)]
    )
    q_inv = LaurentMatrix.from_scalar_rows(
        [[l_full[j][i] for j in range(d)] for i in range(d)]
    )
    rep2 = rep.conjugate(q, q_inv)
    omega2 = q.transpose() @ omega @ q
    res2 = omega2.residue()
    for i in range(d):
        for j in range(d):
            if i != j and res2[i][j]:
                raise AssertionError("strictify post-state: residue not diagonal")
    return rep2, InvariantForm(omega2, form.a_value, form.singular), l_full
