"""Exact linear algebra: fraction-free elimination over F[v, v^-1] and
plain Gaussian elimination over the residue field F.

The Laurent-side routines never form the fraction field: they use
Bareiss-style two-term updates whose divisions are exact in the ring, and
kernel vectors are returned with Laurent-polynomial entries (scaled by the
pivot product).
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import ONE, ZERO, LaurentMatrix, LaurentPoly
from .scalars import scalar_inv

# -- fraction-free elimination over the Laurent ring ---------------------------


def _jordan_echelonize(rows: list[list[LaurentPoly]]):
    """Fraction-free Gauss-Jordan sweep (in place).

    Returns the list of (row, col) pivot positions.  After the sweep every
    pivot column is zero outside its pivot row and all pivot entries equal
    the last pivot; the two-term updates divide exactly by the previous
    pivot (Bareiss), and `divexact` raises if that ever failed.
    """
    if not rows:
        return []
    nrows = len(rows)
    ncols = len(rows[0])
    pivots: list[tuple[int, int]] = []
    prev = ONE
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            ric = rows[i][c]
            row_i = rows[i]
            for j in range(ncols):
                num = row_i[j] * piv - ric * row_r[j]
                row_i[j] = num.divexact(prev) if num else ZERO
        # earlier pivot rows are rescaled by piv/prev in the same sweep, so
        # every settled pivot entry now equals the current pivot
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def laurent_rank(m: LaurentMatrix) -> int:
    """Rank over the fraction field F(v), certified at v = 1 when possible.

    Every minor of m(1) is the value at v = 1 of the same minor of m, so
    rank_F m(1) <= rank m; when m(1) already has rank min(rows, cols) that
    is the answer.  Otherwise the fraction-free Bareiss sweep decides.  The
    certificate holds for every Gram form sum_w rho(T_w)^T rho(T_w): at
    v = 1 it is I plus a positive semidefinite matrix under any real
    embedding of F.
    """
    full = min(m.rows, m.cols)
    if f_mat_rank(m.at_one()) == full:
        return full
    rows = [list(r) for r in m.entries]
    return len(_jordan_echelonize(rows))


def laurent_kernel(m: LaurentMatrix) -> list[list[LaurentPoly]]:
    """A basis of the right kernel, with Laurent-polynomial entries.

    Uses the fraction-free Gauss-Jordan form: for a free column f the kernel
    vector has the last pivot at position f and -R[r][f] at each pivot
    column, which is a ring element throughout.  The result is verified
    against the input matrix before returning.
    """
    rows = [list(r) for r in m.entries]
    pivots = _jordan_echelonize(rows)
    ncols = m.cols
    if not pivots:
        basis = []
        for fc in range(ncols):
            vec = [ZERO] * ncols
            vec[fc] = ONE
            basis.append(vec)
        return basis
    last_pivot = rows[pivots[-1][0]][pivots[-1][1]]
    pivot_cols = {c for (_, c) in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec: list[LaurentPoly] = [ZERO] * ncols
        vec[fc] = last_pivot
        for (r, c) in pivots:
            vec[c] = -rows[r][fc]
        basis.append(_strip_content(vec))
    for vec in basis:
        for row in m.entries:
            acc = ZERO
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            if acc:
                raise ArithmeticError("kernel verification failed")
    return basis


def _strip_content(vec: list[LaurentPoly]) -> list[LaurentPoly]:
    """Normalize a Laurent vector: shift by -min valuation (no common v power)."""
    vals = [e.valuation() for e in vec if e]
    if not vals:
        return vec
    shift = min(vals)
    if shift:
        mono = LaurentPoly({-shift: 1})
        vec = [e * mono for e in vec]
    return vec


def laurent_solve_kernel_matrices(
    blocks: list[LaurentMatrix], shape: tuple[int, int]
) -> list[LaurentMatrix]:
    """Kernel of several stacked linear conditions on a matrix unknown.

    Each block B encodes the condition B @ vec(X) = 0 where vec runs
    row-major over an unknown matrix X of the given shape.  Returns matrix
    solutions.
    """
    rows = []
    for b in blocks:
        rows.extend([list(r) for r in b.entries])
    if not rows:
        raise ValueError("no conditions given")
    stacked = LaurentMatrix(len(rows), shape[0] * shape[1], rows)
    out = []
    for vec in laurent_kernel(stacked):
        m = LaurentMatrix(shape[0], shape[1])
        for i in range(shape[0]):
            for j in range(shape[1]):
                m.entries[i][j] = vec[i * shape[1] + j]
        out.append(m)
    return out


# -- residue-field (scalar) matrices ------------------------------------------


def f_zero(n: int, m: int):
    return [[Fraction(0)] * m for _ in range(n)]


def f_identity(n: int):
    out = f_zero(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def f_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if not ait:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                if brow[j]:
                    orow[j] = orow[j] + ait * brow[j]
    return out


def f_mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def f_mat_transpose(a):
    return [list(col) for col in zip(*a)]


def f_mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def f_mat_is_zero(a):
    return all(not x for row in a for x in row)


def f_mat_trace(a):
    t = a[0][0] * 0
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def f_mat_inverse(a):
    """Inverse over the field by Gauss-Jordan; raises on singular input."""
    n = len(a)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, f_identity(n))]
    for c in range(n):
        pr = None
        for r in range(c, n):
            if work[r][c]:
                pr = r
                break
        if pr is None:
            raise ZeroDivisionError("singular matrix over F")
        work[c], work[pr] = work[pr], work[c]
        inv = scalar_inv(work[c][c])
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def f_mat_rank(a) -> int:
    if not a:
        return 0
    work = [list(r) for r in a]
    n, m = len(work), len(work[0])
    rank = 0
    for c in range(m):
        pr = None
        for r in range(rank, n):
            if work[r][c]:
                pr = r
                break
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        inv = scalar_inv(work[rank][c])
        work[rank] = [x * inv for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def f_ldl(a):
    """LDL^T factorization of a symmetric matrix over F.

    Returns (L, D) with L unit lower triangular and D diagonal entries,
    requiring all leading principal pivots to be nonzero (true for the
    residues of positive-definite Gram forms).
    """
    n = len(a)
    l = f_identity(n)
    d = [Fraction(0)] * n
    work = [list(r) for r in a]
    for j in range(n):
        d[j] = work[j][j]
        if not d[j]:
            raise ZeroDivisionError("zero pivot in LDL^T (block not definite)")
        inv = scalar_inv(d[j])
        for i in range(j + 1, n):
            l[i][j] = work[i][j] * inv
        for i in range(j + 1, n):
            for k in range(j + 1, n):
                work[i][k] = work[i][k] - l[i][j] * d[j] * l[k][j]
    return l, d
