"""Exact linear algebra: fraction-free elimination over F[v, v^-1] and
plain Gaussian elimination over the residue field F.

Over F there is one Gauss-Jordan sweep, `f_row_reduce`, on sparse rows
({column: value} dicts of the nonzeros).  It gives the rank of the v = 1
certificate in `laurent_rank` and the inverse `f_sparse_inverse`: the A4
cellular-basis matrix, 120 x 120 with 120 nonzeros, costs about one update
per nonzero.  The dense helpers over F seed with the ints 0 and 1, so
integer matrices stay in int arithmetic.

The Laurent-side routines never form the fraction field: they use
Bareiss-style two-term updates whose divisions are exact in the ring, and
kernel vectors are returned with Laurent-polynomial entries in one canonical
form (`laurent_kernel`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .laurent import ONE, ZERO, LaurentMatrix, LaurentPoly, laurent_gcd
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
    one caller, `blocks.omega_iso_certificate`, ranks constant candidate
    sums: for a constant m, m(1) is m, so the certificate alone decides
    every full-rank one.
    """
    full = min(m.rows, m.cols)
    if len(f_row_reduce(_sparse_rows(m.at_one()), m.cols)) == full:
        return full
    rows = [list(r) for r in m.entries]
    return len(_jordan_echelonize(rows))


def laurent_kernel(m: LaurentMatrix) -> list[list[LaurentPoly]]:
    """A basis of the right kernel, with Laurent-polynomial entries.

    Uses the fraction-free Gauss-Jordan form: for a free column f the kernel
    vector has the last pivot at position f and -R[r][f] at each pivot
    column, which is a ring element throughout.  Up to a scalar of F(v) these
    are the reduced-echelon kernel basis, and each is returned in the
    canonical form of `_normalize`.  The result is verified against the
    input matrix before returning.
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
        basis.append(_normalize(vec))
    for vec in basis:
        for row in m.entries:
            acc = ZERO
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            if acc:
                raise ArithmeticError("kernel verification failed")
    return basis


def _normalize(vec: list[LaurentPoly]) -> list[LaurentPoly]:
    """The F(v)-multiple of a nonzero vector over F[v, v^-1] with content 1
    (`laurent_gcd` of its entries), valuation 0 and lowest term 1 in its
    first nonzero entry."""
    content = reduce(laurent_gcd, (e for e in vec if e))
    vec = [e.divexact(content) for e in vec]
    lead = next(e for e in vec if e).lowest_term()
    unit = LaurentPoly({-min(e.valuation() for e in vec if e): scalar_inv(lead)})
    return [e * unit for e in vec]


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


def f_identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def f_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
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


def f_mat_is_zero(a):
    return all(not x for row in a for x in row)


def f_mat_trace(a):
    t = a[0][0] * 0
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def f_row_reduce(rows: list[dict], ncols: int) -> list[int]:
    """Gauss-Jordan over F on sparse rows, in place; returns the pivot columns.

    Each row is a {column: value} dict of its nonzeros.  Columns 0..ncols-1
    are swept in order; a column's pivot is the first nonzero at or below
    the current row, scaled to 1 and cleared from every other row, so an
    update touches only the nonzeros of the pivot row.  Afterwards rows[i]
    is the pivot row of the i-th pivot column.
    """
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = scalar_inv(rows[r][c])
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if i == r or f is None:
                continue
            for j, y in prow.items():
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:  # f * y != 0, so a zero x cancels an entry of row
                    del row[j]
        pivots.append(c)
    return pivots


def _sparse_rows(a) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def f_sparse_inverse(rows: list[dict]) -> list[dict]:
    """Inverse over F by reducing [a | I], sparse rows in and out; a matrix
    of rank below n raises ZeroDivisionError."""
    n = len(rows)
    work = [{**row, n + i: Fraction(1)} for i, row in enumerate(rows)]
    if len(f_row_reduce(work, n)) < n:
        raise ZeroDivisionError("matrix not invertible over F")
    return [{j - n: x for j, x in row.items() if j >= n} for row in work]
