"""Block structure of H-linear operators between W-graph modules.

Rows and columns of every matrix attached to a W-graph representation are
grouped by vertex label, so blocks are indexed by subsets of S.  The
operations here verify the diagonal congruence of v^L(w) rho(T_w), recover
the label multiset from the character, compute intertwiner spaces
fraction-free, and certify that residue-level intertwiners are block
diagonal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .asymptotic import class_character
from .coxeter import Element
from .laurent import LaurentMatrix, LaurentPoly
from .linalg import f_mat_is_zero, laurent_rank, laurent_solve_kernel_matrices
from .wgraph import (
    Representation,
    WGraph,
    is_geck,
    label_classes,
    label_subsets,
    omega_matrices,
    wgraph_matrices,
)


class CongruenceReport(NamedTuple):
    ok: bool
    failures: list[str]
    residue: list | None

    def __bool__(self):
        return self.ok


def tw_diagonal_congruence(g: WGraph, w: Element, word=None) -> CongruenceReport:
    """Check v^L(w) omega(T_w) is integral with residue diag(+-1 or 0).

    The diagonal residue at vertex x is (-1)^l(w) when every letter of the
    reduced word lies in I(x), and zero otherwise; the condition is
    independent of the chosen reduced word, which callers may pass in.
    """
    geck, diag = is_geck(g)
    if not geck:
        return CongruenceReport(False, ["not a Geck graph: " + "; ".join(diag)], None)
    eng = g.engine
    rep = wgraph_matrices(g)
    if word is None:
        word = eng.reduced_word(w)
    else:
        if eng.from_word(word) != w or len(word) != w.length():
            return CongruenceReport(False, ["word is not a reduced word of w"], None)
    m = LaurentMatrix.identity(g.size)
    for s in word:
        vs = LaurentPoly({eng.generator_weight(s): 1})
        m = m @ rep.gens[s].scale(vs)
    failures = []
    val = m.valuation()
    if val is not None and val < 0:
        return CongruenceReport(
            False, [f"v^L(w) omega(T_w) has a pole (valuation {val})"], None
        )
    res = m.residue()
    supp = frozenset(word)
    sign = -1 if w.length() % 2 else 1
    for i in range(g.size):
        expect = Fraction(sign) if supp <= g.labels[i] else Fraction(0)
        if res[i][i] != expect:
            failures.append(
                f"diagonal residue at vertex {i}: got {res[i][i]}, expected {expect}"
            )
        for j in range(g.size):
            if i != j and res[i][j]:
                failures.append(f"off-diagonal residue at ({i},{j}) is nonzero")
    return CongruenceReport(not failures, failures, res)


def label_multiset_from_character(rep: Representation) -> dict[frozenset, int]:
    """Recover {I(x)} with multiplicities from traces at parabolic longest
    elements, by Moebius inversion down the lattice of label sets."""
    eng = rep.engine
    # largest first, equal sizes by bitmask: the Moebius inversion needs
    # every superset of a set before the set, and a refusal names the first
    # offending set in this order
    subsets = sorted(
        label_subsets(eng.datum.rank), key=lambda l: (-len(l), sum(1 << i for i in l))
    )
    m_of: dict[frozenset, Fraction] = {}
    for j in subsets:
        wj = eng.longest_element(j)
        tr = rep.character(wj)
        shifted = tr * LaurentPoly({eng.weight(wj): 1})
        val = shifted.valuation()
        if val is not None and val < 0:
            raise ValueError(
                f"trace at the longest element of {sorted(j)} has a pole: "
                f"not a Geck W-graph character"
            )
        sign = -1 if wj.length() % 2 else 1
        m_of[j] = shifted.constant_term() * sign
    counts: dict[frozenset, int] = {}
    for j in subsets:  # largest first
        c = m_of[j] - sum(counts[k] for k in counts if j < k)
        if c != int(c) or c < 0:
            raise ValueError(
                f"multiplicity at {sorted(j)} is {c}: not a Geck W-graph character"
            )
        counts[j] = int(c)
    return {j: c for j, c in counts.items() if c}


def intertwiner_space(r1: Representation, r2: Representation) -> list[LaurentMatrix]:
    """Basis of {A : A rho_1(T_s) = rho_2(T_s) A for all s}.

    Solved by fraction-free elimination over the Laurent ring; each basis
    matrix is in the canonical form of `linalg.laurent_kernel` (row-major:
    content 1, valuation 0, first lowest term 1), giving canonical
    certificates.
    """
    if r1.engine is not r2.engine:
        raise ValueError("intertwiners need a common group")
    d1, d2 = r1.dim, r2.dim
    rows = []
    for s in range(r1.engine.datum.rank):
        g1, g2 = r1.gens[s], r2.gens[s]
        for i in range(d2):
            for j in range(d1):
                row = [LaurentPoly() for _ in range(d1 * d2)]
                for k in range(d1):
                    cur = row[i * d1 + k]
                    row[i * d1 + k] = cur + g1.entries[k][j]
                for k in range(d2):
                    cur = row[k * d1 + j]
                    row[k * d1 + j] = cur - g2.entries[i][k]
                rows.append(row)
    block = LaurentMatrix(len(rows), d1 * d2, rows)
    return laurent_solve_kernel_matrices([block], (d2, d1))


class BlockReport(NamedTuple):
    """Residue block analysis of a matrix grouped by row/column labels."""

    #: the nonzero off-label residue blocks, keyed by (row label, column label)
    offdiag_residues: dict[tuple[frozenset, frozenset], list]
    triangular: bool
    diagonal: bool

    def __bool__(self):
        return self.diagonal


def block_report(
    a: LaurentMatrix,
    labels_rows: list[frozenset],
    labels_cols: list[frozenset],
) -> BlockReport:
    """Partition the residue of `a` into label blocks and test the two flags.

    Diagonality: every off-label block vanishes.  Triangularity: a nonzero
    off-label block has a row label strictly containing its column label.
    Requires nu(a) = 0 and one label per row and per column.
    """
    if len(labels_rows) != a.rows or len(labels_cols) != a.cols:
        raise ValueError("label lists must match the matrix dimensions")
    val = a.valuation()
    if val is None or val != 0:
        raise ValueError("block analysis expects a matrix of valuation 0")
    res = a.residue()
    cgroups = label_classes(labels_cols)
    offdiag = {}
    for rl, rows in label_classes(labels_rows).items():
        for cl, cols in cgroups.items():
            if rl != cl:
                block = [[res[i][j] for j in cols] for i in rows]
                if not f_mat_is_zero(block):
                    offdiag[(rl, cl)] = block
    return BlockReport(offdiag, all(cl < rl for rl, cl in offdiag), not offdiag)


class OmegaCertificate(NamedTuple):
    matrix: LaurentMatrix
    residuals: dict[str, int]
    ok: bool
    note: str = ""

    def __bool__(self):
        return self.ok


def require_geck(g1: WGraph, g2: WGraph) -> None:
    """Refuse a pair unless both graphs are Geck graphs (a usage error)."""
    ok1, d1 = is_geck(g1)
    ok2, d2 = is_geck(g2)
    if not ok1 or not ok2:
        raise ValueError("both inputs must be Geck graphs: " + "; ".join(d1 + d2))


def omega_iso_certificate(
    g1: WGraph, g2: WGraph, basis: list[LaurentMatrix]
) -> OmegaCertificate | None:
    """An invertible constant intertwiner conjugating all idempotent/arrow
    matrices.

    g1 and g2 are Geck graphs (`require_geck`) and `basis` is the
    `intertwiner_space` of their modules, which the caller has solved.
    Returns None when the W-characters at v = 1 (`asymptotic.class_character`)
    differ.  For Geck graphs with a canonical basis, a basis element that is
    not constant over F means Hom_Omega (x) F(v) != Hom_H: a failed
    certificate says so.  Otherwise B_1..B_k is an F-basis of Hom_Omega and
    the certificate is the first invertible sum c_1 B_1 + ... + c_k B_k over
    c in {0..n}^k, n the dimension, in `itertools.product` order.  Equal
    characters make the modules isomorphic over F(v), so det(sum c_i B_i) is
    a nonzero polynomial of degree at most n in each c_i and does not vanish
    on the whole grid (Alon, Combinatorial Nullstellensatz, Lemma 2.1).  The
    e_s and x_s residuals of the chosen matrix verify it.
    """
    if class_character(wgraph_matrices(g1)) != class_character(wgraph_matrices(g2)):
        return None
    for i, a in enumerate(basis):
        if not a.is_constant():
            return OmegaCertificate(
                a,
                {},
                False,
                f"intertwiner basis element {i} is not constant over F: "
                "Hom_Omega (x) F(v) != Hom_H, Omega-certificate failed",
            )
    n = g1.size
    sums = (
        sum((b.scale(c) for c, b in zip(cs, basis) if c), LaurentMatrix(n, n))
        for cs in itertools.product(range(n + 1), repeat=len(basis))
    )
    a = next((m for m in sums if laurent_rank(m) == n), None)
    if a is None:
        raise ArithmeticError("no invertible intertwiner between equal characters")
    om1, om2 = omega_matrices(g1), omega_matrices(g2)
    residuals = {}
    for s in range(g1.engine.datum.rank):
        for name, m1, m2 in (("e", om1.e[s], om2.e[s]), ("x", om1.x[s], om2.x[s])):
            diff = a @ m1 - m2 @ a
            residuals[f"{name}_{s}"] = sum(1 for row in diff.entries for e in row if e)
    return OmegaCertificate(a, residuals, all(v == 0 for v in residuals.values()))
