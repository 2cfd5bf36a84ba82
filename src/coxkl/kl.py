"""Kazhdan-Lusztig polynomials, the C-basis, structure constants and cells.

Everything is computed in the normalization where the standard basis
satisfies T_s^2 = 1 + (v_s - v_s^-1) T_s with v_s = v^L(s).  The inverse
polynomials P*_{y,w} = v^{L(y)-L(w)} P_{y,w} are the primary objects; they
are memoized only for critical pairs, and arbitrary lookups are routed
through the critical-pair reduction first.

Two independent routes to the C-basis are provided: the P*-recursion
(`c_basis`) and a bar-invariant fixed-point solver
(`c_basis_by_bar_fixed_point`); the test suite holds them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import Element, GroupEngine
from .graphs import condensation_reachability, tarjan_scc
from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    bar,
    negative_part,
    positive_part,
)


@dataclass
class HeckeElement:
    """A Hecke-algebra element as a sparse coefficient map over a basis."""

    basis: str  # "T" or "C"
    coeffs: dict[Element, LaurentPoly] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {w: c for w, c in self.coeffs.items() if c}

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.basis != other.basis:
            raise ValueError("cannot add elements in different bases")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return HeckeElement(self.basis, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def scale(self, f) -> "HeckeElement":
        if not f:
            return HeckeElement(self.basis, {})
        return HeckeElement(self.basis, {w: c * f for w, c in self.coeffs.items()})

    def coefficient(self, w: Element) -> LaurentPoly:
        return self.coeffs.get(w, ZERO)

    def support(self):
        return set(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)


@dataclass
class CellPartition:
    """Cells of the C-basis multiplication graph with their preorder."""

    kind: str  # "left" | "right" | "two-sided"
    blocks: list[list[Element]]
    #: pairs (i, j) meaning blocks[i] is below blocks[j] in the cell preorder
    leq: set[tuple[int, int]]

    def block_of(self, w: Element) -> int:
        for i, b in enumerate(self.blocks):
            if w in b:
                return i
        raise KeyError(w)

    def as_sets(self) -> set[frozenset]:
        return {frozenset(b) for b in self.blocks}


@dataclass
class ADeltaN:
    """Lusztig's a-function data and the Duflo set computed from the h-table."""

    a: dict[Element, int]
    delta: dict[Element, int]
    n: dict[Element, int]
    duflo: set[Element]


class KLContext:
    """All KL data of one weighted group, with memoized tables."""

    def __init__(self, engine: GroupEngine, h_table_limit: int = 1200):
        self.engine = engine
        self.h_table_limit = h_table_limit
        self._pstar: dict[tuple[int, int], LaurentPoly] = {}
        self._mu: dict[tuple[int, int, int], LaurentPoly] = {}
        self._tinv: dict[Element, HeckeElement] = {}
        self._cbasis: dict[Element, HeckeElement] = {}
        self._cells: dict[str, CellPartition] = {}
        self._adn: ADeltaN | None = None

    # -- generator-level Hecke multiplication ---------------------------------

    def _zeta(self, s: int) -> LaurentPoly:
        ls = self.engine.generator_weight(s)
        return LaurentPoly({ls: 1, -ls: -1})

    def _t_mult_gen(self, table: list[list[int]], s: int, h: HeckeElement):
        """T_s h (table lmul) or h T_s (table rmul) in the T-basis."""
        elements = self.engine.elements
        row = table[s]
        zeta = self._zeta(s)
        out: dict[Element, LaurentPoly] = {}

        def add(w, c):
            cur = out.get(w, ZERO) + c
            if cur:
                out[w] = cur
            else:
                out.pop(w, None)

        for w, c in h.coeffs.items():
            sw = elements[row[w.index]]
            add(sw, c)
            if sw.length() < w.length():
                add(w, c * zeta)
        return HeckeElement("T", out)

    def t_element(self, w: Element) -> HeckeElement:
        return HeckeElement("T", {w: ONE})

    def t_multiply(self, h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
        """Product of two T-basis elements."""
        if h1.basis != "T" or h2.basis != "T":
            raise ValueError("t_multiply expects T-basis elements")
        out = HeckeElement("T", {})
        for w, c in h1.coeffs.items():
            word = self.engine.reduced_word(w)
            acc = h2
            for s in reversed(word):
                acc = self._t_mult_gen(self.engine.lmul, s, acc)
            out = out + acc.scale(c)
        return out

    # -- bar involution ---------------------------------------------------------

    def t_inverse(self, w: Element) -> HeckeElement:
        """(T_w)^-1 expanded in the T-basis."""
        cached = self._tinv.get(w)
        if cached is not None:
            return cached
        eng = self.engine
        if w.is_identity():
            res = self.t_element(w)
        else:
            s = min(eng.left_descent_set(w))
            sw = eng.simple[s] * w
            # T_w = T_s T_sw, so T_w^-1 = T_sw^-1 * (T_s - zeta_s)
            rest = self.t_inverse(sw)
            res = self._t_mult_gen(eng.rmul, s, rest) - rest.scale(self._zeta(s))
        self._tinv[w] = res
        return res

    def hecke_bar(self, h: HeckeElement) -> HeckeElement:
        """The semilinear involution: bar on coefficients, T_w to (T_{w^-1})^-1."""
        if h.basis != "T":
            raise ValueError("hecke_bar expects a T-basis element")
        out = HeckeElement("T", {})
        for w, c in h.coeffs.items():
            out = out + self.t_inverse(w.inverse()).scale(bar(c))
        return out

    # -- P* and mu ---------------------------------------------------------------

    def critical_pair(self, y: Element, w: Element):
        """Reduce (y, w) to a critical pair.

        Returns (gamma, u, v) with P*_{y,w} = v^{-gamma} P*_{u,v}; gamma is
        None when y is not below w, i.e. P*_{y,w} = 0.  One Bruhat test
        suffices: by the lifting property, multiplying y by a descent of w
        that is an ascent of y, on either side, keeps y below w.
        """
        eng = self.engine
        if not eng.bruhat_le(y, w):
            return None, y, w
        weights = eng.datum.weights
        yi, wi = y.index, w.index
        gamma = 0
        while True:
            moves = eng.ldesc[wi] & ~eng.ldesc[yi]
            table = eng.lmul
            if not moves:
                moves = eng.rdesc[wi] & ~eng.rdesc[yi]
                table = eng.rmul
                if not moves:
                    return gamma, eng.elements[yi], w
            t = (moves & -moves).bit_length() - 1
            yi = table[t][yi]
            gamma += weights[t]

    def pstar(self, y: Element, w: Element) -> LaurentPoly:
        """The inverse Kazhdan-Lusztig polynomial P*_{y,w}."""
        gamma, u, v = self.critical_pair(y, w)
        if gamma is None:
            return ZERO
        if u == v:
            return LaurentPoly({-gamma: 1})
        key = (u.index, v.index)
        klp = self._pstar.get(key)
        if klp is None:
            eng = self.engine
            t = min(eng.left_descent_set(v))
            tu = eng.simple[t] * u
            tv = eng.simple[t] * v
            vt = LaurentPoly({eng.generator_weight(t): 1})
            klp = self.pstar(u, tv) * vt + self.pstar(tu, tv)
            for z in eng.bruhat_interval(u, tv):
                if t in eng.left_descent_set(z):
                    m = self.mu(z, tv, t)
                    if m:
                        klp = klp - self.pstar(u, z) * m
            self._pstar[key] = klp
        if gamma:
            return klp * LaurentPoly({-gamma: 1})
        return klp

    def kl_polynomial(self, y: Element, w: Element) -> LaurentPoly:
        """P_{y,w} = v^(L(w)-L(y)) P*_{y,w}."""
        eng = self.engine
        shift = eng.weight(w) - eng.weight(y)
        return self.pstar(y, w) * LaurentPoly({shift: 1})

    def mu(self, y: Element, w: Element, s: int) -> LaurentPoly:
        """The edge polynomial mu^s_{y,w}; zero unless sy < y < w < sw."""
        eng = self.engine
        if (
            s not in eng.left_descent_set(y)
            or s in eng.left_descent_set(w)
            or y == w
            or not eng.bruhat_le(y, w)
        ):
            return ZERO
        key = (y.index, w.index, s)
        cached = self._mu.get(key)
        if cached is not None:
            return cached
        klp = self.pstar(y, w)
        vs = LaurentPoly({eng.generator_weight(s): 1})
        supp = eng.support(w)
        if len({eng.generator_weight(t) for t in supp} | {eng.generator_weight(s)}) == 1:
            # one-parameter shortcut: mu is the nonnegative part of v_s P*
            alpha = klp * vs
            m = alpha - negative_part(alpha)
        else:
            alpha = klp * vs
            alpha = alpha - negative_part(alpha)
            for z in eng.bruhat_interval(y, w):
                if z != y and s in self.engine.left_descent_set(z):
                    mz = self.mu(z, w, s)
                    if mz:
                        alpha = alpha - self.pstar(y, z) * mz
                        alpha = alpha - negative_part(alpha)
            m = alpha + bar(positive_part(alpha))
        self._mu[key] = m
        return m

    # -- the C-basis -----------------------------------------------------------------

    def c_basis(self, w: Element) -> HeckeElement:
        """C_w expanded in the T-basis, from the P*-recursion."""
        cached = self._cbasis.get(w)
        if cached is not None:
            return cached
        lw = w.length()
        sign_w = -1 if lw % 2 else 1
        coeffs = {}
        for y in self.engine.elements:
            if y.length() > lw:
                continue
            p = self.pstar(y, w)
            if p:
                sign = sign_w * (-1 if y.length() % 2 else 1)
                coeffs[y] = bar(p) * sign
        res = HeckeElement("T", coeffs)
        self._cbasis[w] = res
        return res

    def c_basis_by_bar_fixed_point(self, w: Element) -> HeckeElement:
        """C_w as the unique bar-invariant element of T_w + sum F[v>0] T_y.

        Independent of the P*-recursion: starts from T_w and repeatedly
        corrects the largest coefficient whose bar-discrepancy is nonzero.
        """
        x = self.t_element(w)
        delta = self.hecke_bar(x) - x
        order = sorted(
            self.engine.elements, key=lambda e: (e.length(), e.index), reverse=True
        )
        guard = 0
        while delta:
            guard += 1
            if guard > 4 * self.engine.order:
                raise ArithmeticError("bar fixed point iteration did not converge")
            target = None
            for y in order:
                if delta.coefficient(y):
                    target = y
                    break
            d = delta.coefficient(target)
            # d is bar-antisymmetric; the correction c in F[v>0] solves
            # c - bar(c) = d
            c = positive_part(d)
            if c - bar(c) != d:
                raise ArithmeticError("discrepancy is not bar-antisymmetric")
            x = x + HeckeElement("T", {target: c})
            delta = delta + self.t_inverse(target.inverse()).scale(bar(c))
            delta = delta - HeckeElement("T", {target: c})
        return x

    def t_to_c(self, h: HeckeElement) -> HeckeElement:
        """Convert a T-basis element to the C-basis by unitriangular elimination."""
        if h.basis != "T":
            raise ValueError("t_to_c expects a T-basis element")
        rest = h
        out: dict[Element, LaurentPoly] = {}
        while rest:
            w = max(rest.coeffs, key=lambda e: (e.length(), e.index))
            c = rest.coefficient(w)
            out[w] = c
            rest = rest - self.c_basis(w).scale(c)
        return HeckeElement("C", out)

    def c_to_t(self, h: HeckeElement) -> HeckeElement:
        if h.basis != "C":
            raise ValueError("c_to_t expects a C-basis element")
        out = HeckeElement("T", {})
        for w, c in h.coeffs.items():
            out = out + self.c_basis(w).scale(c)
        return out

    def h_structure(self, x: Element, y: Element) -> dict[Element, LaurentPoly]:
        """Structure constants h_{x,y,z} of C_x C_y = sum_z h_{x,y,z} C_z."""
        prod = self.t_multiply(self.c_basis(x), self.c_basis(y))
        return dict(self.t_to_c(prod).coeffs)

    # -- a-function, Duflo set ---------------------------------------------------------

    def lusztig_a_delta_n(self) -> ADeltaN:
        """a(z), Delta(z), n_z and the Duflo set from the full h-table."""
        if self._adn is not None:
            return self._adn
        eng = self.engine
        if eng.order > self.h_table_limit:
            raise ValueError(
                f"|W| = {eng.order} exceeds the h-table limit "
                f"{self.h_table_limit}; use the representation-based route "
                f"(asymptotic module) instead"
            )
        a: dict[Element, int] = {z: 0 for z in eng.elements}
        for x in eng.elements:
            for y in eng.elements:
                for z, h in self.h_structure(x, y).items():
                    val = h.valuation()
                    if val is not None and -val > a[z]:
                        a[z] = -val
        delta: dict[Element, int] = {}
        n: dict[Element, int] = {}
        for z in eng.elements:
            p = self.pstar(eng.identity, z)
            if p:
                delta[z] = bar(p).valuation()
                n[z] = bar(p).lowest_term()
        duflo = {z for z in eng.elements if z in delta and a[z] == delta[z]}
        self._adn = ADeltaN(a, delta, n, duflo)
        return self._adn

    # -- cells --------------------------------------------------------------------------

    def _left_edges(self) -> list[set[int]]:
        """adj[y] = indices z such that C_z occurs in some C_s C_y."""
        eng = self.engine
        adj: list[set[int]] = [set() for _ in eng.elements]
        for y in eng.elements:
            for s in range(eng.datum.rank):
                for z, h in self.h_structure(eng.simple[s], y).items():
                    if h and z != y:
                        adj[y.index].add(z.index)
        return adj

    def cells(self, kind: str) -> CellPartition:
        """KL cells as SCCs of the C-basis multiplication graph."""
        if kind not in ("left", "right", "two-sided"):
            raise ValueError("kind must be left, right or two-sided")
        cached = self._cells.get(kind)
        if cached is not None:
            return cached
        eng = self.engine
        left = self._left_edges()
        if kind == "left":
            adj = left
        else:
            # right edges are left edges conjugated through inversion
            right: list[set[int]] = [set() for _ in eng.elements]
            for y_idx, targets in enumerate(left):
                yi = eng.elements[y_idx].inverse().index
                for z_idx in targets:
                    right[yi].add(eng.elements[z_idx].inverse().index)
            if kind == "right":
                adj = right
            else:
                adj = [left[i] | right[i] for i in range(eng.order)]
        comps = tarjan_scc(eng.order, [sorted(x) for x in adj])
        reach = condensation_reachability(comps, [sorted(x) for x in adj])
        # canonical block order: topological (lower cells last), ties by
        # smallest contained canonical index
        keyed = sorted(
            range(len(comps)),
            key=lambda ci: (-sum(1 for p in reach if p[0] == ci), min(comps[ci])),
        )
        blocks = [
            [eng.elements[i] for i in sorted(comps[ci])] for ci in keyed
        ]
        pos = {ci: k for k, ci in enumerate(keyed)}
        leq = {(pos[i], pos[j]) for (i, j) in reach}
        part = CellPartition(kind, blocks, leq)
        self._cells[kind] = part
        return part
