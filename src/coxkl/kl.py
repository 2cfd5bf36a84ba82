"""Kazhdan-Lusztig polynomials, the C-basis, structure constants and cells.

Everything is computed in the normalization where the standard basis
satisfies T_s^2 = 1 + (v_s - v_s^-1) T_s with v_s = v^L(s).  The inverse
polynomials P*_{y,w} = v^{L(y)-L(w)} P_{y,w} are the primary objects.  They
are computed and memoized only at critical pairs, those with D_L(w) in D_L(y)
and D_R(w) in D_R(y); every other entry is a monomial shift of one of them.
A lookup (`pstar`) runs the critical-pair reduction first; a full row
P*_{.,w} (`pstar_row`) fills each non-critical entry by one shift.

The edge polynomials mu live in mu-lists: for each w and each s not in
D_L(w), `mu_list(w, s)` holds the nonzero mu^s_{y,w} and nothing else.
These are the descent edges into w of the KL W-graph, and the P* recursion
reads only them, with one Bruhat bit test per entry (the organisation of
du Cloux's Coxeter and of Geck's PyCox).  Zero values are never stored.

The C-basis has one route here: `c_basis` reads C_w in the T-basis off a
row of the P*-recursion.  Arithmetic in the T-basis itself (products, the
bar involution and the bar-invariant fixed-point solver for C_w) is the
test oracle in `tests/tbasis.py`.

How C_s acts on the C-basis is read off the edges of the KL W-graph
(`wgraph_edges`), a map built once per context.  The cells come from that
one map, and so do the sparse columns T_s C_u, T_s = C_s + v_s, that the
representation side reads (`t_columns`), and the structure constants
h_{x,y,z}: `h_column` builds C_x C_y for all x at once along canonical
words, and `h_structure`, Lusztig's a-function, gamma and the Duflo set
read those columns.  KL data has integer coefficients, so the columns are
packed integers (`laurent.pack`), at one width per context fixed by a
coefficient bound proved before any packing; a and gamma are read off
their lowest digits, and `h_structure` unpacks them.  The test suite holds
them against full T-basis products (`tests/tbasis.py`) and against the
same recursion in Laurent polynomials (`tests/oracles.py`).  Delta and n
are read off the row P*_{1,.} once per context (`delta_n`), for the Duflo
set here and for the cell representations of `coxkl.asymptotic`.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import Element, GroupEngine, bit_indices
from .graphs import condensation_order, edge_adjacency
from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    add_term,
    bar,
    from_sum,
    l1_norm,
    negative_part,
    pack,
    packed_digit,
    packed_valuation,
    packed_width,
    positive_part,
    shift,
    unpack,
)


class CellPartition(NamedTuple):
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


class ADeltaN(NamedTuple):
    """Lusztig's a-function data, the Duflo set and the leading coefficients
    gamma, read off the h-table."""

    a: dict[Element, int]
    delta: dict[Element, int]
    n: dict[Element, int]
    duflo: set[Element]
    #: (x, y) -> {z^-1: gamma_{x,y,z^-1}}
    gamma: dict[tuple[Element, Element], dict[Element, object]]


class KLContext:
    """All KL data of one weighted group, with memoized tables."""

    def __init__(self, engine: GroupEngine):
        self.engine = engine
        # P* of the critical pair (u, v), keyed by u.index * |W| + v.index
        self._pstar: dict[int, LaurentPoly] = {}
        # mu_list(w, s), keyed by w.index * rank + s
        self._mu_lists: dict[int, dict[int, LaurentPoly]] = {}
        # bit i of _descent_masks[0][s] (of [1][s]) is set iff s is a left
        # (right) descent of w_i
        self._descent_masks: tuple[list[int], list[int]] | None = None
        self._cbasis: dict[Element, dict[Element, LaurentPoly]] = {}
        self._edges: dict[tuple[int, int, int], LaurentPoly] | None = None
        self._cells: dict[str, CellPartition] = {}
        # C_s C_u per generator, and the h-columns asked for by h_structure
        self._gen_cols: list | None = None
        self._hcols: dict[int, list[dict[int, int]]] = {}
        # the generator columns packed for h_column, see _packed_columns
        self._packed: tuple | None = None
        self._delta_n: tuple[dict[Element, int], dict[Element, int]] | None = None
        self._adn: ADeltaN | None = None

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
        step = self._reduction_step(yi, wi)
        while step is not None:
            t, yi = step
            gamma += weights[t]
            step = self._reduction_step(yi, wi)
        return gamma, eng.elements[yi], w

    def _reduction_step(self, yi: int, wi: int) -> tuple[int, int] | None:
        """(t, ty) for the smallest t in D_L(w) not in D_L(y), else (t, yt)
        for the smallest t in D_R(w) not in D_R(y); None when (y, w) is
        critical, that is D_L(w) in D_L(y) and D_R(w) in D_R(y)."""
        eng = self.engine
        moves = eng.ldesc[wi] & ~eng.ldesc[yi]
        table = eng.lmul
        if not moves:
            moves = eng.rdesc[wi] & ~eng.rdesc[yi]
            table = eng.rmul
            if not moves:
                return None
        t = (moves & -moves).bit_length() - 1
        return t, table[t][yi]

    def _masks(self) -> tuple[list[int], list[int]]:
        """Per generator t, the bitsets {w : t in D_L(w)} and {w : t in D_R(w)}."""
        if self._descent_masks is None:
            eng = self.engine
            self._descent_masks = tuple(
                [sum(1 << i for i, d in enumerate(desc) if d >> t & 1)
                 for t in range(eng.datum.rank)]
                for desc in (eng.ldesc, eng.rdesc)
            )
        return self._descent_masks

    def pstar(self, y: Element, w: Element) -> LaurentPoly:
        """The inverse Kazhdan-Lusztig polynomial P*_{y,w}."""
        gamma, u, v = self.critical_pair(y, w)
        if gamma is None:
            return ZERO
        if u == v:
            return LaurentPoly({-gamma: 1})
        return shift(self._pstar_critical(u.index, v.index), -gamma)

    def _pstar_critical(self, ui: int, vi: int) -> LaurentPoly:
        """P*_{u,v} for a critical pair u < v, memoized.

        For t the smallest left descent of v,
            P*_{u,v} = v_t P*_{u,tv} + P*_{tu,tv} - sum_z P*_{u,z} mu^t_{z,tv}
        over the z of the mu-list of (tv, t) with u <= z.
        """
        eng = self.engine
        key = ui * eng.order + vi
        klp = self._pstar.get(key)
        if klp is None:
            desc = eng.ldesc[vi]
            t = (desc & -desc).bit_length() - 1
            row, elements = eng.lmul[t], eng.elements
            u, tv = elements[ui], elements[row[vi]]
            # the sum accumulates in one bare map, wrapped once
            lt = eng.generator_weight(t)
            out = {k + lt: c for k, c in self.pstar(u, tv).coeffs.items()}
            for k, c in self.pstar(elements[row[ui]], tv).coeffs.items():
                add_term(out, k, c)
            down = eng._downsets()
            for zi, m in self.mu_list(tv, t).items():
                if down[zi] >> ui & 1:
                    mc = m.coeffs.items()
                    for k1, c1 in self.pstar(u, elements[zi]).coeffs.items():
                        for k2, c2 in mc:
                            k = k1 + k2
                            cur = out.get(k)
                            out[k] = -(c1 * c2) if cur is None else cur - c1 * c2
            klp = self._pstar[key] = from_sum(out)
        return klp

    def pstar_row(self, w: Element) -> dict[int, LaurentPoly]:
        """{y.index: P*_{y,w}} over y <= w, filled in decreasing index; not memoized.

        A critical entry comes from the memo.  Any other one is
        P*_{y,w} = v^-L(t) P*_{ty,w} (or P*_{yt,w}) for the first step of the
        critical-pair reduction; ty is longer than y, so already in the row,
        and the entry is one `shift` of its keys.
        """
        eng = self.engine
        wi = w.index
        row = {wi: ONE}
        for yi in reversed(list(bit_indices(eng._downsets()[wi] ^ 1 << wi))):
            step = self._reduction_step(yi, wi)
            if step is None:
                row[yi] = self._pstar_critical(yi, wi)
            else:
                t, zi = step
                row[yi] = shift(row[zi], -eng.datum.weights[t])
        return row

    def kl_polynomial(self, y: Element, w: Element) -> LaurentPoly:
        """P_{y,w} = v^(L(w)-L(y)) P*_{y,w}."""
        eng = self.engine
        return shift(self.pstar(y, w), eng.weight(w) - eng.weight(y))

    def mu(self, y: Element, w: Element, s: int) -> LaurentPoly:
        """The edge polynomial mu^s_{y,w}; zero unless sy < y < w < sw.  The
        mu-list of (w, s) holds only y with sy < y < w, so s in D_L(w), where
        `mu_list` raises, is the one case to guard."""
        if self.engine.ldesc[w.index] >> s & 1:
            return ZERO
        return self.mu_list(w, s).get(y.index, ZERO)

    def mu_list(self, w: Element, s: int) -> dict[int, LaurentPoly]:
        """The nonzero mu^s_{y,w} over y < w with sy < y, keyed by y's index.

        These are the descent edges into w of the KL W-graph; s must not be
        a left descent of w.  The candidates y are taken in decreasing
        index, that is in decreasing length.

        When supp(w) and s carry one weight L, mu is the coefficient of v^-L
        in P*_{y,w}.  For (y, w) not critical, P*_{y,w} = v^-gamma P*_{u,w}
        with gamma >= L, and P*_{u,w} has only negative degrees when u < w
        (Lusztig, Hecke algebras with unequal parameters, Thm 5.2).  So that
        coefficient is 0 unless u = w and gamma = L, that is unless y is tw
        or wt for a descent t of w, where it is 1; only the critical y are
        read from the memo of critical pairs.

        Otherwise mu is alpha + bar(alpha_{>0}) for the part alpha of
        degree >= 0 of
            v_s P*_{y,w} - sum_z P*_{y,z} mu^s_{z,w}
        over y < z < w with sz < z; by the order of the candidates every
        such z with nonzero mu is already in the list.
        """
        eng = self.engine
        wi = w.index
        key = wi * eng.datum.rank + s
        out = self._mu_lists.get(key)
        if out is not None:
            return out
        if eng.ldesc[wi] >> s & 1:
            raise ValueError(f"generator {s} is a left descent of {w!r}")
        weights = eng.datum.weights
        ls = weights[s]
        left, right = self._masks()
        down, elements = eng._downsets(), eng.elements
        out = {}
        if all(weights[t] == ls for t in eng.support(w)):
            critical, one_step = down[wi], 0
            for t in bit_indices(eng.ldesc[wi]):
                critical &= left[t]
                one_step |= 1 << eng.lmul[t][wi]
            for t in bit_indices(eng.rdesc[wi]):
                critical &= right[t]
                one_step |= 1 << eng.rmul[t][wi]
            for yi in reversed(list(bit_indices((critical | one_step) & left[s]))):
                if one_step >> yi & 1:
                    out[yi] = ONE
                    continue
                c = self._pstar_critical(yi, wi).coeffs.get(-ls)
                if c:
                    out[yi] = LaurentPoly({0: c})
        else:
            vs = LaurentPoly({ls: 1})
            for yi in reversed(list(bit_indices(down[wi] & left[s]))):
                y = elements[yi]
                alpha = self.pstar(y, w) * vs
                for zi, mz in out.items():
                    if down[zi] >> yi & 1:
                        alpha = alpha - self.pstar(y, elements[zi]) * mz
                alpha = alpha - negative_part(alpha)
                m = alpha + bar(positive_part(alpha))
                if m:
                    out[yi] = m
        self._mu_lists[key] = out
        return out

    # -- the C-basis -----------------------------------------------------------------

    def c_basis(self, w: Element) -> dict[Element, LaurentPoly]:
        """C_w expanded in the T-basis, {y: coefficient of T_y}, from the
        P*-recursion.  The map is memoized and shared: callers must not
        change it."""
        cached = self._cbasis.get(w)
        if cached is not None:
            return cached
        eng = self.engine
        row, lengths = self.pstar_row(w), eng.lengths
        coeffs = {}
        for yi in bit_indices(eng.bruhat_down(w)):
            sign = -1 if (lengths[yi] + lengths[w.index]) % 2 else 1
            coeffs[eng.elements[yi]] = bar(row[yi]) * sign
        self._cbasis[w] = coeffs
        return coeffs

    # -- the W-graph edges and cells ---------------------------------------------------

    def wgraph_edges(self) -> dict[tuple[int, int, int], LaurentPoly]:
        """Edges (s, x, y) -> weight of the KL W-graph on canonical indices.

        For s not in D_L(y), C_s C_y = C_sy + sum e_{x,y} mu^s_{x,y} C_x over
        x < y with sx < x, where e_{x,y} = (-1)^(l(x)+l(y)+1) is the sign of
        this C-basis, for every positive weight function (Lusztig, Hecke
        algebras with unequal parameters, Thm 6.6).  So the ascent edge
        y -> sy carries weight 1 and the descent edge y -> x the signed mu,
        read off `mu_list(y, s)`.  Per generator, ascent edges come first in
        y order, then descent edges in (x, y) order.  The map is built once
        per context and shared by every caller, which must not change it.
        """
        if self._edges is not None:
            return self._edges
        eng = self.engine
        lengths = eng.lengths
        edges: dict[tuple[int, int, int], LaurentPoly] = {}
        for s in range(eng.datum.rank):
            row = eng.lmul[s]
            descents = []
            for y in eng.elements:
                yi = y.index
                if eng.ldesc[yi] >> s & 1:
                    continue
                edges[(s, row[yi], yi)] = ONE
                for xi, mu in self.mu_list(y, s).items():
                    sign = -1 if (lengths[xi] + lengths[yi] + 1) % 2 else 1
                    descents.append(((s, xi, yi), mu * sign))
            edges.update(sorted(descents, key=lambda e: e[0]))
        self._edges = edges
        return edges

    def cells(self, kind: str) -> CellPartition:
        """KL cells as SCCs of the C-basis multiplication graph.

        Left edges y -> x, for C_x occurring in some C_s C_y, are the KL
        W-graph edges; right edges are left edges conjugated by inversion.
        Blocks come in the order of `condensation_order`: lowest cells first.
        """
        if kind not in ("left", "right", "two-sided"):
            raise ValueError("kind must be left, right or two-sided")
        cached = self._cells.get(kind)
        if cached is not None:
            return cached
        eng = self.engine
        left = edge_adjacency(eng.order, self.wgraph_edges())
        if kind == "left":
            adj = left
        else:
            inv = eng.inverses
            right: list[set[int]] = [set() for _ in eng.elements]
            for y, targets in enumerate(left):
                right[inv[y]].update(inv[x] for x in targets)
            if kind == "right":
                adj = right
            else:
                adj = [left[i] | right[i] for i in range(eng.order)]
        blocks, leq = condensation_order(eng.order, adj)
        part = CellPartition(
            kind, [[eng.elements[i] for i in b] for b in blocks], leq
        )
        self._cells[kind] = part
        return part

    # -- structure constants, a-function, Duflo set ------------------------------------

    def _generator_columns(self) -> list[list[list[tuple[int, LaurentPoly]]]]:
        """cols[s][u]: C_s C_u as (z index, h_{s,u,z}) pairs.

        Column u of the KL W-graph for s, or -(v_s + v_s^-1) C_u when s is
        in D_L(u).
        """
        if self._gen_cols is None:
            eng = self.engine
            ldesc, cols = eng.ldesc, []
            for s, ls in enumerate(eng.datum.weights):
                frozen = LaurentPoly({ls: -1, -ls: -1})
                cols.append(
                    [[(u, frozen)] if d >> s & 1 else [] for u, d in enumerate(ldesc)]
                )
            for (s, z, u), weight in self.wgraph_edges().items():
                cols[s][u].append((z, weight))
            self._gen_cols = cols
        return self._gen_cols

    def t_columns(self) -> list[list[dict[int, LaurentPoly]]]:
        """cols[s][u]: T_s C_u = C_s C_u + v_s C_u as a {z index: coefficient} map."""
        out = []
        for s, gen in enumerate(self._generator_columns()):
            vs = LaurentPoly({self.engine.generator_weight(s): 1})
            out.append([dict(col) for col in gen])
            for u, col in enumerate(out[s]):
                add_term(col, u, vs)
        return out

    def _packed_columns(self):
        """(B, L, cols) for the packed h-table: cols[s][u] lists C_s C_u as
        (z index, v^L(s) h_{s,u,z} packed at width B) pairs, and L[x] is
        the weight of the element of index x.

        Bound.  Let M_x bound every coefficient of every h_{x,y,z}, over all
        y and z.  In the recursion of `h_column`, a coefficient of
        C_s (C_x' C_y) is at most rho_s M_x', where rho_s is the largest sum
        over u of L1(h_{s,u,t}) for one t, and one of w_{s,z,x'} C_z C_y at
        most L1(w_{s,z,x'}) M_z.  So
            M_x = M_x' rho_s + sum_z L1(w_{s,z,x'}) M_z,  M_e = 1,
        bounds them all.  It does not depend on y, so B = packed_width(max M)
        is fixed once per context, and every digit read back is exact.
        """
        if self._packed is None:
            eng = self.engine
            weights, words, lmul = eng.datum.weights, eng.words, eng.lmul
            gens = self._generator_columns()
            rho = []
            for gen in gens:
                sums = [0] * eng.order
                for col in gen:
                    for z, weight in col:
                        sums[z] += l1_norm(weight)
                rho.append(max(sums))
            bound = [1]
            for xi in range(1, eng.order):
                s = words[xi][0]
                xp = lmul[s][xi]
                bound.append(bound[xp] * rho[s] + sum(
                    l1_norm(weight) * bound[z] for z, weight in gens[s][xp] if z != xi
                ))
            width = packed_width(max(bound))
            cols = [
                [[(z, pack(weight, width, -weights[s])) for z, weight in col]
                 for col in gen]
                for s, gen in enumerate(gens)
            ]
            self._packed = (width, [eng.weight(w) for w in eng.elements], cols)
        return self._packed

    def h_column(self, y: Element) -> list[dict[int, int]]:
        """C_x C_y = sum_z h_{x,y,z} C_z for every x: entry x.index is
        {z.index: v^L(x) h_{x,y,z}}, packed at the width of `_packed_columns`.

        For x = s x' with s the first letter of the canonical word of x,
        C_s C_x' = C_x + sum_z w_{s,z,x'} C_z over the descent edges
        (s, z, x') of the KL W-graph, so
            C_x C_y = C_s (C_x' C_y) - sum_z w_{s,z,x'} C_z C_y.
        Canonical indices increase with length, so x' and every such z
        come before x.  With L(x) = L(s) + L(x') and L(z) <= L(x'), the
        packed sum is (v^L(s) h_s) times the packed h of x', less
        (v^L(s) w_{s,z,x'}) v^(L(x')-L(z)) times the packed h of z: every
        exponent stays >= 0.
        """
        eng = self.engine
        width, lw, cols = self._packed_columns()
        column: list[dict[int, int]] = [{y.index: 1}]
        for xi in range(1, eng.order):
            s = eng.words[xi][0]
            xp = eng.lmul[s][xi]
            gen = cols[s]
            acc: dict[int, int] = {}
            for u, c in column[xp].items():
                for z, g in gen[u]:
                    acc[z] = acc.get(z, 0) + c * g
            lp = lw[xp]
            for z, g in gen[xp]:
                if z != xi:
                    g = -g << width * (lp - lw[z])
                    for t, c in column[z].items():
                        acc[t] = acc.get(t, 0) + c * g
            column.append({z: h for z, h in acc.items() if h})
        return column

    def h_structure(self, x: Element, y: Element) -> dict[Element, LaurentPoly]:
        """Structure constants h_{x,y,z} of C_x C_y = sum_z h_{x,y,z} C_z."""
        column = self._hcols.get(y.index)
        if column is None:
            column = self._hcols[y.index] = self.h_column(y)
        width, lw, _ = self._packed_columns()
        elements = self.engine.elements
        return {
            elements[z]: unpack(h, width, -lw[x.index])
            for z, h in column[x.index].items()
        }

    def delta_n(self) -> tuple[dict[Element, int], dict[Element, int]]:
        """(Delta, n) over W: Delta(z) = nu(bar P*_{1,z}) and n_z its lowest
        coefficient, unsigned.  Read once per context and shared by every
        caller, which must not change them."""
        if self._delta_n is None:
            eng = self.engine
            delta, n = {}, {}
            for z in eng.elements:
                p = bar(self.pstar(eng.identity, z))
                delta[z], n[z] = p.valuation(), p.lowest_term()
            self._delta_n = delta, n
        return self._delta_n

    def lusztig_a_delta_n(self) -> ADeltaN:
        """a, Delta, n, the Duflo set and gamma from one pass over the h-columns.

        a(z) = max over x, y of -nu(h_{x,y,z}); gamma_{x,y,z^-1} is the
        coefficient of v^-a(z) in h_{x,y,z}, so each z keeps only the terms
        at its largest degree bound so far.  Delta and n come from
        `delta_n`, and D = {z : a(z) = Delta(z)} (Lusztig, Hecke algebras
        with unequal parameters, ch. 13-14).
        """
        if self._adn is not None:
            return self._adn
        eng = self.engine
        elements = eng.elements
        width, lw, _ = self._packed_columns()
        a = [0] * eng.order
        lead: list[dict[tuple[int, int], object]] = [{} for _ in elements]
        for y in elements:
            yi = y.index
            for xi, row in enumerate(self.h_column(y)):
                lx = lw[xi]
                for zi, h in row.items():
                    # h holds v^L(x) h_{x,y,z}: its lowest digit position p
                    # is L(x) + nu(h_{x,y,z})
                    p = packed_valuation(h, width)
                    k = lx - p
                    if k > a[zi]:
                        a[zi] = k
                        lead[zi] = {}
                    if k == a[zi]:
                        lead[zi][(xi, yi)] = packed_digit(h, p, width)
        gamma: dict[tuple[Element, Element], dict[Element, object]] = {}
        for zi, terms in enumerate(lead):
            z_inv = elements[eng.inverses[zi]]
            for (xi, yi), c in terms.items():
                gamma.setdefault((elements[xi], elements[yi]), {})[z_inv] = c
        delta, n = self.delta_n()
        a_of = {z: a[z.index] for z in elements}
        duflo = {z for z in elements if a_of[z] == delta[z]}
        self._adn = ADeltaN(a_of, delta, n, duflo, gamma)
        return self._adn
