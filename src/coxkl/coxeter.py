"""Finite Coxeter groups as index tables built from one chamber orbit.

W acts simply transitively on the chambers of its reflection representation,
so the image w.x0 of one point x0 of the fundamental chamber names w
(Humphreys, Reflection Groups and Coxeter Groups, 5.13).  A point is written
in the coordinates y_j = <x, alpha_j> against the simple roots, exact in
Z[phi], phi = (1 + sqrt 5)/2 (integers unless a bond has order 5, as in H3
and I2(5)); x0 has y = (1, ..., 1), and s_i sends y to y' with
y'_j = y_j - A_ij y_i.  The build enumerates the orbit breadth-first and
fills index tables from the products it computes anyway: left and right
multiplication by each generator, lengths, inverses, canonical reduced words
and descent bitmasks.  After that the points are dropped; every query is a
table lookup, and a product of two elements walks one reduced word through
the tables.  The Bruhat order is one downset bitset per element, built on
the first Bruhat query: y <= w is one bit test, and an interval is read off
two downsets.

The shipped types are the rows of `CATALOGUE`, one Coxeter matrix and |W|
per canonical name: A1..A5, I2(m) for m in {3,4,5,6}, B2..B4, D4 and H3.
Generators are 0-based; in type B the generator 0 carries the bond of order 4,
in H3 the generator 0 carries the bond of order 5.

A type string names a group, e.g. "A3", "I2(5)", or "B3:2,1,1" where the
suffix lists the weight L(s) of each generator in generator order.  The name
must be a catalogue key as written; `type_string` gives the canonical
spelling, which drops an all-ones suffix.
"""

from __future__ import annotations

from itertools import permutations


class CoxeterDatum:
    """Generators, Coxeter matrix and a positive integral weight function."""

    def __init__(self, coxeter_matrix, weights=None, name=""):
        n = len(coxeter_matrix)
        if any(len(row) != n for row in coxeter_matrix):
            raise ValueError("Coxeter matrix must be square")
        for i in range(n):
            if coxeter_matrix[i][i] != 1:
                raise ValueError("Coxeter matrix must have 1 on the diagonal")
            for j in range(i + 1, n):
                if coxeter_matrix[i][j] != coxeter_matrix[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if coxeter_matrix[i][j] < 2:
                    raise ValueError("off-diagonal Coxeter entries must be >= 2")
        self.rank = n
        self.coxeter_matrix = [list(row) for row in coxeter_matrix]
        self.weights = list(weights) if weights is not None else [1] * n
        if len(self.weights) != n:
            raise ValueError("need one weight per generator")
        if any(not isinstance(w, int) or w <= 0 for w in self.weights):
            raise ValueError("weights must be positive integers")
        self.name = name
        self._check_weight_conjugacy()

    def _check_weight_conjugacy(self):
        # generators joined by an odd bond are conjugate and need equal weight
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.coxeter_matrix[i][j]
                if m % 2 == 1 and m >= 3 and self.weights[i] != self.weights[j]:
                    raise ValueError(
                        f"generators {i} and {j} are conjugate (bond {m} is odd) "
                        f"but have different weights"
                    )

    def is_equal_parameter(self) -> bool:
        return len(set(self.weights)) == 1


class Element:
    """A group element: a canonical index into the tables of its engine.

    Elements are interned, one object per index, so equality is identity,
    and the hash is the index.
    """

    __slots__ = ("engine", "index")

    def __init__(self, engine, index: int):
        self.engine = engine
        self.index = index

    def __mul__(self, other: "Element") -> "Element":
        eng = self.engine
        if eng is not other.engine:
            raise ValueError("elements of different groups")
        x, y = self.index, other.index
        # walk the reduced word of the shorter factor through the tables
        if eng.lengths[x] <= eng.lengths[y]:
            for s in reversed(eng.words[x]):
                y = eng.lmul[s][y]
            return eng.elements[y]
        for s in eng.words[y]:
            x = eng.rmul[s][x]
        return eng.elements[x]

    def __hash__(self):
        return self.index

    def __repr__(self):
        word = "".join(str(s) for s in self.engine.words[self.index])
        return f"<{word or 'e'}>"

    def inverse(self) -> "Element":
        return self.engine.elements[self.engine.inverses[self.index]]

    def length(self) -> int:
        return self.engine.lengths[self.index]


def _bond_entries(m):
    """Oriented Cartan entries (A_ij, A_ji) with A_ij*A_ji = 4cos^2(pi/m), as
    Z[phi] pairs (a, b) = a + b*phi, phi = (1 + sqrt 5)/2; the diagonal m = 1
    gives A_ii = 2.

    Only m = 5 (H3, I2(5)) has b != 0: its entries are -phi.
    """
    if m == 1:
        return (2, 0), (2, 0)
    if m == 2:
        return (0, 0), (0, 0)
    if m == 3:
        return (-1, 0), (-1, 0)
    if m == 4:
        return (-2, 0), (-1, 0)
    if m == 5:
        return (0, -1), (0, -1)
    if m == 6:
        return (-3, 0), (-1, 0)
    raise ValueError(f"unsupported bond order {m}")


def bit_indices(bits: int):
    """The positions of the set bits of a nonnegative int, increasing."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class GroupEngine:
    """Fully enumerated finite Coxeter group, held as index tables.

    Elements are numbered breadth-first along the canonical left-ascent
    spanning tree (ties by generator index); that order is the canonical
    indexing used by every table and JSON output downstream.  The orbit
    points of x0 exist only while the tables are built:

    - ``lmul[s][i]`` and ``rmul[s][i]``: the indices of s*w_i and w_i*s;
    - ``lengths[i]``, ``inverses[i]`` and ``words[i]``, the canonical
      reduced word (strip the smallest left descent repeatedly);
    - ``ldesc[i]`` and ``rdesc[i]``: left and right descent sets as
      bitmasks over the generators;
    - ``n_positive``: the number of positive roots, the length of w0.

    An orbit that grows past the largest catalogue order raises ValueError:
    the diagram is infinite or not shipped.  The Bruhat order (one downset
    bitset per element) and the conjugacy class representatives are built
    on first use.
    """

    def __init__(self, datum: CoxeterDatum):
        self.datum = datum
        self._enumerate()
        rank = datum.rank
        self.identity = self.elements[0]
        self.simple = [self.elements[self.lmul[s][0]] for s in range(rank)]
        self.w0 = self.elements[-1]
        self.n_positive = self.lengths[-1]
        self._desc_sets = [
            frozenset(s for s in range(rank) if m >> s & 1)
            for m in range(1 << rank)
        ]
        self._down: list[int] | None = None
        self._class_reps: tuple[Element, ...] | None = None
        self._ascent_walk: list[tuple[int, int, int]] | None = None

    # -- the tables -------------------------------------------------------------

    def _enumerate(self):
        rank = self.datum.rank
        matrix = self.datum.coxeter_matrix
        # a point is the flat tuple of its coordinates y_j = <x, alpha_j> as
        # Z[phi] pairs (a, b) = a + b*phi, phi^2 = phi + 1; row s keeps the
        # nonzero Cartan entries A_sj as (2j, a, b), the smaller index of a
        # bond taking its first entry
        rows = [[] for _ in range(rank)]
        for s, row in enumerate(rows):
            for j in range(rank):
                p, q = _bond_entries(matrix[s][j])[s > j]
                if p or q:
                    row.append((2 * j, p, q))

        def reflect(s, y):
            # the reflection s sends y to y' with y'_j = y_j - A_sj * y_s
            a, b = y[2 * s], y[2 * s + 1]
            out = list(y)
            for k, p, q in rows[s]:
                out[k] -= p * a + q * b
                out[k + 1] -= p * b + q * a + q * b
            return tuple(out)

        points = [(1, 0) * rank]
        lengths, words, ldesc = [0], [()], [0]
        lmul: list[list] = [[None] for _ in range(rank)]
        level = [0]
        while level:
            # every ascent product s*w of the level, keyed by its point; the
            # generators over one child's products are exactly its left descents
            found: dict[tuple, list[tuple[int, int]]] = {}
            for w in level:
                y, dw = points[w], ldesc[w]
                for s in range(rank):
                    if not dw >> s & 1:
                        found.setdefault(reflect(s, y), []).append((s, w))
            # the tree parent strips the smallest left descent s; the next
            # level is ordered by (parent, s)
            children = sorted(found.items(), key=lambda kv: min(kv[1])[::-1])
            level = []
            for point, prods in children:
                i = len(points)
                if i == _ORDER_BOUND:
                    raise ValueError(
                        f"the group has more than {_ORDER_BOUND} elements, the "
                        f"largest catalogue order: it is infinite or not shipped"
                    )
                s0, parent = min(prods)
                points.append(point)
                lengths.append(lengths[parent] + 1)
                words.append((s0,) + words[parent])
                ldesc.append(sum(1 << s for s, _ in prods))
                for row in lmul:
                    row.append(None)
                for s, w in prods:
                    lmul[s][w] = i
                    lmul[s][i] = w
                level.append(i)
        # w = s1...sk has inverse sk...s1: apply s1, ..., sk on the left
        inv = []
        for word in words:
            x = 0
            for s in word:
                x = lmul[s][x]
            inv.append(x)
        self.order = len(points)
        self.lengths, self.words, self.ldesc, self.lmul = lengths, words, ldesc, lmul
        self.inverses = inv
        self.rdesc = [ldesc[j] for j in inv]
        self.rmul = [[inv[row[j]] for j in inv] for row in lmul]
        self.elements = [Element(self, i) for i in range(self.order)]

    # -- length/descent queries -------------------------------------------------

    def right_descent_set(self, w: Element) -> frozenset:
        return self._desc_sets[self.rdesc[w.index]]

    def left_descent_set(self, w: Element) -> frozenset:
        return self._desc_sets[self.ldesc[w.index]]

    def canonical_left_ascent_set(self, w: Element) -> list:
        """Successors of w in the canonical spanning tree rooted at 1.

        These are the s_i whose product s_i w has a canonical word starting
        with s_i, which forces s_i w > w; every element is reached exactly
        once this way.
        """
        i = w.index
        return [
            s for s in range(self.datum.rank)
            if self.words[self.lmul[s][i]][:1] == (s,)
        ]

    def ascent_walk(self) -> list[tuple[int, int, int]]:
        """The canonical spanning tree in depth-first preorder, children in
        increasing s, the identity left out, as index triples (w, s, l):
        w = s p for its tree parent p, and l = l(w).  The parent of w is the
        last entry of length l - 1 before it (the identity when l = 1), so a
        walk keeps one running value per length.  Built on first use."""
        if self._ascent_walk is None:
            lmul, lengths, elements = self.lmul, self.lengths, self.elements
            walk = []
            ascents = self.canonical_left_ascent_set
            stack = [(0, s) for s in reversed(ascents(self.identity))]
            while stack:
                p, s = stack.pop()
                w = lmul[s][p]
                walk.append((w, s, lengths[w]))
                stack.extend((w, t) for t in reversed(ascents(elements[w])))
            self._ascent_walk = walk
        return self._ascent_walk

    # -- words and weights --------------------------------------------------------

    def reduced_word(self, w: Element) -> list:
        """Canonical reduced word: strip the smallest left descent repeatedly."""
        return list(self.words[w.index])

    def from_word(self, word) -> Element:
        i = 0
        for s in word:
            i = self.rmul[s][i]
        return self.elements[i]

    def weight(self, w: Element) -> int:
        return sum(self.datum.weights[s] for s in self.words[w.index])

    def generator_weight(self, s: int) -> int:
        return self.datum.weights[s]

    def support(self, w: Element) -> frozenset:
        """Generators occurring in any (hence every) reduced word of w."""
        return frozenset(self.words[w.index])

    # -- Bruhat order ----------------------------------------------------------------

    def _downsets(self) -> list[int]:
        """Bit x of down[i] is set iff x <= w_i.

        [1, w] is w together with the downsets of the coatoms of w (the
        u < w of length l(w) - 1), since the Bruhat order is graded.  Let s
        be the first letter of the canonical word of w and w' = sw < w.  The
        coatoms of w are w' and the sc for the coatoms c of w' with sc > c,
        by the lifting property (Bjorner-Brenti, Combinatorics of Coxeter
        Groups, Prop. 2.2.7): a coatom u with su > u lies below sw = w', so
        it is w'; one with su < u has su <= w' of length l(w') - 1; and a
        coatom c of w' with sc > c has sc <= w.  Elements come in order of
        length, so each downset is a few ORs of downsets already built.  The
        coatom lists live only while the downsets are built.
        """
        if self._down is None:
            lmul, words, ldesc = self.lmul, self.words, self.ldesc
            down, coatoms = [1], [()]
            for i in range(1, self.order):
                s = words[i][0]
                row = lmul[s]
                p = row[i]
                cs = [p] + [row[c] for c in coatoms[p] if not ldesc[c] >> s & 1]
                below = 1 << i
                for u in cs:
                    below |= down[u]
                down.append(below)
                coatoms.append(cs)
            self._down = down
        return self._down

    def bruhat_down(self, w: Element) -> int:
        """The lower interval [1, w] as a bitset of canonical indices."""
        return self._downsets()[w.index]

    def bruhat_le(self, y: Element, w: Element) -> bool:
        """Decide y <= w: one bit of the downset of w."""
        return bool(self._downsets()[w.index] >> y.index & 1)

    def bruhat_interval(self, y: Element, w: Element) -> set:
        """The interval {z : y <= z <= w}: the z below w whose downset holds y."""
        down = self._downsets()
        yi = y.index
        # z >= y is no shorter than y, so its canonical index is no smaller
        return {
            self.elements[z]
            for z in bit_indices(down[w.index] >> yi << yi)
            if down[z] >> yi & 1
        }

    # -- conjugacy classes -----------------------------------------------------------

    def conjugacy_class_representatives(self) -> tuple[Element, ...]:
        """One minimal-length element per conjugacy class, in canonical order.

        The simple generators generate W, so conjugation by them, w -> s w s,
        connects each class.  Classes are closed that way from their first
        element in canonical index order; that order is by length, so the
        first element has minimal length in its class.
        """
        if self._class_reps is None:
            lmul, rmul = self.lmul, self.rmul
            seen = bytearray(self.order)
            reps = []
            for i in range(self.order):
                if seen[i]:
                    continue
                reps.append(self.elements[i])
                seen[i] = 1
                stack = [i]
                while stack:
                    w = stack.pop()
                    for row, col in zip(lmul, rmul):
                        c = col[row[w]]
                        if not seen[c]:
                            seen[c] = 1
                            stack.append(c)
            self._class_reps = tuple(reps)
        return self._class_reps

    # -- distinguished elements ------------------------------------------------------

    def longest_element(self, J=None) -> Element:
        """The longest element of the standard parabolic subgroup W_J."""
        if J is None:
            return self.w0
        w = self.identity
        while True:
            for s in sorted(J):
                if s not in self.left_descent_set(w):
                    w = self.simple[s] * w
                    break
            else:
                return w

    def coset_chain(self) -> list[list[tuple]]:
        """Distinguished coset representatives along W_0 = 1 < ... < W_r = W,
        W_k = <s_0, ..., s_(k-1)>.

        Level k lists D_k, the d in W_(k+1) with no left descent in W_k, as
        canonical index triples (d, p, s): d = p s with l(d) = l(p) + 1, s
        the smallest right descent of d, and p listed before d; the identity
        comes first as (0, None, None).  Each w in W_(k+1) is x d for one
        x in W_k and one d in D_k, with l(w) = l(x) + l(d) (Geck-Pfeiffer,
        2.1.1), and a prefix of a distinguished d is distinguished.
        """
        rmul, lengths, ldesc, rdesc = self.rmul, self.lengths, self.ldesc, self.rdesc
        chain = []
        for k in range(self.datum.rank):
            below = (1 << k) - 1
            level = [(0, None, None)]
            # the loop reads the triples it appends: each d is expanded in turn
            for d, _, _ in level:
                for s in range(k + 1):
                    e = rmul[s][d]
                    if (lengths[e] > lengths[d] and not ldesc[e] & below
                            and rdesc[e] & -rdesc[e] == 1 << s):
                        level.append((e, d, s))
            chain.append(level)
        return chain


# -- type strings -------------------------------------------------------------


def _diagram(rank, *bonds):
    """The Coxeter matrix with the bonds (i, j, m) and 2 elsewhere."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, order in bonds:
        m[i][j] = m[j][i] = order
    return tuple(map(tuple, m))


def _path(*orders):
    """The path diagram 0 - 1 - ... with the given bond orders along it."""
    return _diagram(len(orders) + 1, *((i, i + 1, m) for i, m in enumerate(orders)))


#: canonical name -> (Coxeter matrix, |W|).  `recognize_type` returns the
#: first row that matches, so A2 comes before I2(3) and I2(4) before B2.
CATALOGUE = {
    "A1": (_path(), 2),
    "A2": (_path(3), 6),
    "A3": (_path(3, 3), 24),
    "A4": (_path(3, 3, 3), 120),
    "A5": (_path(3, 3, 3, 3), 720),
    "I2(3)": (_path(3), 6),
    "I2(4)": (_path(4), 8),
    "I2(5)": (_path(5), 10),
    "I2(6)": (_path(6), 12),
    "B2": (_path(4), 8),
    "B3": (_path(4, 3), 48),
    "B4": (_path(4, 3, 3), 384),
    "D4": (_diagram(4, (0, 2, 3), (1, 2, 3), (2, 3, 3)), 192),
    "H3": (_path(5, 3), 120),
}

#: the largest catalogue order; `GroupEngine` refuses an orbit that passes it
_ORDER_BOUND = max(order for _, order in CATALOGUE.values())


def parse_type_string(ts: str):
    """Split a type string into (name, coxeter_matrix, weights)."""
    name, colon, wpart = ts.partition(":")
    if name not in CATALOGUE:
        raise ValueError(
            f"cannot parse group type {ts!r}: the shipped types are "
            + ", ".join(CATALOGUE)
        )
    matrix = CATALOGUE[name][0]
    if not colon:
        return name, matrix, [1] * len(matrix)
    parts = wpart.split(",")
    # a weight is ASCII digits without a leading zero, as the name is
    # spelled exactly as in the catalogue
    if not all(x.isascii() and x.isdecimal() and x == str(int(x)) for x in parts):
        raise ValueError(f"bad weight list in {ts!r}")
    if len(parts) != len(matrix):
        raise ValueError(
            f"expected {len(matrix)} weights in {ts!r}, got {len(parts)}"
        )
    return name, matrix, [int(x) for x in parts]


def type_string(name: str, weights) -> str:
    """The canonical type string: the name, then ":" and the weights unless
    all are 1.  The inverse of `parse_type_string`."""
    if all(w == 1 for w in weights):
        return name
    return name + ":" + ",".join(str(w) for w in weights)


def recognize_type(matrix) -> tuple[str, tuple[int, ...]] | None:
    """Match a Coxeter matrix against the shipped catalogue.

    Returns (name, perm) for the first `CATALOGUE` row that matches, with
    perm[new] = old such that relabeling the input by perm yields that row's
    matrix, or None if the diagram is not shipped (e.g. disconnected
    parabolics).
    """
    rank = len(matrix)
    for name, (cmat, _) in CATALOGUE.items():
        if len(cmat) != rank:
            continue
        for perm in permutations(range(rank)):
            if all(
                cmat[i][j] == matrix[perm[i]][perm[j]]
                for i in range(rank)
                for j in range(rank)
            ):
                return name, perm
    return None


def build_group(ts: str) -> GroupEngine:
    """Build a fully enumerated engine from a type string like "B3:2,1,1"."""
    name, matrix, weights = parse_type_string(ts)
    engine = GroupEngine(CoxeterDatum(matrix, weights, name=name))
    expected = CATALOGUE[name][1]
    if engine.order != expected:
        raise AssertionError(
            f"enumerated order {engine.order} != classification order {expected}"
        )
    return engine


_GROUP_CACHE: dict[str, GroupEngine] = {}


def shared_engine(ts: str) -> GroupEngine:
    """One engine per canonical type string for the whole process, so graphs
    over one weighted group share it however it is spelled."""
    name, _, weights = parse_type_string(ts)
    key = type_string(name, weights)
    eng = _GROUP_CACHE.get(key)
    if eng is None:
        eng = _GROUP_CACHE[key] = build_group(key)
    return eng


_DIAGRAM_CACHE: dict[tuple, GroupEngine] = {}


def diagram_engine(name: str, matrix, weights) -> GroupEngine:
    """One engine per named, weighted diagram outside the catalogue for the
    whole process, as `shared_engine` keeps one per catalogue type.  The
    key holds the matrix and the weights as well as the name."""
    key = (name, tuple(map(tuple, matrix)), tuple(weights))
    eng = _DIAGRAM_CACHE.get(key)
    if eng is None:
        datum = CoxeterDatum(matrix, weights, name=name)
        eng = _DIAGRAM_CACHE[key] = GroupEngine(datum)
    return eng
