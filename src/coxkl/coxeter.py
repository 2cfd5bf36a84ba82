"""Finite Coxeter groups as index tables built from their root systems.

A group is built once from the permutations its simple reflections induce on
the full root system, written in the basis of simple roots with exact
coordinates (rationals for crystallographic types, Q(sqrt 5) for H3 and
I2(5)).  The build enumerates the group breadth-first and fills index tables
from the products it computes anyway: left and right multiplication by each
generator, lengths, inverses, canonical reduced words and descent bitmasks.
After that the permutations are dropped; every query is a table lookup, and
a product of two elements walks one reduced word through the tables.  The
Bruhat order is one downset bitset per element, built on the first Bruhat
query: y <= w is one bit test, and an interval is read off two downsets.

Supported types: A1..A5, B2..B4, D4, I2(m) for m in {3,4,5,6}, H3.
Generators are 0-based; in type B the generator 0 carries the bond of order 4,
in H3 the generator 0 carries the bond of order 5.

A type string names a group, e.g. "A3", "I2(5)", or "B3:2,1,1" where the
suffix lists the weight L(s) of each generator in generator order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce

from .scalars import GOLDEN, Sqrt5

_ROOT_BOUND = 2000


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

    @property
    def generators(self):
        return range(self.rank)

    def is_equal_parameter(self) -> bool:
        return len(set(self.weights)) == 1


class Element:
    """A group element: a canonical index into the tables of its engine.

    Elements are interned, one object per index, so equality is identity.
    The hash is that of the element's root permutation, fixed at build time.
    """

    __slots__ = ("engine", "index", "_hash")

    def __init__(self, engine, index: int, perm_hash: int):
        self.engine = engine
        self.index = index
        self._hash = perm_hash

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
        return self._hash

    def __repr__(self):
        word = "".join(str(s) for s in self.engine.words[self.index])
        return f"<{word or 'e'}>"

    def inverse(self) -> "Element":
        return self.engine.elements[self.engine.inverses[self.index]]

    def length(self) -> int:
        return self.engine.lengths[self.index]

    def is_identity(self) -> bool:
        return self.index == 0


def _bond_entries(m):
    """Cartan-style entries (A_ij, A_ji) with A_ij*A_ji = 4cos^2(pi/m)."""
    if m == 2:
        return Fraction(0), Fraction(0)
    if m == 3:
        return Fraction(-1), Fraction(-1)
    if m == 4:
        return Fraction(-2), Fraction(-1)
    if m == 5:
        return -GOLDEN, -GOLDEN
    if m == 6:
        return Fraction(-3), Fraction(-1)
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
    indexing used by every table and JSON output downstream.  Root
    permutations exist only while the tables are built:

    - ``lmul[s][i]`` and ``rmul[s][i]``: the indices of s*w_i and w_i*s;
    - ``lengths[i]``, ``inverses[i]`` and ``words[i]``, the canonical
      reduced word (strip the smallest left descent repeatedly);
    - ``ldesc[i]`` and ``rdesc[i]``: left and right descent sets as
      bitmasks over the generators.

    The Bruhat order is one downset bitset per element, built on first use.
    """

    def __init__(self, datum: CoxeterDatum):
        self.datum = datum
        self._build_roots()
        self._enumerate()
        rank = datum.rank
        self.identity = self.elements[0]
        self.simple = [self.elements[self.lmul[s][0]] for s in range(rank)]
        self.w0 = self.elements[-1]
        self._desc_sets = [
            frozenset(s for s in range(rank) if m >> s & 1)
            for m in range(1 << rank)
        ]
        self._down: list[int] | None = None

    # -- root system ----------------------------------------------------------

    def _build_roots(self):
        n = self.datum.rank
        cartan = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    cartan[i][j] = Fraction(2)
                else:
                    a, b = _bond_entries(self.datum.coxeter_matrix[i][j])
                    # orientation: the smaller index gets the first entry
                    cartan[i][j] = a if i < j else b
        self.cartan = cartan

        def reflect(i, root):
            coeff = reduce(
                lambda acc, jx: acc + cartan[i][jx[0]] * jx[1],
                enumerate(root),
                root[i] * 0,
            )
            new = list(root)
            new[i] = new[i] - coeff
            return tuple(new)

        zero = Fraction(0)
        simple_roots = []
        for i in range(n):
            coords = [zero] * n
            coords[i] = Fraction(1)
            simple_roots.append(tuple(coords))

        seen = set(simple_roots)
        queue = list(simple_roots)
        while queue:
            root = queue.pop()
            for i in range(n):
                img = reflect(i, root)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
                    if len(seen) > _ROOT_BOUND:
                        raise ValueError("root system is not finite (bound hit)")

        positives = sorted(
            (r for r in seen if _root_sign(r) > 0), key=_root_sort_key
        )
        negatives = [tuple(-c for c in r) for r in positives]
        self.roots = positives + negatives
        self.n_positive = len(positives)
        self._root_index = {r: i for i, r in enumerate(self.roots)}
        self._reflect = reflect

    def _simple_perm(self, i) -> tuple:
        return tuple(
            self._root_index[self._reflect(i, r)] for r in self.roots
        )

    # -- the tables -------------------------------------------------------------

    def _enumerate(self):
        rank = self.datum.rank
        gens = [self._simple_perm(s) for s in range(rank)]
        perms = [tuple(range(len(self.roots)))]
        lengths, words, ldesc = [0], [()], [0]
        lmul: list[list] = [[None] for _ in range(rank)]
        level = [0]
        while level:
            # every ascent product s*w of the level, keyed by permutation; the
            # generators over one child's products are exactly its left descents
            found: dict[tuple, list[tuple[int, int]]] = {}
            for w in level:
                q, dw = perms[w], ldesc[w]
                for s in range(rank):
                    if not dw >> s & 1:
                        child = tuple(map(gens[s].__getitem__, q))
                        found.setdefault(child, []).append((s, w))
            # the tree parent strips the smallest left descent s; the next
            # level is ordered by (parent, s)
            children = sorted(found.items(), key=lambda kv: min(kv[1])[::-1])
            level = []
            for perm, prods in children:
                i = len(perms)
                s0, parent = min(prods)
                perms.append(perm)
                lengths.append(lengths[parent] + 1)
                words.append((s0,) + words[parent])
                ldesc.append(sum(1 << s for s, _ in prods))
                for row in lmul:
                    row.append(None)
                for s, w in prods:
                    lmul[s][w] = i
                    lmul[s][i] = w
                level.append(i)
        npos = self.n_positive
        if sum(j >= npos for j in perms[-1][:npos]) != npos:
            raise AssertionError("longest element does not flip all positives")
        # w = s1...sk has inverse sk...s1: apply s1, ..., sk on the left
        inv = []
        for word in words:
            x = 0
            for s in word:
                x = lmul[s][x]
            inv.append(x)
        self.order = len(perms)
        self.lengths, self.words, self.ldesc, self.lmul = lengths, words, ldesc, lmul
        self.inverses = inv
        self.rdesc = [ldesc[j] for j in inv]
        self.rmul = [[inv[row[j]] for j in inv] for row in lmul]
        self.elements = [Element(self, i, hash(p)) for i, p in enumerate(perms)]

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

        For a left descent s of w, [1, w] is [1, sw] together with its image
        under left multiplication by s.
        """
        if self._down is None:
            down = [1]
            for i in range(1, self.order):
                row = self.lmul[self.words[i][0]]
                below = down[row[i]]
                image = 0
                for x in bit_indices(below):
                    image |= 1 << row[x]
                down.append(below | image)
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

    def element_by_index(self, i: int) -> Element:
        return self.elements[i]


def _root_sign(root):
    for c in root:
        if isinstance(c, Sqrt5):
            s = c.sign()
        else:
            s = (c > 0) - (c < 0)
        if s:
            return s
    return 0


def _root_sort_key(root):
    # deterministic order on roots; exact, so independent of the platform
    key = []
    for c in root:
        if isinstance(c, Sqrt5):
            key.append((c.a, c.b))
        else:
            key.append((Fraction(c), Fraction(0)))
    return key


# -- type strings -------------------------------------------------------------

_TYPE_RE = re.compile(r"^([ABDH])(\d+)$|^I2\((\d+)\)$")

_SUPPORTED = {
    "A": range(1, 6),
    "B": range(2, 5),
    "D": (4,),
    "H": (3,),
}

_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("A", 5): 720,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("D", 4): 192,
    ("H", 3): 120,
}


def coxeter_matrix_for(family: str, rank: int):
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    if family == "A":
        for i in range(rank - 1):
            m[i][i + 1] = m[i + 1][i] = 3
    elif family == "B":
        m[0][1] = m[1][0] = 4
        for i in range(1, rank - 1):
            m[i][i + 1] = m[i + 1][i] = 3
    elif family == "D":
        if rank != 4:
            raise ValueError("only D4 is shipped")
        for a, b in ((0, 2), (1, 2), (2, 3)):
            m[a][b] = m[b][a] = 3
    elif family == "H":
        if rank != 3:
            raise ValueError("only H3 is shipped")
        m[0][1] = m[1][0] = 5
        m[1][2] = m[2][1] = 3
    else:
        raise ValueError(f"unknown family {family!r}")
    return m


def parse_type_string(type_string: str):
    """Split a type string into (name, coxeter_matrix, weights)."""
    base, _, wpart = type_string.partition(":")
    base = base.strip()
    mm = _TYPE_RE.match(base)
    if not mm:
        raise ValueError(f"cannot parse group type {type_string!r}")
    if mm.group(3) is not None:
        order = int(mm.group(3))
        if order not in (3, 4, 5, 6):
            raise ValueError(f"I2({order}) is not shipped; m must be 3..6")
        matrix = [[1, order], [order, 1]]
        rank = 2
    else:
        family, rank = mm.group(1), int(mm.group(2))
        if rank not in _SUPPORTED[family]:
            raise ValueError(f"type {base} is not in the shipped catalogue")
        matrix = coxeter_matrix_for(family, rank)
    if wpart:
        try:
            weights = [int(x) for x in wpart.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad weight list in {type_string!r}") from exc
        if len(weights) != rank:
            raise ValueError(
                f"expected {rank} weights in {type_string!r}, got {len(weights)}"
            )
    else:
        weights = [1] * rank
    return base, matrix, weights


def recognize_type(matrix) -> tuple[str, tuple[int, ...]] | None:
    """Match a Coxeter matrix against the shipped catalogue.

    Returns (base_type, perm) with perm[new] = old such that relabeling the
    input by perm yields the catalogue matrix, or None if the diagram is not
    shipped (e.g. disconnected parabolics).
    """
    from itertools import permutations

    rank = len(matrix)
    candidates: list[str] = []
    if rank == 1:
        candidates = ["A1"]
    elif rank == 2:
        candidates = ["A2", "I2(4)", "I2(5)", "I2(6)", "B2"]
    elif rank == 3:
        candidates = ["A3", "B3", "H3"]
    elif rank == 4:
        candidates = ["A4", "B4", "D4"]
    elif rank == 5:
        candidates = ["A5"]
    for ts in candidates:
        _, cmat, _ = parse_type_string(ts)
        for perm in permutations(range(rank)):
            if all(
                cmat[i][j] == matrix[perm[i]][perm[j]]
                for i in range(rank)
                for j in range(rank)
            ):
                return ts, perm
    return None


def build_group(type_string: str) -> GroupEngine:
    """Build a fully enumerated engine from a type string like "B3:2,1,1"."""
    name, matrix, weights = parse_type_string(type_string)
    datum = CoxeterDatum(matrix, weights, name=name)
    engine = GroupEngine(datum)
    mm = _TYPE_RE.match(name)
    if mm.group(3) is not None:
        expected = 2 * int(mm.group(3))
    else:
        expected = _ORDERS[(mm.group(1), int(mm.group(2)))]
    if engine.order != expected:
        raise AssertionError(
            f"enumerated order {engine.order} != classification order {expected}"
        )
    return engine
