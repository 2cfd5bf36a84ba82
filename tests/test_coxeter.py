"""Group engine: enumeration, descents, Bruhat algorithms, weights.

The engine answers every query from index tables and downset bitsets.  The
tests hold those tables against independent routes kept here as oracles:
composition of permutations of a root system built here over Q(sqrt 5) for
products, lengths, inverses and descents; the lifting property and subword
products for the Bruhat order; and the stepwise-tested critical-pair
reduction.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from oracles import GOLDEN, downsets_by_s_image, sqrt5_sign

from coxkl import coxeter
from coxkl.coxeter import (
    CATALOGUE,
    CoxeterDatum,
    GroupEngine,
    build_group,
    parse_type_string,
    recognize_type,
    type_string,
)
from coxkl.kl import KLContext
from coxkl.scalars import Sqrt5

SHIPPED = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "B3:2,1,1",
]
#: every pair is checked on these; B4 and A5 get a seeded sample
SMALL = [t for t in SHIPPED if t not in ("B4", "A5")]


@lru_cache(maxsize=None)
def engine(type_string):
    return build_group(type_string)


def compose(p, q):
    return tuple(p[j] for j in q)


#: oriented Cartan entries (A_ij, A_ji) for i < j by bond order, over
#: Q(sqrt 5): A_ij * A_ji = 4 cos^2(pi/m), with the even bonds oriented
#: against the entries the engine builds with; an odd bond joins conjugate
#: roots of one length, so its entries are equal, -phi for m = 5
ORACLE_BONDS = {
    2: (0, 0),
    3: (-1, -1),
    4: (-1, -2),
    5: (-GOLDEN, -GOLDEN),
    6: (-1, -3),
}


@lru_cache(maxsize=None)
def root_system(ts):
    """The number of positive roots, the indices of the simple roots and the
    permutation of the roots (positives first) by each simple reflection.

    The roots are the closure of the simple roots under the reflections
    s_i(r) = r - (sum_j A_ij r_j) alpha_i, with Sqrt5 coordinates in the
    basis of simple roots; a root is positive when its coordinates are."""
    matrix = engine(ts).datum.coxeter_matrix
    n = len(matrix)
    cartan = [
        [Sqrt5() + (2 if i == j else ORACLE_BONDS[row[j]][i > j]) for j in range(n)]
        for i, row in enumerate(matrix)
    ]

    def reflect(i, root):
        c = sum((a * x for a, x in zip(cartan[i], root)), Sqrt5())
        return root[:i] + (root[i] - c,) + root[i + 1:]

    simple = [tuple(Sqrt5(int(i == j)) for j in range(n)) for i in range(n)]
    seen, queue = set(simple), list(simple)
    while queue:
        root = queue.pop()
        for i in range(n):
            img = reflect(i, root)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    positives = [r for r in seen if all(sqrt5_sign(c) >= 0 for c in r)]
    roots = positives + [tuple(-c for c in r) for r in positives]
    assert set(roots) == seen  # every root is positive or negative
    index = {r: k for k, r in enumerate(roots)}
    gens = [tuple(index[reflect(i, r)] for r in roots) for i in range(n)]
    return len(positives), [index[r] for r in simple], gens


def root_perms(ts):
    """The root permutation of every element of the group, by composition of
    the oracle's simple reflections along its reduced word:
    (p*q)[i] = p[q[i]]."""
    eng = engine(ts)
    gens = root_system(ts)[2]
    perms = []
    for w in eng.elements:
        p = tuple(range(len(gens[0])))
        for s in eng.reduced_word(w):
            p = compose(p, gens[s])
        perms.append(p)
    return perms


def lifting_subword(eng, y, w):
    """A reduced word of w with flags selecting a subword equal to y, by the
    lifting property; None when y is not below w."""
    flags: list[bool] = []
    word: list[int] = []
    leny, lenw = y.length(), w.length()
    while 0 < leny and leny < lenw:
        s = min(eng.left_descent_set(w))
        w = eng.simple[s] * w
        lenw -= 1
        word.append(s)
        if s in eng.left_descent_set(y):
            y = eng.simple[s] * y
            leny -= 1
            flags.append(True)
        else:
            flags.append(False)
    if leny != 0 and y != w:
        return None
    keep = leny != 0
    while lenw > 0:
        s = min(eng.left_descent_set(w))
        w = eng.simple[s] * w
        lenw -= 1
        word.append(s)
        flags.append(keep)
    return flags, word


def lifting_le(eng, y, w):
    return lifting_subword(eng, y, w) is not None


def subword_down(eng, w):
    """[1, w] by the subword property: all products of subwords of one
    fixed reduced word of w."""
    down = {eng.identity}
    for s in eng.reduced_word(w):
        gen = eng.simple[s]
        down |= {x * gen for x in down}
    return down


def sample_pairs(eng, k, seed=0):
    rng = random.Random(seed)
    return [(rng.choice(eng.elements), rng.choice(eng.elements)) for _ in range(k)]


def test_build_group_orders():
    assert build_group("A3").order == 24
    assert build_group("I2(5)").order == 10
    g = build_group("B3:2,1,1")
    assert g.order == 48
    assert g.datum.weights == [2, 1, 1]


def test_unknown_types_rejected():
    for bad in ("E6", "Z4", "A0", "I2(7)", "H4", "B9"):
        with pytest.raises(ValueError):
            build_group(bad)
    # one spelling per name and per weight, and a weight list is never empty
    for bad in ("A03", "I2(05)", "a3", " A3", "A3:", "A3:1,,1", "A3: 1,1,1",
                "A3:+1,1,1", "B3:2,1,1:2,1,1", "B3:02,1,1", "A3:1,1,01"):
        with pytest.raises(ValueError):
            build_group(bad)
    with pytest.raises(ValueError):
        build_group("A2:1")  # wrong number of weights
    with pytest.raises(ValueError):
        build_group("A2:1,2")  # odd bond forces equal weights


def test_left_descents(a2):
    s, t = a2.simple
    assert a2.left_descent_set(a2.identity) == frozenset()
    assert a2.left_descent_set(a2.w0) == frozenset({0, 1})
    # frozen from word enumeration: the only left descent of st is s
    assert a2.left_descent_set(s * t) == frozenset({0})


def test_canonical_ascent_tree(a2, a3):
    assert sorted(a2.canonical_left_ascent_set(a2.identity)) == [0, 1]
    assert a2.canonical_left_ascent_set(a2.w0) == []
    # the tree visits each element exactly once
    for eng in (a2, a3):
        seen = {eng.identity}
        stack = [eng.identity]
        while stack:
            w = stack.pop()
            for s in eng.canonical_left_ascent_set(w):
                child = eng.simple[s] * w
                assert child not in seen
                seen.add(child)
                stack.append(child)
        assert len(seen) == eng.order


def test_bruhat_basics(a2):
    s, t = a2.simple
    for w in a2.elements:
        assert a2.bruhat_le(a2.identity, w)
        assert a2.bruhat_le(w, w)
    assert a2.bruhat_le(s, t * s * t)  # frozen from subword enumeration
    assert not a2.bruhat_le(a2.w0, s)


def test_bruhat_matches_oracle():
    """The downset bitsets against the lifting property and subword products:
    every pair up to D4 (|W| = 192), a seeded sample on B4 and A5."""
    for ts in SHIPPED:
        eng = engine(ts)
        if ts in SMALL:
            pairs = [(y, w) for w in eng.elements for y in eng.elements]
            tops = eng.elements
        else:
            pairs = sample_pairs(eng, 400)
            tops = [w for _, w in pairs[:25]]
        for y, w in pairs:
            assert eng.bruhat_le(y, w) == lifting_le(eng, y, w), (ts, y, w)
        for w in tops:
            below = {y for y in eng.elements if eng.bruhat_le(y, w)}
            assert below == subword_down(eng, w), (ts, w)


@pytest.mark.parametrize("ts", SHIPPED)
def test_downsets_match_interval_images(ts):
    """Every downset bitset, built from the coatoms, against the same bitset
    built from the image of [1, sw] under s."""
    eng = engine(ts)
    assert eng._downsets() == downsets_by_s_image(eng)


def test_lifting_property(a3):
    for w in a3.elements:
        dl = a3.left_descent_set(w)
        if not dl:
            continue
        s = min(dl)
        sw = a3.simple[s] * w
        for y in a3.elements:
            if s in a3.left_descent_set(y):
                expected = a3.bruhat_le(a3.simple[s] * y, sw)
            else:
                expected = a3.bruhat_le(y, sw)
            assert a3.bruhat_le(y, w) == expected


def test_bruhat_subword(a2, a3):
    s, t = a2.simple
    flags, word = lifting_subword(a2, a2.identity, a2.w0)
    assert not any(flags) and a2.from_word(word) == a2.w0
    flags, word = lifting_subword(a2, s * t, s * t)
    assert all(flags)
    sts = s * t * s
    res = lifting_subword(a2, s, sts)
    assert res is not None
    flags, word = res
    assert len(word) == sts.length() and a2.from_word(word) == sts
    assert a2.from_word([g for g, f in zip(word, flags) if f]) == s
    # deletion consistency on all A3 pairs
    for y in a3.elements:
        for w in a3.elements:
            res = lifting_subword(a3, y, w)
            if res is None:
                assert not a3.bruhat_le(y, w)
                continue
            assert a3.bruhat_le(y, w)
            flags, word = res
            assert len(word) == w.length()
            assert a3.from_word(word) == w
            sub = [g for g, f in zip(word, flags) if f]
            assert a3.from_word(sub) == y
            assert len(sub) == y.length()


def test_bruhat_interval(a2, a3):
    s, t = a2.simple
    assert a2.bruhat_interval(a2.identity, a2.w0) == set(a2.elements)
    assert a2.bruhat_interval(s, s) == {s}
    # frozen from the subword oracle: [s, sts] = {s, st, ts, sts}
    assert a2.bruhat_interval(s, s * t * s) == {s, s * t, t * s, s * t * s}
    for ts in SHIPPED:
        eng = engine(ts)
        if eng.order <= 48:
            pairs = [(y, w) for w in eng.elements for y in eng.elements]
        else:
            pairs = sample_pairs(eng, 150)
        for y, w in pairs:
            expected = {
                z
                for z in eng.elements
                if eng.bruhat_le(y, z) and eng.bruhat_le(z, w)
            }
            assert eng.bruhat_interval(y, w) == expected, (ts, y, w)


def test_longest_elements(a2):
    assert a2.longest_element([]) == a2.identity
    assert a2.longest_element([0]) == a2.simple[0]
    w = a2.longest_element([0, 1])
    assert w == a2.w0 and w.length() == 3  # frozen: exhaustive max over W
    assert w * w == a2.identity
    for x in a2.elements:
        assert (x * a2.w0).length() == a2.w0.length() - x.length()


def test_weights(b3w):
    assert b3w.weight(b3w.identity) == 0
    s0, s1, s2 = b3w.simple
    assert b3w.weight(s0 * s1) == 3
    # additivity on length-additive products
    for u in b3w.elements[:12]:
        for v in b3w.elements[:12]:
            uv = u * v
            if uv.length() == u.length() + v.length():
                assert b3w.weight(uv) == b3w.weight(u) + b3w.weight(v)


def test_equal_parameter_weight_is_length(a3):
    for w in a3.elements:
        assert a3.weight(w) == w.length()


def test_inverse_and_length(b3):
    for w in b3.elements:
        assert w.inverse().length() == w.length()
        assert (w * w.inverse()) == b3.identity


def test_type_string_parsing():
    assert parse_type_string("I2(5)")[0] == "I2(5)"
    name, matrix, weights = parse_type_string("B3:2,1,1")
    assert name == "B3" and weights == [2, 1, 1]
    assert matrix[0][1] == 4


def test_recognize_type():
    ts, perm = recognize_type([[1, 3], [3, 1]])
    assert ts == "A2"
    ts, perm = recognize_type([[1, 4], [4, 1]])
    assert ts == "I2(4)"  # the name `wgraph restrict` writes for B3 on {0, 1}
    assert recognize_type([[1, 2], [2, 1]]) is None  # disconnected A1 x A1


def odd_bond_weights(matrix):
    """Weights 2, 3, ... per class of generators joined by odd bonds: non-unit
    weights that the odd-bond rule allows."""
    root = list(range(len(matrix)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in combinations(range(len(matrix)), 2):
        if matrix[i][j] % 2:
            root[find(j)] = find(i)
    return [2 + find(i) for i in range(len(matrix))]


@pytest.mark.parametrize("name", CATALOGUE)
def test_catalogue_row_parses_builds_and_round_trips(name):
    matrix, order = CATALOGUE[name]
    rank = len(matrix)
    assert parse_type_string(name) == (name, matrix, [1] * rank)
    assert engine(name).order == order
    assert type_string(name, [1] * rank) == name
    # an explicit all-ones suffix names the same group
    assert parse_type_string(name + ":" + ",".join("1" * rank)) == parse_type_string(name)
    weights = odd_bond_weights(matrix)
    CoxeterDatum(matrix, weights)  # the odd-bond rule holds
    ts = type_string(name, weights)
    assert ts == name + ":" + ",".join(map(str, weights))
    assert parse_type_string(ts) == (name, matrix, weights)


@pytest.mark.parametrize("name", CATALOGUE)
def test_recognize_type_under_every_relabeling(name):
    """Every relabeling of a catalogue matrix is recognized as a row with
    that matrix, through a permutation that undoes the relabeling."""
    matrix = CATALOGUE[name][0]
    rank = len(matrix)
    for p in permutations(range(rank)):
        relabeled = [[matrix[p[i]][p[j]] for j in range(rank)] for i in range(rank)]
        found, perm = recognize_type(relabeled)
        cmat = CATALOGUE[found][0]
        assert cmat == matrix
        assert all(
            cmat[i][j] == relabeled[perm[i]][perm[j]]
            for i in range(rank)
            for j in range(rank)
        )


@pytest.mark.parametrize("name", CATALOGUE)
def test_integer_roots_build_the_tables_of_rational_roots(name, monkeypatch):
    """The orbit points have int coordinates (Z[phi] pairs), and the group
    they build is the one that Fraction Cartan entries build, table for
    table."""
    shipped = build_group(name)
    real = coxeter._bond_entries
    bonds = []

    def rational(m):
        bonds.append(m)
        return tuple((Fraction(a), Fraction(b)) for a, b in real(m))

    monkeypatch.setattr(coxeter, "_bond_entries", rational)
    oracle = build_group(name)
    assert bonds
    for attr in ("lmul", "words", "ldesc", "inverses", "order", "n_positive"):
        assert getattr(shipped, attr) == getattr(oracle, attr), attr


def test_table_products_match_permutations():
    """Products, inverses, lengths and descents against the oracle's root
    permutations: every (x, s) on both sides and a seeded sample of (x, y)."""
    for ts in SHIPPED:
        eng = engine(ts)
        npos, simple_roots, _ = root_system(ts)
        assert eng.n_positive == npos
        perms = root_perms(ts)
        assert len(set(perms)) == eng.order
        for x in eng.elements:
            p = perms[x.index]
            assert x.length() == sum(j >= npos for j in p[:npos])
            inv = perms[x.inverse().index]
            assert compose(p, inv) == tuple(range(len(p)))
            assert eng.right_descent_set(x) == {
                s for s, r in enumerate(simple_roots) if p[r] >= npos
            }
            assert eng.left_descent_set(x) == {
                s for s, r in enumerate(simple_roots) if inv[r] >= npos
            }
            for s, g in enumerate(eng.simple):
                q = perms[g.index]
                assert perms[(g * x).index] == compose(q, p), (ts, s, x)
                assert perms[(x * g).index] == compose(p, q), (ts, x, s)
        for x, y in sample_pairs(eng, 300):
            assert perms[(x * y).index] == compose(perms[x.index], perms[y.index])


@pytest.mark.parametrize(
    "matrix, message",
    [
        (coxeter._path(4, 4), "more than 720 elements"),  # affine C~2
        (coxeter._path(7), "unsupported bond order 7"),
    ],
    ids=["affine C2", "bond 7"],
)
def test_engine_refuses_a_diagram_outside_the_catalogue(matrix, message):
    with pytest.raises(ValueError, match=message):
        GroupEngine(CoxeterDatum(matrix))


def test_build_group_checks_the_catalogue_order(monkeypatch):
    matrix, order = CATALOGUE["A3"]
    monkeypatch.setitem(CATALOGUE, "A3", (matrix, order + 1))
    with pytest.raises(AssertionError, match="order 24 != classification order 25"):
        build_group("A3")


def stepwise_critical_pair(kl, y, w):
    """The critical-pair reduction with a Bruhat test before every step."""
    eng = kl.engine
    gamma = 0
    while True:
        if not eng.bruhat_le(y, w):
            return None, y, w
        left = sorted(eng.left_descent_set(w) - eng.left_descent_set(y))
        right = sorted(eng.right_descent_set(w) - eng.right_descent_set(y))
        if left:
            y = eng.simple[left[0]] * y
            gamma += eng.generator_weight(left[0])
        elif right:
            y = y * eng.simple[right[0]]
            gamma += eng.generator_weight(right[0])
        else:
            return gamma, y, w


def test_critical_pair_needs_one_bruhat_test():
    for ts in ("D4", "B3:2,1,1"):
        kl = KLContext(engine(ts))
        for w in kl.engine.elements:
            for y in kl.engine.elements:
                assert kl.critical_pair(y, w) == stepwise_critical_pair(kl, y, w)


#: numbers of conjugacy classes; I2(m) has (m+3)/2 of them for odd m and
#: (m+6)/2 for even m
CLASS_COUNTS = {"A4": 7, "A5": 11, "B3": 10, "B4": 20, "D4": 13, "H3": 10}
CLASS_COUNTS.update(
    {f"I2({m})": (m + 3) // 2 if m % 2 else (m + 6) // 2 for m in (3, 4, 5, 6)}
)


@pytest.mark.parametrize("group", sorted(CLASS_COUNTS))
def test_conjugacy_class_representatives(group):
    """One representative per class, of minimal length in it; the classes
    are closed here by conjugating with every element, not by s w s."""
    eng = engine(group)
    reps = eng.conjugacy_class_representatives()
    assert len(reps) == CLASS_COUNTS[group]
    assert reps is eng.conjugacy_class_representatives()
    covered = set()
    for w in reps:
        cls = {x * w * x.inverse() for x in eng.elements}
        assert not cls & covered
        covered |= cls
        assert w.length() == min(c.length() for c in cls)
    assert len(covered) == eng.order
