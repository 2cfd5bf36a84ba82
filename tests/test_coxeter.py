"""Group engine: enumeration, descents, Bruhat algorithms, weights.

The engine answers every query from index tables and downset bitsets.  The
tests hold those tables against independent routes kept here as oracles:
composition of root permutations for products, lengths, inverses and
descents; the lifting property and subword products for the Bruhat order;
and the stepwise-tested critical-pair reduction.
"""

import random
from functools import lru_cache

import pytest

from coxkl.coxeter import build_group, parse_type_string, recognize_type
from coxkl.kl import KLContext

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


def root_perms(eng):
    """The permutation of the root system of every element, by composition
    of simple reflections along its reduced word: (p*q)[i] = p[q[i]]."""
    gens = [eng._simple_perm(s) for s in range(eng.datum.rank)]
    perms = []
    for w in eng.elements:
        p = tuple(range(len(eng.roots)))
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
    assert ts in ("B2", "I2(4)")
    assert recognize_type([[1, 2], [2, 1]]) is None  # disconnected A1 x A1


def test_table_products_match_permutations():
    """Products, inverses, lengths, descents and hashes against the root
    permutations: every (x, s) on both sides and a seeded sample of (x, y)."""
    for ts in SHIPPED:
        eng = engine(ts)
        perms = root_perms(eng)
        assert len(set(perms)) == eng.order
        npos = eng.n_positive
        # a simple reflection makes exactly one positive root negative
        simple_roots = [
            next(i for i in range(npos) if perms[g.index][i] >= npos)
            for g in eng.simple
        ]
        for x in eng.elements:
            p = perms[x.index]
            assert hash(x) == hash(p)
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
