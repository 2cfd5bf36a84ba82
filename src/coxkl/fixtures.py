"""The shipped W-graph catalogue.

One-dimensional graphs for every supported type, reflection graphs and
exterior powers of the reflection graph for A2/A3, and the ten graphs
realizing the irreducible characters of B3 (equal parameters).  Every
fixture passes the validator; the test suite enforces that.

Edge weights follow the convention that a drawn weight applies to every
admissible generator of its edge; undirected edges carry the weight in both
directions.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import GroupEngine, shared_engine
from .laurent import LaurentPoly
from .wgraph import WGraph, dual_wgraph, induced_wgraph, label_subsets


def _c(x) -> LaurentPoly:
    return LaurentPoly({0: Fraction(x)})


def one_dim_graph(engine: GroupEngine, label) -> WGraph:
    """The single-vertex graph carrying -v_s^-1 exactly on `label`."""
    return WGraph(engine, [frozenset(label)], {})


def trivial_graph(engine: GroupEngine) -> WGraph:
    return one_dim_graph(engine, frozenset())


def sign_graph(engine: GroupEngine) -> WGraph:
    return one_dim_graph(engine, range(engine.datum.rank))


def reflection_graph(engine: GroupEngine) -> WGraph:
    """Vertices indexed by generators, labels {s}, constant weights.

    Uses the positive real solution of the product constraints: in the
    equal-parameter simply-laced case every bonded pair carries weight -1
    in both directions (c_st = c_ts = 1).
    """
    n = engine.datum.rank
    if not engine.datum.is_equal_parameter():
        raise ValueError("reflection fixtures are shipped for equal parameters")
    labels = [frozenset({s}) for s in range(n)]
    edges = {}
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            m = engine.datum.coxeter_matrix[x][y]
            if m == 3:
                edges[(x, x, y)] = _c(-1)
            elif m == 4:
                # product of the two directed weights must be 2
                edges[(x, x, y)] = _c(-1 if x < y else -2)
            elif m > 4:
                raise ValueError("reflection fixture needs bonds of order <= 4")
    return WGraph(engine, labels, edges)


def exterior_power_graph(engine: GroupEngine, r: int) -> WGraph:
    """Wedge power of the reflection graph: vertices are r-subsets of S.

    Weight (-1)^r c_st on edges A -> B with A \\ B = {s}, B \\ A = {t};
    c_st = c_ts = 1 for bonds of order 3 and zero otherwise (simply-laced
    types only).
    """
    n = engine.datum.rank
    if any(
        engine.datum.coxeter_matrix[i][j] not in (2, 3)
        for i in range(n)
        for j in range(i + 1, n)
    ):
        raise ValueError("exterior powers are shipped for simply-laced types")
    verts = [l for l in label_subsets(n) if len(l) == r]
    labels = list(verts)
    sign = -1 if r % 2 else 1
    edges = {}
    for xi, a in enumerate(verts):
        for yi, b in enumerate(verts):
            if xi == yi:
                continue
            da, db = a - b, b - a
            if len(da) == 1 and len(db) == 1:
                s = next(iter(da))
                t = next(iter(db))
                if engine.datum.coxeter_matrix[s][t] == 3:
                    edges[(s, xi, yi)] = _c(-sign)
    return WGraph(engine, labels, edges)


# -- the B3 table -----------------------------------------------------------------


def b3_graphs() -> dict[str, WGraph]:
    """The ten graphs of the B3 character table, equal parameters.

    Generator 0 carries the bond of order 4.  chi8 and chi10 are the duals
    of chi7 and chi9 in the displayed vertex order.
    """
    eng = shared_engine("B3")
    out: dict[str, WGraph] = {}
    out["chi1"] = trivial_graph(eng)
    out["chi2"] = sign_graph(eng)
    out["chi3"] = one_dim_graph(eng, {0})
    out["chi4"] = one_dim_graph(eng, {1, 2})
    out["chi5"] = WGraph(
        eng,
        [frozenset({1}), frozenset({2})],
        {(1, 0, 1): _c(1), (2, 1, 0): _c(1)},
    )
    out["chi6"] = WGraph(
        eng,
        [frozenset({0, 2}), frozenset({0, 1})],
        {(2, 0, 1): _c(-1), (1, 1, 0): _c(-1)},
    )
    out["chi7"] = WGraph(
        eng,
        [frozenset({0}), frozenset({1}), frozenset({2})],
        {
            (1, 1, 0): _c(2),
            (0, 0, 1): _c(1),
            (1, 1, 2): _c(1),
            (2, 2, 1): _c(1),
        },
    )
    out["chi8"] = induced_wgraph(dual_wgraph(out["chi7"]), [1, 2, 0])
    out["chi9"] = WGraph(
        eng,
        [frozenset({0}), frozenset({1}), frozenset({0, 2})],
        {
            (0, 0, 1): _c(-1),
            (1, 1, 0): _c(-1),
            (1, 1, 2): _c(1),
            (0, 2, 1): _c(1),
            (2, 2, 1): _c(1),
        },
    )
    out["chi10"] = induced_wgraph(dual_wgraph(out["chi9"]), [0, 1, 2])
    return out


def b3_chi9_conjugate() -> WGraph:
    """A label-respecting constant conjugate of chi9 (all labels distinct,
    so the conjugation is by a fixed diagonal matrix)."""
    g = b3_graphs()["chi9"]
    diag = [Fraction(1), Fraction(2), Fraction(3)]
    edges = {
        (s, x, y): w * (diag[y] / diag[x]) for (s, x, y), w in g.edges.items()
    }
    return WGraph(g.engine, g.labels, edges)


# -- the catalogue ------------------------------------------------------------------


def catalogue() -> dict[str, WGraph]:
    """All shipped fixtures by name."""
    out: dict[str, WGraph] = {}
    for ts in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4",
               "I2(3)", "I2(4)", "I2(5)", "I2(6)", "H3"):
        eng = shared_engine(ts)
        key = ts.lower().replace("(", "").replace(")", "")
        out[f"{key}_trivial"] = trivial_graph(eng)
        out[f"{key}_sign"] = sign_graph(eng)
    out["a2_refl"] = reflection_graph(shared_engine("A2"))
    out["a3_refl"] = reflection_graph(shared_engine("A3"))
    out["a3_ext2"] = exterior_power_graph(shared_engine("A3"), 2)
    for name, g in b3_graphs().items():
        out[f"b3_{name}"] = g
    out["b3_chi9_conj"] = b3_chi9_conjugate()
    return out
