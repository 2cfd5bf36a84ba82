"""Shared engines and KL contexts; building them once keeps the suite fast."""

import json

import pytest
from oracles import GOLDEN

from coxkl import asymptotic
from coxkl.cli import main
from coxkl.coxeter import build_group
from coxkl.kl import KLContext
from coxkl.laurent import format_laurent, parse_laurent
from coxkl.scalars import Sqrt5, scalar_inv
from coxkl.wgraph import Representation


@pytest.fixture(scope="session")
def a2():
    return build_group("A2")


@pytest.fixture(scope="session")
def a3():
    return build_group("A3")


@pytest.fixture(scope="session")
def b3():
    return build_group("B3")


@pytest.fixture(scope="session")
def b3w():
    return build_group("B3:2,1,1")


@pytest.fixture(scope="session")
def kl_a2(a2):
    return KLContext(a2)


@pytest.fixture(scope="session")
def kl_a3(a3):
    return KLContext(a3)


@pytest.fixture(scope="session")
def kl_b3(b3):
    return KLContext(b3)


@pytest.fixture(scope="session")
def kl_b3w(b3w):
    return KLContext(b3w)


@pytest.fixture(scope="session")
def kl_cell_files(tmp_path_factory):
    """kl_cell_files(group) -> one W-graph file per KL left cell of the group,
    in the order of `wgraph cells`, written as a user would: `wgraph
    klgraph`, then `wgraph cells` on its output."""
    made = {}

    def files(group):
        if group not in made:
            out = tmp_path_factory.mktemp("kl_cells")
            kl, cells = out / "klgraph.json", out / "cells.json"
            assert main(["wgraph", "klgraph", "--group", group, "--out", str(kl)]) == 0
            assert main(["wgraph", "cells", str(kl), "--out", str(cells)]) == 0
            made[group] = []
            for k, cell in enumerate(json.loads(cells.read_text())["cells"]):
                path = out / f"cell{k}.json"
                path.write_text(json.dumps(cell["graph"]))
                made[group].append(path)
        return made[group]

    return files


@pytest.fixture(scope="session")
def jdata_run(tmp_path_factory):
    """jdata_run(group) -> (text, kl, jd): what `coxkl jdata --group group`
    printed, with the `KLContext` it built and the J it read off the
    h-table.  One J pass per group serves every test of the session."""
    made = {}

    def run(group):
        if group not in made:
            seen = []
            real = asymptotic.jdata_from_kl

            def recorded(kl):
                jd = real(kl)
                seen.append((kl, jd))
                return jd

            out = tmp_path_factory.mktemp("jdata") / "jdata.json"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(asymptotic, "jdata_from_kl", recorded)
                assert main(["jdata", "--group", group, "--out", str(out)]) == 0
            made[group] = (out.read_text(), *seen[0])
        return made[group]

    return run


@pytest.fixture(scope="session")
def sqrt5_cell_files(kl_cell_files, tmp_path_factory):
    """W-graph files over Q(sqrt 5), by name: "i25_cell" is the
    4-dimensional KL left cell of I2(5), "i25_cell_phi" its conjugate by
    S = diag(1, phi, 1, 1) and "i25_cell_phi_2r5" its conjugate by
    diag(2 + sqrt 5, phi, 1, 1).  Under S = diag(s) the weight of the edge
    y -> x becomes s_y / s_x times itself."""
    plain = next(p for p in kl_cell_files("I2(5)") if "\"id\": 3" in p.read_text())
    out = tmp_path_factory.mktemp("sqrt5_cells")
    files = {"i25_cell": plain}
    for name, scales in (
        ("i25_cell_phi", [1, GOLDEN, 1, 1]),
        ("i25_cell_phi_2r5", [Sqrt5(2, 1), GOLDEN, 1, 1]),
    ):
        data = json.loads(plain.read_text())
        for e in data["edges"]:
            factor = scales[e["from"]] * scalar_inv(scales[e["to"]])
            if factor != 1:
                e["weight"] = format_laurent(parse_laurent(e["weight"]) * factor)
        files[name] = out / f"{name}.json"
        files[name].write_text(json.dumps(data))
    return files


@pytest.fixture
def count_walks(monkeypatch):
    """Every walk of W a `Representation` makes from here on, in order: each
    call of `valuation_walk`."""
    walks = []
    valuation_walk = Representation.valuation_walk

    def counted(rep):
        walks.append(rep)
        return valuation_walk(rep)

    monkeypatch.setattr(Representation, "valuation_walk", counted)
    return walks
