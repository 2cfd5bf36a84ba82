"""Shared engines and KL contexts; building them once keeps the suite fast."""

import json

import pytest

from coxkl.cli import main
from coxkl.coxeter import build_group
from coxkl.kl import KLContext
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


@pytest.fixture
def count_walks(monkeypatch):
    """Every walk of W a `Representation` makes from here on, in order: a
    Laurent `walk`, or a `packed_walk` over Q."""
    walks = []
    walk, packed_walk = Representation.walk, Representation.packed_walk

    def counted(rep):
        walks.append(rep)
        return walk(rep)

    def counted_packed(rep):
        nodes = packed_walk(rep)
        if nodes is not None:
            walks.append(rep)
        return nodes

    monkeypatch.setattr(Representation, "walk", counted)
    monkeypatch.setattr(Representation, "packed_walk", counted_packed)
    return walks
