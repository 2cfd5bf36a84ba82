"""Checks of the benchmark's reference outputs and of its failure accounting.

Usage: python3 -m pytest benchmark/check_references.py

These run the recorded jobs again and hold their outputs against routes the
library computes independently: left cells from the h-table
(`KLContext.cells`) against cells of the KL W-graph, the cell-basis axiom
check, and the dimension-sum check of `gamma_n_table`.  They take about two
minutes, so the file is named to stay out of the default test collection.
"""

from __future__ import annotations

import functools
import json
import sys

import pytest

from jobs import (
    SRC,
    WORKLOADS,
    all_job_keys,
    cli_command,
    fingerprint,
    generate_fixtures,
    job_ok,
    load_references,
    run_child,
)
from run import Pass, layer_metrics

sys.path.insert(0, str(SRC))

from coxkl import asymptotic  # noqa: E402
from coxkl.fixtures import b3_graphs, shared_engine  # noqa: E402
from coxkl.kl import KLContext  # noqa: E402
from coxkl.wgraph import kl_wgraph, wgraph_cells, wgraph_from_json  # noqa: E402

REFS = load_references()


@pytest.fixture(scope="module", autouse=True)
def fixtures_written():
    generate_fixtures(60)


def reference_stdout(key: str) -> dict:
    """Run a job, require its recorded exit code and stdout, return the JSON."""
    res = run_child(cli_command(key), 120)
    assert job_ok(res, REFS[key]), (key, fingerprint(res), REFS[key])
    return json.loads(res.stdout)


@functools.cache
def h_table_left_cells(group: str) -> set[frozenset[int]]:
    part = KLContext(shared_engine(group)).cells("left")
    return {frozenset(w.index for w in b) for b in part.blocks}


@functools.cache
def wgraph_left_cells(group: str) -> set[frozenset[int]]:
    g = kl_wgraph(KLContext(shared_engine(group)))
    return {frozenset(verts) for _, verts in wgraph_cells(g)}


def test_references_cover_every_job_and_all_pass():
    assert set(REFS) == set(all_job_keys())
    assert all(ref["exit"] == 0 for ref in REFS.values())


def test_benchmark_json_names_the_measured_metrics():
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    layer = layer_metrics(Pass("plain"), Pass("spans"), Pass("counts"))
    assert {m["name"] for m in spec["per_layer"]} <= set(layer)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ref_cpu_s", "peak_rss_mb", "setup_s", "pass_ratio"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_wrong_exit_code_or_changed_stdout_fails_the_job():
    key = "group --group B4"
    res = run_child(cli_command(key), 60)
    ref = REFS[key]
    assert job_ok(res, ref)
    assert not job_ok(res, {**ref, "exit": 1})
    assert not job_ok(res, {**ref, "sha256": "0" * 64})
    assert not job_ok(res, None)
    killed = run_child(cli_command(key), 0.0)
    assert killed.timed_out and not job_ok(killed, ref)


@pytest.mark.parametrize("group", ["B3", "B3:2,1,1", "A4", "D4", "H3", "B4"])
def test_h_table_and_wgraph_left_cells_agree(group):
    assert h_table_left_cells(group) == wgraph_left_cells(group)


@pytest.mark.parametrize("group", ["H3", "B4"])
def test_klgraph_reference_cells_match_h_table(group):
    data = reference_stdout(f"wgraph klgraph --group {group}")
    g = wgraph_from_json(data, engine=shared_engine(group))
    assert {frozenset(v) for _, v in wgraph_cells(g)} == h_table_left_cells(group)


@pytest.mark.parametrize("group", ["D4", "B3:2,1,1"])
def test_two_sided_reference_cells_are_unions_of_left_cells(group):
    data = reference_stdout(f"cells --group {group} --kind two-sided")
    eng = shared_engine(group)
    blocks = [frozenset(b) for b in data["blocks"]]
    assert sorted(i for b in blocks for i in b) == list(range(eng.order))
    for left in wgraph_left_cells(group):
        assert any(left <= b for b in blocks)
    inverse = {w.index: w.inverse().index for w in eng.elements}
    for b in blocks:
        assert {inverse[i] for i in b} == b


def test_cellbasis_reference_passes_its_axioms():
    assert reference_stdout("cellbasis --group A4")["axioms_ok"] is True


def test_jdata_reference_duflo_set_matches_h_table():
    data = reference_stdout("jdata --group B3")
    adn = KLContext(shared_engine("B3")).lusztig_a_delta_n()
    assert data["duflo"] == sorted(d.index for d in adn.duflo)


def test_gamma_table_dimension_sum_check_is_live():
    kl = KLContext(shared_engine("B3"))
    graphs = list(b3_graphs().values())
    asymptotic.jdata_from_graphs(kl, graphs)
    with pytest.raises(ValueError, match="dimension sum"):
        asymptotic.jdata_from_graphs(kl, graphs[:-1])
