"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import GOLDEN

from coxkl import asymptotic, blocks
from coxkl.cli import COMMANDS, WGRAPH_FILE_ACTIONS, build_parser, main
from coxkl.laurent import LaurentMatrix, LaurentPoly, format_laurent, parse_laurent
from coxkl.scalars import parse_scalar
from coxkl.linalg import laurent_rank
from coxkl.fixtures import catalogue
from coxkl.kl import KLContext
from coxkl.wgraph import wgraph_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_selftest(capsys):
    code, out = run(capsys, "--selftest")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] and payload["fixtures"] >= 30


@pytest.mark.parametrize(
    "command", [["group", "--group", "A1"], ["fixtures"]], ids=" ".join
)
def test_selftest_with_a_command_is_a_usage_error(capsys, tmp_path, command):
    """`--selftest` runs alone: given a subcommand too, it exits 2 with one
    `error:` line, prints nothing and writes no `--out` file."""
    out = tmp_path / "o.json"
    assert main(["--selftest", *command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and not out.exists()
    assert captured.err == f"error: --selftest takes no command, got {command[0]}\n"


def test_group(capsys):
    code, out = run(capsys, "group", "--group", "A3")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["w0"]["length"] == 6


def test_kl_w0_column(capsys):
    code, out = run(capsys, "kl", "--group", "A3", "--pair", "w0-col")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["p_w0_column"].values()) == {"1"}


def test_kl_full_table_deterministic(capsys):
    code1, out1 = run(capsys, "kl", "--group", "A2")
    code2, out2 = run(capsys, "kl", "--group", "A2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cells(capsys):
    code, out = run(capsys, "cells", "--group", "A2", "--kind", "left")
    payload = json.loads(out)
    assert code == 0
    assert sorted(len(b) for b in payload["blocks"]) == [1, 1, 2, 2]


def test_wgraph_roundtrip(tmp_path, capsys):
    code, _ = run(capsys, "fixtures", "--out", str(tmp_path))
    assert code == 0
    chi7 = tmp_path / "b3_chi7.json"
    assert chi7.exists()
    code, out = run(capsys, "wgraph", "validate", str(chi7))
    assert code == 0
    assert json.loads(out)["valid"]
    code, out = run(capsys, "wgraph", "matrices", str(chi7))
    assert code == 0
    code, out = run(capsys, "wgraph", "dual", str(chi7))
    assert code == 0
    assert json.loads(out)["group"] == "B3"
    code, out = run(capsys, "wgraph", "cells", str(chi7))
    assert code == 0
    code, out = run(capsys, "wgraph", "omegagy", str(tmp_path / "a2_refl.json"))
    assert code == 0


def test_wgraph_validate_fails_on_broken_graph(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    path = tmp_path / "a2_refl.json"
    data = json.loads(path.read_text())
    data["edges"][0]["weight"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out = run(capsys, "wgraph", "validate", str(bad))
    assert code == 1
    assert not json.loads(out)["valid"]


def test_klgraph_and_blocks(tmp_path, capsys):
    code, out = run(capsys, "wgraph", "klgraph", "--group", "A2",
                    "--out", str(tmp_path / "a2_kl.json"))
    assert code == 0
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(
        capsys,
        "blocks",
        str(tmp_path / "b3_chi9.json"),
        str(tmp_path / "b3_chi9_conj.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["ok"]
    assert all(v["diagonal"] for v in payload["intertwiners"])


def test_labels_and_balance_and_leading(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(capsys, "labels", str(tmp_path / "b3_chi7.json"))
    assert code == 0 and json.loads(out)["agree"]
    code, out = run(capsys, "balance", str(tmp_path / "a2_refl.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["a_value"] == 1 and payload["balanced"]
    code, out = run(capsys, "leading", str(tmp_path / "a2_refl.json"))
    assert code == 0
    assert len(json.loads(out)["leading"]) == 4


def without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["vertices"][0].update(label=[0, 7]),
         "vertex 0: label [0, 7] is not a subset of S = [0, 1]"),
        (lambda d: d["edges"][0].update(to=99), "edge 0: 'to' = 99 is out of range"),
        (lambda d: d["edges"][1].update({"from": -1}),
         "edge 1: 'from' = -1 is out of range"),
        (lambda d: d["edges"][0].update(s=2), "edge 0: 's' = 2 is out of range"),
        (lambda d: d["edges"].append(dict(d["edges"][0])), "appears twice"),
        (without("edges"), "W-graph file has no 'edges'"),
        (without("vertices"), "W-graph file has no 'vertices'"),
        (without("group"), "W-graph file has no 'group'"),
        (lambda d: d["vertices"][0].__delitem__("label"),
         "vertex entry 0 has no 'label'"),
        (lambda d: [1, 2], "W-graph file is not a JSON object"),
        (lambda d: d.update(vertices=[], edges=[]), "'vertices' is empty"),
        (lambda d: d["edges"][0].update(weight="1/0"),
         "zero denominator in scalar '1/0'"),
        (lambda d: d["edges"][0].update(weight="(1/0r5)"),
         "zero denominator in scalar '1/0r5'"),
        # whitespace splits a number: not 1/23, v^10 or 10/3
        (lambda d: d["edges"][0].update(weight="1/2 3"),
         "bad Laurent polynomial '1/2 3'"),
        (lambda d: d["edges"][0].update(weight="v^1 0"),
         "bad Laurent polynomial 'v^1 0'"),
        (lambda d: d["edges"][0].update(weight="1 0/3"),
         "bad Laurent polynomial '1 0/3'"),
        (lambda d: d["edges"][0].update(weight="*v"), "bad Laurent term '*v'"),
    ],
    ids=["label", "to", "from", "s", "duplicate",
         "no-edges", "no-vertices", "no-group", "no-label", "list", "empty",
         "zero-denominator", "zero-denominator-r5", "split-denominator",
         "split-exponent", "split-numerator", "bare-star"],
)
def test_malformed_wgraph_files_are_usage_errors(tmp_path, capsys, edit, message):
    # `edit` changes the fixture in place, or returns the data to write
    run(capsys, "fixtures", "--out", str(tmp_path))
    data = json.loads((tmp_path / "a2_refl.json").read_text())
    edited = edit(data)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data if edited is None else edited))
    assert main(["wgraph", "validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert message in captured.err and "Traceback" not in captured.err


def test_jdata_cellrep_cellbasis(tmp_path, capsys):
    code, out = run(capsys, "jdata", "--group", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["duflo"] == [0, 1, 2, 5]
    # B3 has reducible left cells; J is read off the h-table all the same
    code, out = run(capsys, "jdata", "--group", "B3")
    assert code == 0
    assert len(json.loads(out)["duflo"]) == 14
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(capsys, "cellrep", str(tmp_path / "a2_refl.json"))
    assert code == 0
    assert json.loads(out)["balanced"]
    code, out = run(capsys, "cellbasis", "--group", "A2")
    assert code == 0
    assert json.loads(out)["axioms_ok"]


@pytest.mark.parametrize(
    "argv", [("cellbasis", "--group", "B2"), ("cellbasis", "--group", "I2(5)")]
)
def test_reducible_cells_are_a_verification_failure(capsys, argv):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "reducible" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "group, total, order",
    [("B2", 20, 8), ("H3", 188, 120), ("I2(5)", 18, 10)],
)
def test_cellbasis_refuses_reducible_cells(capsys, group, total, order):
    assert main(["cellbasis", "--group", group]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: a KL left cell of this group is reducible; supply explicit "
        "graphs for its constituents instead (distinct cell modules have "
        f"dimension sum {total} != |W| = {order})\n"
    )


def test_cellbasis_builds_no_gamma_table(capsys, monkeypatch, count_walks):
    """The cellular basis reads the balanced modules only: on A4 the
    gamma/n loop never runs, and W is walked 7 times, once for each
    balanced module of the 7 irreducibles."""
    tables = []
    monkeypatch.setattr(asymptotic, "gamma_n_table", tables.append)
    assert main(["cellbasis", "--group", "A4"]) == 0
    assert json.loads(capsys.readouterr().out)["axioms_ok"]
    assert not tables
    assert len(count_walks) == 7


def test_cellbasis_refuses_a_bad_schur_sum(capsys, monkeypatch):
    """A leading table whose (0, 0) entries are 0 has Schur unit 0."""
    real_balance = asymptotic.balance

    def spoiled(rep):
        rep2, data = real_balance(rep)
        leading = {
            w: [[Fraction(0), *c[0][1:]], *c[1:]] for w, c in data.leading.items()
        }
        return rep2, data._replace(leading=leading)

    monkeypatch.setattr(asymptotic, "balance", spoiled)
    assert main(["cellbasis", "--group", "A2"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: the Schur element has no term at v^-2a")


def planted(monkeypatch, plant):
    """Make `lusztig_a_delta_n` hand `plant` its result before returning it."""
    real = KLContext.lusztig_a_delta_n

    def spoiled(kl):
        adn = real(kl)
        plant(kl.engine, adn)
        return adn

    monkeypatch.setattr(KLContext, "lusztig_a_delta_n", spoiled)


def wrong_gamma(eng, adn):
    # with x != y the rotation (y, z, x) of (x, y, z) is another entry
    row = next(r for (x, y), r in adn.gamma.items() if x != y)
    z = next(iter(row))
    row[z] += 1


def wrong_n(eng, adn):
    adn.n[eng.w0] += 1


@pytest.mark.parametrize(
    "plant, message",
    [(wrong_gamma, "P7 fails"), (wrong_n, "is not the unit of J")],
    ids=["gamma", "n"],
)
def test_jdata_refuses_a_planted_error(capsys, monkeypatch, plant, message):
    planted(monkeypatch, plant)
    assert main(["jdata", "--group", "B2"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert message in captured.err and "Traceback" not in captured.err


def test_compat(capsys):
    code, out = run(capsys, "compat", "--group", "I2(5)")
    assert code == 0
    payload = json.loads(out)
    assert payload["transversal"] == ["0<->1"]


def test_usage_errors(capsys, tmp_path, fixture_dir):
    for argv, message in [
        (["wgraph", "restrict", "--subset", "9"],  # missing file
         "wgraph restrict needs a W-graph file"),
        (["wgraph", "klgraph"], "klgraph needs --group"),
        (["wgraph", "restrict", str(fixture_dir / "b3_chi7.json")],
         "restrict needs --subset"),
        # on B3 the generators 0 and 2 commute: A1 x A1 is no catalogue
        # type, so a file over it could not be read back
        (["wgraph", "restrict", str(fixture_dir / "b3_chi7.json"), "--subset", "0,2"],
         "generators [0, 2] span no shipped parabolic type"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err == f"error: {message}\n"
    code = main(["kl", "--group", "Q9"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a group is one catalogue name as written, and a weight list is never
    # empty; neither is echoed into an output
    for argv, message in [
        (["group", "--group", "A03"], "cannot parse group type 'A03'"),
        (["group", "--group", "I2(05)"], "cannot parse group type 'I2(05)'"),
        (["wgraph", "klgraph", "--group", "A03"], "cannot parse group type"),
        (["group", "--group", "A3:"], "bad weight list in 'A3:'"),
        (["group", "--group", "A3", "--weights", ""], "bad weight list in 'A3:'"),
        (["kl", "--group", "A3", "--weights="], "bad weight list in 'A3:'"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {message}")
    data = json.loads((fixture_dir / "a3_sign.json").read_text())
    data["group"] = "A03"
    (tmp_path / "a03.json").write_text(json.dumps(data))
    for action in ("validate", "dual"):
        assert main(["wgraph", action, str(tmp_path / "a03.json")]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: cannot parse group type 'A03'")
    # a negative index would silently wrap around to w0
    for pair in ("-1,5", "0,-1", "0,24", "1", "a,b"):
        assert main(["kl", "--group", "A3", f"--pair={pair}"]) == 2
        assert capsys.readouterr().err.startswith("error: bad --pair")
    with pytest.raises(SystemExit) as exc:
        main(["group"])  # missing required --group
    assert exc.value.code == 2
    for flag in (["--json"], ["--limit-h-table", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(["cells", "--group", "A2", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group", "--group", "A2", "--out", "{dir}"], "Is a directory"),
        (["balance", "{dir}"], "Is a directory"),
        (["fixtures", "--out", "{file}"], "File exists"),
    ],
    ids=["group --out", "balance", "fixtures --out"],
)
def test_os_errors_are_usage_errors(capsys, tmp_path, argv, message):
    """A path that cannot be read or written is a usage error (exit 2) with
    an `error:` line, not a traceback with the verification-failure code."""
    (tmp_path / "file").write_text("")
    paths = {"dir": tmp_path, "file": tmp_path / "file"}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_restrict_cli(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(
        capsys, "wgraph", "restrict", str(tmp_path / "b3_chi7.json"),
        "--subset", "1,2",
    )
    assert code == 0
    assert json.loads(out)["group"] == "A2"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d3c9c1b81d7becc8dcf78f8b3e069199b249e7e74b81ddf723735d138f595cc"
    )


@pytest.mark.parametrize("subset, bad", [
    ("-1", -1), ("3", 3), ("9", 9), ("0,-1", -1),
])
def test_restrict_rejects_missing_generators(capsys, fixture_dir, subset, bad):
    """B3 has generators 0..2; Python's negative indexing must not read -1
    as the last one."""
    code = main(["wgraph", "restrict", str(fixture_dir / "b3_chi7.json"),
                 "--subset", subset])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: generators [{bad}] are out of range 0..2\n"


def test_balance_refuses_a_module_that_is_not_a_hecke_module(
    capsys, fixture_dir, tmp_path
):
    data = json.loads((fixture_dir / "a2_refl.json").read_text())
    data["edges"][0]["weight"] = "2"
    bad = tmp_path / "not_hecke.json"
    bad.write_text(json.dumps(data))
    code = main(["balance", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: braid relation fails for pair (0,1)\n"


def test_balance_clears_a_residue_a_rescaling_brings_back(capsys, tmp_path):
    """B2 KL left cell 2 conjugated by diag(v^-3, v^3, v^2) is a W-graph.
    A rescaling step of the elimination brings back the residue at (0,2),
    above an earlier pivot; the step clears it and the module balances with
    the a-value of the cell, the maximal degree never growing."""
    path = tmp_path / "b2_cell2_conj.json"
    path.write_text(json.dumps({
        "group": "B2",
        "vertices": [{"id": 0, "label": [1]}, {"id": 1, "label": [0]},
                     {"id": 2, "label": [1]}],
        "edges": [
            {"s": 0, "from": 0, "to": 1, "weight": "1*v^-6"},
            {"s": 0, "from": 2, "to": 1, "weight": "1*v^-1"},
            {"s": 1, "from": 1, "to": 0, "weight": "1*v^6"},
            {"s": 1, "from": 1, "to": 2, "weight": "1*v^1"},
        ],
    }))
    assert main(["wgraph", "validate", str(path)]) == 0
    capsys.readouterr()
    code = main(["balance", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    payload = json.loads(captured.out)
    assert payload["a_value"] == 1 and payload["balanced"]
    history = payload["degree_history"]
    assert history == [28, 28, 26, 16]
    assert all(a >= b for a, b in zip(history, history[1:]))


NOT_A_WGRAPH = {
    "group": "A2",
    "vertices": [{"id": 0, "label": [0]}, {"id": 1, "label": [1]}],
    "edges": [{"s": 0, "from": 1, "to": 0, "weight": "1"}],
}


def refused_as_either_input(command, bad, good):
    """The argument lists that hand `command` the file `bad`; `blocks`
    takes it as either of its inputs."""
    if command == "blocks":
        return [[command, bad, good], [command, good, bad]]
    return [[command, bad]]


@pytest.mark.parametrize("command", ["leading", "labels", "blocks", "balance"])
def test_file_commands_refuse_a_graph_whose_braid_relation_fails(
    capsys, fixture_dir, tmp_path, command
):
    """Two A2 vertices joined by one edge satisfy the quadratic relations but
    not the braid relation; `blocks` refuses it as either of its inputs."""
    bad = str(tmp_path / "not_a_wgraph.json")
    Path(bad).write_text(json.dumps(NOT_A_WGRAPH))
    good = str(fixture_dir / "a2_refl.json")
    for argv in refused_as_either_input(command, bad, good):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err == "error: braid relation fails for pair (0,1)\n"


@pytest.mark.parametrize("command", ["leading", "labels", "blocks", "balance"])
def test_file_commands_refuse_a_graph_that_breaks_the_support_condition(
    capsys, fixture_dir, tmp_path, command
):
    """b3_chi7 with an edge 0 -> 0 for s = 0 breaks the support condition,
    on which the `labels` eigenspace multiplicities rest; every file
    command that checks its input refuses it as `wgraph validate` does."""
    data = json.loads((fixture_dir / "b3_chi7.json").read_text())
    data["edges"].append({"s": 0, "from": 0, "to": 0, "weight": "1"})
    bad = str(tmp_path / "b3_chi7_bad_support.json")
    Path(bad).write_text(json.dumps(data))
    good = str(fixture_dir / "b3_chi7.json")
    for argv in refused_as_either_input(command, bad, good):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err == (
            "error: support condition violated at s=0, edge 0->0: "
            "s must lie in I(x) minus I(y)\n"
        )


def spy_on(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_cell_modules_read_the_kl_columns(capsys, monkeypatch, fixture_dir):
    """`cellrep` and the (C3) check take T_s C_d from `KLContext.t_columns`:
    `cellrep` cuts no left-cell W-graphs and builds the matrices of its own
    module only, and `cellbasis` builds no W-graph matrices on all of W."""
    cells = spy_on(monkeypatch, asymptotic, "kl_left_cell_wgraphs")
    matrices = spy_on(monkeypatch, asymptotic, "wgraph_matrices")
    assert main(["cellrep", str(fixture_dir / "b3_chi7.json")]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "equal"
    assert not cells and len(matrices) == 1
    matrices.clear()
    assert main(["cellbasis", "--group", "A4"]) == 0
    assert json.loads(capsys.readouterr().out)["axioms_ok"]
    # the cell modules of `irreducible_cell_reps`, 26 left cells on A4
    assert len(cells) == 1 and len(matrices) == 26
    assert all(g.size < 120 for (g,) in matrices)


def test_kl_wgraph_edges_are_built_once(capsys, monkeypatch, fixture_dir):
    """Every reader of the KL W-graph edges gets one map per `KLContext`:
    `cellbasis` reads it in `kl_wgraph`, in the left and the two-sided cells
    and in the generator columns, `cellrep` in the left cells and the
    generator columns."""
    maps = []
    real = KLContext.wgraph_edges

    def spy(kl):
        maps.append(real(kl))
        return maps[-1]

    monkeypatch.setattr(KLContext, "wgraph_edges", spy)
    for argv, calls in (
        (["cellbasis", "--group", "A4"], 4),
        (["cellrep", str(fixture_dir / "b3_chi7.json")], 2),
    ):
        maps.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(maps) == calls and all(m is maps[0] for m in maps)


REPO = Path(__file__).resolve().parents[1]


def _src_env():
    path = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    return {**os.environ, "PYTHONPATH": path}


def _trace(tmp_path, mode, job):
    """Run `job` under `benchmark/tracer.py`; return the process and its
    trace."""
    out = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(REPO / "benchmark" / "tracer.py"), mode, str(out), *job],
        capture_output=True, env=_src_env(),
    )
    assert res.returncode == 0, res.stderr.decode()
    return res, json.loads(out.read_text())


@pytest.mark.parametrize("mode", ["spans", "counts"])
def test_tracer_finds_every_pinned_name(capsys, tmp_path, mode):
    """`benchmark/tracer.py` wraps its SPANS and HOT targets by module and
    name, so a moved target fails here and not first in a traced benchmark
    run; the traced job prints the bytes of the plain one."""
    job = ["kl", "--group", "A2"]
    res, _ = _trace(tmp_path, mode, job)
    assert main(job) == 0
    assert res.stdout == capsys.readouterr().out.encode()


def test_tracer_times_the_balance_layer(capsys, tmp_path):
    """The tracer wraps only modules loaded when it installs its wrappers,
    so `cli` imports `balance` at module level: a `balance` job records
    calls in both of its spans."""
    path = tmp_path / "b3_chi7.json"
    path.write_text(json.dumps(wgraph_to_json(catalogue()["b3_chi7"])))
    job = ["balance", str(path)]
    res, trace = _trace(tmp_path, "spans", job)
    for name in ("balance.gram_invariant_form", "balance.balance"):
        assert trace["spans"][name][0] >= 1, name
    assert main(job) == 0
    assert res.stdout == capsys.readouterr().out.encode()


def test_import_loads_no_dataclasses():
    """Each CLI call is a fresh process that pays for every import:
    `coxkl.cli` loads neither `dataclasses` nor the `inspect` it pulls in.
    `-S` keeps site packages out of the count."""
    code = (
        "import coxkl.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=_src_env()
    )
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "[]"


SMOKE_GROUPS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "B3:2,1,1", "I2(4):2,1",
]
SMOKE_COMMANDS = [
    ("group",), ("compat",), ("kl",), ("cells", "--kind", "left"),
    ("cells", "--kind", "two-sided"), ("wgraph", "klgraph"), ("jdata",),
    ("cellbasis",),
]


@pytest.mark.parametrize("group", SMOKE_GROUPS)
@pytest.mark.parametrize("command", SMOKE_COMMANDS, ids=" ".join)
def test_every_group_command_exits_as_documented(capsys, command, group):
    """0 with a JSON answer, or, for J only, 1 with an `error:` line or a
    failed axiom report; never a traceback."""
    code = main([*command, "--group", group])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        json.loads(captured.out)
        return
    assert command[0] in ("jdata", "cellbasis"), (code, captured.err)
    if captured.out:
        assert code == 1 and not json.loads(captured.out)["axioms_ok"]
    else:
        assert code == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "command, count", [("balance", 1), ("leading", 1), ("cellrep", 1)]
)
@pytest.mark.parametrize("fixture", ["a2_refl", "b3_chi7"])
def test_file_commands_walk_w(tmp_path, capsys, count_walks, command, count, fixture):
    """`balance` walks the balanced module once for its a-value and leading
    table, the Gram form being a sum over parabolic cosets; `leading` walks
    the module once; `cellrep` walks it once and compares characters on
    conjugacy class representatives."""
    run(capsys, "fixtures", "--out", str(tmp_path))
    count_walks.clear()
    assert main([command, str(tmp_path / f"{fixture}.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.get("balanced", True)
    assert len(count_walks) == count


def test_balance_refuses_a_module_it_cannot_balance(capsys, tmp_path):
    """b3_chi7 with one edge weight doubled is not a Hecke module: `balance`
    exits 1 with an `error:` line and prints nothing on stdout, rather than
    a report with `"balanced": false`."""
    run(capsys, "fixtures", "--out", str(tmp_path))
    path = tmp_path / "b3_chi7.json"
    data = json.loads(path.read_text())
    (hit,) = [e for e in data["edges"] if (e["s"], e["to"], e["from"]) == (0, 0, 1)]
    hit["weight"] = format_laurent(parse_laurent(hit["weight"]) * 2)
    path.write_text(json.dumps(data))
    assert main(["balance", str(path)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: braid relation fails for pair (0,1)\n"


def test_a_module_over_q_sqrt5_walks_once_per_command(
    capsys, count_walks, sqrt5_cell_files
):
    """The 4-dimensional KL left cell of I2(5) with vertex 1 scaled by phi,
    the conjugate by S = diag(1, phi, 1, 1), has edge weights phi and
    1/phi.  Its generators lie over Q(sqrt 5), and `balance` and `leading`
    walk it once each, as they walk the cell itself.  Both commands exit 0
    with the a-value of the cell, and the leading table is S^-1 c(w) S for
    the table c of the cell."""
    plain, scaled = sqrt5_cell_files["i25_cell"], sqrt5_cell_files["i25_cell_phi"]
    assert "r5" in scaled.read_text()
    out = {}
    for path in (plain, scaled):
        for command in ("balance", "leading"):
            count_walks.clear()
            assert main([command, str(path)]) == 0
            out[path, command] = json.loads(capsys.readouterr().out)
            assert len(count_walks) == 1
    assert out[scaled, "balance"]["balanced"]
    assert out[scaled, "balance"]["a_value"] == out[plain, "balance"]["a_value"] == 1
    lead, lead_phi = out[plain, "leading"], out[scaled, "leading"]
    assert lead_phi["a_value"] == lead["a_value"] == 1
    assert list(lead_phi["leading"]) == list(lead["leading"])
    s = [1, GOLDEN, 1, 1]
    for w, c in lead["leading"].items():
        c_phi = lead_phi["leading"][w]
        for i in range(4):
            for j in range(4):
                assert parse_scalar(c_phi[i][j]) == parse_scalar(c[i][j]) * s[j] / s[i]


SMOKE_FIXTURES = [
    "a1_sign", "a2_refl", "a3_refl", "a4_trivial", "b2_sign", "b3_trivial",
    "b4_sign", "d4_trivial", "h3_sign", "i23_trivial", "i24_sign",
    "i25_trivial", "i26_sign", "b3_chi7",
]
SMOKE_FILE_COMMANDS = [
    ("balance",), ("leading",), ("cellrep",), ("labels",),
    ("wgraph", "validate"), ("wgraph", "matrices"), ("wgraph", "dual"),
    ("wgraph", "cells"), ("wgraph", "omegagy"),
    ("wgraph", "restrict", "--subset", "0"),
]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("fixture", SMOKE_FIXTURES)
@pytest.mark.parametrize("command", SMOKE_FILE_COMMANDS, ids=" ".join)
def test_every_file_command_exits_as_documented(capsys, fixture_dir, command, fixture):
    """One fixture per shipped type and one B3 table graph: each run exits
    0 with a JSON answer and no traceback."""
    path = str(fixture_dir / f"{fixture}.json")
    if command[0] == "wgraph":
        argv = [*command[:2], path, *command[2:]]
    else:
        argv = [*command, path]
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 0, captured.err
    json.loads(captured.out)


BLOCKS_PAIRS = [
    *[(name, name, "isomorphic") for name in sorted(catalogue())],
    ("b3_chi9", "b3_chi9_conj", "isomorphic"),
    ("b3_chi7", "b3_chi8", "not isomorphic"),
    ("a2_refl", "b3_chi1", "two groups"),
]


@pytest.mark.parametrize("first, second, relation", BLOCKS_PAIRS)
def test_blocks_exits_as_documented(
    capsys, monkeypatch, fixture_dir, first, second, relation
):
    """Isomorphic graphs have one intertwiner and a passing certificate (exit
    0); non-isomorphic ones have none and no certificate (exit 0); graphs of
    two groups are a usage error (exit 2).  Never a traceback, and the
    intertwiner system is solved once: the certificate reads that basis."""
    solves = spy_on(monkeypatch, blocks, "intertwiner_space")
    code = main(["blocks", str(fixture_dir / f"{first}.json"),
                 str(fixture_dir / f"{second}.json")])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and len(solves) == 1
    if relation == "two groups":
        assert code == 2 and not captured.out
        assert captured.err == "error: intertwiners need a common group\n"
        return
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    if relation == "isomorphic":
        assert payload["intertwiner_count"] == 1
        assert payload["certificate"]["ok"]
    else:
        assert payload["intertwiner_count"] == 0
        assert payload["certificate"] is None


def test_blocks_reads_one_weighted_group_however_spelled(capsys, fixture_dir, tmp_path):
    """"B3" and "B3:1,1,1" name one group, so their graphs share one engine."""
    data = json.loads((fixture_dir / "b3_chi9.json").read_text())
    data["group"] = "B3:1,1,1"
    (tmp_path / "unit.json").write_text(json.dumps(data))
    code = main(["blocks", str(fixture_dir / "b3_chi9.json"), str(tmp_path / "unit.json")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    assert payload["intertwiner_count"] == 1 and payload["certificate"]["ok"]


def blocks_payload(capsys, first, second):
    code = main(["blocks", str(first), str(second)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


def test_blocks_gives_no_certificate_between_different_characters(
    capsys, kl_cell_files
):
    """B2 KL left cells 1 and 2 share the reflection constituent, so one
    intertwiner of rank 2 exists; their W-characters differ, so there is no
    isomorphism to certify."""
    cells = kl_cell_files("B2")
    code, payload = blocks_payload(capsys, cells[1], cells[2])
    assert code == 0
    assert payload["intertwiner_count"] == 1 and payload["certificate"] is None


@pytest.mark.parametrize("group, first, second, count", [
    ("B3", 10, 10, 2), ("B3", 1, 2, 2), ("I2(6)", 1, 1, 3),
])
def test_blocks_certificate_is_invertible(
    capsys, kl_cell_files, group, first, second, count
):
    """On a reducible cell module Hom has dimension above 1 and single basis
    elements can be singular; the certificate is an invertible element of
    their span."""
    cells = kl_cell_files(group)
    code, payload = blocks_payload(capsys, cells[first], cells[second])
    assert code == 0 and payload["intertwiner_count"] == count
    cert = payload["certificate"]
    assert cert["ok"] and not any(cert["residuals"].values())
    entries = [[parse_laurent(e) for e in row] for row in cert["matrix"]]
    assert laurent_rank(LaurentMatrix(len(entries), len(entries), entries)) == len(entries)


def test_blocks_fails_a_basis_element_that_is_not_constant(
    capsys, monkeypatch, fixture_dir
):
    real = blocks.intertwiner_space
    monkeypatch.setattr(
        blocks,
        "intertwiner_space",
        lambda r1, r2: [a.scale(LaurentPoly({0: 1, 1: 1})) for a in real(r1, r2)],
    )
    chi9 = fixture_dir / "b3_chi9.json"
    code, payload = blocks_payload(capsys, chi9, chi9)
    assert code == 1
    cert = payload["certificate"]
    assert not cert["ok"] and cert["residuals"] == {}
    assert cert["note"] == (
        "intertwiner basis element 0 is not constant over F: "
        "Hom_Omega (x) F(v) != Hom_H, Omega-certificate failed"
    )


def test_blocks_reports_a_nonzero_off_label_block(capsys, monkeypatch, fixture_dir):
    """A planted constant intertwiner with a residue in the block of row
    label {0,2} and column label {0}: not diagonal, but triangular, since the
    row label contains the column label.  It does not conjugate the arrow
    matrices, so the certificate fails too: exit 1."""
    planted = LaurentMatrix.from_scalar_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    monkeypatch.setattr(blocks, "intertwiner_space", lambda r1, r2: [planted])
    chi9 = fixture_dir / "b3_chi9.json"
    code, payload = blocks_payload(capsys, chi9, chi9)
    assert code == 1
    [verdict] = payload["intertwiners"]
    assert verdict["offdiag_nonzero"] == ["02,0"]
    assert not verdict["diagonal"] and verdict["triangular"]
    assert not payload["certificate"]["ok"]


def test_blocks_refuses_a_pair_that_is_not_geck_before_solving(
    capsys, monkeypatch, fixture_dir, tmp_path
):
    """b3_chi9 conjugated by diag(1, v, v^2) is a W-graph whose weights are
    not palindromic: `blocks` refuses it as either input without solving."""
    chi9 = fixture_dir / "b3_chi9.json"
    data = json.loads(chi9.read_text())
    for e in data["edges"]:
        shift = LaurentPoly({e["from"] - e["to"]: 1})
        e["weight"] = format_laurent(parse_laurent(e["weight"]) * shift)
    conj = tmp_path / "chi9_diag.json"
    conj.write_text(json.dumps(data))
    code, out = run(capsys, "wgraph", "validate", str(conj))
    assert code == 0 and not json.loads(out)["geck"]
    solves = spy_on(monkeypatch, blocks, "intertwiner_space")
    for argv in (["blocks", str(chi9), str(conj)], ["blocks", str(conj), str(chi9)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out and captured.err.count("\n") == 1
        assert captured.err.startswith("error: both inputs must be Geck graphs: weight")
    assert solves == []


@pytest.mark.parametrize(
    "action", ["validate", "matrices", "dual", "restrict", "cells", "klgraph", "omegagy"]
)
def test_wgraph_refuses_flags_its_action_does_not_read(capsys, fixture_dir, action):
    if action == "klgraph":
        argv = ["wgraph", action, "--group", "A2"]
    else:
        argv = ["wgraph", action, str(fixture_dir / "b3_chi7.json")]
    if action == "restrict":
        argv += ["--subset", "1,2"]
    flags = {"--group": "A2", "--weights": "5", "--subset": "0,1"}
    readers = {"--group": "klgraph", "--weights": "klgraph", "--subset": "restrict"}
    for flag, value in flags.items():
        if readers[flag] == action:
            continue
        code = main([*argv, flag, value])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"error: wgraph {action} does not read {flag}\n"


def test_klgraph_refuses_a_wgraph_file(capsys, tmp_path):
    """`wgraph klgraph` builds its graph from --group and reads no file; a
    file argument, even one that does not exist, is refused."""
    code = main(["wgraph", "klgraph", str(tmp_path / "nonexistent.json"),
                 "--group", "A1"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: wgraph klgraph does not read a W-graph file\n"


# The arguments of each subcommand, in order, as `coxkl <command> --help`
# lists them: option strings, and the names of positional arguments.
COMMAND_ARGUMENTS = {
    "group": ["-h", "--help", "--out", "--group", "--weights"],
    "kl": ["-h", "--help", "--out", "--group", "--weights", "--pair"],
    "cells": ["-h", "--help", "--out", "--group", "--weights", "--kind"],
    "wgraph": ["-h", "--help", "action", "file", "--subset", "--group", "--weights",
               "--out"],
    "compat": ["-h", "--help", "--out", "--group", "--weights"],
    "balance": ["-h", "--help", "file", "--out"],
    "leading": ["-h", "--help", "file", "--out"],
    "jdata": ["-h", "--help", "--out", "--group", "--weights"],
    "cellrep": ["-h", "--help", "file", "--out"],
    "cellbasis": ["-h", "--help", "--out", "--group", "--weights"],
    "blocks": ["-h", "--help", "file", "file2", "--out"],
    "labels": ["-h", "--help", "file", "--out"],
    "fixtures": ["-h", "--help", "--out"],
}


@pytest.mark.parametrize("name", [row[0] for row in COMMANDS])
def test_every_command_prints_its_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: coxkl {name} ")


def test_the_command_table_keeps_every_argument():
    """One `COMMANDS` row per subcommand, in order, each with the arguments
    it has always had; the `wgraph` actions are the file actions plus
    `klgraph`."""
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsers = sub.choices
    assert [row[0] for row in COMMANDS] == list(parsers) == list(COMMAND_ARGUMENTS)
    for name, p in parsers.items():
        arguments = [s for a in p._actions for s in (a.option_strings or [a.dest])]
        assert arguments == COMMAND_ARGUMENTS[name], name
    (action,) = [a for a in parsers["wgraph"]._actions if a.dest == "action"]
    assert sorted(action.choices) == sorted([*WGRAPH_FILE_ACTIONS, "klgraph"])


def test_restrict_names_a_bad_subset(capsys, fixture_dir):
    code = main(["wgraph", "restrict", str(fixture_dir / "b3_chi7.json"),
                 "--subset", "0,x"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (
        "error: bad --subset '0,x': invalid literal for int() with base 10: 'x'\n"
    )


@pytest.mark.parametrize("edge, failures", [
    ((0, 7, 13), ["(alpha) fails for s=0,t=1,I=[0, 2],J=[0, 2]",
                  "(beta) fails for s=0,t=2,I=[0, 2],J=[1]"]),
    ((0, 1, 4), ["(alpha) fails for s=0,t=1,I=[0],J=[0]",
                 "(gamma) fails for s=0,t=2,r=2,I=[0, 2],J=[1]"]),
    ((0, 1, 0), ["(gamma) fails for s=0,t=1,r=3,I=[0, 1],J=[]",
                 "(gamma) fails for s=0,t=2,r=2,I=[0, 2],J=[]"]),
], ids=["alpha-beta", "alpha-gamma", "gamma"])
def test_omegagy_reports_each_failed_relation(capsys, tmp_path, edge, failures):
    """The A3 KL W-graph with one edge weight doubled breaks the path-sum
    relations; the report lists every failure, in order, and exits 1."""
    path = tmp_path / "a3_kl.json"
    assert main(["wgraph", "klgraph", "--group", "A3", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    (hit,) = [e for e in data["edges"] if (e["s"], e["to"], e["from"]) == edge]
    assert hit["weight"] == "1"
    hit["weight"] = "2"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "wgraph", "omegagy", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "checked": 44, "failures": failures}


def test_omegagy_refuses_a_graph_that_breaks_the_support_condition(
    capsys, fixture_dir, tmp_path
):
    """An edge 0 -> 1 for s = 0 needs 0 in I(1) minus I(0); `omegagy`
    refuses the graph as `wgraph validate` does, with its JSON report."""
    data = json.loads((fixture_dir / "a2_refl.json").read_text())
    data["edges"].append({"s": 0, "from": 0, "to": 1, "weight": "1"})
    path = tmp_path / "a2_bad_support.json"
    path.write_text(json.dumps(data))
    msg = ("support condition violated at s=0, edge 0->1: "
           "s must lie in I(x) minus I(y)")
    code, out = run(capsys, "wgraph", "omegagy", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "checked": 0, "failures": [msg]}
    code, out = run(capsys, "wgraph", "validate", str(path))
    assert code == 1 and json.loads(out)["failures"] == [msg]


def readme_cli_lines():
    """The argument lists of the `coxkl ...` lines of the README's CLI block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [
        shlex.split(line, comments=True)
        for section in readme.split("```sh\n")[1:]
        for line in section.split("```")[0].splitlines()
    ]
    return [argv[1:] for argv in lines if argv[:1] == ["coxkl"]]


def test_readme_cli_lines_exit_0(capsys, monkeypatch, tmp_path):
    """Every documented command runs as written, from a directory holding
    the shipped fixtures."""
    monkeypatch.chdir(tmp_path)
    assert main(["fixtures", "--out", "fixtures"]) == 0
    lines = readme_cli_lines()
    assert len(lines) == 18
    for argv in lines:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
