"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from coxkl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_selftest(capsys):
    code, out = run(capsys, "--selftest")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] and payload["fixtures"] >= 30


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


def test_jdata_cellrep_cellbasis(tmp_path, capsys):
    code, out = run(capsys, "jdata", "--group", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["duflo"] == [0, 1, 2, 5]
    # B3 routes through the shipped table graphs (reducible left cells)
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


def test_compat(capsys):
    code, out = run(capsys, "compat", "--group", "I2(5)")
    assert code == 0
    payload = json.loads(out)
    assert payload["transversal"] == ["0<->1"]


def test_usage_errors(capsys, tmp_path):
    assert main(["wgraph", "restrict", "--subset", "9"]) == 2  # missing file
    code = main(["kl", "--group", "Q9"])
    assert code == 2
    # a negative index would silently wrap around to w0
    for pair in ("-1,5", "0,-1", "0,24", "1", "a,b"):
        assert main(["kl", "--group", "A3", f"--pair={pair}"]) == 2
        assert "bad --pair" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["group"])  # missing required --group
    assert exc.value.code == 2


def test_restrict_cli(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(
        capsys, "wgraph", "restrict", str(tmp_path / "b3_chi7.json"),
        "--subset", "1,2",
    )
    assert code == 0
    assert json.loads(out)["group"] == "A2"
