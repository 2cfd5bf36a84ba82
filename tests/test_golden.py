"""Byte-identical CLI output: SHA-256 of stdout for fast in-process calls.

The hashes were recorded before the group engine became table-driven, and
the `cells` B3 right and I2(5) two-sided ones before cells were read off the
KL W-graph edges, and the A3 `jdata` and `cellbasis` ones before cell-module
irreducibility was read off the dimension-sum identity, and the A4
`cellbasis` and B3 `jdata` ones before the v = 1 rank certificate, the
sparse cell coordinates and the trace-only gamma sums, and the `kl` D4 and
I2(4):2,1 and `wgraph klgraph` B4, B4:2,1,1,1 and B3:1,2,2 ones before the KL
recursion ran on mu-lists; the `jdata` A4 one and the demo ones before J
was read off the h-table of the KL W-graph, and the `jdata` H3 and D4 ones
once that route held against the T-basis and leading-matrix oracles, and
the `cellbasis` A2, B3:1,2,2 and I2(4):2,1 ones before `cellbasis` stopped
building the gamma table and inverted its basis matrix on sparse rows, and
the `wgraph klgraph` and left `cells` A5 ones before P* was computed only
at critical pairs, and the `cellbasis` B3:3,1,1 and I2(3) ones and the
file-command ones before the Gram form was summed over parabolic cosets,
and the Q(sqrt 5) file-command ones before modules over that field walked W
in packed integers, and the `labels` ones before `labels` read its
eigenspace multiplicities off the support condition in place of Laurent
elimination, and the `jdata` B4, A5 and B4:4,1,1,1 and `cellbasis` A5
and B4:4,1,1,1 ones, the first answers on groups past |W| = 192, once those
J passes met Lusztig's P5, P6 and P13 and the type A ones the
Robinson-Schensted cells; any change to them is a change of the printed answer,
not of its speed.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from coxkl.cli import main

GOLDEN = {
    ("kl", "--group", "B3"):
        "53ff7f62a3fdccfc9a4558e671294c948ffde8c29088783ac88e10e35794c1b2",
    ("kl", "--group", "B3", "--weights", "2,1,1"):
        "f776695d690f4a56a4e33c0356c599897300a89dde43658eae9f93051b69d5d9",
    ("kl", "--group", "H3", "--pair", "w0-col"):
        "6db7b4c54ae4a3e7668cda6d1bde8ea0cf481efb639622e58c4662bb3aff31c6",
    ("cells", "--group", "B3:2,1,1", "--kind", "two-sided"):
        "b9b30cee743be2a78eae440fbdc3a2dce7920ace849eb2ce75274a8cc778c608",
    ("cells", "--group", "A3", "--kind", "left"):
        "b9ff2c732e6b5f114c93ceb5f14b5d6bec101ae9642b9be0e1235491992cd39b",
    ("cells", "--group", "B3", "--kind", "right"):
        "4c9bcaacb63cd063cace944a95012558c3b98c06211bbe511ee03458a45a9853",
    ("cells", "--group", "I2(5)", "--kind", "two-sided"):
        "dbf2ccc224f6806b52ffaff1bf5d6808425631d3a2f39febe3fde04f48ad6be2",
    ("wgraph", "klgraph", "--group", "I2(5)"):
        "f9f75e7681247a05331049fff9dcdab0e042d4079fd4d823ce391e6764c99da0",
    ("wgraph", "klgraph", "--group", "H3"):
        "775a88bab02720549180ef47af44f1d949e61dc95e4296399a8e77fb5bc12ea4",
    ("jdata", "--group", "A3"):
        "e7d7b8a6c72c6da9c3e2c8e40bacc1b90d07d3ea5c1e289ee20d5b1ecf55b515",
    ("cellbasis", "--group", "A3"):
        "ebd16dd1481e0db60c79bc68b76f945e41dcec1f402954145c47fd39adec53a4",
    ("cellbasis", "--group", "A4"):
        "260ffb897d020f3ebd253f705b6525e98eb2ce5cd158fd8cc6a6934fa33e1ea8",
    ("jdata", "--group", "B3"):
        "615adc953c06fa209cc07e3251aef64cf758c35a918d7f15c444996c7032e986",
    ("kl", "--group", "D4"):
        "52296f0d7b2c59144c956a28fb4fbf7d69ac33254bcb9c024a8b8629932d3478",
    ("kl", "--group", "I2(4)", "--weights", "2,1"):
        "24518760459cb9577cae5b7f4068f24ad80ada5b7e61cc61eb7aa1c29fb286fc",
    ("wgraph", "klgraph", "--group", "B4"):
        "e12a6f296f1339d1f53cf1d773bca60da3c0621ff5ef89cb642c70385d3da992",
    ("wgraph", "klgraph", "--group", "B4", "--weights", "2,1,1,1"):
        "3f92ef7dfee49e5079d947d519ace9475554cada5d1d9bfcfaae30781d6c5557",
    ("wgraph", "klgraph", "--group", "B3", "--weights", "1,2,2"):
        "c3661fc71809e13505d43a743b616324ef6ce1ea689637c549ea99b199db5bc5",
    ("jdata", "--group", "A4"):
        "083426ab0505afd8dcfaca703b96b02000cd148318dda46fb00a96ad993c2c6d",
    ("jdata", "--group", "H3"):
        "925c7c0f9a12ebfd74dbb8a22aff0100d5f2847721006c2949c44a77a5ca0f53",
    ("jdata", "--group", "D4"):
        "b005ad414683cb43eca779cfd074b8151e3e8c4efc38d10e3fb77bd32aaaabb9",
    ("cellbasis", "--group", "A2"):
        "6ee3cd876c9a45442e32167217c33ad910ec0bb9903b0d2eb101ad8b22af70a9",
    ("cellbasis", "--group", "B3:1,2,2"):
        "e9b487e7bed5cbdfee58195a4127c4810dbdb272bf6f08412dce8fcda5c5760d",
    ("cellbasis", "--group", "I2(4):2,1"):
        "d3570ee7d495010b79121bba0fda4cb8372b54f934524f177cc8eb217f210c11",
    ("wgraph", "klgraph", "--group", "A5"):
        "729ea0c1f0b8aa63cdb4247e51043b07c5191fcc98da09bba10d15d34c144488",
    ("cells", "--group", "A5", "--kind", "left"):
        "956a278cdd4bccc48366f2984e61a1b94edb88e09e87c476b2680c13e5c8d25f",
    ("cellbasis", "--group", "B3:3,1,1"):
        "fb2fe44b9994dd5e3a7a445e55cc7b0e22de59f09ef91af9fbc38532ace4e643",
    ("cellbasis", "--group", "I2(3)"):
        "6ee3cd876c9a45442e32167217c33ad910ec0bb9903b0d2eb101ad8b22af70a9",
    ("cellbasis", "--group", "A5"):
        "b684df0222a9654bb6c6e67c63e7ba7ff9bb01b85a851720796ae699450b0efe",
    ("cellbasis", "--group", "B4:4,1,1,1"):
        "e599ea5e3712cafd3426c071b51753617ac63f76ac6f08f61aaf35f0f4ed5340",
}

#: file commands on catalogue graphs, keyed by (command, file name)
FILE_GOLDEN = {
    ("balance", "a3_ext2"):
        "75c958cb125d107464b303b0857fe736c1af4f17cf0521f5277c1e7ec8338e52",
    ("leading", "a3_refl"):
        "c9cca426ac93dbbf435a4d9a49ceb41537e6468af23044bfc1be602bf229f325",
    ("cellrep", "a3_refl"):
        "09db7dffd23cceb9d7f51d2ac779598162404613d59ce4ec50735855f3019354",
    # over Q(sqrt 5): the files of the `sqrt5_cell_files` fixture
    ("balance", "i25_cell_phi"):
        "cbcaf0e4dae8236b5266cbbdf84745763ec3b91c0587c913b54b62ac04a36242",
    ("leading", "i25_cell_phi"):
        "1ed65b725b560a2ec57bd8e31bf8e49ccbc47fc4231f66ae875acc3124470d22",
    ("cellrep", "i25_cell_phi"):
        "09db7dffd23cceb9d7f51d2ac779598162404613d59ce4ec50735855f3019354",
    ("balance", "i25_cell_phi_2r5"):
        "f61c25ad0202705b7e6228c764c53919a74c74c61b33d8588fc623581d9813c3",
    ("leading", "i25_cell_phi_2r5"):
        "54e76695da3d2c0e9f4847c3acfaa057a5a62b0fe60ecfd5d5bbfe7b9ab2ae04",
    ("cellrep", "i25_cell_phi_2r5"):
        "09db7dffd23cceb9d7f51d2ac779598162404613d59ce4ec50735855f3019354",
    ("labels", "i25_cell_phi_2r5"):
        "f5aa32403626167e45d6b97cc5ab0b7e6fdf1e9dec1243ae944e9999fab5f4c7",
    # the largest KL left cells, by index in `kl_cell_files`: D4 (dimension
    # 14) and A5 (dimension 16)
    ("labels", "D4 left cell 15"):
        "e5badb4d2b18b818799faef7b37a66005e968e7eed5184b229ebc2d24165416e",
    ("labels", "A5 left cell 29"):
        "3e37e187a135b5ac7e805d6d72a727a0b6992ccc6a8201bdc1b4dfa2c04a0a27",
}

#: `jdata` past |W| = 192, read off the `jdata_run` fixture, whose J pass the
#: oracles of `test_asymptotic` share
JDATA_GOLDEN = {
    "B4": "58f133e1aab1d948b47cb8531484bee585f81584508ae46d485d382daa2612c1",
    "A5": "d06ff3b09ece7efafa013fa5085e5de86646e3c6a70a951be1b23aaf385092d8",
    "B4:4,1,1,1":
        "2398d074875018ceef306a626e23353c86e6509faf9fa27880b5950dd009ccc4",
}

DEMOS = {
    "kl_tour.py":
        "5aa5a7a83e8f383efb4d15f8be2cebba79c5eef6e63dad7c4e081322d96ef63c",
    "blocks_tour.py":
        "379a4bf89d21f86701951096d6a01103509b081d559fbf60489702d89574fd16",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize(
    "command, name", list(FILE_GOLDEN), ids=[" ".join(key) for key in FILE_GOLDEN]
)
def test_file_command_output_is_byte_identical(
    capsys, tmp_path, kl_cell_files, sqrt5_cell_files, command, name
):
    path = sqrt5_cell_files.get(name)
    group, cell, index = name.partition(" left cell ")
    if cell:
        path = kl_cell_files(group)[int(index)]
    elif path is None:
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / f"{name}.json"
    assert main([command, str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FILE_GOLDEN[command, name]


@pytest.mark.parametrize("group", list(JDATA_GOLDEN))
def test_jdata_past_192_is_byte_identical(jdata_run, group):
    text, _, _ = jdata_run(group)
    assert hashlib.sha256(text.encode()).hexdigest() == JDATA_GOLDEN[group]


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo_output_is_byte_identical(capsys, demo):
    path = Path(__file__).resolve().parent.parent / "demos" / demo
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMOS[demo]


def test_benchmark_jobs_match_their_references(capsys, tmp_path):
    """Each key is the CLI arguments joined by spaces, `@name` standing for
    the catalogue file name.json."""
    repo = Path(__file__).resolve().parent.parent
    refs = json.loads((repo / "benchmark" / "references.json").read_text())["jobs"]
    assert main(["fixtures", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    mismatched = []
    for key, ref in sorted(refs.items()):
        argv = [str(tmp_path / f"{t[1:]}.json") if t.startswith("@") else t
                for t in key.split()]
        code = main(argv)
        out = capsys.readouterr().out.encode()
        if (code, hashlib.sha256(out).hexdigest()) != (ref["exit"], ref["sha256"]):
            mismatched.append(key)
    assert len(refs) == 82 and not mismatched
