"""Byte-identical CLI output: SHA-256 of stdout for fast in-process calls.

The hashes were recorded before the group engine became table-driven, and
the `cells` B3 right and I2(5) two-sided ones before cells were read off the
KL W-graph edges, and the A3 `jdata` and `cellbasis` ones before cell-module
irreducibility was read off the dimension-sum identity, and the A4
`cellbasis` and B3 `jdata` ones before the v = 1 rank certificate, the
sparse cell coordinates and the trace-only gamma sums, and the `kl` D4 and
I2(4):2,1 and `wgraph klgraph` B4, B4:2,1,1,1 and B3:1,2,2 ones before the KL
recursion ran on mu-lists; any change to them is a change of the printed
answer, not of its speed.
"""

import hashlib

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
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
