"""Byte-identical CLI output: SHA-256 of stdout for fast in-process calls.

The hashes were recorded before the group engine became table-driven; any
change to them is a change of the printed answer, not of its speed.
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
    ("wgraph", "klgraph", "--group", "I2(5)"):
        "f9f75e7681247a05331049fff9dcdab0e042d4079fd4d823ce391e6764c99da0",
    ("wgraph", "klgraph", "--group", "H3"):
        "775a88bab02720549180ef47af44f1d949e61dc95e4296399a8e77fb5bc12ea4",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
