"""Golden CLI digests: SHA-256 of stdout for fixed invocations.

The digests were recorded before the duplicate code paths in enumeration,
bfamily, chains, constructions and cli were merged; any refactor must keep
every report byte-identical. A digest changes only with a deliberate
change to a report, which must then be recorded in CHANGES.md.
"""

import hashlib

import pytest

from ucf import cli

PAPER_TEXT = "n=3\n{}\n1\n2\n1 2\n1 2 3\n"

GOLDEN = {
    ("analyze", "paper.family"):
        "b6f25908e6c30c927a9685487d74a12e6e83f317c9ca115dc1d68cca90448cd1",
    ("construct", "astar", "--n", "8"):
        "9bc942c19946d346ed8b00bef2275b11f074c5bbb445fa26feeddcc0608041c1",
    ("construct", "astarstar", "--n", "16"):
        "98c8c5494f45b476be08b617dfd6e8dc7a1ac53653ae73c8411c9e78645afa15",
    ("construct", "ak", "--n", "11", "--k", "12"):
        "d43e85457d589ad148bbdc65c705301f1051c51b1f818ec8ec79682564a33f65",
    ("verify", "--id", "PROPS", "--n", "4"):
        "487b556397aca30736210426341999cd5d13f470d5b089c2528a665ccd31c346",
    ("verify", "--id", "T2.1", "--n", "3", "--hypothesis-necessity"):
        "8ecf3a9afe143f09d8a7771d2ac6120850ee84a64f1b20b93c590b2d70d51105",
    ("bounds", "--n", "10", "--grid", "1/10"):
        "2c7819ae2fd9148eabadc3fec3154dc65c8e218c42424352be754e058089ea76",
    ("enumerate", "--n", "3"):
        "95c505c45dda28edaf94c9af84d1ffc1f17656e69fb5b3c7908d574e48e6ebef",
    ("enumerate", "--n", "3", "--canonical"):
        "dca809cebaa475c547d510ab673c23bf805e79949378a166e299b9f7e6bb7729",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_stdout_digest(argv, capsys, tmp_path, monkeypatch):
    # analyze echoes its path; a fixed relative name keeps the report stable
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper.family").write_text(PAPER_TEXT)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
