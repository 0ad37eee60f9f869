"""Golden CLI digests: SHA-256 of stdout for fixed invocations.

The first nine digests were recorded before the duplicate code paths in
enumeration, bfamily, chains, constructions and cli were merged, the
`analyze` ones after them before `ucf analyze` derived each fact once, the
off-grid `bounds` ones before the minimizers scanned y's endpoints only, the
n=4 `--canonical` ones before `canonical_form` read cached lane words, the
n=64 astarstar ones before the Hasse scan and the column counts read
transposed member words, the failing astarstar40-gap one before the union
test read the cover relation; any refactor must keep every report
byte-identical. A digest changes only with a deliberate change to a report,
which must then be recorded in CHANGES.md.
"""

import hashlib

import pytest

from ucf import Family, build_astar, build_astarstar, cli, format_family

PAPER_TEXT = "n=3\n{}\n1\n2\n1 2\n1 2 3\n"
ASTARSTAR40 = build_astarstar(40)
GAP = (1 << 19) - 2  # [p] - {1}, p = 19, a (p-1)-subset of the prefix

# Family files for `ucf analyze`, one per path through its sections: each
# section either has the facts its analysis assumes or reports the reason
# the public function gives for the first one missing.
ANALYZE_FILES = {
    "paper.family": PAPER_TEXT,
    "open.family": "n=2\n1\n2\n",  # not union-closed
    "partial.family": "n=3\n1\n1 2\n",  # union-closed, base {1, 2}
    "nonsep.family": "n=3\n{}\n1 2\n1 2 3\n",  # full base, 1 and 2 never split
    "empty.family": "n=3\n",  # header only
    "full.family": "n=4\n1 2 3 4\n",  # the single member [n]
    "astar8.family": format_family(build_astar(8)),  # height 4, A-C applicable
    "astarstar40.family": format_family(ASTARSTAR40),  # 212 members, height 5
    # 211 members, not union-closed: two (p-2)-subsets unite to the gap
    "astarstar40-gap.family": format_family(
        Family(40, tuple(m for m in ASTARSTAR40.members if m != GAP))
    ),
    "astarstar64.family": format_family(build_astarstar(64)),  # 530 members, bit 63 in use
}

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
    # the 330 classes at n=4, recorded before canonical_form read lane words
    ("enumerate", "--n", "4", "--canonical"):
        "23bcfea6fab4e686843be85ee8a1fec25091f202c496d66d2cd384cef32713d2",
    ("enumerate", "--n", "4", "--count-only", "--canonical"):
        "ff91ac932ee239c31147bec7b2290ce5a87f02f89662914248e5a45a1ffd24bb",
    ("analyze", "open.family"):
        "8290392fad7c66b1b24d4b3a6d000339e6670c5c464e8203bec3c7da3576ea4c",
    ("analyze", "partial.family"):
        "6abc8736b05be335bf39afe5a9734dc8268e18732f0193514721e1ff4b123f90",
    ("analyze", "nonsep.family"):
        "f2961ce8d6eb85b1956ba5172be88686db750adb4c5f29aef5549b5d56478bc0",
    ("analyze", "empty.family"):
        "6fd232042c5c9948f522a5cc60a466dddc34795005ca8eb859681ee5943730f3",
    ("analyze", "full.family"):
        "3c6221fd50f639ce1b679dc2f8f8489a90fa98d71853a03d16879e3fc0256e02",
    ("analyze", "astar8.family"):
        "f9d10f19b884de33116256ddf0a88a9f636ddc954baf4d47661ece20759c69f9",
    ("analyze", "astarstar40.family"):
        "7048400bf184f0b33bc217b1070668b4091f5b312fb13dfdedc322f9a7fa0e2f",
    # each section's reason on a large failing family, recorded on the pair loop
    ("analyze", "astarstar40-gap.family"):
        "c4689817bd19fc6d832a63cedbec3b4af6286f5ebdf7a0b41980362d2cc5ac24",
    # the word-capacity edge, recorded before the column kernels
    ("construct", "astarstar", "--n", "64"):
        "0bd7acc88506a176d8f6850a05aebb850698e0e7910ebb95ab294dea72d276ae",
    ("analyze", "astarstar64.family"):
        "45cc9340077302c90e557ea6ac5a1c809e5e4b97775aa6bd41f22d5cd1ebc307",
    # the f vertex 7/2 is off the grid and the ticks 10/3, 11/3 tie on value
    ("bounds", "--n", "9", "--grid", "1/3"):
        "afaa93cbb201d276a9026fbcd663455b35e064249b549326f23dc8cfd5814971",
    # only the integer points reach the f vertex 5
    ("bounds", "--n", "12", "--grid", "3/7"):
        "5df3b3058ba4e3df558174b45f96c0ff23bb1a14fd3db25745346bc7960cf364",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_stdout_digest(argv, capsys, tmp_path, monkeypatch):
    # analyze echoes its path; a fixed relative name keeps the report stable
    monkeypatch.chdir(tmp_path)
    for name, text in ANALYZE_FILES.items():
        (tmp_path / name).write_text(text)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
