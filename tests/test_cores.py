"""Private analysis cores against the public functions that validate first.

The verifier and the certifier hand the cores facts they already hold (a DFS
leaf is union-closed with base [n] and known height), so the cores must
agree with the public path on every family, and the public preconditions
must not be re-derived per leaf.
"""

import hashlib
import sys

import pytest

import ucf
from ucf import PropResult, bfamily, chains, cli, core
from ucf.bfamily import PROP_KEYS, _b_report, _prop_suite, b_report, minimum_covers, prop_suite
from ucf.chains import (
    _lemma13_status,
    _size_bound_trace,
    _thm12_witness,
    chain_report,
    lemma13_check,
    size_bound_witness,
    thm12_witness,
)
from ucf.enumeration import _dfs

from strategies import family_of_word

# SHA-256 over the public results for every family at n = 4, recorded
# before the public functions were split into validation plus core.
PUBLIC_DIGEST_N4 = "bcbcedd9486b636c60706457329175765c339e3cf96721ec094f0ae352b3fcea"


def test_cores_match_public_functions_on_every_n4_family():
    leaves = []
    _dfs(4, lambda h, have, split: leaves.append((family_of_word(4, have), h)), None)
    assert len(leaves) == 4542
    inapplicable = dict.fromkeys(PROP_KEYS, PropResult(False, None))
    digest = hashlib.sha256()
    for fam, h in leaves:
        rep = chain_report(fam)
        assert chains.height(fam) == rep.height == h
        sep = ucf.is_separating(fam)
        public = [b_report(fam), prop_suite(fam)]
        assert _b_report(fam, h) == public[0]
        assert _prop_suite(fam, h, sep) == public[1]
        if not (sep and h == 4):
            assert public[1] == inapplicable
        if len(fam) > 1:
            public.append(thm12_witness(fam))
            assert _thm12_witness(fam, rep) == public[-1]
        if sep:
            public += [lemma13_check(fam), size_bound_witness(fam)]
            assert [_lemma13_status(fam), _size_bound_trace(fam)] == public[-2:]
        digest.update(repr(public).encode())
    assert digest.hexdigest() == PUBLIC_DIGEST_N4


@pytest.fixture
def calls(monkeypatch):
    """Call counters for the per-leaf derivations, patched into every ucf
    module that binds them so direct imports are counted too. The union
    test is counted at its kernel: `is_union_closed` and every
    `require_union_closed` read the verdict a family keeps."""
    counts = {}
    targets = [
        (core, "_union_test"),
        (core, "_hasse"),
        (core, "is_separating"),
        (chains, "_chain_report"),
        (bfamily, "_min_covers"),
        (bfamily, "_b_report"),
        (bfamily, "_prop_suite"),
    ]
    modules = [m for k, m in sys.modules.items() if k == "ucf" or k.startswith("ucf.")]
    for home, name in targets:
        original = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize(
    "tid, n, expected",
    [
        # the walk's gates and every conclusion read the leaf's member word
        ("T1.2", 4, {"_chain_report": 0, "_union_test": 0}),
        ("L1.3", 4, {"is_separating": 0}),
        (
            "T2.1",
            4,
            {
                "_chain_report": 0,
                "_union_test": 0,
                "is_separating": 0,
                "_min_covers": 0,
                "_b_report": 0,
            },
        ),
        ("C2.2", 4, {"_chain_report": 0, "_union_test": 0}),
        ("T4.1", 4, {"_chain_report": 0, "_union_test": 0, "_min_covers": 0, "_b_report": 0}),
        (
            "PROPS",
            4,
            {
                "_chain_report": 0,
                "_union_test": 0,
                "_prop_suite": 0,
                "_min_covers": 0,
                "_b_report": 0,
            },
        ),
        ("T2.1", 3, {"_min_covers": 0, "_b_report": 0}),
    ],
)
def test_verifier_derives_each_leaf_fact_once(calls, tid, n, expected):
    assert ucf.verify_theorem(tid, n, workers=1).ok
    assert {name: calls[name] for name in expected} == expected


def test_certificate_derives_each_fact_once(calls):
    assert ucf.astar_certificate(16)[1].ok
    # The certificate's one Hasse scan gives the union test and the height,
    # without chain_report's witness chain and minimum-maximal-chain pass;
    # Lemma 1.3 passes on a word test.
    assert (calls["_union_test"], calls["_chain_report"], calls["_hasse"]) == (1, 0, 1)


@pytest.mark.parametrize("public", [b_report, prop_suite, minimum_covers, thm12_witness])
def test_public_functions_scan_a_fresh_family_once(calls, public):
    # the union test reads the scan that gives the height or chain report
    public(ucf.build_astarstar(40, verify=False))
    assert (calls["_union_test"], calls["_hasse"]) == (1, 1)


def test_analyze_derives_each_fact_once(calls, capsys, tmp_path):
    path = tmp_path / "astarstar40.family"
    path.write_text(ucf.format_family(ucf.build_astarstar(40, verify=False)))
    assert cli.main(["analyze", str(path)]) == 0
    assert '"propositions"' in capsys.readouterr().out
    assert (calls["_union_test"], calls["_chain_report"], calls["_hasse"]) == (1, 1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "n=2\n1\n2\n",  # not union-closed
        "n=3\n1\n1 2\n",  # union-closed, base {1, 2}
        "n=3\n{}\n1 2\n1 2 3\n",  # full base, not separating
    ],
    ids=["open", "partial", "nonsep"],
)
def test_analyze_tests_union_closedness_once_on_failing_paths(calls, capsys, tmp_path, text):
    path = tmp_path / "input.family"
    path.write_text(text)
    assert cli.main(["analyze", str(path)]) == 0
    assert '"propositions"' in capsys.readouterr().out
    # each public function a section falls back on reads the family's verdict
    assert (calls["_union_test"], calls["_chain_report"], calls["_hasse"]) == (1, 1, 1)
