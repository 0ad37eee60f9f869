"""CLI behavior: report content, byte stability, exit codes, file round-trips."""

import json
import time

import pytest

import ucf
from ucf import cli

PAPER_TEXT = "n=3\n{}\n1\n2\n1 2\n1 2 3\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.family"
    path.write_text(PAPER_TEXT)
    return path


def test_analyze_paper_family(capsys, paper_file):
    code, out, _ = run(capsys, "analyze", str(paper_file))
    assert code == 0
    report = json.loads(out)
    results = report["results"]
    assert results["avg"] == "7/5"
    assert results["height"] == 4
    assert results["union_closed"] and results["separating"]
    assert results["b_report"] == {"B": [1, 2], "cover": [[1], [2]], "size": 2}
    assert results["frankl"]["ok"] is True
    assert results["frankl"]["threshold"] == "5/2"
    assert results["lemma13"] == {"ok": True}
    assert results["thm12"]["bound"] == "2/1"
    assert report["status"] == "ok"


def test_analyze_full_set_only(capsys, tmp_path):
    path = tmp_path / "full.family"
    path.write_text("n=4\n1 2 3 4\n")
    code, out, _ = run(capsys, "analyze", str(path))
    report = json.loads(out)
    assert code == 0
    assert report["results"]["height"] == 1
    assert report["results"]["avg"] == "4/1"


def test_analyze_non_union_closed_marks_fields_inapplicable(capsys, tmp_path):
    path = tmp_path / "open.family"
    path.write_text("n=2\n1\n2\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["union_closed"] is False
    assert results["b_report"]["applicable"] is False
    assert results["b_report"]["reason"] == "NotUnionClosed"
    assert results["thm12"]["applicable"] is False
    assert results["propositions"]["applicable"] is False


def test_analyze_header_only_family(capsys, tmp_path):
    path = tmp_path / "empty.family"
    path.write_text("n=3\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["members"] == 0
    assert results["avg"]["applicable"] is False
    assert results["height"]["applicable"] is False


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.family"
    path.write_text("n=3\n1 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_analyze_byte_stable(capsys, paper_file):
    _, first, _ = run(capsys, "analyze", str(paper_file))
    _, second, _ = run(capsys, "analyze", str(paper_file))
    assert first == second


def test_construct_astar_stdout(capsys):
    code, out, err = run(capsys, "construct", "astar", "--n", "8")
    assert code == 0
    fam = ucf.parse_family(out)
    assert fam == ucf.build_astar(8)
    cert = json.loads(err)
    assert cert["avg"] == "5/1" and cert["ok"] is True


def test_construct_astarstar_to_file(capsys, tmp_path):
    out_path = tmp_path / "fam.txt"
    code, out, _ = run(capsys, "construct", "astarstar", "--n", "10", "--out", str(out_path))
    assert code == 0
    cert = json.loads(out)
    assert cert["avg"] == "83/17"
    assert cert["closed_form"] == "83/17" and cert["closed_form_ok"] is True
    assert ucf.parse_family(out_path.read_text()) == ucf.build_astarstar(10)


def test_construct_ak_includes_empty_line(capsys):
    code, out, _ = run(capsys, "construct", "ak", "--n", "11", "--k", "12")
    assert code == 0
    assert "{}" in out.splitlines()


def test_construct_errors(capsys):
    assert run(capsys, "construct", "ak", "--n", "11")[0] == 2  # missing --k
    assert run(capsys, "construct", "astar", "--n", "3")[0] == 2  # BadN
    assert run(capsys, "construct", "astar")[0] == 2  # missing --n
    for kind in ("astar", "astarstar"):  # --k belongs to ak alone
        argv = ("construct", kind, "--n", "8", "--k", "3")
        assert run(capsys, *argv) == (2, "", f"error: construct {kind} takes no --k\n")


def test_construct_no_verify_prints_the_family_without_certificate(capsys):
    _, certified, _ = run(capsys, "construct", "ak", "--n", "11", "--k", "12")
    code, out, err = run(capsys, "construct", "ak", "--n", "11", "--k", "12", "--no-verify")
    assert (code, out, err) == (0, certified, "")


def test_verify_t21_n4(capsys):
    code, out, err = run(capsys, "verify", "--id", "T2.1", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["results"]["ok"] is True
    assert report["results"]["violations"] == []
    assert "elapsed_ms=" in err  # timing stays off the stable stdout


def test_verify_necessity_dumps_counterexamples(capsys, tmp_path):
    outdir = tmp_path / "violations"
    code, out, _ = run(
        capsys,
        "verify", "--id", "T2.1", "--n", "3", "--hypothesis-necessity",
        "--out", str(outdir),
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["mode"] == "hypothesis-necessity"
    families = [v["family"] for v in report["results"]["violations"]]
    assert [[], [1], [2], [1, 2], [1, 2, 3]] in families
    dumped = sorted(outdir.glob("*.family"))
    assert len(dumped) == 3
    parsed = [ucf.parse_family(p.read_text()) for p in dumped]
    assert ucf.Family.of(3, [(), (1,), (2,), (1, 2), (1, 2, 3)]) in parsed


def test_construct_out_to_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.family"
    code, out, err = run(capsys, "construct", "astar", "--n", "8", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_verify_out_below_a_file_exits_2(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code, out, err = run(
        capsys,
        "verify", "--id", "T2.1", "--n", "3", "--hypothesis-necessity",
        "--out", str(blocker / "sub"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_n5_requires_deep_flag(capsys):
    code, _, err = run(capsys, "verify", "--id", "T1.4", "--n", "5")
    assert code == 2
    assert "--deep" in err


def test_enumerate_n5_requires_deep_flag(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert (code, out) == (2, "")
    assert "--deep" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "0"),
        ("enumerate", "--n", "0", "--count-only", "--canonical"),
        ("verify", "--id", "T1.4", "--n", "0"),
        ("enumerate", "--n", "6", "--deep"),
    ],
    ids=" ".join,
)
def test_n_outside_the_enumeration_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs 1 <= n <= 5\n"


def test_verify_non_integer_ucf_threads_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("UCF_THREADS", "abc")
    code, out, err = run(capsys, "verify", "--id", "T1.4", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: UCF_THREADS must be an integer, got 'abc'\n"


def test_verify_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "--id", "T1.4", "--n", "3")
    _, second, _ = run(capsys, "verify", "--id", "T1.4", "--n", "3")
    assert first == second


def test_bounds_n10(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "10", "--grid", "1/100")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["zeta_equals_f"] and results["eta_equals_g"]
    assert results["f_min"] == {"value": "5/1", "at": ["4/1", "4/1"]}
    assert results["g_min"] == {"value": "11/2", "at": ["5/1", "5/1"]}
    assert results["f_claimed_opt_equals_half"] is True
    assert results["g_claimed_opt_matches"] is True
    assert results["slice_bounds"] == {"4": "23/4", "5": "307/56", "6": "169/32"}


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--count-only")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 8
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--separating", "--count-only")
    assert json.loads(out)["results"]["count"] == 6


def test_enumerate_dump_parses(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    docs = [d for d in out.split("# family")[1:]]
    assert len(docs) == 8
    for doc in docs:
        body = "\n".join(doc.splitlines()[1:])
        fam = ucf.parse_family(body)
        assert ucf.is_union_closed(fam)


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--id", "NOPE", "--n", "3")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bounds", "--n", "4", "--grid", "0")[0] == 2
    assert run(capsys, "bounds", "--n", "4", "--grid=-1/10")[0] == 2
    assert run(capsys, "bounds", "--n", "65")[0] == 2


@pytest.mark.parametrize("grid, count", [("1e-400", str(35 * 10**399 + 1)), ("1e-5000", "over 2^")])
def test_bounds_rejects_a_grid_too_fine_to_scan(capsys, grid, count):
    # an exact step of 10^-400 or 10^-5000; its ticks would never all be made
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--n", "10", "--grid", grid)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad grid step '{grid}': the grid gives {count}")
    assert err.endswith(" ticks over [1, 9/2], more than 100000\n")


def test_enumerate_canonical_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--count-only", "--canonical")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 6


def test_enumerate_canonical_dump(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--canonical")
    assert code == 0
    assert out.count("# class") == 6
