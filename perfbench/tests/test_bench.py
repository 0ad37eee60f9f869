"""Tests of the benchmark itself: inputs, oracles, guards and the tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ucf.cli  # noqa: F401  (loads every layer module the tracer patches)
import ucf.core
import oracle
import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]


def corpus_bytes(seed, workdir):
    corpus = workloads.make_analyze_corpus(seed, str(workdir))
    return {Path(p).name: Path(p).read_bytes() for p in corpus.files}


def test_same_seed_gives_same_corpus_bytes(tmp_path):
    first = corpus_bytes(7, tmp_path / "a")
    assert first == corpus_bytes(7, tmp_path / "b")
    assert first != corpus_bytes(8, tmp_path / "c")


def test_union_templates_respect_the_generator_cap():
    for n, count, draw in workloads.UNION_TEMPLATES + workloads.ANALYZE_TEMPLATES:
        assert len(workloads.template_generators(n, count, draw)) == count <= 8


def test_counts_from_published_moore_numbers():
    assert [oracle.uc_count(n) for n in range(1, 7)] == [2, 8, 90, 4542, 2747402, 151930948472]


@pytest.mark.parametrize("cap", [None, 4, 3])
def test_pinned_leaf_counts_match_bruteforce(cap):
    assert [oracle.leaves_bruteforce(n, cap) for n in range(1, 5)] == [
        oracle.LEAVES[cap][n] for n in range(1, 5)
    ]


def test_height2_count_matches_bruteforce():
    assert [oracle.bell(m) for m in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert [oracle.height2_count(n) for n in range(1, 5)] == [
        oracle.leaves_bruteforce(n, 2) for n in range(1, 5)
    ]


def test_oracle_rejects_corrupted_verify_report():
    op = workloads._verify_op("T1.4", 4)
    report = op.call()
    assert op.check(report) is None
    forged = type(report)(**{**report.__dict__, "families_checked": report.families_checked + 1})
    assert "expected" in op.check(forged)


def test_oracle_rejects_corrupted_analyze_report(tmp_path):
    corpus = workloads.make_analyze_corpus(3, str(tmp_path))
    path, (n, masks) = next(iter(corpus.files.items()))
    op = workloads._analyze_op(path, n, masks)
    code, text = op.call()
    assert op.check((code, text)) is None
    report = json.loads(text)
    report["results"]["height"] += 1
    assert "height" in op.check((code, json.dumps(report)))
    assert "exit code" in op.check((2, text))


def test_oracle_rejects_wrong_counts_and_bounds():
    enum = workloads.enumerate_workload()
    classes = next(op for op in enum if op.name == "enumerate:n4:canonical")
    assert classes.check((4542, 330)) is None
    assert classes.check((4542, 331)) is not None
    (bounds_op,) = workloads.bounds_workload()
    good = {"results": {
        "f_min": {"value": "5/1", "at": ["4/1", "4/1"]},
        "g_min": {"value": "11/2", "at": ["5/1", "5/1"]},
        "zeta_equals_f": True, "eta_equals_g": True, "f_min_ge_half": True,
        "g_min_ge_claimed": True, "f_claimed_opt_equals_half": True,
        "g_claimed_opt_matches": True, "slice_bounds": {"4": "23/4"},
    }}
    assert bounds_op.check((0, json.dumps(good))) is None
    good["results"]["g_min"]["at"] = ["5/1", "4/1"]
    assert "g_min" in bounds_op.check((0, json.dumps(good)))


def test_ledger_counts_a_wrong_answer_as_failed():
    op = workloads.Op("fixed", lambda: 3, workloads._count_check(4))
    ledger = worker.Ledger()
    ledger.record(worker.run_pass([op])[1], traced=False)
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_latencies_are_scaled_by_the_reference_next_to_them():
    op = workloads.Op("fixed", lambda: 4, workloads._count_check(4))
    ledger = worker.Ledger()
    slow_host = 2 * worker.REF_NOMINAL_S
    ledger.record([(op, 0.5, 4, None, slow_host), (op, 0.3, 4, None, worker.REF_NOMINAL_S)],
                  traced=False)
    assert ledger.untraced["fixed"] == pytest.approx([0.25, 0.3])
    assert ledger.raw["fixed"] == [0.5, 0.3]
    assert ledger.failures == []


def test_pass_repeats_ops_and_takes_reference_samples_around_them():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda out: None, repeat=i + 1) for i in range(3)]
    _, records = worker.run_pass(ops)
    assert [rec[0].name for rec in records] == ["op0", "op1", "op1", "op2", "op2", "op2"]
    refs = [rec[4] for rec in records]
    assert all(0 < ref < 5 for ref in refs)
    # Ops this short share the sample before the first op and the one after the last.
    assert len(set(refs)) == 1
    _, records = worker.run_pass(ops, repeat=False)
    assert [rec[0].name for rec in records] == ["op0", "op1", "op2"]


def test_guard_turns_a_timeout_and_a_memory_error_into_failed_ops(monkeypatch):
    def exhaust():
        raise MemoryError

    monkeypatch.setattr(worker, "OP_GUARD_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        ops = [
            workloads.Op("slow", lambda: time.sleep(5), lambda out: None),
            workloads.Op("hungry", exhaust, lambda out: None),
            workloads.Op("fine", lambda: 1, lambda out: None),
        ]
        start = time.perf_counter()
        _, records = worker.run_pass(ops)
        assert time.perf_counter() - start < 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    errors = [err for _, _, _, err, _ in records]
    assert "guard" in errors[0] and "MemoryError" in errors[1] and errors[2] is None


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    corpus = workloads.make_analyze_corpus(5, str(tmp_path))
    ops = [workloads._verify_op(tid, 3) for tid in workloads.THEOREM_IDS]
    ops += workloads.analyze_workload(corpus)[:12]
    original = ucf.core.union_closure
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, records = worker.run_pass(ops)
    finally:
        tracer.uninstall()
    assert all(err is None for _, _, _, err, _ in records)
    assert ucf.core.union_closure is original
    metrics = worker.layer_metrics(tracer, wall, leaves=0)
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) + metrics["harness.self_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    for layer in ("core", "chains", "bfamily", "enumeration", "cli"):
        assert metrics[f"{layer}.calls"] > 0
    assert metrics["core.union_closure.s"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = spans.Tracer()
    names = set(worker.layer_metrics(tracer, 1.0, leaves=0))
    names |= {f"enumeration.gate_pass_ratio.{tid}" for tid in workloads.THEOREM_IDS}
    names.add("trace.overhead_frac")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in names
    }


def test_tail_keeps_ten_ops_beyond_it_or_falls_back_to_the_maximum():
    assert worker.tail_latency([float(i) for i in range(1, 35)]) == ("p70", 24.0, 10)
    assert worker.tail_latency([3.0, 1.0, 2.0]) == ("max", 3.0, 0)
