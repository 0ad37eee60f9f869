"""One workload in one fresh process: guards, set-up, timed passes, result file.

Started by run.py, never imported. The process holds one thread and runs
one operation at a time (a closed loop: each call starts when the
previous one returns). It writes its whole record as JSON to --result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads
from reference import reference_loop
from spans import LAYERS, Tracer

# Address-space cap and per-operation alarm: a blow-up becomes a failed,
# reported operation instead of a hung or killed harness.
ADDRESS_SPACE_BYTES = 2 << 30
OP_GUARD_S = 100
# Set-ups before the first pass; one more follows every untraced pass, so
# the median of setup_s spans the run instead of one second of it.
SETUP_REPEATS = 5

# The reference loop (reference.py) is timed between ops, and every op's
# latency is divided by the reference time measured around it. On a shared
# VM other tenants slow this process by up to 2.5x, in phases of seconds to
# minutes, and the phases reach the loop and the ops alike; the ratio does
# not see most of them. Latencies are then scaled to seconds on a host
# where the loop takes REF_NOMINAL_S ("reference seconds"). A reference
# sample is taken before the first op of a pass, after any op that ends
# REF_EVERY_S or more of op time since the last sample, and after the last
# op. An op's reference is the median of the pass's samples that start
# within REF_WINDOW_S of it, and never fewer than the samples just before
# and just after it.
REF_NOMINAL_S = 0.020
REF_EVERY_S = 0.2
REF_WINDOW_S = 1.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ucf; "
    "print(repr(time.perf_counter() - t))"
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def install_guards() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(hard, limit)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)


def set_up(name: str, seed: int, workdir: str):
    """One set-up: a fresh interpreter's `import ucf`, plus corpus generation
    and writing the input files. Returns (seconds, seconds of the reference
    loop, the mean of a sample just before and one just after, corpus)."""
    before = reference_loop()
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, check=True, timeout=60,
    )
    import_s = float(probe.stdout.strip())
    start = time.perf_counter()
    corpus = workloads.prepare(name, seed, workdir)
    seconds = import_s + time.perf_counter() - start
    return seconds, (before + reference_loop()) / 2, corpus


def run_pass(ops, repeat: bool = True) -> tuple[float, list]:
    """Run every op in order, `op.repeat` times in a row (once if not
    `repeat`), with reference samples between ops.

    Returns (wall seconds without the reference samples, records); a record
    is (op, seconds, output, error, reference seconds around the op), one
    per run of an op.
    """
    records = []
    marks = []  # per op run: (start, end, index of the first reference sample after it)
    clock = time.perf_counter
    refs = [(clock(), reference_loop())]  # (start, seconds)
    since_ref = ref_time = 0.0
    start = clock()
    for op in (op for op in ops for _ in range(op.repeat if repeat else 1)):
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, OP_GUARD_S)
        try:
            out, err = op.call(), None
        except OpTimeout:
            out, err = None, f"exceeded the {OP_GUARD_S} s guard"
        except MemoryError:
            out, err = None, "MemoryError under the address-space cap"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = clock()
        records.append((op, t1 - t0, out, err))
        marks.append((t0, t1, len(refs)))
        since_ref += t1 - t0
        if since_ref >= REF_EVERY_S:
            refs.append((clock(), reference_loop()))
            ref_time += refs[-1][1]
            since_ref = 0.0
    wall = clock() - start - ref_time
    if not marks or marks[-1][2] == len(refs):
        refs.append((clock(), reference_loop()))

    def around(t0: float, t1: float, after: int) -> float:
        near = {i for i, (t, _) in enumerate(refs) if t0 - REF_WINDOW_S <= t <= t1 + REF_WINDOW_S}
        return statistics.median(refs[i][1] for i in near | {after - 1, after})

    return wall, [(*rec, around(*mark)) for rec, mark in zip(records, marks)]


class Ledger:
    """Checks every op output against its oracle and keeps the counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        # op name -> latencies in reference seconds, of untraced and traced
        # passes apart; `raw` holds the untraced ones in plain seconds.
        self.untraced: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.refs: list[float] = []
        self.checked: dict[str, int] = {}

    def record(self, records, traced: bool) -> None:
        by_op = self.traced if traced else self.untraced
        for op, seconds, out, err, ref in records:
            self.attempted += 1
            by_op.setdefault(op.name, []).append(seconds * REF_NOMINAL_S / ref)
            if not traced:
                self.raw.setdefault(op.name, []).append(seconds)
                self.refs.append(ref)
            if err is None:
                err = op.check(out)
            if err is None and op.digest is not None:
                digest = op.digest(out)
                if self.digests.setdefault(op.name, digest) != digest:
                    err = "report differs from the first pass"
            if err is None and traced and op.check_id is not None:
                self.checked[op.check_id] = self.checked.get(op.check_id, 0) + out.families_checked
            if err is not None:
                self.failures.append(f"{op.name}: {err}")


def median_latencies(by_op: dict[str, list[float]]) -> list[float]:
    """Each op's latency as the median of its samples over the run's passes."""
    return [statistics.median(samples) for samples in by_op.values()]


def tail_latency(latencies: list[float]) -> tuple[str, float, int]:
    """Highest whole percentile (nearest rank) with at least 10 values beyond
    it, or the maximum when there are too few values for any; returns
    (label, value, values beyond)."""
    ordered = sorted(latencies)
    count = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * count / 100)
        if count - rank >= 10:
            return f"p{p}", ordered[rank - 1], count - rank
    return "max", ordered[-1], 0


def layer_metrics(tracer: Tracer, wall: float, leaves: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass. `leaves` counts only where the
    enumeration layer ran (verify, enumerate)."""
    stats = tracer.stats
    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = totals[layer]
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = calls

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def us_per_call(key):
        n, total, _ = stats.get(key, [0, 0.0, 0.0])
        return total / n * 1e6 if n else 0.0

    enum_self = totals["enumeration"][1]
    out["enumeration.leaves_per_s"] = leaves / enum_self if leaves and enum_self else 0.0
    out["chains.chain_report.calls"] = calls("chains.chain_report")
    out["chains.chain_report.us_per_call"] = us_per_call("chains.chain_report")
    out["core.require_union_closed.calls"] = calls("core.require_union_closed")
    out["core.is_separating.calls"] = calls("core.is_separating")
    out["core.Family.calls"] = calls("core.Family")
    out["bfamily.b_report.calls"] = calls("bfamily.b_report")
    out["bfamily.prop_suite.us_per_call"] = us_per_call("bfamily.prop_suite")
    out["core.union_closure.s"] = stats.get("core.union_closure", [0, 0.0, 0.0])[1]
    out["bounds.evaluations"] = sum(
        calls(f"bounds.{fn}") for fn in ("f_relax", "g_relax", "zeta", "eta")
    )
    out["harness.self_s"] = wall - tracer.top_level_s()
    out["trace.wall_s"] = wall
    return out


def environment(seed: int) -> dict:
    head = None
    if os.path.isdir(".git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        head = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_head": head,
        "seed": seed,
        "workers": 1,
        "threads": 1,
        "UCF_THREADS": os.environ.get("UCF_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    install_guards()
    setup_samples = []  # (seconds, reference seconds around them)
    for _ in range(SETUP_REPEATS):
        seconds, ref, corpus = set_up(args.workload, args.seed, args.workdir)
        setup_samples.append((seconds, ref))
    import ucf.cli  # noqa: F401  (ops resolve ucf modules through sys.modules)

    ops = workloads.build(args.workload, corpus)
    families = sum(op.families for op in ops)
    ledger = Ledger()
    walls: list[float] = []
    traced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    tracer = Tracer() if args.trace else None

    began = time.perf_counter()
    while True:
        wall, records = run_pass(ops)
        walls.append(wall)
        ledger.record(records, traced=False)
        setup_samples.append(set_up(args.workload, args.seed, args.workdir)[:2])
        step = wall
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                twall, trecords = run_pass(ops, repeat=False)
            finally:
                tracer.uninstall()
            traced_walls.append(twall)
            traced.append(layer_metrics(tracer, twall, families))
            ledger.record(trecords, traced=True)
            step += twall
        if time.perf_counter() - began + step > args.seconds:
            break

    latencies = median_latencies(ledger.untraced)
    wall_ref_s = sum(latencies)
    tail_label, tail_s, beyond = tail_latency(latencies)
    raw_wall_s = sum(median_latencies(ledger.raw))
    end_to_end = {
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup_samples),
        "wall_ref_s": wall_ref_s,
        "op_p50_ref_ms": statistics.median(latencies) * 1000,
        "op_tail_ref_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_clock_s": statistics.median(t for t, _ in setup_samples),
        "wall_s": raw_wall_s,
        "reference_ms": statistics.median(ledger.refs) * 1000,
        "families_per_s": families / raw_wall_s if families else None,
        "ops_failed_frac": len(ledger.failures) / ledger.attempted,
    }
    per_layer = {}
    if traced:
        per_layer = {key: statistics.fmean(t[key] for t in traced) for key in traced[0]}
        for tid in workloads.THEOREM_IDS:
            seen = sum(op.families for op in ops if op.check_id == tid)
            checked = ledger.checked.get(tid, 0) / len(traced_walls)
            per_layer[f"enumeration.gate_pass_ratio.{tid}"] = checked / seen if seen else 0.0
        per_layer["trace.overhead_frac"] = sum(median_latencies(ledger.traced)) / wall_ref_s - 1

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "seconds": args.seconds,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "pass_walls_s": walls,
        "traced_walls_s": traced_walls,
        "ops_per_pass": len(ops),
        "families_per_pass": families,
        "setup_samples_s": [t for t, _ in setup_samples],
        "setup_references_s": [ref for _, ref in setup_samples],
        "op_tail_percentile": tail_label,
        "ops_beyond_tail": beyond,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures[:50],
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "digests": ledger.digests,
        "op_samples_s": ledger.raw,
        "op_samples_ref_s": ledger.untraced,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
