#!/usr/bin/env python3
"""Benchmark of ucf: run one workload in a fresh process and report it.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root. --workload is one of verify, enumerate,
analyze, bounds, or `all` for each in turn. With --trace 0 the last line
of stdout is the JSON result with the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run. The lines above it name
every metric with its unit, the sample counts and the environment. The
full record, with the SHA-256 digest of every captured report, goes to
perfbench/out/<workload>-seed<seed>-trace<t>.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

OUT = "perfbench/out"
WORKER_TIMEOUT_S = 175

# name -> unit, in the order they are printed. Op and set-up times are in
# reference seconds (see worker.py); setup_s keeps the unit name `s`. The EXTRA
# figures are printed but not in the result line: setup_clock_s, wall_s and
# reference_ms are plain clock readings that follow the shared host's
# speed, families_per_s is undefined on `bounds`, and ops_failed_frac is 0
# when the build is correct, while the result line already carries
# `failed` and `attempted`.
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "ref-s",
    "op_p50_ref_ms": "ref-ms",
    "op_tail_ref_ms": "ref-ms",
    "peak_rss_mb": "MB",
}
EXTRA = {
    "setup_clock_s": "s",
    "wall_s": "s",
    "reference_ms": "ms",
    "families_per_s": "1/s",
    "ops_failed_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "bounds.evaluations":
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Start the worker for one workload and return its record."""
    out = Path(OUT)
    out.mkdir(parents=True, exist_ok=True)
    result = out / f"{name}-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "UCF_THREADS"}
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"  # same str hashing in every run, one less source of spread
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", f"{OUT}/work/{name}", "--result", str(result),
    ]
    # subprocess.run kills and reaps the worker if it overruns.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def report(record: dict, trace: int) -> dict[str, dict]:
    """Print the readable block for one workload; return the result metrics."""
    env = record["env"]
    print(f"== {record['workload']}  seed={env['seed']}  trace={trace}")
    print(
        f"   python {env['python']}  nproc={env['nproc']}  {env['platform']}  "
        f"git={env['git_head']}  workers={env['workers']}  UCF_THREADS={env['UCF_THREADS']}"
    )
    print(
        f"   passes={record['passes']} (traced {record['traced_passes']})  "
        f"ops/pass={record['ops_per_pass']} (op latency = median of {record['passes']})  "
        f"tail={record['op_tail_percentile']} ({record['ops_beyond_tail']} ops beyond)  "
        f"attempted={record['attempted']}  failed={record['failed']}"
    )
    e2e = record["end_to_end"]
    for key, unit in END_TO_END.items():
        print(f"   {key:36s} {e2e[key]:14.6f} {unit}")
    for key, unit in EXTRA.items():
        value = record["extra"][key]
        print(f"   {key:36s} {'n/a' if value is None else f'{value:14.6f}':>14s} {unit}")
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure}")
    if trace:
        for key, value in record["per_layer"].items():
            print(f"   {key:36s} {value:14.6f} {per_layer_unit(key)}")
        return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in record["per_layer"].items()}
    return {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/ucf/__init__.py").is_file():
        sys.stderr.write("error: src/ucf not found; run from the root of a ucf checkout\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        block = report(record, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in block.items()})
        attempted += record["attempted"]
        failed += record["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
