#!/usr/bin/env python3
"""Run the whole exhaustive verification battery over small ground sets.

Default covers n in 1..4 (under a second). --deep adds n=5 for every
check: each takes the orbit walk, one family per symmetry class of
co-singletons and of the sets [n] - {i, j} below them, and tests its
conclusion under every tie-break, so that one family stands for its
class. The uncapped walks (T1.2, L1.3, L2.1.1) visit 148,984
representatives of 2,747,402 families, the height-4 ones 20,016 and
T1.4's, under height cap 3, 1,420. On one core of a 2-vCPU VM (Python
3.11) --deep takes about 1.7 s wall, of which T1.2 takes about 0.6 s and
L2.1.1 about 0.5 s.
"""

import argparse
import sys

from ucf import THEOREM_IDS, verify_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deep",
        action="store_true",
        help="include the n=5 run of every check",
    )
    args = parser.parse_args()

    failures = 0
    print(f"{'check':8s} {'n':>2s} {'checked':>9s} {'violations':>10s} {'time':>8s}")
    for tid in THEOREM_IDS:
        for n in range(1, 6 if args.deep else 5):
            report = verify_theorem(tid, n)
            status = "ok" if report.ok else "FAIL"
            print(
                f"{tid:8s} {n:2d} {report.families_checked:9d} "
                f"{len(report.violations):10d} {report.elapsed:7.2f}s  {status}"
            )
            if not report.ok:
                failures += 1
                for violation in report.violations[:5]:
                    print(f"    {violation.family.member_sets()}  {violation.detail}")

    necessity = verify_theorem("T2.1", 3, hypothesis_necessity=True)
    print(
        f"\nnecessity check (T2.1 without n >= 4): "
        f"{len(necessity.violations)} counterexample(s) found at n=3"
    )
    if not necessity.ok:
        failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
