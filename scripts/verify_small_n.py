#!/usr/bin/env python3
"""Run the whole exhaustive verification battery over small ground sets.

Default covers n in 1..4 (under a second). --deep adds n=5 for the checks
whose height cap prunes the n=5 walk (T1.4 at height 3; T2.1, C2.2, T4.1
and PROPS at height 4; about 6 s in all on one core of a 2-vCPU VM, Python
3.11). T1.2 (height at least 2), L1.3 and L2.1.1 walk all 2,747,402
union-closed families at n=5, so they stop at n=4 here. Run once each on
one core (Python 3.11, 2-vCPU VM), they found 0 violations: T1.2 checked
2,747,401 families in 21 s, L1.3 2,704,780 in 8 s and L2.1.1 2,704,780 in
15 s (`ucf verify --id <id> --n 5 --deep`).
"""

import argparse
import sys

from ucf import THEOREM_IDS, verify_theorem
from ucf.enumeration import _CHECKS, ENUMERATION_CAP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deep", action="store_true", help="include the n=5 runs of the height-capped checks"
    )
    parser.add_argument("--workers", type=int, default=None, help="parallel workers")
    args = parser.parse_args()

    # The checks whose height cap prunes the n=5 walk; the others walk every family.
    capped = {
        tid
        for tid, check in _CHECKS.items()
        if (rng := check.filt.height_range()) and rng[1] <= ENUMERATION_CAP
    }
    failures = 0
    print(f"{'check':8s} {'n':>2s} {'checked':>9s} {'violations':>10s} {'time':>8s}")
    for tid in THEOREM_IDS:
        top = 5 if args.deep and tid in capped else 4
        for n in range(1, top + 1):
            report = verify_theorem(tid, n, workers=args.workers)
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
