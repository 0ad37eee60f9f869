#!/usr/bin/env python3
"""Run the whole exhaustive verification battery over small ground sets.

Default covers n in 1..4 (under a second). --deep adds n=5 for the checks
whose n=5 run is short: those whose height cap prunes the walk (T1.4 at
height 3; T2.1, C2.2, T4.1 and PROPS at height 4) and the label-free ones
(T1.4, T2.1, C2.2, T4.1 and L1.3), which walk one family per symmetry
class of co-singletons and of the sets [n] - {i, j} below them; L1.3's
uncapped walk has 148,984 such representatives. On one core of a 2-vCPU
VM (Python 3.11) --deep takes about 2-2.5 s wall, of which PROPS, which
walks all 382,210 families of height at most 4, takes 0.9-1.5 s and L1.3
about 0.4 s. T1.2 (height at least 2) and L2.1.1 read labels and walk the
uncapped n=5 tree of 2,747,402 union-closed families, so they stop at n=4
here. Run once each on the same VM, they found 0 violations: T1.2
checked 2,747,401 families in 16 s and L2.1.1 2,704,780 in 10 s
(`ucf verify --id <id> --n 5 --deep`).
"""

import argparse
import sys

from ucf import THEOREM_IDS, verify_theorem
from ucf.enumeration import _CHECKS, ENUMERATION_CAP, _walk_cap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deep",
        action="store_true",
        help="include the n=5 runs of the height-capped and the label-free checks",
    )
    args = parser.parse_args()

    # The checks whose n=5 run is short: a height cap prunes the walk, or the
    # check is label-free and walks one family per symmetry class; the others
    # walk every family.
    short = {
        tid
        for tid, check in _CHECKS.items()
        if check.label_free
        or ((cap := _walk_cap(check.filt)) is not None and cap <= ENUMERATION_CAP)
    }
    failures = 0
    print(f"{'check':8s} {'n':>2s} {'checked':>9s} {'violations':>10s} {'time':>8s}")
    for tid in THEOREM_IDS:
        top = 5 if args.deep and tid in short else 4
        for n in range(1, top + 1):
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
