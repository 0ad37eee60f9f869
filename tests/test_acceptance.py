"""Acceptance gate: the eleven exit criteria, each at its stated (exact)
tolerance. Run with `pytest tests/test_acceptance.py -v -s` to see the
one-line verdicts; the n=5 variants of criteria 3 and 10 need --deep.

All comparisons are exact rational or integer equality; nothing here uses
floating point or tolerances.
"""

import random
from fractions import Fraction
from math import comb

import pytest

import ucf
from ucf import EnumFilter, Family

PAPER = Family.of(3, [(1, 2, 3), (1, 2), (1,), (2,), ()])


def verdict(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_paper_counterexample():
    rep = ucf.chain_report(PAPER)
    avg = ucf.avg_size(PAPER)
    assert rep.height == 4
    assert avg == Fraction(7, 5)
    assert avg < Fraction(3, 2)
    assert ucf.is_separating(PAPER) and ucf.is_union_closed(PAPER)
    assert ucf.b_report(PAPER).size == 2
    verdict(1, "n=3 family has h=4 and average 7/5 < 3/2 exactly")


def test_criterion_2_low_height_average():
    total = 0
    for n in range(1, 5):
        report = ucf.verify_theorem("T1.4", n)
        assert report.ok and not report.violations, report.violations[:3]
        total += report.families_checked
    verdict(2, f"average >= n/2 for all {total} separating families with h <= 3, n <= 4")


def test_criterion_3_main_theorem_binding_case():
    report = ucf.verify_theorem("T2.1", 4)
    assert report.ok and not report.violations, report.violations[:3]
    assert report.families_checked > 0
    verdict(3, f"average >= n/2 for all {report.families_checked} qualifying families at n=4")


@pytest.mark.deep
def test_criterion_3_deep_n5():
    report = ucf.verify_theorem("T2.1", 5)
    assert (report.families_checked, report.violations) == (255018, ())
    verdict(3, f"deep: average >= n/2 for all {report.families_checked} qualifying families at n=5")


def test_criterion_4_lemmas_and_frequency_bound():
    counts = {}
    for tid in ("L1.3", "L2.1.1", "T1.2", "C2.2"):
        counts[tid] = 0
        for n in range(1, 5):
            report = ucf.verify_theorem(tid, n)
            assert report.ok and not report.violations, (tid, n, report.violations[:3])
            counts[tid] += report.families_checked
    verdict(4, f"zero violations over n <= 4: {counts}")


def test_criterion_5_height4_construction_certificates():
    for n in range(4, 41):
        fam, cert = ucf.astar_certificate(n)
        assert cert.union_closed and cert.separating and cert.base_full
        assert cert.height == 4
        assert cert.b_size == 1
        assert cert.avg >= Fraction(n, 2)
        assert cert.lemma13_ok
    verdict(5, "height-4 construction certified for every n in 4..40")


def test_criterion_6_height5_construction_closed_forms():
    for n in range(9, 41):
        fam, cert = ucf.astarstar_certificate(n)
        assert cert.height == 5
        assert cert.b_size == 1
        assert cert.avg < Fraction(n, 2)
        if n % 2 == 0:
            expected = Fraction(n**3 + 36 * n - 32, 2 * n**2 + 4 * n + 32)
        else:
            expected = Fraction(n**3 + 3 * n**2 + 15 * n - 3, 2 * n**2 + 8 * n + 22)
        assert cert.avg == expected
    verdict(6, "height-5 construction matches its parity closed form for n in 9..40")


def test_criterion_7_height_ladder_sweep():
    built = 0
    for n in range(11, 17):
        d = ucf.delta(n)
        prev_members = None
        for k in range(5, n + 2):
            fam, cert = ucf.ak_certificate(n, k)
            assert cert.height == k
            assert cert.separating and cert.union_closed and cert.base_full
            assert cert.b_size == 1
            assert cert.avg < Fraction(n, 2)
            if k == 6 + d:
                if n % 2 == 0:
                    expected = Fraction(n**3 + 60 * n + 16, 2 * n**2 + 4 * n + 80)
                else:
                    expected = Fraction(n**3 + 3 * n**2 + 31 * n + 29, 2 * n**2 + 8 * n + 54)
                assert cert.avg == expected
            if prev_members is not None:
                assert prev_members <= set(fam.members)
            prev_members = set(fam.members)
            built += 1
    verdict(7, f"all {built} ladder families have exact height, cover size 1, avg < n/2")


def test_criterion_8_bound_function_identities():
    for n in range(4, 41):
        half = Fraction(n, 2)
        # pointwise identities over the two integer feasible regions
        for x in range(1, (n - 1) // 2 + 1):
            for y in range(1, x + 1):
                assert ucf.zeta(n, x, y) == ucf.f_relax(n, x, y)
        for x in range((n + 1) // 2, n - 1):
            for y in range(1, x + 1):
                assert ucf.eta(n, x, y) == ucf.g_relax(n, x, y)
        # claimed optima, exact
        assert ucf.f_relax(n, half - 1, half - 1) == half
        assert ucf.g_relax(n, half, half) == half + Fraction(n - 2, n + 6)
        if n % 2 == 0:
            f_int_min = min(
                ucf.f_relax(n, x, y)
                for x in range(1, (n - 1) // 2 + 1)
                for y in range(1, x + 1)
            )
            g_int_min = min(
                ucf.g_relax(n, x, y)
                for x in range((n + 1) // 2, n - 1)
                for y in range(1, x + 1)
            )
            assert f_int_min >= half
            assert g_int_min >= half + Fraction(n - 2, n + 6)
    verdict(8, "bound identities and integer-point minima hold exactly for n in 4..40")


def test_criterion_9_subset_sum_identity():
    rng = random.Random(1789)
    checks = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for _ in range(100):
                vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(n)]
                assert ucf.prop_d_check(vec, k)
                checks += 1
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert comb(n - 1, k - 1) * n == comb(n, k) * k
    verdict(9, f"subset-sum identity exact on {checks} random rational vectors plus corollary")


def _prop_l_rigidity(n: int) -> int:
    """Every enumerated h=4 family with a four-set cover has all cover
    members of size (n-2)/2 when n is even; returns how many were seen."""
    seen = 0

    def check(fam):
        nonlocal seen
        br = ucf.b_report(fam)
        if br.size != 4:
            return
        seen += 1
        assert all(2 * m.bit_count() == n - 2 for m in br.cover.members)

    ucf.enumerate_uc(n, EnumFilter(separating=True, height=4), check)
    return seen


def test_criterion_10_high_cover_results():
    for tid in ("T4.1", "PROPS"):
        report = ucf.verify_theorem(tid, 4)
        assert report.ok and not report.violations, (tid, report.violations[:3])
    rigid = _prop_l_rigidity(4)
    assert rigid >= 1
    verdict(10, f"T4.1 and propositions hold at n=4; cover rigidity on {rigid} instance(s)")


@pytest.mark.deep
def test_criterion_10_deep_n5():
    for tid, checked in (("T4.1", 505), ("PROPS", 346028)):
        report = ucf.verify_theorem(tid, 5)
        assert (report.families_checked, report.violations) == (checked, ())
    verdict(10, "deep: T4.1 and propositions hold at n=5")


def test_criterion_11_enumerator_oracle_equivalence():
    counts = {}
    for n in range(1, 5):
        oracle = set(ucf.brute_force_uc(n))
        seen = set()
        counts[n] = ucf.enumerate_uc(n, visitor=seen.add)
        assert seen == oracle
        assert counts[n] == len(oracle)
    assert counts[2] == 8
    assert ucf.enumerate_uc(2, EnumFilter(separating=True)) == 6
    verdict(11, f"enumerator equals oracle for n in 1..4 (counts {counts})")
