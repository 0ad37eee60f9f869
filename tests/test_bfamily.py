"""Cover search against an independent bitmask-subset oracle, plus the
proposition battery on hand-built families."""

import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ucf
from ucf import Family, bfamily
from ucf.enumeration import EnumFilter, _dfs
from ucf.errors import BaseNotFull, EmptyFamily, InternalError, NotUnionClosed

from strategies import family_of_word, relabel, spanning_uc_families, union_closed_families

PAPER = Family.of(3, [(1, 2, 3), (1, 2), (1,), (2,), ()])


def brute_min_cover_size(fam):
    """Scan all 2^|slice| subsets of the small slice for base-achievers."""
    small = ucf.slice_by_size(fam, "lt", Fraction(fam.n, 2)).members
    target = 0
    for m in small:
        target |= m
    best = None
    for fm in range(1 << len(small)):
        acc = 0
        for i, m in enumerate(small):
            if fm >> i & 1:
                acc |= m
        if acc == target:
            size = bin(fm).count("1")
            if best is None or size < best:
                best = size
    return best


# ---------------------------------------------------------------------------
# b_report / minimum_covers
# ---------------------------------------------------------------------------

def test_b_report_paper_family():
    br = ucf.b_report(PAPER)
    assert ucf.word_elements(br.b) == (1, 2)
    assert br.cover == Family.of(3, [(1,), (2,)])
    assert br.size == 2 == brute_min_cover_size(PAPER)


def test_b_report_empty_slice():
    fam = Family.of(4, [(1, 2, 3, 4), (1, 2, 3)])
    br = ucf.b_report(fam)
    assert (br.b, br.size) == (0, 0)
    assert br.cover == Family(4, ())


def test_b_report_slice_of_just_empty_set():
    fam = Family.of(4, [(), (1, 2, 3, 4), (1, 2, 3)])
    br = ucf.b_report(fam)
    assert (br.b, br.size) == (0, 0)


def test_b_report_astar_8():
    fam = ucf.build_astar(8)
    br = ucf.b_report(fam)
    assert br.size == 1
    assert ucf.word_elements(br.b) == (1, 2, 3)
    proper = ucf.slice_by_subset(fam, "proper", br.b)
    assert len(proper) == 3  # both bound-function arguments equal ceil(n/2)-1


def test_b_report_preconditions():
    with pytest.raises(NotUnionClosed):
        ucf.b_report(Family.of(2, [(1,), (2,)]))
    with pytest.raises(BaseNotFull):
        ucf.b_report(Family.of(3, [(1, 2), (1,), (2,)]))


def test_first_minimum_cover_is_b_report_cover():
    # b_report and minimum_covers share one search; the first cover is the reported one
    fams = []
    ucf.enumerate_uc(4, visitor=fams.append)
    assert len(fams) == 4542
    for fam in fams:
        covers = ucf.minimum_covers(fam)
        assert covers[0] == ucf.b_report(fam).cover
        assert {len(c) for c in covers} == {len(covers[0])}


def test_minimum_covers_enumerates_ties():
    # two part-pairs cover {1,2,3,4}: {12}+{34} and {23}+{14}
    fam = ucf.union_closure(
        Family.of(5, [(1, 2), (3, 4), (2, 3), (1, 4), (1, 2, 3, 4, 5)])
    )
    covers = ucf.minimum_covers(fam)
    assert ucf.b_report(fam).cover == covers[0]  # lexicographically least
    assert all(len(c) == 2 for c in covers)
    assert Family.of(5, [(1, 2), (3, 4)]) in covers
    assert Family.of(5, [(2, 3), (1, 4)]) in covers
    assert all(ucf.is_irredundant(c) for c in covers)


@given(union_closed_families(max_n=5))
@settings(max_examples=80, deadline=None)
def test_b_report_against_subset_oracle(fam):
    if not ucf.base_is_full(fam):
        return
    br = ucf.b_report(fam)
    assert br.size == brute_min_cover_size(fam)
    assert br.size <= ucf.chain_report(fam).height
    assert ucf.is_irredundant(br.cover)
    acc = 0
    for m in br.cover.members:
        acc |= m
    assert acc == br.b


@st.composite
def ascending_slices(draw):
    """A ground size n = 1..64 and an ascending tuple of distinct masks over
    [n], union-closed or not, standing for a small slice."""
    n = draw(st.integers(1, 64))
    return n, tuple(sorted(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))))


@given(ascending_slices(), st.integers(0, 9))
@example((1, ()), 0)  # the empty slice
@example((3, (0,)), 0)  # the slice of just the empty set
@example((64, (1, 2, 1 << 63, 1 << 63 | 1, 1 << 63 | 2)), 2)  # bit 63; two minimum covers
@example((64, (1, 2, 1 << 63, 1 << 63 | 1, 1 << 63 | 2)), 1)  # |B| = 2 over a cap of 1
@settings(max_examples=300, deadline=None)
def test_least_cover_is_the_first_minimum_cover(drawn, cap):
    n, small = drawn
    b = 0
    for m in small:
        b |= m
    try:
        want = next(bfamily._min_covers(n, small, b, cap)).members
    except InternalError as exc:
        with pytest.raises(InternalError, match=f"^{re.escape(str(exc))}$"):
            bfamily._least_cover(small, b, cap)
    else:
        assert bfamily._least_cover(small, b, cap) == want


# ---------------------------------------------------------------------------
# k_counts
# ---------------------------------------------------------------------------

def test_k_counts_disjoint_singletons():
    assert ucf.k_counts(Family.of(2, [(1,), (2,)])).k == (2, 0)


def test_k_counts_overlapping_pairs():
    assert ucf.k_counts(Family.of(3, [(1, 2), (2, 3)])).k == (2, 1)


def test_k_counts_empty_cover_raises():
    with pytest.raises(EmptyFamily):
        ucf.k_counts(Family(3, ()))


@given(union_closed_families(max_n=5))
@settings(max_examples=60, deadline=None)
def test_k_counts_double_counting(fam):
    kc = ucf.k_counts(fam)
    assert sum(i * kc.k[i - 1] for i in range(1, len(fam) + 1)) == sum(
        m.bit_count() for m in fam.members
    )


# ---------------------------------------------------------------------------
# prop_suite
# ---------------------------------------------------------------------------

def test_prop_suite_paper_family_gates():
    # n = 3 < 4 and |b(B)| = 2 = n-1: A-C do not apply; neither do E-L gates
    props = ucf.prop_suite(PAPER)
    assert all(not props[key].applicable for key in props)


def test_prop_suite_four_singleton_cover():
    fam = Family.from_masks(4, range(1, 16))  # all nonempty subsets of [4]
    props = ucf.prop_suite(fam)
    for key in ("J", "K", "L"):
        assert props[key].applicable and props[key].holds
    for key in ("A", "B", "C", "E", "F", "G", "H", "I"):
        assert not props[key].applicable
    # the height-5 variant (adding the empty set) drops out of scope
    with_empty = Family.from_masks(4, range(16))
    assert all(not r.applicable for r in ucf.prop_suite(with_empty).values())


@pytest.mark.parametrize(
    "n, sizes, ok",
    [
        # odd n: a member of size (n-5)/2 pins the other three to (n-1)/2
        (7, [1, 3, 3, 3], True),
        (7, [1, 3, 3, 4], False),
        (9, [2, 4, 4, 4], True),
        (9, [2, 4, 4, 5], False),
    ],
)
def test_proposition_l_odd_n(n, sizes, ok):
    assert bfamily._four_cover_sizes_ok(n, sizes) is ok


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_proposition_g_never_fails(data):
    # _prop_suite's docstring proves it for any family. Member words, mostly
    # slice members (2|m| < n) so that G applies to about a quarter of them
    # at n = 5..7 (never at n = 4), read as separating at height 4.
    n = data.draw(st.integers(4, 7))
    small = [m for m in range(1 << n) if 2 * m.bit_count() < n]
    members = data.draw(st.sets(st.sampled_from(small), min_size=1, max_size=8))
    members |= data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=4))
    try:
        g = bfamily._prop_suite(Family.from_masks(n, members), 4, True)["G"]
    except InternalError:  # a slice that needs a cover of more than four members
        return
    assert g.holds is not False


def test_prop_suite_three_set_cover_with_full_base():
    fam = ucf.union_closure(
        Family.of(5, [(1, 2), (2, 3), (3, 4), (5,), (1, 2, 3, 4, 5)])
    )
    assert ucf.is_separating(fam)
    assert ucf.b_report(fam).size == 3
    assert ucf.chain_report(fam).height == 4
    props = ucf.prop_suite(fam)
    assert props["F"].applicable and props["F"].holds
    assert props["G"].applicable and props["G"].holds
    assert props["H"].applicable and props["H"].holds
    assert not props["I"].applicable  # |B| = n here


def test_prop_suite_three_set_cover_with_base_n_minus_1():
    fam = ucf.union_closure(Family.of(4, [(1,), (2,), (3,), (1, 2, 3, 4)]))
    br = ucf.b_report(fam)
    assert br.size == 3 and ucf.word_elements(br.b) == (1, 2, 3)
    props = ucf.prop_suite(fam)
    assert props["F"].applicable and props["F"].holds
    assert props["I"].applicable and props["I"].holds
    assert props["I"].witness == {"classifications": []}  # slice equals the cover
    assert not props["G"].applicable and not props["H"].applicable


def test_prop_suite_case2_boundary_family():
    # slice {12},{34},{23},{14} over base {1,2,3,4}: four members summing to
    # exactly (3n+1)/2 = 8, the tight case of proposition E
    fam = ucf.union_closure(
        Family.of(5, [(1, 2), (3, 4), (2, 3), (1, 4), (1, 2, 3, 4, 5)])
    )
    props = ucf.prop_suite(fam)
    assert props["E"].applicable and props["E"].holds
    assert not props["A"].applicable  # |b(B)| = n-1 is outside the A-C gate


def test_prop_suite_abc_on_astar():
    fam = ucf.build_astar(8)
    props = ucf.prop_suite(fam)
    for key in ("A", "B", "C"):
        assert props[key].applicable and props[key].holds
    assert all(not props[k].applicable for k in ("E", "F", "G", "H", "I", "J", "K", "L"))


def test_prop_suite_vacuous_a_with_tiny_subfamily():
    # A holds vacuously whenever fewer than two members sit properly inside B
    fam = Family.of(4, [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)])
    props = ucf.prop_suite(fam)
    assert props["A"].applicable and props["A"].holds


def test_prop_suite_preconditions():
    with pytest.raises(NotUnionClosed):
        ucf.prop_suite(Family.of(2, [(1,), (2,)]))
    with pytest.raises(BaseNotFull):
        ucf.prop_suite(Family.of(3, [(1, 2), (1,), (2,)]))


@given(spanning_uc_families(max_n=8))
@settings(max_examples=60, deadline=None)
def test_cover_size_bounded_by_height_on_wide_closures(fam):
    br = ucf.b_report(fam)
    assert br.size <= ucf.chain_report(fam).height
    assert ucf.is_irredundant(br.cover)


class _Enough(Exception):
    """Ends a DFS walk once the sample is complete."""


def _verdicts(fam):
    return {key: (r.applicable, r.holds) for key, r in ucf.prop_suite(fam).items()}


def test_prop_verdicts_survive_relabeling_with_several_minimum_covers():
    # E and G-L read the lexicographically least minimum cover, which a
    # relabeling can change when there are several. No separating height-4
    # family at n = 4 has two, so the sample is drawn at n = 5.
    sample = []

    def visit(h, have, split):
        fam = family_of_word(5, have)
        if h == 4 and ucf.is_separating(fam) and len(ucf.minimum_covers(fam)) > 1:
            sample.append(fam)
            if len(sample) == 50:
                raise _Enough

    with pytest.raises(_Enough):
        _dfs(5, visit, 4)
    moved = 0  # relabelings under which another minimum cover is read
    for fam in sample:
        expected = _verdicts(fam)
        cover = ucf.b_report(fam).cover
        for perm in itertools.permutations(range(5)):
            image = relabel(fam, perm)
            assert _verdicts(image) == expected, (fam.member_sets(), perm)
            moved += ucf.b_report(image).cover != relabel(cover, perm)
    assert moved > 0


@pytest.mark.deep
def test_prop_verdicts_independent_of_minimum_cover_n5(monkeypatch):
    # Every separating height-4 family at n = 5 with several minimum covers,
    # its propositions run once per cover: _prop_suite reads the cover
    # _least_cover returns, so the patch returns the cover under test.
    covers_of = bfamily._min_covers
    read = None
    monkeypatch.setattr(bfamily, "_least_cover", lambda *args: read.members)
    by_size = Counter()
    most = 0

    def visit(fam):
        nonlocal read, most
        covers = tuple(covers_of(5, *bfamily._small_slice(fam), 4))
        if len(covers) == 1:
            return
        by_size[len(covers[0])] += 1
        most = max(most, len(covers))
        verdicts = set()
        for read in covers:
            results = bfamily._prop_suite(fam, 4, True)
            verdicts.add(tuple((key, r.applicable, r.holds) for key, r in results.items()))
        assert len(verdicts) == 1, fam.member_sets()

    ucf.enumerate_uc(5, EnumFilter(separating=True, height=4), visit)
    assert (sum(by_size.values()), by_size, most) == (47885, {3: 30005, 2: 17880}, 30)
