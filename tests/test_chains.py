"""Chain analytics against brute-force chain enumeration oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import ucf
from ucf import Family
from ucf.chains import _lemma13_status
from ucf.core import _hasse
from ucf.errors import (
    BaseNotFull,
    DegenerateHeight,
    InternalError,
    NotSeparating,
    NotUnionClosed,
    TooSmall,
)

from strategies import (
    families,
    family_of_word,
    nested_families,
    separating_uc_families,
    spanning_uc_families,
    wide_spanning_uc_families,
)

PAPER = Family.of(3, [(1, 2, 3), (1, 2), (1,), (2,), ()])


def is_proper_subset(a, b):
    return a | b == b and a != b


def comparable(a, b):
    return a | b in (a, b)


def brute_height(fam):
    """Longest chain by exhaustive extension."""
    ms = fam.members

    def grow(top, size):
        best = size
        for m in ms:
            if is_proper_subset(top, m):
                best = max(best, grow(m, size + 1))
        return best

    return max(grow(m, 1) for m in ms)


def downward_maximal_chains(fam):
    """Every maximal chain, top-down: extend each top through any member below
    until nothing lies below, then keep the chains no member can join."""
    ms = fam.members
    ends = []

    def grow(chain):
        below = [m for m in ms if is_proper_subset(m, chain[-1])]
        if not below:
            ends.append(tuple(chain))
        for m in below:
            grow(chain + [m])

    for top in ms:
        grow([top])
    return [
        c for c in ends
        if not any(m not in c and all(comparable(m, x) for x in c) for m in ms)
    ]


def reference_hasse(ms):
    """_hasse's oracle: the pairwise scan.

    Members ascend by value and a proper subset has a smaller value, so j
    runs from i - 1 down to 0: a subset of ms[i] is a child unless it lies
    under a child already found, and `under` holds exactly those indices.
    """
    down, kids, below = [], [], []  # below[i]: bitset of i and every index under it
    for i, m in enumerate(ms):
        under = 0
        ks = []
        d = 0
        for j in range(i - 1, -1, -1):
            if ms[j] | m == m and not under >> j & 1:
                ks.append(j)
                under |= below[j]
                d = max(d, down[j])
        down.append(d + 1)
        kids.append(ks)
        below.append(under | 1 << i)
    return down, kids


def reference_lemma13(fam):
    """_lemma13_status's oracle, read off the Hasse scan alone: the least
    child of [n] whose size is not n - 1, then the least child down."""
    ms = fam.members
    _, kids = reference_hasse(ms)
    for cur in reversed(kids[-1]):
        if ms[cur].bit_count() != fam.n - 1:
            chain = [ms[-1], ms[cur]]
            while kids[cur]:
                cur = kids[cur][-1]
                chain.append(ms[cur])
            return False, tuple(chain)
    return True, None


@given(nested_families(max_n=64))
@example(Family(64, ()))
@example(Family(64, (1 << 63, 1 << 63 | 1, (1 << 64) - 1)))
@settings(max_examples=300, deadline=None)
def test_hasse_matches_pairwise_scan(fam):
    assert _hasse(fam.members) == reference_hasse(fam.members)


@given(wide_spanning_uc_families(max_n=64))
@example(Family.of(4, [(1,), (1, 2, 3, 4)]))
@example(Family.of(1, [(1,)]))
@settings(max_examples=300, deadline=None)
def test_lemma13_status_matches_hasse_reference(fam):
    rep = _lemma13_status(fam)
    assert (rep.ok, rep.offending_chain) == reference_lemma13(fam)


# ---------------------------------------------------------------------------
# chain_report
# ---------------------------------------------------------------------------

def test_height_paper_family():
    rep = ucf.chain_report(PAPER)
    assert rep.height == 4
    assert rep.witness_chain == (0b111, 0b011, 0b001, 0b000)


def test_height_single_member():
    rep = ucf.chain_report(Family.of(4, [(1, 2, 3, 4)]))
    assert (rep.height, rep.r) == (1, 1)
    assert rep.witness_chain == rep.r_witness == (0b1111,)


def test_height_astarstar_is_five():
    assert ucf.chain_report(ucf.build_astarstar(9)).height == 5


@given(families(max_n=5, min_members=1, max_members=12))
@settings(max_examples=150)
def test_height_matches_brute_force(fam):
    rep = ucf.chain_report(fam)
    assert rep.height == brute_height(fam)
    # witness is a real chain of that length
    assert len(rep.witness_chain) == rep.height
    for hi, lo in zip(rep.witness_chain, rep.witness_chain[1:]):
        assert is_proper_subset(lo, hi)


@given(families(max_n=5, min_members=1, max_members=8))
@settings(max_examples=100)
def test_r_matches_brute_force(fam):
    rep = ucf.chain_report(fam)
    chains = downward_maximal_chains(fam)
    assert rep.r == min(len(c) for c in chains)
    assert rep.r <= rep.height
    # r_witness must itself be a maximal chain of size r
    assert rep.r_witness in chains
    assert len(rep.r_witness) == rep.r


def test_r_can_undershoot_height():
    # {1} < {1,2} < {1,2,3} is the long chain; {3} < {1,2,3} is maximal of size 2
    fam = Family.of(3, [(1,), (1, 2), (1, 2, 3), (3,)])
    rep = ucf.chain_report(fam)
    assert (rep.height, rep.r) == (3, 2)


def test_tie_breaks_match_brute_force_on_every_small_leaf():
    from ucf.enumeration import _dfs

    leaves = []
    for n in range(1, 5):
        _dfs(n, lambda h, have, split, n=n: leaves.append(family_of_word(n, have)), None)
    assert len(leaves) == 4642
    failing = 0
    for fam in leaves:
        rep = ucf.chain_report(fam)
        chains = downward_maximal_chains(fam)
        assert rep.witness_chain == min(c for c in chains if len(c) == rep.height)
        assert rep.r == min(len(c) for c in chains)
        assert rep.r_witness == min((c for c in chains if len(c) == rep.r), key=lambda c: c[::-1])
        bad = [c for c in chains if len(c) > 1 and c[1].bit_count() != fam.n - 1]
        status = _lemma13_status(fam)
        assert status.offending_chain == (min(bad) if bad else None)
        if bad:
            failing += 1
            assert not ucf.is_separating(fam)
    assert failing == 325


# ---------------------------------------------------------------------------
# lemma13_check
# ---------------------------------------------------------------------------

def test_lemma13_paper_family():
    assert ucf.lemma13_check(PAPER).ok


def test_lemma13_astar():
    assert ucf.lemma13_check(ucf.build_astar(8)).ok


def test_lemma13_singleton_ground():
    # {[1]} has no second chain element to constrain; passes vacuously
    assert ucf.lemma13_check(Family.of(1, [(1,)])).ok


def test_lemma13_preconditions():
    with pytest.raises(NotUnionClosed):
        ucf.lemma13_check(Family.of(2, [(1,), (2,)]))
    with pytest.raises(NotSeparating):
        ucf.lemma13_check(Family.of(2, [(1, 2)]))
    with pytest.raises(BaseNotFull):
        ucf.lemma13_check(Family.of(3, [(1, 2), (1,), (2,)]))


def test_lemma13_internal_status_finds_offender():
    # not separating (2,3 collide), and the chain {1} < [4] skips size 3
    fam = Family.of(4, [(1,), (1, 2, 3, 4)])
    rep = _lemma13_status(fam)
    assert not rep.ok
    assert rep.offending_chain == (0b1111, 0b0001)
    # the core reads the children of the last member, which must be [n]
    with pytest.raises(InternalError):
        _lemma13_status(Family.of(3, [(1,), (1, 2)]))


@given(separating_uc_families(max_n=5))
@settings(max_examples=60, deadline=None)
def test_lemma13_on_random_separating_closures(fam):
    if ucf.base_is_full(fam):
        assert ucf.lemma13_check(fam).ok


# ---------------------------------------------------------------------------
# thm12 bound and witness
# ---------------------------------------------------------------------------

def test_thm12_bound_values():
    assert ucf.thm12_bound(5, 4) == Fraction(2, 1)
    assert ucf.thm12_bound(2, 2) == Fraction(1, 1)
    assert ucf.thm12_bound(7, 3) == Fraction(7, 2)


def test_thm12_bound_errors():
    with pytest.raises(TooSmall):
        ucf.thm12_bound(1, 2)
    with pytest.raises(DegenerateHeight):
        ucf.thm12_bound(5, 1)


def test_thm12_witness_paper_family():
    wit = ucf.thm12_witness(PAPER)
    assert wit.bound == 2
    assert wit.count >= 2


def test_thm12_witness_two_member_family():
    fam = Family.of(4, [(1, 2, 3, 4), (1, 2, 3)])
    wit = ucf.thm12_witness(fam)
    assert wit.element == 4  # only element of [n] \ second chain set
    assert wit.count == 1
    assert wit.bound == 1


def test_thm12_witness_preconditions():
    with pytest.raises(TooSmall):
        ucf.thm12_witness(Family.of(2, [(1, 2)]))
    with pytest.raises(NotUnionClosed):
        ucf.thm12_witness(Family.of(2, [(1,), (2,)]))


@given(separating_uc_families(max_n=5))
@settings(max_examples=60, deadline=None)
def test_thm12_witness_meets_bound_on_random_closures(fam):
    if len(fam) > 1 and ucf.base_is_full(fam):
        wit = ucf.thm12_witness(fam)
        assert wit.count >= wit.bound


# ---------------------------------------------------------------------------
# size_bound_witness
# ---------------------------------------------------------------------------

def test_size_bound_base_case():
    trace = ucf.size_bound_witness(Family.of(1, [(1,)]))
    assert trace.levels == ((1, 1),)
    assert trace.ok


def test_size_bound_two_members():
    trace = ucf.size_bound_witness(Family.of(2, [(1, 2), (1,)]))
    assert trace.levels[0] == (2, 2)
    assert trace.levels[-1][0] == 1
    assert trace.ok


def test_size_bound_preconditions():
    with pytest.raises(NotUnionClosed):
        ucf.size_bound_witness(Family.of(2, [(1,), (2,)]))
    with pytest.raises(NotSeparating):
        ucf.size_bound_witness(Family.of(2, [(1, 2)]))


@given(separating_uc_families(max_n=5))
@settings(max_examples=80, deadline=None)
def test_size_bound_trace_on_random_closures(fam):
    trace = ucf.size_bound_witness(fam)
    assert trace.ok
    sizes = [s for s, _ in trace.levels]
    assert sizes == sorted(sizes, reverse=True)
    assert trace.levels[-1][0] == 1
    assert all(s >= b for s, b in trace.levels)


@given(spanning_uc_families(max_n=8))
@settings(max_examples=80, deadline=None)
def test_frequency_bound_on_random_spanning_closures(fam):
    if len(fam) <= 1:
        return
    rep = ucf.chain_report(fam)
    maxfreq = max(ucf.frequencies(fam))
    assert maxfreq >= ucf.thm12_bound(len(fam), rep.height)
    assert maxfreq >= ucf.thm12_bound(len(fam), rep.r)
    wit = ucf.thm12_witness(fam)
    assert wit.count >= wit.bound
