"""Enumerator against the naive power-set oracle; verification harness runs."""

import dataclasses
import functools
import itertools
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ucf
from ucf import EnumFilter, Family, enumeration
from ucf import bfamily
from ucf.bfamily import _min_covers, _small_slice
from ucf.chains import _lemma13_status, _size_bound_trace, _thm12_witness, chain_report
from ucf.enumeration import (
    _FULL_WALK,
    Violation,
    _dfs,
    _gate,
    _Leaf,
    _leaf_words,
    _orbit,
    _props,
    _props_holds,
    _split,
    _walk_cap,
)
from ucf.errors import InternalError, NTooLarge

from strategies import family_of_word, relabel

# Counts frozen from the independent brute-force oracle (re-derived below).
KNOWN_COUNTS = {1: 2, 2: 8, 3: 90, 4: 4542}

# families_checked per check id at n = 1..4; every run has zero violations.
CHECKED = {
    "T1.2": (1, 7, 89, 4541),
    "L1.3": (2, 6, 70, 4078),
    "T1.4": (2, 6, 39, 441),
    "L2.1.1": (2, 6, 70, 4078),
    "T2.1": (0, 0, 0, 1961),
    "C2.2": (0, 0, 0, 1961),
    "T4.1": (0, 0, 0, 1),
    "PROPS": (0, 0, 31, 2034),
}


def test_enumerate_counts():
    for n, expected in KNOWN_COUNTS.items():
        assert ucf.enumerate_uc(n) == expected


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


def separating_count(n: int, uc_counts: dict[int, int]) -> int:
    # Merge the elements that no member separates: a family with base [n]
    # becomes a separating family with full base on the k classes, and the
    # pair (partition, quotient family) determines the family, so
    # |UC(n)| = sum_k S(n, k) |Sep(k)| with S the Stirling numbers of the
    # second kind. Inverting with the first kind gives this sum.
    return sum(stirling1(n, k) * uc_counts[k] for k in range(1, n + 1))


def test_separating_counts_derived_from_uc_counts():
    derived = {n: separating_count(n, KNOWN_COUNTS) for n in KNOWN_COUNTS}
    assert derived == {1: 2, 2: 6, 3: 70, 4: 4078}
    for n, expected in derived.items():
        assert ucf.enumerate_uc(n, EnumFilter(separating=True)) == expected


def test_enumerate_n1_families():
    seen = []
    ucf.enumerate_uc(1, visitor=seen.append)
    assert set(seen) == {Family.of(1, [(1,)]), Family.of(1, [(), (1,)])}


def test_every_visited_family_is_valid():
    full = ucf.full_word(3)

    def check(fam):
        assert ucf.is_union_closed(fam)
        assert ucf.base_set(fam) == full
        assert full in fam.members

    ucf.enumerate_uc(3, visitor=check)


def test_enumerate_matches_oracle():
    for n in range(1, 5):
        oracle = set(ucf.brute_force_uc(n))
        seen = set()
        ucf.enumerate_uc(n, visitor=seen.add)
        assert seen == oracle
        assert len(oracle) == KNOWN_COUNTS[n]


def test_enumerate_deterministic_order():
    first, second = [], []
    ucf.enumerate_uc(3, visitor=first.append)
    ucf.enumerate_uc(3, visitor=second.append)
    assert first == second


def test_enumerate_filters():
    # exact height
    h4 = ucf.enumerate_uc(3, EnumFilter(height=4))
    by_hand = []
    ucf.enumerate_uc(3, visitor=lambda f: by_hand.append(ucf.chain_report(f).height))
    assert h4 == sum(1 for h in by_hand if h == 4)
    # range form agrees with two exact queries
    assert ucf.enumerate_uc(3, EnumFilter(height=(3, 4))) == ucf.enumerate_uc(
        3, EnumFilter(height=3)
    ) + h4
    # contains_empty splits the space
    with_e = ucf.enumerate_uc(3, EnumFilter(contains_empty=True))
    without = ucf.enumerate_uc(3, EnumFilter(contains_empty=False))
    assert with_e + without == KNOWN_COUNTS[3]
    assert with_e == without  # the empty set is a free choice on top of any family
    # cover-size filter
    b1 = ucf.enumerate_uc(3, EnumFilter(bsize=1))
    seen = []
    ucf.enumerate_uc(3, visitor=lambda f: seen.append(ucf.b_report(f).size))
    assert b1 == sum(1 for s in seen if s == 1)
    # the range form agrees with the exact queries
    exact = [ucf.enumerate_uc(3, EnumFilter(bsize=s)) for s in range(3)]
    assert exact[1] == b1
    assert ucf.enumerate_uc(3, EnumFilter(bsize=(0, 2))) == sum(exact) == sum(s <= 2 for s in seen)


def reference_dfs(n, emit, h_cap, prefix=0, skip=0):
    """_dfs's oracle: the walk that tests every candidate against every member.

    Same arguments and leaves as _dfs: the members of `prefix` are added
    first, in descending order, and no mask of `skip` is tried. Its state
    is a dict, member -> length of the longest chain from it up to [n], in
    descending member order; each leaf's member word is summed from its
    members, and its split word has bit q set where some member holds
    exactly one element of the q-th pair of `itertools.combinations(range(n), 2)`. A candidate s is added when
    s | x is a member for every member x (the union was decided earlier,
    since it is at least s) and its longest upward chain, one more than the
    longest over the members holding it, keeps the height within the cap.
    """
    full = (1 << n) - 1
    cap = n + 1 if h_cap is None else h_cap  # no chain over [n] is longer than n + 1
    pairs = tuple(itertools.combinations(range(n), 2))
    ups = {full: 1}

    def split_word() -> int:
        return sum(
            1 << q for q, (i, j) in enumerate(pairs) if any((x >> i ^ x >> j) & 1 for x in ups)
        )

    def try_add(s: int) -> int:
        """Longest-chain length bottoming at s if added, 0 if s is illegal."""
        up_s = 1
        for x, up_x in ups.items():
            u = s | x
            if u == x:
                if up_x >= up_s:
                    up_s = up_x + 1
            elif u not in ups:
                return 0
        return up_s

    def rec(v: int, h: int) -> None:
        while v >= 0:
            up_s = 0 if skip >> v & 1 else try_add(v)
            if up_s and max(h, up_s) <= cap:
                ups[v] = up_s
                rec(v - 1, max(h, up_s))
                ups.popitem()
            v -= 1
        emit(h, sum(1 << m for m in ups), split_word())

    h = 1
    for s in (m for m in range(full - 1, -1, -1) if prefix >> m & 1):
        ups[s] = try_add(s)
        h = max(h, ups[s])
    rec(full - 1, h)


def walk_leaves(walk, n, h_cap, *seed):
    """Every (height, member word, split word) leaf of one walk, in order."""
    out = []
    walk(n, lambda *leaf: out.append(leaf), h_cap, *seed)
    return out


def test_dfs_matches_reference_walk():
    cases = [(n, cap) for n in range(1, 5) for cap in (None, *range(n + 2))]
    cases += [(5, cap) for cap in (1, 2, 3)]
    for n, cap in cases:
        assert walk_leaves(_dfs, n, cap) == walk_leaves(reference_dfs, n, cap), (n, cap)


@pytest.mark.parametrize(
    "n, h_cap", [(n, cap) for n in range(1, 5) for cap in (None, *range(n + 2))] + [(5, 3)]
)
def test_dfs_matches_reference_walk_on_split_subtrees_and_stops(n, h_cap):
    # every seed kind, leaf for leaf: the full and the orbit walk's seeds
    # and their split tasks; and each split walk, stopped by the masks from
    # 1 to [n] - 1 that the seed leaves open but for the _SPLIT_DEPTH
    # highest, in its skip, whose leaves without the empty set are the
    # tasks' prefixes
    full = (1 << n) - 1
    for seeds in (_FULL_WALK, _orbit(n, h_cap)):
        tasks = _split(n, h_cap, seeds)
        for prefix, skip, _ in (*seeds, *tasks):
            ours = walk_leaves(_dfs, n, h_cap, prefix, skip)
            assert ours == walk_leaves(reference_dfs, n, h_cap, prefix, skip), (prefix, skip)
        heads = []
        for prefix, skip, _ in seeds:
            opened = [m for m in range(1, full) if not skip >> m & 1]
            stops = sum(1 << m for m in opened[: -enumeration._SPLIT_DEPTH])
            ours = walk_leaves(_dfs, n, h_cap, prefix, skip | stops)
            assert ours == walk_leaves(reference_dfs, n, h_cap, prefix, skip | stops), prefix
            heads += [have ^ 1 << (1 << n) - 1 for _, have, _ in ours if not have & 1]
        assert [prefix for prefix, _, _ in tasks] == heads


def leaf_hashes(walk, n, h_cap):
    """One 64-bit hash per (height, member word, split word) leaf of one
    walk, in order (int tuples hash the same in every process)."""
    out = array("q")
    walk(n, lambda *leaf: out.append(hash(leaf)), h_cap)
    return out


def seed_leaf_hashes(n, h_cap, seeds):
    """One 64-bit hash per (weight, height, member word, split word) leaf
    of the walks from each (prefix, skip, weight) seed in turn, in order."""
    out = array("q")
    for prefix, skip, weight in seeds:
        _dfs(n, lambda *leaf: out.append(hash((weight, *leaf))), h_cap, prefix, skip)
    return out


def task_leaf_hashes(n, h_cap, tasks):
    """`seed_leaf_hashes` of each task on its own, in order."""
    return [seed_leaf_hashes(n, h_cap, (task,)) for task in tasks]


@pytest.mark.deep
@pytest.mark.parametrize("h_cap, leaves", [(4, 382210), (None, 2747402)])
def test_dfs_matches_reference_walk_n5(h_cap, leaves):
    ours = leaf_hashes(_dfs, 5, h_cap)
    assert len(ours) == leaves
    assert ours == leaf_hashes(reference_dfs, 5, h_cap)


@pytest.mark.parametrize("n, h_cap", [(4, None), (4, 3), (4, 4), (5, 3)])
def test_split_subtrees_concatenate_to_serial_walk(n, h_cap):
    # each (weight, height, member word, split word) leaf, the split word of
    # a subtree seeded from its prefix's members, of the full and the orbit walk
    for seeds in (_FULL_WALK, _orbit(n, h_cap)):
        tasks = _split(n, h_cap, seeds)
        prefixes = [prefix for prefix, _, _ in tasks]
        assert len(prefixes) > len(seeds) and len(set(prefixes)) == len(prefixes)
        parts = task_leaf_hashes(n, h_cap, tasks)
        assert sum(parts, array("q")) == seed_leaf_hashes(n, h_cap, seeds)
        if n == 5 and seeds != _FULL_WALK:
            # the orbit split decides each seed's highest open masks: 130 tasks
            assert max(map(len, parts)) <= 0.15 * sum(map(len, parts))


@pytest.mark.deep
@pytest.mark.parametrize("h_cap, leaves", [(4, 382210), (None, 2747402)])
def test_split_subtrees_concatenate_to_serial_walk_n5(h_cap, leaves):
    # the subtrees a parallel run of the full walk seeds through `_dfs`'s
    # prefix, compared by leaf hashes to keep the 2.7 million uncapped
    # leaves small in memory
    subtrees = seed_leaf_hashes(5, h_cap, _split(5, h_cap, _FULL_WALK))
    assert len(subtrees) == leaves
    assert subtrees == seed_leaf_hashes(5, h_cap, _FULL_WALK)


@pytest.mark.deep
@pytest.mark.parametrize("h_cap, leaves", [(4, 20016), (None, 148984)])
def test_orbit_split_tasks_concatenate_to_orbit_walk_n5(h_cap, leaves):
    # the tasks of a parallel label-free run at n = 5 --deep, 626 under
    # height cap 4 and 1,009 uncapped, none holding more than 15% of the
    # representatives
    seeds = _orbit(5, h_cap)
    parts = task_leaf_hashes(5, h_cap, _split(5, h_cap, seeds))
    assert max(map(len, parts)) <= 0.15 * leaves
    subtrees = sum(parts, array("q"))
    assert len(subtrees) == leaves
    assert subtrees == seed_leaf_hashes(5, h_cap, seeds)


# ---------------------------------------------------------------------------
# the orbit walk: co-singleton and graph classes
# ---------------------------------------------------------------------------

def least_relabeled_graph(k, edges):
    """The least edge word among the images of a graph on [k] under the k!
    relabelings of [k] (bit q for pair q in `itertools.combinations`
    order), by relabeling every pair."""
    pairs = list(itertools.combinations(range(k), 2))
    return min(
        sum(1 << pairs.index(tuple(sorted((perm[i], perm[j])))) for q, (i, j) in enumerate(pairs)
            if edges >> q & 1)
        for perm in itertools.permutations(range(k))
    )


def is_representative(n, have):
    """Whether a member word is one an orbit walk visits: its co-singletons
    [n] - {i} are those with i < k for some k, and from n = 3 on, the sets
    [n] - {i, j} with i < j < k that it holds form the least graph of
    their isomorphism class. A family under a height cap of 2 holds no
    such set, so the test holds under every cap."""
    full = (1 << n) - 1
    held = [have >> (full ^ 1 << i) & 1 for i in range(n)]
    if held != sorted(held, reverse=True):
        return False
    if n < 3:
        return True
    k = sum(held)
    pairs = itertools.combinations(range(k), 2)
    edges = sum((have >> (full ^ 1 << i ^ 1 << j) & 1) << q for q, (i, j) in enumerate(pairs))
    return edges == least_relabeled_graph(k, edges)


def orbit_filters(cap):
    """Label-free filters whose walk runs under the height cap `cap`: the
    cap as a range from 0, the exact height and, from cap 2, a range from 2,
    each alone, with either empty-set test, either separation test or one
    cover size 0..4."""
    heights = [None] if cap is None else [(0, cap), cap, *([(2, cap)] if cap >= 2 else [])]
    others = [
        {}, {"contains_empty": True}, {"contains_empty": False},
        {"separating": True}, {"separating": False}, *({"bsize": b} for b in range(5)),
    ]
    return [EnumFilter(height=height, **other) for height in heights for other in others]


def assert_orbit_counts_equal_full_counts(n, cap):
    for filt in orbit_filters(cap):
        orbit = enumeration._walk(n, filt, None, _orbit(n, cap))
        full = enumeration._walk(n, filt, None)
        assert orbit[1] == full[1], (n, filt, orbit, full)


def test_orbit_walk_counts_equal_full_walk_counts():
    # every family is a relabeling of one whose co-singletons are an initial
    # segment [k] and whose sets [n] - {i, j} inside [k] form the least graph
    # of their class, and the C(n, k) k-sets times the class's graphs have
    # its count
    for n in range(1, 5):
        for cap in (None, *range(n + 2)):
            assert_orbit_counts_equal_full_counts(n, cap)
            # and the walk visits exactly the representatives, each once
            filt = None if cap is None else EnumFilter(height=(0, cap))
            orbit, full = [], []
            enumeration._walk(n, filt, orbit.append, _orbit(n, cap))
            enumeration._walk(n, filt, full.append)
            assert sorted(leaf.have for leaf in orbit) == sorted(
                leaf.have for leaf in full if n == 1 or is_representative(n, leaf.have)
            ), (n, cap)
    for cap in (2, 3):
        assert_orbit_counts_equal_full_counts(5, cap)
    assert enumeration._walk(5, EnumFilter(height=(1, 3)), None, _orbit(5, 3)) == (1420, 15067)
    assert len(_orbit(5, 3)) == 53


def test_graph_classes_are_the_isomorphism_classes_of_graphs():
    # OEIS A000088: 1, 1, 2, 4, 11, 34, 156 graphs on k nodes up to
    # isomorphism. Each class is headed by its least graph, its size is
    # k! over the relabelings that fix that graph, and the sizes count
    # every graph on [k].
    counts = []
    for k in range(7):
        classes = enumeration._graph_classes(k)
        counts.append(len(classes))
        assert [edges for edges, _ in classes] == sorted({edges for edges, _ in classes})
        pairs = list(itertools.combinations(range(k), 2))
        for edges, size in classes:
            held = {pairs[q] for q in range(len(pairs)) if edges >> q & 1}
            automorphisms = sum(
                {tuple(sorted((perm[i], perm[j]))) for i, j in held} == held
                for perm in itertools.permutations(range(k))
            )
            assert size * automorphisms == math.factorial(k), (k, edges)
            if k <= 5:
                assert least_relabeled_graph(k, edges) == edges, (k, edges)
        assert sum(size for _, size in classes) == 2 ** math.comb(k, 2)
    assert counts == [1, 1, 2, 4, 11, 34, 156]


def test_orbit_seeds_decide_masks_the_walk_may_skip():
    # Every seed at n <= 6 under every cap holds its prefix in its skip and
    # leaves the empty set open, and the weights count each (co-singleton
    # set, graph) pair once: the sum over k of C(n, k) times the 2^C(k, 2)
    # graphs on k nodes where the seeds decide the graph, else 2^n.
    for n in range(2, 7):
        for cap in (None, *range(n + 2)):
            seeds = _orbit(n, cap)
            for prefix, skip, _ in seeds:
                assert prefix & ~skip == 0 and not skip & 1, (n, cap, prefix, skip)
            graphs = n >= 3 and (cap is None or cap >= 3)
            if cap is not None and cap < 2:
                want = 1
            elif graphs:
                want = sum(math.comb(n, k) * 2 ** math.comb(k, 2) for k in range(n + 1))
            else:
                want = 2**n
            assert sum(weight for _, _, weight in seeds) == want, (n, cap)
    assert [len(_orbit(n, None)) for n in range(1, 7)] == [1, 3, 8, 19, 53, 209]


def test_orbit_walk_edge_cases(monkeypatch):
    # One `_dfs` call per seed: one per graph class on [k] for k = 0..n,
    # 19 at n = 4; but one at n = 1, whose one co-singleton is the empty
    # set, so the full walk runs; n + 1 at n = 2, whose sets [n] - {i, j}
    # are the empty set, and under a cap of 2, where none of them fits; and
    # one under a cap below 2, where only [n] fits, so only seed 0 is left
    # and no co-singleton is pushed past the cap.
    calls = []
    dfs = enumeration._dfs

    def counted(*args, **kwargs):
        calls.append(1)
        dfs(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_dfs", counted)

    def walks(n, filt):
        seeds = _orbit(n, enumeration._walk_cap(filt))
        calls.clear()
        got, sub_walks = enumeration._walk(n, filt, None, seeds), len(calls)
        assert sub_walks == len(seeds)
        assert got[1] == enumeration._walk(n, filt, None)[1]
        return got, sub_walks

    assert walks(1, None) == ((2, 2), 1)
    assert walks(4, None) == ((800, 4542), 19)
    assert walks(2, None) == ((6, 8), 3)
    for n in range(2, 6):
        for height, passed in ((0, 0), (1, 1), ((0, 1), 1)):
            assert walks(n, EnumFilter(height=height)) == ((1, passed), 1)
        assert walks(n, EnumFilter(height=2))[1] == n + 1


@pytest.mark.deep
@pytest.mark.parametrize("cap", [4, None])
def test_orbit_walk_counts_equal_full_walk_counts_n5(cap):
    assert_orbit_counts_equal_full_counts(5, cap)


@pytest.mark.deep
def test_orbit_walk_n6_height_at_most_3():
    # 641,046 families of height <= 3 at n = 6, 464,833 of them separating,
    # by the orbit walk, whose 209 seeds visit 16,274 representatives, and
    # by the full walk
    seeds = _orbit(6, 3)
    assert len(seeds) == 209
    for filt, count in (
        (EnumFilter(height=(1, 3)), 641046),
        (EnumFilter(height=(1, 3), separating=True), 464833),
    ):
        assert enumeration._walk(6, filt, None, seeds) == (16274, count)
        assert enumeration._walk(6, filt, None)[1] == count


@pytest.mark.parametrize(
    "tid", [tid for tid, check in enumeration._CHECKS.items() if check.label_free]
)
def test_label_free_checks_keep_their_verdicts_under_relabeling(tid):
    # The adjacent transpositions generate S_n, so a gate and a verdict that
    # each of them keeps are kept by every relabeling.
    check = enumeration._CHECKS[tid]
    for n in range(1, 5):
        swaps = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i : i + 2] = i + 1, i
            swaps.append(perm)
        leaves = []
        enumeration._walk(n, check.filt, leaves.append)
        for leaf in leaves:
            verdict = check.holds(leaf)
            for perm in swaps:
                image = relabel(leaf.fam, perm)
                assert check.filt.matches(image, leaf.h)
                assert check.holds(leaf_of(image, leaf.h)) == verdict, (tid, leaf.fam, perm)


def test_orbit_walk_violation_falls_back_to_the_full_report(monkeypatch, fake_pool):
    # A label-free row made to fail on the families holding {1}, which a
    # relabeling moves: the representatives hold only some of them, and the
    # report lists all of them, in DFS order, as the full walk does, run
    # in-process or, at n = 4 with two workers, as pool tasks: the orbit
    # walk's, then the full walk's.
    def holds(leaf):
        return not leaf.have & 1 << 1

    def conclude(fam, h):
        return ["holds {1}"] if 1 in fam.members else []

    check = dataclasses.replace(enumeration._CHECKS["T1.4"], holds=holds, conclude=conclude)
    monkeypatch.setitem(enumeration._CHECKS, "T1.4", check)
    for n in (2, 3, 4):
        full, met = [], []
        checked = enumeration._walk(n, check.filt, full.append)[1]
        want = tuple(Violation(leaf.fam, "holds {1}") for leaf in full if not holds(leaf))
        for workers in (1, 2):
            report = ucf.verify_theorem("T1.4", n, workers=workers)
            assert (report.families_checked, report.violations) == (checked, want), workers
        seeds = _orbit(n, 3)
        enumeration._walk(n, check.filt, lambda leaf: holds(leaf) or met.append(leaf), seeds)
        assert 0 < len(met) < len(want)
    assert fake_pool == [2, 2]


def test_empty_filter_ranges_are_rejected():
    # A check row built on an empty range would walk, pass nothing and read "ok".
    with pytest.raises(ValueError, match=r"^empty height range \(3, 1\): lo > hi$"):
        EnumFilter(height=(3, 1))
    with pytest.raises(ValueError, match=r"^empty bsize range \(2, 0\): lo > hi$"):
        EnumFilter(bsize=(2, 0))
    assert ucf.enumerate_uc(4, EnumFilter(height=(3, 3), bsize=(0, 0))) == ucf.enumerate_uc(
        4, EnumFilter(height=3, bsize=0)
    )


@pytest.mark.parametrize(
    "name, spec",
    [
        ("height", (1, 2, 3)),  # once "too many values to unpack"
        ("height", "3"),  # once "not enough values to unpack"
        ("height", True),  # once the height 1
        ("height", [1, 3]),
        ("bsize", (0, True)),
        ("bsize", (0, 2.0)),
        ("bsize", (2,)),
    ],
)
def test_malformed_filter_specs_are_rejected(name, spec):
    # the walk's gate reads each spec once, as an int or a (lo, hi) pair of ints
    message = rf"^{name} must be an int or a \(lo, hi\) pair of ints, got {re.escape(repr(spec))}$"
    with pytest.raises(ValueError, match=message):
        EnumFilter(**{name: spec})


@pytest.mark.parametrize("name, value", [("separating", "no"), ("contains_empty", 2)])
def test_non_bool_flags_are_rejected(name, value):
    # a non-bool compares unequal to every leaf's flag, so it would reject every family
    message = rf"^{name} must be None, True or False, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        EnumFilter(**{name: value})


def test_enumerate_caps():
    with pytest.raises(NTooLarge):
        ucf.enumerate_uc(6)
    with pytest.raises(NTooLarge):
        ucf.brute_force_uc(5)


def test_n_below_1_is_out_of_range_not_over_a_cap():
    with pytest.raises(NTooLarge, match=r"^enumeration needs 1 <= n <= 5$"):
        ucf.enumerate_uc(0)
    with pytest.raises(NTooLarge, match=r"^enumeration needs 1 <= n <= 5$"):
        ucf.verify_theorem("T1.4", 0)
    with pytest.raises(NTooLarge, match=r"^the naive oracle needs 1 <= n <= 4$"):
        ucf.brute_force_uc(0)


# ---------------------------------------------------------------------------
# verify_theorem
# ---------------------------------------------------------------------------

def test_verify_rejects_unknown_id():
    with pytest.raises(ValueError):
        ucf.verify_theorem("T9.9", 3)


def test_verify_small_battery():
    for tid in ("T1.2", "L1.3", "T1.4", "L2.1.1", "T2.1", "C2.2", "T4.1", "PROPS"):
        report = ucf.verify_theorem(tid, 3)
        assert report.ok, f"{tid} at n=3: {report.violations[:3]}"


@pytest.mark.parametrize("tid", list(CHECKED))
def test_verify_checked_counts_pinned(tid):
    for n, expected in enumerate(CHECKED[tid], 1):
        report = ucf.verify_theorem(tid, n)
        assert (report.families_checked, report.violations) == (expected, ())


@pytest.mark.parametrize("tid", enumeration.THEOREM_IDS)
def test_verify_checks_every_leaf_its_gate_passes(tid):
    check = enumeration._CHECKS[tid]
    for n in range(check.least_n, 5):
        report = ucf.verify_theorem(tid, n, workers=1)
        assert report.families_checked == ucf.enumerate_uc(n, check.filt)


def test_verify_t14_counts_hypothesis_matches():
    for n, checked in ((3, 39), (5, 9590)):
        report = ucf.verify_theorem("T1.4", n)
        assert (report.families_checked, report.violations) == (checked, ())


def test_verify_t21_binding_case():
    report = ucf.verify_theorem("T2.1", 4)
    assert report.ok and report.families_checked > 0


def test_hypothesis_necessity_reproduces_counterexample():
    report = ucf.verify_theorem("T2.1", 3, hypothesis_necessity=True)
    assert report.mode == "hypothesis-necessity"
    assert report.ok  # counterexamples found is the expected outcome
    families = {v.family for v in report.violations}
    assert Family.of(3, [(1, 2, 3), (1, 2), (1,), (2,), ()]) in families
    assert len(families) == 3  # the relabelings of the same family
    assert (report.families_checked, len(report.violations)) == (30, 3)


def test_hypothesis_necessity_only_for_t21():
    with pytest.raises(ValueError):
        ucf.verify_theorem("T1.4", 3, hypothesis_necessity=True)


def test_parallel_report_matches_serial():
    for tid in ("T1.2", "PROPS"):
        serial = ucf.verify_theorem(tid, 4, workers=1)
        parallel = ucf.verify_theorem(tid, 4, workers=2)
        assert serial.families_checked == parallel.families_checked
        assert serial.violations == parallel.violations


@pytest.fixture
def fake_pool(monkeypatch):
    """The sizes of the pools `verify_theorem` opens, one per walk, in
    order: a fake pool records its size and runs the tasks in-process, so
    no worker process is started."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            return map(fn, jobs)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(enumeration, "get_context", lambda method=None: FakeContext)
    return sizes


def test_parallel_pool_is_capped_at_the_task_count(monkeypatch, fake_pool):
    monkeypatch.setenv("UCF_THREADS", "10000")
    parallel = ucf.verify_theorem("PROPS", 4)
    serial = ucf.verify_theorem("PROPS", 4, workers=1)
    assert fake_pool == [len(_split(4, 4, _FULL_WALK))]
    assert (parallel.families_checked, parallel.violations) == (
        serial.families_checked,
        serial.violations,
    )


def test_non_integer_ucf_threads_is_named(monkeypatch):
    # even a serial run at n <= 3 reads the variable
    monkeypatch.setenv("UCF_THREADS", "abc")
    with pytest.raises(ValueError, match=r"^UCF_THREADS must be an integer, got 'abc'$"):
        ucf.verify_theorem("PROPS", 3)
    assert ucf.verify_theorem("PROPS", 3, workers=1).families_checked == 31


def test_parallel_runs_report_progress_as_each_subtree_finishes():
    # one call per task, in DFS order, with the visited count so far; the
    # last is the walk's leaf count: T1.2's full walk, and T2.1's orbit
    # walk under height cap 4, which visits representatives
    for tid, seeds, filt in (
        ("T1.2", _FULL_WALK, None),
        ("T2.1", _orbit(4, 4), EnumFilter(height=(1, 4))),
    ):
        calls = []
        parallel = ucf.verify_theorem(tid, 4, workers=2, progress=calls.append)
        serial = ucf.verify_theorem(tid, 4, workers=1)
        assert (parallel.families_checked, parallel.violations) == (
            serial.families_checked,
            serial.violations,
        )
        assert len(calls) == len(_split(4, filt and 4, seeds))
        assert calls == sorted(calls) and calls[-1] == enumeration._walk(4, filt, None, seeds)[0]


def test_parallel_report_matches_serial_under_spawn():
    # The pool uses the platform's default start method; spawn (the default
    # on Windows and macOS) starts fresh interpreters that import ucf anew.
    script = textwrap.dedent(
        """
        import multiprocessing
        import ucf
        from ucf import enumeration

        multiprocessing.set_start_method("spawn")
        methods = []

        def get_context(*args):
            ctx = multiprocessing.get_context(*args)
            methods.append(ctx.get_start_method())
            return ctx

        enumeration.get_context = get_context
        parallel = ucf.verify_theorem("PROPS", 4, workers=2)
        serial = ucf.verify_theorem("PROPS", 4, workers=1)
        print(*methods, parallel.families_checked, serial.families_checked)
        print(parallel.violations == serial.violations)
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ucf.__file__).parents[1])}
    env.pop("UCF_THREADS", None)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["spawn", "2034", "2034", "True"]


@pytest.mark.deep
def test_enumerate_n5_height_at_most_4_count_pinned():
    assert ucf.enumerate_uc(5, EnumFilter(height=(1, 4))) == 382210


@pytest.mark.deep
def test_enumerate_n5_count_pinned():
    # Not derived from the enumerator. OEIS A102896 counts Moore families
    # (closure systems) on [n]: M = 1, 2, 7, 61, 2480, 1385552 for n = 0..5.
    # Complements turn union-closed families with base [n] into Moore
    # families with empty bottom, M0(n) = M(n) - sum_{k>=1} C(n,k) M0(n-k),
    # and the empty set is a free extra member, so |UC([n])| = 2 M0(n):
    # 2, 8, 90, 4542 (as pinned above) and 2 * 1373701 = 2747402 for n = 5.
    # The same walk counts the separating families, pinned to the Stirling
    # sum 48 - 400 + 3150 - 45420 + 2747402 (see separating_count), and
    # the progress callback gets every 100,000th visited count.
    separating = 0
    progress = []

    def count_separating(fam):
        nonlocal separating
        separating += ucf.is_separating(fam)

    assert ucf.enumerate_uc(5, visitor=count_separating, progress=progress.append) == 2747402
    assert separating == separating_count(5, {**KNOWN_COUNTS, 5: 2747402}) == 2704780
    assert progress == list(range(100000, 2747402, 100000))


@pytest.mark.deep
def test_verify_c22_n5():
    report = ucf.verify_theorem("C2.2", 5)
    assert (report.families_checked, report.violations) == (255018, ())


# ---------------------------------------------------------------------------
# leaf facts on words, against the Family functions
# ---------------------------------------------------------------------------

# The distinct gates of the check table; at n <= 4 also the empty-set gates
# and a cover-size gate at each size. Each cover-size gate runs the cover
# search on every leaf, so n = 5 compares the table's gates only.
TABLE_GATES = tuple(dict.fromkeys(check.filt for check in enumeration._CHECKS.values()))
GATES = TABLE_GATES + (
    EnumFilter(contains_empty=True),
    EnumFilter(contains_empty=False, separating=False),
    *(EnumFilter(bsize=b) for b in (0, 1, 2, 3, 4, (1, 3), (3, 5))),
)


def family_facts(fam, h, gates):
    """The oracle: each fact the walk reads from words, through the Family
    functions and EnumFilter.matches. The levels are None where the
    reduction fails, as it does on 358 non-separating leaves at n <= 4; the
    T1.2 verdict is None where T1.2's gate (height at least 2) rejects the
    family, and `thm12 == []` elsewhere; the word side tests |family| > 1,
    so their match holds the gate to the hypothesis. The PROPS verdict is
    None off PROPS's gate (separating, height 4). The L2.1.1 verdict is
    taken on every leaf, in its gate or not."""
    t12 = enumeration._CHECKS["T1.2"]
    thm12 = t12.conclude(fam, h) == [] if t12.filt.matches(fam, h) else None
    cover = next(_min_covers(fam.n, *_small_slice(fam), h)).members
    try:
        levels = _size_bound_trace(fam).levels
    except InternalError:
        levels = None
    rep = chain_report(fam)
    pick = None
    if len(fam) > 1:
        witness = _thm12_witness(fam, rep)
        pick = (witness.element, witness.count)
    return (
        (rep.height, rep.witness_chain, rep.r),
        pick,
        ucf.is_separating(fam),
        ucf.frequencies(fam),
        len(fam),
        0 in fam.members,
        _lemma13_status(fam).ok,
        levels,
        tuple(g.matches(fam, h) for g in gates),
        cover,
        thm12,
        enumeration._CHECKS["L2.1.1"].conclude(fam, h) == [],
        _props(fam, h) == [] if h == 4 and ucf.is_separating(fam) else None,
    )


def passes(gate, leaf, split):
    """Whether a leaf with this split word passes a `_gate` test on a walk
    under the gate's height cap, `_walk_cap` of its filter. That walk emits
    the leaves of height at most max(1, cap), so the gate tests no upper
    bound."""
    admit, cap = gate
    if cap is not None and leaf.h > max(1, cap):
        return False
    return admit is None or admit(leaf.h, leaf.have, split)


def word_facts(leaf, split, gates):
    try:
        levels = leaf.size_levels()
    except InternalError:
        levels = None
    chain, r = leaf.chain_facts()
    separating = split == leaf.words.every
    return (
        (leaf.h, chain, r),
        leaf.thm12_pick(chain) if leaf.have.bit_count() > 1 else None,
        separating,
        tuple(leaf.frequencies()),
        leaf.have.bit_count(),
        bool(leaf.have & 1),
        leaf.lemma13_holds(),
        levels,
        tuple(passes(gate, leaf, split) for gate in gates),
        leaf.min_cover(),
        enumeration._CHECKS["T1.2"].holds(leaf) if leaf.have.bit_count() > 1 else None,
        enumeration._CHECKS["L2.1.1"].holds(leaf),
        _props_holds(leaf) if leaf.h == 4 and separating else None,
    )


def compare_leaf_facts(n, h_cap, gates, oracle):
    """Walk under the cap and compare every leaf's word facts with the
    oracle's, cached per family in `oracle` (a family's facts do not depend
    on the cap it is reached under); returns the number of leaves and how
    many of them got a PROPS verdict. The split word the walk carries is
    the or of its members' `splits` words, and separation is that word
    being `every`."""
    words = _leaf_words(n)
    word_gates = [(_gate(g, words), _walk_cap(g)) for g in gates]
    count = verdicts = 0

    def emit(h, have, split):
        nonlocal count, verdicts
        count += 1
        leaf = _Leaf(words, have, h)
        fam = leaf.fam
        assert fam == family_of_word(n, have)
        assert split == functools.reduce(operator.or_, map(words.splits.__getitem__, fam.members))
        want = oracle.get(fam)
        if want is None:
            want = oracle[fam] = family_facts(fam, h, gates)
        assert word_facts(leaf, split, word_gates) == want, (fam.member_sets(), h)
        verdicts += want[-1] is not None

    _dfs(n, emit, h_cap)
    return count, verdicts


def test_word_facts_match_family_oracle():
    for n in range(1, 5):
        oracle = {}
        for cap in (None, *range(n + 2)):
            compare_leaf_facts(n, cap, GATES, oracle)
        assert len(oracle) == KNOWN_COUNTS[n]
    assert compare_leaf_facts(4, None, GATES, oracle) == (4542, 2034)
    assert compare_leaf_facts(5, 3, TABLE_GATES, {}) == (15067, 0)


@pytest.mark.deep
def test_word_facts_match_family_oracle_n5():
    assert compare_leaf_facts(5, 4, TABLE_GATES, {}) == (382210, 346028)


def test_leaves_kept_after_the_walk_give_their_own_families():
    # a leaf is a value: read after the walk has moved on, it still gives
    # the family its member word encodes
    leaves = []
    assert enumeration._walk(4, None, leaves.append) == (4542, 4542)
    assert len({leaf.have for leaf in leaves}) == 4542
    for leaf in leaves:
        assert leaf.fam == family_of_word(4, leaf.have)


def leaf_of(fam, h):
    """A leaf record for a hand-built family, as the walk would make it."""
    return _Leaf(_leaf_words(fam.n), sum(1 << m for m in fam.members), h)


@pytest.mark.parametrize(
    "tid, n, sets",
    [
        ("L1.3", 3, [(), (1, 2, 3)]),
        ("T1.4", 3, [(), (1,), (2,), (1, 2), (1, 2, 3)]),
        ("L2.1.1", 3, [(), (1, 2, 3)]),
        ("L2.1.1", 3, [(1, 2), (1, 2, 3)]),  # the reduction cannot shrink it
        ("T2.1", 3, [(), (1,), (2,), (1, 2), (1, 2, 3)]),
        ("C2.2", 3, [(), (1,), (2,), (3,), (1, 2, 3)]),
        ("T4.1", 6, [(), (1,), (2,), (3,), (4,), (5,), (6,), (1, 2, 3, 4, 5, 6)]),
        ("T4.1", 6, [(), (1,), (2,), (3, 4), (1, 2, 3, 4, 5, 6)]),
        # not union-closed, as every leaf that fails T1.2 must be: max frequency 2 < bound 3
        ("T1.2", 3, [(1,), (2,), (3,), (1, 2, 3)]),
        ("T1.2", 3, [(1,), (2,), (3,), (1, 2), (1, 2, 3)]),  # only the bound at r = 2 < h fails
        # PROPS, one row per letter that can fail, all of height 4 and not
        # union-closed or not separating. C holds whenever A does (each of the
        # |sub_b| members lacks an element of b, each lacked at most once), and
        # B does too unless sub_b is empty; L holds whenever J and K do. G
        # never fails: three slice members cover [n] only if
        # 2n - |private parts| <= 3 (ceil(n/2) - 1), so the private parts
        # outgrow every slice member.
        ("PROPS", 7, [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4, 5, 6, 7)]),  # A
        ("PROPS", 4, [(), (2,), (3,), (2, 4), (1, 2, 4)]),  # A, B and C
        ("PROPS", 8, [(), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]),  # B, sub_b empty
        ("PROPS", 5, [(1,), (1, 2), (1, 3), (3, 4), (1, 2, 3, 4), (1, 2, 3, 4, 5)]),  # E by 1/2
        ("PROPS", 5, [(), (2,), (3,), (2, 3, 4), (5,), (1, 2, 3, 4, 5)]),  # F
        ("PROPS", 7, [(1,), (1, 2, 3), (4, 5, 6), (6, 7), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6, 7)]),  # H
        ("PROPS", 4, [(), (1,), (3,), (4,), (3, 4), (1, 2, 3, 4)]),  # I
        ("PROPS", 6, [(5,), (1, 5), (2, 5), (3, 5), (4, 5), (1, 2, 5, 6), (1, 2, 3, 4, 5, 6)]),  # J
        ("PROPS", 6, [(), (1, 2), (3, 4), (4, 5), (1, 3, 4, 5), (4, 6), (1, 2, 3, 4, 5, 6)]),  # K
        ("PROPS", 5, [(2,), (3,), (1, 3), (1, 2, 3), (1, 4), (1, 2, 3, 4), (5,)]),  # K and L
    ],
)
def test_failing_word_conclusion_gives_the_family_details(tid, n, sets):
    check = enumeration._CHECKS[tid]
    fam = Family.of(n, sets)
    h = ucf.chains.height(fam)
    leaf = leaf_of(fam, h)
    assert check.holds(leaf) is False
    details = check.conclude(fam, h)
    assert details and check.conclude(leaf.fam, leaf.h) == details


@pytest.mark.parametrize(
    "n, sets",
    [
        (2, [(), (1, 2)]),  # average exactly n/2, an element in exactly half the members
        (2, [(), (1,), (2,), (1, 2)]),
        (2, [(1,), (1, 2)]),  # exactly n members; T1.2's witness count 1 is its bound at h = 2
        (6, [(), (1,), (2,), (3, 4), (1, 2, 3, 4, 5, 6)]),  # average exactly floor(n/2) - 1
        (3, [(), (1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]),
        (3, [(), (1,), (2,), (1, 2), (1, 2, 3)]),
        # T1.2: max frequency 4 is the bound (5 + 2 - 3) / (2 - 1) at r = 2 < h = 3
        (3, [(1,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]),
        # PROPS's A, B and C at their edges: each element of b is missing from
        # exactly one of |b| members inside b, which total (|b| - 1) |b|
        (7, [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6, 7)]),
        # PROPS's E: the four smallest slice members total exactly (3n + 1) / 2
        (5, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]),
    ],
)
def test_word_conclusions_agree_with_the_family_ones_on_their_boundaries(n, sets):
    fam = Family.of(n, sets)
    h = ucf.chains.height(fam)
    leaf = leaf_of(fam, h)
    for tid, check in enumeration._CHECKS.items():
        assert check.holds(leaf) == (check.conclude(fam, h) == []), tid


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_props_word_verdict_matches_the_family_one_on_random_member_words(data):
    # Any nonempty member word, union-closed or not, read at height 4; a
    # slice that needs a cover of more than four members raises on both sides.
    n = data.draw(st.integers(4, 6))
    fam = Family.from_masks(n, data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1)))
    leaf = leaf_of(fam, 4)
    try:
        want = _props(fam, 4) == []
    except InternalError as exc:
        with pytest.raises(InternalError, match=f"^{re.escape(str(exc))}$"):
            _props_holds(leaf)
    else:
        assert _props_holds(leaf) == want


def test_props_verdict_reads_the_average_beside_its_cached_key():
    # The members inside b(B) are the empty set alone in both families, so
    # the cache keys are equal; B's count test fails (sub_b is empty) and
    # only the average decides it: 15/4 < 4 fails and 23/5 >= 4 holds.
    below = Family.of(8, [(), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)])
    above = Family.of(8, [*below.member_sets(), tuple(range(1, 9))])
    for order in ((below, above), (above, below)):
        enumeration._props_verdicts.cache_clear()
        for _ in range(2):  # the second pass reads a warm cache
            for fam in order:
                assert _props_holds(leaf_of(fam, 4)) == (_props(fam, 4) == [])
        assert enumeration._props_verdicts.cache_info().currsize == 1
    assert [_props(fam, 4) == [] for fam in (below, above)] == [False, True]


def test_min_cover_keeps_the_cover_search_errors(monkeypatch):
    # not union-closed, so its three-member cover outgrows its height 2; each
    # error is raised on an empty cache, as where a walk first meets the slice
    fam = Family.of(4, [(1,), (2,), (3,), (1, 2, 3, 4)])
    enumeration._slice_cover.cache_clear()
    with pytest.raises(InternalError, match="^cover search exceeded the height cap$"):
        leaf_of(fam, 2).min_cover()
    enumeration._slice_cover.cache_clear()
    leaf = leaf_of(fam, 3)
    assert leaf.min_cover() == next(_min_covers(4, *_small_slice(fam), 3)).members
    assert leaf.min_cover() == (0b1, 0b10, 0b100)
    # the height cap is tested on every leaf, the cached cover's included
    with pytest.raises(InternalError, match="^cover search exceeded the height cap$"):
        leaf_of(fam, 2).min_cover()
    # a search that handed back a redundant cover is caught
    enumeration._slice_cover.cache_clear()
    monkeypatch.setattr(bfamily, "_private_parts", lambda cover: [0] * len(cover))
    with pytest.raises(InternalError, match="^minimum cover must be irredundant$"):
        leaf.min_cover()


def size_levels_or_error(leaf):
    try:
        return leaf.size_levels()
    except InternalError as exc:
        return str(exc)


def trace_levels_or_error(fam):
    try:
        return _size_bound_trace(fam).levels
    except InternalError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_masks_list_a_words_members_in_ascending_order(data):
    # up to 64-bit words, eight bytes, past the enumeration cap
    n = data.draw(st.integers(1, 6))
    word = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    masks = _leaf_words(n).masks(word)
    assert type(masks) is tuple and masks == family_of_word(n, word).members


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_size_levels_match_the_trace_with_an_empty_and_a_filled_memo(data):
    # Random member words, mostly not union-closed; the first pass starts
    # from an empty cache and fills it, the second reads it.
    n = data.draw(st.integers(2, 6))
    masks = st.sets(st.integers(0, (1 << n) - 1), min_size=1)
    fams = [Family.from_masks(n, ms) for ms in data.draw(st.lists(masks, min_size=1, max_size=4))]
    enumeration._size_tail.cache_clear()
    for _ in range(2):
        for fam in fams:
            want = trace_levels_or_error(fam)
            assert size_levels_or_error(leaf_of(fam, 1)) == want, (fam.member_sets(), want)


@pytest.mark.parametrize(
    "tid, cache, keys, checked",
    [
        # one tail per distinct first reduced word: 18 at n = 3, 280 at n = 4
        ("L2.1.1", "_size_tail", (18, 280), ((70, 0), (4078, 0), (70, 0))),
        # one per distinct member word below a child, keyed by the word
        # alone: 31 at n = 3, and 386 more at n = 4, which meets all 31
        # again among its 417
        ("T1.2", "_child_descent", (31, 386), ((89, 0), (4541, 0), (89, 0))),
        # one per distinct slice word of the separating height-4 leaves, 7 at
        # n = 3 and 20 at n = 4; T2.1 finds its three counterexamples at n = 3
        # (see below). T4.1 takes the orbit walk, whose representatives have
        # 6 at n = 3
        ("T2.1", "_slice_cover", (7, 20), ((30, 3), (1961, 0), (30, 3))),
        ("T4.1", "_slice_cover", (6, 20), ((0, 0), (1, 0), (0, 0))),
        ("PROPS", "_slice_cover", (7, 20), ((31, 0), (2034, 0), (31, 0))),
        # PROPS's verdicts, one per distinct word of the members inside b(B),
        # or slice word where b(B) lacks at most one element
        ("PROPS", "_props_verdicts", (7, 20), ((31, 0), (2034, 0), (31, 0))),
    ],
)
def test_leaf_caches_compute_each_distinct_key_once(monkeypatch, tid, cache, keys, checked):
    # From an empty cache, the first run at each n fills it with exactly
    # the distinct keys it looks up, a repeat run computes nothing new, and
    # each entry equals its uncached computation. Each run gives (families
    # checked, violations). T2.1 walks n = 3 only without its n >= 4
    # hypothesis.
    kwargs = {"hypothesis_necessity": True} if tid == "T2.1" else {}
    cached = getattr(enumeration, cache)
    cached.cache_clear()
    seen = set()
    monkeypatch.setattr(enumeration, cache, lambda *key: seen.add(key) or cached(*key))
    got, sizes = [], []
    for n in (3, 4, 3):
        report = ucf.verify_theorem(tid, n, workers=1, **kwargs)
        got.append((report.families_checked, len(report.violations)))
        sizes.append(cached.cache_info().currsize)
    assert got == list(checked)
    assert sizes == [keys[0], sum(keys), sum(keys)]
    assert cached.cache_info().misses == len(seen) == sum(keys)
    # with the cache out of the way, `_descent`'s recursion included
    monkeypatch.setattr(enumeration, cache, cached.__wrapped__)
    for key in seen:
        assert cached(*key) == cached.__wrapped__(*key), key
    assert cached.cache_info().misses == sum(keys)
    # and the runs equal fresh ones in a new interpreter
    script = (
        "import ucf\n"
        "for n in (3, 4, 3):\n"
        f"    r = ucf.verify_theorem({tid!r}, n, workers=1, **{kwargs!r})\n"
        "    print(r.families_checked, len(r.violations))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ucf.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    fresh = [tuple(map(int, line.split())) for line in run.stdout.splitlines()]
    assert fresh == list(checked)


def test_concurrent_walks_match_serial_runs():
    # Four threads run T1.2, L2.1.1 and PROPS at n = 4 at once, each in its
    # own order, from empty caches, which all three fill; a short switch
    # interval makes them trade the interpreter lock inside the walks.
    ids = ("T1.2", "L2.1.1", "PROPS")

    def run(tid):
        return dataclasses.replace(ucf.verify_theorem(tid, 4, workers=1), elapsed=0)

    serial = {tid: run(tid) for tid in ids}
    caches = (enumeration._child_descent, enumeration._size_tail, enumeration._slice_cover,
              enumeration._props_verdicts)
    for cache in caches:
        cache.cache_clear()
    start = threading.Barrier(4, timeout=60)

    def runs(i):
        start.wait()
        return [(tid, run(tid)) for tid in ids[i % 3 :] + ids[: i % 3]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(runs, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for reports in results:
        for tid, report in reports:
            assert report == serial[tid], tid


def bell_numbers(count):
    """B(0), ..., B(count - 1) from the Bell triangle: each row starts with
    the last entry of the row above, each further entry is its left
    neighbour plus the entry above that neighbour, and B(k) opens row k."""
    row, out = [1], [1]
    while len(out) < count:
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        out.append(row[0])
    return out


def test_height_at_most_2_counts_are_bell_numbers():
    # A family of height <= 2 is [n] over an antichain of proper subsets.
    # The union of two of them is a member above both, so it is [n]: their
    # complements are pairwise disjoint nonempty blocks (the empty set's is
    # [n]). The elements in no block, with one extra point, make one more
    # block, so the families match the partitions of [n + 1] and
    # |UC_{h<=2}(n)| = B(n + 1).
    bell = bell_numbers(8)
    counts = []
    for n in range(1, 7):
        leaves = []
        _dfs(n, lambda h, have, split: leaves.append(h), 2)
        counts.append(len(leaves))
    assert counts == [bell[n + 1] for n in range(1, 7)] == [2, 5, 15, 52, 203, 877]


def test_count_only_walks_build_no_family(monkeypatch):
    builds = 0
    init = Family.__init__

    def counted(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    monkeypatch.setattr(Family, "__init__", counted)
    assert ucf.enumerate_uc(4) == 4542
    assert ucf.enumerate_uc(4, EnumFilter(separating=True, height=4, bsize=(0, 2))) == 1961
    assert ucf.verify_theorem("T2.1", 4, workers=1).families_checked == 1961
    assert ucf.verify_theorem("L2.1.1", 4, workers=1).families_checked == 4078
    assert ucf.verify_theorem("PROPS", 4, workers=1).families_checked == 2034
    assert ucf.verify_theorem("T4.1", 4, workers=1).families_checked == 1
    # T1.2's gate drops the one-member leaf {[4]} before it gets a record
    assert ucf.verify_theorem("T1.2", 4, workers=1).families_checked == 4541
    assert builds == 0
    assert ucf.enumerate_uc(3, visitor=lambda fam: None) == builds == 90


def test_leaf_records_are_built_only_past_the_word_gates(monkeypatch):
    # Of the 4,542 leaves at n = 4, 2,034 are separating and of height 4,
    # and 323 of those are representatives of an orbit walk. The gate reads
    # the cover size off the leaf's words, so a count-only walk builds no
    # `_Leaf`, with a cover-size gate or without, and a visitor builds one
    # per passing leaf.
    past = []
    enumeration._walk(4, EnumFilter(separating=True, height=4), past.append)
    representatives = sum(is_representative(4, leaf.have) for leaf in past)
    assert (len(past), representatives) == (2034, 323)
    builds = 0
    init = _Leaf.__init__

    def counted(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    monkeypatch.setattr(_Leaf, "__init__", counted)
    assert ucf.enumerate_uc(4, EnumFilter(separating=True, height=4)) == 2034
    assert builds == 0
    assert ucf.enumerate_uc(4, EnumFilter(separating=True, height=4, bsize=(0, 2))) == 1961
    assert builds == 0
    builds = 0
    visited = []
    assert ucf.enumerate_uc(4, EnumFilter(separating=True, height=4), visited.append) == 2034
    assert builds == len(visited) == 2034
    builds = 0
    assert ucf.enumerate_uc(4, EnumFilter(separating=True, height=4, bsize=(0, 2)), visited.append) == 1961
    assert builds == 1961


# ---------------------------------------------------------------------------
# canonical form (relabeling reduction, off by default)
# ---------------------------------------------------------------------------

def brute_force_canonical(fam: Family) -> Family:
    """canonical_form's oracle: relabel every member bit by bit under each of
    the n! permutations, sort each image and keep the least."""
    return Family(
        fam.n,
        min(
            tuple(sorted(sum(((m >> i) & 1) << perm[i] for i in range(fam.n)) for m in fam.members))
            for perm in itertools.permutations(range(fam.n))
        ),
    )


def test_canonical_form_identifies_relabelings():
    fam = Family.of(3, [(2,), (2, 3), (1, 2, 3)])
    canon = ucf.canonical_form(fam)
    for perm in itertools.permutations(range(3)):
        assert ucf.canonical_form(relabel(fam, perm)) == canon
    assert ucf.canonical_form(canon) == canon  # idempotent


def test_canonical_form_matches_brute_force_n_at_most_4():
    for n, expected in KNOWN_COUNTS.items():
        fams = []
        ucf.enumerate_uc(n, visitor=fams.append)
        assert len(fams) == expected
        assert [ucf.canonical_form(f) for f in fams] == [brute_force_canonical(f) for f in fams]


class _Enough(Exception):
    pass


def test_canonical_form_matches_brute_force_first_n5_families():
    fams = []

    def take(fam):  # the first 1,000 families in DFS order
        fams.append(fam)
        if len(fams) == 1000:
            raise _Enough

    with pytest.raises(_Enough):
        ucf.enumerate_uc(5, visitor=take)
    assert [ucf.canonical_form(f) for f in fams] == [brute_force_canonical(f) for f in fams]


def test_canonical_form_of_the_empty_family():
    for n in range(1, 6):
        assert ucf.canonical_form(Family(n, ())) == Family(n, ())


@given(st.data())
def test_larger_lane_key_is_smaller_sorted_tuple(data):
    # Lane 0 belongs to the identity, the first of itertools.permutations.
    n = data.draw(st.integers(1, 5))
    size = data.draw(st.integers(0, 1 << n))
    masks = st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    a, b = data.draw(masks), data.draw(masks)
    words = enumeration._relabel_tables(n)[1]
    lane = (1 << max(8, 1 << n)) - 1

    def key(ms):
        return sum(words[m] for m in ms) & lane

    assert key(a) == sum(1 << ((1 << n) - 1 - m) for m in a)
    assert (key(a) > key(b)) == (sorted(a) < sorted(b))
    assert (key(a) == key(b)) == (sorted(a) == sorted(b))


def cycle_type_representatives(n: int) -> list[tuple[tuple[int, ...], int]]:
    """One permutation of range(n) per cycle type, with how many have that type."""
    reps: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for perm in itertools.permutations(range(n)):
        seen, lengths = set(), []
        for i in range(n):
            length, j = 0, i
            while j not in seen:
                seen.add(j)
                j, length = perm[j], length + 1
            if length:
                lengths.append(length)
        cycle_type = tuple(sorted(lengths))
        rep, count = reps.get(cycle_type, (perm, 0))
        reps[cycle_type] = (rep, count + 1)
    return list(reps.values())


class Burnside:
    """Classes up to relabeling by Burnside's lemma: the number of families
    each permutation fixes, averaged over S_n. Permutations of one cycle type
    are conjugate and fix equally many families of a relabeling-closed set,
    so one representative per type is tested, with its multiplicity."""

    def __init__(self, n: int):
        self.n = n
        self.types = [
            ({m: sum(((m >> i) & 1) << perm[i] for i in range(n)) for m in range(1 << n)}, count)
            for perm, count in cycle_type_representatives(n)
        ]
        self.fixed = [0] * len(self.types)

    def add(self, fam: Family) -> None:
        members = set(fam.members)
        for t, (moves, _) in enumerate(self.types):
            if all(moves[m] in members for m in members):
                self.fixed[t] += 1

    def classes(self) -> int:
        total = sum(fixed * count for fixed, (_, count) in zip(self.fixed, self.types))
        orbits, rest = divmod(total, math.factorial(self.n))
        assert rest == 0
        return orbits


def test_canonical_class_counts():
    # hand count at n=2: {12}, {12,0}, {12,1}~{12,2}, {12,1,0}~{12,2,0},
    # {12,1,2}, {12,1,2,0} -> 6 classes; each count is also Burnside's
    # (n = 5 under height cap 3: height is kept by relabeling)
    for n, filt, expected in (
        (1, None, 2), (2, None, 6), (3, None, 28), (4, None, 330),
        (5, EnumFilter(height=(1, 3)), 359),
    ):
        classes, burnside = set(), Burnside(n)

        def visit(fam):
            classes.add(ucf.canonical_form(fam))
            burnside.add(fam)

        ucf.enumerate_uc(n, filt, visit)
        assert len(classes) == burnside.classes() == expected


@pytest.mark.deep
def test_canonical_class_counts_n5():
    # One walk: 28,960 classes in all and 4,864 under height cap 4, each
    # counted from canonical forms and by Burnside's lemma.
    classes, capped = set(), set()
    burnside, burnside_capped = Burnside(5), Burnside(5)

    def visit(leaf):
        fam, h = leaf.fam, leaf.h
        canon = ucf.canonical_form(fam)
        classes.add(canon)
        burnside.add(fam)
        if h <= 4:
            capped.add(canon)
            burnside_capped.add(fam)

    assert enumeration._walk(5, None, visit) == (2747402, 2747402)
    assert len(classes) == burnside.classes() == 28960
    assert len(capped) == burnside_capped.classes() == 4864


def test_canonical_form_cap():
    with pytest.raises(NTooLarge):
        ucf.canonical_form(Family.of(6, [(1, 2, 3, 4, 5, 6)]))
