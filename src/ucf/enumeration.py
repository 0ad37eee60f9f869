"""Exhaustive enumeration of union-closed families with base exactly [n].

The generator exploits two facts. First, a union-closed family whose base
is [n] must contain [n] itself (the union of all members is a member), so
[n] is seeded and the remaining 2^n - 1 subsets are decided in decreasing
integer order. Second, bit-or can only grow a mask's integer value: when a
candidate S is considered, S | X exceeds S for every already-present X, so
the union was itself decided earlier and legality of adding S reduces to
membership tests against the current family. A branch that would need an
already-excluded union is dead and is pruned. Every leaf of this DFS is
therefore union-closed, visited exactly once, in a deterministic order
(include tried before exclude at each candidate).

The DFS state is the height h, three kinds of word of 2^n bits, bit m
standing for mask m (32 bits at n = 5), and one word of pairs. The words of
masks are `have`, the members; `legal`, the masks t with t | x a member for
every member x; and `under[k]`, the masks inside some member whose longest
chain up to [n] has at least k + 1 sets. `split` has C(n, 2) bits, one per
pair of elements, set where some member holds exactly one of the pair.
A candidate s lies below every member, so a member holding s holds it
properly: s's chain length is 2 + the largest k with s in `under[k]`, and
s is within a height cap c exactly when it is outside `under[c - 1]`. So
the next candidate is the highest bit of `legal & ~under[c - 1]` below the
last one, and the walk never tries a dead or over-cap set. Adding s sets
one bit of `have`, raises one level word (s already lies inside a member
whose chain is one set shorter than its own, so every lower level holds
s's subsets), narrows `legal` to the t with t | s a member and ors the
pairs s splits into `split`. The update is exact: every older member x
exceeds s, so s | x is never s, and older chains and unions are unchanged.
Words only shrink (`legal`) or grow (`under`, `split`) on the way down, so
a candidate dead at one node is dead below it; `have`, `legal`, `split`
and h are call arguments, so a pop restores only the one level word it
raised. Excluding a candidate is a loop step, not a call, so the recursion
is at most |F| deep. Most leaves cost no call at all. The empty set is
always legal, is the last candidate and lies under every member, so its
include-child is the leaf (h + 1, have | 1, split), which fits exactly when
h + 1 is within the cap; it is emitted directly. A child with no candidate
left but the empty set is emitted in place, its empty-set leaf first. And
since `legal` only shrinks and `under` only grows, a child is such a leaf
whenever its parent has no candidate left below it but the empty set; its
include step then works out only its level for the height, and neither
narrows `legal` nor raises a level word.

Each check id of the verifier is one table row: its hypotheses as text, as
an `EnumFilter` (height, separation, cover size |B|) and as the least n the
result is stated for, and its conclusion. The enumerator's leaf loop runs
every check. A walk reads its filter once into one gate (`_gate`), a test
of each leaf's height and words: the empty set's bit and the height range
are tests of h and `have`, separation, every pair split by some member, is
the one compare `split == every`, and the cover size is the length of the
least minimum cover. A leaf that passes becomes a `_Leaf`, a value that
outlives the walk, only for a visitor, so a count-only walk builds none.
The gate and every conclusion read the leaf's facts as a few exact int
operations on `have` and the per-n words of `_leaf_words`: frequencies,
|F|, the empty set, the least minimum cover (|B| is its length), Lemma
1.3, the size-bound levels, T1.2's witness chain, r and witness element.
Four facts read a smaller word than the leaf's, which later leaves meet
again, so each is a cached pure function of that word: the size-bound
levels after the first reduction, of the reduced word (`_size_tail`); the
chain facts below each child of [n], of the child's member word
(`_child_descent`); the least minimum cover, `bfamily._least_cover` of the
slice members (the search `b_report` runs), of the slice word
`have & small` (`_slice_cover`); and the verdicts of the PROPS letters,
`bfamily._prop_letters` (the function `prop_suite` runs) of the members
inside b(B), of their word, or of the slice word where b(B) lacks at most
one element of [n] (`_props_verdicts`). B's test of the average is the
one PROPS fact read from the leaf. An entry depends only on its key, so
every walk and thread shares the caches and nothing empties them. A cover
longer than the leaf's height is an error tested on every leaf
(`_min_cover`), since the height is the leaf's own. A check counts
the leaves its gate passes, so a passing conclusion costs its leaf
nothing more; a `Family` is built only for a leaf whose word conclusion
fails (the `Family` conclusion then gives the violation's details) and
for a caller's visitor, so a count-only `enumerate_uc` builds none.
`EnumFilter.matches` and the `Family` conclusions stay as the public gate
and the oracle: tests/test_enumeration.py compares every word fact with
them on every leaf for n <= 4 and at n = 5 under height cap 3, and under
cap 4 in the deep suite. Public analysis functions validate their input; the `Family` gate
and conclusions instead pass these facts about a leaf (union-closed, base
[n], height h) to the private cores behind those functions, as the
construction certifier and `ucf analyze` do with the facts they derive
once.

Every walk is a tuple of (prefix, skip, weight) seeds, each run by one
`_dfs` call from the members `prefix` holds, with the masks `skip` holds
decided before it starts; each family that passes counts `weight` times.
The full walk is the one seed (0, 0, 1).

A walk whose gate and visitor read no labels, a count-only `enumerate_uc`
or a run of a check marked label-free (T1.4, T2.1, C2.2, T4.1 and L1.3),
is an orbit walk. A co-singleton [n] - {i} is always legal, since its
union with a member is itself or [n], and it is maximal below [n], so it
never narrows `legal` and takes level 1. So a walk can decide all of them
at the root: `_orbit`'s seeds for k have the co-singletons with i < k in
their prefix and every co-singleton in their skip. With those members,
a set t = [n] - {i, j} with i < j < k is free the same way: its only
proper supersets, [n] - {i}, [n] - {j} and [n], are members, so its
union with a member is itself or a member, it narrows no candidate and
it takes level 2. So from n = 3 under a height cap of 3 or more, the
seeds for k also decide these C(k, 2) sets, as a graph G on [k] whose
edge ij stands for the member [n] - {i, j}: one seed per isomorphism
class of G (`_graph_classes`), with the t of the class's least graph in
its prefix and every such t in its skip. A seed's leaves are exactly
the families whose co-singleton set is {[n] - {i} : i < k} and whose
sets t form that graph. A relabeling of [n] maps any co-singleton set S
of k elements onto that one, and one of [k] maps any graph of the class
onto the least one, and each keeps the empty set, the height, separation
and |B| (the size of a minimum cover); so the families with co-singleton
set S and a given graph that pass a label-free gate are as many as those
of the seed, the k-sets are C(n, k) and the class's graphs are k! /
|Aut G|. A seed's passed count, times C(n, k) k! / |Aut G|, its weight,
summed over the seeds, is the count of the full walk. Each seed's walk
runs the full walk's kernel on fewer leaves (1,420 of 15,067 at n = 5
under height cap 3, from 53 seeds). A label-free check holds on a
representative exactly where it holds on all of its relabelings, so an
orbit walk that finds no violation gives the report; one that finds a
violation is followed by the full walk, which lists them all in DFS
order. At n = 2 each t is the empty set and under a cap of 2 no t fits,
so there the seeds decide only the co-singletons; n = 1, whose
co-singleton is the empty set, keeps the full walk; a visitor, a
label-reading check (T1.2's tie-breaks, L2.1.1's trace, the least cover
of PROPS) and hypothesis-necessity mode do too.

The hard cap is n <= 5. The independent oracle `brute_force_uc` (n <= 4)
iterates all 2^(2^n) subfamilies of the power set and filters; it shares no
machinery with the DFS and exists to validate it.

A parallel run turns a walk's seeds into tasks, one seed each (`_split`):
each seed's walk decides only the few highest masks that the seed leaves
open, with the open masks below them added to its skip; each member word
it holds there heads a disjoint subtree, run as one task with the seed's
weight, and per-task results are merged in DFS order, so reports are
identical for any worker count, and the worker count does not choose
between the orbit and the full walk. Progress comes as each task's
results arrive.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable

from .bfamily import _b_report, _least_cover, _prop_letters, _prop_suite
from .chains import _lemma13_status, _size_bound_trace, _thm12_witness, chain_report, thm12_bound
from .core import (
    _LANE_FORMATS, Family, _byte_masks, avg_size, frankl_witness, frequencies, is_separating
)
from .errors import InternalError, NTooLarge

ENUMERATION_CAP = 5
ORACLE_CAP = 4
_SPLIT_DEPTH = 5


@dataclass(frozen=True)
class EnumFilter:
    """Per-family constraints applied to enumerated families.

    `separating` and `contains_empty` are None (no test), True or False;
    `height` and `bsize` (the minimum cover size |B| of the small slice)
    each accept an exact int or an inclusive (lo, hi) pair of ints. The
    gates run cheapest first: the empty set, height, separation, then the
    cover search. `matches` tests a `Family`; a walk reads the filter once
    into `_gate`, the same tests on a leaf's height and words, and the
    tests hold that to `matches` on every leaf.
    """

    separating: bool | None = None
    height: int | tuple[int, int] | None = None
    bsize: int | tuple[int, int] | None = None
    contains_empty: bool | None = None

    def __post_init__(self) -> None:
        for name in ("separating", "contains_empty"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise ValueError(f"{name} must be None, True or False, got {value!r}")
        for name in ("height", "bsize"):
            spec = getattr(self, name)
            if spec is None:
                continue
            pair = spec if isinstance(spec, tuple) and len(spec) == 2 else (spec,)
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in pair):
                raise ValueError(f"{name} must be an int or a (lo, hi) pair of ints, got {spec!r}")
            lo, hi = _bounds(spec)
            if lo > hi:
                raise ValueError(f"empty {name} range {spec}: lo > hi")

    def matches(self, fam: Family, h: int) -> bool:
        if self.contains_empty is not None and (0 in fam.members) != self.contains_empty:
            return False
        if self.height is not None and not _within(h, self.height):
            return False
        if self.separating is not None and is_separating(fam) != self.separating:
            return False
        if self.bsize is not None and not _within(_b_report(fam, h).size, self.bsize):
            return False
        return True


def _bounds(spec: int | tuple[int, int]) -> tuple[int, int]:
    """The inclusive (lo, hi) range an exact int or (lo, hi) spec stands for."""
    return (spec, spec) if isinstance(spec, int) else spec


def _within(value: int, spec: int | tuple[int, int]) -> bool:
    lo, hi = _bounds(spec)
    return lo <= value <= hi


def _walk_cap(filt: EnumFilter | None) -> int | None:
    """The height cap of a walk under the filter: its height range's hi,
    or None for no cap."""
    return None if filt is None or filt.height is None else _bounds(filt.height)[1]


class _Words:
    """The per-n tables of the walk and the leaf facts, as words of 2^n
    bits, bit m standing for mask m. Per mask m < 2^n: `below[m]`, its
    subsets; `above[m]`, its supersets; `lifts[m]`, one (word of the masks
    holding i, 2^i) pair per element i of m; and `splits[m]`, a word of
    C(n, 2) bits, bit q set where m holds exactly one element of pair q
    (pairs in `itertools.combinations` order). Besides: `holding[i]`, the
    masks holding element i; `every`, the word of all pairs, the `split` of
    a separating family; `small`, the masks m with 2|m| < n; `coatoms`, one
    (bit, `below` word) pair per mask of n - 1 elements; `octets`, one
    (`_byte_masks` table, shift) pair per byte of a word, for `masks`. The
    tables never change once built."""

    def __init__(self, n: int) -> None:
        size = 1 << n
        full = size - 1
        self.n = n
        self.holding = tuple(sum(1 << t for t in range(size) if t >> i & 1) for i in range(n))
        self.below = tuple(sum(1 << t for t in range(size) if t & m == t) for m in range(size))
        self.above = tuple(sum(1 << t for t in range(size) if t & m == m) for m in range(size))
        self.lifts = tuple(
            tuple((self.holding[i], 1 << i) for i in range(n) if m >> i & 1) for m in range(size)
        )
        pairs = tuple(itertools.combinations(range(n), 2))
        self.splits = tuple(
            sum(1 << q for q, (i, j) in enumerate(pairs) if (m >> i ^ m >> j) & 1) for m in range(size)
        )
        self.every = (1 << len(pairs)) - 1
        self.small = sum(1 << m for m in range(size) if 2 * m.bit_count() < n)
        self.coatoms = tuple((1 << c, self.below[c]) for c in (full ^ (1 << i) for i in range(n)))
        self.octets = tuple((_byte_masks(shift), shift) for shift in range(0, size, 8))

    def masks(self, word: int) -> tuple[int, ...]:
        """The masks whose bits a word of 2^n bits sets, ascending: one
        table lookup per byte."""
        out = ()
        for table, shift in self.octets:
            out += table[word >> shift & 255]
        return out


_leaf_words = functools.cache(_Words)


class _Leaf:
    """One DFS leaf: its member word `have` (bit m for mask m), its height
    `h`, and the facts the cheap conclusions read, each a few
    operations on `have` and the words of `_leaf_words`. `fam`, the leaf as
    a `Family`, is built from `have` on first use."""

    __slots__ = ("words", "have", "h", "_fam")

    def __init__(self, words: _Words, have: int, h: int) -> None:
        # one store each: a four-name tuple assignment packs and unpacks a tuple
        self.words = words
        self.have = have
        self.h = h
        self._fam = None

    @property
    def fam(self) -> Family:
        if self._fam is None:
            self._fam = Family(self.words.n, self.words.masks(self.have))
        return self._fam

    def frequencies(self) -> list[int]:
        """How many members hold each element (`core.frequencies`); they sum
        to the total member size."""
        have = self.have
        return [(have & word).bit_count() for word in self.words.holding]

    def min_cover(self) -> tuple[int, ...]:
        """`_b_report`'s cover, whose length is |B|: `_min_cover` of the leaf."""
        return _min_cover(self.words, self.have, self.h)

    def lemma13_holds(self) -> bool:
        """Lemma 1.3's conclusion: every member but [n] lies in an
        (n-1)-element member, so every child of [n] has n - 1 elements."""
        have = self.have
        covered = 1 << (1 << self.words.n) - 1  # [n] itself
        for bit, below in self.words.coatoms:
            if have & bit:
                covered |= below
        return not have & ~covered

    def size_levels(self) -> tuple[tuple[int, int], ...]:
        """`_size_bound_trace`'s (size, base size) levels, with the same
        tie-breaks and error, one `_size_step` a level. After the first
        level the reduction reads only the reduced word, so the rest of the
        levels is `_size_tail` of it."""
        level, kept = _size_step(self.words.holding, self.have)
        return (level, *_size_tail(self.words, kept)) if kept else (level,)

    def chain_facts(self) -> tuple[tuple[int, ...], int]:
        """`chain_report`'s witness chain and r, the fewest sets in a maximal
        chain: `_descent` from [n], the top of the member word."""
        _, fewest, chain = _descent(self.words, self.have)
        return chain, fewest

    def thm12_pick(self, chain: tuple[int, ...]) -> tuple[int, int]:
        """`_thm12_witness`'s element (1-based) and its frequency over the
        family: the least element of each difference down the chain, counted
        over the members but the chain's ends, the first maximum winning."""
        holding = self.words.holding
        rest = self.have & ~(1 << chain[0] | 1 << chain[-1])
        best = -1
        for a, b in zip(chain, chain[1:]):
            e = _lowest(a ^ b)  # b lies inside a
            count = (rest & holding[e]).bit_count()
            if count > best:
                best, pick = count, e
        return pick + 1, (self.have & holding[pick]).bit_count()


def _descent(words: _Words, word: int) -> tuple[int, int, tuple[int, ...]]:
    """For the member x that tops a member word holding x and the members
    inside it: the most and the fewest sets in a maximal chain down from x,
    and `chain_report`'s witness chain from x.

    The children of x, the maximal members properly inside it, come off
    from the top: the highest member left is maximal, since a member above
    it is larger, so it is a child already taken or lies inside one, and
    taking a child drops its subsets. A longest chain from x runs through a
    child with a longest chain, and a shortest maximal chain through a child
    with a shortest one. The witness chain steps to the least member inside
    x that tops a chain one set shorter than x's; that member is a child
    (a member between them would top a longer chain), so it is the least
    child with a longest chain. A child y's facts read only the members
    inside y, `word & below[y]`, so they come from the cache
    `_child_descent` of that word; the word of a whole leaf is new each
    time and is not cached. The facts read `below` only at masks inside x
    and n only as a bound above every chain's length, so they are the same
    at every n whose table holds x."""
    below = words.below
    x = word.bit_length() - 1
    rest = word ^ 1 << x
    if not rest:
        return 1, 1, (x,)
    most, fewest = 0, words.n + 1  # no chain inside x has n + 1 sets
    while rest:
        y = rest.bit_length() - 1
        rest &= ~below[y]
        facts = _child_descent(word & below[y])
        if facts[0] >= most:  # children come off in descending order, so the least wins a tie
            most, chain = facts[0], facts[2]
        if facts[1] < fewest:
            fewest = facts[1]
    return most + 1, fewest + 1, (x, *chain)


def _size_step(holding: tuple[int, ...], members: int) -> tuple[tuple[int, int], int]:
    """One level of `_size_bound_trace` on a member word: its (size, base
    size), and the reduced word, or 0 after a one-member level. Restricting
    to the members holding x is `& holding[x]`; deleting an x that every
    member holds moves bit m to m - 2^x, which is one shift of the whole
    word."""
    counts = [(members & word).bit_count() for word in holding]
    size = members.bit_count()
    level = (size, len(counts) - counts.count(0))
    if size == 1:
        return level, 0
    x = counts.index(max(counts))
    kept = members & holding[x]
    if kept == members:
        members >>= 1 << x
        counts = [(members & word).bit_count() for word in holding]
        kept = members & holding[counts.index(max(counts))]
    if not kept or kept.bit_count() >= size:
        raise InternalError("size-bound reduction failed to shrink the family")
    return level, kept


# The caches of the leaf facts that read a smaller word than the leaf's,
# pure functions of (`_leaf_words(n)`, word), or of the word alone where
# the facts do not depend on n. A call that raises is not cached. At
# n <= ENUMERATION_CAP each holds at most the words a walk can meet; at
# n = 5: 25,250 slice words for the cover (those of every family; the bound
# is 2^16), 1,614 words for the PROPS verdicts (its 346,028 families),
# 23,701 child words (T1.2 uncapped) and 20,390 reduced words (L2.1.1
# uncapped).
@functools.cache
def _child_descent(word: int) -> tuple[int, int, tuple[int, ...]]:
    """`_descent` of a member word below a child, keyed by the word alone:
    it is computed with the table of the least n that holds the word's top
    member, so a walk at n reuses the words met at every smaller n."""
    return _descent(_leaf_words(max(1, (word.bit_length() - 1).bit_length())), word)


@functools.cache
def _slice_cover(words: _Words, part: int) -> tuple[int, ...]:
    """`_least_cover` of the slice members in a slice word, searched up to
    all of them: the least minimum cover of their union."""
    small = words.masks(part)
    b = 0
    for x in small:
        b |= x
    return _least_cover(small, b, len(small))


@functools.cache
def _props_verdicts(words: _Words, part: int) -> frozenset[bool | None]:
    """The verdicts of the PROPS letters that apply to a separating family
    of height 4 whose members inside b(B) are the members in a word:
    `bfamily._prop_letters` of them with no average, so None stands for B
    where its verdict turns on whether the average meets n/2."""
    return frozenset(r.holds for r in _prop_letters(words.n, words.masks(part), None).values())


@functools.cache
def _size_tail(words: _Words, members: int) -> tuple[tuple[int, int], ...]:
    """The levels of `_size_step` from a member word on."""
    levels = []
    while members:
        level, members = _size_step(words.holding, members)
        levels.append(level)
    return tuple(levels)


def _min_cover(words: _Words, have: int, h: int) -> tuple[int, ...]:
    """`_b_report`'s cover of a member word of height h, whose length is
    |B|: `_slice_cover` of its slice word, and the error `_b_report` raises
    where that has more members than h."""
    cover = _slice_cover(words, have & words.small)
    if len(cover) > h:
        raise InternalError("cover search exceeded the height cap")
    return cover


def _lowest(word: int) -> int:
    """The index of the lowest set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


def _dfs(
    n: int,
    emit: Callable[[int, int, int], None],
    h_cap: int | None,
    prefix: int = 0,
    skip: int = 0,
) -> None:
    """Run the generator from one seed, calling emit(height, member word,
    split word) at each leaf.

    The walk decides the candidates from [n] - 1 down, each by recursing
    with it included and then stepping on without it. Only candidates in
    `legal & ~under[cap - 1]` are tried: every other one fails the union or
    height test, so skipping it visits the same leaves in the same order.
    `prefix` is a word of members below [n] that the seed fixes; they are
    legal and within the height cap by construction, and are added first,
    in descending order, by `rec`'s include step, their split words or'd
    into that of [n], which is 0. `skip` is the word of the masks the seed
    decides, members of `prefix` or left out, so it holds `prefix`: it is
    taken out of `legal` once, at the root, so no candidate below reads it.
    It must not hold the empty set, whose leaves are emitted without a look
    at `legal`.

    `rec` emits the empty set's include-child, the leaf (h + 1, have | 1,
    split), without a call, and only where h + 1 is within the cap. An
    include-child with no candidate but the empty set is emitted in place,
    its empty-set leaf first. The child's open word lies inside what is
    left of its parent's, so where that holds no candidate but the empty
    set, the include step skips the narrowing of `legal` and the raise of
    `under[k]` and works out only k. The leaves and their order are those
    of one call per include.
    """
    words = _leaf_words(n)
    below, above, lifts, splits = words.below, words.above, words.lifts, words.splits
    full = (1 << n) - 1
    # no chain over [n] is longer than n + 1, and under a cap below 2 only [n] fits
    top = (n + 1 if h_cap is None else max(1, min(h_cap, n + 1))) - 1
    under = [below[full]] + [0] * top

    def rec(cand: int, h: int, legal: int, have: int, split: int) -> None:
        # cand: the open word `legal & ~under[top]` below the last decided
        # candidate; above 1, it holds a candidate besides the empty set
        while cand > 1:
            s = cand.bit_length() - 1
            bit = 1 << s
            cand ^= bit
            k = 1
            while under[k] >> s & 1:
                k += 1
            g = h if h > k else k + 1
            child, cut = have | bit, split | splits[s]
            # the child's open word lies inside what is left of cand, so only
            # where that is above 1 can the child have a candidate to decide
            if cand > 1:
                # t | s = u for a member u above s exactly when t is u less some subset of s
                p = child & above[s]
                for holding, shift in lifts[s]:
                    p |= (p & holding) >> shift
                old = under[k]
                under[k] = old | below[s]
                narrowed = legal & p
                opened = narrowed & ~under[top] & (bit - 1)
                if opened > 1:
                    rec(opened, g, narrowed, child, cut)
                    under[k] = old
                    continue
                under[k] = old
            # a childless child's leaves, in place: its empty-set leaf, then itself
            if g <= top:
                emit(g + 1, child | 1, cut)
            emit(g, child, cut)
        if h <= top and cand & 1:
            emit(h + 1, have | 1, split)
        emit(h, have, split)

    h, legal, have, split = 1, below[full] & ~skip, 1 << full, splits[full]
    for s in reversed(words.masks(prefix)):
        # rec's include step, and the height that s's level k gives
        k = 1
        while under[k] >> s & 1:
            k += 1
        have |= 1 << s
        split |= splits[s]
        p = have & above[s]
        for holding, shift in lifts[s]:
            p |= (p & holding) >> shift
        under[k] |= below[s]
        legal &= p
        h = max(h, k + 1)
    rec(legal & ~under[top] & ((1 << full) - 1), h, legal, have, split)


_Seed = tuple[int, int, int]  # (prefix, skip, weight)
_FULL_WALK: tuple[_Seed, ...] = ((0, 0, 1),)


@functools.cache
def _graph_classes(k: int) -> tuple[tuple[int, int], ...]:
    """The isomorphism classes of graphs on [k], one (edge word, size) pair
    each, in ascending order of edge word: bit q of an edge word is set
    where the graph holds pair q of [k] (pairs in `itertools.combinations`
    order), and a class's size is k! / |Aut G|, its number of graphs. A
    class's word is the least of its graphs': an orbit sweep takes the
    least graph not yet met and marks its images under the k! relabelings
    of [k]."""
    pairs = list(itertools.combinations(range(k), 2))
    index = {pair: q for q, pair in enumerate(pairs)}
    # per relabeling, the bit of each pair's image
    moves = [
        tuple(1 << index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pairs)
        for perm in itertools.permutations(range(k))
    ]
    met = bytearray(1 << len(pairs))
    classes = []
    for graph in range(1 << len(pairs)):
        if met[graph]:
            continue
        edges = [q for q in range(len(pairs)) if graph >> q & 1]
        orbit = {sum(move[q] for q in edges) for move in moves}
        for image in orbit:
            met[image] = 1
        classes.append((graph, len(orbit)))
    return tuple(classes)


@functools.cache
def _orbit(n: int, h_cap: int | None) -> tuple[_Seed, ...]:
    """The orbit walk's seeds under a height cap (see the module
    docstring), in order of k and then of edge word. Each has the
    co-singletons [n] - {i} with i < k in its prefix and every co-singleton
    in its skip. From n = 3 under a cap of 3 or more, it also decides the
    sets t = [n] - {i, j} with i < j < k, as one graph class G of
    `_graph_classes(k)`: the prefix adds the t of G's least graph, the skip
    adds every such t, and the seed weighs C(n, k) times the class size.
    Otherwise seed k decides only the co-singletons and weighs C(n, k): at
    n = 2 each t is the empty set, which no skip may hold, and under a cap
    of 2 no t fits. Under a cap below 2 no co-singleton fits, so only seed
    0 is left; n = 1, whose one co-singleton is the empty set, keeps the
    full walk. The seeds are built once per (n, cap)."""
    if n == 1:
        return _FULL_WALK
    full = (1 << n) - 1
    cosingles = [bit for bit, _ in _leaf_words(n).coatoms]
    graphs = n >= 3 and (h_cap is None or h_cap >= 3)
    seeds = []
    for k in range(n + 1 if h_cap is None or h_cap >= 2 else 1):
        if graphs:
            sets = [1 << (full ^ 1 << i ^ 1 << j) for i, j in itertools.combinations(range(k), 2)]
            classes = _graph_classes(k)
        else:
            sets, classes = [], ((0, 1),)  # the one empty graph
        prefix, skip = sum(cosingles[:k]), sum(cosingles) + sum(sets)
        for edges, size in classes:
            chosen = sum(bit for q, bit in enumerate(sets) if edges >> q & 1)
            seeds.append((prefix + chosen, skip, math.comb(n, k) * size))
    return tuple(seeds)


def _split(n: int, h_cap: int | None, seeds: tuple[_Seed, ...]) -> list[_Seed]:
    """The seeds of a parallel run of a walk, one per task, in DFS order.
    Each seed's walk decides only the _SPLIT_DEPTH highest masks below [n]
    that the seed leaves open (outside its `skip`) and the empty set: the
    open masks below them are added to its skip. Its leaves without the
    empty set are the nodes where those decisions end; each heads a
    disjoint subtree, whose seed has that leaf's members below [n] as its
    prefix, the decided masks added to its skip, and the walk's weight.
    The tasks' leaves, in order, are the walk's."""
    full = (1 << n) - 1
    masks = _leaf_words(n).masks
    tasks: list[_Seed] = []
    for prefix, skip, weight in seeds:
        opened = masks(((1 << full) - 2) & ~skip)  # from 1 to [n] - 1, ascending
        low = sum(1 << m for m in opened[:-_SPLIT_DEPTH])
        high = sum(1 << m for m in opened[-_SPLIT_DEPTH:])

        def cut(h: int, have: int, split: int) -> None:
            if not have & 1:
                tasks.append((have ^ 1 << full, skip | high, weight))

        _dfs(n, cut, h_cap, prefix, skip | low)
    return tasks


def _gate(filt: EnumFilter | None, words: _Words) -> Callable[[int, int, int], bool] | None:
    """The filter read once for a walk under its height cap, as one test of
    a leaf's height, member word and split word that passes a leaf of that
    walk exactly where `filt.matches` would, or None where the filter leaves
    nothing to test. It runs `matches`'s tests in its order: the empty
    set's bit, the height, separation, which holds when the split word is
    `every`, and the cover size, the length of `_min_cover`. The walk's cap
    is the height range's hi and every leaf has h >= 1, so the height test
    is h >= lo, made only where lo >= 2; a cap below 1 still emits the one
    leaf {[n]}, of height 1, which h >= 2 then rejects."""
    if filt is None:
        return None
    empty, separating, bsize = filt.contains_empty, filt.separating, filt.bsize
    lo, hi = _bounds(filt.height) if filt.height is not None else (1, 1)
    least = lo if hi >= 1 else 2
    if (empty, separating, bsize) == (None, None, None) and least < 2:
        return None
    every = words.every
    low, most = (0, 0) if bsize is None else _bounds(bsize)

    def admit(h: int, have: int, split: int) -> bool:
        if empty is not None and (have & 1) != empty:
            return False
        if h < least:
            return False
        if separating is not None and (split == every) != separating:
            return False
        return bsize is None or low <= len(_min_cover(words, have, h)) <= most

    return admit


def _walk(
    n: int,
    filt: EnumFilter | None,
    visit: Callable[[_Leaf], None] | None,
    seeds: tuple[_Seed, ...] = _FULL_WALK,
    progress: Callable[[int], None] | None = None,
) -> tuple[int, int]:
    """Run the DFS from each (prefix, skip, weight) seed in turn (prefix
    and skip as in _dfs) under the filter's height cap and call visit(leaf)
    on each leaf that passes the filter's `_gate`; returns how many leaves
    it visited and how many families passed, each counted `weight` times.
    The full walk is the one seed `_FULL_WALK`; an orbit walk, for a caller
    whose filter and `visit` read no labels, has `_orbit`'s seeds, and its
    visited count is of the representatives; a parallel task has one seed
    of `_split`'s. A leaf becomes a `_Leaf` only for `visit`, so without
    one the walk builds none. `progress` gets the visited count every
    100,000 leaves. The walk keeps no state besides its counts: the tables
    it reads never change, and the leaf facts it caches depend only on
    their keys."""
    cap = _walk_cap(filt)
    words = _leaf_words(n)
    admit = _gate(filt, words)
    visited = passed = 0

    def emit(h: int, have: int, split: int) -> None:
        nonlocal visited, passed
        visited += 1
        if progress is not None and visited % 100000 == 0:
            progress(visited)
        if admit is not None and not admit(h, have, split):
            return
        if visit is not None:
            visit(_Leaf(words, have, h))
        passed += weight  # the weight of the seed being walked

    for prefix, skip, weight in seeds:
        _dfs(n, emit, cap, prefix, skip)
    return visited, passed


def enumerate_uc(
    n: int,
    filt: EnumFilter | None = None,
    visitor: Callable[[Family], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> int:
    """Visit every union-closed family with base exactly [n] that passes the
    filter, in deterministic order; returns how many passed. With no
    visitor nothing reads a family's labels, so the count comes from the
    orbit walk of `_orbit`'s seeds, which visits only the families whose
    co-singletons [n] - {i} are those with i < k and whose sets
    [n] - {i, j} inside [k] form the least graph of their class, and
    counts each C(n, k) times the class size. `progress` gets the visited
    count every 100,000 walk leaves, which on that walk are those
    representatives."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise NTooLarge(f"enumeration needs 1 <= n <= {ENUMERATION_CAP}")
    if visitor:
        return _walk(n, filt, lambda leaf: visitor(leaf.fam), progress=progress)[1]
    return _walk(n, filt, None, _orbit(n, _walk_cap(filt)), progress)[1]


@functools.cache
def _relabel_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], struct.Struct]:
    """Per permutation of [n], in itertools.permutations order, the image of
    every mask; per mask m, its lane word: lane p (`max(8, 2^n)` bits wide)
    has bit 2^n - 1 - image_p(m) set; and the struct that unpacks a sum of
    lane words into its n! lane keys."""
    size = 1 << n
    width = max(8, size)
    images = tuple(
        tuple(sum(((m >> i) & 1) << perm[i] for i in range(n)) for m in range(size))
        for perm in itertools.permutations(range(n))
    )
    words = tuple(
        sum(1 << (p * width + size - 1 - image[m]) for p, image in enumerate(images))
        for m in range(size)
    )
    return images, words, struct.Struct(f"<{len(images)}{_LANE_FORMATS[width]}")


def canonical_form(fam: Family) -> Family:
    """Least image of the family under all n! relabelings of [n]: the image
    whose ascending member tuple is lexicographically least.

    Each member's lane word marks, in lane p, its image under permutation p
    by the bit 2^n - 1 - image. A permutation maps distinct members to
    distinct images, so summing the members' words never carries between
    lanes, and lane p holds the key sum(2^(2^n - 1 - s)) of the image set
    under p. All images have |F| members, and for two sets of equal size the
    larger key is the smaller ascending tuple: the least element of their
    symmetric difference decides both orders. So the first lane with the
    largest key names the least image (a tie means an equal image); only
    that image is sorted.

    No walk reads it (the verification quantifies over all families, and
    the orbit walk's weights keep its counts exact without canonical
    forms); this pass exists for reporting, e.g. counting enumerated
    families up to relabeling. Same n <= 5 cap as the enumerator, since the
    tables hold n! images.
    """
    if fam.n > ENUMERATION_CAP:
        raise NTooLarge(f"canonical form is capped at n <= {ENUMERATION_CAP}")
    images, words, lanes = _relabel_tables(fam.n)
    keys = lanes.unpack(sum(map(words.__getitem__, fam.members)).to_bytes(lanes.size, "little"))
    image = images[keys.index(max(keys))]
    return Family(fam.n, tuple(sorted(map(image.__getitem__, fam.members))))


def brute_force_uc(n: int) -> list[Family]:
    """Independent oracle: filter all 2^(2^n) subfamilies of the power set
    for union-closedness with base [n]; used only to validate enumerate_uc."""
    if not 1 <= n <= ORACLE_CAP:
        raise NTooLarge(f"the naive oracle needs 1 <= n <= {ORACLE_CAP}")
    full = (1 << n) - 1
    full_bit = 1 << full
    out = []
    for fm in range(1, 1 << (1 << n)):
        if not fm & full_bit:
            # base [n] plus union-closedness forces [n] itself to be a member
            continue
        # with [n] a member the base is [n]; only union-closedness is left
        members = [s for s in range(full + 1) if fm >> s & 1]
        have = set(members)
        if all(x | y in have for x, y in itertools.combinations(members, 2)):
            out.append(Family(n, tuple(members)))
    return out


# ---------------------------------------------------------------------------
# Theorem verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    family: Family
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    theorem: str
    n: int
    hypothesis: str
    families_checked: int
    violations: tuple[Violation, ...]
    elapsed: float
    mode: str = "verify"

    @property
    def ok(self) -> bool:
        if self.mode == "hypothesis-necessity":
            return bool(self.violations)
        return not self.violations


def _thm12(fam: Family, h: int) -> list[str]:
    rep = chain_report(fam)
    maxfreq = max(frequencies(fam))
    details = []
    for name, value in (("h", rep.height), ("r", rep.r)):
        bound = thm12_bound(len(fam), value)
        if maxfreq < bound:
            details.append(f"max frequency {maxfreq} < bound {bound} at {name}={value}")
    wit = _thm12_witness(fam, rep)
    if wit.count < wit.bound:
        details.append(f"witness element {wit.element} count {wit.count} < bound {wit.bound}")
    return details


def _thm12_holds(leaf: _Leaf) -> bool:
    # _thm12's three bounds as frequency * (k - 1) >= |F| + k - 3. The
    # witness count is at most the max frequency, so where it meets a bound
    # the max frequency does too, and the frequencies are read only when
    # the count falls short at r
    size = leaf.have.bit_count()
    h = leaf.h
    chain, r = leaf.chain_facts()
    _, count = leaf.thm12_pick(chain)
    if count * (h - 1) < size + h - 3:
        return False
    return count * (r - 1) >= size + r - 3 or max(leaf.frequencies()) * (r - 1) >= size + r - 3


def _lemma13(fam: Family, h: int) -> list[str]:
    rep = _lemma13_status(fam)
    return [] if rep.ok else [f"maximal chain without size-(n-1) member: {rep.offending_chain}"]


def _avg_half(fam: Family, h: int) -> list[str]:
    """T1.4 and T2.1; in necessity mode T2.1's violations are the point of the run."""
    avg, half = avg_size(fam), Fraction(fam.n, 2)
    return [] if avg >= half else [f"avg {avg} < {half}"]


def _avg_half_holds(leaf: _Leaf) -> bool:
    # avg >= n/2 with avg = total / |F|, the total being the sum of the frequencies
    return 2 * sum(leaf.frequencies()) >= leaf.words.n * leaf.have.bit_count()


def _size_bound(fam: Family, h: int) -> list[str]:
    details = [f"|family| {len(fam)} < n {fam.n}"] if len(fam) < fam.n else []
    try:
        trace = _size_bound_trace(fam)
        if not trace.ok:
            details.append(f"reduction trace breached size >= base: {trace.levels}")
    except InternalError as exc:
        details.append(f"reduction failed: {exc}")
    return details


def _size_bound_holds(leaf: _Leaf) -> bool:
    # the first level is (|F|, n), so it also tests |F| >= n
    try:
        return all(size >= base for size, base in leaf.size_levels())
    except InternalError:
        return False


def _frankl(fam: Family, h: int) -> list[str]:
    w = frankl_witness(fam)
    return [] if w.ok else [f"best element {w.element} in {w.count} members < {w.threshold}"]


def _frankl_holds(leaf: _Leaf) -> bool:
    return 2 * max(leaf.frequencies()) >= leaf.have.bit_count()


def _avg_floor(fam: Family, h: int) -> list[str]:
    avg, floor_bound = avg_size(fam), fam.n // 2 - 1
    return [] if avg > floor_bound else [f"avg {avg} <= {floor_bound}"]


def _avg_floor_holds(leaf: _Leaf) -> bool:
    return sum(leaf.frequencies()) > (leaf.words.n // 2 - 1) * leaf.have.bit_count()


def _props(fam: Family, h: int) -> list[str]:
    failed = [(k, r) for k, r in _prop_suite(fam, h, True).items() if r.applicable and not r.holds]
    return [f"proposition {k} failed: {r.witness}" for k, r in failed]


def _props_holds(leaf: _Leaf) -> bool:
    """True when `_props` finds no failing letter, the gate having tested
    separation. Every letter reads only the members inside b(B), so their
    verdicts are `_props_verdicts` of the word of those members; where b(B)
    lacks at most one element of [n], A-C do not apply and the other
    letters read only the slice, so the key is the slice word. B, where its
    verdict is open, holds exactly where the average meets n/2."""
    if leaf.h != 4:
        return True
    words = leaf.words
    b = 0
    for c in leaf.min_cover():
        b |= c
    part = leaf.have & (words.below[b] if b.bit_count() < words.n - 1 else words.small)
    verdicts = _props_verdicts(words, part)
    return False not in verdicts and (None not in verdicts or _avg_half_holds(leaf))


@dataclass(frozen=True)
class _Check:
    """One check id: its hypotheses as text, as a leaf filter and as the least n
    the result is stated for, and its conclusion: the violation details for a
    (family, height) pair that passes the filter. `holds` decides the
    conclusion on a leaf's words; only a leaf it rejects runs `conclude`,
    which gives the details. `label_free` marks a check whose filter and
    conclusion are unchanged by a relabeling of [n], so that a run may take
    the orbit walk of `_orbit`'s seeds."""

    hypothesis: str
    filt: EnumFilter
    conclude: Callable[[Family, int], list[str]]
    holds: Callable[[_Leaf], bool]
    least_n: int = 1
    label_free: bool = False


_SEP = EnumFilter(separating=True)
_SEP_H4_B2 = EnumFilter(separating=True, height=4, bsize=(0, 2))
_CHECKS = {
    # with [n] a member, |family| > 1 is h >= 2; no leaf is taller than
    # n + 1, so the upper bound prunes nothing
    "T1.2": _Check("union-closed, |family| > 1"
                   " (max frequency >= (|family|+h-3)/(h-1), also with r)",
                   EnumFilter(height=(2, ENUMERATION_CAP + 1)), _thm12, holds=_thm12_holds),
    "L1.3": _Check("separating (every maximal chain holds a size n-1 member)", _SEP, _lemma13,
                   holds=_Leaf.lemma13_holds, label_free=True),
    "T1.4": _Check("separating, height <= 3 (average size >= n/2)",
                   EnumFilter(separating=True, height=(1, 3)), _avg_half, holds=_avg_half_holds,
                   label_free=True),
    "L2.1.1": _Check("separating (|family| >= n, with reduction trace)", _SEP, _size_bound,
                     holds=_size_bound_holds),
    "T2.1": _Check("separating, height 4, n >= 4, cover size <= 2 (average size >= n/2)",
                   _SEP_H4_B2, _avg_half, least_n=4, holds=_avg_half_holds, label_free=True),
    "C2.2": _Check("separating, height 4, n >= 4, cover size <= 2"
                   " (some element in half the members)", _SEP_H4_B2, _frankl, least_n=4,
                   holds=_frankl_holds, label_free=True),
    "T4.1": _Check("separating, height 4, cover size 4 (average size > floor(n/2) - 1)",
                   EnumFilter(separating=True, height=4, bsize=4), _avg_floor,
                   holds=_avg_floor_holds, label_free=True),
    "PROPS": _Check("separating, height 4 (all applicable propositions A-L hold)",
                    EnumFilter(separating=True, height=4), _props, holds=_props_holds),
}

THEOREM_IDS = tuple(_CHECKS)


def _run_serial(
    tid: str,
    n: int,
    seeds: tuple[_Seed, ...],
    progress: Callable[[int], None] | None = None,
) -> tuple[int, list[Violation], int]:
    """One check id over one walk, a whole walk's seeds or one parallel
    task's (arguments as in _walk): how many families it checked, which are
    the families that pass its filter, their violations and how many leaves
    it visited. Only a leaf that `holds` rejects runs `conclude`."""
    check = _CHECKS[tid]
    holds, conclude = check.holds, check.conclude
    violations: list[Violation] = []

    def visit(leaf: _Leaf) -> None:
        if not holds(leaf):
            violations.extend(Violation(leaf.fam, d) for d in conclude(leaf.fam, leaf.h))

    visited, checked = _walk(n, check.filt, visit, seeds, progress)
    return checked, violations, visited


def verify_theorem(
    tid: str,
    n: int,
    workers: int | None = None,
    hypothesis_necessity: bool = False,
    progress: Callable[[int], None] | None = None,
) -> VerifyReport:
    """Enumerate all qualifying families and check one theorem's conclusion.

    With hypothesis_necessity (T2.1 only) the n >= 4 hypothesis is dropped
    and the report lists the families that then break the conclusion; the
    run demonstrates why the hypothesis is needed. A label-free check,
    outside that mode, takes the orbit walk of `_orbit`'s seeds, over one
    family per class of co-singleton sets and graphs of sets [n] - {i, j},
    each counted as often as its class has members; where one of them
    fails it walks every family, so the report is the same either way.
    The walk runs in-process, or, with more than one worker at n >= 4, as
    `_split`'s tasks on a process pool, whose results are merged in DFS
    order, so the worker count does not change which walk runs or what it
    reports. `progress` gets the visited count
    (representatives, on an orbit walk) every 100,000 leaves of an
    in-process walk, and the running total as each task's results arrive
    on a pool.
    """
    if tid not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")
    if not 1 <= n <= ENUMERATION_CAP:
        raise NTooLarge(f"enumeration needs 1 <= n <= {ENUMERATION_CAP}")
    if hypothesis_necessity and tid != "T2.1":
        raise ValueError("hypothesis-necessity mode applies to T2.1 only")

    if workers is None:
        threads = os.environ.get("UCF_THREADS", "1")
        try:
            workers = int(threads)
        except ValueError:
            raise ValueError(f"UCF_THREADS must be an integer, got {threads!r}") from None
    workers = max(1, workers)

    check = _CHECKS[tid]
    start = time.perf_counter()
    cap = _walk_cap(check.filt)
    # necessity mode is run to list the violations, so it walks them all at once;
    # an orbit walk that finds one is followed by the full walk, which lists them all
    orbit = check.label_free and not hypothesis_necessity
    walks = (_orbit(n, cap), _FULL_WALK) if orbit else (_FULL_WALK,)
    checked, violations = 0, []
    # below the least n the result is stated for, no family is checked
    for seeds in walks if n >= check.least_n or hypothesis_necessity else ():
        if workers == 1 or n <= 3:
            checked, violations, _ = _run_serial(tid, n, seeds, progress)
        else:
            # each pool task walks the one seed that `_split` made it
            tasks = [(task,) for task in _split(n, cap, seeds)]
            run = functools.partial(_run_serial, tid, n)
            checked, violations, visited = 0, [], 0
            with get_context().Pool(processes=min(workers, len(tasks))) as pool:
                # in DFS order, each task's results as soon as it and those before it are done
                for part_checked, part_violations, part_visited in pool.imap(run, tasks):
                    checked += part_checked
                    violations += part_violations
                    visited += part_visited
                    if progress is not None:
                        progress(visited)
        if not violations:
            break

    return VerifyReport(
        theorem=tid,
        n=n,
        hypothesis=check.hypothesis,
        families_checked=checked,
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
        mode="hypothesis-necessity" if hypothesis_necessity else "verify",
    )
