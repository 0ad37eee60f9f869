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
is at most |F| deep.

Each check id of the verifier is one table row: its hypotheses as text, as
an `EnumFilter` (height, separation, cover size |B|) and as the least n the
result is stated for, and its conclusion. The enumerator's leaf loop runs
every check. A walk reads its filter once into one gate (`_gate`) on each
leaf's height and words: the empty set's bit and the height range are tests
of h and `have`, and separation, every pair split by some member, is the
one compare `split == every`. A leaf that passes them becomes a `_Leaf`, a
value that outlives the walk, only where something reads it: the cover-size
test or a visitor, so a count-only walk with no cover-size test builds
none. The cover-size test and every conclusion read the leaf's facts as a
few exact int operations on `have` and the per-n words of `_leaf_words`:
frequencies, |F|, the empty set, the least minimum cover (|B| is its
length), Lemma 1.3, the size-bound levels, T1.2's witness chain, r and
witness element, and the PROPS letters. Three of them read a smaller word
than the leaf's, which later leaves meet again, so each keeps a memo for
one walk: the size-bound levels after the first reduction, under the
reduced word; the chain facts below each child of [n], under the child's
member word; and the least minimum cover, `bfamily._least_cover` of the
slice members (the search `b_report` runs), under the slice word
`have & small`. A cover longer than the leaf's height is an error tested
on every leaf, since the height is the leaf's own. `_walk`
empties the memos before and after each walk, so no run reads another's
entries. A check counts the leaves its gate passes, so a passing
conclusion costs its leaf nothing more; a `Family` is built only for a
leaf whose word conclusion fails (the `Family` conclusion then gives the
violation's details) and for a caller's visitor, so a count-only
`enumerate_uc` builds none. `EnumFilter.matches` and the `Family`
conclusions stay as the public gate and the oracle:
tests/test_enumeration.py compares every word fact with them on every leaf
for n <= 4 and at n = 5 under height cap 3, and under cap 4 in the deep
suite. Public analysis functions validate their input; the `Family` gate
and conclusions instead pass these facts about a leaf (union-closed, base
[n], height h) to the private cores behind those functions, as the
construction certifier and `ucf analyze` do with the facts they derive
once.

The hard cap is n <= 5. The independent oracle `brute_force_uc` (n <= 4)
iterates all 2^(2^n) subfamilies of the power set and filters; it shares no
machinery with the DFS and exists to validate it.

Parallel runs stop the same DFS after its first few candidate decisions;
each member word it holds there heads a disjoint subtree, run as one task,
and per-subtree results are merged in DFS order, so reports are identical
for any worker count. Progress comes as each subtree's results arrive.
"""

from __future__ import annotations

import functools
import itertools
import os
import struct
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable

from .bfamily import (
    VIOLATION,
    _b_report,
    _classify_form,
    _four_cover_sizes_ok,
    _least_cover,
    _private_parts,
    _prop_suite,
)
from .chains import _lemma13_status, _size_bound_trace, _thm12_witness, chain_report, thm12_bound
from .core import Family, _byte_masks, avg_size, frankl_witness, frequencies, is_separating
from .errors import InternalError, NTooLarge

ENUMERATION_CAP = 5
ORACLE_CAP = 4
_SPLIT_DEPTH = 4


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

    def height_range(self) -> tuple[int, int] | None:
        return None if self.height is None else _bounds(self.height)

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
    (`_byte_masks` table, shift) pair per byte of a word, for `masks`; and
    the memos of the leaf facts that read a smaller word than the leaf's:
    `descents` of `_descent` and `tails` of `size_levels`, each under a
    member word, and `covers` of `min_cover`, under a slice word. `_walk`
    empties them before and after each walk."""

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
        self.descents: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        self.tails: dict[int, tuple[tuple[int, int], ...] | None] = {}
        self.covers: dict[int, tuple[int, ...]] = {}

    def masks(self, word: int) -> tuple[int, ...]:
        """The masks whose bits a word of 2^n bits sets, ascending: one
        table lookup per byte."""
        out = ()
        for table, shift in self.octets:
            out += table[word >> shift & 255]
        return out

    def forget(self) -> None:
        """Empty the memos, which hold facts of the words one walk met."""
        self.descents.clear()
        self.tails.clear()
        self.covers.clear()


_leaf_words = functools.cache(_Words)


class _Leaf:
    """One DFS leaf: its member word `have` (bit m for mask m), its height
    `h`, and the facts the gates and the cheap conclusions read, each a few
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

    def slice_members(self) -> tuple[int, ...]:
        """The small-slice members, the members m with 2|m| < n, ascending."""
        return self.words.masks(self.have & self.words.small)

    def min_cover(self) -> tuple[int, ...]:
        """`_b_report`'s cover, whose length is |B|: `_least_cover` of the
        slice members, searched up to all of them and kept in `words.covers`
        under the slice word, and the error `_b_report` raises where it has
        more members than the leaf's height."""
        words = self.words
        part = self.have & words.small
        try:
            cover = words.covers[part]
        except KeyError:
            small = words.masks(part)
            b = 0
            for x in small:
                b |= x
            cover = words.covers[part] = _least_cover(small, b, len(small))
        if len(cover) > self.h:
            raise InternalError("cover search exceeded the height cap")
        return cover

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
        levels, or None for the error, is kept in `words.tails` under it."""
        words = self.words
        level, kept = _size_step(words.holding, self.have)
        if not kept:
            return (level,)
        try:
            tail = words.tails[kept]
        except KeyError:
            tail = words.tails[kept] = _size_tail(words.holding, kept)
        if tail is None:
            raise InternalError(_NO_SHRINK)
        return (level, *tail)

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
    inside y, `word & below[y]`, so `words.descents` keeps them under that
    word for the rest of the walk; the word of a whole leaf is new each
    time and is not kept."""
    below, memo = words.below, words.descents
    x = word.bit_length() - 1
    rest = word ^ 1 << x
    if not rest:
        return 1, 1, (x,)
    most, fewest = 0, words.n + 1  # no chain inside x has n + 1 sets
    while rest:
        y = rest.bit_length() - 1
        rest &= ~below[y]
        sub = word & below[y]
        try:
            facts = memo[sub]
        except KeyError:
            facts = memo[sub] = _descent(words, sub)
        if facts[0] >= most:  # children come off in descending order, so the least wins a tie
            most, chain = facts[0], facts[2]
        if facts[1] < fewest:
            fewest = facts[1]
    return most + 1, fewest + 1, (x, *chain)


_NO_SHRINK = "size-bound reduction failed to shrink the family"


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
        raise InternalError(_NO_SHRINK)
    return level, kept


def _size_tail(holding: tuple[int, ...], members: int) -> tuple[tuple[int, int], ...] | None:
    """The levels of `_size_step` from a member word on, or None where the
    reduction fails to shrink."""
    levels = []
    try:
        while members:
            level, members = _size_step(holding, members)
            levels.append(level)
    except InternalError:
        return None
    return tuple(levels)


def _lowest(word: int) -> int:
    """The index of the lowest set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


def _dfs(
    n: int,
    emit: Callable[[int, int, int], None],
    h_cap: int | None,
    prefix: int = 0,
    start: int | None = None,
    stop: int = -1,
) -> None:
    """Run the generator, calling emit(height, member word, split word) at
    each leaf.

    The walk decides the candidates from `start` (default [n] - 1) down to
    `stop` + 1, each by recursing with it included and then stepping on
    without it, and emits on reaching `stop`. Only candidates in
    `legal & ~under[cap - 1]` are tried: every other one fails the union or
    height test, so skipping it visits the same leaves in the same order.
    `prefix` is the word of the members below [n] taken by an earlier walk
    that stopped at `start`; they are legal and within the height cap by
    construction, and are added first, in descending order, by the same
    `push`, their split words or'd into that of [n], which is 0.
    """
    words = _leaf_words(n)
    below, above, lifts, splits = words.below, words.above, words.lifts, words.splits
    full = (1 << n) - 1
    # no chain over [n] is longer than n + 1, and under a cap below 2 only [n] fits
    top = (n + 1 if h_cap is None else max(1, min(h_cap, n + 1))) - 1
    under = [below[full]] + [0] * top
    low = (1 << (stop + 1)) - 1  # a candidate word above low has a bit above stop

    def push(s: int, legal: int, have: int) -> tuple[int, int, int]:
        """Add s to a family with members `have` (s included): s's level k
        (chain length k + 1), the old `under[k]` to restore on pop, and the
        legal word narrowed to the t with t | s in `have`."""
        k = 1
        while under[k] >> s & 1:
            k += 1
        # t | s = u for a member u above s exactly when t is u less some subset of s
        p = have & above[s]
        for holding, shift in lifts[s]:
            p |= (p & holding) >> shift
        old = under[k]
        under[k] = old | below[s]
        return k, old, legal & p

    def rec(window: int, h: int, legal: int, have: int, split: int) -> None:
        cand = legal & ~under[top] & window
        while cand > low:
            s = cand.bit_length() - 1
            bit = 1 << s
            cand ^= bit
            k, old, narrowed = push(s, legal, have | bit)
            rec(bit - 1, h if h > k else k + 1, narrowed, have | bit, split | splits[s])
            under[k] = old
        emit(h, have, split)

    h, legal, have, split = 1, below[full], 1 << full, splits[full]
    for s in reversed(words.masks(prefix)):
        have |= 1 << s
        split |= splits[s]
        k, _, legal = push(s, legal, have)
        h = max(h, k + 1)
    rec((1 << (full if start is None else start + 1)) - 1, h, legal, have, split)


def _split(n: int, h_cap: int | None) -> tuple[int, list[int]]:
    """The candidate at which parallel runs split the DFS, and one prefix per
    subtree: the word of the members below [n] that the walk, stopped after
    its first _SPLIT_DEPTH decisions, holds there, in DFS order."""
    split = max(-1, (1 << n) - 2 - _SPLIT_DEPTH)
    full_bit = 1 << (1 << n) - 1
    prefixes: list[int] = []
    _dfs(n, lambda h, have, _: prefixes.append(have ^ full_bit), h_cap, stop=split)
    return split, prefixes


def _gate(
    filt: EnumFilter | None, words: _Words
) -> tuple[Callable[[int, int, int], bool] | None, Callable[[_Leaf], bool] | None]:
    """The filter read once for a walk, as two tests that pass a leaf
    exactly where `filt.matches` would: `admit`, a pure word test of its
    height, member word and split word, and `sized`, the cover-size test of
    its `_Leaf`. Either is None where the filter tests nothing of its kind.
    `admit` runs `matches`'s word tests in its order: the empty set's bit,
    the height range, and separation, which holds when the split word is
    `every`."""
    if filt is None:
        return None, None
    empty, height = filt.contains_empty, filt.height
    separating, bsize = filt.separating, filt.bsize
    lo, hi = _bounds(height) if height is not None else (0, 0)
    every = words.every
    admit = sized = None

    if (empty, height, separating) != (None, None, None):
        def admit(h: int, have: int, split: int) -> bool:
            if empty is not None and (have & 1) != empty:
                return False
            if height is not None and not lo <= h <= hi:
                return False
            return separating is None or (split == every) == separating

    if bsize is not None:
        low, most = _bounds(bsize)

        def sized(leaf: _Leaf) -> bool:
            return low <= len(leaf.min_cover()) <= most

    return admit, sized


def _walk(
    n: int,
    filt: EnumFilter | None,
    visit: Callable[[_Leaf], None] | None,
    prefix: int = 0,
    start: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> tuple[int, int]:
    """Run the DFS (arguments as in _dfs) under the filter's height cap and
    call visit(leaf) on each leaf that passes the filter's `_gate`; returns
    how many leaves it visited and how many passed. A leaf becomes a `_Leaf`
    only for the gate's cover-size test or for `visit`, so with neither the
    walk builds none. `progress` gets the visited count every 100,000
    leaves. The leaf memos of `_leaf_words(n)` start and end the walk empty,
    so no walk reads another's entries."""
    rng = filt.height_range() if filt else None
    words = _leaf_words(n)
    admit, sized = _gate(filt, words)
    build = visit is not None or sized is not None
    visited = passed = 0

    def emit(h: int, have: int, split: int) -> None:
        nonlocal visited, passed
        visited += 1
        if progress is not None and visited % 100000 == 0:
            progress(visited)
        if admit is not None and not admit(h, have, split):
            return
        if build:
            leaf = _Leaf(words, have, h)
            if sized is not None and not sized(leaf):
                return
            if visit is not None:
                visit(leaf)
        passed += 1

    words.forget()
    try:
        _dfs(n, emit, rng and rng[1], prefix, start)
    finally:
        words.forget()
    return visited, passed


def enumerate_uc(
    n: int,
    filt: EnumFilter | None = None,
    visitor: Callable[[Family], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> int:
    """Visit every union-closed family with base exactly [n] that passes the
    filter, in deterministic order; returns how many passed. `progress`
    gets the visited count every 100,000 families."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise NTooLarge(f"enumeration needs 1 <= n <= {ENUMERATION_CAP}")
    visit = (lambda leaf: visitor(leaf.fam)) if visitor else None
    return _walk(n, filt, visit, progress=progress)[1]


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
    code = {8: "B", 16: "H", 32: "I"}[width]
    return images, words, struct.Struct(f"<{len(images)}{code}")


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

    Isomorphism reduction is never applied implicitly (the verification
    quantifies over all families); this pass exists for reporting, e.g.
    counting enumerated families up to relabeling. Same n <= 5 cap as the
    enumerator, since the tables hold n! images.
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
    """True when `_props` finds no failing letter: `_prop_suite`'s letters
    on the leaf's words, the gate having tested separation. b is the base
    of the cover; sub_b, the members properly inside b, is one word, so A
    and C count per element i of b the sub_b members holding i: A fails
    when two lack i, and C's total size is the sum of those counts. E's
    least sum of four slice sizes is that of the four smallest. G is not
    tested, since it cannot fail."""
    if leaf.h != 4:
        return True
    words, have = leaf.words, leaf.have
    n, below, part = words.n, words.below, have & words.small
    cover = leaf.min_cover()
    b = 0
    for c in cover:
        b |= c
    bsize = b.bit_count()
    if len(cover) <= 2:
        if n >= 4 and bsize < n - 1:
            sub_b = have & below[b] & ~(1 << b)
            count = sub_b.bit_count()
            total = 0
            for word, _ in words.lifts[b]:
                held = (sub_b & word).bit_count()
                if count - held > 1:  # A
                    return False
                total += held
            if not 1 <= count <= bsize and 2 * sum(leaf.frequencies()) < n * have.bit_count():
                return False  # B
            if total < (count - 1) * bsize:  # C
                return False
        if n >= 4 and len(cover) == 2 and bsize == n - 1 and part.bit_count() >= 4:
            full = (1 << n) - 1
            x, y = cover
            # a slice member besides the cover's two that meets both
            if part & ~below[full ^ x] & ~below[full ^ y] & ~(1 << x | 1 << y):
                sizes = sorted(m.bit_count() for m in leaf.slice_members())
                return 2 * sum(sizes[:4]) >= 3 * n + 1  # E
        return True
    irrs = _private_parts(cover)
    if len(cover) == 4:  # J, K, L
        return (bsize == n and all(w.bit_count() == 1 for w in irrs)
                and _four_cover_sizes_ok(n, [c.bit_count() for c in cover]))
    if bsize < n - 1:  # F
        return False
    if bsize == n - 1:  # I
        irr_union = irrs[0] | irrs[1] | irrs[2]
        in_cover = 1 << cover[0] | 1 << cover[1] | 1 << cover[2]
        others = [m for m in leaf.slice_members() if not in_cover >> m & 1]
        return all(_classify_form(m, cover, irrs, irr_union) != VIOLATION for m in others)
    # G (no other slice member holds every private part) cannot fail; see _prop_suite
    wide = [(w, w.bit_count()) for w in irrs if w.bit_count() > 1]
    return all((m & w).bit_count() in (0, size - 1, size)  # H
               for m in leaf.slice_members() for w, size in wide)


@dataclass(frozen=True)
class _Check:
    """One check id: its hypotheses as text, as a leaf filter and as the least n
    the result is stated for, and its conclusion: the violation details for a
    (family, height) pair that passes the filter. `holds` decides the
    conclusion on a leaf's words; only a leaf it rejects runs `conclude`,
    which gives the details."""

    hypothesis: str
    filt: EnumFilter
    conclude: Callable[[Family, int], list[str]]
    holds: Callable[[_Leaf], bool]
    least_n: int = 1


_SEP = EnumFilter(separating=True)
_SEP_H4_B2 = EnumFilter(separating=True, height=4, bsize=(0, 2))
_CHECKS = {
    # with [n] a member, |family| > 1 is h >= 2; no leaf is taller than
    # n + 1, so the upper bound prunes nothing
    "T1.2": _Check("union-closed, |family| > 1"
                   " (max frequency >= (|family|+h-3)/(h-1), also with r)",
                   EnumFilter(height=(2, ENUMERATION_CAP + 1)), _thm12, holds=_thm12_holds),
    "L1.3": _Check("separating (every maximal chain holds a size n-1 member)", _SEP, _lemma13,
                   holds=_Leaf.lemma13_holds),
    "T1.4": _Check("separating, height <= 3 (average size >= n/2)",
                   EnumFilter(separating=True, height=(1, 3)), _avg_half, holds=_avg_half_holds),
    "L2.1.1": _Check("separating (|family| >= n, with reduction trace)", _SEP, _size_bound,
                     holds=_size_bound_holds),
    "T2.1": _Check("separating, height 4, n >= 4, cover size <= 2 (average size >= n/2)",
                   _SEP_H4_B2, _avg_half, least_n=4, holds=_avg_half_holds),
    "C2.2": _Check("separating, height 4, n >= 4, cover size <= 2"
                   " (some element in half the members)", _SEP_H4_B2, _frankl, least_n=4,
                   holds=_frankl_holds),
    "T4.1": _Check("separating, height 4, cover size 4 (average size > floor(n/2) - 1)",
                   EnumFilter(separating=True, height=4, bsize=4), _avg_floor,
                   holds=_avg_floor_holds),
    "PROPS": _Check("separating, height 4 (all applicable propositions A-L hold)",
                    EnumFilter(separating=True, height=4), _props, holds=_props_holds),
}

THEOREM_IDS = tuple(_CHECKS)


def _run_serial(
    tid: str,
    n: int,
    prefix: int = 0,
    start: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> tuple[int, list[Violation], int]:
    """One check id over one walk, the whole DFS or one parallel subtree
    (arguments as in _walk): how many leaves it checked, which are the
    leaves that pass its filter, their violations and how many leaves it
    visited. Only a leaf that `holds` rejects runs `conclude`."""
    check = _CHECKS[tid]
    holds, conclude = check.holds, check.conclude
    violations: list[Violation] = []

    def visit(leaf: _Leaf) -> None:
        if not holds(leaf):
            violations.extend(Violation(leaf.fam, d) for d in conclude(leaf.fam, leaf.h))

    visited, checked = _walk(n, check.filt, visit, prefix, start, progress)
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
    run demonstrates why the hypothesis is needed. `progress` gets the
    visited count every 100,000 leaves of a serial walk; a parallel run
    gives it the running total as each subtree's results arrive, in DFS
    order.
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
    if n < check.least_n and not hypothesis_necessity:
        checked, violations = 0, []
    elif workers == 1 or n <= 3:
        checked, violations, _ = _run_serial(tid, n, progress=progress)
    else:
        rng = check.filt.height_range()
        split, prefixes = _split(n, rng and rng[1])
        run = functools.partial(_run_serial, tid, n, start=split)
        checked, violations, visited = 0, [], 0
        with get_context().Pool(processes=min(workers, len(prefixes))) as pool:
            # in DFS order, each subtree's results as soon as it and those before it are done
            for part_checked, part_violations, part_visited in pool.imap(run, prefixes):
                checked += part_checked
                violations += part_violations
                visited += part_visited
                if progress is not None:
                    progress(visited)

    return VerifyReport(
        theorem=tid,
        n=n,
        hypothesis=check.hypothesis,
        families_checked=checked,
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
        mode="hypothesis-necessity" if hypothesis_necessity else "verify",
    )
