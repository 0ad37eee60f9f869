"""Set families over a ground set [n] = {1, ..., n}, as integer bitmasks.

A member set is a plain Python int: element i is present iff bit i-1 is set.
Subset testing, union, and cardinality are single machine-word operations
(`a & b == a`, `a | b`, `int.bit_count`). The word capacity is fixed at
W = 64: every family declares a ground size 1 <= n <= 64, and no member may
set a bit at position >= n.

The ground size is *declared*, not inferred. A family over n=5 whose members
only touch {1,2,3} is legal for the generic operations here, but analyses
that assume the base set equals [n] must call :func:`require_base_full`.

Families are immutable values: members are stored deduplicated in canonical
order (ascending integer value of the bitmask), so structurally equal
families compare equal. All operations are pure functions; everything in
this module is safe to share across threads.

The cover-relation (Hasse) scan lives here: `_hasse` gives each member's
children and the longest chain it tops. The union test reads it, and so
does `chains`, for the height, the witness chains, r and Lemma 1.3's
counterexample. A `Family` keeps its union-closedness verdict once worked
out (two threads asking at once may both work it out, to the same value),
so `is_union_closed` and every `require_union_closed` test a family once.
It does not keep the scan, which can be large; `ucf analyze`, the
construction certificates and the public functions that need a union test
and a chain fact (`_checked_scan`) make one scan per family and hand it to
the union test (`_is_union_closed`) and the chain cores.

Averages and thresholds are exact `fractions.Fraction` values throughout;
no floating point is used anywhere.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    BaseNotFull,
    EmptyFamily,
    NotAMember,
    NotSeparating,
    NotUnionClosed,
    ParseError,
)

WORD_CAPACITY = 64

# A member set: bitmask with element i at bit i-1.
SetWord = int
# A cover-relation scan `_hasse(members)`: (down, kids).
_Scan = tuple[list[int], list[list[int]]]


def word_from_elements(elements: Iterable[int]) -> SetWord:
    """Bitmask for a collection of 1-based elements, each in [1, WORD_CAPACITY]."""
    word = 0
    for e in elements:
        if not 1 <= e <= WORD_CAPACITY:
            raise ValueError(f"element {e} outside [1, {WORD_CAPACITY}]")
        word |= 1 << (e - 1)
    return word


@functools.cache
def _byte_masks(shift: int) -> tuple[tuple[int, ...], ...]:
    """Per value v of the byte at bit `shift` of a word, the numbers shift + j
    for the bits j of v, ascending: the one bit-walk table. Read at shift 8k
    it gives bit positions, at 8k + 1 the 1-based elements of those bits."""
    return tuple(tuple(shift + j for j in range(8) if v >> j & 1) for v in range(256))


def word_elements(word: SetWord) -> tuple[int, ...]:
    """1-based elements of a bitmask, ascending: one table lookup per byte.
    The word lies in [0, 2^WORD_CAPACITY), so at most 8 tables are read."""
    if not 0 <= word >> WORD_CAPACITY == 0:
        raise ValueError(f"a set word lies in [0, 2^{WORD_CAPACITY}), got {word:#x}")
    out = ()
    shift = 1
    while word:
        out += _byte_masks(shift)[word & 255]
        word >>= 8
        shift += 8
    return out


def full_word(n: int) -> SetWord:
    """The full set [n]."""
    return (1 << n) - 1


@dataclass(frozen=True)
class Family:
    """A distinct, canonically ordered collection of member sets over [n].

    `members` is a strictly increasing tuple of bitmasks (strictness encodes
    distinctness); the empty tuple is a legal family for the operations that
    permit it.
    """

    n: int
    members: tuple[SetWord, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= WORD_CAPACITY:
            raise ValueError(f"ground size must be in [1, {WORD_CAPACITY}], got {self.n}")
        top = 1 << self.n
        ms = self.members
        # The accept path: one pass checks that the members ascend strictly,
        # so they lie in range when the two end members do. Any other input
        # takes the member loop below, whose first failure is reported.
        if type(ms) is tuple:
            try:
                prev = -1
                for m in ms:
                    if m <= prev:
                        break
                    prev = m
                else:
                    if not ms or (0 <= ms[0] and prev < top):
                        return
            except TypeError:  # a member that is not a number
                pass
        prev = -1
        for m in ms:
            if not 0 <= m < top:
                raise ValueError(f"member {m:#x} sets bits outside [{self.n}]")
            if m <= prev:
                raise ValueError("members must be distinct and canonically ordered")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[SetWord]) -> "Family":
        """Build from bitmasks in any order; duplicates are rejected."""
        ordered = tuple(sorted(masks))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate member {word_elements(a)}")
        return cls(n, ordered)

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        """Build from element collections, e.g. Family.of(3, [{1,2}, {3}, ()])."""
        return cls.from_masks(n, (word_from_elements(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SetWord]:
        return iter(self.members)

    def __contains__(self, word: SetWord) -> bool:
        return word in self.members

    def member_sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as element tuples, canonical order (for reports)."""
        return tuple(word_elements(m) for m in self.members)


# ---------------------------------------------------------------------------
# Text format: `n=<int>` header, then one set per nonblank line (ascending
# elements separated by spaces, the empty set as `{}`), `#` starts a comment.
# ---------------------------------------------------------------------------

def parse_family(text: str) -> Family:
    """Parse the family text format; malformed input raises ParseError."""
    n = None
    masks: list[SetWord] = []
    seen: set[SetWord] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise ParseError(lineno, "expected header 'n=<integer>'")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(lineno, f"bad ground size {line[2:]!r}") from None
            if not 1 <= n <= WORD_CAPACITY:
                raise ParseError(lineno, f"ground size must be in [1, {WORD_CAPACITY}]")
            continue
        if line == "{}":
            word = 0
        else:
            try:
                elems = [int(tok) for tok in line.split()]
            except ValueError:
                raise ParseError(lineno, f"bad element in {line!r}") from None
            word = prev = 0
            for e in elems:
                if not 1 <= e <= n:
                    raise ParseError(lineno, f"element {e} outside [1, {n}]")
                if e <= prev:
                    raise ParseError(lineno, "elements must be strictly ascending")
                prev = e
                word |= 1 << (e - 1)
        if word in seen:
            raise ParseError(lineno, f"duplicate set {line!r}")
        seen.add(word)
        masks.append(word)
    if n is None:
        raise ParseError(1, "missing 'n=<integer>' header")
    return Family(n, tuple(sorted(masks)))  # distinct: `seen` rejected repeats


def format_family(fam: Family) -> str:
    """Render in the text format; round-trips through parse_family."""
    lines = [f"n={fam.n}"]
    for m in fam.members:
        lines.append(" ".join(map(str, word_elements(m))) if m else "{}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Predicates and slicing
# ---------------------------------------------------------------------------

def base_set(fam: Family) -> SetWord:
    """Union of all members. Empty families have no base."""
    if not fam.members:
        raise EmptyFamily("base_set of empty family")
    out = 0
    for m in fam.members:
        out |= m
    return out


def base_is_full(fam: Family) -> bool:
    return bool(fam.members) and base_set(fam) == full_word(fam.n)


def is_union_closed(fam: Family) -> bool:
    """True iff the family has a nonempty member and X|Y is a member for all X, Y.

    The test reads the cover relation, not the member pairs. F is
    union-closed iff (a) its largest member is the union T of all members,
    and (b) for every member z and element e of z, the union U(z, e) of the
    members inside z - {e} is a member or 0. Both hold for a union-closed F.
    Conversely, take X, Y in F and a minimal member z containing X | Y (T is
    one). If z != X | Y, pick e in z - (X | Y): U(z, e) contains X | Y and
    lies strictly inside z, and it is a member (not 0, or X | Y = {} and z
    would be {}), against the choice of z.

    Every member inside z lies under one of z's Hasse children c, so
    U(z, e) is the union over the children of c where e is not in c and of
    U(c, e) where it is. One ascending pass over the children therefore
    costs one OR per cover edge, and only a member with two or more
    children can bring a new union: with one child it repeats the child's.
    The family keeps the verdict, so every later `require_union_closed`
    reads it; the scan is not kept, as it can be large.
    """
    return _is_union_closed(fam, None)


def _is_union_closed(fam: Family, scan: _Scan | None) -> bool:
    """is_union_closed, reading `scan = _hasse(fam.members)` if the caller
    holds it for the chains. The verdict is kept in the family's instance
    dict, which its frozen dataclass leaves writable (equality and hashing
    read the fields only), so each family is tested once."""
    kept = vars(fam)
    if "_union_closed" not in kept:
        kept["_union_closed"] = _union_test(fam, scan)
    return kept["_union_closed"]


@functools.cache
def _lane_spread(w: int) -> tuple[int, ...]:
    """Per value v of a byte, the word with bit w*j set for each bit j of v:
    the low bits of eight lanes of width w, one lane per bit."""
    return tuple(sum(1 << w * j for j in range(8) if v >> j & 1) for v in range(256))


# lane width -> format code of one lane, for memoryview (native order) and struct
_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _union_test(fam: Family, scan: _Scan | None) -> bool:
    """`is_union_closed`'s kernel: checks (a), then (b) over the Hasse
    children of `scan`, which it makes itself if given None.

    Member z carries one word of `width` lanes, each w >= width bits wide:
    lane e holds U(z, e) if e is in z and z itself if not, so the lanes of
    a child c are exactly the terms z's recurrence ORs together. z's own
    word is the OR of its children's words, with z put into the lanes of
    the elements outside z. Each lane of a member with two or more
    children is then looked up among the members and 0; a member with one
    child passes on lanes that were already looked up, or the child itself.
    """
    ms = fam.members
    if not ms or not ms[-1]:
        return False
    top = ms[-1]
    for m in ms:
        if m | top != top:
            return False
    width = top.bit_length()
    w = next(w for w in _LANE_FORMATS if w >= width)
    fmt = _LANE_FORMATS[w]
    spread = _lane_spread(w)
    step = 8 * w
    size = width * w // 8
    ones = ((1 << width * w) - 1) // ((1 << w) - 1)  # the low bit of every lane
    allowed = {0, *ms}
    lanes: list[int] = []
    if scan is None:
        scan = _hasse(ms)
    for m, ks in zip(ms, scan[1]):
        starts = 0  # the low bits of the lanes of m's elements
        rest, shift = m, 0
        while rest:
            starts |= spread[rest & 255] << shift
            rest >>= 8
            shift += step
        word = (ones ^ starts) * m
        for k in ks:
            word |= lanes[k]
        lanes.append(word)
        if len(ks) > 1:
            view = memoryview(word.to_bytes(size, sys.byteorder)).cast(fmt)
            if not allowed.issuperset(view):
                return False
    return True


def union_closure(fam: Family) -> Family:
    """Smallest union-closed superfamily: close under pairwise unions to fixpoint."""
    if not fam.members:
        raise EmptyFamily("union_closure of empty family")
    have = set(fam.members)
    fresh = have
    while fresh:
        # a set keeps each new union once, however many pairs produce it
        fresh = {x | y for x in fresh for y in have} - have
        have |= fresh
    return Family.from_masks(fam.n, have)


def is_separating(fam: Family) -> bool:
    """True iff all n element signatures (sets of members containing each
    element) are pairwise distinct; equivalent to every pair of distinct
    elements of [n] being split by some member.

    Elements of [n] lying in no member all share the empty signature, so two
    such elements make the family non-separating. The signatures are the
    columns of the transposed members, compared as strings.
    """
    return len(set(_columns(fam.members, fam.n))) == fam.n


_SIZE_TESTS = {
    "lt": lambda c, x: c < x,
    "le": lambda c, x: c <= x,
    "gt": lambda c, x: c > x,
    "ge": lambda c, x: c >= x,
}


def slice_by_size(fam: Family, kind: str, x: Fraction | int) -> Family:
    """Members whose cardinality compares to x as requested (kind in lt/le/gt/ge)."""
    try:
        test = _SIZE_TESTS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_SIZE_TESTS)}, got {kind!r}") from None
    if x < 0:
        raise ValueError("size threshold must be >= 0")
    return Family(fam.n, tuple(m for m in fam.members if test(m.bit_count(), x)))


def slice_by_subset(fam: Family, kind: str, word: SetWord) -> Family:
    """Members that are proper subsets ('proper') or subsets ('improper') of word."""
    if kind == "proper":
        keep = tuple(m for m in fam.members if m | word == word and m != word)
    elif kind == "improper":
        keep = tuple(m for m in fam.members if m | word == word)
    else:
        raise ValueError(f"kind must be 'proper' or 'improper', got {kind!r}")
    return Family(fam.n, keep)


def irr(word: SetWord, ctx: Family) -> SetWord:
    """Elements of word covered by no other member of ctx."""
    if word not in ctx.members:
        raise NotAMember(f"{word_elements(word)} is not a member of the context family")
    others = 0
    for m in ctx.members:
        if m != word:
            others |= m
    return word & ~others


def is_irredundant(fam: Family) -> bool:
    """Every member keeps a private element; the empty family qualifies vacuously."""
    return all(irr(m, fam) for m in fam.members)


def avg_size(fam: Family) -> Fraction:
    """Exact average member cardinality."""
    if not fam.members:
        raise EmptyFamily("avg_size of empty family")
    return Fraction(sum(m.bit_count() for m in fam.members), len(fam.members))


def _member_counts(masks: Sequence[SetWord], n: int) -> list[int]:
    """count[i-1] = number of masks containing element i, for i in [n]; masks
    may repeat."""
    return [column.count("1") for column in _columns(masks, n)]


def _columns(words: Sequence[SetWord], width: int) -> list[str]:
    """The words, each below 2^width, transposed: column e is a string of
    "0"/"1" with one character per word, and int(column, 2) sets bit i when
    word i holds element e + 1. With no words every column is ""."""
    rows = (f"{{:0{width}b}}" * len(words)).format(*words)[::-1]
    return [rows[e::width] for e in range(width)]


def _hasse(ms: tuple[SetWord, ...]) -> _Scan:
    """down[i]: longest chain topped by member i; kids[i]: the indices it
    covers, descending.

    The members, ascending, are transposed once into one column word per
    element, bit i set when member i lacks it. A subset of ms[i] lacks every
    element ms[i] lacks and, being no larger, has an index up to i, so the
    AND of those columns with the indices 0..i is `below[i]`: i and every
    index under it. Its highest other index is a child, since a proper
    superset has a larger value; dropping that child's `below` and taking
    the highest index left again peels the children in descending order.
    """
    if not ms:
        return [], []
    width = ms[-1].bit_length() or 1
    full = (1 << width) - 1
    lacks = [int(column, 2) for column in _columns([full ^ m for m in ms], width)]
    down: list[int] = []
    kids: list[list[int]] = []
    below: list[int] = []
    for i, m in enumerate(ms):
        under = (2 << i) - 1
        for e in word_elements(full ^ m):
            under &= lacks[e - 1]
        below.append(under)
        under ^= 1 << i
        ks = []
        d = 0
        while under:
            j = under.bit_length() - 1
            ks.append(j)
            under &= ~below[j]
            if down[j] > d:
                d = down[j]
        down.append(d + 1)
        kids.append(ks)
    return down, kids


def frequencies(fam: Family) -> tuple[int, ...]:
    """count[i-1] = number of members containing element i, for i in [n]."""
    return tuple(_member_counts(fam.members, fam.n))


@dataclass(frozen=True)
class FranklWitness:
    """A maximum-frequency element against the half-family threshold."""

    element: int
    count: int
    threshold: Fraction
    ok: bool


def frankl_witness(fam: Family) -> FranklWitness:
    """Most frequent element (smallest index on ties) vs |family|/2."""
    return _frankl_witness(frequencies(fam), len(fam.members))


def _frankl_witness(counts: Sequence[int], size: int) -> FranklWitness:
    """`frankl_witness` of a family of `size` members whose elements have
    these frequencies, for a caller that has them already."""
    if not size:
        raise EmptyFamily("frankl_witness of empty family")
    best = counts.index(max(counts))
    threshold = Fraction(size, 2)
    return FranklWitness(best + 1, counts[best], threshold, counts[best] >= threshold)


# ---------------------------------------------------------------------------
# Precondition helpers shared by the analysis modules
# ---------------------------------------------------------------------------

def require_nonempty(fam: Family) -> None:
    if not fam.members:
        raise EmptyFamily("family must be nonempty")


def require_union_closed(fam: Family) -> None:
    if not is_union_closed(fam):
        raise NotUnionClosed("family is not union-closed")


def require_separating(fam: Family) -> None:
    if not is_separating(fam):
        raise NotSeparating("family is not separating")


def require_base_full(fam: Family) -> None:
    if not base_is_full(fam):
        raise BaseNotFull(f"base set is not [{fam.n}]")


def _checked_scan(fam: Family) -> _Scan:
    """`_hasse(fam.members)` for a family that must be union-closed with
    base [n], made once for its union test and the caller's chains. A family
    already known not to be union-closed, or whose base is not [n], raises
    as `require_union_closed` and `require_base_full` would, without it."""
    if vars(fam).get("_union_closed") is False or not base_is_full(fam):
        require_union_closed(fam)
        require_base_full(fam)
    scan = _hasse(fam.members)
    if not _is_union_closed(fam, scan):
        raise NotUnionClosed("family is not union-closed")
    return scan
