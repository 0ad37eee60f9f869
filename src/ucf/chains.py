"""Chain analytics for set families ordered by proper inclusion.

A chain is a subfamily totally ordered by proper inclusion; the height h of
a family is the maximum chain size. A chain is maximal if no member of the
family can be inserted anywhere in it; consecutive elements of a maximal
chain are therefore cover pairs of the family's inclusion order (anything
strictly between two consecutive elements would be comparable to the whole
chain). r denotes the minimum size of a maximal chain.

Every chain result here reads one cover-relation (Hasse) scan,
`core._hasse`, which gives each member's children and the longest chain it
tops; a caller that holds the scan (`ucf analyze`, the construction
certificates, `thm12_witness` through `core._checked_scan`) hands the same
one to the union test and to the cores `_chain_report` and
`_lemma13_status`. The scan transposes the members
once into one column word per element and reads each member's subsets as
an AND of columns, so it costs O(|F| n) big-int operations, not a subset
test per pair. The height is the largest of those chains; r comes from a
shortest-path DP over the cover edges, from the maximal members down.
Lemma 1.3 holds or fails by one word test per member on the co-singletons
[n] - {e} in the family; only a failing family reads the scan, for the
children of [n] on its offending chain.

Chains are reported top-down (strictly decreasing by inclusion) and are
deterministic. The witness chain is the maximum chain whose top-down mask
tuple is lexicographically smallest in canonical (integer) order. The
r witness is the size-r maximal chain whose bottom-up mask tuple is
lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Family,
    SetWord,
    _Scan,
    _checked_scan,
    _hasse,
    _member_counts,
    full_word,
    require_base_full,
    require_nonempty,
    require_separating,
    require_union_closed,
    word_elements,
)
from .errors import DegenerateHeight, InternalError, TooSmall


@dataclass(frozen=True)
class ChainReport:
    """Height and minimum-maximal-chain data with explicit witnesses."""

    height: int
    witness_chain: tuple[SetWord, ...]
    r: int
    r_witness: tuple[SetWord, ...]


def chain_report(fam: Family) -> ChainReport:
    require_nonempty(fam)
    return _chain_report(fam, _hasse(fam.members))


def _chain_report(fam: Family, scan: _Scan) -> ChainReport:
    """chain_report for a nonempty family and its scan `_hasse(fam.members)`."""
    ms = fam.members
    down, kids = scan
    h = max(down)

    # The least member of height h, then at each level the least child one
    # lower: any member inside the top with that height is a child of it.
    cur = down.index(h)
    witness = [ms[cur]]
    while down[cur] > 1:
        cur = min(j for j in kids[cur] if down[j] == down[cur] - 1)
        witness.append(ms[cur])

    parents: list[list[int]] = [[] for _ in ms]
    for i, ks in enumerate(kids):
        for j in ks:
            parents[j].append(i)
    # up_min[i]: fewest members on a cover path from i up to a maximal
    # member; parents have larger indices, so a descending pass suffices.
    up_min = [1] * len(ms)
    for i in reversed(range(len(ms))):
        if parents[i]:
            up_min[i] = 1 + min(up_min[p] for p in parents[i])
    minimal = [i for i in range(len(ms)) if not kids[i]]
    r = min(up_min[i] for i in minimal)
    # Ties go to the least mask: member indices follow mask order.
    cur = min(i for i in minimal if up_min[i] == r)
    chain = [ms[cur]]
    while parents[cur]:
        cur = min(p for p in parents[cur] if up_min[p] == up_min[cur] - 1)
        chain.append(ms[cur])
    return ChainReport(h, tuple(witness), r, tuple(reversed(chain)))


def height(fam: Family) -> int:
    """Maximum chain size: chain_report(fam).height without its chains or r."""
    require_nonempty(fam)
    return max(_hasse(fam.members)[0])


# ---------------------------------------------------------------------------
# Every maximal chain of a separating union-closed family with base [n]
# contains a member of size n-1: equivalently, every Hasse child of the top
# member [n] has size n-1 (the second element of any maximal chain with at
# least two members is such a child).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma13Report:
    ok: bool
    offending_chain: tuple[SetWord, ...] | None


def lemma13_check(fam: Family) -> Lemma13Report:
    """Check the size-(n-1) guarantee on maximal chains, with a counterexample
    chain on failure.

    The single-member family {[1]} passes vacuously: its only maximal chain
    has no second element to constrain.
    """
    require_union_closed(fam)
    require_separating(fam)
    require_base_full(fam)
    return _lemma13_status(fam)


def _lemma13_status(fam: Family, scan: _Scan | None = None) -> Lemma13Report:
    """lemma13_check for a family whose last member is [n], with its scan
    `_hasse(fam.members)` if the caller holds it.

    Every child of [n] has size n-1 exactly when every other member misses
    an element of `co`, the elements e whose co-singleton [n] - {e} is a
    member: every other member lies under a child of [n], so if those are
    co-singletons it misses one's e; and a child that misses some e in `co`
    lies under [n] - {e}, so it is that co-singleton. The pass is thus one
    word test per member, and only a failing family reads the Hasse
    scan. Its offending chain starts at the least bad child of [n] and
    descends by least child.
    """
    n, ms = fam.n, fam.members
    full = full_word(n)
    if not ms or ms[-1] != full:
        raise InternalError("Lemma 1.3 needs [n] as the top member")
    co = 0
    for m in ms:
        if m.bit_count() == n - 1:
            co |= full ^ m
    if all(m & co != co for m in ms[:-1]):
        return Lemma13Report(True, None)
    _, kids = _hasse(ms) if scan is None else scan
    for cur in reversed(kids[-1]):
        if ms[cur].bit_count() != n - 1:
            chain = [ms[-1], ms[cur]]
            while kids[cur]:
                cur = kids[cur][-1]
                chain.append(ms[cur])
            return Lemma13Report(False, tuple(chain))
    raise InternalError("Lemma 1.3 failed with no bad child of [n]")


# ---------------------------------------------------------------------------
# Frequency lower bound (|A| + h - 3) / (h - 1) and its constructive witness
# ---------------------------------------------------------------------------

def thm12_bound(size: int, h: int) -> Fraction:
    """(size + h - 3) / (h - 1), the guaranteed maximum element frequency."""
    if size <= 1:
        raise TooSmall("bound requires at least two member sets")
    if h < 2:
        raise DegenerateHeight("height 1 is impossible with more than one member")
    return Fraction(size + h - 3, h - 1)


@dataclass(frozen=True)
class Thm12Witness:
    element: int
    count: int
    bound: Fraction
    chain: tuple[SetWord, ...]


def thm12_witness(fam: Family) -> Thm12Witness:
    """Element frequency witness built from a maximum chain.

    Take the canonical maximum chain C_1 > ... > C_h, pick the smallest
    element c_i of each difference C_i \\ C_{i+1}, count memberships of each
    c_i over the family minus {C_1, C_h}, and return the best c_j with its
    frequency over the whole family. That frequency is guaranteed to reach
    thm12_bound(|family|, h); callers verifying the bound should compare
    count against bound themselves.
    """
    if len(fam) <= 1:
        require_union_closed(fam)
        raise TooSmall("witness requires at least two member sets")
    return _thm12_witness(fam, _chain_report(fam, _checked_scan(fam)))


def _thm12_witness(fam: Family, rep: ChainReport) -> Thm12Witness:
    """thm12_witness for a union-closed family with base [n], |F| > 1, and its chain report."""
    chain = rep.witness_chain
    h = rep.height
    if chain[0] != full_word(fam.n):
        raise InternalError("maximum chain of a union-closed family must top at [n]")

    picks = []
    for i in range(h - 1):
        diff = chain[i] & ~chain[i + 1]
        picks.append(word_elements(diff)[0])

    skip = {chain[0], chain[-1]}
    counts = []
    for e in picks:
        bit = 1 << (e - 1)
        counts.append(sum(1 for m in fam.members if m not in skip and m & bit))
    elem = picks[counts.index(max(counts))]
    total = sum(1 for m in fam.members if m & (1 << (elem - 1)))
    return Thm12Witness(elem, total, thm12_bound(len(fam), h), chain)


# ---------------------------------------------------------------------------
# Size lower bound |family| >= |base|, by the max-frequency reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeBoundTrace:
    """Reduction trace: one (family size, base size) pair per level."""

    levels: tuple[tuple[int, int], ...]
    families: tuple[Family, ...]
    ok: bool


def size_bound_witness(fam: Family) -> SizeBoundTrace:
    """Run the induction that shows a separating union-closed family has at
    least as many members as base elements.

    At each level pick a maximum-frequency element x (smallest on ties). If
    some member misses x, restrict to the members containing x; otherwise
    delete x from every member and restrict to a maximum-frequency element y
    of the reduced base. Either way the family shrinks strictly; the trace
    records (size, base size) per level down to a single member, and ok
    reports whether size >= base size held throughout.
    """
    require_union_closed(fam)
    require_separating(fam)
    return _size_bound_trace(fam)


def _size_bound_trace(fam: Family) -> SizeBoundTrace:
    """size_bound_witness for a separating union-closed family."""
    members = list(fam.members)
    n = fam.n
    levels = []
    families = []
    ok = True
    while True:
        base = 0
        for m in members:
            base |= m
        levels.append((len(members), base.bit_count()))
        families.append(Family.from_masks(n, members))
        if len(members) < base.bit_count():
            ok = False
        if len(members) == 1:
            break

        x = _max_freq_element(members, n)
        bit = 1 << (x - 1)
        containing = [m for m in members if m & bit]
        if len(containing) < len(members):
            members = containing
        else:
            stripped = [m & ~bit for m in members]
            y = _max_freq_element(stripped, n)
            ybit = 1 << (y - 1)
            members = [m for m in stripped if m & ybit]
        if not members or len(members) >= levels[-1][0]:
            raise InternalError("size-bound reduction failed to shrink the family")
    return SizeBoundTrace(tuple(levels), tuple(families), ok)


def _max_freq_element(members: list[SetWord], n: int) -> int:
    counts = _member_counts(members, n)
    return counts.index(max(counts)) + 1
