"""Chain analytics for set families ordered by proper inclusion.

A chain is a subfamily totally ordered by proper inclusion; the height h of
a family is the maximum chain size. A chain is maximal if no member of the
family can be inserted anywhere in it; consecutive elements of a maximal
chain are therefore cover pairs of the family's inclusion order (anything
strictly between two consecutive elements would be comparable to the whole
chain). r denotes the minimum size of a maximal chain.

Heights come from a longest-path DP over the proper-inclusion DAG; r comes
from a shortest-path DP restricted to cover (Hasse) edges, running from the
minimal members up to the maximal ones.

Witness chains are reported top-down (strictly decreasing by inclusion) and
are deterministic: among maximum chains we return the one whose top-down
mask tuple is lexicographically smallest in canonical (integer) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Family,
    SetWord,
    _member_counts,
    full_word,
    require_base_full,
    require_nonempty,
    require_separating,
    require_union_closed,
    word_elements,
)
from .errors import DegenerateHeight, InternalError, TooSmall


def _is_proper_subset(a: SetWord, b: SetWord) -> bool:
    return a | b == b and a != b


@dataclass(frozen=True)
class ChainReport:
    """Height and minimum-maximal-chain data with explicit witnesses."""

    height: int
    witness_chain: tuple[SetWord, ...]
    r: int
    r_witness: tuple[SetWord, ...]


def _longest_chains(ms: tuple[SetWord, ...]) -> tuple[list[int], list[int]]:
    """Member indices by (popcount, value), and down[i]: longest chain topped by member i."""
    order = sorted(range(len(ms)), key=lambda i: (ms[i].bit_count(), ms[i]))
    down = [1] * len(ms)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if _is_proper_subset(ms[j], ms[i]) and down[j] + 1 > down[i]:
                down[i] = down[j] + 1
    return order, down


def chain_report(fam: Family) -> ChainReport:
    require_nonempty(fam)
    ms = fam.members
    order, down = _longest_chains(ms)
    h = max(down)

    # Greedy top-down reconstruction gives the lexicographically least
    # maximum chain: at each level pick the smallest mask that still heads
    # a chain of the required remaining length inside the current top.
    witness = []
    need = h
    top = None
    for _ in range(h):
        candidates = [
            m
            for i, m in enumerate(ms)
            if down[i] == need and (top is None or _is_proper_subset(m, top))
        ]
        top = min(candidates)
        witness.append(top)
        need -= 1

    r, r_witness = _min_maximal_chain(ms, order)
    return ChainReport(h, tuple(witness), r, r_witness)


def _hasse_parents(ms: tuple[SetWord, ...], order: list[int]) -> list[list[int]]:
    """parents[i] = indices covering member i (minimal strict supersets)."""
    parents: list[list[int]] = [[] for _ in ms]
    for i in range(len(ms)):
        covers: list[int] = []
        # Ascending (popcount, value) scan keeps exactly the minimal supersets.
        for j in order:
            if not _is_proper_subset(ms[i], ms[j]):
                continue
            if any(_is_proper_subset(ms[k], ms[j]) for k in covers):
                continue
            covers.append(j)
        parents[i] = covers
    return parents


def _min_maximal_chain(
    ms: tuple[SetWord, ...], order: list[int]
) -> tuple[int, tuple[SetWord, ...]]:
    parents = _hasse_parents(ms, order)
    # A member is minimal iff it covers nothing, i.e. is nobody's Hasse parent.
    covering = {p for ps in parents for p in ps}
    minimal = [i for i in range(len(ms)) if i not in covering]

    # up_min[i]: fewest members on a cover path from i up to a maximal member.
    up_min = [1] * len(ms)
    for i in reversed(order):
        if parents[i]:
            up_min[i] = 1 + min(up_min[p] for p in parents[i])

    r = min(up_min[i] for i in minimal)
    # Ties go to the least mask: member indices follow mask order.
    cur = min(i for i in minimal if up_min[i] == r)
    chain = [ms[cur]]
    while parents[cur]:
        cur = min(p for p in parents[cur] if up_min[p] == up_min[cur] - 1)
        chain.append(ms[cur])
    return r, tuple(reversed(chain))


def height(fam: Family) -> int:
    """Maximum chain size: chain_report(fam).height without its chains or r."""
    require_nonempty(fam)
    return max(_longest_chains(fam.members)[1])


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


def _children(fam: Family, x: SetWord) -> list[SetWord]:
    """Hasse children of x: the maximal members properly inside x."""
    below = [m for m in fam.members if _is_proper_subset(m, x)]
    return [m for m in below if not any(_is_proper_subset(m, b) for b in below)]


def _descend_maximal(fam: Family, start: SetWord) -> list[SetWord]:
    """Extend start downward along cover edges, smallest mask first."""
    chain = [start]
    children = _children(fam, start)
    while children:
        chain.append(min(children))
        children = _children(fam, chain[-1])
    return chain


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


def _lemma13_status(fam: Family) -> Lemma13Report:
    n = fam.n
    for child in sorted(_children(fam, full_word(n))):
        if child.bit_count() != n - 1:
            chain = [full_word(n)] + _descend_maximal(fam, child)
            return Lemma13Report(False, tuple(chain))
    return Lemma13Report(True, None)


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
    require_union_closed(fam)
    if len(fam) <= 1:
        raise TooSmall("witness requires at least two member sets")
    require_base_full(fam)
    return _thm12_witness(fam, chain_report(fam))


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
