"""Reference answers that do not come from the code under test.

Nothing here imports ``ucf``. The numbers are either derived from
published data (OEIS A102896), recomputed by small independent
implementations (closure, height, average, frequencies, the astar and
astarstar recipes), or pinned counts recorded with zero violations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

# OEIS A102896: Moore families (closure systems) on an n-set, n = 0..6.
A102896 = (1, 2, 7, 61, 2480, 1385552, 75973751474)


def moore_empty_bottom(n: int) -> int:
    """Moore families on [n] whose least member is empty, by binomial
    inversion: M(n) = sum_k C(n, k) * M0(n - k)."""
    return A102896[n] - sum(comb(n, k) * moore_empty_bottom(n - k) for k in range(1, n + 1))


def uc_count(n: int) -> int:
    """Union-closed families with base exactly [n]. Complements turn them into
    Moore families with empty bottom and no empty member required; the empty
    set is a free extra member, hence the factor 2."""
    return 2 * moore_empty_bottom(n)


def bell(m: int) -> int:
    """Bell number B(m), from the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def height2_count(n: int) -> int:
    """Union-closed families with base exactly [n] and height at most 2.

    Such a family is [n] plus members whose pairwise unions are all [n],
    that is, whose complements are pairwise disjoint and nonempty; the
    empty member's complement is [n] itself. Sets of pairwise disjoint
    nonempty subsets of [n] number B(n + 1).
    """
    return bell(n + 1)


# families_checked per (check id, n), n = 1..4, every one with zero violations.
VERIFY_CHECKED = {
    "T1.2": (1, 7, 89, 4541),
    "L1.3": (2, 6, 70, 4078),
    "T1.4": (2, 6, 39, 441),
    "L2.1.1": (2, 6, 70, 4078),
    "T2.1": (0, 0, 0, 1961),
    "C2.2": (0, 0, 0, 1961),
    "T4.1": (0, 0, 0, 1),
    "PROPS": (0, 0, 31, 2034),
}
T14_N5_CHECKED = 9590
NECESSITY_N3 = (30, 3)  # (families checked, violations) of T2.1 at n = 3 without n >= 4

# Height cap the verifier's DFS applies per check id (none for the others).
HEIGHT_CAP = {"T1.4": 3, "T2.1": 4, "C2.2": 4, "T4.1": 4, "PROPS": 4}

# DFS leaves = union-closed families with base [n] and height <= cap.
# n <= 4 is reproduced by `leaves_bruteforce`; n = 5 is pinned.
LEAVES = {
    None: {n: uc_count(n) for n in range(1, 6)},
    4: {1: 2, 2: 8, 3: 90, 4: 2939, 5: 382210},
    3: {1: 2, 2: 8, 3: 59, 4: 719, 5: 15067},
}

CANONICAL_CLASSES_N4 = 330


def leaves(tid: str | None, n: int) -> int:
    return LEAVES[HEIGHT_CAP.get(tid)][n]


# ---------------------------------------------------------------------------
# Family facts, recomputed from member bitmasks
# ---------------------------------------------------------------------------

def closure(masks) -> list[int]:
    """Union closure with a de-duplicated frontier, ascending."""
    have = set(masks)
    frontier = list(have)
    while frontier:
        fresh = set()
        for x in frontier:
            for y in have:
                u = x | y
                if u not in have:
                    fresh.add(u)
        have |= fresh
        frontier = list(fresh)
    return sorted(have)


def is_union_closed(masks) -> bool:
    have = set(masks)
    return any(have) and all(x | y in have for x in have for y in have)


def height(masks) -> int:
    """Longest chain under proper inclusion."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    down: list[int] = []
    for i, m in enumerate(ordered):
        best = 0
        for j in range(i):
            s = ordered[j]
            if s | m == m and s != m and down[j] > best:
                best = down[j]
        down.append(best + 1)
    return max(down)


def base_elements(masks) -> list[int]:
    acc = 0
    for m in masks:
        acc |= m
    return [i + 1 for i in range(acc.bit_length()) if acc >> i & 1]


def average(masks) -> Fraction:
    masks = list(masks)
    return Fraction(sum(m.bit_count() for m in masks), len(masks))


def frequencies(n: int, masks) -> list[int]:
    return [sum(1 for m in masks if m >> i & 1) for i in range(n)]


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_family(text: str) -> tuple[int, list[int]]:
    """Read the `n=<int>` / one-set-per-line family format."""
    n = None
    masks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ValueError(f"expected header, got {line!r}")
            n = int(line[2:])
            continue
        masks.append(0 if line == "{}" else sum(1 << (int(e) - 1) for e in line.split()))
    if n is None:
        raise ValueError("missing header")
    return n, masks


def format_family(n: int, masks) -> str:
    lines = [f"n={n}"]
    for m in sorted(masks):
        lines.append(" ".join(str(e) for e in base_elements([m])) if m else "{}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The extremal constructions, from their definitions: over [n] with
# p = ceil(n/2) - 1, the full set, the prefix [p], the co-singletons
# [n] - {x} for x > ceil(n/2), and the (p-1)-subsets of [p]; astarstar
# adds the (p-2)-subsets of [p].
# ---------------------------------------------------------------------------

def astar_masks(n: int) -> list[int]:
    half = (n + 1) // 2
    p = half - 1
    full = (1 << n) - 1
    masks = {full, (1 << p) - 1}
    masks.update(full ^ (1 << (x - 1)) for x in range(half + 1, n + 1))
    masks.update(sum(1 << i for i in c) for c in itertools.combinations(range(p), p - 1))
    return sorted(masks)


def astarstar_masks(n: int) -> list[int]:
    p = (n + 1) // 2 - 1
    masks = set(astar_masks(n))
    masks.update(sum(1 << i for i in c) for c in itertools.combinations(range(p), p - 2))
    return sorted(masks)


# ---------------------------------------------------------------------------
# Slow enumeration for n <= 4, used by the tests to reproduce LEAVES.
# ---------------------------------------------------------------------------

def leaves_bruteforce(n: int, cap: int | None) -> int:
    """Count union-closed families with base [n] and height <= cap by
    growing every family from {[n]} one member at a time (n <= 4)."""
    full = (1 << n) - 1
    seen = set()
    todo = [frozenset([full])]
    while todo:
        fam = todo.pop()
        if fam in seen:
            continue
        seen.add(fam)
        for s in range(full):
            if s not in fam:
                grown = frozenset(closure(fam | {s}))
                if grown not in seen:
                    todo.append(grown)
    return sum(1 for fam in seen if cap is None or height(fam) <= cap)
