"""Small-slice cover analysis and the structural proposition battery.

For a union-closed family with base [n], the small slice is the set of
members of cardinality below n/2. Its base b(B) is covered by a subfamily
B; we search for one of minimum size |B|. Minimality forces irredundance (dropping
a member whose private contribution is empty would give a smaller cover),
which is re-verified on every result.

The search is by increasing subfamily size and is capped at the family
height: a cover larger than the height would yield, via its running unions,
a chain longer than the height. Blowing the cap therefore indicates a bug,
not bad input. One search, `_least_cover`, finds the lexicographically
least minimum cover for `b_report`, `prop_suite` and the enumerator's
leaves, which search their slice once per walk and test the cap on each
leaf. `_min_covers` lists every minimum cover, for `minimum_covers`, and is
the tests' independent reference for `_least_cover`.

`prop_suite` evaluates a battery of structural facts about separating
union-closed families of height 4, keyed by the letters A-L (D is an
algebraic identity and lives in `ucf.bounds`). Each record states whether
the fact's hypotheses hold for the given family, whether its conclusion
holds, and a concrete witness when it fails. The letters are stable
identifiers used by the CLI and the exhaustive verifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

from .core import (
    Family,
    SetWord,
    _checked_scan,
    _member_counts,
    avg_size,
    is_separating,
    word_elements,
)
from .errors import EmptyFamily, InternalError


@dataclass(frozen=True)
class BReport:
    """Base of the small slice, one minimum cover of it, and the cover size."""

    b: SetWord
    cover: Family
    size: int


def _checked_height(fam: Family) -> int:
    """Height of a family that must be union-closed with base [n], read
    from the scan its union test reads too."""
    return max(_checked_scan(fam)[0])


def _small_slice(fam: Family) -> tuple[tuple[SetWord, ...], SetWord]:
    """Members of size below n/2 and their base."""
    small = tuple(m for m in fam.members if 2 * m.bit_count() < fam.n)
    target = 0
    for m in small:
        target |= m
    return small, target


def _private_parts(cover: tuple[SetWord, ...]) -> list[SetWord]:
    """Each cover member less the union of the others (`core.irr`): its
    elements that no second member holds."""
    once = twice = 0
    for c in cover:
        twice |= once & c
        once |= c
    return [c & ~twice for c in cover]


def _least_cover(small: tuple[SetWord, ...], b: SetWord, cap: int) -> tuple[SetWord, ...]:
    """The first cover `_min_covers` yields: the first combination of the
    ascending slice members `small`, by size from 0 up to `cap`, whose union
    is their base b. Within one size, combinations run in order of their
    first size - 1 members, the head, and every slice member lies inside b,
    so the least cover with a given head ends at the least member after the
    head's last that holds b less the head's union."""
    if not b:
        return ()
    for size in range(1, cap + 1):
        for head in itertools.combinations(range(len(small)), size - 1):
            acc = 0
            for i in head:
                acc |= small[i]
            need = b & ~acc
            for last in small[head[-1] + 1 if head else 0:]:
                if last & need == need:
                    cover = (*(small[i] for i in head), last)
                    if not all(_private_parts(cover)):
                        raise InternalError("minimum cover must be irredundant")
                    return cover
    raise InternalError("cover search exceeded the height cap")


def _min_covers(
    n: int, small: tuple[SetWord, ...], target: SetWord, cap: int
) -> Iterator[Family]:
    """Every minimum-size subfamily of `small` whose base is `target`, in
    canonical order: sizes 0, 1, 2, ... up to the height cap, and within the
    first size that has a cover, combinations in order."""
    for size in range(cap + 1):
        found = False
        for combo in itertools.combinations(small, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == target:
                if not all(_private_parts(combo)):
                    raise InternalError("minimum cover must be irredundant")
                found = True
                yield Family(n, combo)
        if found:
            return
    raise InternalError("cover search exceeded the height cap")


def b_report(fam: Family) -> BReport:
    """Lexicographically least minimum subfamily of the small slice whose
    base equals the slice's base.

    An empty slice (or a slice of just the empty set) yields the empty cover.
    """
    return _b_report(fam, _checked_height(fam))


def _b_report(fam: Family, h: int) -> BReport:
    """b_report for a union-closed family with base [n] and height h."""
    small, target = _small_slice(fam)
    cover = _least_cover(small, target, h)
    return BReport(target, Family(fam.n, cover), len(cover))


def minimum_covers(fam: Family) -> tuple[Family, ...]:
    """All minimum-size covers of the small slice's base, canonical order."""
    h = _checked_height(fam)
    small, target = _small_slice(fam)
    return tuple(_min_covers(fam.n, small, target, h))


@dataclass(frozen=True)
class KCounts:
    """k[i-1] = number of ground elements lying in exactly i cover members."""

    k: tuple[int, ...]


def k_counts(cover: Family) -> KCounts:
    if not cover.members:
        raise EmptyFamily("k_counts of empty cover")
    multiplicity = _member_counts(cover.members, cover.n)
    size = len(cover.members)
    k = tuple(sum(1 for c in multiplicity if c == i) for i in range(1, size + 1))
    if sum(i * k[i - 1] for i in range(1, size + 1)) != sum(
        m.bit_count() for m in cover.members
    ):
        raise InternalError("k-count double-counting identity failed")
    return KCounts(k)


# ---------------------------------------------------------------------------
# Proposition battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropResult:
    applicable: bool
    holds: bool | None
    witness: Any = None


PROP_KEYS = ("A", "B", "C", "E", "F", "G", "H", "I", "J", "K", "L")

# Labels assigned by the form classification under proposition I.
EQ_IRR_UNION = "eq-irr-union"
FORM_LABELS = ("form-i", "form-ii", "form-iii")
VIOLATION = "violation"


def prop_suite(fam: Family) -> dict[str, PropResult]:
    """Evaluate propositions A-C, E-L against one family.

    Hypotheses are decided mechanically: A-C and E require a separating
    family of height 4 with n >= 4 and cover size |B| at most 2 (A-C
    further need |b(B)| < n-1, where b(B) is the base of the small slice;
    E needs |b(B)| = n-1 with a slice member meeting both cover halves and
    at least four slice members); F-I require |B| = 3, J-L |B| = 4, all at
    height 4. Inapplicable propositions are reported with holds=None. Every
    letter reads only the family's members inside b(B), and B also whether
    the average meets n/2, so all eleven come from one function of those
    (`_prop_letters`), which the exhaustive verifier runs once per word of
    those members. E and G-L read the lexicographically least minimum cover
    (the one `b_report` returns); that their verdicts do not depend on which
    minimum cover is read is checked for every family with n <= 5 (in the
    deep tests), not proven.
    """
    return _prop_suite(fam, _checked_height(fam), is_separating(fam))


def _prop_suite(fam: Family, h: int, sep: bool) -> dict[str, PropResult]:
    """prop_suite for a union-closed family with base [n], its height and
    separation: the letters `_prop_letters` finds to apply, the rest
    inapplicable."""
    results = dict.fromkeys(PROP_KEYS, PropResult(False, None))
    if h == 4 and sep:
        b = _small_slice(fam)[1]
        inside = tuple(m for m in fam.members if m | b == b)
        results.update(_prop_letters(fam.n, inside, avg_size(fam)))
    return results


def _prop_letters(
    n: int, inside: tuple[SetWord, ...], avg: Fraction | None
) -> dict[str, PropResult]:
    """The letters that apply to a separating family of height 4, with
    their verdicts and witnesses, from n, the family's ascending members
    inside b(B) and its average size. Those members hold the small slice,
    so they give b(B), the least minimum cover and sub_b, the members
    properly inside b(B). Inapplicable letters are left out.

    Only B reads the average, and only whether it meets n/2. With `avg`
    None, B is decided by its count test alone where that holds and is
    left undecided (holds None) where it fails, so the walk caches the
    verdicts per word of those members (`enumeration._props_verdicts`) and
    tests the average on the leaf.

    G cannot fail on any family, union-closed or not, so a "G holds" is no
    evidence. Its cover c1, c2, c3 is made of slice members, each of at most
    s = ceil(n/2) - 1 elements, with union [n]. An element outside the
    private parts P lies in two or three of them, so 2n - |P| <= sum |ci| <= 3s.
    A slice member holding P would need |P| <= s, so 2n <= 4s <= 2n - 2.
    """
    small = tuple(m for m in inside if 2 * m.bit_count() < n)
    bword = 0
    for m in small:
        bword |= m
    cover = _least_cover(small, bword, 4)
    csize = len(cover)
    bword_size = bword.bit_count()  # |b(B)|
    results: dict[str, PropResult] = {}

    if n >= 4 and csize <= 2 and bword_size < n - 1:
        sub_b = tuple(m for m in inside if m != bword)
        # A: complements within B of distinct proper-subset members are disjoint.
        witness = None
        for x1, x2 in itertools.combinations(sub_b, 2):
            if (bword & ~x1) & (bword & ~x2):
                witness = {"x1": word_elements(x1), "x2": word_elements(x2)}
                break
        results["A"] = PropResult(True, witness is None, witness)

        # B: either the average already meets n/2, or 1 <= |sub_b| <= |b(B)|;
        # with no average, B is undecided (None) where the count test fails.
        ok = 1 <= len(sub_b) <= bword_size or (None if avg is None else avg >= Fraction(n, 2))
        witness = {"avg": str(avg), "sub_b": len(sub_b), "bsize": bword_size}
        results["B"] = PropResult(True, ok, witness if ok is False else None)

        # C: total size of proper-subset members is at least (count-1)*|b(B)|.
        total = sum(m.bit_count() for m in sub_b)
        ok = total >= (len(sub_b) - 1) * bword_size
        results["C"] = PropResult(True, ok, None if ok else {"total": total, "count": len(sub_b)})

    # E: with a two-set cover of an (n-1)-element base and a slice member
    # meeting both halves, any four distinct slice members total >= (3n+1)/2.
    e_applicable = (
        n >= 4
        and csize == 2
        and bword_size == n - 1
        and len(small) >= 4
        and any(
            m not in cover and m & cover[0] and m & cover[1]
            for m in small
        )
    )
    if e_applicable:
        bound = Fraction(3 * n + 1, 2)
        witness = None
        for quad in itertools.combinations(small, 4):
            if sum(m.bit_count() for m in quad) < bound:
                witness = {"sets": [word_elements(m) for m in quad]}
                break
        results["E"] = PropResult(True, witness is None, witness)

    irrs = _private_parts(cover)
    irr_union = 0
    for w in irrs:
        irr_union |= w
    non_cover_small = tuple(m for m in small if m not in cover)

    if csize == 3:
        # F: a three-set cover forces |b(B)| into {n-1, n}.
        ok = bword_size in (n - 1, n)
        results["F"] = PropResult(True, ok, None if ok else {"bsize": bword_size})

    if csize == 3 and bword_size == n:
        # G: |b(B)| = n: no non-cover slice member may contain every private part.
        witness = None
        for m in non_cover_small:
            if irr_union | m == m:
                witness = {"a": word_elements(m)}
                break
        results["G"] = PropResult(True, witness is None, witness)

        # H: |b(B)| = n: slice members meet each multi-element private part in
        # 0, all, or all-but-one of its elements.
        witness = None
        for m in small:
            for w in irrs:
                size = w.bit_count()
                if size > 1 and (m & w).bit_count() not in (0, size - 1, size):
                    witness = {"a": word_elements(m), "irr": word_elements(w)}
                    break
            if witness:
                break
        results["H"] = PropResult(True, witness is None, witness)

    if csize == 3 and bword_size == n - 1:
        # I: |b(B)| = n-1: each non-cover slice member is the union of the private
        # parts, or matches exactly one of the three symmetric-difference forms.
        classifications = []
        ok = True
        for m in non_cover_small:
            label = _classify_form(m, cover, irrs, irr_union)
            classifications.append({"a": word_elements(m), "label": label})
            if label == VIOLATION:
                ok = False
        results["I"] = PropResult(True, ok, {"classifications": classifications})

    if csize == 4:
        # J: a four-set cover forces |b(B)| = n.
        ok = bword_size == n
        results["J"] = PropResult(True, ok, None if ok else {"bsize": bword_size})

        # K: four-set covers have singleton private parts.
        ok = all(w.bit_count() == 1 for w in irrs)
        witness = None if ok else {"irrs": [word_elements(w) for w in irrs]}
        results["K"] = PropResult(True, ok, witness)

        # L: four-set cover size arithmetic.
        sizes = [m.bit_count() for m in cover]
        ok = _four_cover_sizes_ok(n, sizes)
        results["L"] = PropResult(True, ok, None if ok else {"sizes": sizes})

    return results


def _four_cover_sizes_ok(n: int, sizes: list[int]) -> bool:
    """Proposition L on the member sizes of a four-set cover. Even n pins
    every member to (n-2)/2; odd n allows a window, rigid once one member
    hits (n-5)/2."""
    total = sum(sizes)
    if n % 2 == 0:
        return total == 2 * n - 4 and all(2 * s == n - 2 for s in sizes)
    if not (2 * n - 4 <= total <= 2 * n - 2 and all(2 * s >= n - 5 for s in sizes)):
        return False
    if any(2 * s == n - 5 for s in sizes):
        return all(2 * s == n - 1 for s in sizes if 2 * s != n - 5)
    return True


def _classify_form(
    m: SetWord,
    cover: tuple[SetWord, ...],
    irrs: list[SetWord],
    irr_union: SetWord,
) -> str:
    if m == irr_union:
        return EQ_IRR_UNION
    matched = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        sym = (cover[j] | cover[k]) & ~(cover[j] & cover[k])
        if m & irrs[i] == 0 and sym & ~m == 0:
            matched.append(FORM_LABELS[i])
    return matched[0] if len(matched) == 1 else VIOLATION

