"""Builders for the extremal union-closed families used as test fixtures.

All three constructions live over [n] and share a skeleton: the full set,
the prefix [p] with p = ceil(n/2) - 1, the co-singletons [n] \\ {x} for
x > ceil(n/2), and one or two layers of fixed-size subsets of the prefix
([0] = {} is a legal prefix):

  * build_astar     - height 4, adds the (p-1)-subsets of [p]; its average
                      size stays at or above n/2.
  * build_astarstar - height 5, further adds the (p-2)-subsets; its average
                      drops strictly below n/2 and equals a closed form in n
                      (one form per parity).
  * build_ak        - a ladder of families of height exactly k for any
                      k in [5, n+1], grown from build_astarstar one prefix
                      set per step by a three-branch recurrence; the final
                      step (k = n+1) adds the empty set. Every rung keeps
                      the average below n/2.

Builders self-validate by default through their `*_certificate`
counterparts, the one place that states each construction's expected
height, average relation and closed form. The check recomputes
union-closedness, separation, base, height, the small-slice cover size and
the average comparisons, and raises InternalError if anything is off. The
recurrence's three branch index sets are checked to cover each growth step
exactly once (BranchGap otherwise) on every build, independent of `verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bfamily import _b_report
from .chains import _lemma13_status
from .core import (
    Family,
    SetWord,
    _hasse,
    _is_union_closed,
    avg_size,
    base_is_full,
    full_word,
    is_separating,
    WORD_CAPACITY,
)
from .errors import BadK, BadN, BranchGap, InternalError


def _prefix(m: int) -> SetWord:
    return (1 << m) - 1


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


def _prefix_subsets(p: int, r: int) -> list[SetWord]:
    """All r-element subsets of [p], as masks."""
    return [sum(1 << i for i in combo) for combo in itertools.combinations(range(p), r)]


def delta(n: int) -> int:
    """Parity offset n - 2*ceil(n/2) + 2: 2 for even n, 1 for odd."""
    return n - 2 * _ceil_half(n) + 2


@dataclass(frozen=True)
class ConstructionCertificate:
    """Recomputed properties of a built family, all asserted at build time."""

    kind: str
    n: int
    k: int | None
    members: int
    sum_sizes: int
    avg: Fraction
    union_closed: bool
    separating: bool
    base_full: bool
    height: int
    expected_height: int
    b_size: int
    lemma13_ok: bool
    avg_relation: str  # "ge" or "lt", the required comparison against n/2
    avg_ok: bool
    closed_form: Fraction | None
    closed_form_ok: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.union_closed
            and self.separating
            and self.base_full
            and self.height == self.expected_height
            and self.b_size == 1
            and self.lemma13_ok
            and self.avg_ok
            and self.closed_form_ok is not False
        )


def _certify(
    fam: Family,
    kind: str,
    expected_height: int,
    avg_relation: str,
    closed_form: Fraction | None,
    k: int | None = None,
) -> ConstructionCertificate:
    n = fam.n
    avg = avg_size(fam)
    scan = _hasse(fam.members)  # the union test, the height and Lemma 1.3 read it
    uc = _is_union_closed(fam, scan)
    sep = is_separating(fam)
    full = base_is_full(fam)
    h = max(scan[0])
    bsize = _b_report(fam, h).size if uc and full else -1
    l13 = _lemma13_status(fam, scan).ok if uc and sep and full else False
    half = Fraction(n, 2)
    avg_ok = avg >= half if avg_relation == "ge" else avg < half
    cert = ConstructionCertificate(
        kind=kind,
        n=n,
        k=k,
        members=len(fam),
        sum_sizes=sum(m.bit_count() for m in fam.members),
        avg=avg,
        union_closed=uc,
        separating=sep,
        base_full=full,
        height=h,
        expected_height=expected_height,
        b_size=bsize,
        lemma13_ok=l13,
        avg_relation=avg_relation,
        avg_ok=avg_ok,
        closed_form=closed_form,
        closed_form_ok=None if closed_form is None else avg == closed_form,
    )
    if not cert.ok:
        raise InternalError(f"construction self-check failed: {cert}")
    return cert


def _astar_masks(n: int) -> set[SetWord]:
    m = _ceil_half(n)
    p = m - 1
    masks = {full_word(n), _prefix(p)}
    for x in range(m + 1, n + 1):
        masks.add(full_word(n) ^ (1 << (x - 1)))
    masks.update(_prefix_subsets(p, p - 1))
    return masks


def build_astar(n: int, verify: bool = True) -> Family:
    """Height-4 family over [n] with a single-set slice cover; n >= 4."""
    if verify:
        return astar_certificate(n)[0]
    if not 4 <= n <= WORD_CAPACITY:
        raise BadN(f"build_astar requires 4 <= n <= {WORD_CAPACITY}")
    return Family.from_masks(n, _astar_masks(n))


def astar_certificate(n: int) -> tuple[Family, ConstructionCertificate]:
    fam = build_astar(n, verify=False)
    return fam, _certify(fam, "astar", expected_height=4, avg_relation="ge", closed_form=None)


def astarstar_closed_form(n: int) -> Fraction:
    """Exact average size of build_astarstar(n), one form per parity."""
    if n % 2 == 0:
        return Fraction(n**3 + 36 * n - 32, 2 * n**2 + 4 * n + 32)
    return Fraction(n**3 + 3 * n**2 + 15 * n - 3, 2 * n**2 + 8 * n + 22)


def _astarstar_masks(n: int) -> set[SetWord]:
    p = _ceil_half(n) - 1
    masks = _astar_masks(n)
    masks.update(_prefix_subsets(p, p - 2))
    return masks


def build_astarstar(n: int, verify: bool = True) -> Family:
    """Height-5 family over [n] with average size strictly below n/2; n >= 9."""
    if verify:
        return astarstar_certificate(n)[0]
    if not 9 <= n <= WORD_CAPACITY:
        raise BadN(f"build_astarstar requires 9 <= n <= {WORD_CAPACITY}")
    return Family.from_masks(n, _astarstar_masks(n))


def astarstar_certificate(n: int) -> tuple[Family, ConstructionCertificate]:
    fam = build_astarstar(n, verify=False)
    cert = _certify(fam, "astarstar", expected_height=5, avg_relation="lt",
                    closed_form=astarstar_closed_form(n))
    return fam, cert


# ---------------------------------------------------------------------------
# The height ladder: grow one prefix set per step k -> k+1.
# ---------------------------------------------------------------------------

def _ladder_branches(n: int, j: int) -> list[int]:
    """Which of the three growth branches claim step j (1, 2 or 3)."""
    d = delta(n)
    out = []
    if 5 <= j <= 5 + d:
        out.append(1)
    if (j - d) % 2 == 0 and 3 <= (j - d) // 2 <= (n - d) // 2:
        out.append(2)
    if (j - d - 1) % 2 == 0 and 3 <= (j - d - 1) // 2 <= (n - d - 2) // 2:
        out.append(3)
    return out


def validate_ladder_branches(n: int) -> dict[int, int]:
    """Map each growth step j in [5, n] to its unique branch.

    The three index sets must tile [5, n] exactly; any gap or overlap raises
    BranchGap rather than being silently repaired.
    """
    chosen = {}
    for j in range(5, n + 1):
        branches = _ladder_branches(n, j)
        if len(branches) != 1:
            raise BranchGap(f"step {j} of the n={n} ladder matched branches {branches}")
        chosen[j] = branches[0]
    return chosen


def _ladder_step_mask(n: int, j: int, branch: int) -> SetWord:
    m = _ceil_half(n)
    d = delta(n)
    if branch == 1:
        return _prefix(m + j - 5)
    if branch == 2:
        return _prefix(m - (j + 2 - d) // 2)
    return _prefix(m + (j - 5 + d) // 2)


def ladder_closed_form(n: int) -> Fraction:
    """Exact average size of build_ak(n, 6 + delta(n)), one form per parity."""
    if n % 2 == 0:
        return Fraction(n**3 + 60 * n + 16, 2 * n**2 + 4 * n + 80)
    return Fraction(n**3 + 3 * n**2 + 31 * n + 29, 2 * n**2 + 8 * n + 54)


def build_ak(n: int, k: int, verify: bool = True) -> Family:
    """Family of height exactly k over [n], for n >= 11 and 5 <= k <= n+1."""
    if verify:
        return ak_certificate(n, k)[0]
    if not 11 <= n <= WORD_CAPACITY:
        raise BadN(f"build_ak requires 11 <= n <= {WORD_CAPACITY}")
    if not 5 <= k <= n + 1:
        raise BadK(f"build_ak requires 5 <= k <= n+1 = {n + 1}")
    branches = validate_ladder_branches(n)
    masks = _astarstar_masks(n)
    for j in range(5, k):
        step = _ladder_step_mask(n, j, branches[j])
        if step in masks:
            raise InternalError(f"ladder step {j} revisited member {step:#x}")
        masks.add(step)
    return Family.from_masks(n, masks)


def ak_certificate(n: int, k: int) -> tuple[Family, ConstructionCertificate]:
    fam = build_ak(n, k, verify=False)
    closed = ladder_closed_form(n) if k == 6 + delta(n) else None
    cert = _certify(fam, "ak", expected_height=k, avg_relation="lt", closed_form=closed, k=k)
    return fam, cert
