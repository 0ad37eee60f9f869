"""Average-size lower-bound functions and their constrained minimizations.

Everything here is exact rational arithmetic. The two bound functions

    zeta(n, b, a) = (2n - 1 + b*a + (n - b - 1)(n - a - 3)) / n
    eta(n, b, a)  = (2n - 1 + b*a) / (a + 3)

take the size b of the small-slice base and the number a of members properly
inside it. Their relaxations f and g share the same algebraic form:

    f(x, y) = n - x - y - 2 + (2xy + 3x + y + 2) / n      (zeta == f pointwise)
    g(x, y) = (2n + xy - 1) / (y + 3)                     (eta == g pointwise)

The minimizers are confirmation devices, not proofs. Each visits every x
tick of a rational grid over the stated feasible range and, independently,
every integer x in it, and evaluates the function exactly at y = 1 and
y = x only. That loses nothing against scanning the y ticks of [1, x]:
f is affine in y, and g is linear-fractional in y with its pole y = -3
outside [1, x], so both are monotone in y there and the minimum over any
y set that holds both endpoints is at one of them. Ties resolve to the
lexicographically smallest (value, x, y); when the function is constant
in y, y = 1 is among the scanned points and wins the tie, so the result
equals that of the full two-dimensional scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor
from typing import Sequence

from .errors import BadK, BadM, BadN, EmptyRegion, InternalError, ZeroDenominator

Rat = Fraction | int

# The most grid ticks one scan lists. Every tick is an exact Fraction made
# before the scan starts; at n = 10 a 1/10000 grid (65,000 ticks over both
# scans) takes about 4.5 s on one core of a 2-vCPU VM under Python 3.11, and
# a finer step could run without end.
_MAX_TICKS = 100_000


def zeta(n: int, bsize: Rat, asub: Rat) -> Fraction:
    """Height-4, cover-size-1 lower bound for the trimmed average."""
    if n < 1:
        raise BadN("zeta requires n >= 1")
    b, a = Fraction(bsize), Fraction(asub)
    return (2 * n - 1 + b * a + (n - b - 1) * (n - a - 3)) / n


def f_relax(n: int, x: Rat, y: Rat) -> Fraction:
    """Continuous relaxation of zeta; identical to it at every point."""
    if n < 1:
        raise BadN("f requires n >= 1")
    x, y = Fraction(x), Fraction(y)
    return n - x - y - 2 + Fraction(2 * x * y + 3 * x + y + 2, 1) / n


def eta(n: int, bsize: Rat, asub: Rat) -> Fraction:
    """Height-4, cover-size-2 lower bound for the trimmed average."""
    if n < 1:
        raise BadN("eta requires n >= 1")
    b, a = Fraction(bsize), Fraction(asub)
    if a == -3:
        raise ZeroDenominator("eta has a pole at a = -3")
    return (2 * n - 1 + b * a) / (a + 3)


def g_relax(n: int, x: Rat, y: Rat) -> Fraction:
    """Continuous relaxation of eta; undefined on the line y = -3."""
    if n < 1:
        raise BadN("g requires n >= 1")
    x, y = Fraction(x), Fraction(y)
    if y == -3:
        raise ZeroDenominator("g has a pole at y = -3")
    return (2 * n + x * y - 1) / (y + 3)


@dataclass(frozen=True)
class BoundEval:
    value: Fraction
    at: tuple[Fraction, Fraction]


def _ticks(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    """lo, lo+step, ... capped at hi, with hi always included; a ValueError
    if they would number more than _MAX_TICKS."""
    count = ceil((hi - lo) / step) + 1
    if count > _MAX_TICKS:
        # by default Python prints no int over 4,300 digits; name such a count by its size
        named = count if count.bit_length() < 4000 else f"over 2^{count.bit_length() - 1}"
        raise ValueError(f"the grid gives {named} ticks over [{lo}, {hi}], more than {_MAX_TICKS}")
    out = []
    t = lo
    while t < hi:
        out.append(t)
        t += step
    out.append(hi)
    return out


def _minimize(points, fn) -> BoundEval:
    best = None
    for x, y in points:
        v = fn(x, y)
        key = (v, x, y)
        if best is None or key < best:
            best = key
    if best is None:
        raise EmptyRegion("no feasible points")
    return BoundEval(best[0], (best[1], best[2]))


def _endpoint_scan(lo: Fraction, hi: Fraction, step: Fraction):
    """(x, 1) and (x, x) for every grid tick x of [lo, hi] and every
    integer x in it."""
    xs = _ticks(lo, hi, step) + [Fraction(i) for i in range(ceil(lo), floor(hi) + 1)]
    for x in xs:
        yield x, Fraction(1)
        yield x, x


def minimize_f(n: int, grid_step: Rat) -> BoundEval:
    """Minimum of f over 1 <= y <= x <= (n-1)/2, by the exact endpoint scan
    of the x grid plus every integer x."""
    if n < 4:
        raise BadN("minimize_f requires n >= 4")
    step = Fraction(grid_step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    points = _endpoint_scan(Fraction(1), Fraction(n - 1, 2), step)
    return _minimize(points, lambda x, y: f_relax(n, x, y))


def minimize_g(n: int, grid_step: Rat) -> BoundEval:
    """Minimum of g over n/2 <= x <= n-2, 1 <= y <= x, same scan scheme."""
    if n < 4:
        raise BadN("minimize_g requires n >= 4")
    step = Fraction(grid_step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    points = _endpoint_scan(Fraction(n, 2), Fraction(n - 2), step)
    return _minimize(points, lambda x, y: g_relax(n, x, y))


def prop_d_check(p: Sequence[Rat], k: int) -> bool:
    """Exact check of the k-subset double-counting identity

        C(N-1, k-1) * sum(p)  ==  sum over k-subsets S of sum_{j in S} p_j

    together with its counting corollary C(N-1, k-1) * N == C(N, k) * k.
    """
    values = [Fraction(v) for v in p]
    n = len(values)
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    lhs = comb(n - 1, k - 1) * sum(values)
    rhs = Fraction(0)
    for subset in itertools.combinations(range(n), k):
        rhs += sum(values[j] for j in subset)
    corollary = comb(n - 1, k - 1) * n == comb(n, k) * k
    return lhs == rhs and corollary


_CASE2_FORMS = {
    4: lambda n: Fraction(7 * n - 1, 12),
    5: lambda n: Fraction(31 * n - 3, 56),
    6: lambda n: Fraction(17 * n - 1, 32),
}


def case2_subcase_bounds(n: int, m: int) -> Fraction:
    """Closed-form trimmed-average lower bound when the small slice has
    exactly m members under the two-set-cover, (n-1)-base structure."""
    if m not in _CASE2_FORMS:
        raise BadM(f"member count must be 4, 5 or 6, got {m}")
    if n < 4:
        raise BadN("case2 bounds require n >= 4")
    value = _CASE2_FORMS[m](n)
    if value <= Fraction(n, 2):
        raise InternalError(f"subcase bound {value} does not exceed n/2")
    return value
