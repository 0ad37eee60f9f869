"""Bound functions: closed-form values, pointwise identities, minimizations,
and the subset-sum identity."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import ucf
from ucf import bounds
from ucf.bounds import _endpoint_scan, _minimize, _ticks
from ucf.errors import BadK, BadM, BadN, ZeroDenominator


def test_zeta_direct_substitution():
    assert ucf.zeta(4, 1, 1) == Fraction(2, 1)


def test_zeta_at_balanced_point_is_half_for_even_n():
    for n in range(4, 41, 2):
        p = n // 2 - 1  # ceil(n/2) - 1
        assert ucf.zeta(n, p, p) == Fraction(n, 2)


@given(st.integers(4, 40), st.data())
def test_zeta_equals_f_on_integer_grid(n, data):
    x = data.draw(st.integers(0, n))
    y = data.draw(st.integers(0, x))
    assert ucf.zeta(n, x, y) == ucf.f_relax(n, x, y)


@given(
    st.integers(4, 40),
    st.fractions(min_value=-5, max_value=50),
    st.fractions(min_value=-5, max_value=50),
)
def test_zeta_equals_f_everywhere(n, x, y):
    assert ucf.zeta(n, x, y) == ucf.f_relax(n, x, y)


def test_f_at_claimed_optimum():
    for n in range(4, 41, 2):
        half = Fraction(n, 2)
        assert ucf.f_relax(n, half - 1, half - 1) == half


def test_g_at_claimed_optimum():
    for n in range(4, 41, 2):
        half = Fraction(n, 2)
        assert ucf.g_relax(n, half, half) == half + Fraction(n - 2, n + 6)


@given(st.integers(4, 40), st.integers(0, 40), st.integers(0, 40))
def test_eta_equals_g(n, x, y):
    assert ucf.eta(n, x, y) == ucf.g_relax(n, x, y)


def test_eta_identity_check_can_fail(monkeypatch):
    # eta has its own formula, so a wrong g must break `ucf bounds`' identity.
    from ucf import cli

    monkeypatch.setattr(bounds, "g_relax", lambda n, x, y: Fraction(x + y))
    assert cli._identity_on_grid(10) == (True, False)


def test_g_pole():
    with pytest.raises(ZeroDenominator):
        ucf.g_relax(10, 1, -3)
    with pytest.raises(ZeroDenominator):
        ucf.eta(10, 1, -3)
    with pytest.raises(BadN):
        ucf.eta(0, 1, 1)


# ---------------------------------------------------------------------------
# minimizations
# ---------------------------------------------------------------------------

def test_minimize_f_n10():
    got = ucf.minimize_f(10, Fraction(1, 100))
    assert got.value == Fraction(5, 1)
    assert got.at == (Fraction(4), Fraction(4))
    assert ucf.f_relax(10, 4, 4) == 5


def test_minimize_g_n10():
    got = ucf.minimize_g(10, Fraction(1, 100))
    assert got.value == Fraction(11, 2)
    assert got.at == (Fraction(5), Fraction(5))


def test_minimize_f_degenerate_region_n4():
    # region 1 <= y <= x <= 3/2 holds a single integer point
    assert ucf.f_relax(4, Fraction(3, 2), 1) == Fraction(17, 8)
    got = ucf.minimize_f(4, Fraction(1, 4))
    assert got.value == Fraction(2, 1)
    assert got.at == (Fraction(1), Fraction(1))


# The two-dimensional scans the minimizers ran before the endpoint rule,
# kept as the reference they are compared against.

def _grid_points_f(n, step):
    hi = Fraction(n - 1, 2)
    for x in _ticks(Fraction(1), hi, step):
        for y in _ticks(Fraction(1), x, step):
            yield x, y
    imax = (n - 1) // 2
    for xi in range(1, imax + 1):
        for yi in range(1, xi + 1):
            yield Fraction(xi), Fraction(yi)


def _grid_points_g(n, step):
    lo, hi = Fraction(n, 2), Fraction(n - 2)
    for x in _ticks(lo, hi, step):
        for y in _ticks(Fraction(1), x, step):
            yield x, y
    xmin = -((-n) // 2)  # ceil(n/2)
    for xi in range(xmin, n - 1):
        for yi in range(1, xi + 1):
            yield Fraction(xi), Fraction(yi)


# Eleven steps for each n in 4..22, 209 pairs. 1/3, 2/5, 2/3, 3/4 and 5/2
# put n/2 - 1 (or 7/2 at n = 9) off the f grid; 2/3, 4/3, 5/2 and 7/9 make
# ticks that miss integers; 3 and 10 can be wider than the region, leaving
# only its ends and the integer points. At n = 9 and step 1/3 the f ticks
# 10/3 and 11/3 tie on value.
_STEPS = [
    Fraction(s) for s in ("1", "1/2", "1/3", "2/5", "2/3", "3/4", "4/3", "3", "5/2", "7/9", "10")
]


@pytest.mark.parametrize("step", _STEPS, ids=str)
def test_endpoint_scan_equals_grid_scan(step):
    for n in range(4, 23):
        f = lambda x, y: ucf.f_relax(n, x, y)
        g = lambda x, y: ucf.g_relax(n, x, y)
        assert ucf.minimize_f(n, step) == _minimize(_grid_points_f(n, step), f), n
        assert ucf.minimize_g(n, step) == _minimize(_grid_points_g(n, step), g), n


def test_endpoint_scan_keeps_y_equal_one():
    # On their regions f and g are least at y = x; negated, they are least
    # at y = 1, and -f is constant in y at x = (n-1)/2, where the tie-break
    # must still give y = 1.
    at_one = 0
    for step in (Fraction(1), Fraction(2, 3), Fraction(5, 2), Fraction(7, 9)):
        for n in range(4, 23):
            for fn, lo, hi, grid in (
                (ucf.f_relax, Fraction(1), Fraction(n - 1, 2), _grid_points_f),
                (ucf.g_relax, Fraction(n, 2), Fraction(n - 2), _grid_points_g),
            ):
                neg = lambda x, y: -fn(n, x, y)
                got = _minimize(_endpoint_scan(lo, hi, step), neg)
                assert got == _minimize(grid(n, step), neg), (n, step)
                at_one += got.at[1] == 1 < got.at[0]
    assert at_one > 0


def test_endpoint_scan_evaluates_two_points_per_x(monkeypatch):
    calls = []
    for name in ("f_relax", "g_relax"):
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda n, x, y, real=real: calls.append(x) or real(n, x, y))
    ucf.minimize_f(10, Fraction(1, 100))
    # 351 ticks of [1, 9/2] and the integers 1..4, two points each
    assert len(calls) == 2 * (351 + 4)
    calls.clear()
    ucf.minimize_g(10, Fraction(1, 100))
    # 301 ticks of [5, 8] and the integers 5..8
    assert len(calls) == 2 * (301 + 4)


def test_tick_count_is_capped_before_any_tick_is_made(monkeypatch):
    # the count of [lo, hi] is ceil((hi - lo) / step) + 1, hi included
    assert len(_ticks(Fraction(0), Fraction(99999), Fraction(1))) == bounds._MAX_TICKS
    with pytest.raises(ValueError, match=r"^the grid gives 100001 ticks over \[0, 100000\], more"):
        _ticks(Fraction(0), Fraction(100000), Fraction(1))
    # a count too long to print is named by its size
    with pytest.raises(ValueError, match=r"gives over 2\^16609 ticks over \[0, 1\]"):
        _ticks(Fraction(0), Fraction(1), Fraction(1, 10**5000))
    # minimize_f and minimize_g fail before evaluating anything
    monkeypatch.setattr(bounds, "f_relax", None)
    monkeypatch.setattr(bounds, "g_relax", None)
    tiny = Fraction(1, 10**400)
    with pytest.raises(ValueError, match=rf"gives {35 * 10**399 + 1} ticks over \[1, 9/2\]"):
        ucf.minimize_f(10, tiny)
    with pytest.raises(ValueError, match=rf"gives {3 * 10**400 + 1} ticks over \[5, 8\]"):
        ucf.minimize_g(10, tiny)


def test_minimize_rejects_small_n():
    with pytest.raises(BadN):
        ucf.minimize_f(3, Fraction(1, 10))
    with pytest.raises(BadN):
        ucf.minimize_g(3, Fraction(1, 10))


def test_integer_point_minima_even_n():
    for n in range(4, 41, 2):
        half = Fraction(n, 2)
        fmin = ucf.minimize_f(n, Fraction(1, 2))
        gmin = ucf.minimize_g(n, Fraction(1, 2))
        assert fmin.value >= half
        assert gmin.value >= half + Fraction(n - 2, n + 6)


# ---------------------------------------------------------------------------
# subset-sum identity
# ---------------------------------------------------------------------------

def test_prop_d_hand_expansion():
    assert ucf.prop_d_check([Fraction(1), Fraction(2), Fraction(5)], 2)


def test_prop_d_k_equals_n():
    assert ucf.prop_d_check([Fraction(3, 7), Fraction(-1, 2)], 2)


def test_prop_d_bad_k():
    with pytest.raises(BadK):
        ucf.prop_d_check([Fraction(1)], 2)


def test_prop_d_random_vectors():
    rng = random.Random(20240817)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for _ in range(10):
                vec = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
                assert ucf.prop_d_check(vec, k)


def test_counting_corollary():
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert comb(n - 1, k - 1) * n == comb(n, k) * k


# ---------------------------------------------------------------------------
# closed-form slice bounds
# ---------------------------------------------------------------------------

def test_case2_values_at_n9():
    assert ucf.case2_subcase_bounds(9, 4) == Fraction(31, 6)
    assert ucf.case2_subcase_bounds(9, 5) == Fraction(69, 14)
    assert ucf.case2_subcase_bounds(9, 6) == Fraction(19, 4)


def test_case2_exceed_half():
    for n in range(4, 41):
        for m in (4, 5, 6):
            assert ucf.case2_subcase_bounds(n, m) > Fraction(n, 2)


def test_case2_raw_forms_exceed_half_from_2():
    # the three closed forms beat n/2 for every n >= 2, before the op's n >= 4 gate
    for n in range(2, 41):
        assert Fraction(7 * n - 1, 12) > Fraction(n, 2)
        assert Fraction(31 * n - 3, 56) > Fraction(n, 2)
        assert Fraction(17 * n - 1, 32) > Fraction(n, 2)


def test_case2_bad_m():
    with pytest.raises(BadM):
        ucf.case2_subcase_bounds(9, 3)
