"""Core family operations against hand-checked examples and naive oracles."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ucf
from ucf import Family, core
from ucf.errors import EmptyFamily, NotAMember, ParseError

from strategies import (
    families,
    family_of_word,
    nested_families,
    nonempty_families,
    union_closed_families,
    wide_spanning_uc_families,
)

PAPER = Family.of(3, [(1, 2, 3), (1, 2), (1,), (2,), ()])


def masks(fam):
    return set(fam.members)


def test_word_elements_rejects_negative_word():
    # -1 >> 1 == -1, so a bit walk over a negative word would never end.
    with pytest.raises(ValueError):
        ucf.word_elements(-1)


@pytest.mark.parametrize("word", [1 << 64, 1 << 10**6], ids=["2^64", "2^(10^6)"])
def test_word_elements_rejects_words_over_the_capacity(word):
    # each byte of a wider word would cache one more bit-walk table
    with pytest.raises(ValueError, match=r"^a set word lies in \[0, 2\^64\), got 0x1"):
        ucf.word_elements(word)
    assert ucf.word_elements((1 << 64) - 1) == tuple(range(1, 65))


@pytest.mark.parametrize("element", [0, -1, 65, 10**10])
def test_word_from_elements_rejects_elements_outside_the_word(element):
    # Range-checked before the shift: 1 << (10**10 - 1) is a 1.25 GB int,
    # and 1 << -1 raises "negative shift count".
    with pytest.raises(ValueError, match=rf"^element {element} outside \[1, 64\]$"):
        ucf.word_from_elements((1, element))
    with pytest.raises(ValueError, match=rf"^element {element} outside \[1, 64\]$"):
        Family.of(3, [(element,)])
    assert ucf.word_from_elements((1, 64)) == 1 | 1 << 63


# ---------------------------------------------------------------------------
# base_set
# ---------------------------------------------------------------------------

def test_base_set_union_of_disjoint_covers():
    fam = Family.of(3, [(1, 2), (3,)])
    assert ucf.word_elements(ucf.base_set(fam)) == (1, 2, 3)


def test_base_set_single_member():
    fam = Family.of(3, [(1,)])
    assert ucf.word_elements(ucf.base_set(fam)) == (1,)


def test_base_set_astar_is_full():
    fam = ucf.build_astar(8)
    folded = 0
    for m in fam.members:
        folded |= m
    assert ucf.base_set(fam) == folded == ucf.full_word(8)


def test_base_set_empty_family_raises():
    with pytest.raises(EmptyFamily):
        ucf.base_set(Family(3, ()))


# ---------------------------------------------------------------------------
# union-closedness and closure
# ---------------------------------------------------------------------------

def test_is_union_closed_paper_family():
    assert ucf.is_union_closed(PAPER)


def test_is_union_closed_missing_union():
    assert not ucf.is_union_closed(Family.of(2, [(1,), (2,)]))


def test_is_union_closed_requires_nonempty_member():
    assert not ucf.is_union_closed(Family.of(2, [()]))


def reference_is_union_closed(fam):
    """is_union_closed's oracle: the member-pair loop."""
    if not any(fam.members):
        return False
    have = set(fam.members)
    ms = fam.members
    for i, x in enumerate(ms):
        for y in ms[i + 1:]:
            if x | y not in have:
                return False
    return True


@pytest.mark.parametrize(
    "fam, closed",
    [
        (Family(3, ()), False),
        (Family.of(3, [()]), False),
        (Family.of(3, [(), (1, 2, 3)]), True),
        (Family.of(64, [(64,)]), True),
        # the closure of the singletons of [3] without its top [3]
        (Family.of(3, [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]), False),
        # the two children of [3] unite to [3], yet {1} | {2} is missing
        (Family.of(3, [(1,), (2,), (1, 3), (2, 3), (1, 2, 3)]), False),
    ],
    ids=["empty", "empty-set", "empty-and-full", "single", "no-top", "deep-gap"],
)
def test_is_union_closed_pins(fam, closed):
    assert ucf.is_union_closed(fam) is closed
    assert reference_is_union_closed(fam) is closed


@given(nested_families(max_n=64))
@settings(max_examples=300, deadline=None)
def test_is_union_closed_matches_pair_loop(fam):
    verdict = reference_is_union_closed(fam)
    assert ucf.is_union_closed(fam) is verdict
    # the form for a caller holding the scan, on a family with no verdict kept
    twin = Family(fam.n, fam.members)
    assert core._is_union_closed(twin, core._hasse(twin.members)) is verdict
    assert ucf.is_union_closed(twin) is verdict


@given(wide_spanning_uc_families(max_n=64), st.data())
@settings(max_examples=200, deadline=None)
def test_is_union_closed_matches_pair_loop_with_a_member_removed(fam, data):
    drop = data.draw(st.sampled_from(fam.members))
    fam = Family(fam.n, tuple(m for m in fam.members if m != drop))
    assert ucf.is_union_closed(fam) is reference_is_union_closed(fam)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_union_closed_matches_pair_loop_on_every_family(n):
    closed = 0
    for word in range(1 << (1 << n)):
        fam = family_of_word(n, word)
        verdict = ucf.is_union_closed(fam)
        assert verdict is reference_is_union_closed(fam), fam
        closed += verdict
    # Complements turn the Moore families of [n] (OEIS A102896: 2, 7, 61,
    # 2480) into the union-closed families holding {}; but for {} alone,
    # each is counted with and without {}.
    assert closed == {1: 2, 2: 12, 3: 120, 4: 4958}[n]


def test_union_closure_forces_pair_union():
    got = ucf.union_closure(Family.of(2, [(1,), (2,)]))
    assert got == Family.of(2, [(1,), (2,), (1, 2)])


def test_union_closure_fixpoint_on_closed_family():
    assert ucf.union_closure(PAPER) == PAPER


def test_union_closure_adds_triple():
    got = ucf.union_closure(Family.of(3, [(1, 2), (2, 3), (1, 3)]))
    assert masks(got) == masks(Family.of(3, [(1, 2), (2, 3), (1, 3), (1, 2, 3)]))


def test_union_closure_scales_on_ten_elements():
    # pairs of [10] exhaust memory unless each round keeps distinct new unions only
    singletons = Family.from_masks(10, (1 << i for i in range(10)))
    assert len(ucf.union_closure(singletons)) == 1023  # every nonempty subset
    pairs = Family.from_masks(
        10, ((1 << i) | (1 << j) for i, j in itertools.combinations(range(10), 2))
    )
    closed = ucf.union_closure(pairs)
    assert len(closed) == 1013  # every subset of size >= 2
    assert 0b11 in closed and 0b1 not in closed


def naive_closure(members):
    have = set(members)
    while True:
        extra = {a | b for a in have for b in have} - have
        if not extra:
            return have
        have |= extra


@given(nonempty_families())
def test_union_closure_matches_naive_fixpoint(fam):
    got = ucf.union_closure(fam)
    assert masks(got) == naive_closure(fam.members)
    assert ucf.union_closure(got) == got  # idempotent
    if any(fam.members):
        assert ucf.is_union_closed(got)


@given(union_closed_families())
def test_union_closed_family_contains_its_base(fam):
    assert ucf.base_set(fam) in fam.members


# ---------------------------------------------------------------------------
# separating
# ---------------------------------------------------------------------------

def separating_oracle(fam):
    """Literal definition: each pair of ground elements split by some member."""
    for x in range(fam.n):
        for y in range(x + 1, fam.n):
            if not any((m >> x & 1) != (m >> y & 1) for m in fam.members):
                return False
    return True


def test_is_separating_paper_family():
    assert ucf.is_separating(PAPER) and separating_oracle(PAPER)


def test_is_separating_symmetric_pair_fails():
    assert not ucf.is_separating(Family.of(2, [(1, 2)]))


def test_is_separating_astar_8():
    assert ucf.is_separating(ucf.build_astar(8))


def test_uncovered_elements_share_a_signature():
    # base {1} inside a declared n=3 ground set: elements 2 and 3 collide
    assert not ucf.is_separating(Family.of(3, [(1,)]))


@given(families(max_n=10, max_members=12))
def test_is_separating_matches_definition(fam):
    assert ucf.is_separating(fam) == separating_oracle(fam)


FULL64 = (1 << 64) - 1


@st.composite
def tied_families_64(draw):
    """Families at n = 64, words with bit 63 set among them, where each
    drawn pair (a, b) copies element a into element b in every member, so
    separation both holds and fails."""
    members = draw(st.lists(st.integers(0, FULL64), max_size=12))
    for a, b in draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=8)):
        members = [m & ~(1 << b) | (m >> a & 1) << b for m in members]
    return Family.from_masks(64, set(members))


@given(tied_families_64())
@example(Family(64, ()))
@example(Family(64, (1 << 63, FULL64)))
def test_column_kernels_match_bit_scans_at_n64(fam):
    assert ucf.is_separating(fam) == separating_oracle(fam)
    assert ucf.frequencies(fam) == tuple(
        sum(m >> e & 1 for m in fam.members) for e in range(64)
    )
    for m in fam.members:
        assert ucf.word_elements(m) == tuple(e + 1 for e in range(64) if m >> e & 1)


def test_column_kernels_on_the_empty_family():
    # every element has the empty signature, so only n = 1 separates
    assert ucf.is_separating(Family(1, ()))
    assert not ucf.is_separating(Family(2, ()))
    assert not ucf.is_separating(Family(64, ()))
    assert ucf.frequencies(Family(64, ())) == (0,) * 64
    assert ucf.word_elements(0) == ()


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_by_size_lt():
    fam = Family.of(3, [(1, 2, 3), (1,), (2,)])
    assert ucf.slice_by_size(fam, "lt", Fraction(3, 2)) == Family.of(3, [(1,), (2,)])


def test_slice_by_size_ge_zero_is_identity():
    assert ucf.slice_by_size(PAPER, "ge", 0) == PAPER


def test_slice_by_size_paper_small_slice():
    got = ucf.slice_by_size(PAPER, "lt", Fraction(3, 2))
    assert got == Family.of(3, [(), (1,), (2,)])


def test_slice_by_size_rejects_bad_kind():
    with pytest.raises(ValueError):
        ucf.slice_by_size(PAPER, "above", 1)


def test_slice_by_subset_proper():
    fam = Family.of(2, [(1, 2), (1,), (2,)])
    assert ucf.slice_by_subset(fam, "proper", ucf.word_from_elements((1, 2))) == Family.of(
        2, [(1,), (2,)]
    )


def test_slice_by_subset_improper_base_is_identity():
    assert ucf.slice_by_subset(PAPER, "improper", ucf.base_set(PAPER)) == PAPER


def test_slice_by_subset_proper_of_singleton():
    fam = Family.of(3, [(), (1,), (1, 2, 3)])
    assert ucf.slice_by_subset(fam, "proper", ucf.word_from_elements((1,))) == Family.of(3, [()])


@given(families())
def test_slice_base_shrinks(fam):
    small = ucf.slice_by_size(fam, "lt", 2)
    if small.members and fam.members:
        assert ucf.base_set(small) | ucf.base_set(fam) == ucf.base_set(fam)


# ---------------------------------------------------------------------------
# irr / irredundance
# ---------------------------------------------------------------------------

def test_irr_covered_element_dropped():
    ctx = Family.of(3, [(1, 2), (2, 3)])
    assert ucf.word_elements(ucf.irr(ucf.word_from_elements((1, 2)), ctx)) == (1,)


def test_irr_singleton_family():
    ctx = Family.of(1, [(1,)])
    assert ucf.word_elements(ucf.irr(ucf.word_from_elements((1,)), ctx)) == (1,)


def test_irr_fully_covered():
    ctx = Family.of(2, [(1, 2), (1,), (2,)])
    assert ucf.irr(ucf.word_from_elements((1, 2)), ctx) == 0


def test_irr_requires_membership():
    with pytest.raises(NotAMember):
        ucf.irr(ucf.word_from_elements((3,)), Family.of(3, [(1,), (2,)]))


def test_is_irredundant():
    assert ucf.is_irredundant(Family.of(2, [(1,), (2,)]))
    assert not ucf.is_irredundant(Family.of(2, [(1, 2), (1,), (2,)]))
    assert ucf.is_irredundant(Family(2, ()))  # vacuous


def test_empty_set_member_never_irredundant_with_others():
    assert not ucf.is_irredundant(Family.of(2, [(), (1,)]))


# ---------------------------------------------------------------------------
# averages, frequencies, witnesses
# ---------------------------------------------------------------------------

def test_avg_size_paper_family():
    assert ucf.avg_size(PAPER) == Fraction(7, 5)


def test_avg_size_three_chain_family():
    fam = Family.of(3, [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,)])
    assert ucf.avg_size(fam) == Fraction(12, 7)


def test_avg_size_full_only():
    assert ucf.avg_size(Family.of(5, [(1, 2, 3, 4, 5)])) == Fraction(5, 1)


def test_avg_size_empty_raises():
    with pytest.raises(EmptyFamily):
        ucf.avg_size(Family(1, ()))


@given(nonempty_families())
def test_avg_size_exactness(fam):
    avg = ucf.avg_size(fam)
    assert avg.denominator > 0
    assert avg * len(fam) == sum(m.bit_count() for m in fam.members)


def test_frequencies_paper_family():
    assert ucf.frequencies(PAPER) == (3, 3, 1)


def test_frequencies_extremes():
    assert ucf.frequencies(Family.of(4, [(1, 2, 3, 4)])) == (1, 1, 1, 1)
    assert ucf.frequencies(Family(4, ())) == (0, 0, 0, 0)


@given(families())
def test_frequencies_double_count(fam):
    assert sum(ucf.frequencies(fam)) == sum(m.bit_count() for m in fam.members)


def test_frankl_witness_paper_family():
    wit = ucf.frankl_witness(PAPER)
    assert (wit.element, wit.count, wit.threshold, wit.ok) == (1, 3, Fraction(5, 2), True)


def test_frankl_witness_trivial_and_boundary():
    wit = ucf.frankl_witness(Family.of(4, [(1, 2, 3, 4)]))
    assert (wit.element, wit.count, wit.threshold, wit.ok) == (1, 1, Fraction(1, 2), True)
    wit = ucf.frankl_witness(Family.of(1, [(), (1,)]))
    assert (wit.element, wit.count, wit.threshold, wit.ok) == (1, 1, Fraction(1, 1), True)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_format_parse_round_trip_paper():
    text = ucf.format_family(PAPER)
    assert ucf.parse_family(text) == PAPER
    assert "{}" in text  # empty member rendered explicitly


@given(families())
def test_format_parse_round_trip(fam):
    assert ucf.parse_family(ucf.format_family(fam)) == fam


def test_parse_accepts_comments_and_blanks():
    fam = ucf.parse_family("# a family\n\nn=3\n1 2\n# more\n\n3\n")
    assert fam == Family.of(3, [(1, 2), (3,)])


@pytest.mark.parametrize(
    "text,line",
    [
        ("1 2\n", 1),  # missing header
        ("n=0\n", 1),
        ("n=3\n2 1\n", 2),  # not ascending
        ("n=3\n1 1\n", 2),  # repeated element
        ("n=3\n4\n", 2),  # out of range
        ("n=3\n1 2\n1 2\n", 3),  # duplicate set
        ("n=3\nx\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        ucf.parse_family(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 2\n", "line 1: expected header 'n=<integer>'"),
        ("# only\n\n", "line 1: missing 'n=<integer>' header"),
        ("", "line 1: missing 'n=<integer>' header"),
        ("n=x\n", "line 1: bad ground size 'x'"),
        ("n=0\n", "line 1: ground size must be in [1, 64]"),
        ("n=3\n2 1\n", "line 2: elements must be strictly ascending"),
        ("n=3\n1 1\n", "line 2: elements must be strictly ascending"),
        ("n=3\n4\n", "line 2: element 4 outside [1, 3]"),
        ("n=3\n0 1\n", "line 2: element 0 outside [1, 3]"),
        ("n=3\n1 2\n1 2\n", "line 3: duplicate set '1 2'"),
        ("n=3\n{}\n# c\n{}\n", "line 4: duplicate set '{}'"),
        ("n=3\nx\n", "line 2: bad element in 'x'"),
        # every token is read before any range or order test, and each
        # element is tested for range before order
        ("n=3\n5 x\n", "line 2: bad element in '5 x'"),
        ("n=3\n2 1 7\n", "line 2: elements must be strictly ascending"),
        ("n=3\n2 7 1\n", "line 2: element 7 outside [1, 3]"),
    ],
)
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        ucf.parse_family(text)


def test_family_canonical_order_is_integer_order():
    fam = Family.of(3, [(3,), (1,), (1, 2)])
    assert fam.member_sets() == ((1,), (1, 2), (3,))


@pytest.mark.parametrize(
    "members, message",
    [
        ((1, 8), "member 0x8 sets bits outside [3]"),
        ((-1, 2), "member -0x1 sets bits outside [3]"),
        ((2, 1), "members must be distinct and canonically ordered"),
        ((1, 1), "members must be distinct and canonically ordered"),
        # both faults: the first bad member in tuple order is reported
        ((3, 2, 9), "members must be distinct and canonically ordered"),
        ((1, 9, 2), "member 0x9 sets bits outside [3]"),
        ((9, 2), "member 0x9 sets bits outside [3]"),
        ((5, 5, -2), "members must be distinct and canonically ordered"),
    ],
)
def test_family_validation_reports_the_first_bad_member(members, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Family(3, members)


@pytest.mark.parametrize("members", [(1, "a", 3), (1, 2, "a"), ("a",)])
def test_family_reports_a_member_that_is_not_a_number_at_its_range_check(members):
    with pytest.raises(TypeError, match="^'<=' not supported between instances of 'int' and 'str'$"):
        Family(3, members)


def test_family_rejects_duplicates_and_stray_bits():
    with pytest.raises(ValueError):
        Family.of(2, [(1,), (1,)])
    with pytest.raises(ValueError):
        Family(2, (4,))
    with pytest.raises(ValueError):
        Family(0, ())
