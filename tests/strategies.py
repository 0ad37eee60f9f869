"""Hypothesis strategies and helpers shared across the test modules."""

from hypothesis import assume, strategies as st

from ucf import Family, is_separating, union_closure


def relabel(fam, perm):
    """Image of fam under the relabeling that sends element i + 1 to perm[i] + 1."""
    return Family.from_masks(
        fam.n,
        (sum(((m >> i) & 1) << perm[i] for i in range(fam.n)) for m in fam.members),
    )


def family_of_word(n, word):
    """The family over [n] whose members are the masks m with bit m of
    `word` set, as the enumerator's member words encode it."""
    return Family(n, tuple(m for m in range(1 << n) if word >> m & 1))


@st.composite
def families(draw, max_n=6, min_members=0, max_members=10):
    n = draw(st.integers(1, max_n))
    members = draw(
        st.lists(
            st.integers(0, (1 << n) - 1),
            min_size=min_members,
            max_size=max_members,
            unique=True,
        )
    )
    return Family.from_masks(n, members)


def nonempty_families(max_n=6, max_members=10):
    return families(max_n=max_n, min_members=1, max_members=max_members)


@st.composite
def union_closed_families(draw, max_n=5, max_seed_members=6):
    seed = draw(families(max_n=max_n, min_members=1, max_members=max_seed_members))
    assume(any(seed.members))
    return union_closure(seed)


@st.composite
def separating_uc_families(draw, max_n=5):
    fam = draw(union_closed_families(max_n=max_n))
    assume(is_separating(fam))
    return fam


@st.composite
def spanning_uc_families(draw, max_n=8):
    """Union-closed families with base exactly [n], n up to max_n, built by
    closing a random seed together with the full set."""
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1
    members = draw(
        st.lists(st.integers(0, full), min_size=0, max_size=8, unique=True)
    )
    return union_closure(Family.from_masks(n, set(members) | {full}))


@st.composite
def nested_families(draw, max_n=64):
    """Families at n up to max_n whose members are unions of a few drawn
    words, so many pairs nest, while the family is rarely union-closed. Words
    with the top bit set are drawn as often as the rest, and n = max_n as
    often as any other n."""
    n = draw(st.one_of(st.just(max_n), st.integers(1, max_n)))
    full = (1 << n) - 1
    word = st.one_of(st.integers(0, full), st.integers(1 << (n - 1), full))
    words = draw(st.lists(word, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(1, (1 << len(words)) - 1), min_size=2, max_size=24))
    members = {words[0]}
    for pick in picks:
        union = 0
        for j, w in enumerate(words):
            if pick >> j & 1:
                union |= w
        members.add(union)
    return Family.from_masks(n, members)


@st.composite
def wide_spanning_uc_families(draw, max_n=64):
    """Union-closed families with top [n] at n up to max_n: the closure of a
    few drawn words, [n] and the co-singletons [n] - {e} of a few drawn
    elements e, so Lemma 1.3 holds for some and fails for others."""
    n = draw(st.one_of(st.just(max_n), st.integers(1, max_n)))
    full = (1 << n) - 1
    words = draw(st.lists(st.integers(0, full), max_size=5))
    drop = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return union_closure(Family.from_masks(n, {*words, *(full ^ 1 << e for e in drop), full}))
