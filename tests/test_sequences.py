"""Indexed sequences, colorings, and the color-count profiles."""

import gc

import pytest
from hypothesis import given, strategies as st

from matroid_tverberg import (
    Coloring,
    IndexedSequence,
    UnknownColor,
    check_general_profile,
    ranked_counts,
)
from matroid_tverberg.sequences import color_clash

from acceptance_checks import check_special_profile, is_rainbow


def seq_of(elements):
    return IndexedSequence.from_elements(elements)


def coloring_of(colors):
    return Coloring({i: c for i, c in enumerate(colors)})


def test_entries_sorted_and_unique():
    s = IndexedSequence([(3, "a"), (1, "b")])
    assert s.entries == ((1, "b"), (3, "a"))
    with pytest.raises(ValueError):
        IndexedSequence([(1, "a"), (1, "b")])


def test_set_image_collapses_repeats():
    s = seq_of(["e", "e"])
    assert s.set_image == {"e"}
    assert len(s) == 2


def test_rainbow_examples():
    empty = seq_of([])
    assert is_rainbow(empty, coloring_of([]))
    two = seq_of(["a", "b"])
    assert is_rainbow(two, coloring_of(["red", "blue"]))
    assert not is_rainbow(two, coloring_of(["red", "red"]))
    four = seq_of(["a", "b", "c", "d"])
    assert color_clash(four, coloring_of(["red", "blue", "green", "gold"])) is None
    assert color_clash(four, coloring_of(["red", "blue", "blue", "red"])) == ((1, "b"), (2, "c"))


def test_seq_ops_examples():
    s = seq_of(["a", "b", "c"])
    assert s.with_indices(s.indices) == s
    t = s.with_indices({0, 2})
    assert t.entries == ((0, "a"), (2, "c"))
    assert len(t.with_indices({1})) == 0
    assert s.take_first(2).entries == ((0, "a"), (1, "b"))


def test_root_sequence_is_not_a_reference_cycle():
    s = seq_of(["a", "b", "c"])
    t = s.with_indices(frozenset({0, 2}))
    for seq in (s, t, t.take_first(1)):
        assert all(ref is not seq for ref in gc.get_referents(seq))


def test_derived_sequences_match_validated_ones():
    s = IndexedSequence([(7, "x"), (2, "y"), (5, "x"), (0, "z")])
    a = s.with_indices({0, 5, 7})
    b = s.with_indices({7, 2, 5})
    for derived in (a, b, a.with_indices(b.indices), s.take_first(3)):
        fresh = IndexedSequence(list(derived.entries))
        assert derived == fresh
        assert derived.indices == fresh.indices
        assert derived.set_image == fresh.set_image
        assert all(entry in derived for entry in fresh)
    assert a.entries == ((0, "z"), (5, "x"), (7, "x"))
    assert (2, "x") not in b


def test_coloring_requires_assignment():
    c = Coloring({0: "r"})
    with pytest.raises(UnknownColor):
        c.of((5, "a"))


def test_profile_ordering_deterministic():
    assert ranked_counts({"y": 2, "x": 3, "z": 1}) == [("x", 3), ("y", 2), ("z", 1)]
    # Ties break by ascending color id.
    assert ranked_counts({"b": 2, "a": 2, "c": 2}) == [("a", 2), ("b", 2), ("c", 2)]


def test_general_profile_examples():
    # A sequence of length m(r-1) fails on length alone.
    m, r = 2, 3
    s = seq_of(["e1", "e1", "e2", "e2"])
    c = coloring_of(["c1", "c2", "c3", "c4"])
    outcome = check_general_profile(s, c, r, m)
    assert not outcome
    assert "length" in outcome.reason
    # r = 1 admits any nonempty sequence, whatever the counts.
    assert check_general_profile(seq_of(["x"] * 5), coloring_of(["c"] * 5), 1, 3)
    # Count caps: at most r of the first color, r-1 of the rest.
    s2 = seq_of(["a", "b", "c", "d", "e"])
    ok = check_general_profile(s2, coloring_of(["u", "u", "v", "v", "w"]), 2, 2)
    assert not ok and "has 2 entries" in ok.reason
    assert check_general_profile(s2, coloring_of(["u", "u", "v", "w", "x"]), 2, 2)
    # The caps follow r, not the rank: three of one color fail r = 2 at m = 3.
    s3 = seq_of(["a", "b", "c", "d"])
    assert not check_general_profile(s3, coloring_of(["u", "u", "u", "v"]), 2, 3)


def test_general_profile_ranks_tied_ints_before_strings():
    # Colors that tie in count rank by type name, then by value: ints
    # before strings, 4 before 7, "a" before "b".  The reason names the
    # first color over its cap in that order.
    s = seq_of(list("abcdefghijkl"))
    three_each = coloring_of([7, 7, 7, "a", "a", "a", 4, 4, 4, "b", "b", "b"])
    outcome = check_general_profile(s, three_each, 3, 5)
    assert not outcome
    assert outcome.reason == "color 7 has 3 entries, allowed at most 2"
    four_each = coloring_of([7, 7, 7, 7, "a", "a", "a", "a", 4, 4, 4, 4])
    outcome = check_general_profile(s, four_each, 3, 5)
    assert outcome.reason == "color 4 has 4 entries, allowed at most 3"


def test_special_profile_examples():
    s = seq_of(["a", "b", "c"])
    c = coloring_of(["u", "u", "v"])
    assert check_special_profile(s, c, 2, 2)
    off = check_special_profile(s, c, 2, 3)
    assert not off and "colors" in off.reason
    low = check_special_profile(s, c, 3, 2)
    assert not low


def test_profiles_judge_a_subsequence_by_its_own_colors():
    # The coloring also colors indices 3 and 4, outside ``sub``; their
    # color "w" takes no part in the profile of ``sub``.
    s = seq_of(["a", "b", "c", "d", "e"])
    c = coloring_of(["u", "u", "v", "w", "w"])
    sub = s.with_indices({0, 1, 2})
    assert check_special_profile(sub, c, 2, 2)
    off = check_special_profile(sub, c, 2, 3)
    assert not off and off.reason.startswith("the sequence has 2 colors")


def test_disjoint_rainbow_union_is_rainbow():
    s = seq_of(["a", "b", "c", "d"])
    c = coloring_of(["r", "g", "b", "y"])
    t1 = s.with_indices({0, 1})
    t2 = s.with_indices({2, 3})
    assert is_rainbow(t1, c) and is_rainbow(t2, c)
    assert not (c.colors_of(t1) & c.colors_of(t2))
    assert is_rainbow(s.with_indices(t1.indices | t2.indices), c)


@given(
    n=st.integers(min_value=0, max_value=10),
    picks=st.lists(st.integers(min_value=0, max_value=9), max_size=10),
    other=st.lists(st.integers(min_value=0, max_value=9), max_size=10),
)
def test_setops_laws(n, picks, other):
    s = seq_of([f"e{i}" for i in range(n)])
    a = s.with_indices(i for i in picks if i < n)
    b = s.with_indices(i for i in other if i < n)
    assert a.with_indices(b.indices).indices == a.indices & b.indices
    assert s.with_indices(a.indices) == a

