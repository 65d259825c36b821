"""Declared coloops: every element an oracle declares is a coloop.

A coloop c lies in cl(Y) only when c is in Y, and the solver answers such
questions itself, so a wrong declaration would silently change answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import (
    DirectSumMatroid,
    GraphicMatroid,
    UniformMatroid,
    VectorMatroidGFp,
)

from acceptance_checks import is_coloop
from conftest import greedy_rank, with_coloops


@st.composite
def base_matroids(draw):
    family = draw(st.sampled_from(["uniform", "graphic", "gf2"]))
    if family == "uniform":
        return UniformMatroid(draw(st.integers(0, 5)), draw(st.integers(0, 4)))
    if family == "graphic":
        vertices = draw(st.integers(1, 4))
        ends = st.integers(0, vertices - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=5))
        return GraphicMatroid(vertices, {f"g{i}": e for i, e in enumerate(edges)})
    dim = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 1)] * dim), max_size=5))
    return VectorMatroidGFp(2, dim, {f"v{i}": v for i, v in enumerate(vectors)})


@st.composite
def padded_matroids(draw):
    """A small matroid padded with coloops."""
    return with_coloops(draw(base_matroids()), draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(padded_matroids(), st.data())
def test_declared_coloops_are_coloops_and_answer_by_membership(matroid, data):
    assert matroid.known_coloops <= matroid.ground_set
    declared = sorted(matroid.known_coloops)
    for c in declared:
        assert is_coloop(matroid, c)
    if not declared:
        return
    for _ in range(5):
        c = data.draw(st.sampled_from(declared))
        ys = data.draw(st.sets(st.sampled_from(matroid.ground)))
        assert matroid.in_closure(c, ys) == (c in ys)


def test_padding_declares_exactly_the_fresh_elements():
    base = GraphicMatroid(2, {"g0": (0, 1), "g1": (0, 1)})
    padded = with_coloops(base, 2)
    assert padded.known_coloops == {"x1", "x2"}
    assert UniformMatroid(3, 3).known_coloops == {"e0", "e1", "e2"}
    assert UniformMatroid(2, 3).known_coloops == frozenset()


def test_a_direct_sum_keeps_only_its_summands_own_coloops():
    left = with_coloops(GraphicMatroid(2, {"a": (0, 1), "b": (0, 1)}), 1)
    right = UniformMatroid(2, 2, ids=("c", "d"))
    total = DirectSumMatroid(left, right)
    assert total.known_coloops == left.known_coloops | right.known_coloops == {"x1", "c", "d"}
    assert all(is_coloop(total, c) for c in total.known_coloops)
    assert not is_coloop(total, "a")


def test_rank_takes_a_known_coloop_without_asking():
    padded = with_coloops(UniformMatroid(1, 3), 2)
    assert padded.rank(padded.ground) == 3
    assert padded.oracle_calls == 0
    # The greedy takes e0 unasked (cl(empty) is the declared loops), asks
    # about e1 and e2 (both in cl(e0)), and takes x1 and x2 unasked.
    assert greedy_rank(padded, padded.ground) == 3
    assert padded.oracle_calls == 2


def test_direct_sum_forwards_a_disjoint_set_as_it_is():
    left = UniformMatroid(2, 3)
    padded = with_coloops(left, 1)
    seen = []
    forward = left._members
    left._members = lambda x, ys: seen.append(ys) or forward(x, ys)
    ys = frozenset({"e0"})
    assert not padded.in_closure("e1", ys)
    assert padded.in_closure("e1", {"e0", "e2", "x1"})
    assert seen[0] is ys
    assert seen[1] == {"e0", "e2"}
