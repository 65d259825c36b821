"""Declared loops: every family names its loops, cl(∅), exactly.

The input check, the certificate's witness, the strictness check and the
referee read ``loops`` instead of asking "is x in cl(∅)?", so a wrong
declaration would silently change answers.  Each property compares the
declaration with the closure oracle of a freshly built copy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import (
    AffineMatroid,
    DirectSumMatroid,
    GraphicMatroid,
    IndexedSequence,
    LoopInInput,
    MatroidOracle,
    UniformMatroid,
    VectorMatroidGFp,
    VectorMatroidRational,
    solve_noncolor,
)

from conftest import with_coloops


def _ids(prefix, rows):
    return {f"{prefix}{i}": row for i, row in enumerate(rows)}


@st.composite
def family_builders(draw, prefix):
    """A zero-argument builder of one small matroid of any of the six families."""
    family = draw(st.sampled_from(["gfp", "rational", "affine", "uniform", "graphic", "sum"]))
    dim = draw(st.integers(0, 3))
    if family == "gfp":
        p = draw(st.sampled_from([2, 3, 5]))
        rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim), max_size=5))
        return lambda: VectorMatroidGFp(p, dim, _ids(prefix, rows))
    if family == "rational":
        coords = st.fractions(min_value=-2, max_value=2, max_denominator=3) | st.just(Fraction(0))
        rows = draw(st.lists(st.tuples(*[coords] * dim), max_size=5))
        return lambda: VectorMatroidRational(dim, _ids(prefix, rows))
    if family == "affine":
        field = draw(st.sampled_from(["rational", 2, 3]))
        rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=5))
        return lambda: AffineMatroid(field, dim, _ids(prefix, rows))
    if family == "uniform":
        k, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return lambda: UniformMatroid(k, n, ids=[f"{prefix}{i}" for i in range(n)])
    if family == "graphic":
        vertices = draw(st.integers(1, 4))
        ends = st.integers(0, vertices - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=5))
        return lambda: GraphicMatroid(vertices, _ids(prefix, edges))
    if prefix.count("s") > 1:
        return lambda: UniformMatroid(0, 2, ids=[f"{prefix}0", f"{prefix}1"])
    left = draw(family_builders(prefix + "sl"))
    right = draw(family_builders(prefix + "sr"))
    return lambda: DirectSumMatroid(left(), right())


@st.composite
def matroid_builders(draw):
    """A family, maybe padded with coloops."""
    base = draw(family_builders("g"))
    count = draw(st.integers(0, 2))
    return lambda: with_coloops(base(), count)


@settings(max_examples=300, deadline=None)
@given(matroid_builders())
def test_declared_loops_are_exactly_the_loops(build):
    matroid, fresh = build(), build()
    before = matroid.oracle_calls
    for x in matroid.ground:
        assert (x in matroid.loops) == fresh.in_closure(x, ())
        assert matroid.is_loop(x) == (x in matroid.loops)
    assert matroid.oracle_calls == before


@pytest.mark.parametrize(
    "matroid, elements, named",
    [
        (VectorMatroidGFp(3, 2, {"a": (1, 0), "o": (3, 0)}), ["a", "o"], "(1, 'o')"),
        (GraphicMatroid(2, {"a": (0, 1), "l": (1, 1)}), ["a", "l"], "(1, 'l')"),
        (UniformMatroid(0, 3), ["e2", "e1"], "(0, 'e2')"),
    ],
    ids=["zero_vector", "self_loop_edge", "u0n"],
)
def test_a_loop_in_the_input_raises_without_asking(matroid, elements, named):
    seq = IndexedSequence.from_elements(elements)
    with pytest.raises(LoopInInput) as err:
        solve_noncolor(matroid, seq, 1)
    assert str(err.value) == f"entry {named} is a loop"
    assert matroid.oracle_calls == 0


def test_a_sum_passes_the_loops_on():
    gfp = VectorMatroidGFp(2, 1, {"a": (1,), "o": (0,)})
    total = DirectSumMatroid(gfp, GraphicMatroid(1, {"o2": (0, 0)}))
    assert total.loops == {"o", "o2"}


def test_a_subclass_without_a_declaration_asks_once():
    class Halves(MatroidOracle):
        """Rank 1 on its odd elements; the even ones are loops."""

        def _members(self, x, ys):
            return x % 2 == 0 or any(y % 2 for y in ys)

    matroid = Halves(range(5))
    assert matroid.loops == {0, 2, 4}
    assert matroid.oracle_calls == 5
    assert matroid.is_loop(2) and not matroid.is_loop(3)
    assert matroid.oracle_calls == 5
