"""The integer rational kernel against a plain Fraction elimination."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import AffineMatroid, VectorMatroidRational
from matroid_tverberg.matroids import integer_row


def reference_rank(rows):
    """Rank by Gauss-Jordan elimination over Fractions (the reference)."""
    rows = [[Fraction(c) for c in r] for r in rows]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / prow[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def reference_members(vectors, x, ys):
    """x in span(ys), decided by comparing two reference ranks."""
    if x in ys:
        return True
    rows = [vectors[y] for y in ys]
    return reference_rank(rows + [vectors[x]]) == reference_rank(rows)


# Small values make dependent rows likely; huge ones stress the integer growth.
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
    ),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    row = st.one_of(
        st.just([Fraction(0)] * cols),
        st.lists(entries, min_size=cols, max_size=cols),
    )
    rows = draw(st.lists(row, min_size=0, max_size=max_rows))
    # Append multiples and sums of drawn rows so that rank drops happen often.
    if rows and draw(st.booleans()):
        k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        rows.append([k * a for a in rows[0]])
    if len(rows) >= 2 and draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[-1], rows[-2])])
    return rows[:max_rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_elimination(rows):
    vectors = {f"v{i}": tuple(r) for i, r in enumerate(rows)}
    matroid = VectorMatroidRational(len(rows[0]) if rows else 0, vectors)
    assert matroid.rank_bound == reference_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, min_size=0, max_size=6))
def test_integer_row_is_a_positive_multiple(coords):
    row = integer_row(coords)
    assert all(isinstance(a, int) for a in row)
    nonzero = [(Fraction(a), c) for a, c in zip(row, coords) if c != 0]
    assert [a == 0 for a in row] == [c == 0 for c in coords]
    if nonzero:
        scale = nonzero[0][0] / nonzero[0][1]
        assert scale > 0
        assert all(a == scale * c for a, c in nonzero)


def _all_queries_agree(oracle, vectors):
    ground = oracle.ground
    for k in range(len(ground) + 1):
        for ys in combinations(ground, k):
            for x in ground:
                expected = reference_members(vectors, x, ys)
                assert oracle.in_closure(x, ys) == expected, (x, ys)


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=5, max_cols=3))
def test_vector_rational_in_closure_matches_reference(rows):
    if not rows:
        return
    vectors = {f"v{i}": tuple(r) for i, r in enumerate(rows)}
    oracle = VectorMatroidRational(len(rows[0]), vectors)
    _all_queries_agree(oracle, vectors)
    assert oracle.coords("v0") == tuple(Fraction(c) for c in rows[0])


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=5, max_cols=2))
def test_affine_rational_in_closure_matches_reference(rows):
    if not rows:
        return
    # Distinct ids may share a point; the affine matroid must treat them as
    # parallel elements, exactly as the lifted reference does.
    points = {f"p{i}": tuple(r) for i, r in enumerate(rows)}
    oracle = AffineMatroid("rational", len(rows[0]), points)
    lifted = {eid: p + (Fraction(1),) for eid, p in points.items()}
    _all_queries_agree(oracle, lifted)
    assert oracle.coords("p0") == tuple(Fraction(c) for c in rows[0])
