"""One matroid, several oracles: standard representations must agree.

The solver and the referee see a matroid only through its closure answers
and its declared loops and coloops, so two oracles that represent the same
matroid over the same ground order give the same answers to every question,
and so the same partitions, event labels and ``oracle_calls``.  This checks
each family's kernel against another family's kernel on drawn inputs:

* a graphic matroid is its incidence vectors over GF(2) and its signed
  incidence vectors over GF(3); a self-loop edge is a zero row;
* U_k^n with k < n is n points of the moment curve (1, t, ..., t^(k-1))
  over the rationals, and over GF(p) for a prime p >= n, where the n
  values of t stay distinct.  (U_n^n declares its elements as coloops,
  and a vector matroid declares none, so its questions would differ.)
* an affine point set, rational or over GF(3), is the vector matroid of
  its points lifted by a last coordinate 1;
* the direct sum of two vector matroids over one field is the vector
  matroid of their block-diagonal vectors.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import (
    AffineMatroid,
    Coloring,
    DirectSumMatroid,
    GraphicMatroid,
    IndexedSequence,
    SolveStats,
    UniformMatroid,
    VectorMatroidGFp,
    VectorMatroidRational,
    brute_force_solve,
    solve_general,
    solve_noncolor,
)

from conftest import with_coloops


def incidence_gfp(graph, p):
    """The graph's edges as vectors e_u - e_v over GF(p), one coordinate per vertex."""
    vectors = {}
    for eid in graph.ground:
        u, v = graph.endpoints(eid)
        row = [0] * graph.num_vertices
        if u != v:
            row[u], row[v] = 1, p - 1
        vectors[eid] = tuple(row)
    return VectorMatroidGFp(p, graph.num_vertices, vectors)


def moment_curve(uniform, p=None):
    """U_k^n as the points (1, t, ..., t^(k-1)) for t = 0..n-1, over the rationals or GF(p)."""
    k = uniform.k
    points = {eid: tuple(t**j for j in range(k)) for t, eid in enumerate(uniform.ground)}
    return vector_matroid(p, k, points)


def vector_matroid(p, dim, vectors):
    """The vector matroid of ``vectors`` over the rationals (``p`` None) or over GF(p)."""
    if p is None:
        return VectorMatroidRational(dim, vectors)
    return VectorMatroidGFp(p, dim, vectors)


@st.composite
def graphs(draw):
    vertices = draw(st.integers(1, 5))
    ends = st.integers(0, vertices - 1)
    edges = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=8))
    return GraphicMatroid(vertices, {f"g{i}": e for i, e in enumerate(edges)})


@st.composite
def uniforms(draw):
    n = draw(st.integers(2, 7))
    return UniformMatroid(draw(st.integers(1, n - 1)), n)


def coordinates(p):
    """Small coordinates: fractions for the rationals, residues for GF(p)."""
    if p is None:
        return st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.integers(0, p - 1)


@st.composite
def affine_sets(draw):
    """Affine points, rational or over GF(3), and the vector matroid of their lifts."""
    p = draw(st.sampled_from([None, 3]))
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[coordinates(p)] * dim), min_size=1, max_size=7))
    points = {f"a{i}": point for i, point in enumerate(points)}
    affine = AffineMatroid("rational" if p is None else p, dim, points)
    lifted = {eid: point + (1,) for eid, point in points.items()}
    return [affine, vector_matroid(p, dim + 1, lifted)]


@st.composite
def block_sums(draw):
    """The direct sum of two vector matroids and the vector matroid of its block-diagonal vectors."""
    p = draw(st.sampled_from([None, 2, 3, 5]))
    dims = [draw(st.integers(1, 3)) for _ in range(2)]
    blocks = [
        {
            f"{name}{i}": vector
            for i, vector in enumerate(
                draw(st.lists(st.tuples(*[coordinates(p)] * dim), min_size=1, max_size=4))
            )
        }
        for name, dim in zip("uv", dims)
    ]
    left, right = (vector_matroid(p, dim, block) for dim, block in zip(dims, blocks))
    zeros = [(0,) * dim for dim in dims]
    diagonal = {eid: vector + zeros[1] for eid, vector in blocks[0].items()}
    diagonal |= {eid: zeros[0] + vector for eid, vector in blocks[1].items()}
    return [DirectSumMatroid(left, right), vector_matroid(p, sum(dims), diagonal)]


@st.composite
def representations(draw):
    """A matroid and the other oracles that represent it, each built fresh."""
    kind = draw(st.sampled_from(["graph", "uniform", "affine", "block"]))
    if kind == "graph":
        graph = draw(graphs())
        return [graph, incidence_gfp(graph, 2), incidence_gfp(graph, 3)]
    if kind == "uniform":
        uniform = draw(uniforms())
        p = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11) if q >= len(uniform.ground)]))
        return [uniform, moment_curve(uniform), moment_curve(uniform, p)]
    return draw(affine_sets() if kind == "affine" else block_sums())


@settings(max_examples=300, deadline=None)
@given(representations(), st.data())
def test_sampled_closure_answers_agree(oracles, data):
    first = oracles[0]
    for other in oracles[1:]:
        assert other.ground == first.ground
        assert other.loops == first.loops
        assert other.rank_bound == first.rank_bound
    # The same coloop padding over each oracle.
    if data.draw(st.booleans()):
        oracles = [with_coloops(oracle, 2) for oracle in oracles]
    ground = st.sampled_from(oracles[0].ground)
    for _ in range(10):
        x, ys = data.draw(ground), data.draw(st.frozensets(ground, max_size=5))
        assert len({oracle.in_closure(x, ys) for oracle in oracles}) == 1, (x, ys)
        assert len({oracle.covers(x, ys) for oracle in oracles}) == 1, (x, ys)
    assert len({oracle.oracle_calls for oracle in oracles}) == 1


@st.composite
def instances(draw):
    """Representations of one matroid of rank m >= 1, and a loose-profile instance on it.

    The sequence has m(r-1) + 1 + extra non-loop entries.  Colored, one
    color takes r entries and the others r-1 each, as the loose profile
    allows; ``None`` stands for the noncolor mode.
    """
    oracles = draw(representations().filter(lambda oracles: oracles[0].rank_bound > 0))
    first = oracles[0]
    nonloops = [e for e in first.ground if e not in first.loops]
    m = first.rank_bound
    r = draw(st.integers(2, 3))
    length = m * (r - 1) + 1 + draw(st.integers(0, 2))
    elements = draw(st.lists(st.sampled_from(nonloops), min_size=length, max_size=length))
    seq = IndexedSequence.from_elements(elements)
    if draw(st.booleans()):
        return oracles, seq, None, r
    colors = [0] * r + [1 + i // (r - 1) for i in range(length - r)]
    order = draw(st.permutations(range(length)))
    coloring = Coloring({i: f"c{colors[order[i]]}" for i in range(length)})
    return oracles, seq, coloring, r


def _solve_record(matroid, seq, coloring, r):
    stats = SolveStats()
    if coloring is None:
        partition = solve_noncolor(matroid, seq, r, stats=stats)
    else:
        partition = solve_general(matroid, seq, coloring, r, stats=stats)
    return partition.part_indices(), stats.events, stats.oracle_calls, stats.recursion_depth


@settings(max_examples=250, deadline=None)
@given(instances())
def test_solve_and_referee_agree(case):
    oracles, seq, coloring, r = case
    records = [_solve_record(oracle, seq, coloring, r) for oracle in oracles]
    assert all(record == records[0] for record in records[1:])
    if len(seq) <= 7:
        witnesses = []
        for oracle in oracles:
            found = brute_force_solve(oracle, seq, coloring, r)
            witnesses.append((found and found.part_indices(), oracle.oracle_calls))
        assert all(w == witnesses[0] for w in witnesses[1:])
