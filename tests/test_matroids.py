"""Matroid families: closure answers, derived primitives, and the axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import (
    AffineMatroid,
    DirectSumMatroid,
    GraphicMatroid,
    MatroidOracle,
    UniformMatroid,
    UnknownElement,
    VectorMatroidGFp,
    VectorMatroidRational,
)
from matroid_tverberg.instances import MAX_P
from matroid_tverberg.matroids import check_prime

from acceptance_checks import closure, is_coloop
from conftest import family_zoo, gfp_matroid, triangle_graph, with_coloops


def test_gf2_membership_example(gf2_plane):
    # (1,1) is the sum of the two unit vectors.
    assert gf2_plane.in_closure("z", {"x", "y"})
    assert not gf2_plane.in_closure("y", {"x"})


def test_uniform_membership_example(u24):
    assert u24.in_closure("e2", {"e0", "e1"})
    assert not u24.in_closure("e2", {"e0"})
    assert u24.in_closure("e0", {"e0"})


def test_graphic_membership_example():
    tri = triangle_graph()
    assert tri.in_closure("e13", {"e12", "e23"})
    assert not tri.in_closure("e13", {"e12"})


def test_graphic_self_loop_is_loop():
    g = triangle_graph()
    from matroid_tverberg import GraphicMatroid

    g = GraphicMatroid(2, {"a": (0, 1), "l": (1, 1)})
    assert g.is_loop("l")
    assert not g.is_loop("a")
    assert g.rank_bound == 1


def test_rank_examples(gf2_plane, u24):
    assert gf2_plane.rank({"x", "y", "z"}) == 2
    assert u24.rank({"e0", "e1", "e2"}) == 2
    assert u24.rank(()) == 0
    assert gf2_plane.rank(()) == 0


def test_zero_vector_is_loop():
    m = VectorMatroidGFp(3, 2, {"o": (0, 0), "x": (1, 0)})
    assert m.is_loop("o")
    assert not m.is_loop("x")


def test_affine_has_no_loops():
    aff = AffineMatroid("rational", 1, {"p": (Fraction(0),), "q": (Fraction(1),)})
    assert not aff.is_loop("p")
    assert aff.rank_bound == 2
    # A point is in the affine hull of a single point only if equal.
    assert not aff.in_closure("q", {"p"})
    assert aff.in_closure("q", {"p", "q"})


def test_affine_gfp_three_collinear():
    # On the GF(3) affine line all three points are affinely dependent.
    aff = AffineMatroid(3, 1, {"p0": (0,), "p1": (1,), "p2": (2,)})
    assert aff.rank_bound == 2
    assert aff.in_closure("p2", {"p0", "p1"})


def test_coloop_example():
    base = UniformMatroid(1, 2)
    summed = with_coloops(base, 1)
    fresh = summed.ground[-1]
    assert is_coloop(summed, fresh)
    assert not is_coloop(summed, "e0")


def test_coloops_raise_the_rank_via_oracle():
    # Rank of the extended ground set, measured through the oracle itself.
    base = VectorMatroidGFp(2, 1, {"x": (1,)})
    extended = with_coloops(base, 2)
    assert extended.rank(extended.ground) == 3
    assert extended.rank_bound == 3
    # Closure restricted to old elements is unchanged.
    assert extended.in_closure("x", {"x"})
    assert not extended.in_closure("x", set(extended.ground[1:]))


def test_unknown_element_errors(gf2_plane):
    with pytest.raises(UnknownElement):
        gf2_plane.in_closure("nope", {"x"})
    with pytest.raises(UnknownElement):
        gf2_plane.in_closure("x", {"nope"})
    with pytest.raises(UnknownElement):
        gf2_plane.rank({"nope"})
    with pytest.raises(UnknownElement):
        is_coloop(gf2_plane, "nope")


def test_max_independent_rejects_an_unknown_element(u24):
    # The greedy walks ys itself, so an element outside the ground is named,
    # not skipped, before any question is asked.
    with pytest.raises(UnknownElement, match="'zz'"):
        u24.max_independent(["zz", "e1"])
    assert u24.oracle_calls == 0


def test_direct_sum_requires_disjoint_ids():
    with pytest.raises(ValueError):
        DirectSumMatroid(UniformMatroid(1, 2), UniformMatroid(1, 2))


def test_direct_sum_componentwise():
    left = UniformMatroid(1, 2, ids=("l0", "l1"))
    right = UniformMatroid(2, 3, ids=("r0", "r1", "r2"))
    ds = DirectSumMatroid(left, right)
    assert ds.rank_bound == 3
    assert ds.in_closure("l1", {"l0"})
    assert not ds.in_closure("l1", {"r0", "r1", "r2"})
    assert ds.in_closure("r2", {"r0", "r1"})


def test_call_counting(gf2_plane):
    before = gf2_plane.oracle_calls
    gf2_plane.in_closure("x", {"y"})
    gf2_plane.in_closure("x", {"y"})  # memo hit still counts as a query
    assert gf2_plane.oracle_calls == before + 2


@pytest.mark.parametrize("family", sorted(family_zoo(3)))
def test_unknown_elements_raise_with_a_warm_memo(family):
    m, basis = family_zoo(3)[family]
    b0, b1 = basis[0], basis[1]
    answer = m.in_closure(b0, {b1})
    assert m.in_closure(b0, {b1}) == answer  # now a memo hit
    before = m.oracle_calls
    with pytest.raises(UnknownElement):
        m.in_closure("nope", {b1})
    with pytest.raises(UnknownElement):
        m.in_closure(b0, {b1, "nope"})
    with pytest.raises(UnknownElement):
        m.in_closure("nope", ())
    assert m.oracle_calls == before


def test_direct_sum_unknown_elements_raise_with_a_warm_memo():
    left = UniformMatroid(1, 2, ids=("l0", "l1"))
    ds = DirectSumMatroid(left, UniformMatroid(2, 3, ids=("r0", "r1", "r2")))
    assert ds.in_closure("l1", {"l0"})
    assert left.in_closure("l1", {"l0"})
    before = ds.oracle_calls
    with pytest.raises(UnknownElement):
        ds.in_closure("l1", {"l0", "nope"})
    with pytest.raises(UnknownElement):
        ds.in_closure("nope", {"l0"})
    assert ds.oracle_calls == before


# ---------------------------------------------------------------------------
# Sampled axioms, across every family.


def _random_subset(rng, ground, max_size=None):
    limit = len(ground) if max_size is None else min(max_size, len(ground))
    k = rng.randrange(0, limit + 1)
    return frozenset(rng.sample(list(ground), k))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closure_axioms_sampled(m):
    rng = random.Random(100 + m)
    for name, (matroid, _) in family_zoo(m).items():
        ground = matroid.ground
        for _ in range(20):
            y = _random_subset(rng, ground, 5)
            cl_y = closure(matroid, y)
            # extensivity
            assert y <= cl_y, name
            # idempotence
            assert closure(matroid, cl_y) == cl_y, name
            # monotonicity against a superset
            bigger = y | _random_subset(rng, ground, 3)
            assert cl_y <= closure(matroid, bigger), name


@st.composite
def covers_cases(draw):
    """A matroid of any family, as it is or padded with coloops."""
    m = draw(st.integers(1, 3))
    zoo = {name: matroid for name, (matroid, _) in family_zoo(m).items()}
    zoo["affine_gf3"] = AffineMatroid(3, 1, {"p0": (0,), "p1": (1,), "p2": (2,)})
    zoo["free"] = UniformMatroid(m, m)
    matroid = zoo[draw(st.sampled_from(sorted(zoo)))]
    if draw(st.booleans()):
        matroid = with_coloops(matroid, draw(st.integers(1, 2)))
    x = draw(st.sampled_from(matroid.ground))
    return matroid, x, draw(st.frozensets(st.sampled_from(matroid.ground)))


@settings(max_examples=300, deadline=None)
@given(covers_cases())
def test_covers_is_in_closure_and_asks_nothing_the_axioms_settle(case):
    matroid, x, ys = case
    before = matroid.oracle_calls
    answer = matroid.covers(x, ys)
    settled = x in ys or x in matroid.known_coloops
    assert matroid.oracle_calls == before + (0 if settled else 1)
    assert answer == matroid.in_closure(x, ys)


@pytest.mark.parametrize("m", [2, 3])
def test_exchange_property_sampled(m):
    rng = random.Random(200 + m)
    for name, (matroid, _) in family_zoo(m).items():
        ground = list(matroid.ground)
        for _ in range(30):
            y = _random_subset(rng, ground, 4)
            u = rng.choice(ground)
            x = rng.choice(ground)
            if matroid.in_closure(x, y | {u}) and not matroid.in_closure(x, y):
                assert matroid.in_closure(u, y | {x}), (name, y, u, x)


@pytest.mark.parametrize("m", [2, 3])
def test_closure_of_closure_union_law(m):
    # cl(B u C) = cl(B u cl C), tested by membership agreement on the ground.
    rng = random.Random(300 + m)
    for name, (matroid, _) in family_zoo(m).items():
        ground = matroid.ground
        for _ in range(10):
            b = _random_subset(rng, ground, 3)
            c = _random_subset(rng, ground, 3)
            lhs = closure(matroid, b | c)
            rhs = closure(matroid, b | closure(matroid, c))
            assert lhs == rhs, name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank_is_monotone_submodular_bounded(m):
    rng = random.Random(400 + m)
    for name, (matroid, _) in family_zoo(m).items():
        ground = matroid.ground
        for _ in range(15):
            a = _random_subset(rng, ground, 4)
            b = _random_subset(rng, ground, 4)
            ra, rb = matroid.rank(a), matroid.rank(b)
            assert ra <= len(a) and ra <= matroid.rank_bound, name
            if a <= b:
                assert ra <= rb, name
            assert matroid.rank(a | b) + matroid.rank(a & b) <= ra + rb, name


def _greedy_rank(matroid, ys):
    """The rank of ``ys`` by a greedy of ``covers`` in ground order that never stops early."""
    indep = []
    for e in sorted(ys, key=matroid.ground.index):
        if not matroid.covers(e, indep):
            indep.append(e)
    return len(indep)


def test_rank_bound_matches_greedy_rank():
    # ``rank`` stops at ``rank_bound`` elements, so only a greedy without
    # that stop shows a ``rank_bound`` set too low.
    for m in (1, 2, 3):
        for name, (matroid, _) in family_zoo(m).items():
            assert _greedy_rank(matroid, matroid.ground) == matroid.rank_bound == m, name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank_stopping_at_the_bound_matches_the_full_greedy(m):
    rng = random.Random(500 + m)
    for name, (matroid, _) in family_zoo(m).items():
        for _ in range(20):
            ys = _random_subset(rng, matroid.ground)
            indep = matroid.max_independent(ys)
            assert len(indep) == matroid.rank(ys) == _greedy_rank(matroid, ys), name
            assert all(matroid.covers(y, indep) for y in ys), name


def test_a_subclass_without_a_rank_finds_it_by_the_greedy():
    # The default ``_compute_rank_bound`` runs the greedy without the stop
    # at ``rank_bound``, which would ask for the bound it computes.
    class TwoOfFour(MatroidOracle):
        """U_2^4 through its closure alone."""

        def _members(self, x, ys):
            return x in ys or len(ys) >= 2

    first_rank = TwoOfFour(range(4))
    assert first_rank.rank({0, 1, 2}) == 2 and first_rank.rank_bound == 2
    first_bound = TwoOfFour(range(4))
    assert first_bound.rank_bound == 2 and first_bound.rank(range(4)) == 2
    assert first_bound.max_independent({1, 3}) == (1, 3)


def test_rational_scaling_invariance():
    rng = random.Random(7)
    base = {"a": (1, 2), "b": (3, 4), "c": (2, 4), "d": (0, 1)}
    scaled = {k: tuple(Fraction(5, 3) * Fraction(c) for c in v) if k == "b" else v for k, v in base.items()}
    m1 = VectorMatroidRational(2, base)
    m2 = VectorMatroidRational(2, scaled)
    ids = list(base)
    for _ in range(40):
        x = rng.choice(ids)
        y = frozenset(rng.sample(ids, rng.randrange(0, 4)))
        assert m1.in_closure(x, y) == m2.in_closure(x, y)


def test_direct_sum_rank_additivity_sampled():
    rng = random.Random(9)
    left = gfp_matroid(2, 2)
    right = UniformMatroid(2, 3, ids=("u0", "u1", "u2"))
    ds = DirectSumMatroid(left, right)
    for _ in range(25):
        y = _random_subset(rng, ds.ground)
        expected = left.rank(y & left.ground_set) + right.rank(y & right.ground_set)
        assert ds.rank(y) == expected


def _connected(edges, u, v):
    """Reference: is v reachable from u along ``edges`` (search, no union-find)?"""
    reached, frontier = {u}, [u]
    while frontier:
        a = frontier.pop()
        for p, q in edges:
            for b, c in ((p, q), (q, p)):
                if b == a and c not in reached:
                    reached.add(c)
                    frontier.append(c)
    return v in reached


def test_graphic_membership_and_rank_match_search():
    rng = random.Random(11)
    for trial in range(30):
        n = rng.randrange(1, 9)
        edges = {f"g{i}": (rng.randrange(n), rng.randrange(n)) for i in range(rng.randrange(1, 14))}
        if trial % 3 == 0:  # a long path, listed back to front
            edges.update({f"p{i}": (i + 1, i) for i in reversed(range(n - 1))})
        g = GraphicMatroid(n, edges)
        ids = list(edges)
        for _ in range(40):
            x = rng.choice(ids)
            ys = frozenset(rng.sample(ids, rng.randrange(0, len(ids) + 1)))
            assert g.in_closure(x, ys) == _connected([edges[y] for y in ys], *edges[x])
        components = {min(v for v in range(n) if _connected(edges.values(), u, v)) for u in range(n)}
        assert g.rank_bound == n - len(components)


def test_prime_validation():
    with pytest.raises(ValueError):
        VectorMatroidGFp(4, 1, {"x": (1,)})
    with pytest.raises(ValueError):
        VectorMatroidGFp(1, 1, {"x": (1,)})


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _accepts(n):
    try:
        return check_prime(n) == n
    except ValueError:
        return False


@pytest.mark.parametrize(
    "low, high", [(-5, 20_000), (2**31 - 2_000, 2**31)], ids=["small", "at the cap"]
)
def test_check_prime_agrees_with_trial_division(low, high):
    assert MAX_P == 2**31 - 1
    for n in range(low, high):
        assert _accepts(n) == _is_prime_by_trial_division(n), n


def test_check_prime_refuses_pseudoprimes():
    # A Carmichael number, and strong pseudoprimes to base 2, to bases 2
    # and 3, and to bases 2, 3 and 5.
    for n in (561, 2047, 1_373_653, 25_326_001):
        assert not _is_prime_by_trial_division(n)
        with pytest.raises(ValueError, match="not a prime"):
            check_prime(n)
