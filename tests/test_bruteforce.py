"""Exhaustive search, tightness, the intersection law, and the rota checker."""

import itertools
import random
from fractions import Fraction

import pytest

from matroid_tverberg import (
    AffineMatroid,
    BudgetExceeded,
    Coloring,
    IndexedSequence,
    NotABasis,
    PreconditionViolated,
    UniformMatroid,
    VectorMatroidGFp,
    brute_force_solve,
    bruteforce,
    check_intersection_lemma,
    check_tightness,
    closure_intersection_agrees,
    rota_check,
    solve_general,
    solve_special,
    tight_instance,
    verify_partition,
)

from conftest import affine_line_rational, family_zoo, gfp_matroid
from test_brute_golden import GOLDEN, golden_instance


def seq_of(elements):
    return IndexedSequence.from_elements(elements)


def coloring_of(colors):
    return Coloring({i: c for i, c in enumerate(colors)})


# ---------------------------------------------------------------------------
# brute_force_solve


def test_brute_tight_u2_has_no_partition(u24):
    s = seq_of(["e0", "e1"])
    assert brute_force_solve(u24, s, None, 2) is None


def test_brute_real_line_family_has_no_partition():
    m = affine_line_rational({f"p{i}": i for i in range(1, 6)})
    s = seq_of([f"p{i}" for i in range(1, 6)])
    c = coloring_of(["red"] * 4 + ["blue"])
    assert brute_force_solve(m, s, c, 3) is None
    # and the solver flags the precondition rather than contradicting it
    with pytest.raises(PreconditionViolated):
        solve_general(m, s, c, 3)


def test_brute_gf2_affine_line_red_surplus_is_solvable():
    # Three entries of the first color with r = 2: the count cap fails,
    # yet over GF(2) a partition still exists.
    m = AffineMatroid(2, 1, {"o1": (0,), "o2": (0,), "o3": (0,), "i1": (1,)})
    s = seq_of(["o1", "o2", "o3", "i1"])
    c = coloring_of(["red", "red", "red", "blue"])
    partition = brute_force_solve(m, s, c, 2)
    assert partition is not None
    assert verify_partition(m, s, c, 2, partition.parts).ok


def test_brute_witness_is_lexicographically_first():
    # Entries 0 and 1 are parallel, so the very first labeling that works
    # is S_1 = entry 0, S_2 = entry 1.
    m = VectorMatroidGFp(3, 2, {"a": (1, 0), "b": (2, 0), "c": (0, 1)})
    s = seq_of(["a", "b", "c"])
    c = coloring_of(["u", "v", "w"])
    partition = brute_force_solve(m, s, c, 2)
    assert partition.part_indices() == ((0,), (1,))


def test_brute_respects_coloring():
    m = VectorMatroidGFp(2, 1, {"p1": (1,), "p2": (1,)})
    s = seq_of(["p1", "p2"])
    same = coloring_of(["red", "red"])
    # Both entries in one part would repeat a color; separate parts work.
    partition = brute_force_solve(m, s, same, 2)
    assert partition.part_indices() == ((0,), (1,))


def test_brute_budget_errors(monkeypatch):
    m = UniformMatroid(2, 13)
    s = seq_of([f"e{i}" for i in range(13)])
    with pytest.raises(BudgetExceeded):
        brute_force_solve(m, s, None, 2)
    with pytest.raises(BudgetExceeded):
        brute_force_solve(m, seq_of(["e0"]), None, 5)
    monkeypatch.setattr(bruteforce, "MAX_NODES", 10)
    with pytest.raises(BudgetExceeded):
        brute_force_solve(m, seq_of([f"e{i}" for i in range(8)]), None, 2)


def test_brute_agrees_with_solver_on_random_instances():
    rng = random.Random(5)
    for _ in range(30):
        m_rank = rng.choice((2, 3))
        r = rng.choice((2, 3))
        length = m_rank * (r - 1) + 1 + rng.randrange(0, 2)
        matroid = UniformMatroid(m_rank, 4)
        s = seq_of([f"e{rng.randrange(4)}" for _ in range(length)])
        coloring = Coloring({i: f"c{i}" for i in range(length)})
        direct = brute_force_solve(matroid, s, coloring, r)
        assert direct is not None
        assert verify_partition(matroid, s, coloring, r, direct.parts).ok


def test_brute_asks_each_question_once(monkeypatch):
    # On every golden and tight row, the search (everything before the closing
    # build_partition) asks no (x, Y) twice and never asks about an x in Y.
    closing = []
    real_build = bruteforce.build_partition

    def build_partition(matroid, parts):
        closing.append(True)
        return real_build(matroid, parts)

    monkeypatch.setattr(bruteforce, "build_partition", build_partition)
    total = 0
    for family, profile, m, r, length, _, _ in GOLDEN:
        matroid, seq, coloring = golden_instance(family, profile, m, r, length)
        asked = []
        real = matroid.in_closure

        def recording(x, ys, real=real, asked=asked):
            if not closing:
                asked.append((x, frozenset(ys)))
            return real(x, ys)

        matroid.in_closure = recording
        closing.clear()
        brute_force_solve(matroid, seq, coloring, r)
        row = f"{family}-{profile}-m{m}-r{r}-len{length}"
        assert not [q for q in asked if q[0] in q[1]], row
        assert len(set(asked)) == len(asked), row
        total += len(asked)
    assert total > 0


# ---------------------------------------------------------------------------
# tight_instance / check_tightness


def test_tight_instance_shapes(u24, gf2_plane):
    assert tight_instance(u24, ("e0", "e1"), 1).entries == ()
    three = tight_instance(u24, ("e0", "e1"), 3)
    assert [e for _, e in three] == ["e0", "e0", "e1", "e1"]
    two = tight_instance(gf2_plane, ("x", "y"), 2)
    assert [e for _, e in two] == ["x", "y"]


def test_tight_instance_rejects_non_basis(u24, gf2_plane):
    with pytest.raises(NotABasis):
        tight_instance(u24, ("e0",), 2)  # too small
    with pytest.raises(NotABasis):
        tight_instance(gf2_plane, ("x", "x"), 2)  # repeated
    with pytest.raises(NotABasis):
        tight_instance(gf2_plane, ("x", "y", "z"), 2)  # dependent


def test_check_tightness_families():
    for m, r in ((2, 2), (3, 2), (2, 3), (2, 4), (1, 4)):
        for name, (matroid, basis) in family_zoo(m).items():
            assert check_tightness(matroid, basis, r), (name, m, r)


def test_check_tightness_r1_vacuous(u24):
    assert check_tightness(u24, ("e0", "e1"), 1)


def test_check_tightness_rank_0_builds_no_list_of_part_subsets():
    # m(r-1) = 0 passes the entry cap for every r; the 2**r - 1 part subsets
    # are a range, so r = 40 returns at once.
    assert check_tightness(UniformMatroid(0, 2), (), 40)


def test_check_tightness_budget(u24):
    with pytest.raises(BudgetExceeded):
        check_tightness(u24, ("e0", "e1"), 8)


# ---------------------------------------------------------------------------
# the closure-intersection law


def test_intersection_lemma_trivial_cases(gf2_plane):
    basis = ("x", "y")
    assert check_intersection_lemma(gf2_plane, basis, {"x"}, {"x"})
    assert check_intersection_lemma(gf2_plane, basis, {"x"}, {"y"})


def test_intersection_lemma_gf2_dim3_derived():
    # Ground is all of GF(2)^3; both sides must equal span{e2} plus loops.
    vectors = {}
    for bits in itertools.product((0, 1), repeat=3):
        vectors["v" + "".join(map(str, bits))] = bits
    m = VectorMatroidGFp(2, 3, vectors)
    basis = ("v100", "v010", "v001")
    u = {"v100", "v010"}
    v = {"v010", "v001"}
    assert check_intersection_lemma(m, basis, u, v)
    # independent derivation of both sides through raw closure enumeration
    lhs = m.closure(u) & m.closure(v)
    rhs = m.closure(u & v)
    assert lhs == rhs == {"v000", "v010"}


def test_intersection_lemma_validates_inputs(gf2_plane):
    with pytest.raises(NotABasis):
        check_intersection_lemma(gf2_plane, ("x", "z", "y"), {"x"}, {"y"})
    with pytest.raises(NotABasis):
        check_intersection_lemma(gf2_plane, ("x", "y"), {"z"}, {"y"})


def test_intersection_law_fails_without_basis_hypothesis():
    # Three collinear affine points: U = {a, b} and V = {a, c} both span the
    # whole line, but their common point spans only itself.
    m = affine_line_rational({"a": 0, "b": 1, "c": 2})
    assert not closure_intersection_agrees(m, {"a", "b"}, {"a", "c"})


def test_intersection_lemma_sampled_across_families():
    rng = random.Random(99)
    for m_rank in (2, 3):
        for name, (matroid, basis) in family_zoo(m_rank).items():
            for _ in range(10):
                u = frozenset(rng.sample(basis, rng.randrange(0, len(basis) + 1)))
                v = frozenset(rng.sample(basis, rng.randrange(0, len(basis) + 1)))
                assert check_intersection_lemma(matroid, basis, u, v), (name, u, v)


# ---------------------------------------------------------------------------
# rota_check


def test_rota_m1():
    m = VectorMatroidGFp(2, 1, {"a": (1,)})
    partition = rota_check(m, [("a",)])
    assert partition.part_indices() == ((0,),)


def test_rota_m2_example():
    m = VectorMatroidGFp(2, 2, {
        "a1": (1, 0), "a2": (0, 1),   # first basis
        "b1": (1, 1), "b2": (1, 0),   # second basis
    })
    partition = rota_check(m, [("a1", "a2"), ("b1", "b2")])
    assert partition is not None
    for part in partition.parts:
        assert m.rank(part.set_image) == 2


def test_rota_rejects_dependent_color_class():
    m = VectorMatroidGFp(2, 2, {"a1": (1, 0), "a2": (1, 0), "b1": (1, 1), "b2": (1, 0)})
    with pytest.raises(NotABasis):
        rota_check(m, [("a1", "a2"), ("b1", "b2")])


def test_rota_rejects_large_rank():
    vectors = {f"e{i}{j}": tuple(1 if k == j else 0 for k in range(4)) for i in range(4) for j in range(4)}
    m = VectorMatroidGFp(2, 4, vectors)
    bases = [tuple(f"e{i}{j}" for j in range(4)) for i in range(4)]
    with pytest.raises(PreconditionViolated):
        rota_check(m, bases)


def test_rota_gf3_random_bases():
    import numpy as np

    from matroid_tverberg.kernels import gfp_rank

    rng = random.Random(13)
    for _ in range(5):
        rows = []
        elements = {}
        bases = []
        for bi in range(3):
            while True:
                cand = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
                if gfp_rank(np.array(cand, dtype=np.int64), 3) == 3:
                    break
            ids = []
            for ei, row in enumerate(cand):
                eid = f"b{bi}_{ei}"
                elements[eid] = tuple(row)
                ids.append(eid)
            bases.append(tuple(ids))
        m = VectorMatroidGFp(3, 3, elements)
        partition = rota_check(m, bases)
        assert partition is not None
        for part in partition.parts:
            assert m.rank(part.set_image) == 3
