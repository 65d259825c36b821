"""The constructive solvers and the independent partition verifier."""

import ast
import inspect
import random
import sys
from functools import partial
from itertools import product

import pytest

from matroid_tverberg import (
    AffineMatroid,
    Coloring,
    IndexedSequence,
    InternalInvariantBroken,
    LoopInInput,
    MatroidOracle,
    PreconditionViolated,
    SolveStats,
    UniformMatroid,
    UnknownElement,
    VectorMatroidGFp,
    brute_force_solve,
    build_partition,
    gen_random_instance,
    solve_general,
    solve_noncolor,
    solve_special,
    verify_partition,
)

from matroid_tverberg import solver
from matroid_tverberg.instances import GENERATOR_FAMILIES
from acceptance_checks import max_rainbow_independent
from conftest import family_zoo, gfp_matroid
from golden_questions import cheap_rows, rational_rows, row_instance, solve_row


def seq_of(elements):
    return IndexedSequence.from_elements(elements)


def coloring_of(colors):
    return Coloring({i: c for i, c in enumerate(colors)})


# ---------------------------------------------------------------------------
# solve_special


def test_rank_one_base_case_three_parallel_copies():
    m = VectorMatroidGFp(2, 1, {"p1": (1,), "p2": (1,), "p3": (1,)})
    s = seq_of(["p1", "p2", "p3"])
    c = coloring_of(["red", "red", "red"])
    part = solve_special(m, s, c, 3)
    assert part.part_indices() == ((0,), (1,), (2,))
    assert verify_partition(m, s, c, 3, part.parts).ok


def test_golden_gf3_example():
    m = VectorMatroidGFp(3, 2, {"a": (1, 0), "b": (2, 0), "c": (0, 1)})
    s = seq_of(["a", "b", "c"])
    c = coloring_of(["c1", "c1", "c2"])
    part = solve_special(m, s, c, 2)
    # Deterministic tie-breaks pin the exact output.
    assert part.part_indices() == ((1,), (0, 2))
    assert verify_partition(m, s, c, 2, part.parts).ok
    # Brute force confirms a valid partition exists at all.
    assert brute_force_solve(m, s, c, 2) is not None


def test_special_profile_violation_raises():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2"])
    c = coloring_of(["u", "v"])
    with pytest.raises(PreconditionViolated):
        solve_special(m, s, c, 2)  # needs 2 of the first color, 1 of the other


def test_special_rejects_loops():
    m = VectorMatroidGFp(2, 2, {"o": (0, 0), "x": (1, 0), "y": (0, 1)})
    s = seq_of(["o", "x", "y"])
    c = coloring_of(["u", "u", "v"])
    with pytest.raises(LoopInInput):
        solve_special(m, s, c, 2)


def test_special_multi_round_normalization():
    # Colors A, A, B on one line, C on another: rank(S) = 2 but the top two
    # color classes only span rank 1, so normalization must iterate.
    m = VectorMatroidGFp(5, 3, {"a1": (1, 0, 0), "a2": (2, 0, 0), "b1": (3, 0, 0), "c1": (0, 1, 0)})
    s = seq_of(["a1", "a2", "b1", "c1"])
    c = coloring_of(["A", "A", "B", "C"])
    part = solve_special(m, s, c, 2)
    assert verify_partition(m, s, c, 2, part.parts).ok


def test_special_flat_recursion_case():
    # The greedy rainbow independent set picks g0 and g2 and cannot span.
    # The first cycle pass shrinks the free colors' span onto the line of
    # g0, the second pass finds every remaining candidate inside that flat
    # and recurses there with g0 and g1 merged into a fresh color.
    m = VectorMatroidGFp(2, 3, {
        "g0": (1, 0, 0), "g1": (1, 0, 0), "g2": (1, 0, 1), "g3": (0, 1, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3"])
    c = coloring_of(["c3", "c2", "c1", "c1"])
    stats = SolveStats()
    part = solve_special(m, s, c, 2, stats=stats)
    assert part.part_indices() == ((0,), (1,))
    assert verify_partition(m, s, c, 2, part.parts).ok
    labels = [label for _, label, _ in stats.events]
    assert labels == ["case_c", "case_a"]


def test_special_ranks_tied_ints_before_strings():
    # Three colors over rank 2: normalization keeps 5 and the first of the
    # tied 7 and "a", which is 7 (ints rank before strings), so entry 2
    # joins the spanning top part, not entry 3.
    s = seq_of(["e0", "e1", "e2", "e3"])
    part = solve_special(UniformMatroid(2, 4), s, coloring_of([5, 5, 7, "a"]), 2)
    assert part.part_indices() == ((1,), (0, 2))
    # With int colors, case a merges into the string color z1, and the
    # instance inside the flat is solved with colors of both types.
    m = VectorMatroidGFp(2, 3, {
        "g0": (1, 0, 0), "g1": (1, 0, 0), "g2": (1, 0, 1), "g3": (0, 1, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3"])
    c = coloring_of([3, 2, 1, 1])
    stats = SolveStats()
    part = solve_special(m, s, c, 2, stats=stats)
    assert [label for _, label, _ in stats.events] == ["case_c", "case_a"]
    assert part.part_indices() == ((0,), (1,))


def test_special_exchange_grows_ri():
    # g2 duplicates g0, so the greedy rainbow independent set stalls at
    # size two; the cycle first swaps the exchange rules (g3 escapes
    # cl(RI)) and the rebuilt RI spans.
    m = VectorMatroidGFp(2, 3, {
        "g0": (1, 1, 1), "g1": (0, 1, 1), "g2": (1, 1, 1), "g3": (0, 1, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3"])
    c = coloring_of(["c1", "c3", "c2", "c1"])
    stats = SolveStats()
    part = solve_special(m, s, c, 2, stats=stats)
    assert part.part_indices() == ((0,), (1, 2, 3))
    assert verify_partition(m, s, c, 2, part.parts).ok
    labels = [label for _, label, _ in stats.events]
    assert labels == ["case_c", "case_b", "spanning"]
    assert stats.restarts == 1


def test_special_chained_advances_compose_exchanges():
    # The cycle must advance its rules twice before an entry escapes
    # cl(RI), so the final exchange sequence is assembled from an earlier
    # one; the runtime rule checks vet each step.
    m = VectorMatroidGFp(2, 3, {
        "g0": (0, 1, 0), "g1": (1, 1, 0), "g2": (0, 0, 1),
        "g3": (1, 1, 0), "g4": (1, 0, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3", "g4"])
    c = coloring_of(["c1", "c2", "c1", "c3", "c2"])
    stats = SolveStats()
    part = solve_special(m, s, c, 2, stats=stats)
    assert part.part_indices() == ((0,), (2, 3, 4))
    assert verify_partition(m, s, c, 2, part.parts).ok
    labels = [label for _, label, _ in stats.events]
    assert labels == ["case_c", "case_c", "case_b", "spanning"]
    assert stats.invariant_checks >= 3


def test_stats_bounds_hold():
    # The exchange instance runs the cycle, so rule checks must have fired.
    m = VectorMatroidGFp(2, 3, {
        "g0": (1, 1, 1), "g1": (0, 1, 1), "g2": (1, 1, 1), "g3": (0, 1, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3"])
    c = coloring_of(["c1", "c3", "c2", "c1"])
    stats = SolveStats()
    part = solve_special(m, s, c, 2, stats=stats)
    assert verify_partition(m, s, c, 2, part.parts).ok
    assert 0 < stats.max_cycle_iterations <= 3
    assert stats.max_restarts_per_level <= 3
    assert stats.recursion_depth <= 2 + 3
    assert stats.oracle_calls > 0
    assert stats.invariant_checks > 0


# ---------------------------------------------------------------------------
# solve_general


def test_general_no_coloops_needed():
    # Number of colors equals the rank: the reduction only trims.
    m = gfp_matroid(2, 2, {"s": (1, 1)})
    s = seq_of(["b1", "b2", "s"])
    c = coloring_of(["u", "v", "u"])
    part = solve_general(m, s, c, 2)
    assert verify_partition(m, s, c, 2, part.parts).ok


def test_general_pads_and_strips_coloops():
    # Four colors over a rank-2 matroid: two coloops get adjoined, and the
    # answer must not contain padded entries.
    m = gfp_matroid(2, 2, {"s": (1, 1)})
    s = seq_of(["b1", "b2", "s"])
    c = coloring_of(["u", "v", "w"])
    part = solve_general(m, s, c, 2)
    assert verify_partition(m, s, c, 2, part.parts).ok
    for p in part.parts:
        assert p.indices <= s.indices


def test_general_trims_highest_indices():
    m = UniformMatroid(2, 4)
    s = seq_of(["e0", "e1", "e2", "e3", "e0", "e1"])
    c = coloring_of(["u", "v", "w", "x", "y", "z"])
    part = solve_general(m, s, c, 2)
    assert verify_partition(m, s, c, 2, part.parts).ok
    used = set()
    for p in part.parts:
        used |= p.indices
    assert used <= {0, 1, 2}  # m(r-1)+1 = 3 lowest indices survive the trim


def test_general_tight_length_rejected():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b1", "b2", "b2"])  # length m(r-1) for r = 3
    c = coloring_of(["u", "v", "u", "v"])
    with pytest.raises(PreconditionViolated):
        solve_general(m, s, c, 3)


def test_general_first_color_cap_enforced():
    # Real-line style: n reds and one blue admit no three parts, and the
    # count precondition rejects the instance up front.
    pts = {f"p{i}": (i,) for i in range(1, 6)}
    m = AffineMatroid("rational", 1, pts)
    s = seq_of(sorted(pts))
    c = coloring_of(["red", "red", "red", "red", "blue"])
    with pytest.raises(PreconditionViolated):
        solve_general(m, s, c, 3)


def test_general_r1_takes_single_entry():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2", "b1"])
    c = coloring_of(["u", "u", "u"])
    part = solve_general(m, s, c, 1)
    assert part.part_indices() == ((0,),)


# ---------------------------------------------------------------------------
# solve_noncolor


def test_noncolor_r1():
    m = gfp_matroid(2, 2)
    part = solve_noncolor(m, seq_of(["b2", "b1"]), 1)
    assert part.part_indices() == ((0,),)


def test_noncolor_r1_pinned():
    # Loops are read from the matroid's declared ``loops``, so neither the
    # input check (5 entries) nor the non-loop witness asks the oracle, and
    # one part leaves no chain to check.
    inst = gen_random_instance("vector_gf2", 3, 1, 5, 1, "general")
    stats = SolveStats()
    part = solve_noncolor(inst.build_matroid(), inst.build_sequence(), 1, stats=stats)
    assert part.part_indices() == ((0,),)
    assert part.witness_nonloop == (0, "g0")
    assert stats.oracle_calls == 0


def test_noncolor_uniform_threshold():
    m = UniformMatroid(3, 7)
    s = seq_of([f"e{i}" for i in range(7)])  # m(r-1)+1 = 7 for r = 3
    part = solve_noncolor(m, s, 3)
    assert verify_partition(m, s, None, 3, part.parts).ok
    short = seq_of([f"e{i}" for i in range(6)])
    with pytest.raises(PreconditionViolated):
        solve_noncolor(m, short, 3)


def test_noncolor_rejects_loops():
    m = VectorMatroidGFp(2, 1, {"o": (0,), "x": (1,)})
    with pytest.raises(LoopInInput):
        solve_noncolor(m, seq_of(["o", "x"]), 1)


# ---------------------------------------------------------------------------
# verify_partition


def _valid_setup():
    m = gfp_matroid(2, 2, {"s": (1, 1)})
    s = seq_of(["b1", "b2", "s", "b1"])
    c = coloring_of(["u", "v", "w", "x"])
    parts = [s.with_indices({0}), s.with_indices({1, 2})]
    return m, s, c, parts


def test_verify_passes_on_valid_parts():
    m, s, c, parts = _valid_setup()
    assert verify_partition(m, s, c, 2, parts).ok


@pytest.mark.parametrize("r", ["2", None, 2.0, 0, True, False])
def test_verify_rejects_an_r_that_is_no_positive_integer(r):
    # The solves' own check, before any other: a part count of r is not
    # compared, and no closure question is asked.  The solves and the
    # referee make the same check, so a bool is no r for any of them.
    m, s, c, parts = _valid_setup()
    for check in (
        lambda: verify_partition(m, s, c, r, parts),
        lambda: solve_general(m, s, c, r),
        lambda: brute_force_solve(m, s, c, r),
    ):
        with pytest.raises(PreconditionViolated, match=f"r must be a positive integer, got {r!r}"):
            check()
    assert m.oracle_calls == 0


@pytest.mark.parametrize("colored", [False, True], ids=["no_coloring", "coloring"])
def test_verify_rejects_an_entry_outside_the_ground(colored):
    # The chain check answers e0 in cl({e0, zz}) by membership, so without
    # an input check nothing looks at zz, and the parts would verify.
    m = UniformMatroid(1, 2)
    s = IndexedSequence([(0, "e0"), (1, "e0"), (2, "zz")])
    c = coloring_of(["u", "u", "v"]) if colored else None
    parts = [[(0, "e0")], [(1, "e0"), (2, "zz")]]
    with pytest.raises(UnknownElement, match=r"sequence entry \(2, 'zz'\) is not in the ground set"):
        verify_partition(m, s, c, 2, parts)


def test_verify_wrong_part_count():
    m, s, c, parts = _valid_setup()
    report = verify_partition(m, s, c, 3, parts)
    assert not report.ok and report.failure == "part_count"


def test_verify_shared_index_fails():
    m, s, c, _ = _valid_setup()
    parts = [s.with_indices({0}), s.with_indices({0, 1})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "disjointness"


def test_verify_rainbow_violation():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2", "b1"])
    c = coloring_of(["u", "u", "v"])
    parts = [s.with_indices({2}), s.with_indices({0, 1})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "rainbow"


def test_verify_empty_first_part_fails_strictness():
    m, s, c, _ = _valid_setup()
    parts = [s.with_indices(()), s.with_indices({0, 1})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "strictness"


def test_verify_chain_violation():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2"])
    c = coloring_of(["u", "v"])
    parts = [s.with_indices({0}), s.with_indices({1})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "chain"
    assert report.detail == "entry (0, b1) of part 1 is outside cl(part 2)"


def test_verify_chain_detail_names_the_first_copy_of_a_repeated_element():
    m = gfp_matroid(2, 3)
    s = seq_of(["b1", "b1", "b2", "b1", "b3"])
    parts = [s.with_indices({0}), s.with_indices({1, 3}), s.with_indices({2, 4})]
    report = verify_partition(m, s, None, 3, parts)
    assert report.detail == "entry (1, b1) of part 2 is outside cl(part 3)"


def test_verify_not_subsequence_detail_names_the_foreign_entry():
    m, s, c, _ = _valid_setup()
    other = seq_of(["b1", "b2", "s", "b1", "s"])
    parts = [other.with_indices({0}), other.with_indices({1, 4})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "not_subsequence"
    assert report.detail == "entry (4, s) of part 2 is not an entry of S"


def test_verify_disjointness_detail_names_the_shared_entry_and_both_parts():
    m, s, c, _ = _valid_setup()
    parts = [s.with_indices({0, 2}), s.with_indices({1}), s.with_indices({2, 3})]
    report = verify_partition(m, s, c, 3, parts)
    assert report.failure == "disjointness"
    assert report.detail == "entry (2, s) is in part 1 and in part 3"


def test_verify_rainbow_detail_names_both_entries_and_the_color():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2", "b1", "b2"])
    c = coloring_of(["u", "v", "w", "v"])
    parts = [s.with_indices({0}), s.with_indices({1, 2, 3})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "rainbow"
    assert report.detail == "entries (1, b2) and (3, b2) of part 2 share color v"


def test_verify_strictness_detail_names_the_first_part():
    m = gfp_matroid(2, 2, {"o": (0, 0)})
    s = seq_of(["o", "b1", "o", "b2"])
    report = verify_partition(m, s, None, 2, [s.with_indices({2, 0}), s.with_indices({1, 3})])
    assert report.failure == "strictness"
    assert report.detail == "every entry of part 1, the first (0, o), is a loop"
    report = verify_partition(m, s, None, 2, [s.with_indices(()), s.with_indices({1, 3})])
    assert report.detail == "part 1 is empty, so its closure is cl(empty)"


@pytest.mark.parametrize("chained", [True, False], ids=["chain", "broken_chain"])
def test_verify_reports_the_same_on_parts_given_as_lists_of_entries(chained):
    # The first five predicates read a part as entries; the chain check and
    # the strictness detail read them too, not a sequence's attributes.
    m = gfp_matroid(2, 3, {"o": (0, 0, 0)})
    s = seq_of(["b1", "b1", "b2", "b1", "b2", "b3", "o"])
    indices = [{0}, {1, 2} if chained else {2}, {3, 4, 5}]
    parts = [s.with_indices(part) for part in indices]
    report = verify_partition(m, s, None, 3, parts)
    assert report.ok is chained
    assert verify_partition(m, s, None, 3, [list(part) for part in parts]) == report
    loops_first = [s.with_indices({6}), parts[1], parts[2]]
    report = verify_partition(m, s, None, 3, loops_first)
    assert report.failure == "strictness"
    assert verify_partition(m, s, None, 3, [list(part) for part in loops_first]) == report


def test_verify_success_asks_only_the_chain_questions():
    # One membership of b1 in cl(part 2); strictness reads the matroid's
    # declared loops.
    m, s, c, parts = _valid_setup()
    before = m.oracle_calls
    assert verify_partition(m, s, c, 2, parts).ok
    assert m.oracle_calls - before == 1


def test_verify_asks_each_element_of_a_part_once_against_the_next(monkeypatch):
    # Part 1 repeats s and shares b1 with part 2; part 2 shares b2 with
    # part 3.  The chain check asks about each distinct element of a part
    # once, in entry order, and never about an element of the next part.
    asked = []
    in_closure = MatroidOracle.in_closure

    def recorded(self, x, ys):
        asked.append((x, frozenset(ys)))
        return in_closure(self, x, ys)

    monkeypatch.setattr(MatroidOracle, "in_closure", recorded)
    m = gfp_matroid(2, 3, {"s": (1, 1, 0), "t": (1, 1, 1)})
    s = seq_of(["s", "b1", "s", "b1", "b2", "t", "b3", "b2"])
    parts = [s.with_indices({0, 1, 2}), s.with_indices({3, 4}), s.with_indices({5, 6, 7})]
    assert verify_partition(m, s, None, 3, parts).ok
    assert asked == [("s", frozenset({"b1", "b2"})), ("b1", frozenset({"t", "b3", "b2"}))]


def test_verify_foreign_entries_fail():
    m, s, c, _ = _valid_setup()
    other = seq_of(["b1", "b2", "s", "b1", "s"])
    parts = [other.with_indices({4}), other.with_indices({0, 1})]
    report = verify_partition(m, s, c, 2, parts)
    assert report.failure == "not_subsequence"


def test_verify_without_coloring_skips_rainbow():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b1", "b2"])
    parts = [s.with_indices({0}), s.with_indices({1, 2})]
    assert verify_partition(m, s, None, 2, parts).ok


# ---------------------------------------------------------------------------
# max_rainbow_independent


def test_mri_parallel_entries_single_pick():
    m = VectorMatroidGFp(2, 1, {"p1": (1,), "p2": (1,)})
    s = seq_of(["p1", "p2"])
    c = coloring_of(["u", "v"])
    ri = max_rainbow_independent(m, s, c)
    assert ri.entries == ((0, "p1"),)


def test_mri_takes_whole_basis():
    m = gfp_matroid(2, 3)
    s = seq_of(["b1", "b2", "b3"])
    c = coloring_of(["u", "v", "w"])
    ri = max_rainbow_independent(m, s, c)
    assert ri == s


def test_mri_seed_is_fixpoint():
    m = gfp_matroid(2, 2)
    s = seq_of(["b1", "b2"])
    c = coloring_of(["u", "u"])
    seed = s.with_indices({1})
    assert max_rainbow_independent(m, s, c, seed) == seed


def test_mri_invalid_seeds():
    m = gfp_matroid(2, 2, {"s": (1, 1)})
    s = seq_of(["b1", "b2", "s"])
    c = coloring_of(["u", "u", "v"])
    with pytest.raises(ValueError):
        max_rainbow_independent(m, s, c, s.with_indices({0, 1}))  # same color
    c2 = coloring_of(["u", "v", "w"])
    with pytest.raises(ValueError):
        max_rainbow_independent(m, s, c2, s)  # dependent
    foreign = seq_of(["s"])  # entry (0, "s") does not occur in s
    with pytest.raises(ValueError):
        max_rainbow_independent(m, s, c2, foreign)


# ---------------------------------------------------------------------------
# Each check runs once, and none is skipped.


def _seeded(family, mode, m, r, length, seed):
    profile = "general" if mode == "noncolor" else mode
    inst = gen_random_instance(family, m, r, length, seed, profile)
    return inst.build_matroid(), inst.build_sequence(), inst.build_coloring()


def _run(mode, matroid, seq, coloring, r, stats=None):
    if mode == "noncolor":
        return solve_noncolor(matroid, seq, r, stats=stats)
    solve = solve_general if mode == "general" else solve_special
    return solve(matroid, seq, coloring, r, stats=stats)


@pytest.mark.parametrize("mode", ["general", "noncolor"])
def test_broken_parts_fail_certification(monkeypatch, mode):
    # The general solve certifies only the parts it returns, on the original
    # instance.  Moving an entry of the top part into the bottom part
    # breaks the chain: in a uniform matroid of rank 4, cl(part 2) is part
    # 2 itself.  The bottom part keeps its non-loop, so only the chain
    # check can catch it.
    matroid, seq, coloring = _seeded("uniform", "general", 4, 4, 13, 1)
    solve_parts = solver._special_parts

    def broken(*args):
        parts = solve_parts(*args)
        moved = parts[-1] & -parts[-1]
        parts[0] |= moved
        parts[-1] &= ~moved
        return parts

    monkeypatch.setattr(solver, "_special_parts", broken)
    with pytest.raises(InternalInvariantBroken, match="output failed verification: chain"):
        _run(mode, matroid, seq, coloring, 4)


def test_non_rainbow_parts_fail_certification(monkeypatch):
    # Four colors over rank 3: the general solve pads one coloop.  Adding to
    # the bottom part an entry of the top part that has the bottom entry's
    # color breaks rainbowness.
    matroid, seq, coloring = _seeded("uniform", "general", 3, 3, 7, 1)
    solve_parts = solver._special_parts

    def broken(matroid_, work, *rest):
        # The input's colors, read before the solve.
        colors = list(work.color)
        parts = solve_parts(matroid_, work, *rest)
        color = colors[work.bits(parts[0])[0]]
        twin = sum(
            1 << b
            for b in work.bits(parts[-1])
            if colors[b] == color and work.index[b] in seq.indices
        )
        parts[0] |= twin
        parts[-1] &= ~twin
        return parts

    monkeypatch.setattr(solver, "_special_parts", broken)
    with pytest.raises(InternalInvariantBroken, match="output failed verification: rainbow"):
        solve_general(matroid, seq, coloring, 3)


@pytest.mark.parametrize(
    "mode, family, m, r, length",
    [
        ("special", "vector_gf2", 4, 4, 13),
        ("general", "uniform", 3, 4, 14),
        ("noncolor", "graphic", 2, 5, 9),
        ("special", "uniform", 3, 1, 3),
        ("general", "vector_gf2", 3, 1, 4),
        ("noncolor", "graphic", 3, 1, 4),
    ],
)
def test_each_public_solve_certifies_once(monkeypatch, mode, family, m, r, length):
    counts = {"build_partition": 0, "verify_partition": 0}
    for name in counts:
        real = getattr(solver, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counted)
    matroid, seq, coloring = _seeded(family, mode, m, r, length, 1)
    _run(mode, matroid, seq, coloring, r)
    assert counts == {"build_partition": 1, "verify_partition": 1}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_build_partition_asks_no_closure_question(monkeypatch, family):
    # The chain is certified by verify_partition alone; assembling the
    # parts and reading the non-loop witness from the declared loops needs
    # no closure question.
    solved = []
    for mode in ("special", "general", "noncolor"):
        length = 7 + (3 if mode == "special" else 0)
        matroid, seq, coloring = _seeded(family, mode, 3, 3, length, 1)
        solved.append((matroid, _run(mode, matroid, seq, coloring, 3)))

    def refuse(self, x, ys):
        raise AssertionError(f"build_partition asked about {x!r}")

    monkeypatch.setattr(MatroidOracle, "in_closure", refuse)
    for matroid, partition in solved:
        assert build_partition(matroid, partition.parts) == partition


def test_many_spanning_levels_do_not_grow_the_stack():
    # r = 400 levels of "RI spans, carve it out, solve the rest with r - 1"
    # under a recursion limit of about 100 frames above this one.
    r = 400
    m = UniformMatroid(2, 2)
    s = seq_of(["e0", "e1"] * (r - 1) + ["e0"])
    c = coloring_of(["A", "B"] * (r - 1) + ["A"])
    stats = SolveStats()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        part = solve_special(m, s, c, r, stats=stats)
    finally:
        sys.setrecursionlimit(limit)
    assert len(part.parts) == r
    assert stats.recursion_depth == r
    assert [(d, label) for d, label, _ in stats.events] == [(d, "spanning") for d in range(1, r)]


def test_a_large_uniform_solve_asks_fewer_questions_than_its_rank():
    # Each level's rank is one kernel pass, not a greedy of closure
    # questions over the level's elements, so a solve of rank k = 3,200
    # asks fewer than k questions, and its memo stays small.
    k = 3200
    matroid, seq, coloring = _seeded("uniform", "general", k, 2, k + 1, 1)
    stats = SolveStats()
    partition = solve_general(matroid, seq, coloring, 2, stats=stats)
    assert len(partition.parts) == 2
    assert stats.oracle_calls < k


def test_no_function_of_the_solver_calls_itself():
    # Neither way down (a spanning RI, case a's smaller flat) may be a
    # recursive call, so the stack does not grow with r or the rank.  A
    # call of a module function from anywhere inside another, nested
    # functions included, is an edge; no edge path may lead back.
    tree = ast.parse(inspect.getsource(solver))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callees = {
        name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in functions
        }
        for name, node in functions.items()
    }
    assert "_solve" in callees["_special_parts"]
    acyclic = set()

    def visit(name, stack):
        if name in stack:
            pytest.fail("call cycle: " + " -> ".join(stack[stack.index(name):] + [name]))
        if name not in acyclic:
            for callee in sorted(callees[name]):
                visit(callee, stack + [name])
            acyclic.add(name)

    for name in functions:
        visit(name, [])


@pytest.mark.parametrize("fault", ["drop", "add"])
def test_a_wrong_handover_after_case_c_is_caught(monkeypatch, fault):
    # The chained-advance instance hands a non-empty exchange map to the
    # second pass, which scans the map's keys as the entries outside cl(I).
    # Dropping an entry of it hides an entry outside cl(next I) from every
    # later scan, so the cycle takes case a with that entry outside cl(I),
    # and the smaller flat's instance fails its profile check.  Adding an
    # old C_K entry (inside cl(I) by construction) with another entry's
    # exchange trips rule 4.  Entries are bit positions and C_K is a mask.
    advance = solver._case_advance
    caught = {
        "drop": "recursion lost the color profile",
        "add": "rules: exchange does not contain its entry",
    }

    def faulty(matroid, work, ri, i_mask, aug, outside_i, c_k):
        c_next, i_next, aug_next = advance(matroid, work, ri, i_mask, aug, outside_i, c_k)
        if fault == "drop":
            del aug_next[min(aug_next)]
        else:
            aug_next[(c_k & -c_k).bit_length() - 1] = next(iter(aug_next.values()))
        return c_next, i_next, aug_next

    monkeypatch.setattr(solver, "_case_advance", faulty)
    m = VectorMatroidGFp(2, 3, {
        "g0": (0, 1, 0), "g1": (1, 1, 0), "g2": (0, 0, 1),
        "g3": (1, 1, 0), "g4": (1, 0, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3", "g4"])
    c = coloring_of(["c1", "c2", "c1", "c3", "c2"])
    with pytest.raises(InternalInvariantBroken, match=caught[fault]):
        solve_special(m, s, c, 2)


def _solves(source):
    """(solve, copy) pairs: a solve to run and a separately built copy of its matroid.

    ``cheap`` and ``rational`` are the golden rows.  ``zoo`` is colorless
    solves of drawn sequences, which repeat elements, over every
    ``family_zoo`` matroid of rank 2 and 3.
    """
    if source != "zoo":
        for _, *row in (cheap_rows if source == "cheap" else rational_rows)():
            yield partial(solve_row, *row, SolveStats()), row_instance(*row).build_matroid()
        return
    rng = random.Random(5)
    for m in (2, 3):
        for name in sorted(family_zoo(m)):
            for _ in range(8):
                matroid, copy = (family_zoo(m)[name][0] for _ in range(2))
                r = rng.randint(2, 4)
                seq = seq_of(rng.choices(matroid.ground, k=m * (r - 1) + 1 + rng.randint(0, 3)))
                yield partial(solve_noncolor, matroid, seq, r), copy


def _judged(monkeypatch, source, wrappers):
    """Run every solve of ``source`` with the engine's functions wrapped.

    ``wrappers`` maps a function name of the solver to a wrapper factory,
    called with the original function and a ``judge``: ``judge(matroid)``
    is the separately built copy of the solve's matroid, wrapped in
    ``_Padded`` with the same pads for a padded solve, so the checks ask
    their own questions and leave the solve's counts alone.
    """
    current = {}

    def judge(matroid):
        if isinstance(matroid, solver._Padded):
            return solver._Padded(current["copy"], matroid.pads)
        return current["copy"]

    for name, wrap in wrappers.items():
        monkeypatch.setattr(solver, name, wrap(getattr(solver, name), judge))
    for solve, copy in _solves(source):
        current["copy"] = copy
        solve()


SOURCES = pytest.mark.parametrize("source", ["cheap", "rational", "zoo"])


@SOURCES
def test_case_c_keys_the_exchange_map_by_the_entries_outside_the_new_closure(monkeypatch, source):
    # The next pass scans the map's keys as the entries of C_K outside
    # cl(next I), and no rule check compares them with a scan.  So after
    # every case c, the separate copy is asked about each entry of the new
    # C_K.  Case c asks about each element of a new class once.
    advances = 0

    def wrap(advance, judge):
        def checked(matroid, work, *rest):
            nonlocal advances
            c_next, i_next, aug_next = advance(matroid, work, *rest)
            elems = work.elements(i_next)
            outside = {b for b in work.bits(c_next) if not judge(matroid).covers(work.element[b], elems)}
            assert set(aug_next) == outside
            advances += 1
            return c_next, i_next, aug_next
        return checked

    _judged(monkeypatch, source, {"_case_advance": wrap})
    assert advances > 0


@SOURCES
def test_case_c_composes_each_exchange_from_the_first_entry_outside_cl_reduced(monkeypatch, source):
    # Case c takes the witness for rr from the greedy deletion's answers
    # where they settle it: the first entry of the exchange map's domain
    # outside cl(next I − rr).  The separate copy finds that entry by a
    # full scan, and each new exchange must be composed from its exchange.
    witnesses = 0

    def wrap(advance, judge):
        def checked(matroid, work, ri, i_mask, aug, outside_i, c_k):
            nonlocal witnesses
            c_next, i_next, aug_next = advance(matroid, work, ri, i_mask, aug, outside_i, c_k)
            elems, element = work.elements(i_next), work.element
            for rr in work.bits(i_next & ~i_mask):
                reduced = elems - {element[rr]}
                witness = next(q for q in outside_i if not judge(matroid).covers(element[q], reduced))
                exchange, gained = aug[witness]
                base = i_next & ~(1 << rr) & ~i_mask | exchange
                for p in work.bits(work.classes[work.color[rr]]):
                    if p in aug_next:
                        assert aug_next[p] == (base | 1 << p, gained)
                witnesses += 1
            return c_next, i_next, aug_next
        return checked

    _judged(monkeypatch, source, {"_case_advance": wrap})
    assert witnesses > 0


@SOURCES
def test_every_element_carried_as_inside_lies_in_cl_ri(monkeypatch, source):
    # The extension returns the elements it found inside the closure of its
    # growing set, and the cycle's escape scan skips them and adds those it
    # finds inside cl(RI).  The separate copy checks each against cl(RI):
    # after the extension, and after each cycle run, against the RI that
    # run was given.
    carried = 0

    def check(matroid, judge, ri_elems, inside):
        nonlocal carried
        assert all(judge(matroid).covers(x, ri_elems) for x in inside)
        carried += len(inside)

    def wrap_extend(extend, judge):
        def checked(matroid, work, seq, seed):
            ri, inside = extend(matroid, work, seq, seed)
            check(matroid, judge, work.elements(ri), inside)
            return ri, inside
        return checked

    def wrap_cycle(cycle, judge):
        def checked(matroid, work, m, seq, ri, inside, depth, stats):
            result = cycle(matroid, work, m, seq, ri, inside, depth, stats)
            check(matroid, judge, work.elements(ri), inside)
            return result
        return checked

    _judged(monkeypatch, source, {"_extend_rainbow": wrap_extend, "_run_cycle": wrap_cycle})
    assert carried > 0


class _SaysAllInside:
    """A matroid that puts every element inside the closure of one set."""

    def __init__(self, matroid, elements):
        self._matroid, self._elements = matroid, elements

    def covers(self, x, ys):
        return ys == self._elements or self._matroid.covers(x, ys)

    def __getattr__(self, name):
        return getattr(self._matroid, name)


@pytest.mark.parametrize(
    "fault, instance, caught",
    [
        # Case b grows RI with an eligible entry other than the escaping
        # one, so the grown seed may be dependent: no check asks.  A
        # dependent seed ends in a broken chain or in a part without a
        # non-loop.
        ("other_entry", ("general", "graphic", 4, 3, 9, 5), "output failed verification: chain"),
        ("other_entry", ("noncolor", "graphic", 3, 3, 7, 3), "first part has no non-loop entry"),
        # Case b swaps in another entry's exchange for the escaping entry's,
        # so cl(grown) need not be cl(RI + p): no check asks.
        ("other_exchange", ("general", "graphic", 4, 3, 9, 5), "output failed verification: chain"),
        # Case c composes each new exchange from the wrong old one, so an
        # exchange without its entry need not span cl(I): no check asks.
        ("composed_wrong", ("special", "uniform", 5, 5, 26, 1), "output failed verification: chain"),
        # Case c runs although an entry escapes cl(RI).  No subset of RI
        # spans that entry, so next I is RI itself, and the next case c
        # cannot grow I; no check asks whether RI spans C_K.
        ("escape_unseen", ("special", "uniform", 3, 4, 14, 3), "I did not strictly grow"),
    ],
)
def test_a_fault_that_no_closure_check_asks_about_is_caught(monkeypatch, fault, instance, caught):
    grow, advance, cycle = solver._case_grow, solver._case_advance, solver._run_cycle

    def grow_with_other_entry(work, seq, ri, i_mask, aug, p):
        return grow(work, seq, ri, i_mask, aug, next((q for q in aug if q != p), p))

    def grow_with_other_exchange(work, seq, ri, i_mask, aug, p):
        other = aug[next((q for q in aug if q != p), p)]
        return grow(work, seq, ri, i_mask, {**aug, p: other}, p)

    def advance_with_rotated_exchanges(matroid, work, ri, i_mask, aug, outside_i, c_k):
        keys = list(aug)
        rotated = {q: aug[keys[(n + 1) % len(keys)]] for n, q in enumerate(keys)}
        return advance(matroid, work, ri, i_mask, rotated, outside_i, c_k)

    def cycle_blind_to_escapes(matroid, work, m, seq, ri, inside, depth, stats):
        return cycle(_SaysAllInside(matroid, work.elements(ri)), work, m, seq, ri, inside, depth, stats)

    def advance_with_the_true_matroid(matroid, *rest):
        return advance(matroid._matroid, *rest)

    patches = {
        "other_entry": {"_case_grow": grow_with_other_entry},
        "other_exchange": {"_case_grow": grow_with_other_exchange},
        "composed_wrong": {"_case_advance": advance_with_rotated_exchanges},
        "escape_unseen": {
            "_run_cycle": cycle_blind_to_escapes,
            "_case_advance": advance_with_the_true_matroid,
        },
    }
    mode, family, m, r, length, seed = instance
    matroid, seq, coloring = _seeded(family, mode, m, r, length, seed)
    _run(mode, matroid, seq, coloring, r)
    for name, faulty in patches[fault].items():
        monkeypatch.setattr(solver, name, faulty)
    matroid, seq, coloring = _seeded(family, mode, m, r, length, seed)
    with pytest.raises(InternalInvariantBroken, match=caught):
        _run(mode, matroid, seq, coloring, r)


def test_case_a_leaves_the_callers_colors(monkeypatch):
    # Case a merges two colors of the smaller flat's instance into a fresh
    # z-color.  It does so on its own copy of the bit table, so the table
    # that _special_parts was given still holds the input's colors when it
    # returns, and a mask mapped back through it keeps its input colors.
    special_parts = solver._special_parts
    kept = []

    def watched(matroid, work, r, stats):
        colors = list(work.color)
        parts = special_parts(matroid, work, r, stats)
        kept.append(work.color == colors)
        return parts

    monkeypatch.setattr(solver, "_special_parts", watched)
    flats = 0
    for seed in range(1, 40):
        matroid, seq, coloring = _seeded("uniform", "general", 3, 3, 7, seed)
        stats = SolveStats()
        solve_general(matroid, seq, coloring, 3, stats=stats)
        flats += any(label == "case_a" for _, label, _ in stats.events)
    assert flats >= 3
    assert kept == [True] * 39


@pytest.mark.parametrize("mode", ["special", "general", "noncolor"])
def test_no_member_question_reaches_the_oracle(monkeypatch, mode):
    # x in Y answers "is x in cl(Y)?" in every matroid, so neither the
    # engine nor certification may put such a question to the oracle.  The
    # general and noncolor modes pad with coloops, so their questions pass
    # through the direct sum as well.
    asked = []
    in_closure = MatroidOracle.in_closure

    def recorded(self, x, ys):
        if x in frozenset(ys):
            asked.append((type(self).__name__, x, ys))
        return in_closure(self, x, ys)

    monkeypatch.setattr(MatroidOracle, "in_closure", recorded)
    labels = set()
    for family in GENERATOR_FAMILIES:
        for (m, r, extra), seed in product(((3, 3, 0), (4, 4, 8), (2, 5, 3), (5, 5, 0)), (1, 2, 3)):
            length = m * (r - 1) + 1 + (r if mode == "special" else 0) + extra
            matroid, seq, coloring = _seeded(family, mode, m, r, length, seed)
            stats = SolveStats()
            partition = _run(mode, matroid, seq, coloring, r, stats)
            labels.update(label for _, label, _ in stats.events)
            coloring = None if mode == "noncolor" else coloring
            assert verify_partition(matroid, seq, coloring, r, partition.parts).ok
            build_partition(matroid, partition.parts)
    assert labels >= {"case_a", "case_b", "case_c"}
    assert asked == []


@pytest.mark.parametrize("mode", ["general", "noncolor"])
def test_no_question_about_a_known_coloop_reaches_the_oracle(monkeypatch, mode):
    # A coloop c lies in cl(Y) only when c is in Y, so neither the matroid's
    # own coloops nor the pads that solve_general adjoins are ever the
    # subject of a question, in the engine or in certification, and no pad
    # reaches the matroid inside a question's set either.
    asked = []
    pads = set()
    counts = []
    in_closure = MatroidOracle.in_closure
    view = solver._Padded

    def recorded(self, x, ys):
        asked.append(x in self.known_coloops or x in pads or not pads.isdisjoint(ys))
        return in_closure(self, x, ys)

    def recorded_view(base, new_pads):
        pads.update(new_pads)
        counts.append(len(new_pads))
        return view(base, new_pads)

    monkeypatch.setattr(MatroidOracle, "in_closure", recorded)
    monkeypatch.setattr(solver, "_Padded", recorded_view)
    labels = set()
    for family in GENERATOR_FAMILIES:
        for (m, r, extra), seed in product(((3, 3, 4), (2, 5, 3), (3, 4, 0)), (1, 2)):
            matroid, seq, coloring = _seeded(family, mode, m, r, m * (r - 1) + 1 + extra, seed)
            stats = SolveStats()
            partition = _run(mode, matroid, seq, coloring, r, stats)
            labels.update(label for _, label, _ in stats.events)
            coloring = None if mode == "noncolor" else coloring
            assert verify_partition(matroid, seq, coloring, r, partition.parts).ok
    assert labels >= {"case_a", "case_b", "case_c"}
    assert any(counts) and (mode == "general" or all(counts))
    assert asked and not any(asked)


def test_a_padded_solve_builds_no_oracle(monkeypatch):
    # The pads live in a view of the matroid, so a padded solve copies no
    # ground: it constructs no MatroidOracle, whatever the ground's size.
    matroid = UniformMatroid(3, 1000)
    seq = seq_of([f"e{i}" for i in range(0, 28, 4)])
    built = []
    init = MatroidOracle.__init__

    def recorded(self, ground):
        built.append(type(self).__name__)
        init(self, ground)

    monkeypatch.setattr(MatroidOracle, "__init__", recorded)
    stats = SolveStats()
    partition = solve_noncolor(matroid, seq, 3, stats=stats)
    assert verify_partition(matroid, seq, None, 3, partition.parts).ok
    assert stats.events  # 7 colors over rank 3: four pads, and the engine ran
    assert built == []


def test_padding_needs_no_fresh_names():
    # The pads are sentinels, so a ground may hold any name, x1 included.
    m = UniformMatroid(2, 4, ids=("x1", "x2", "_x1", "_x2"))
    s = seq_of(["x1", "x2", "_x1", "_x2"])
    part = solve_noncolor(m, s, 2)
    assert verify_partition(m, s, None, 2, part.parts).ok
    assert all(p.set_image <= m.ground_set for p in part.parts)
