"""The constructive solvers and the independent partition verifier."""

import inspect
import sys
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
    SeedInvalid,
    SolveStats,
    UniformMatroid,
    VectorMatroidGFp,
    brute_force_solve,
    build_partition,
    gen_random_instance,
    max_rainbow_independent,
    solve_general,
    solve_noncolor,
    solve_special,
    verify_partition,
)

from matroid_tverberg import solver
from matroid_tverberg.instances import GENERATOR_FAMILIES
from conftest import gfp_matroid


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
    part = solve_special(m, s, c, 2, stats=stats, check=True)
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
    # input check (5 entries) nor the certificate's witness asks the oracle;
    # the one call left is the certificate's independent-subset scan.
    inst = gen_random_instance("vector_gf2", 3, 1, 5, 1, "general")
    stats = SolveStats()
    part = solve_noncolor(inst.build_matroid(), inst.build_sequence(), 1, stats=stats)
    assert part.part_indices() == ((0,),)
    assert part.certificate.witness_nonloop == (0, "g0")
    assert stats.oracle_calls == 1


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


def test_verify_success_asks_only_the_chain_questions():
    # One rank scan of part 1 ({b1}) and one membership of b1 in cl(part 2);
    # strictness reads the matroid's declared loops.
    m, s, c, parts = _valid_setup()
    before = m.oracle_calls
    assert verify_partition(m, s, c, 2, parts).ok
    assert m.oracle_calls - before == 2


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
    with pytest.raises(SeedInvalid):
        max_rainbow_independent(m, s, c, s.with_indices({0, 1}))  # same color
    c2 = coloring_of(["u", "v", "w"])
    with pytest.raises(SeedInvalid):
        max_rainbow_independent(m, s, c2, s)  # dependent
    foreign = seq_of(["s"])  # entry (0, "s") does not occur in s
    with pytest.raises(SeedInvalid):
        max_rainbow_independent(m, s, c2, foreign)


# ---------------------------------------------------------------------------
# Each check runs once, and none is skipped.


def _seeded(family, mode, m, r, length, seed):
    profile = "general" if mode == "noncolor" else mode
    inst = gen_random_instance(family, m, r, length, seed, profile)
    return inst.build_matroid(), inst.build_sequence(), inst.build_coloring()


def _run(mode, matroid, seq, coloring, r, stats=None, check=True):
    if mode == "noncolor":
        return solve_noncolor(matroid, seq, r, stats=stats, check=check)
    solve = solve_general if mode == "general" else solve_special
    return solve(matroid, seq, coloring, r, stats=stats, check=check)


@pytest.mark.parametrize("mode", ["general", "noncolor"])
def test_broken_parts_fail_certification(monkeypatch, mode):
    # The general solve certifies only the parts it returns, on the original
    # instance.  Moving an entry of the top part into the bottom part
    # breaks the chain: in a uniform matroid of rank 4, cl(part 2) is part
    # 2 itself.  The bottom part keeps its non-loop, so only the
    # verification can catch it.
    matroid, seq, coloring = _seeded("uniform", "general", 4, 4, 13, 1)
    solve_parts = solver._special_parts

    def broken(*args):
        parts = solve_parts(*args)
        moved = parts[-1].take_first(1)
        parts[0] = parts[0].union(moved)
        parts[-1] = parts[-1].difference(moved)
        return parts

    monkeypatch.setattr(solver, "_special_parts", broken)
    with pytest.raises(InternalInvariantBroken, match="output failed verification"):
        _run(mode, matroid, seq, coloring, 4)
    partition = _run(mode, matroid, seq, coloring, 4, check=False)
    report = verify_partition(matroid, seq, coloring if mode == "general" else None, 4, partition)
    assert report.failure == "chain"


def test_non_rainbow_parts_fail_certification(monkeypatch):
    # Four colors over rank 3: the general solve pads one coloop.  Adding to
    # the bottom part an entry of the top part that has the bottom entry's
    # color breaks rainbowness.
    matroid, seq, coloring = _seeded("uniform", "general", 3, 3, 7, 1)
    solve_parts = solver._special_parts

    def broken(matroid_, seq_, coloring_, *rest):
        parts = solve_parts(matroid_, seq_, coloring_, *rest)
        color = coloring_.of(parts[0].entries[0])
        twin = parts[-1].filter(lambda e: coloring_.of(e) == color and e[0] in seq.indices)
        parts[0] = parts[0].union(twin)
        parts[-1] = parts[-1].difference(twin)
        return parts

    monkeypatch.setattr(solver, "_special_parts", broken)
    with pytest.raises(InternalInvariantBroken, match="output failed verification: rainbow"):
        solve_general(matroid, seq, coloring, 3, check=True)


@pytest.mark.parametrize(
    "mode, family, m, r, length",
    [
        ("special", "vector_gf2", 4, 4, 13),
        ("general", "uniform", 3, 4, 14),
        ("noncolor", "graphic", 2, 5, 9),
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
    _run(mode, matroid, seq, coloring, r, check=True)
    assert counts == {"build_partition": 1, "verify_partition": 1}
    _run(mode, matroid, seq, coloring, r, check=False)
    assert counts == {"build_partition": 2, "verify_partition": 1}


@pytest.mark.parametrize("mode", ["special", "general", "noncolor"])
def test_checks_do_not_change_partitions_or_events(mode):
    for family in ("uniform", "graphic", "vector_gf2", "vector_rational"):
        for m, r, extra in ((3, 3, 0), (4, 4, 8), (2, 5, 3)):
            for seed in range(3):
                length = m * (r - 1) + 1 + (r if mode == "special" else 0) + extra
                runs = []
                for check in (True, False):
                    matroid, seq, coloring = _seeded(family, mode, m, r, length, seed)
                    stats = SolveStats()
                    partition = _run(mode, matroid, seq, coloring, r, stats, check)
                    events = [(depth, label) for depth, label, _ in stats.events]
                    runs.append((partition.part_indices(), events, stats.recursion_depth))
                assert runs[0] == runs[1], (family, m, r, seed)


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
        part = solve_special(m, s, c, r, stats=stats, check=True)
    finally:
        sys.setrecursionlimit(limit)
    assert len(part.parts) == r
    assert stats.recursion_depth == r
    assert [(d, label) for d, label, _ in stats.events] == [(d, "spanning") for d in range(1, r)]


@pytest.mark.parametrize("fault", ["drop", "add"])
def test_a_wrong_handover_after_case_c_is_caught(monkeypatch, fault):
    # The chained-advance instance hands a non-empty list to the second
    # pass.  Dropping an entry of it, or adding an old C_K entry (inside
    # cl(I) by construction), must trip the rule check although the
    # exchange map itself is intact.
    advance = solver._case_advance

    def faulty(view, seq, coloring, ri, k_set, i_seq, aug, c_k, check):
        k_next, i_next, aug_next, outside = advance(view, seq, coloring, ri, k_set, i_seq, aug, c_k, check)
        if fault == "drop":
            outside = outside[1:]
        else:
            outside = sorted(outside + [c_k.entries[0]])
        return k_next, i_next, aug_next, outside

    monkeypatch.setattr(solver, "_case_advance", faulty)
    m = VectorMatroidGFp(2, 3, {
        "g0": (0, 1, 0), "g1": (1, 1, 0), "g2": (0, 0, 1),
        "g3": (1, 1, 0), "g4": (1, 0, 0),
    })
    s = seq_of(["g0", "g1", "g2", "g3", "g4"])
    c = coloring_of(["c1", "c2", "c1", "c3", "c2"])
    with pytest.raises(InternalInvariantBroken, match="outside cl\\(I\\) mismatch"):
        solve_special(m, s, c, 2, check=True)


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
            for check in (True, False):
                matroid, seq, coloring = _seeded(family, mode, m, r, length, seed)
                stats = SolveStats()
                partition = _run(mode, matroid, seq, coloring, r, stats, check)
                labels.update(label for _, label, _ in stats.events)
                coloring = None if mode == "noncolor" else coloring
                assert verify_partition(matroid, seq, coloring, r, partition.parts).ok
                build_partition(matroid, partition.parts)
    assert labels >= {"case_a", "case_b", "case_c"}
    assert asked == []


@pytest.mark.parametrize("mode", ["general", "noncolor"])
def test_no_question_about_a_known_coloop_reaches_the_oracle(monkeypatch, mode):
    # A coloop c lies in cl(Y) only when c is in Y, so the padding coloops
    # that solve_general adds are never the subject of a question, neither
    # in the engine nor in certification.
    asked = []
    padded = []
    in_closure = MatroidOracle.in_closure
    pad = solver.add_coloops

    def recorded(self, x, ys):
        asked.append(x in self.known_coloops)
        return in_closure(self, x, ys)

    def recorded_pad(matroid, count):
        padded.append(count)
        return pad(matroid, count)

    monkeypatch.setattr(MatroidOracle, "in_closure", recorded)
    monkeypatch.setattr(solver, "add_coloops", recorded_pad)
    labels = set()
    for family in GENERATOR_FAMILIES:
        for (m, r, extra), seed in product(((3, 3, 4), (2, 5, 3), (3, 4, 0)), (1, 2)):
            for check in (True, False):
                matroid, seq, coloring = _seeded(family, mode, m, r, m * (r - 1) + 1 + extra, seed)
                stats = SolveStats()
                partition = _run(mode, matroid, seq, coloring, r, stats, check)
                labels.update(label for _, label, _ in stats.events)
                coloring = None if mode == "noncolor" else coloring
                assert verify_partition(matroid, seq, coloring, r, partition.parts).ok
    assert labels >= {"case_a", "case_b", "case_c"}
    assert any(padded) and (mode == "general" or all(padded))
    assert asked and not any(asked)
