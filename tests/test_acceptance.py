"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The corpus (criteria 1, 2, 5, 6) is generated once per session.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from matroid_tverberg import (
    AffineMatroid,
    Coloring,
    IndexedSequence,
    PreconditionViolated,
    SolveStats,
    UniformMatroid,
    VectorMatroidGFp,
    brute_force_solve,
    check_intersection_lemma,
    check_tightness,
    closure_intersection_agrees,
    gen_random_instance,
    rota_check,
    solve_general,
    solve_special,
    verify_partition,
)
from matroid_tverberg.instances import GENERATOR_FAMILIES
from matroid_tverberg.kernels import gfp_rank

from conftest import family_zoo

SEEDS_PER_COMBO = 4
MAX_M = 4
MAX_R = 4
MAX_LEN = 12


def _length_floor(profile, m, r):
    if profile == "general":
        return m * (r - 1) + 1
    return r + (m - 1) * max(r - 1, 1)


@dataclass
class CorpusRun:
    family: str
    profile: str
    m: int
    r: int
    length: int
    seed: int
    instance: object
    stats: SolveStats


@pytest.fixture(scope="module")
def corpus():
    """Solve >= 500 seeded instances per family and profile; keep the stats."""
    runs = []
    start = time.perf_counter()
    for family in GENERATOR_FAMILIES:
        for profile in ("general", "special"):
            for m in range(1, MAX_M + 1):
                for r in range(1, MAX_R + 1):
                    for length in range(_length_floor(profile, m, r), MAX_LEN + 1):
                        for seed_idx in range(SEEDS_PER_COMBO):
                            seed = seed_idx * 100000 + m * 10000 + r * 1000 + length
                            inst = gen_random_instance(family, m, r, length, seed, profile)
                            oracle = inst.build_matroid()
                            seq = inst.build_sequence()
                            coloring = inst.build_coloring()
                            stats = SolveStats()
                            solver = solve_general if profile == "general" else solve_special
                            partition = solver(oracle, seq, coloring, r, stats=stats)
                            report = verify_partition(oracle, seq, coloring, r, partition.parts)
                            assert report.ok, (family, profile, m, r, length, seed, report)
                            runs.append(
                                CorpusRun(family, profile, m, r, length, seed, inst, stats)
                            )
    wall = time.perf_counter() - start
    return runs, wall


def test_criterion_1_existence_suite(corpus):
    runs, wall = corpus
    per_bucket = {}
    for run in runs:
        key = (run.family, run.profile)
        per_bucket[key] = per_bucket.get(key, 0) + 1
    assert set(per_bucket) == {(f, p) for f in GENERATOR_FAMILIES for p in ("general", "special")}
    low = min(per_bucket.values())
    assert low >= 500, per_bucket
    assert wall < 60.0, f"corpus took {wall:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: {len(runs)} instances "
        f"(>= {low} per family/profile) solved and verified in {wall:.1f}s"
    )


def test_criterion_2_oracle_agreement(corpus):
    runs, _ = corpus
    small = [run for run in runs if run.length <= 10]
    assert small, "corpus has no instances of length <= 10"
    contradictions = 0
    checked = 0
    for run in small:
        oracle = run.instance.build_matroid()
        seq = run.instance.build_sequence()
        coloring = run.instance.build_coloring()
        witness = brute_force_solve(oracle, seq, coloring, run.r)
        checked += 1
        if witness is None:
            contradictions += 1  # the solver succeeded on this instance
    assert contradictions == 0
    # The one-point-too-many family: exhaustive search proves nonexistence
    # and the solver must refuse the instance rather than contradict it.
    refused = 0
    for n in (4, 5, 6):
        points = {f"p{i}": (Fraction(i),) for i in range(1, n + 2)}
        oracle = AffineMatroid("rational", 1, points)
        seq = IndexedSequence.from_elements([f"p{i}" for i in range(1, n + 2)])
        coloring = Coloring({i: ("red" if i < n else "blue") for i in range(n + 1)})
        assert brute_force_solve(oracle, seq, coloring, 3) is None
        with pytest.raises(PreconditionViolated):
            solve_general(oracle, seq, coloring, 3)
        refused += 1
    print(
        f"\nACCEPTANCE 2 PASS: brute force agreed on {checked} instances of length <= 10; "
        f"{refused} overfull-color instances refused with no partition; 0 contradictions"
    )


def test_criterion_3_tightness():
    checked = 0
    start = time.perf_counter()
    for r in (2, 3, 4):
        for m in range(1, 13):
            if m * (r - 1) > 12:
                continue
            # Exact-field oracles get expensive at high rank; the cheap
            # set-based families cover the full envelope.
            names = None if m <= 4 else ("uniform", "graphic")
            for name, (matroid, basis) in family_zoo(m).items():
                if names is not None and name not in names:
                    continue
                assert check_tightness(matroid, basis, r), (name, m, r)
                checked += 1
                if m >= 2:
                    # a second basis of the same matroid
                    alt = tuple(reversed(basis))
                    assert check_tightness(matroid, alt, r), (name, m, r, "reversed")
                    checked += 1
    wall = time.perf_counter() - start
    print(f"\nACCEPTANCE 3 PASS: {checked} (family, basis, r) tightness checks in {wall:.1f}s")


def test_criterion_4_intersection_lemma():
    rng = random.Random(20240)
    samples = 0
    for m in (2, 3, 4):
        for name, (matroid, basis) in family_zoo(m).items():
            bases = [basis, tuple(reversed(basis))]
            for b in bases:
                for _ in range(28):
                    u = frozenset(rng.sample(b, rng.randrange(0, m + 1)))
                    v = frozenset(rng.sample(b, rng.randrange(0, m + 1)))
                    assert check_intersection_lemma(matroid, b, u, v), (name, b, u, v)
                    samples += 1
    assert samples >= 1000
    # Negative control: collinear affine points are not inside any common
    # basis and the law genuinely fails for them.
    line = AffineMatroid("rational", 1, {"a": (Fraction(0),), "b": (Fraction(1),), "c": (Fraction(2),)})
    assert not closure_intersection_agrees(line, {"a", "b"}, {"a", "c"})
    print(
        f"\nACCEPTANCE 4 PASS: closure-intersection law held on {samples} sampled (B, U, V); "
        "non-basis negative control failed as expected"
    )


def bench_rows(rank, r_values):
    """Solve the minimum-length exact-profile uniform instance per r.

    The sequence holds m(r-1)+1 distinct uniform elements, colored with the
    minimum counts (r of the first color, r-1 of each other), which is the
    tightest length the profile admits.
    """
    rows = []
    for r in r_values:
        length = rank * (r - 1) + 1
        oracle = UniformMatroid(rank, length)
        seq = IndexedSequence.from_elements(oracle.ground)
        assignment = {}
        idx = 0
        for color_pos in range(rank):
            quota = r if color_pos == 0 else r - 1
            for _ in range(quota):
                assignment[idx] = f"c{color_pos + 1}"
                idx += 1
        coloring = Coloring(assignment)
        stats = SolveStats()
        solve_special(oracle, seq, coloring, r, stats=stats)
        rows.append(
            {
                "family": "uniform",
                "m": rank,
                "r": r,
                "len": length,
                "oracle_calls": stats.oracle_calls,
                "iterations": stats.cycle_iterations,
                "restarts": stats.restarts,
                "wall_ms": round(stats.wall_time * 1000.0, 3),
            }
        )
    return rows


def test_criterion_5_complexity(corpus):
    runs, _ = corpus
    # Per-level bounds are asserted inside the solver on every run (any
    # violation raises); report the observed maxima for the record.
    max_iter = max(run.stats.max_cycle_iterations for run in runs)
    max_restarts = max(run.stats.max_restarts_per_level for run in runs)
    max_depth = max(run.stats.recursion_depth for run in runs)
    start = time.perf_counter()
    rows = bench_rows(5, range(2, 51))
    wall = time.perf_counter() - start
    assert wall < 300.0, f"bench sweep took {wall:.1f}s"
    xs = np.array([row["len"] for row in rows], dtype=float)
    ys = np.array([row["oracle_calls"] for row in rows], dtype=float)
    coeffs = np.polyfit(xs, ys, 4)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.99, r2
    print(
        f"\nACCEPTANCE 5 PASS: cycle bounds held on the corpus "
        f"(max iterations {max_iter}, max restarts/level {max_restarts}, max depth {max_depth}); "
        f"uniform sweep m=5, r=2..50 in {wall:.1f}s, degree-4 fit R^2 = {r2:.6f}"
    )


def test_criterion_6_runtime_invariants(corpus):
    runs, _ = corpus
    # Every solve checks the replacement rules; any violated rule raises
    # InternalInvariantBroken and would have failed the fixture.
    total_checks = sum(run.stats.invariant_checks for run in runs)
    cycles_run = sum(1 for run in runs if run.stats.cycle_iterations > 0)
    assert total_checks > 0
    assert cycles_run > 0
    print(
        f"\nACCEPTANCE 6 PASS: {total_checks} replacement-rule checks across "
        f"{cycles_run} cycle-running solves, zero violations"
    )


def test_criterion_7_gf2_affine_line():
    oracle = AffineMatroid(2, 1, {"o1": (0,), "o2": (0,), "o3": (0,), "i1": (1,)})
    seq = IndexedSequence.from_elements(["o1", "o2", "o3", "i1"])
    coloring = Coloring({0: "red", 1: "red", 2: "red", 3: "blue"})
    # Three entries of the first color although r = 2: the cap is violated...
    with pytest.raises(PreconditionViolated):
        solve_general(oracle, seq, coloring, 2)
    # ...yet a partition exists, so the cap is not necessary in this matroid.
    witness = brute_force_solve(oracle, seq, coloring, 2)
    assert witness is not None
    assert verify_partition(oracle, seq, coloring, 2, witness.parts).ok
    print(
        "\nACCEPTANCE 7 PASS: binary affine line with 3 > r = 2 first-color entries "
        f"still partitions: parts {witness.part_indices()}"
    )


def test_criterion_8_rota_witnesses():
    rng = random.Random(777)
    worst = 0.0
    for trial in range(100):
        m = rng.choice((1, 2, 3))
        p = rng.choice((2, 3))
        elements = {}
        bases = []
        for bi in range(m):
            while True:
                rows = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
                if gfp_rank(np.array(rows, dtype=np.int64), p) == m:
                    break
            ids = []
            for ei, row in enumerate(rows):
                eid = f"b{bi}_{ei}"
                elements[eid] = tuple(row)
                ids.append(eid)
            bases.append(tuple(ids))
        matroid = VectorMatroidGFp(p, m, elements)
        start = time.perf_counter()
        witness = rota_check(matroid, bases)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert witness is not None, (trial, p, m)
        assert elapsed < 1.0, (trial, p, m, elapsed)
        for part in witness.parts:
            assert matroid.rank(part.set_image) == m
    print(f"\nACCEPTANCE 8 PASS: 100 rainbow-basis repartitions found, worst case {worst * 1000:.0f}ms")
