"""Pinned solver output on seeded rational and affine instances.

Each row is ``gen_random_instance(family, m, m, length, 1, profile)`` with m
from 3 to 8, at the shortest length the profile allows and at 2m entries
more, solved with runtime checks on.  The longer general instances run the
replacement cycle (cases b and c).  A kernel change must leave every part
and every ``oracle_calls`` count exactly as recorded here: the solver is
deterministic given the oracle's answers, and the count does not depend on
the hash seed.
"""

import pytest

from matroid_tverberg import SolveStats, gen_random_instance, solve_general, solve_special

# (family, profile, m = r, length, oracle_calls, parts as "i j .. | k .. | ..")
GOLDEN = [
    ("vector_rational", "general", 3, 7, 32,
     "6 | 2 4 5 | 0 1 3"),
    ("vector_rational", "general", 3, 13, 35,
     "6 | 3 4 5 | 0 1 2"),
    ("vector_rational", "general", 4, 13, 70,
     "12 | 8 9 10 11 | 3 5 6 7 | 0 1 2 4"),
    ("vector_rational", "general", 4, 21, 138,
     "8 | 2 10 11 12 | 5 6 7 9 | 0 1 3 4"),
    ("vector_rational", "general", 5, 21, 127,
     "20 | 14 15 17 18 19 | 2 11 12 13 16 | 1 5 8 9 10 | 0 3 4 6 7"),
    ("vector_rational", "general", 5, 31, 271,
     "19 | 4 15 16 18 20 | 10 11 12 13 17 | 3 7 8 9 14 | 0 1 2 5 6"),
    ("vector_rational", "general", 6, 31, 206,
     "30 | 22 24 25 27 28 29 | 12 16 18 21 23 26 | 7 10 11 15 19 20 | 4 6 8 9 13 17 | 0 1 2 3 5 14"),
    ("vector_rational", "general", 6, 43, 429,
     "30 | 17 25 26 27 28 29 | 10 18 20 21 22 24 | 6 11 15 16 19 23 | 3 5 8 12 13 14 | 0 1 2 4 7 9"),
    ("vector_rational", "general", 7, 43, 310,
     "40 | 31 32 34 36 39 41 42 | 25 29 30 33 35 37 38 | 17 20 21 22 26 27 28 | 6 10 15 16 18 19 24 | 3 5 7 12 13 14 23 | 0 1 2 4 8 9 11"),
    ("vector_rational", "general", 7, 57, 630,
     "42 | 32 33 35 38 39 40 41 | 20 24 28 31 34 36 37 | 14 19 25 26 27 29 30 | 5 10 15 16 17 21 22 | 4 8 9 11 12 13 23 | 0 1 2 3 6 7 18"),
    ("vector_rational", "general", 8, 57, 442,
     "51 | 47 48 49 50 52 54 55 56 | 35 39 42 43 44 45 46 53 | 28 32 33 34 36 38 40 41 | 20 21 24 25 27 29 31 37 | 8 11 14 15 17 22 26 30 | 2 5 9 10 13 16 19 23 | 0 1 3 4 6 7 12 18"),
    ("vector_rational", "general", 8, 73, 1106,
     "53 | 43 44 46 48 51 54 55 56 | 29 33 36 39 40 45 47 52 | 14 18 26 32 34 38 41 49 | 15 17 27 30 31 35 37 42 | 6 11 13 16 24 25 28 50 | 4 7 10 12 19 20 22 23 | 0 1 2 3 5 8 9 21"),
    ("vector_rational", "special", 3, 7, 32,
     "6 | 2 4 5 | 0 1 3"),
    ("vector_rational", "special", 3, 13, 44,
     "3 | 2 6 10 | 0 1 4"),
    ("vector_rational", "special", 4, 13, 70,
     "12 | 8 9 10 11 | 3 5 6 7 | 0 1 2 4"),
    ("vector_rational", "special", 4, 21, 94,
     "9 | 7 8 14 15 | 3 5 6 10 | 0 1 2 4"),
    ("vector_rational", "special", 5, 21, 127,
     "20 | 14 15 17 18 19 | 2 11 12 13 16 | 1 5 8 9 10 | 0 3 4 6 7"),
    ("vector_rational", "special", 5, 31, 167,
     "9 | 6 13 19 23 25 | 4 11 16 17 21 | 3 7 10 12 14 | 0 1 2 5 8"),
    ("vector_rational", "special", 6, 31, 206,
     "30 | 22 24 25 27 28 29 | 12 16 18 21 23 26 | 7 10 11 15 19 20 | 4 6 8 9 13 17 | 0 1 2 3 5 14"),
    ("vector_rational", "special", 6, 43, 266,
     "19 | 14 22 26 28 31 32 | 10 17 21 24 27 30 | 5 8 9 15 20 23 | 2 4 7 13 16 18 | 0 1 3 6 11 12"),
    ("vector_rational", "special", 7, 43, 310,
     "40 | 31 32 34 36 39 41 42 | 25 29 30 33 35 37 38 | 17 20 21 22 26 27 28 | 6 10 15 16 18 19 24 | 3 5 7 12 13 14 23 | 0 1 2 4 8 9 11"),
    ("vector_rational", "special", 7, 57, 394,
     "39 | 24 29 31 37 40 42 43 | 15 19 26 27 30 35 38 | 12 14 21 23 25 34 36 | 4 11 18 20 22 28 33 | 1 5 7 9 13 17 32 | 0 2 3 6 8 10 16"),
    ("vector_rational", "special", 8, 57, 442,
     "51 | 47 48 49 50 52 54 55 56 | 35 39 42 43 44 45 46 53 | 28 32 33 34 36 38 40 41 | 20 21 24 25 27 29 31 37 | 8 11 14 15 17 22 26 30 | 2 5 9 10 13 16 19 23 | 0 1 3 4 6 7 12 18"),
    ("vector_rational", "special", 8, 73, 554,
     "45 | 40 41 43 47 49 51 64 71 | 33 35 38 39 42 44 58 60 | 18 19 30 32 34 37 48 55 | 12 17 20 27 28 29 31 54 | 4 11 15 21 23 25 26 53 | 3 6 9 10 14 16 22 36 | 0 1 2 5 7 8 13 24"),
    ("affine_rational", "general", 3, 7, 32,
     "6 | 2 4 5 | 0 1 3"),
    ("affine_rational", "general", 3, 13, 35,
     "6 | 3 4 5 | 0 1 2"),
    ("affine_rational", "general", 4, 13, 70,
     "12 | 8 9 10 11 | 3 5 6 7 | 0 1 2 4"),
    ("affine_rational", "general", 4, 21, 138,
     "8 | 2 10 11 12 | 5 6 7 9 | 0 1 3 4"),
    ("affine_rational", "general", 5, 21, 127,
     "20 | 14 15 17 18 19 | 2 11 12 13 16 | 1 5 8 9 10 | 0 3 4 6 7"),
    ("affine_rational", "general", 5, 31, 269,
     "19 | 4 15 16 18 20 | 10 11 12 13 17 | 3 7 8 9 14 | 0 1 2 5 6"),
    ("affine_rational", "general", 6, 31, 206,
     "30 | 22 24 25 27 28 29 | 12 16 18 21 23 26 | 7 10 11 15 19 20 | 4 6 8 9 13 17 | 0 1 2 3 5 14"),
    ("affine_rational", "general", 6, 43, 429,
     "30 | 17 25 26 27 28 29 | 10 18 20 21 22 24 | 6 11 15 16 19 23 | 3 5 8 12 13 14 | 0 1 2 4 7 9"),
    ("affine_rational", "general", 7, 43, 310,
     "40 | 31 32 34 36 39 41 42 | 25 29 30 33 35 37 38 | 17 20 21 22 26 27 28 | 6 10 15 16 18 19 24 | 3 5 7 12 13 14 23 | 0 1 2 4 8 9 11"),
    ("affine_rational", "general", 7, 57, 630,
     "42 | 32 33 35 38 39 40 41 | 20 24 28 31 34 36 37 | 14 19 25 26 27 29 30 | 5 10 15 16 17 21 22 | 4 8 9 11 12 13 23 | 0 1 2 3 6 7 18"),
    ("affine_rational", "general", 8, 57, 442,
     "51 | 47 48 49 50 52 54 55 56 | 35 39 42 43 44 45 46 53 | 28 32 33 34 36 38 40 41 | 20 21 24 25 27 29 31 37 | 8 11 14 15 17 22 26 30 | 2 5 9 10 13 16 19 23 | 0 1 3 4 6 7 12 18"),
    ("affine_rational", "general", 8, 73, 1106,
     "53 | 43 44 46 48 51 54 55 56 | 29 33 36 39 40 45 47 52 | 14 18 26 32 34 38 41 49 | 15 17 27 30 31 35 37 42 | 6 11 13 16 24 25 28 50 | 4 7 10 12 19 20 22 23 | 0 1 2 3 5 8 9 21"),
    ("affine_rational", "special", 3, 7, 32,
     "6 | 2 4 5 | 0 1 3"),
    ("affine_rational", "special", 3, 13, 44,
     "3 | 2 6 10 | 0 1 4"),
    ("affine_rational", "special", 4, 13, 70,
     "12 | 8 9 10 11 | 3 5 6 7 | 0 1 2 4"),
    ("affine_rational", "special", 4, 21, 94,
     "9 | 7 8 14 15 | 3 5 6 10 | 0 1 2 4"),
    ("affine_rational", "special", 5, 21, 127,
     "20 | 14 15 17 18 19 | 2 11 12 13 16 | 1 5 8 9 10 | 0 3 4 6 7"),
    ("affine_rational", "special", 5, 31, 167,
     "9 | 6 13 19 23 25 | 4 11 16 17 21 | 3 7 10 12 14 | 0 1 2 5 8"),
    ("affine_rational", "special", 6, 31, 206,
     "30 | 22 24 25 27 28 29 | 12 16 18 21 23 26 | 7 10 11 15 19 20 | 4 6 8 9 13 17 | 0 1 2 3 5 14"),
    ("affine_rational", "special", 6, 43, 266,
     "19 | 14 22 26 28 31 32 | 10 17 21 24 27 30 | 5 8 9 15 20 23 | 2 4 7 13 16 18 | 0 1 3 6 11 12"),
    ("affine_rational", "special", 7, 43, 310,
     "40 | 31 32 34 36 39 41 42 | 25 29 30 33 35 37 38 | 17 20 21 22 26 27 28 | 6 10 15 16 18 19 24 | 3 5 7 12 13 14 23 | 0 1 2 4 8 9 11"),
    ("affine_rational", "special", 7, 57, 394,
     "39 | 24 29 31 37 40 42 43 | 15 19 26 27 30 35 38 | 12 14 21 23 25 34 36 | 4 11 18 20 22 28 33 | 1 5 7 9 13 17 32 | 0 2 3 6 8 10 16"),
    ("affine_rational", "special", 8, 57, 442,
     "51 | 47 48 49 50 52 54 55 56 | 35 39 42 43 44 45 46 53 | 28 32 33 34 36 38 40 41 | 20 21 24 25 27 29 31 37 | 8 11 14 15 17 22 26 30 | 2 5 9 10 13 16 19 23 | 0 1 3 4 6 7 12 18"),
    ("affine_rational", "special", 8, 73, 554,
     "45 | 40 41 43 47 49 51 64 71 | 33 35 38 39 42 44 58 60 | 18 19 30 32 34 37 48 55 | 12 17 20 27 28 29 31 54 | 4 11 15 21 23 25 26 53 | 3 6 9 10 14 16 22 36 | 0 1 2 5 7 8 13 24"),
]


@pytest.mark.parametrize(
    "family, profile, m, length, calls, parts",
    GOLDEN,
    ids=[f"{f}-{p}-m{m}-len{n}" for f, p, m, n, _, _ in GOLDEN],
)
def test_pinned_rational_solve(family, profile, m, length, calls, parts):
    inst = gen_random_instance(family, m, m, length, 1, profile)
    solver = solve_general if profile == "general" else solve_special
    stats = SolveStats()
    partition = solver(
        inst.build_matroid(), inst.build_sequence(), inst.build_coloring(), m, stats=stats, check=True
    )
    expected = tuple(tuple(int(i) for i in part.split()) for part in parts.split("|"))
    assert partition.part_indices() == expected
    assert stats.oracle_calls == calls
