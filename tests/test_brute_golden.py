"""Pinned referee output on seeded random and tight instances.

Random rows are ``gen_random_instance(family, m, r, length, 1, profile)``
for all six families, both profiles and (m, r) in (2, 2), (2, 3), (3, 2)
and (4, 2), at the shortest length the profile allows and at length 10.
Tight rows are ``tight_instance`` of length m(r-1) on each family's rank-m
matroid from ``conftest.family_zoo``, searched without colors, for (m, r)
in (2, 4), (3, 3) and (4, 3); none of them has a partition.  Each row pins
the witness ``brute_force_solve`` returns (its part indices, or "none") and
the ``oracle_calls`` it spends: a change to the referee's search or to its
leaf check must find the same witness by asking the same questions.  Every
row read the same under ``PYTHONHASHSEED`` 0 to 3 when it was recorded;
``test_hashseed.py`` reruns a length-10 special row and a tight (4, 3)
search under two hash seeds.
"""

import pytest

from matroid_tverberg import brute_force_solve, gen_random_instance

from acceptance_checks import tight_instance
from conftest import family_zoo

# (family, profile or "tight", m, r, length, oracle_calls, witness as "i j .. | k .. | .." or "none")
GOLDEN = [
    ("vector_gf2", "general", 2, 2, 3, 2, "1 | 2"),
    ("vector_gf2", "general", 2, 2, 10, 2, "8 | 9"),
    ("vector_gf2", "general", 2, 3, 5, 14, "1 | 3 | 2 4"),
    ("vector_gf2", "general", 2, 3, 10, 9, "6 | 8 | 9"),
    ("vector_gf2", "general", 3, 2, 4, 22, "1 | 0 2 3"),
    ("vector_gf2", "general", 3, 2, 10, 4, "7 | 9"),
    ("vector_gf2", "general", 4, 2, 5, 34, "0 | 1 2"),
    ("vector_gf2", "general", 4, 2, 10, 56, "6 | 5 7 8 9"),
    ("vector_gf2", "special", 2, 2, 3, 2, "1 | 2"),
    ("vector_gf2", "special", 2, 2, 10, 6, "7 | 8 9"),
    ("vector_gf2", "special", 2, 3, 5, 14, "1 | 3 | 2 4"),
    ("vector_gf2", "special", 2, 3, 10, 34, "6 | 8 | 5 9"),
    ("vector_gf2", "special", 3, 2, 4, 22, "1 | 0 2 3"),
    ("vector_gf2", "special", 3, 2, 10, 2, "8 | 9"),
    ("vector_gf2", "special", 4, 2, 5, 34, "0 | 1 2"),
    ("vector_gf2", "special", 4, 2, 10, 43, "6 | 5 8"),
    ("vector_gf3", "general", 2, 2, 3, 6, "0 | 1 2"),
    ("vector_gf3", "general", 2, 2, 10, 6, "7 | 8 9"),
    ("vector_gf3", "general", 2, 3, 5, 31, "0 | 1 3 | 2 4"),
    ("vector_gf3", "general", 2, 3, 10, 27, "5 | 6 | 7"),
    ("vector_gf3", "general", 3, 2, 4, 10, "0 | 3"),
    ("vector_gf3", "general", 3, 2, 10, 5, "7 | 8"),
    ("vector_gf3", "general", 4, 2, 5, 46, "3 | 0 2 4"),
    ("vector_gf3", "general", 4, 2, 10, 4, "7 | 9"),
    ("vector_gf3", "special", 2, 2, 3, 6, "0 | 1 2"),
    ("vector_gf3", "special", 2, 2, 10, 2, "8 | 9"),
    ("vector_gf3", "special", 2, 3, 5, 31, "0 | 1 3 | 2 4"),
    ("vector_gf3", "special", 2, 3, 10, 40, "4 | 5 | 8"),
    ("vector_gf3", "special", 3, 2, 4, 10, "0 | 3"),
    ("vector_gf3", "special", 3, 2, 10, 10, "6 | 9"),
    ("vector_gf3", "special", 4, 2, 5, 46, "3 | 0 2 4"),
    ("vector_gf3", "special", 4, 2, 10, 87, "6 | 4 7 8"),
    ("vector_rational", "general", 2, 2, 3, 6, "0 | 1 2"),
    ("vector_rational", "general", 2, 2, 10, 6, "7 | 8 9"),
    ("vector_rational", "general", 2, 3, 5, 31, "0 | 1 3 | 2 4"),
    ("vector_rational", "general", 2, 3, 10, 38, "6 | 5 8 | 7 9"),
    ("vector_rational", "general", 3, 2, 4, 12, "0 | 2 3"),
    ("vector_rational", "general", 3, 2, 10, 17, "6 | 7 8 9"),
    ("vector_rational", "general", 4, 2, 5, 63, "3 | 0 1 2 4"),
    ("vector_rational", "general", 4, 2, 10, 56, "6 | 5 7 8 9"),
    ("vector_rational", "special", 2, 2, 3, 6, "0 | 1 2"),
    ("vector_rational", "special", 2, 2, 10, 6, "7 | 8 9"),
    ("vector_rational", "special", 2, 3, 5, 31, "0 | 1 3 | 2 4"),
    ("vector_rational", "special", 2, 3, 10, 65, "7 | 4 9 | 5 8"),
    ("vector_rational", "special", 3, 2, 4, 12, "0 | 2 3"),
    ("vector_rational", "special", 3, 2, 10, 37, "7 | 5 8 9"),
    ("vector_rational", "special", 4, 2, 5, 63, "3 | 0 1 2 4"),
    ("vector_rational", "special", 4, 2, 10, 194, "2 | 4 7 8"),
    ("affine_rational", "general", 2, 2, 3, 2, "1 | 2"),
    ("affine_rational", "general", 2, 2, 10, 6, "7 | 8 9"),
    ("affine_rational", "general", 2, 3, 5, 30, "0 | 1 | 2"),
    ("affine_rational", "general", 2, 3, 10, 25, "5 | 8 | 7 9"),
    ("affine_rational", "general", 3, 2, 4, 12, "0 | 2 3"),
    ("affine_rational", "general", 3, 2, 10, 17, "6 | 7 8 9"),
    ("affine_rational", "general", 4, 2, 5, 63, "3 | 0 1 2 4"),
    ("affine_rational", "general", 4, 2, 10, 56, "6 | 5 7 8 9"),
    ("affine_rational", "special", 2, 2, 3, 2, "1 | 2"),
    ("affine_rational", "special", 2, 2, 10, 6, "7 | 8 9"),
    ("affine_rational", "special", 2, 3, 5, 30, "0 | 1 | 2"),
    ("affine_rational", "special", 2, 3, 10, 65, "7 | 4 8 | 5 9"),
    ("affine_rational", "special", 3, 2, 4, 12, "0 | 2 3"),
    ("affine_rational", "special", 3, 2, 10, 14, "6 | 7 8"),
    ("affine_rational", "special", 4, 2, 5, 63, "3 | 0 1 2 4"),
    ("affine_rational", "special", 4, 2, 10, 247, "7 | 2 5 8 9"),
    ("uniform", "general", 2, 2, 3, 2, "0 | 2"),
    ("uniform", "general", 2, 2, 10, 6, "7 | 8 9"),
    ("uniform", "general", 2, 3, 5, 2, "1 | 2 | 3"),
    ("uniform", "general", 2, 3, 10, 38, "6 | 5 8 | 7 9"),
    ("uniform", "general", 3, 2, 4, 0, "2 | 3"),
    ("uniform", "general", 3, 2, 10, 17, "6 | 7 8 9"),
    ("uniform", "general", 4, 2, 5, 2, "2 | 3"),
    ("uniform", "general", 4, 2, 10, 56, "6 | 5 7 8 9"),
    ("uniform", "special", 2, 2, 3, 2, "0 | 2"),
    ("uniform", "special", 2, 2, 10, 2, "7 | 8"),
    ("uniform", "special", 2, 3, 5, 2, "1 | 2 | 3"),
    ("uniform", "special", 2, 3, 10, 0, "7 | 8 | 9"),
    ("uniform", "special", 3, 2, 4, 0, "2 | 3"),
    ("uniform", "special", 3, 2, 10, 0, "8 | 9"),
    ("uniform", "special", 4, 2, 5, 2, "2 | 3"),
    ("uniform", "special", 4, 2, 10, 0, "8 | 9"),
    ("graphic", "general", 2, 2, 3, 5, "0 | 1"),
    ("graphic", "general", 2, 2, 10, 6, "7 | 8 9"),
    ("graphic", "general", 2, 3, 5, 2, "2 | 3 | 4"),
    ("graphic", "general", 2, 3, 10, 14, "6 | 9 | 7 8"),
    ("graphic", "general", 3, 2, 4, 0, "2 | 3"),
    ("graphic", "general", 3, 2, 10, 5, "7 | 8"),
    ("graphic", "general", 4, 2, 5, 5, "2 | 3"),
    ("graphic", "general", 4, 2, 10, 2, "7 | 9"),
    ("graphic", "special", 2, 2, 3, 5, "0 | 1"),
    ("graphic", "special", 2, 2, 10, 6, "7 | 8 9"),
    ("graphic", "special", 2, 3, 5, 2, "2 | 3 | 4"),
    ("graphic", "special", 2, 3, 10, 8, "6 | 8 | 9"),
    ("graphic", "special", 3, 2, 4, 0, "2 | 3"),
    ("graphic", "special", 3, 2, 10, 0, "8 | 9"),
    ("graphic", "special", 4, 2, 5, 5, "2 | 3"),
    ("graphic", "special", 4, 2, 10, 14, "6 | 7 8"),
    ("vector_gf2", "tight", 2, 4, 6, 2, "none"),
    ("vector_gf2", "tight", 3, 3, 6, 9, "none"),
    ("vector_gf2", "tight", 4, 3, 8, 28, "none"),
    ("vector_gf3", "tight", 2, 4, 6, 2, "none"),
    ("vector_gf3", "tight", 3, 3, 6, 9, "none"),
    ("vector_gf3", "tight", 4, 3, 8, 28, "none"),
    ("vector_rational", "tight", 2, 4, 6, 2, "none"),
    ("vector_rational", "tight", 3, 3, 6, 9, "none"),
    ("vector_rational", "tight", 4, 3, 8, 28, "none"),
    ("affine_rational", "tight", 2, 4, 6, 2, "none"),
    ("affine_rational", "tight", 3, 3, 6, 9, "none"),
    ("affine_rational", "tight", 4, 3, 8, 28, "none"),
    ("uniform", "tight", 2, 4, 6, 2, "none"),
    ("uniform", "tight", 3, 3, 6, 9, "none"),
    ("uniform", "tight", 4, 3, 8, 28, "none"),
    ("graphic", "tight", 2, 4, 6, 2, "none"),
    ("graphic", "tight", 3, 3, 6, 9, "none"),
    ("graphic", "tight", 4, 3, 8, 28, "none"),
]


def golden_instance(family, profile, m, r, length):
    """(matroid, sequence, coloring) of one row, built fresh."""
    if profile == "tight":
        matroid, basis = family_zoo(m)[family]
        seq, coloring = tight_instance(matroid, basis, r), None
    else:
        inst = gen_random_instance(family, m, r, length, 1, profile)
        matroid, seq, coloring = inst.build_matroid(), inst.build_sequence(), inst.build_coloring()
    assert len(seq) == length
    return matroid, seq, coloring


def observe(family, profile, m, r, length):
    """(oracle_calls, witness) of ``brute_force_solve`` on one row's instance."""
    matroid, seq, coloring = golden_instance(family, profile, m, r, length)
    found = brute_force_solve(matroid, seq, coloring, r)
    if found is None:
        return matroid.oracle_calls, "none"
    return matroid.oracle_calls, " | ".join(" ".join(map(str, part)) for part in found.part_indices())


@pytest.mark.parametrize(
    "family, profile, m, r, length, calls, witness",
    GOLDEN,
    ids=[f"{f}-{p}-m{m}-r{r}-len{n}" for f, p, m, r, n, _, _ in GOLDEN],
)
def test_pinned_brute_force(family, profile, m, r, length, calls, witness):
    assert observe(family, profile, m, r, length) == (calls, witness)

