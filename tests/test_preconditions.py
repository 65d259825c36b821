"""Each public precondition is its solve's own.

``special_precondition`` and ``general_precondition`` answer without
solving, and the generator's self-check (``instances._validate_generated``)
trusts them.  On generated instances, some cut short, recolored in one
entry or with r moved by one, each must be true exactly when its solve
raises neither ``PreconditionViolated`` nor ``LoopInInput``.
"""

import random

import pytest

from matroid_tverberg import (
    Coloring,
    IndexedSequence,
    LoopInInput,
    PreconditionViolated,
    UniformMatroid,
    gen_random_instance,
    general_precondition,
    solve_general,
    solve_special,
    special_precondition,
)
from matroid_tverberg.instances import GENERATOR_FAMILIES

PAIRS = (
    ("special", special_precondition, solve_special),
    ("general", general_precondition, solve_general),
)


def solve_accepts(solve, matroid, seq, coloring, r):
    try:
        solve(matroid, seq, coloring, r)
    except (PreconditionViolated, LoopInInput):
        return False
    return True


def perturbed(rng, seq, coloring, r):
    """The drawn instance, or it cut short, recolored in one entry, or with r moved by one."""
    kind = rng.choice(("as drawn", "cut", "recolor", "move r"))
    if kind == "cut":
        return seq.take_first(rng.randrange(len(seq))), coloring, r
    if kind == "recolor":
        colors = {i: coloring.of((i, e)) for i, e in seq}
        palette = list(dict.fromkeys(colors.values())) + ["fresh"]
        colors[rng.choice(sorted(colors))] = rng.choice(palette)
        return seq, Coloring(colors), r
    if kind == "move r":
        return seq, coloring, r + rng.choice((-1, 1))
    return seq, coloring, r


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_preconditions_agree_with_their_solves(family):
    rng = random.Random(f"preconditions-{family}")
    seen = {name: set() for name, _, _ in PAIRS}
    for _ in range(100):
        m, r = rng.randint(1, 3), rng.randint(1, 3)
        profile = rng.choice(("general", "special"))
        floor = m * (r - 1) + 1 if profile == "general" else r + (m - 1) * max(r - 1, 1)
        length = floor + rng.randrange(3)
        inst = gen_random_instance(family, m, r, length, rng.randrange(10**6), profile)
        matroid = inst.build_matroid()
        seq, coloring, r = perturbed(rng, inst.build_sequence(), inst.build_coloring(), r)
        for name, precondition, solve in PAIRS:
            expected = bool(precondition(matroid, seq, coloring, r))
            assert solve_accepts(solve, matroid, seq, coloring, r) == expected, (name, inst, r)
            seen[name].add(expected)
    assert seen == {name: {False, True} for name, _, _ in PAIRS}


@pytest.mark.parametrize(
    "entry",
    [solve_special, solve_general, special_precondition, general_precondition],
    ids=lambda entry: entry.__name__,
)
def test_a_missing_coloring_violates_the_precondition(entry):
    # Before any closure question: the colored entry points need a coloring.
    matroid = UniformMatroid(2, 3)
    seq = IndexedSequence.from_elements(matroid.ground)
    if entry in (special_precondition, general_precondition):
        check = entry(matroid, seq, None, 2)
        assert not check and "coloring" in check.reason
    else:
        with pytest.raises(PreconditionViolated, match="coloring"):
            entry(matroid, seq, None, 2)
    assert matroid.oracle_calls == 0
