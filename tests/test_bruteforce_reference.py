"""The referee's search against the plain search it replaced.

``reference_search`` is ``brute_force_solve``'s search as it stood before
parts became bitmasks and each part mask's elements were read off once per
search: parts are entry lists with color sets, the empty-part count is
recomputed at every node, and every leaf rebuilds each part's set-image and
asks the oracle again.  Both searches must return the same lexicographically first witness
(or both none) and charge the same number of nodes to the budget, so they
also run out of budget on exactly the same instances.
"""

import random

import pytest

from matroid_tverberg import (
    BruteForceBudget,
    BudgetExceeded,
    Coloring,
    IndexedSequence,
    VectorMatroidGFp,
    brute_force_solve,
    gen_random_instance,
    tight_instance,
)
from matroid_tverberg.instances import GENERATOR_FAMILIES
from matroid_tverberg.sequences import distinct_elements

from conftest import family_zoo


def reference_search(matroid, seq, coloring, r):
    """(witness part indices or None, search-tree nodes visited)."""
    n = len(seq)
    entries = seq.entries
    nonloop = [not matroid.in_closure(e, ()) for _, e in entries]
    nonloop_left = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        nonloop_left[j] = nonloop_left[j + 1] + (1 if nonloop[j] else 0)

    part_entries = [[] for _ in range(r)]
    part_colors = [set() for _ in range(r)]
    part_nonloops = [0] * r
    nodes = 0
    found = []

    def leaf_valid():
        if any(c == 0 for c in part_nonloops):
            return False
        for i in range(r - 1):
            target = frozenset(e for _, e in part_entries[i + 1])
            for e in distinct_elements(part_entries[i]):
                if not matroid.in_closure(e, target):
                    return False
        return True

    def dfs(j):
        nonlocal nodes
        nodes += 1
        empty = sum(1 for c in part_nonloops if c == 0)
        if empty > nonloop_left[j]:
            return False
        if j == n:
            if leaf_valid():
                found.extend(list(p) for p in part_entries)
                return True
            return False
        entry = entries[j]
        if dfs(j + 1):
            return True
        color = coloring.of(entry) if coloring is not None else None
        for part in range(r):
            if color is not None and color in part_colors[part]:
                continue
            part_entries[part].append(entry)
            if color is not None:
                part_colors[part].add(color)
            part_nonloops[part] += 1 if nonloop[j] else 0
            if dfs(j + 1):
                return True
            part_entries[part].pop()
            if color is not None:
                part_colors[part].discard(color)
            part_nonloops[part] -= 1 if nonloop[j] else 0
        return False

    if not dfs(0):
        return None, nodes
    return tuple(tuple(i for i, _ in p) for p in found), nodes


def assert_same_search(matroid, seq, coloring, r):
    """Same witness as the reference, and the budget runs out at the same node."""
    witness, nodes = reference_search(matroid, seq, coloring, r)
    found = brute_force_solve(matroid, seq, coloring, r, BruteForceBudget(max_assignments=nodes))
    assert (None if found is None else found.part_indices()) == witness
    with pytest.raises(BudgetExceeded):
        brute_force_solve(matroid, seq, coloring, r, BruteForceBudget(max_assignments=nodes - 1))
    return witness


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_random_instances_match_reference(family):
    rng = random.Random(f"referee-{family}")
    outcomes = set()
    for _ in range(20):
        m, r = rng.randint(1, 3), rng.randint(1, 3)
        profile = rng.choice(("general", "special"))
        floor = m * (r - 1) + 1 if profile == "general" else r + (m - 1) * max(r - 1, 1)
        if floor > 8:
            continue
        length = rng.randint(floor, 8)
        inst = gen_random_instance(family, m, r, length, rng.randrange(10**6), profile)
        matroid, seq = inst.build_matroid(), inst.build_sequence()
        assert assert_same_search(matroid, seq, inst.build_coloring(), r) is not None
        # Colorless, whole and cut to m(r-1) entries, where most have no witness.
        for k in (length, max(1, m * (r - 1))):
            outcomes.add(assert_same_search(matroid, seq.take_first(k), None, r) is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_tight_instances_match_reference(family):
    for m, r in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)):
        matroid, basis = family_zoo(m)[family]
        seq = tight_instance(matroid, basis, r)
        assert assert_same_search(matroid, seq, None, r) is None


def test_repeated_elements_match_reference():
    # GF(3)^2 with a loop and parallel pairs; sequences repeat elements, and
    # colored ones may give two copies of one element different colors.
    matroid = VectorMatroidGFp(
        3, 2, {"a": (1, 0), "a2": (2, 0), "b": (0, 1), "c": (1, 1), "d": (1, 2), "z": (0, 0)}
    )
    ground = ["a", "a2", "b", "c", "d", "z"]
    rng = random.Random("referee-repeats")
    outcomes = set()
    for _ in range(60):
        n = rng.randint(1, 7)
        seq = IndexedSequence.from_elements(rng.choices(ground[: rng.randint(2, 6)], k=n))
        coloring = None
        if rng.random() < 0.5:
            coloring = Coloring({i: rng.choice("uvw") for i in range(n)})
        outcomes.add(assert_same_search(matroid, seq, coloring, rng.randint(1, 3)) is None)
    assert outcomes == {False, True}
