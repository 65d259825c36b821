"""Independent ground truth for the solvers, at desk scale.

``brute_force_solve`` searches every assignment of sequence entries to one
of {unused, part 1, .., part r} and reports the first (in lexicographic
order) whose parts pass ``verify_partition``.  It shares nothing with the
constructive solver beyond the matroid (its closure oracle and its declared
loops), so agreement between the two is meaningful evidence.

The checkers that only the tests use (the length-m(r-1) instances that
admit no partition and their exhaustive check, the closure-intersection law
for subsets of a basis, and rainbow-basis repartition) live in
``tests/acceptance_checks.py``.
"""

from __future__ import annotations

from itertools import pairwise

from .errors import BudgetExceeded, InternalInvariantBroken, PreconditionViolated
from .sequences import distinct_elements
from .solver import build_partition, verify_partition


# brute_force_solve searches at most MAX_ENTRIES entries, MAX_R parts and
# MAX_NODES nodes, and raises BudgetExceeded beyond any of them.
MAX_ENTRIES = 12
MAX_R = 4
MAX_NODES = 20_000_000


def brute_force_solve(matroid, seq, coloring, r):
    """Exhaustive search for a valid partition; None when none exists.

    Entries are assigned labels {0 = unused, 1..r} in lexicographic order
    over (index, label); the first assignment whose parts verify wins, so
    witnesses are deterministic.  Two sound prunes keep the search tree
    small without changing that witness: a color repeated inside a part can
    never be repaired by extensions, and every part of a valid partition
    must contain a non-loop, so states with more nonloop-free parts than
    non-loop entries remaining are dead.  Which entries are loops is read
    from the matroid's ``loops``.

    Each part is held as a bitmask over the distinct elements of ``seq``
    and a bitmask over colors; a label is undone by restoring the masks the
    part had before it, so a repeated element keeps its bit while another
    copy stays.  The prune reads a running count of nonloop-free parts.

    At a leaf every part holds a non-loop (the prune guarantees it), so the
    leaf is valid iff each part's elements lie in the closure of the next
    part's; the pairs are checked in order, up to the first element outside.
    A table keeps, for each upper part's mask (at most 2**(distinct
    elements)), its elements as a frozenset and bitmasks of the elements
    known in and outside their closure (the mask itself is in).  The oracle
    is asked only what the table does not know, never twice, in order of
    first occurrence in ``seq`` (so ``oracle_calls`` does not depend on the
    hash seed).  Labels visited, nodes counted, leaf verdicts and so the
    witness are those of the plain search over entry lists.
    """
    if not isinstance(r, int) or r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    n = len(seq)
    if n > MAX_ENTRIES:
        raise BudgetExceeded(f"|S| = {n} exceeds the budget of {MAX_ENTRIES}")
    if r > MAX_R:
        raise BudgetExceeded(f"r = {r} exceeds the budget of {MAX_R}")

    entries = seq.entries
    nonloop = [not matroid.is_loop(e) for _, e in entries]
    # nonloop_left[j] = how many non-loop entries sit at positions >= j.
    nonloop_left = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        nonloop_left[j] = nonloop_left[j + 1] + (1 if nonloop[j] else 0)

    elements = distinct_elements(entries)
    element_bit = {e: 1 << b for b, e in enumerate(elements)}
    entry_bit = [element_bit[e] for _, e in entries]
    if coloring is None:
        color_bit = [0] * n
    else:
        color_pos = {}
        color_bit = [1 << color_pos.setdefault(coloring.of(entry), len(color_pos)) for entry in entries]

    max_nodes = MAX_NODES
    part_mask = [0] * r
    part_colors = [0] * r
    has_nonloop = [False] * r
    label = [-1] * n
    empty = r  # parts without a non-loop
    nodes = 0

    # Part mask -> [its elements, bits known in their closure, bits known outside].
    closure_masks = {}

    def leaf_valid():
        """Does every element of each part lie in cl(elements of the next part)?"""
        for lower, upper in pairwise(part_mask):
            known = closure_masks.get(upper)
            if known is None:
                target = frozenset(e for e, b in element_bit.items() if b & upper)
                known = closure_masks[upper] = [target, upper, 0]
            open_bits = lower & ~known[1]
            if open_bits & known[2]:
                return False
            while open_bits:
                bit = open_bits & -open_bits  # lowest first: order of first occurrence
                open_bits ^= bit
                if not matroid.in_closure(elements[bit.bit_length() - 1], known[0]):
                    known[2] |= bit
                    return False
                known[1] |= bit
        return True

    def dfs(j):
        nonlocal nodes, empty
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"assignment budget of {max_nodes} exhausted")
        if empty > nonloop_left[j]:
            return False
        if j == n:
            return leaf_valid()
        if dfs(j + 1):  # label 0: leave the entry unused
            return True
        bit = entry_bit[j]
        color = color_bit[j]
        counts_nonloop = nonloop[j]
        for part in range(r):
            colors = part_colors[part]
            if colors & color:
                continue
            mask = part_mask[part]
            first_nonloop = counts_nonloop and not has_nonloop[part]
            part_colors[part] = colors | color
            part_mask[part] = mask | bit
            if first_nonloop:
                has_nonloop[part] = True
                empty -= 1
            label[j] = part
            if dfs(j + 1):
                return True
            part_colors[part] = colors
            part_mask[part] = mask
            if first_nonloop:
                has_nonloop[part] = False
                empty += 1
        label[j] = -1
        return False

    found = dfs(0)
    # dfs refers to itself through its closure; unlinking it frees the
    # search state (the closure masks, at most 2**len(elements), and the
    # oracle with its memo) on return, not at the next cyclic collection.
    del dfs
    if not found:
        return None
    parts = [
        seq.with_indices(i for (i, _), lab in zip(entries, label) if lab == part)
        for part in range(r)
    ]
    partition = build_partition(matroid, parts)
    report = verify_partition(matroid, seq, coloring, r, partition.parts)
    if not report:
        raise InternalInvariantBroken(f"brute-force witness failed verification: {report.failure}")
    return partition

