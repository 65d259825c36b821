"""Independent ground truth for the solvers, at desk scale.

``brute_force_solve`` searches every assignment of sequence entries to one
of {unused, part 1, .., part r} and reports the first (in lexicographic
order) whose parts pass ``verify_partition``.  It shares nothing with the
constructive solver beyond the matroid (its closure oracle and its declared
loops), so agreement between the two is meaningful evidence.

The module also builds the worst-case instances of length m(r-1) that admit
no partition, checks them exhaustively, checks the closure-intersection law
for subsets of a basis, and contains a small exhaustive checker for the
rainbow-bases repartition question (feasible for rank at most 3).
"""

from __future__ import annotations

from itertools import pairwise

from .errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    NotABasis,
    PreconditionViolated,
)
from .sequences import Coloring, IndexedSequence, distinct_elements
from .solver import build_partition, verify_partition


# brute_force_solve searches at most MAX_ENTRIES entries, MAX_R parts and
# MAX_NODES nodes.  The caps bound the other searches too: check_tightness
# has m(r-1) <= 12, so for m >= 1 at most (2**r - 1)**m <= 3**12 = 531,441
# divisions, and rota_check has m <= 3, so at most (3**10 - 1)/2 = 29,524 nodes.
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


def _require_basis(matroid, basis):
    basis = tuple(basis)
    if len(set(basis)) != len(basis):
        raise NotABasis("repeated elements")
    if matroid.rank(basis) != len(basis):
        raise NotABasis("the elements are dependent")
    if len(basis) != matroid.rank_bound:
        raise NotABasis(
            f"{len(basis)} independent elements do not span a matroid of rank {matroid.rank_bound}"
        )
    return basis


def tight_instance(matroid, basis, r):
    """The length-m(r-1) sequence with r-1 copies of each basis element.

    Any division of it into r disjoint subsequences intersects, closure-wise,
    in cl(empty): each element is missing from at least one part.
    """
    basis = _require_basis(matroid, basis)
    if r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    elements = []
    for e in basis:
        elements.extend([e] * (r - 1))
    return IndexedSequence.from_elements(elements)


def check_tightness(matroid, basis, r):
    """Exhaustively confirm that the tight instance admits no partition.

    For every division of the tight sequence into r disjoint (possibly
    empty) subsequences the intersection of the part closures must equal
    cl(empty).  Divisions are enumerated through their part set-images: a
    part's closure only depends on which basis elements it received, and
    with r-1 copies of each element the reachable set-images are exactly
    the assignments of a proper subset of the parts to each element.
    Closures come from the oracle; the closure-intersection law is applied
    to each division as a cross-check only.
    """
    basis = _require_basis(matroid, basis)
    if r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    m = len(basis)
    if m * (r - 1) > MAX_ENTRIES:
        raise BudgetExceeded(f"m(r-1) = {m * (r - 1)} exceeds the budget of {MAX_ENTRIES}")

    ground = matroid.ground
    bit_of = {e: i for i, e in enumerate(ground)}

    def closure_mask(elems):
        mask = 0
        for x in ground:
            if matroid.in_closure(x, elems):
                mask |= 1 << bit_of[x]
        return mask

    # All 2^m subsets of the basis, keyed by a bitmap over basis positions.
    sub_mask = {}
    for bits in range(2**m):
        elems = [basis[i] for i in range(m) if bits >> i & 1]
        sub_mask[bits] = closure_mask(elems)
    loops_mask = sub_mask[0]

    full = (1 << r) - 1
    proper = range(full)  # every subset of parts except all of them
    part_bits = [0] * r

    def rec(j):
        if j == m:
            inter = ~0
            cap_bits = (1 << m) - 1
            for i in range(r):
                inter &= sub_mask[part_bits[i]]
                cap_bits &= part_bits[i]
            if inter != loops_mask:
                return False
            # Cross-check against the closure-intersection law: the closure
            # of the elements common to every part must reproduce the
            # directly computed intersection.
            if sub_mask[cap_bits] != inter:
                raise InternalInvariantBroken(
                    "closure-intersection law failed on a tight division"
                )
            return True
        for t in proper:
            for i in range(r):
                if t >> i & 1:
                    part_bits[i] |= 1 << j
            ok = rec(j + 1)
            for i in range(r):
                if t >> i & 1:
                    part_bits[i] &= ~(1 << j)
            if not ok:
                return False
        return True

    return rec(0)


def closure_intersection_agrees(matroid, u, v):
    """Does cl(U) ∩ cl(V) equal cl(U ∩ V), membership-tested on every element?"""
    u = frozenset(u)
    v = frozenset(v)
    w = u & v
    for x in matroid.ground:
        lhs = matroid.in_closure(x, u) and matroid.in_closure(x, v)
        if lhs != matroid.in_closure(x, w):
            return False
    return True


def check_intersection_lemma(matroid, basis, u, v):
    """The closure-intersection law for subsets of a basis.

    True whenever U, V sit inside a common basis; the hypothesis matters,
    and ``closure_intersection_agrees`` can be used directly to exhibit
    non-basis counterexamples.
    """
    basis = _require_basis(matroid, basis)
    u = frozenset(u)
    v = frozenset(v)
    if not (u <= set(basis) and v <= set(basis)):
        raise NotABasis("U and V must be subsets of the given basis")
    return closure_intersection_agrees(matroid, u, v)


def rota_check(matroid, bases):
    """Search for a repartition of m disjoint bases into m rainbow bases.

    The input sequence is the concatenation of the given bases, entry i of
    basis j colored j.  A witness is m pairwise disjoint rainbow parts each
    spanning the matroid; with m colors and m^2 entries every witness uses
    each entry exactly once, so labels range over parts only.  Feasible for
    rank at most 3.
    """
    m = matroid.rank_bound
    bases = [tuple(b) for b in bases]
    if len(bases) != m:
        raise PreconditionViolated(f"need exactly {m} bases, got {len(bases)}")
    if m > 3:
        raise PreconditionViolated("exhaustive repartition search is limited to rank <= 3")
    for b in bases:
        _require_basis(matroid, b)
    if m == 0:
        raise PreconditionViolated("rank-0 matroids have no bases to repartition")

    elements = [e for b in bases for e in b]
    seq = IndexedSequence.from_elements(elements)
    coloring = Coloring({i: i // m for i in range(m * m)})
    entries = seq.entries

    part_entries = [[] for _ in range(m)]
    part_elems = [[] for _ in range(m)]
    part_colors = [set() for _ in range(m)]

    def dfs(j):
        if j == len(entries):
            return True  # sizes, rainbowness and independence were enforced on the way
        entry = entries[j]
        color = coloring.of(entry)
        for part in range(m):
            if color in part_colors[part] or len(part_entries[part]) == m:
                continue
            if matroid.in_closure(entry[1], part_elems[part]):
                continue  # a dependent part can never grow into a basis
            part_entries[part].append(entry)
            part_elems[part].append(entry[1])
            part_colors[part].add(color)
            if dfs(j + 1):
                return True
            part_entries[part].pop()
            part_elems[part].pop()
            part_colors[part].discard(color)
        return False

    if not dfs(0):
        return None
    parts = [seq.with_indices(i for i, _ in p) for p in part_entries]
    for part in parts:
        if matroid.rank(part.set_image) != m:
            raise InternalInvariantBroken("a repartition part does not span")
    return build_partition(matroid, parts)
