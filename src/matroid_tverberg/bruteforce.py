"""Independent ground truth for the solvers, at desk scale.

``brute_force_solve`` searches every assignment of sequence entries to one
of {unused, part 1, .., part r} and reports the first (in lexicographic
order) whose parts pass ``verify_partition``.  It shares nothing with the
constructive solver beyond the closure oracle, so agreement between the two
is meaningful evidence.

The module also builds the worst-case instances of length m(r-1) that admit
no partition, checks them exhaustively, checks the closure-intersection law
for subsets of a basis, and contains a small exhaustive checker for the
rainbow-bases repartition question (feasible for rank at most 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    NotABasis,
    PreconditionViolated,
)
from .sequences import Coloring, IndexedSequence, distinct_elements
from .solver import Partition, build_partition, verify_partition


@dataclass(frozen=True)
class BruteForceBudget:
    """Caps that keep exhaustive enumeration from running unbounded.

    ``max_assignments`` bounds visited search-tree nodes, which in turn
    bounds the number of labelings examined.
    """

    max_entries: int = 12
    max_r: int = 4
    max_assignments: int = 20_000_000


DEFAULT_BUDGET = BruteForceBudget()


def brute_force_solve(matroid, seq, coloring, r, budget=None):
    """Exhaustive search for a valid partition; None when none exists.

    Entries are assigned labels {0 = unused, 1..r} in lexicographic order
    over (index, label); the first assignment whose parts verify wins, so
    witnesses are deterministic.  Two sound prunes keep the search tree
    small without changing that witness: a color repeated inside a part can
    never be repaired by extensions, and every part of a valid partition
    must contain a non-loop, so states with more nonloop-free parts than
    non-loop entries remaining are dead.
    """
    budget = budget or DEFAULT_BUDGET
    if not isinstance(r, int) or r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    n = len(seq)
    if n > budget.max_entries:
        raise BudgetExceeded(f"|S| = {n} exceeds the budget of {budget.max_entries}")
    if r > budget.max_r:
        raise BudgetExceeded(f"r = {r} exceeds the budget of {budget.max_r}")

    entries = seq.entries
    nonloop = [not matroid.in_closure(e, ()) for _, e in entries]
    # nonloop_left[j] = how many non-loop entries sit at positions >= j.
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
        if nodes > budget.max_assignments:
            raise BudgetExceeded(f"assignment budget of {budget.max_assignments} exhausted")
        empty = sum(1 for c in part_nonloops if c == 0)
        if empty > nonloop_left[j]:
            return False
        if j == n:
            if leaf_valid():
                found.extend(list(p) for p in part_entries)
                return True
            return False
        entry = entries[j]
        if dfs(j + 1):  # label 0: leave the entry unused
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
        return None
    parts = [seq.with_indices(i for i, _ in p) for p in found]
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


def check_tightness(matroid, basis, r, budget=None):
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
    budget = budget or DEFAULT_BUDGET
    basis = _require_basis(matroid, basis)
    if r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    m = len(basis)
    if m * (r - 1) > budget.max_entries:
        raise BudgetExceeded(f"m(r-1) = {m * (r - 1)} exceeds the budget of {budget.max_entries}")
    profile_count = (2**r - 1) ** m
    if profile_count > budget.max_assignments:
        raise BudgetExceeded(f"{profile_count} divisions exceed the assignment budget")

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
    proper = list(range(full))  # every subset of parts except all of them
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


def rota_check(matroid, bases, budget=None):
    """Search for a repartition of m disjoint bases into m rainbow bases.

    The input sequence is the concatenation of the given bases, entry i of
    basis j colored j.  A witness is m pairwise disjoint rainbow parts each
    spanning the matroid; with m colors and m^2 entries every witness uses
    each entry exactly once, so labels range over parts only.  Feasible for
    rank at most 3.
    """
    budget = budget or DEFAULT_BUDGET
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
    nodes = 0

    def dfs(j):
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_assignments:
            raise BudgetExceeded(f"assignment budget of {budget.max_assignments} exhausted")
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
