"""Checkers that only the tests call, kept beside ``conftest.py``.

The package ships the solvers, ``verify_partition`` and the brute-force
referee.  These checkers are acceptance evidence on top of them: the
worst-case instances of length m(r-1) that admit no partition and their
exhaustive check, the closure-intersection law for subsets of a basis, a
small exhaustive checker for the rainbow-bases repartition question
(feasible for rank at most 3), and the closure, coloop, rainbow,
special-profile and rainbow-independent helpers the tests read answers
from.  Each sees the matroid only through its closure oracle.  An argument
that must be, or lie inside, a basis or a rainbow independent seed and is
not raises ``ValueError``.
"""

from collections import Counter

from matroid_tverberg import (
    BudgetExceeded,
    Coloring,
    IndexedSequence,
    InternalInvariantBroken,
    PreconditionViolated,
    build_partition,
)
from matroid_tverberg.bruteforce import MAX_ENTRIES
from matroid_tverberg.sequences import check_special_counts, color_clash, ranked_counts
from matroid_tverberg.solver import _Bits, _extend_rainbow


def closure(matroid, ys):
    """The closure of ``ys`` as a frozenset of ground elements."""
    return frozenset(x for x in matroid.ground if matroid.in_closure(x, ys))


def is_coloop(matroid, x):
    """Is x outside the closure of every other element?"""
    return not matroid.in_closure(x, matroid.ground_set - {x})


def is_rainbow(seq, coloring):
    """True iff no two entries of ``seq`` share a color."""
    return color_clash(seq, coloring) is None


def check_special_profile(seq, coloring, r, m):
    """The exact form the engine runs on, read from ``seq`` and ``coloring``."""
    return check_special_counts(ranked_counts(Counter(map(coloring.of, seq))), r, m)


def max_rainbow_independent(matroid, seq, coloring, seed=None):
    """Extend ``seed`` to an inclusion-maximal rainbow independent subsequence.

    Scans entries in ascending index order; deterministic.
    """
    if seed is None:
        seed = seq.with_indices(())
    if not set(seed.entries) <= set(seq.entries):
        raise ValueError("seed is not a subsequence of S")
    if not is_rainbow(seed, coloring):
        raise ValueError("seed is not rainbow")
    if matroid.rank(seed.set_image) != len(seed):
        raise ValueError("seed is not independent")
    work = _Bits(seq.entries, map(coloring.of, seq))
    seed_mask = sum(1 << b for b, i in enumerate(work.index) if i in seed.indices)
    ri, _ = _extend_rainbow(matroid, work, work.full, seed_mask)
    return work.sequence(ri)


def _require_basis(matroid, basis):
    basis = tuple(basis)
    if len(set(basis)) != len(basis):
        raise ValueError("repeated elements")
    if matroid.rank(basis) != len(basis):
        raise ValueError("the elements are dependent")
    if len(basis) != matroid.rank_bound:
        raise ValueError(
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
    to each division as a cross-check only.  The referee's entry cap bounds
    m(r-1) by ``MAX_ENTRIES`` = 12, so for m >= 1 there are at most
    (2**r - 1)**m <= 3**12 = 531,441 divisions.
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
        raise ValueError("U and V must be subsets of the given basis")
    return closure_intersection_agrees(matroid, u, v)


def rota_check(matroid, bases):
    """Search for a repartition of m disjoint bases into m rainbow bases.

    The input sequence is the concatenation of the given bases, entry i of
    basis j colored j.  A witness is m pairwise disjoint rainbow parts each
    spanning the matroid; with m colors and m^2 entries every witness uses
    each entry exactly once, so labels range over parts only.  Feasible for
    rank at most 3: m <= 3 bounds the search by (3**10 - 1)/2 = 29,524 nodes.
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
