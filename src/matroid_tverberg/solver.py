"""Constructive Tverberg partitions of colored sequences in matroids.

Given a sequence S of non-loops whose color counts meet the documented
profile, ``solve_special`` produces r pairwise disjoint rainbow subsequences
S_1..S_r whose closures form a chain strictly above the closure of the empty
set.  ``solve_general`` reduces the loose-profile form to it by padding the
matroid with fresh coloops, and ``solve_noncolor`` colors every entry
distinctly and delegates.

The engine behind ``solve_special`` grows an inclusion-maximal rainbow
independent subsequence RI.  The working matroid is the restriction of the
given matroid to the sequence's elements; closure in a restriction is
closure in the matroid intersected with the kept elements, so the engine
asks every question of the matroid it was given and carries only the
restriction's rank m.  If RI spans the working matroid (has m elements) it
becomes the top part and the rest is solved with r-1.  Otherwise a
replacement cycle maintains a color set K, a subsequence I of RI, and for
each eligible entry p an exchange sequence I^p that could replace I while
gaining a color new to RI.  Each cycle pass either finds the answer inside
a smaller flat, grows RI by one (and restarts), or advances (K, I) to a
strictly larger flat, so a cycle runs at most rank-many passes.

``verify_partition`` checks any candidate output using nothing beyond the
matroid (its closure oracle and its declared loops), independently of how
it was produced; the chain cl(empty) ⊊ cl(S_1) ⊆ ... ⊆ cl(S_r) is
certified by that check alone.  ``build_partition`` only assembles the
parts and picks the non-loop witness, and asks no closure question.  There
is one configuration: every public solve builds and verifies the answer it
returns, once.

On every cycle pass the engine checks the replacement rules that masks and
colors decide (``_check_rules``), and asks no closure question only to
check itself.  The rules that take closure either follow from those checks
(in case c, RI spans C_K and cl(I) strictly grows), or a fault that breaks
them (an exchange without its entry spanning other than cl(I), so that the
grown RI is dependent) ends in an answer that ``verify_partition`` rejects
or in one that still verifies.

Every closure question here goes through the matroid's ``covers``, which
answers by the member and coloop axioms where they settle it and asks
``in_closure``, counted, otherwise.  The loop axiom: x ∈ cl(∅) exactly when
x is one of the ``loops`` every family declares, so the input check, the
non-loop witness and the strictness check ask no question.  The coloop
fact also lets ``_case_advance`` drop a coloop outside C_K from a set
spanning C_K without a trial: the rest still spans C_K.
"""

from __future__ import annotations

import copy
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    InternalInvariantBroken,
    LoopInInput,
    PreconditionViolated,
    UnknownElement,
)
from .matroids import add_coloops
from .sequences import (
    Coloring,
    IndexedSequence,
    ProfileCheck,
    check_general_profile,
    check_special_counts,
    color_clash,
    distinct_elements,
    quota,
    ranked_counts,
)

@dataclass(frozen=True)
class Partition:
    """An ordered list of pairwise disjoint rainbow subsequences.

    ``witness_nonloop`` is the first entry of the first part outside
    cl(empty), read from the matroid's declared loops.  The chain of
    closures is not stored; ``verify_partition`` checks it.
    """

    parts: tuple
    witness_nonloop: tuple

    def part_indices(self):
        return tuple(tuple(sorted(p.indices)) for p in self.parts)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failure: str | None = None
    detail: str | None = None

    def __bool__(self):
        return self.ok


@dataclass
class SolveStats:
    """Instrumentation collected across one outermost solve call."""

    oracle_calls: int = 0
    cycle_iterations: int = 0
    restarts: int = 0
    recursion_depth: int = 0
    max_cycle_iterations: int = 0
    max_restarts_per_level: int = 0
    invariant_checks: int = 0
    wall_time: float = 0.0
    events: list = field(default_factory=list)

    def note(self, depth, label, **payload):
        self.events.append((depth, label, payload))


def build_partition(matroid, parts):
    """Assemble a Partition of ``parts``; asks the oracle no question."""
    parts = tuple(parts)
    first = parts[0] if parts else ()
    witness = next((entry for entry in first if not matroid.is_loop(entry[1])), None)
    if witness is None:
        raise InternalInvariantBroken("first part has no non-loop entry")
    return Partition(parts=parts, witness_nonloop=witness)


def verify_partition(matroid, seq, coloring, r, parts):
    """Check a candidate partition; reports the first violated predicate.

    Predicates, in order: part count, subsequence containment, pairwise
    disjointness, rainbowness (skipped without a coloring), strictness at the
    bottom (some entry of the first part is a non-loop), and the closure
    chain itself.  By the closure axioms cl(S_i) ⊆ cl(S_{i+1}) holds exactly
    when every element of S_i lies in cl(S_{i+1}), so the chain check asks
    that of each distinct element of each part but the last, in entry order.
    A failure's ``detail`` names the part and the entry, or the color, at
    fault.
    """
    if isinstance(parts, Partition):
        parts = parts.parts
    parts = tuple(parts)
    if r < 1 or len(parts) != r:
        return VerificationReport(False, "part_count", f"expected {r} parts, got {len(parts)}")
    entry_pool = set(seq.entries)
    for k, part in enumerate(parts, 1):
        for entry in part:
            if entry not in entry_pool:
                detail = f"entry ({entry[0]}, {entry[1]}) of part {k} is not an entry of S"
                return VerificationReport(False, "not_subsequence", detail)
    owner = {}
    for k, part in enumerate(parts, 1):
        for i, e in part:
            j = owner.setdefault(i, k)
            if j != k:
                detail = f"entry ({i}, {e}) is in part {j} and in part {k}"
                return VerificationReport(False, "disjointness", detail)
    if coloring is not None:
        for k, part in enumerate(parts, 1):
            clash = color_clash(part, coloring)
            if clash is not None:
                (i, e), (j, f) = clash
                color = coloring.of(clash[1])
                detail = f"entries ({i}, {e}) and ({j}, {f}) of part {k} share color {color}"
                return VerificationReport(False, "rainbow", detail)
    strict = any(not matroid.is_loop(e) for _, e in parts[0])
    if not strict:
        if len(parts[0]) == 0:
            detail = "part 1 is empty, so its closure is cl(empty)"
        else:
            i, e = parts[0].entries[0]
            detail = f"every entry of part 1, the first ({i}, {e}), is a loop"
        return VerificationReport(False, "strictness", detail)
    for i in range(r - 1):
        target = parts[i + 1].set_image
        for e in distinct_elements(parts[i]):
            if not matroid.covers(e, target):
                index = next(j for j, el in parts[i] if el == e)
                detail = f"entry ({index}, {e}) of part {i + 1} is outside cl(part {i + 2})"
                return VerificationReport(False, "chain", detail)
    return VerificationReport(True)


def _validate_input(matroid, seq, coloring, r):
    if not isinstance(r, int) or r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    if len(seq) == 0:
        raise PreconditionViolated("the sequence is empty")
    for i, e in seq:
        if e not in matroid.ground_set:
            raise UnknownElement(f"sequence entry ({i}, {e!r}) is not in the ground set")
    if coloring is None:
        raise PreconditionViolated("no coloring given (solve_noncolor solves without colors)")
    coloring.colors_of(seq)
    loops = matroid.loops
    for i, e in seq:
        if e in loops:
            raise LoopInInput(f"entry ({i}, {e!r}) is a loop")


def special_precondition(matroid, seq, coloring, r):
    """Evaluate the exact-profile precondition the way solve_special will."""
    try:
        _validate_input(matroid, seq, coloring, r)
    except (PreconditionViolated, LoopInInput) as exc:
        return ProfileCheck(False, str(exc))
    work = _Bits(seq.entries, map(coloring.of, seq))
    _, (_, m) = _normalize(matroid, work, work.full)
    return check_special_counts(work.profile(), r, m)


def general_precondition(matroid, seq, coloring, r):
    """Evaluate the loose-profile precondition the way solve_general will."""
    try:
        _validate_input(matroid, seq, coloring, r)
    except (PreconditionViolated, LoopInInput) as exc:
        return ProfileCheck(False, str(exc))
    return check_general_profile(seq, coloring, r, matroid.rank_bound)


def solve_special(matroid, seq, coloring, r, *, stats=None):
    """Partition under the exact-profile hypothesis (m colors, counts >= r / r-1).

    ``stats`` gets the solve's ``oracle_calls`` and ``wall_time`` however
    the solve ends, with a partition or with an exception.
    """
    stats = SolveStats() if stats is None else stats
    start = time.perf_counter()
    calls0 = matroid.oracle_calls
    try:
        _validate_input(matroid, seq, coloring, r)
        work = _Bits(seq.entries, map(coloring.of, seq))
        parts = _special_parts(matroid, work, r, stats)
        return _certified(matroid, seq, coloring, r, map(work.sequence, parts))
    finally:
        stats.oracle_calls = matroid.oracle_calls - calls0
        stats.wall_time = time.perf_counter() - start


def _special_parts(matroid, work, r, stats):
    """The parts of ``work``'s sequence under the exact profile, as masks, for validated input."""
    nseq, restriction = _normalize(matroid, work, work.full)
    profile_ok = check_special_counts(work.profile(), r, restriction[1])
    if not profile_ok:
        raise PreconditionViolated(f"special profile violated: {profile_ok.reason}")
    return _solve(matroid, work, nseq, r, restriction, stats)


def _certified(matroid, seq, coloring, r, parts):
    """The Partition of ``parts``, verified."""
    partition = build_partition(matroid, parts)
    report = verify_partition(matroid, seq, coloring, r, partition.parts)
    if not report:
        raise InternalInvariantBroken(f"output failed verification: {report.failure}")
    return partition


def solve_general(matroid, seq, coloring, r, *, stats=None):
    """Partition under the loose-profile hypothesis (counts <= r / r-1, |S| > m(r-1)).

    Trims S to exactly m(r-1)+1 entries, adjoins one fresh coloop per color
    beyond the rank (each appended r-1 times and colored so that counts
    become exactly r / r-1), solves the exact-profile instance, and drops
    the padded entries from the answer.  ``stats`` gets the solve's
    ``oracle_calls``, the padding's included, and ``wall_time`` however the
    solve ends.
    """
    stats = SolveStats() if stats is None else stats
    start = time.perf_counter()
    calls0 = matroid.oracle_calls
    padded_matroid = matroid
    try:
        _validate_input(matroid, seq, coloring, r)
        m = matroid.rank_bound
        profile_ok = check_general_profile(seq, coloring, r, m)
        if not profile_ok:
            raise PreconditionViolated(f"general profile violated: {profile_ok.reason}")
        if r == 1:
            # One entry of a loopless sequence.  Its verification asks no
            # question: there is no pair of parts to chain, and strictness
            # reads the declared loops.
            return _certified(matroid, seq, coloring, r, [seq.take_first(1)])

        keep = m * (r - 1) + 1
        trimmed = seq.entries[:keep]
        colors = [coloring.of(entry) for entry in trimmed]
        ranked = ranked_counts(Counter(colors))
        if len(ranked) < m:
            raise InternalInvariantBroken("color count fell below the rank after trimming")

        padded_matroid = add_coloops(matroid, len(ranked) - m)
        coloops = padded_matroid.ground[len(matroid.ground):]
        padding = [x for x in coloops for _ in range(r - 1)]

        deficits = []
        for pos, (col, count) in enumerate(ranked):
            if count > quota(pos, r):
                raise InternalInvariantBroken(f"color {col!r} exceeds its padded target")
            deficits.extend([col] * (quota(pos, r) - count))
        if len(deficits) != len(padding):
            raise InternalInvariantBroken("coloop padding does not match the color deficits")

        # The padding entries get indices above every index of S, so they
        # take the bits above the trimmed entries.  Only the parts projected
        # onto the original instance are certified: they are what this
        # function returns.
        padded = trimmed + tuple(enumerate(padding, max(seq.indices) + 1))
        work = _Bits(padded, colors + deficits)
        parts = _special_parts(padded_matroid, work, r, stats)
        original = (1 << keep) - 1
        return _certified(matroid, seq, coloring, r, [work.sequence(p & original) for p in parts])
    finally:
        stats.oracle_calls = padded_matroid.oracle_calls - calls0
        stats.wall_time = time.perf_counter() - start


def solve_noncolor(matroid, seq, r, *, stats=None):
    """Partition without color constraints: |S| > m(r-1) suffices.

    Every entry receives its own color, which satisfies the loose profile.
    """
    coloring = Coloring({i: f"c{i}" for i, _ in seq})
    return solve_general(matroid, seq, coloring, r, stats=stats)


# ---------------------------------------------------------------------------
# The engine.


class _Bits:
    """Entries, in index order, and their colors as bits: entry b is 1 << b.

    The engine holds the working sequence, RI, I, C_K and each I^p as int
    masks and walks a mask's bits lowest first, which is index order, so it
    asks the questions the entries would ask, in the same order.
    ``restrict`` makes a mask the working sequence and maps each of its
    colors to the mask of its entries in ``classes``, and ``sequence`` maps
    a mask back to its entries.  A mask's bit positions and its elements as
    a frozenset are built once per solve; ``recolored`` copies share them.
    """

    def __init__(self, entries, colors):
        self.index = [i for i, _ in entries]
        self.element = [e for _, e in entries]
        self.color = list(colors)
        self.full = (1 << len(self.index)) - 1
        self._positions = {self.full: list(range(len(self.index)))}
        self._sets = {}

    def bits(self, mask):
        """The bit positions of ``mask``, lowest first; the list is shared, not a copy."""
        positions = self._positions.get(mask)
        if positions is None:
            positions, rest = [], mask
            while rest:
                low = rest & -rest
                positions.append(low.bit_length() - 1)
                rest ^= low
            self._positions[mask] = positions
        return positions

    def elements(self, mask):
        elements = self._sets.get(mask)
        if elements is None:
            elements = self._sets[mask] = frozenset([self.element[b] for b in self.bits(mask)])
        return elements

    def sequence(self, mask):
        """The entries of ``mask`` as an ``IndexedSequence``."""
        return IndexedSequence([(self.index[b], self.element[b]) for b in self.bits(mask)])

    def order(self, mask):
        """The distinct elements of ``mask``, in index order."""
        return tuple(dict.fromkeys([self.element[b] for b in self.bits(mask)]))

    def restrict(self, mask):
        members, color = {}, self.color
        for b in self.bits(mask):
            members.setdefault(color[b], []).append(b)
        self.classes = {c: sum([1 << b for b in bits]) for c, bits in members.items()}
        self._positions.update(zip(self.classes.values(), members.values()))

    def recolored(self, mask, color):
        """A copy whose entries in ``mask`` carry ``color``; this one keeps its colors."""
        other = copy.copy(self)
        other.color = [color if mask >> b & 1 else c for b, c in enumerate(self.color)]
        return other

    def profile(self):
        """The ranked (color, count) pairs of the working sequence."""
        return ranked_counts({c: cls.bit_count() for c, cls in self.classes.items()})

    def classes_of(self, mask):
        """The color classes that meet ``mask``; being disjoint, they sum to their union."""
        classes, color = self.classes, self.color
        return {classes[color[b]] for b in self.bits(mask)}


def _normalize(matroid, work, seq, restriction=None):
    """Drop whole color classes of the mask ``seq`` until #colors <= its rank m.

    Returns the surviving mask, left as ``work``'s working sequence, and
    ``(elements, m)``: the restriction M|elements the engine works in (see
    the module docstring).  Dropping keeps the most frequent colors, so the
    r / r-1 count thresholds survive each round.  ``restriction`` is an
    earlier ``(elements, m)``; its rank is reused while the elements stay.
    """
    work.restrict(seq)
    while True:
        elements = work.elements(seq)
        if restriction is None or restriction[0] != elements:
            restriction = (elements, matroid.rank(elements))
        if len(work.classes) <= restriction[1]:
            return seq, restriction
        work.classes = {c: work.classes[c] for c, _ in work.profile()[:restriction[1]]}
        seq = sum(work.classes.values())


def _extend_rainbow(matroid, work, seq, seed):
    """Extend the rainbow independent mask ``seed`` to a maximal one inside ``seq``, in index order."""
    element, color = work.element, work.color
    chosen, used = seed, {color[b] for b in work.bits(seed)}
    elems = set(work.elements(seed))
    for b in work.bits(seq):
        if color[b] in used or matroid.covers(element[b], elems):
            continue
        chosen |= 1 << b
        used.add(color[b])
        elems.add(element[b])
    return chosen


def _solve(matroid, work, seq, r, restriction, stats):
    """Returns r disjoint rainbow parts of ``seq``, as masks, with chained closures.

    ``seq`` comes normalized, and ``restriction`` is the ``(elements, m)``
    that ``_normalize`` returned with it.  Trusts that (seq, r) with
    ``work``'s colors satisfies the special profile after normalization;
    that is asserted (never raised on legal public input).

    Both ways down are steps of one loop, not recursive calls, so the stack
    does not grow with r or with the rank: a spanning RI becomes the top
    part and the rest is solved with r-1 one depth further down, and a
    cycle that finds a smaller flat (case a) hands over the instance inside
    it, solved with the same r one depth further down.  ``tops`` collects
    the top parts of every depth, outermost first.
    """
    tops = []
    depth = 1
    while True:
        stats.recursion_depth = max(stats.recursion_depth, depth)
        if r == 1:
            # A single non-loop entry settles r = 1; no profile is needed, and
            # after carving out a spanning RI with r' = 1 a color may
            # legitimately have run out.
            return [seq & -seq] + tops[::-1]
        seq, restriction = _normalize(matroid, work, seq, restriction)
        m = restriction[1]
        ok = check_special_counts(work.profile(), r, m)
        if not ok:
            raise InternalInvariantBroken(f"recursion lost the color profile: {ok.reason}")
        if m == 1:
            # Every entry spans the rank-1 working matroid; the profile
            # guarantees at least r entries.
            if seq.bit_count() < r:
                raise InternalInvariantBroken("rank-1 base case is short of entries")
            return [1 << b for b in work.bits(seq)[:r]] + tops[::-1]

        ri = _extend_rainbow(matroid, work, seq, 0)
        restarts = 0
        while ri.bit_count() < m:
            kind, found = _run_cycle(matroid, work, m, seq, ri, depth, stats)
            if kind == "flat":
                break
            restarts += 1
            stats.restarts += 1
            stats.max_restarts_per_level = max(stats.max_restarts_per_level, restarts)
            if restarts > m:
                raise InternalInvariantBroken("more cycle restarts than the rank allows")
            if found.bit_count() != ri.bit_count() + 1:
                raise InternalInvariantBroken("restart did not grow the rainbow independent set")
            ri = _extend_rainbow(matroid, work, seq, found)
        else:
            # RI spans: it is the top part, and r-1 parts remain below it.
            stats.note(depth, "spanning", ri=ri.bit_count(), r=r)
            tops.append(ri)
            seq, r, depth = seq & ~ri, r - 1, depth + 1
            continue
        # Case a: the parts lie inside a smaller flat, with the same r and
        # case a's own colors.
        (seq, work), depth = found, depth + 1


def _run_cycle(matroid, work, m, seq, ri, depth, stats):
    """One run of the replacement cycle for a non-spanning RI of rank-m elements.

    Returns ("flat", (sub_seq, recolored work)) when the answer lies inside
    a smaller flat and the caller should solve that instance, or ("grow",
    enlarged_seed) when RI can be extended and the caller should restart.  K is held as
    C_K, the mask of its color classes, and the exchange map ``aug`` takes
    each eligible entry p to (I^p, the class of the color I^p gains).
    """
    ri_cover = sum(work.classes_of(ri))
    c_k = seq & ~ri_cover
    if not c_k:
        raise InternalInvariantBroken("no color is free although RI does not span")
    i_mask = 0
    # Initially every entry colored from K is eligible (non-loops are never
    # in cl(empty)) and may simply replace the empty I by itself.
    aug = {b: (1 << b, work.classes[work.color[b]]) for b in work.bits(c_k)}
    element = work.element

    iterations = 0
    while True:
        i_elems = work.elements(i_mask)
        outside_i = [b for b in work.bits(c_k) if not matroid.covers(element[b], i_elems)]
        _check_rules(work, ri, ri_cover, c_k, i_mask, aug, outside_i, stats)
        iterations += 1
        stats.cycle_iterations += 1
        stats.max_cycle_iterations = max(stats.max_cycle_iterations, iterations)
        if iterations > m:
            raise InternalInvariantBroken("cycle ran longer than the rank allows")

        if not outside_i:
            stats.note(depth, "case_a", k=len(work.classes_of(c_k)), i=i_mask.bit_count())
            return "flat", _case_smaller_flat(work, i_mask, c_k)

        ri_elems = work.elements(ri)
        escape = next((p for p in outside_i if not matroid.covers(element[p], ri_elems)), None)
        if escape is not None:
            stats.note(depth, "case_b", p=work.index[escape])
            return "grow", _case_grow(work, seq, ri, i_mask, aug, escape)

        stats.note(depth, "case_c", k=len(work.classes_of(c_k)), i=i_mask.bit_count())
        c_k, i_mask, aug = _case_advance(matroid, work, ri, i_mask, aug, c_k)


def _case_smaller_flat(work, i_mask, c_k):
    """Every K-colored entry lies in cl(I): the instance inside that flat.

    The I-colored entries plus one K-colored entry of a fresh color live in
    a matroid of strictly smaller rank; merging that fresh color with the
    most frequent color of I keeps the profile intact, and parts rainbow
    under the merged coloring stay rainbow under the original one.  The
    merged color is the first of z1, z2, ... that the working sequence does
    not carry.  Returns the sub-sequence and a recolored copy of ``work``;
    ``work`` keeps its colors.
    """
    if not i_mask:
        raise InternalInvariantBroken("the flat case fired with an empty I")
    core = sum(work.classes_of(i_mask))
    candidates = c_k & ~core
    if not candidates:
        raise InternalInvariantBroken("no K-colored entry outside the colors of I")
    p = candidates & -candidates
    counts = {work.color[b]: work.classes[work.color[b]].bit_count() for b in work.bits(i_mask)}
    k1 = ranked_counts(counts)[0][0]
    z = next(f"z{n}" for n in itertools.count(1) if f"z{n}" not in work.classes)
    return core | p, work.recolored(work.classes[k1] | p, z)


def _case_grow(work, seq, ri, i_mask, aug, p):
    """Some eligible entry p escapes cl(RI): swap I for I^p, growing RI by one.

    The grown mask seeds the restart.  Its colors and size are checked
    here; that it is independent follows from rule 4 and p escaping cl(RI),
    and is not asked (see the module docstring).
    """
    if p not in aug:
        raise InternalInvariantBroken("escaping entry has no exchange sequence")
    exchange, _ = aug[p]
    grown = ri & ~i_mask | exchange
    if grown & ~seq:
        raise InternalInvariantBroken("exchange left the sequence")
    if len(work.classes_of(grown)) != grown.bit_count():
        raise InternalInvariantBroken("exchange broke rainbowness of RI")
    if grown.bit_count() != ri.bit_count() + 1:
        raise InternalInvariantBroken("exchange did not enlarge RI by one")
    return grown


def _case_advance(matroid, work, ri, i_mask, aug, c_k):
    """All of C_K sits inside cl(RI) but not inside cl(I): enlarge (K, I).

    The new I is an inclusion-minimal subsequence of RI spanning C_K,
    computed by greedy deletion in ascending index order.  For every entry p
    of a color new to K that escapes cl(new I), an exchange sequence is
    assembled from the old rules.  Returns the new C_K, I and exchange map.
    """
    element = work.element
    ck_elems = work.order(c_k)
    ck_set = work.elements(c_k)
    coloops = matroid.known_coloops

    def spans(elems):
        return all(matroid.covers(x, elems) for x in ck_elems)

    # RI is independent, so its elements are distinct, and a trial without
    # an entry cannot span the entry's own element: known without asking.
    # RI spans C_K: the escape scan put every entry outside cl(I) inside
    # cl(RI).  Were one outside, it would stay outside cl(next I) with no
    # exchange (the new map holds colors new to K only), and the next
    # pass's domain check would fail.
    i_next, i_next_elems = ri, work.elements(ri)
    for b in work.bits(ri):
        if element[b] in ck_set:
            continue
        trial = i_next_elems - {element[b]}
        # A coloop outside C_K adds nothing to the span of C_K: the trial
        # spans because ``i_next`` does.
        if element[b] in coloops or spans(trial):
            i_next, i_next_elems = i_next & ~(1 << b), trial

    # I ⊊ next I ⊆ RI, and RI is independent, so cl(I) strictly grows.
    if i_mask & ~i_next or i_mask == i_next:
        raise InternalInvariantBroken("I did not strictly grow")

    aug_next = {}
    for rr in work.bits(i_next & ~i_mask):
        reduced = i_next & ~(1 << rr)
        reduced_elems = i_next_elems - {element[rr]}
        witness = next((q for q in work.bits(c_k) if not matroid.covers(element[q], reduced_elems)), None)
        if witness is None:
            raise InternalInvariantBroken("minimal I has a removable entry")
        if witness not in aug:
            raise InternalInvariantBroken("the witness entry has no exchange sequence")
        exchange_q, gained_q = aug[witness]
        base = reduced & ~i_mask | exchange_q
        for p in work.bits(work.classes[work.color[rr]]):
            if matroid.covers(element[p], i_next_elems):
                continue
            aug_next[p] = (base | 1 << p, gained_q)
    return c_k | sum(work.classes_of(i_next)), i_next, aug_next


def _check_rules(work, ri, ri_cover, c_k, i_mask, aug, outside_i, stats):
    """Assert the replacement rules that need no closure question, plus domain.

    (1) colors of I form a proper subset of K; (2) each exchange uses the
    colors of I plus one color from K unused by RI; (3) each exchange is one
    entry longer than I; (4) each exchange contains its entry p (that it
    spans exactly cl(I) without p is not asked; see ``_case_grow``); (5) RI
    meets the K-colored entries exactly in I, and K keeps a color unused by
    RI.  ``c_k`` is the K-colored part of the sequence, ``ri_cover`` the
    part colored like RI, and ``outside_i`` the entries of ``c_k`` outside
    cl(I) as the cycle's scan at the top of this pass found them; the domain
    of ``aug`` must be exactly those.  Color classes are disjoint and not
    empty, so an exchange has the colors of I plus the gained one exactly
    when it lies in the union of their classes and meets each.
    """
    stats.invariant_checks += 1
    i_classes = work.classes_of(i_mask)
    i_cover = sum(i_classes)
    if i_mask & ~c_k or not c_k & ~i_cover:
        raise InternalInvariantBroken("rules: colors of I do not sit strictly inside K")
    if not c_k & ~ri_cover:
        raise InternalInvariantBroken("rules: K has no color unused by RI")
    if ri & c_k != i_mask:
        raise InternalInvariantBroken("rules: RI meets C_K in something other than I")
    if set(aug) != set(outside_i):
        raise InternalInvariantBroken("rules: exchange map domain mismatch")
    size, outside_k = i_mask.bit_count() + 1, ~c_k | ri
    for p, (exchange, gained) in aug.items():
        if exchange.bit_count() != size:
            raise InternalInvariantBroken("rules: exchange length is not |I| + 1")
        if not exchange >> p & 1:
            raise InternalInvariantBroken("rules: exchange does not contain its entry")
        allowed = i_cover | gained
        if exchange & ~allowed or not gained & exchange or not all(map(exchange.__and__, i_classes)):
            raise InternalInvariantBroken("rules: exchange colors are not colors(I) plus one")
        if gained & outside_k:
            raise InternalInvariantBroken("rules: the gained color is not free in K")
