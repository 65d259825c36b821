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
returns, once, and the engine asserts the replacement rules on every cycle
pass.

Every closure question here goes through the matroid's ``covers``, which
answers by the member and coloop axioms where they settle it and asks
``in_closure``, counted, otherwise.  The loop axiom: x ∈ cl(∅) exactly when
x is one of the ``loops`` every family declares, so the input check, the
non-loop witness and the strictness check ask no question.  The coloop
fact also lets ``_case_advance`` drop a coloop outside C_K from a set
spanning C_K without a trial: the rest still spans C_K.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .errors import (
    InternalInvariantBroken,
    LoopInInput,
    PreconditionViolated,
    SeedInvalid,
    UnknownElement,
)
from .matroids import add_coloops
from .sequences import (
    ColorCountProfile,
    Coloring,
    IndexedSequence,
    ProfileCheck,
    check_general_profile,
    check_special_profile,
    color_clash,
    color_class,
    distinct_elements,
    is_rainbow,
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


def max_rainbow_independent(matroid, seq, coloring, seed=None):
    """Extend ``seed`` to an inclusion-maximal rainbow independent subsequence.

    Scans entries in ascending index order; deterministic.
    """
    if seed is None:
        seed = seq.with_indices(())
    if not seed.is_subsequence_of(seq):
        raise SeedInvalid("seed is not a subsequence of S")
    if not is_rainbow(seed, coloring):
        raise SeedInvalid("seed is not rainbow")
    if matroid.rank(seed.set_image) != len(seed):
        raise SeedInvalid("seed is not independent")
    return _extend_rainbow(matroid, seq, coloring, seed)


def _extend_rainbow(matroid, seq, coloring, seed):
    """``max_rainbow_independent`` for a seed already known to be valid."""
    chosen = list(seed.entries)
    used_colors = {coloring.of(entry) for entry in seed}
    elems = set(seed.set_image)
    for entry in seq:
        color = coloring.of(entry)
        if color in used_colors or matroid.covers(entry[1], elems):
            continue
        chosen.append(entry)
        used_colors.add(color)
        elems.add(entry[1])
    return seq.with_indices(i for i, _ in chosen)


def _validate_input(matroid, seq, coloring, r):
    if not isinstance(r, int) or r < 1:
        raise PreconditionViolated(f"r must be a positive integer, got {r!r}")
    if len(seq) == 0:
        raise PreconditionViolated("the sequence is empty")
    for i, e in seq:
        if e not in matroid.ground_set:
            raise UnknownElement(f"sequence entry ({i}, {e!r}) is not in the ground set")
    if coloring is not None:
        for entry in seq:
            coloring.of(entry)
    loops = matroid.loops
    for i, e in seq:
        if e in loops:
            raise LoopInInput(f"entry ({i}, {e!r}) is a loop")


def _normalize(matroid, seq, coloring, restriction=None):
    """Drop whole color classes until #colors == rank of the sequence.

    Returns the surviving sequence and ``(elements, m)``: the elements of
    the sequence and their rank m, which equals the number of colors
    whenever the instance satisfies the special profile.  The coloring
    passes through unchanged: the colors in play are those of the returned
    sequence.  The working matroid is the restriction M|elements; since
    cl_{M|X}(Y) = cl_M(Y) ∩ X, every closure question about it is asked of
    ``matroid`` itself, and m is all the restriction adds.  Dropping keeps
    the most frequent colors, so the r / r-1 count thresholds survive each
    round.  ``restriction`` is an earlier ``(elements, m)``; its rank is
    reused while the elements stay.
    """
    while True:
        if restriction is None or restriction[0] != seq.set_image:
            restriction = (seq.set_image, matroid.rank(seq.set_image))
        m = restriction[1]
        used = coloring.colors_of(seq)
        if len(used) <= m:
            return seq, restriction
        profile = ColorCountProfile.of(seq, coloring)
        seq = color_class(seq, coloring, profile.top(m))


def special_precondition(matroid, seq, coloring, r):
    """Evaluate the exact-profile precondition the way solve_special will."""
    try:
        _validate_input(matroid, seq, coloring, r)
    except (PreconditionViolated, LoopInInput) as exc:
        return ProfileCheck(False, str(exc))
    nseq, (_, m) = _normalize(matroid, seq, coloring)
    return check_special_profile(nseq, coloring, r, m)


def general_precondition(matroid, seq, coloring, r):
    """Evaluate the loose-profile precondition the way solve_general will."""
    try:
        _validate_input(matroid, seq, coloring, r)
    except (PreconditionViolated, LoopInInput) as exc:
        return ProfileCheck(False, str(exc))
    return check_general_profile(seq, coloring, r, matroid.rank_bound)


def solve_special(matroid, seq, coloring, r, *, stats=None):
    """Partition under the exact-profile hypothesis (m colors, counts >= r / r-1)."""
    stats = SolveStats() if stats is None else stats
    start = time.perf_counter()
    calls0 = matroid.oracle_calls
    _validate_input(matroid, seq, coloring, r)
    parts = _special_parts(matroid, seq, coloring, r, stats)
    partition = _certified(matroid, seq, coloring, r, parts)
    stats.oracle_calls = matroid.oracle_calls - calls0
    stats.wall_time = time.perf_counter() - start
    return partition


def _special_parts(matroid, seq, coloring, r, stats):
    """The parts ``solve_special`` returns, for input it has already validated."""
    nseq, restriction = _normalize(matroid, seq, coloring)
    profile_ok = check_special_profile(nseq, coloring, r, restriction[1])
    if not profile_ok:
        raise PreconditionViolated(f"special profile violated: {profile_ok.reason}")
    parts = _solve(matroid, nseq, coloring, r, restriction, stats)
    return [seq.with_indices(p.indices) for p in parts]


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
    the padded entries from the answer.
    """
    stats = SolveStats() if stats is None else stats
    start = time.perf_counter()
    calls0 = matroid.oracle_calls
    _validate_input(matroid, seq, coloring, r)
    m = matroid.rank_bound
    profile_ok = check_general_profile(seq, coloring, r, m)
    if not profile_ok:
        raise PreconditionViolated(f"general profile violated: {profile_ok.reason}")
    if r == 1:
        # One entry of a loopless sequence.  Its verification asks no
        # question: there is no pair of parts to chain, and strictness reads
        # the declared loops.
        partition = _certified(matroid, seq, coloring, r, [seq.take_first(1)])
        stats.oracle_calls = matroid.oracle_calls - calls0
        stats.wall_time = time.perf_counter() - start
        return partition

    keep = m * (r - 1) + 1
    trimmed = seq.take_first(keep)
    used = coloring.colors_of(trimmed)
    d = len(used)
    if d < m:
        raise InternalInvariantBroken("color count fell below the rank after trimming")

    padded_matroid = add_coloops(matroid, d - m)
    coloops = padded_matroid.ground[len(matroid.ground):]
    next_index = (max(i for i, _ in seq) + 1) if len(seq) else 0
    extra_entries = []
    for x in coloops:
        for _ in range(r - 1):
            extra_entries.append((next_index, x))
            next_index += 1

    profile = ColorCountProfile.of(trimmed, coloring)
    deficits = []
    for pos, (col, count) in enumerate(profile.counts):
        target = r if pos == 0 else r - 1
        if count > target:
            raise InternalInvariantBroken(f"color {col!r} exceeds its padded target")
        deficits.extend([col] * (target - count))
    if len(deficits) != len(extra_entries):
        raise InternalInvariantBroken("coloop padding does not match the color deficits")

    padded_seq = IndexedSequence(list(trimmed.entries) + extra_entries)
    assignment = {i: coloring.of_index(i) for i in trimmed.indices}
    assignment.update({entry[0]: col for entry, col in zip(extra_entries, deficits)})
    padded_coloring = Coloring(assignment)

    # Only the parts projected onto the original instance are certified:
    # they are what this function returns.
    inner = _special_parts(padded_matroid, padded_seq, padded_coloring, r, stats)
    kept_indices = trimmed.indices
    parts = [seq.with_indices(p.indices & kept_indices) for p in inner]
    partition = _certified(matroid, seq, coloring, r, parts)
    stats.oracle_calls = padded_matroid.oracle_calls - calls0
    stats.wall_time = time.perf_counter() - start
    return partition


def solve_noncolor(matroid, seq, r, *, stats=None):
    """Partition without color constraints: |S| > m(r-1) suffices.

    Every entry receives its own color, which satisfies the loose profile.
    """
    coloring = Coloring({i: f"c{i}" for i, _ in seq})
    return solve_general(matroid, seq, coloring, r, stats=stats)


# ---------------------------------------------------------------------------
# The engine.


def _solve(matroid, seq, coloring, r, restriction, stats):
    """Returns r disjoint rainbow parts of ``seq`` with chained closures.

    ``seq`` comes normalized, and ``restriction`` is the ``(elements, m)``
    that ``_normalize`` returned with it.  Trusts that
    (seq, coloring, r) satisfies the special profile after normalization;
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
            return [seq.take_first(1)] + tops[::-1]
        seq, restriction = _normalize(matroid, seq, coloring, restriction)
        m = restriction[1]
        ok = check_special_profile(seq, coloring, r, m)
        if not ok:
            raise InternalInvariantBroken(f"recursion lost the color profile: {ok.reason}")
        if m == 1:
            # Every entry spans the rank-1 working matroid; the profile
            # guarantees at least r entries.
            if len(seq) < r:
                raise InternalInvariantBroken("rank-1 base case is short of entries")
            return [seq.with_indices({seq.entries[i][0]}) for i in range(r)] + tops[::-1]

        ri = _extend_rainbow(matroid, seq, coloring, seq.with_indices(()))
        restarts = 0
        while len(ri) < m:
            kind, found = _run_cycle(matroid, m, seq, coloring, ri, depth, stats)
            if kind == "flat":
                break
            restarts += 1
            stats.restarts += 1
            stats.max_restarts_per_level = max(stats.max_restarts_per_level, restarts)
            if restarts > m:
                raise InternalInvariantBroken("more cycle restarts than the rank allows")
            if len(found) != len(ri) + 1:
                raise InternalInvariantBroken("restart did not grow the rainbow independent set")
            ri = _extend_rainbow(matroid, seq, coloring, found)
        else:
            # RI spans: it is the top part, and r-1 parts remain below it.
            stats.note(depth, "spanning", ri=len(ri), r=r)
            tops.append(ri)
            seq, r, depth = seq.difference(ri), r - 1, depth + 1
            continue
        # Case a: the parts lie inside a smaller flat, with the same r.
        (seq, coloring), depth = found, depth + 1


def _run_cycle(matroid, m, seq, coloring, ri, depth, stats):
    """One run of the replacement cycle for a non-spanning RI of rank-m elements.

    Returns ("flat", (sub_seq, sub_coloring)) when the answer lies inside a
    smaller flat and the caller should solve that instance, or ("grow",
    enlarged_seed) when RI can be extended and the caller should restart.
    """
    all_colors = coloring.colors_of(seq)
    ri_colors = coloring.colors_of(ri)
    k_set = all_colors - ri_colors
    if not k_set:
        raise InternalInvariantBroken("no color is free although RI does not span")
    i_seq = seq.with_indices(())
    c_k = color_class(seq, coloring, k_set)
    # Initially every entry colored from K is eligible (non-loops are never
    # in cl(empty)) and may simply replace the empty I by itself.
    aug = {entry: (c_k.with_indices({entry[0]}), coloring.of(entry)) for entry in c_k}

    iterations = 0
    while True:
        i_elems = i_seq.set_image
        outside_i = [entry for entry in c_k if not matroid.covers(entry[1], i_elems)]
        _check_rules(matroid, coloring, ri, k_set, c_k, i_seq, aug, outside_i, stats)
        iterations += 1
        stats.cycle_iterations += 1
        stats.max_cycle_iterations = max(stats.max_cycle_iterations, iterations)
        if iterations > m:
            raise InternalInvariantBroken("cycle ran longer than the rank allows")

        if not outside_i:
            stats.note(depth, "case_a", k=len(k_set), i=len(i_seq))
            return "flat", _case_smaller_flat(seq, coloring, i_seq, c_k)

        ri_elems = ri.set_image
        escape = next((p for p in outside_i if not matroid.covers(p[1], ri_elems)), None)
        if escape is not None:
            stats.note(depth, "case_b", p=escape[0])
            return "grow", _case_grow(matroid, seq, coloring, ri, i_seq, aug, escape)

        stats.note(depth, "case_c", k=len(k_set), i=len(i_seq))
        k_set, i_seq, aug = _case_advance(matroid, seq, coloring, ri, k_set, i_seq, aug, c_k)
        c_k = color_class(seq, coloring, k_set)


def _case_smaller_flat(seq, coloring, i_seq, c_k):
    """Every K-colored entry lies in cl(I): the instance inside that flat.

    The I-colored entries plus one K-colored entry of a fresh color live in
    a matroid of strictly smaller rank; merging that fresh color with the
    most frequent color of I keeps the profile intact, and parts rainbow
    under the merged coloring stay rainbow under the original one.  The
    merged color is the first of z1, z2, ... that ``seq`` does not carry.
    Returns the sequence and its merged coloring, for ``_solve`` to solve
    with the same r.
    """
    if len(i_seq) == 0:
        raise InternalInvariantBroken("the flat case fired with an empty I")
    i_colors = coloring.colors_of(i_seq)
    candidates = [e for e in c_k if coloring.of(e) not in i_colors]
    if not candidates:
        raise InternalInvariantBroken("no K-colored entry outside the colors of I")
    p = candidates[0]
    core = color_class(seq, coloring, i_colors)
    sub_seq = core.union(seq.with_indices({p[0]}))
    k1 = ColorCountProfile.of(core, coloring).first_color
    seq_colors = coloring.colors_of(seq)
    z = next(f"z{n}" for n in itertools.count(1) if f"z{n}" not in seq_colors)
    recolored = {idx: z for idx, _ in color_class(sub_seq, coloring, {k1})}
    recolored[p[0]] = z
    return sub_seq, coloring.overridden(recolored)


def _case_grow(matroid, seq, coloring, ri, i_seq, aug, p_entry):
    """Some eligible entry escapes cl(RI): swap I for I^p, growing RI by one.

    The grown sequence seeds the restart, so what a seed must satisfy is
    asserted here: it is a rainbow, independent subsequence of S.
    """
    if p_entry not in aug:
        raise InternalInvariantBroken("escaping entry has no exchange sequence")
    exchange, _ = aug[p_entry]
    grown = ri.difference(i_seq).union(exchange)
    if not grown.is_subsequence_of(seq):
        raise InternalInvariantBroken("exchange left the sequence")
    if not is_rainbow(grown, coloring):
        raise InternalInvariantBroken("exchange broke rainbowness of RI")
    if matroid.rank(grown.set_image) != len(grown):
        raise InternalInvariantBroken("exchange broke independence of RI")
    if len(grown) != len(ri) + 1:
        raise InternalInvariantBroken("exchange did not enlarge RI by one")
    # Growth is genuine: cl(grown) equals cl(RI + p).
    order = distinct_elements(ri.entries + (p_entry,))
    target, grown_elems = frozenset(order), grown.set_image
    if not all(matroid.covers(e, target) for e in distinct_elements(grown)):
        raise InternalInvariantBroken("cl(RI') is not within cl(RI + p)")
    if not all(matroid.covers(e, grown_elems) for e in order):
        raise InternalInvariantBroken("cl(RI + p) is not within cl(RI')")
    return grown


def _case_advance(matroid, seq, coloring, ri, k_set, i_seq, aug, c_k):
    """All of C_K sits inside cl(RI) but not inside cl(I): enlarge (K, I).

    The new I is an inclusion-minimal subsequence of RI spanning C_K,
    computed by greedy deletion in ascending index order.  For every entry p
    of a color new to K that escapes cl(new I), an exchange sequence is
    assembled from the old rules.
    """
    ck_elems = distinct_elements(c_k)
    ck_set = frozenset(ck_elems)
    coloops = matroid.known_coloops

    def spans(entries):
        elems = frozenset([e for _, e in entries])
        return all(matroid.covers(x, elems) for x in ck_elems)

    current = list(ri.entries)
    if not spans(current):
        raise InternalInvariantBroken("RI does not span C_K in the advance case")
    for entry in ri.entries:
        # RI is independent, so the trial without this entry cannot span
        # the entry's own element: known without asking the oracle.
        if entry not in current or entry[1] in ck_set:
            continue
        trial = [e for e in current if e != entry]
        # A coloop outside C_K adds nothing to the span of C_K: the trial
        # spans because ``current`` does.
        if entry[1] in coloops or spans(trial):
            current = trial
    i_next = seq.with_indices(i for i, _ in current)

    if not (set(i_seq.entries) < set(i_next.entries)):
        raise InternalInvariantBroken("I did not strictly grow")
    if matroid.rank(i_next.set_image) <= matroid.rank(i_seq.set_image):
        raise InternalInvariantBroken("cl(I) did not strictly grow")

    k_next = k_set | coloring.colors_of(i_next)
    old_indices = i_seq.indices
    new_entries = [e for e in i_next if e[0] not in old_indices]
    i_next_elems = i_next.set_image
    aug_next = {}
    for rr in new_entries:
        reduced = i_next.with_indices(i_next.indices - {rr[0]})
        reduced_elems = reduced.set_image
        witness = next((q for q in c_k if not matroid.covers(q[1], reduced_elems)), None)
        if witness is None:
            raise InternalInvariantBroken("minimal I has a removable entry")
        if witness not in aug:
            raise InternalInvariantBroken("the witness entry has no exchange sequence")
        exchange_q, color_q = aug[witness]
        base = reduced.difference(i_seq).union(exchange_q)
        same_color = color_class(seq, coloring, {coloring.of(rr)})
        for p in same_color:
            if matroid.covers(p[1], i_next_elems):
                continue
            aug_next[p] = (base.union(same_color.with_indices({p[0]})), color_q)
    return k_next, i_next, aug_next


def _check_rules(matroid, coloring, ri, k_set, c_k, i_seq, aug, outside_i, stats):
    """Assert the five invariants of the replacement rules, plus domain.

    (1) colors of I form a proper subset of K; (2) each exchange uses the
    colors of I plus one color from K unused by RI; (3) each exchange is one
    entry longer than I; (4) each exchange contains its entry p and spans
    exactly cl(I) without it; (5) RI meets the K-colored entries exactly in
    I, and K keeps a color unused by RI.  ``c_k`` is the K-colored part of
    the sequence and ``outside_i`` the entries of ``c_k`` outside cl(I), as
    the cycle's scan at the top of this pass found them; the domain of
    ``aug`` must be exactly those entries.  Exchanges that share their part
    without p share its check, which runs once.
    """
    stats.invariant_checks += 1
    i_elems = i_seq.set_image
    i_colors = coloring.colors_of(i_seq)
    ri_colors = coloring.colors_of(ri)
    if not (i_colors < k_set):
        raise InternalInvariantBroken("rules: colors of I do not sit strictly inside K")
    if not (k_set - ri_colors):
        raise InternalInvariantBroken("rules: K has no color unused by RI")
    if ri.intersection(c_k) != i_seq:
        raise InternalInvariantBroken("rules: RI meets C_K in something other than I")
    if set(aug) != set(outside_i):
        raise InternalInvariantBroken("rules: exchange map domain mismatch")
    i_order = distinct_elements(i_seq)
    checked = set()
    for p, (exchange, new_color) in aug.items():
        if len(exchange) != len(i_seq) + 1:
            raise InternalInvariantBroken("rules: exchange length is not |I| + 1")
        if p not in exchange:
            raise InternalInvariantBroken("rules: exchange does not contain its entry")
        if coloring.colors_of(exchange) != i_colors | {new_color}:
            raise InternalInvariantBroken("rules: exchange colors are not colors(I) plus one")
        if new_color not in k_set - ri_colors:
            raise InternalInvariantBroken("rules: the gained color is not free in K")
        rest = exchange.with_indices(exchange.indices - {p[0]})
        rest_elems = rest.set_image
        if rest_elems in checked:
            continue
        checked.add(rest_elems)
        if not all(matroid.covers(e, i_elems) for e in distinct_elements(rest)):
            raise InternalInvariantBroken("rules: cl(exchange - p) exceeds cl(I)")
        if not all(matroid.covers(e, rest_elems) for e in i_order):
            raise InternalInvariantBroken("rules: cl(exchange - p) misses part of cl(I)")
