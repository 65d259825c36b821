"""Sequences as sets of (index, element) pairs, with total colorings.

Storing a sequence as index/element pairs makes repeated elements
distinguishable while keeping set terminology available: subsequence,
difference, intersection, union, disjointness.  Set-style operations are
only defined between subsequences of a common root sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedParents, UnknownColor

_NO_ELEMENT = object()


def color_sort_key(color):
    """Deterministic order for color ids of possibly mixed types."""
    return (type(color).__name__, color)


class IndexedSequence:
    """An ordered sequence of (index, element) entries with unique indices.

    The constructor sorts and checks its entries and makes a root sequence.
    Subsequences derived from it take their entries from an already sorted,
    checked sequence and skip that work; every sequence builds its index
    set, set image and index lookup on first use.
    """

    __slots__ = ("_entries", "_root", "_index_set", "_set_image", "_by_index")

    def __init__(self, entries):
        entries = sorted(entries, key=lambda pair: pair[0])
        for (i, _), (j, _) in zip(entries, entries[1:]):
            if i == j:
                raise ValueError(f"duplicate index {i}")
        self._entries = tuple((int(i), e) for i, e in entries)
        self._root = None
        self._index_set = self._set_image = self._by_index = None

    def _derive(self, entries):
        """A subsequence of the same root from a tuple of this root's entries, in index order."""
        seq = object.__new__(IndexedSequence)
        seq._entries = entries
        seq._root = self.root
        seq._index_set = seq._set_image = seq._by_index = None
        return seq

    @classmethod
    def from_elements(cls, elements):
        """A new root sequence with indices 0, 1, ... over ``elements``."""
        return cls(list(enumerate(elements)))

    @property
    def entries(self):
        return self._entries

    @property
    def root(self):
        return self if self._root is None else self._root

    @property
    def indices(self):
        if self._index_set is None:
            self._index_set = frozenset([i for i, _ in self._entries])
        return self._index_set

    @property
    def set_image(self):
        """The set of elements, forgetting indices (repeats collapse)."""
        if self._set_image is None:
            self._set_image = frozenset([e for _, e in self._entries])
        return self._set_image

    def _lookup(self):
        if self._by_index is None:
            self._by_index = dict(self._entries)
        return self._by_index

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __contains__(self, entry):
        return self._lookup().get(entry[0], _NO_ELEMENT) == entry[1]

    def __eq__(self, other):
        return isinstance(other, IndexedSequence) and self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"IndexedSequence({list(self._entries)!r})"

    def element_at(self, index):
        try:
            return self._lookup()[index]
        except KeyError:
            raise KeyError(index) from None

    def take_first(self, k):
        """Subsequence of the k lowest-index entries."""
        return self._derive(self._entries[:k])

    def with_indices(self, indices):
        """Subsequence formed by the entries whose index is in ``indices``."""
        idx = indices if isinstance(indices, frozenset) else frozenset(indices)
        return self._derive(tuple([pair for pair in self._entries if pair[0] in idx]))

    def filter(self, predicate):
        return self._derive(tuple(filter(predicate, self._entries)))

    def _check_root(self, other):
        if self.root is not other.root:
            raise MixedParents("operands come from different parent sequences")

    def difference(self, other):
        self._check_root(other)
        drop = other.indices
        return self._derive(tuple([pair for pair in self._entries if pair[0] not in drop]))

    def intersection(self, other):
        self._check_root(other)
        return self.with_indices(other.indices)

    def union(self, other):
        self._check_root(other)
        merged = dict(self._entries)
        merged.update(other._entries)
        return self._derive(tuple(sorted(merged.items())))

    def is_subsequence_of(self, other):
        return set(self._entries) <= set(other._entries)


class Coloring:
    """A total map from sequence indices to color ids.

    ``assignment`` may cover a superset of any particular subsequence's
    indices; ``palette`` is the set of colors considered in use (the image
    plus any explicitly declared spares).
    """

    __slots__ = ("_assignment", "_palette")

    def __init__(self, assignment, palette=None):
        self._assignment = dict(assignment)
        image = frozenset(self._assignment.values())
        if palette is None:
            self._palette = image
        else:
            self._palette = frozenset(palette)
            if not image <= self._palette:
                raise UnknownColor("assignment uses colors outside the palette")

    @property
    def palette(self):
        return self._palette

    def of(self, entry):
        """Color of an entry (an (index, element) pair)."""
        try:
            return self._assignment[entry[0]]
        except KeyError:
            raise UnknownColor(f"index {entry[0]} has no color") from None

    def of_index(self, index):
        try:
            return self._assignment[index]
        except KeyError:
            raise UnknownColor(f"index {index} has no color") from None

    def colors_of(self, seq):
        """Set of colors used by the entries of ``seq``."""
        assignment = self._assignment
        try:
            return frozenset([assignment[i] for i, _ in seq.entries])
        except KeyError as exc:
            raise UnknownColor(f"index {exc.args[0]} has no color") from None

    def overridden(self, new_assignments, extra_palette=()):
        """A new coloring with some indices recolored."""
        merged = dict(self._assignment)
        merged.update(new_assignments)
        return Coloring(merged, palette=self._palette | frozenset(extra_palette))

    def narrowed_to(self, seq):
        """Assignment restricted to ``seq``'s indices, palette to its colors."""
        assignment = {i: self.of_index(i) for i in seq.indices}
        return Coloring(assignment)

    def fresh_color(self, stem="z"):
        """A color id guaranteed to be outside the palette."""
        n = 1
        while True:
            candidate = f"{stem}{n}"
            if candidate not in self._palette:
                return candidate
            n += 1


def distinct_elements(entries):
    """Distinct elements of (index, element) entries, in entry order.

    Short-circuiting oracle scans walk this tuple rather than a frozenset,
    whose order follows the string hash seed, so that ``oracle_calls`` is
    the same in every run.
    """
    return tuple(dict.fromkeys(e for _, e in entries))


def is_rainbow(seq, coloring):
    """True iff no two entries of ``seq`` share a color."""
    seen = set()
    for entry in seq:
        color = coloring.of(entry)
        if color in seen:
            return False
        seen.add(color)
    return True


def color_class(seq, coloring, colors):
    """The subsequence of ``seq`` whose entries are colored from ``colors``."""
    colors = frozenset(colors)
    if not colors <= coloring.palette:
        bad = next(iter(colors - coloring.palette))
        raise UnknownColor(f"color {bad!r} is not in the palette")
    assignment = coloring._assignment
    try:
        return seq._derive(tuple([pair for pair in seq.entries if assignment[pair[0]] in colors]))
    except KeyError as exc:
        raise UnknownColor(f"index {exc.args[0]} has no color") from None


@dataclass(frozen=True)
class ColorCountProfile:
    """Color counts of a sequence, ordered most-frequent-first.

    Ties break by ascending color id so that "the first color" is always a
    deterministic choice.
    """

    counts: tuple
    ordering: tuple

    @classmethod
    def of(cls, seq, coloring, palette=None):
        palette = coloring.palette if palette is None else frozenset(palette)
        tally = {color: 0 for color in palette}
        for entry in seq:
            color = coloring.of(entry)
            if color not in tally:
                raise UnknownColor(f"color {color!r} is not in the palette")
            tally[color] += 1
        ordering = tuple(
            sorted(tally, key=lambda c: (-tally[c], color_sort_key(c)))
        )
        counts = tuple((c, tally[c]) for c in ordering)
        return cls(counts=counts, ordering=ordering)

    @property
    def first_color(self):
        if not self.ordering:
            raise UnknownColor("empty palette has no first color")
        return self.ordering[0]

    def top(self, k):
        """The k most frequent colors (deterministic tie-break)."""
        return self.ordering[:k]


@dataclass(frozen=True)
class ProfileCheck:
    """Outcome of a color-profile precondition check."""

    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def check_general_profile(seq, coloring, r, m):
    """Precondition of the general solver.

    Requires |S| > m(r-1), at most r entries of the most frequent color and
    at most r-1 of every other.  For r = 1 the count caps are waived: they
    exist to guarantee enough colors for r parts, and one part needs none.
    """
    if len(seq) <= m * (r - 1):
        return ProfileCheck(False, f"length {len(seq)} is not above m(r-1) = {m * (r - 1)}")
    if r == 1:
        return ProfileCheck(True)
    profile = ColorCountProfile.of(seq, coloring)
    for rank_pos, (color, count) in enumerate(profile.counts):
        limit = r if rank_pos == 0 else r - 1
        if count > limit:
            return ProfileCheck(
                False,
                f"color {color!r} has {count} entries, allowed at most {limit}",
            )
    return ProfileCheck(True)


def check_special_profile(seq, coloring, r, m):
    """Precondition of the special solver.

    Requires exactly m colors in the palette, at least r entries of the
    designated first color (the most frequent) and at least r-1 of every
    other color.
    """
    if len(coloring.palette) != m:
        return ProfileCheck(
            False,
            f"palette has {len(coloring.palette)} colors, the rank requires exactly {m}",
        )
    profile = ColorCountProfile.of(seq, coloring)
    for rank_pos, (color, count) in enumerate(profile.counts):
        needed = r if rank_pos == 0 else r - 1
        if count < needed:
            return ProfileCheck(
                False,
                f"color {color!r} has {count} entries, needs at least {needed}",
            )
    return ProfileCheck(True)
