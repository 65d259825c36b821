"""Sequences as sets of (index, element) pairs, with total colorings.

Storing a sequence as index/element pairs makes repeated elements
distinguishable while keeping set terminology available.  These types are
the package's interface: the solver's engine turns a sequence into one bit
per entry and works on int masks, and the verifier, the referee and the CLI
read and build sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import UnknownColor


def color_sort_key(color):
    """Deterministic order for color ids of possibly mixed types."""
    return (type(color).__name__, color)


class IndexedSequence:
    """An ordered sequence of (index, element) entries with unique indices.

    The constructor sorts and checks its entries; every sequence builds its
    index set and set image on first use.
    """

    __slots__ = ("_entries", "_index_set", "_set_image")

    def __init__(self, entries):
        entries = sorted(entries, key=lambda pair: pair[0])
        for (i, _), (j, _) in zip(entries, entries[1:]):
            if i == j:
                raise ValueError(f"duplicate index {i}")
        self._entries = tuple([(int(i), e) for i, e in entries])
        self._index_set = self._set_image = None

    @classmethod
    def from_elements(cls, elements):
        """A new sequence with indices 0, 1, ... over ``elements``."""
        return cls(list(enumerate(elements)))

    @property
    def entries(self):
        return self._entries

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

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other):
        return isinstance(other, IndexedSequence) and self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"IndexedSequence({list(self._entries)!r})"

    def take_first(self, k):
        """Subsequence of the k lowest-index entries."""
        return IndexedSequence(self._entries[:k])

    def with_indices(self, indices):
        """Subsequence formed by the entries whose index is in ``indices``."""
        idx = indices if isinstance(indices, frozenset) else frozenset(indices)
        return IndexedSequence([pair for pair in self._entries if pair[0] in idx])


class Coloring:
    """A total map from sequence indices to color ids.

    ``assignment`` may cover a superset of any particular subsequence's
    indices; the colors in play are always those of the sequence at hand,
    ``colors_of(seq)``.
    """

    __slots__ = ("_assignment",)

    def __init__(self, assignment):
        self._assignment = dict(assignment)

    def of(self, entry):
        """Color of an entry (an (index, element) pair)."""
        try:
            return self._assignment[entry[0]]
        except KeyError:
            raise UnknownColor(f"index {entry[0]} has no color") from None

    def colors_of(self, seq):
        """Set of colors used by the entries of ``seq``."""
        assignment = self._assignment
        try:
            return frozenset([assignment[i] for i, _ in seq.entries])
        except KeyError as exc:
            raise UnknownColor(f"index {exc.args[0]} has no color") from None


def distinct_elements(entries):
    """Distinct elements of (index, element) entries, in entry order.

    Short-circuiting oracle scans walk this tuple rather than a frozenset,
    whose order follows the string hash seed, so that ``oracle_calls`` is
    the same in every run.
    """
    return tuple(dict.fromkeys(e for _, e in entries))


def color_clash(seq, coloring):
    """The first two entries of ``seq`` that share a color, or None."""
    first = {}
    for entry in seq:
        color = coloring.of(entry)
        if color in first:
            return first[color], entry
        first[color] = entry
    return None


def ranked_counts(tally):
    """The (color, count) pairs of ``tally``, most frequent first.

    ``tally`` maps each color of a sequence to its number of entries.  Ties
    break by ``color_sort_key``, so that "the first color" is always a
    deterministic choice.
    """
    return sorted(tally.items(), key=lambda pair: (-pair[1], color_sort_key(pair[0])))


def quota(pos, r):
    """The count bound of the color ranked ``pos`` (from 0): r for the first, r-1 for the rest.

    The general profile caps each color's entries at its quota, and the
    special profile requires at least as many.
    """
    return r if pos == 0 else r - 1


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
    for pos, (color, count) in enumerate(ranked_counts(Counter(map(coloring.of, seq)))):
        if count > quota(pos, r):
            return ProfileCheck(
                False,
                f"color {color!r} has {count} entries, allowed at most {quota(pos, r)}",
            )
    return ProfileCheck(True)


def check_special_counts(ranked, r, m):
    """The exact form the engine runs on, read from a sequence's ``ranked_counts``.

    Requires exactly m colors, at least r entries of the first color (the
    most frequent) and at least r-1 of every other.  ``solve_special``
    first drops the least frequent colors while there are more colors than
    the rank of the sequence's elements, and takes m to be that rank; its
    precondition is ``solver.special_precondition``.
    """
    if len(ranked) != m:
        return ProfileCheck(
            False,
            f"the sequence has {len(ranked)} colors, the rank requires exactly {m}",
        )
    for pos, (color, count) in enumerate(ranked):
        if count < quota(pos, r):
            return ProfileCheck(
                False,
                f"color {color!r} has {count} entries, needs at least {quota(pos, r)}",
            )
    return ProfileCheck(True)
