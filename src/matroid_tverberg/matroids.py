"""Finite matroids presented through an exact closure-membership oracle.

Every algorithm in this package sees a matroid only through
``in_closure(x, ys)``: "does x lie in the closure of ys?".  Rank and
independence are derived from that single question.  The loops, cl(∅), are
the one exception: each family reads them off its data at construction
(``loops``), and the solvers answer "is x a loop?" from them.

Concrete families: vectors over GF(p), vectors over the rationals, affine
point sets over either field (homogenized internally), uniform matroids,
graphic matroids, and direct sums of any two of these.

Ground elements are plain hashable identifiers; the shipped constructors use
strings.  Arithmetic is exact everywhere: residues mod a prime (via the
kernels module, the package's one numpy user, imported with the first GF(p)
matroid), or for rational vectors Python integers, since each vector is
scaled once to an integer row and reduced by fraction-free elimination.
Floating point never enters a membership decision.

Oracles give the same answers for their whole life and are safe to share
between threads for reads; the per-oracle call counter is a plain int and
relies on the GIL.  The graphic and rational kernels keep the last target
they answered for with its union-find forest or echelon basis, and reuse
it when the next target is the same set or that set plus one element.
They copy a kept structure before they grow it, never change one to mean
another target, and publish a new (target, structure) pair with one
assignment, so a thread that reads the old pair still holds a structure
that matches its target.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import UnknownElement

_MISS = object()


def active_backend():
    """Always ``"numpy"``: the one GF(p) elimination backend.

    Kept only because ``perfbench/harness.py`` records it in each run's
    metadata; it goes when the harness stops reading it.
    """
    return "numpy"


def call_counting_enabled():
    """Always True: every closure decision is counted.

    Kept only because ``perfbench/harness.py`` records it in each run's
    metadata; it goes when the harness stops reading it.
    """
    return True


class MatroidOracle:
    """Base class: a finite ground set plus a closure-membership procedure.

    Subclasses implement ``_members(x, ys)`` with ``ys`` a frozenset already
    validated against the ground set.  ``in_closure`` adds validation, call
    counting and memoization (sound because an oracle's answers never change).

    ``known_coloops`` is a set of elements the oracle knows to be coloops,
    empty unless the family declares some.  A coloop c lies in cl(Y) only
    when c is in Y, so ``covers`` answers questions about them itself.

    ``loops`` is the exact set of loops, cl(∅).  Every family of this module
    declares it at construction from its own data.
    """

    known_coloops = frozenset()

    @cached_property
    def loops(self):
        """The loops, for a subclass that does not declare them: asked of the oracle once."""
        return frozenset(x for x in self._ground if self.in_closure(x, ()))

    def __init__(self, ground):
        ground = tuple(ground)
        self._ground = ground
        self._ground_set = frozenset(ground)
        if len(self._ground_set) != len(ground):
            raise ValueError("ground element ids must be distinct")
        self._calls = 0
        self._memo = {}
        self._rank_bound = None

    @cached_property
    def _position(self):
        """Each element's index in the stored ground order, built on first use."""
        return dict(zip(self._ground, range(len(self._ground))))

    @property
    def ground(self):
        """Ground element ids in their stored (deterministic) order."""
        return self._ground

    @property
    def ground_set(self):
        return self._ground_set

    @property
    def rank_bound(self):
        """Rank of the whole matroid."""
        if self._rank_bound is None:
            self._rank_bound = self._compute_rank_bound()
        return self._rank_bound

    @property
    def oracle_calls(self):
        """Number of closure decisions requested so far (memo hits included)."""
        return self._calls

    def in_closure(self, x, ys):
        """Decide whether x lies in the closure of the set ``ys``.

        This is the counted cost unit of every algorithm in the package.  The
        memo holds validated queries only, so a hit needs no validation.
        """
        fs = ys if isinstance(ys, frozenset) else frozenset(ys)
        key = (x, fs)
        hit = self._memo.get(key, _MISS)
        if hit is _MISS:
            self._check_query(x, fs)
            hit = self._memo[key] = self._members(x, fs)
        self._calls += 1
        return hit

    def covers(self, x, ys):
        """Decide whether x lies in the closure of the set ``ys``, axioms first.

        A member of ``ys`` is in cl(ys), and a known coloop outside ``ys`` is
        not; only the questions these two axioms leave open go to
        ``in_closure`` and are counted.
        """
        return x in ys or (x not in self.known_coloops and self.in_closure(x, ys))

    def _check_query(self, x, fs):
        """Raise ``UnknownElement`` unless x and all of ``fs`` lie in the ground set."""
        if x not in self._ground_set:
            raise UnknownElement(f"unknown element {x!r}")
        if not fs <= self._ground_set:
            bad = next(iter(fs - self._ground_set))
            raise UnknownElement(f"unknown element {bad!r}")

    def _members(self, x, ys):
        raise NotImplementedError

    def _compute_rank_bound(self):
        return len(self._greedy(self._ground, None))  # no stop: it would read this bound

    def rank(self, ys):
        """Size of a maximal independent subset of ``ys``."""
        return len(self.max_independent(ys))

    def max_independent(self, ys):
        """A maximal independent subset of ``ys``.

        Greedy scan of ``ys`` in stored ground order, so results are
        reproducible and, once ``_position`` is built, the cost grows with
        |ys|, not with the ground.  It stops at ``rank_bound`` elements,
        which span the matroid, so every later element is in their closure.
        """
        fs = frozenset(ys)
        if not fs <= self._ground_set:
            bad = next(iter(fs - self._ground_set))
            raise UnknownElement(f"unknown element {bad!r}")
        return self._greedy(fs, self.rank_bound)

    def _greedy(self, fs, bound):
        """``max_independent``'s scan of the validated ``fs``, stopping at ``bound`` elements."""
        indep = []
        for e in sorted(fs, key=self._position.__getitem__):
            if len(indep) == bound:
                break
            if not self.covers(e, indep):
                indep.append(e)
        return tuple(indep)

    def is_loop(self, x):
        if x not in self._ground_set:
            raise UnknownElement(f"unknown element {x!r}")
        return x in self.loops

    def __repr__(self):
        return f"{type(self).__name__}(|ground|={len(self._ground)}, rank={self.rank_bound})"


class VectorMatroidGFp(MatroidOracle):
    """Vectors over GF(p); membership is exact linear solvability mod p.

    The loops are the zero vectors.  The rows are held as a numpy matrix, so
    the first construction imports the kernels module, and numpy with it.
    """

    def __init__(self, p, dim, vectors):
        check_prime(p)
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        self.p = p
        self.dim = dim
        ids = tuple(vectors)
        rows = []
        for eid in ids:
            coords = tuple(vectors[eid])
            if len(coords) != dim:
                raise ValueError(f"element {eid!r}: expected {dim} coordinates")
            rows.append([int(c) % p for c in coords])
        from . import kernels

        self._kernels = kernels
        self._matrix = kernels.gfp_matrix(rows, dim)
        super().__init__(ids)
        self.loops = frozenset(eid for eid, row in zip(ids, rows) if not any(row))

    def coords(self, eid):
        if eid not in self._position:
            raise UnknownElement(f"unknown element {eid!r}")
        return tuple(int(c) for c in self._matrix[self._position[eid]])

    def _members(self, x, ys):
        if x in ys:
            return True
        rows = sorted(self._position[y] for y in ys)
        return self._kernels.gfp_in_span(self._matrix, rows, self._position[x], self.p)

    def _compute_rank_bound(self):
        return self._kernels.gfp_rank(self._matrix, self.p)


def integer_row(coords):
    """A rational vector scaled by the lcm of its denominators: a tuple of ints.

    Scaling by a nonzero constant leaves the span unchanged, so every
    membership and rank question has the same answer on the scaled rows.
    """
    coords = [Fraction(c) for c in coords]
    scale = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (scale // c.denominator) for c in coords)


def _reduce(v, basis):
    """Reduce the integer row ``v`` against an echelon ``basis`` of (pivot, row).

    Fraction-free (Bareiss-style) updates ``g*v - f*row`` keep every entry an
    integer, and the result is a nonzero multiple of the rational remainder.
    Each basis row is zero on the pivots of the rows before it, so one pass
    in basis order clears every pivot column of ``v``.
    """
    for c, row in basis:
        f = v[c]
        if f:
            g = row[c]
            h = gcd(f, g)
            if h > 1:
                f //= h
                g //= h
            v = [g * a - f * b for a, b in zip(v, row)]
    return v


def _insert(basis, v):
    """Add ``v`` to the echelon ``basis`` unless it is in its span; True if added."""
    v = _reduce(v, basis)
    for c, a in enumerate(v):
        if a:
            d = gcd(*v)
            if d > 1:
                v = [b // d for b in v]
            basis.append((c, v))
            return True
    return False


def rational_rank(rows):
    """Rank of a matrix given as rows of rationals (exact integer elimination)."""
    basis = []
    for row in rows:
        _insert(basis, integer_row(row))
    return len(basis)


class VectorMatroidRational(MatroidOracle):
    """Vectors with exact rational coordinates (arbitrary precision).

    Each vector is stored once more as the integer row ``integer_row`` gives,
    and membership runs on those rows alone.  The loops are the zero vectors.
    """

    def __init__(self, dim, vectors):
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        self.dim = dim
        ids = tuple(vectors)
        table = {}
        for eid in ids:
            coords = tuple(Fraction(c) for c in vectors[eid])
            if len(coords) != dim:
                raise ValueError(f"element {eid!r}: expected {dim} coordinates")
            table[eid] = coords
        self._vectors = table
        self._rows = {eid: integer_row(coords) for eid, coords in table.items()}
        super().__init__(ids)
        self.loops = frozenset(eid for eid, row in self._rows.items() if not any(row))
        # The last target asked about and an echelon basis of its rows.
        self._kept = (frozenset(), [])

    def coords(self, eid):
        if eid not in self._vectors:
            raise UnknownElement(f"unknown element {eid!r}")
        return self._vectors[eid]

    def _members(self, x, ys):
        if x in ys:
            return True
        target, basis = self._kept
        if ys != target:
            if len(ys) == len(target) + 1 and target < ys:
                (y,) = ys - target
                basis = basis.copy()
                _insert(basis, self._rows[y])
            else:
                basis = []
                for y in sorted(ys, key=self._position.__getitem__):
                    if _insert(basis, self._rows[y]) and len(basis) == self.dim:
                        break
            self._kept = (ys, basis)
        return len(basis) == self.dim or not any(_reduce(self._rows[x], basis))

    def _compute_rank_bound(self):
        return rational_rank(self._rows[e] for e in self._ground)


class AffineMatroid(MatroidOracle):
    """Affine point sets over GF(p) or the rationals.

    Implemented by homogenization: a point gets an extra coordinate fixed to
    1 and membership is delegated to the corresponding vector matroid, since
    affine-hull membership of points is linear membership of lifted vectors.
    Affine matroids are loopless by construction: no lifted vector is zero.
    """

    loops = frozenset()

    def __init__(self, field, dim, points):
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        self.field = field
        self.dim = dim
        lifted = {eid: tuple(points[eid]) + (1,) for eid in points}
        for eid, coords in lifted.items():
            if len(coords) != dim + 1:
                raise ValueError(f"point {eid!r}: expected {dim} coordinates")
        if field == "rational":
            self._inner = VectorMatroidRational(dim + 1, lifted)
        else:
            self._inner = VectorMatroidGFp(int(field), dim + 1, lifted)
        super().__init__(tuple(points))

    def coords(self, eid):
        return self._inner.coords(eid)[:-1]

    def _members(self, x, ys):
        return self._inner._members(x, ys)

    def _compute_rank_bound(self):
        return self._inner._compute_rank_bound()


class UniformMatroid(MatroidOracle):
    """U_k^n: every k-subset of the n ground elements is a basis.

    Closure of Y is Y itself when Y has fewer than k distinct elements and
    the whole ground set otherwise.  For k = 0 every element is a loop; for
    k >= n every element is a coloop.  The matroid declares both.
    """

    def __init__(self, k, n, ids=None):
        if k < 0 or n < 0:
            raise ValueError("k and n must be nonnegative")
        if ids is None:
            ids = tuple(f"e{i}" for i in range(n))
        else:
            ids = tuple(ids)
            if len(ids) != n:
                raise ValueError("ids must have length n")
        self.k = k
        super().__init__(ids)
        self.loops = self._ground_set if k == 0 else frozenset()
        if k >= n:
            self.known_coloops = self._ground_set

    def _members(self, x, ys):
        return x in ys or len(ys) >= self.k

    def _compute_rank_bound(self):
        return min(self.k, len(self._ground))


class GraphicMatroid(MatroidOracle):
    """Cycle matroid of a multigraph on vertices 0..n-1.

    Ground elements are edge ids; parallel edges are distinct elements and a
    self-loop edge is a matroid loop.  An edge lies in the closure of an edge
    set Y iff its endpoints are connected in the subgraph Y.
    """

    def __init__(self, num_vertices, edges):
        if num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        self.num_vertices = num_vertices
        table = {}
        for eid in edges:
            u, v = edges[eid]
            u, v = int(u), int(v)
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge {eid!r} references a vertex outside 0..{num_vertices - 1}")
            table[eid] = (u, v)
        self._edges = table
        super().__init__(tuple(table))
        self.loops = frozenset(eid for eid, (u, v) in table.items() if u == v)
        # The last target asked about and its spanning forest.
        self._kept = (frozenset(), {})

    def endpoints(self, eid):
        if eid not in self._edges:
            raise UnknownElement(f"unknown element {eid!r}")
        return self._edges[eid]

    def _members(self, x, ys):
        u, v = self._edges[x]
        if u == v:
            return True
        target, parent = self._kept
        if ys != target:
            if len(ys) == len(target) + 1 and target < ys:
                (y,) = ys - target
                parent = parent.copy()
                _union(parent, *self._edges[y])
            else:
                parent, _ = _spanning_forest(map(self._edges.__getitem__, ys))
            self._kept = (ys, parent)
        return _union(parent, u, v, join=False)

    def _compute_rank_bound(self):
        return _spanning_forest(self._edges.values())[1]


def _union(parent, a, b, join=True):
    """Find the roots of vertices a and b in the forest ``parent``, with path halving.

    Returns whether they share a root.  Unless they do, or ``join`` is
    False, the tree of a is hung under the root of b.  Halving only moves a
    vertex closer to its own root, so it never changes which vertices a
    forest connects.
    """
    while a in parent:
        p = parent[a]
        parent[a] = a = parent.get(p, p)
    while b in parent:
        p = parent[b]
        parent[b] = b = parent.get(p, p)
    if a == b:
        return True
    if join:
        parent[a] = b
    return False


def _spanning_forest(edges):
    """Union-find over the endpoints of ``edges``, an iterable of vertex pairs.

    Returns the forest as a dict from each non-root vertex to its parent,
    built with path halving, and the number of edges that joined two trees.
    Only the vertices the edges touch are stored.
    """
    parent = {}
    joined = 0
    for a, b in edges:
        if not _union(parent, a, b):
            joined += 1
    return parent, joined


class DirectSumMatroid(MatroidOracle):
    """Direct sum of two matroids on disjoint ground sets.

    Membership is componentwise: a question goes to the ``_members`` of the
    summand that holds x, with the other summand's elements dropped from ys
    (the set is passed on as it is when it has none, so the summand's kept
    structure is reused).  A coloop of either summand is a coloop of the
    sum and a loop of either is a loop of the sum, so the sum declares the
    unions of its summands' sets.
    """

    def __init__(self, left, right):
        if left.ground_set & right.ground_set:
            raise ValueError("direct sum requires disjoint ground element ids")
        self.left = left
        self.right = right
        super().__init__(left.ground + right.ground)
        self.known_coloops = left.known_coloops | right.known_coloops
        self.loops = left.loops | right.loops

    def _members(self, x, ys):
        if x in self.left.ground_set:
            side, other = self.left, self.right.ground_set
        else:
            side, other = self.right, self.left.ground_set
        return side._members(x, ys if ys.isdisjoint(other) else ys - other)

    def _compute_rank_bound(self):
        return self.left.rank_bound + self.right.rank_bound


# Miller-Rabin to these bases decides primality exactly for every n below
# the bound (Jaeschke 1993), so ``check_prime`` is exact only while the
# cap ``instances.MAX_P`` stays below it.
_MR_BASES = (2, 7, 61)
_MR_EXACT_BELOW = 4_759_123_141


def check_prime(p):
    """Return ``p`` if it is a prime of at most ``instances.MAX_P``; else ValueError.

    The cap keeps the int64 kernel exact, and this check is what enforces
    it, for files and for direct construction alike, without loading the
    kernel.  Primality is decided by Miller-Rabin to ``_MR_BASES``.
    """
    from .instances import MAX_P  # instances imports this module, so read the cap here

    assert MAX_P < _MR_EXACT_BELOW, "the Miller-Rabin bases are not exact up to MAX_P"
    p = int(p)
    if p < 2:
        raise ValueError(f"{p} is not a prime")
    if p > MAX_P:
        raise ValueError(f"prime {p} is above the limit of {MAX_P} for the int64 kernel")
    # p - 1 = d * 2**s with d odd.  An even p > 2 fails at base 2: s is 0
    # and x is even.
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if a % p == 0 or x == 1 or x == p - 1:
            continue  # a % p == 0: p is the base itself, a prime
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not a prime")
    return p
