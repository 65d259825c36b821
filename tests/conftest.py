"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from matroid_tverberg import (
    AffineMatroid,
    DirectSumMatroid,
    GraphicMatroid,
    UniformMatroid,
    VectorMatroidGFp,
    VectorMatroidRational,
)


def unit_vectors(m, one=1, zero=0):
    return {f"b{i + 1}": tuple(one if j == i else zero for j in range(m)) for i in range(m)}


def gfp_matroid(p, m, extra=None):
    """GF(p)^m with the standard basis plus optional named extra vectors."""
    elements = unit_vectors(m)
    elements.update(extra or {})
    return VectorMatroidGFp(p, m, elements)


def rational_matroid(m, extra=None):
    elements = {k: tuple(Fraction(c) for c in v) for k, v in unit_vectors(m).items()}
    for k, v in (extra or {}).items():
        elements[k] = tuple(Fraction(c) for c in v)
    return VectorMatroidRational(m, elements)


def affine_line_rational(points):
    """Rational affine line through the given {id: x} points."""
    return AffineMatroid("rational", 1, {k: (Fraction(v),) for k, v in points.items()})


def with_coloops(matroid, count):
    """The direct sum of ``matroid`` with ``count`` coloops named x1, x2, ...

    The coloops form U_count^count, so the sum declares them in its
    ``known_coloops``.  ``matroid`` must not hold those names.
    """
    ids = [f"x{i + 1}" for i in range(count)]
    return DirectSumMatroid(matroid, UniformMatroid(count, count, ids=ids))


def greedy_rank(matroid, ys):
    """The rank of ``ys`` by a greedy of ``covers`` questions in ground order, with no early stop."""
    indep = []
    for e in sorted(ys, key=matroid.ground.index):
        if not matroid.covers(e, indep):
            indep.append(e)
    return len(indep)


def standard_basis_ids(m):
    return tuple(f"b{i + 1}" for i in range(m))


def triangle_graph():
    return GraphicMatroid(3, {"e12": (0, 1), "e23": (1, 2), "e13": (0, 2)})


@pytest.fixture
def gf2_plane():
    """GF(2)^2 with all three nonzero vectors."""
    return VectorMatroidGFp(2, 2, {"x": (1, 0), "y": (0, 1), "z": (1, 1)})


@pytest.fixture
def u24():
    return UniformMatroid(2, 4)


def family_zoo(m):
    """One small rank-m matroid per family, with a designated basis."""
    zoo = {}
    zoo["vector_gf2"] = (gfp_matroid(2, m, {"s": tuple(1 for _ in range(m))}), standard_basis_ids(m))
    zoo["vector_gf3"] = (
        gfp_matroid(3, m, {"s": tuple(2 if j == 0 else 1 for j in range(m))}),
        standard_basis_ids(m),
    )
    zoo["vector_rational"] = (
        rational_matroid(m, {"s": tuple(Fraction(1, 2) for _ in range(m))}),
        standard_basis_ids(m),
    )
    corners = {
        f"a{i + 1}": tuple(Fraction(1 if j == i - 1 else 0) for j in range(m - 1))
        for i in range(m)
    }
    if m > 1:
        corners["s"] = tuple(Fraction(1, 3) for _ in range(m - 1))
    zoo["affine_rational"] = (AffineMatroid("rational", m - 1, corners), tuple(f"a{i + 1}" for i in range(m)))
    zoo["uniform"] = (UniformMatroid(m, m + 2), tuple(f"e{i}" for i in range(m)))
    edges = {f"t{i + 1}": (i, i + 1) for i in range(m)}
    edges["g0"] = (0, 1) if m == 1 else (0, 2)
    zoo["graphic"] = (GraphicMatroid(m + 1, edges), tuple(f"t{i + 1}" for i in range(m)))
    return zoo
