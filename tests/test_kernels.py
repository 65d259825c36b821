"""The GF(p) rank kernel against an enumeration oracle."""

import itertools
import random

import numpy as np
import pytest

from matroid_tverberg import VectorMatroidGFp
from matroid_tverberg.kernels import gfp_rank
from matroid_tverberg.matroids import check_prime


def span_size_rank(rows, p):
    """Independent oracle: the span of the rows has exactly p^rank vectors."""
    if not rows:
        return 0
    cols = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(cols))
        span.add(vec)
    rank = 0
    while p**rank < len(span):
        rank += 1
    assert p**rank == len(span)
    return rank


def random_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7))
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 4)
        yield p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_numpy_backend_matches_span_enumeration():
    for p, mat in random_matrices(11, 200):
        arr = np.array(mat, dtype=np.int64).reshape(len(mat), len(mat[0]) if mat else 1)
        assert gfp_rank(arr, p) == span_size_rank(mat, p)


def test_known_ranks():
    assert gfp_rank(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64), 2) == 2
    assert gfp_rank(np.array([[1, 2], [2, 4]], dtype=np.int64), 5) == 1
    assert gfp_rank(np.array([[2, 4], [1, 2]], dtype=np.int64), 3) == 1
    assert gfp_rank(np.zeros((3, 3), dtype=np.int64), 7) == 0
    assert gfp_rank(np.zeros((0, 4), dtype=np.int64), 2) == 0


def test_input_not_mutated():
    arr = np.array([[1, 1], [1, 0]], dtype=np.int64)
    before = arr.copy()
    gfp_rank(arr, 2)
    assert (arr == before).all()


def test_large_prime_rejected():
    # The int64 elimination is exact only for primes below 2**31, so a GF(p)
    # matroid over a larger one is refused before any matrix is built.
    with pytest.raises(ValueError, match="limit"):
        VectorMatroidGFp(2**31 + 11, 2, {"a": (1, 0)})
    with pytest.raises(ValueError, match="limit"):
        check_prime(2**31 + 11)
    # At the cap itself the products still fit: (p-1, 1) and (1, p-1) are
    # parallel, and (1, 1) is not.
    p = check_prime(2**31 - 1)
    assert gfp_rank(np.array([[p - 1, 1], [1, p - 1]], dtype=np.int64), p) == 1
    assert gfp_rank(np.array([[p - 1, 1], [1, 1]], dtype=np.int64), p) == 2
