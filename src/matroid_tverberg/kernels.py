"""Exact rank computation over GF(p) for int64 matrices: the package's numpy module.

This is the one numeric inner loop of the package: every closure-membership
query on a GF(p) vector matroid reduces to two small eliminations mod p.
The elimination is vectorized numpy and exact: all arithmetic stays in int64
residues, which is why primes are capped below 2**31 (``instances.MAX_P``;
intermediate products then fit comfortably in int64).  ``check_prime``
enforces that cap before a matrix is built, so the kernel does not repeat it.

No module imports this one at import time.  ``VectorMatroidGFp`` imports it
on its first construction (affine GF(p) matroids build one), so numpy loads
with the first GF(p) matroid and not with the package.
"""

from __future__ import annotations

import numpy as np


def gfp_matrix(rows, dim):
    """The int64 matrix whose rows are ``rows``, each ``dim`` residues mod p."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), dim)


def gfp_rank(mat, p):
    """Rank of ``mat`` over GF(p), vectorized numpy elimination."""
    a = np.asarray(mat, dtype=np.int64) % p
    a = np.ascontiguousarray(a).copy() if a.base is None else a.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        r += 1
    return r


def gfp_in_span(mat, rows, x, p):
    """Whether row ``x`` of ``mat`` lies in the span of its rows ``rows`` over GF(p)."""
    sub = mat[rows]
    base = gfp_rank(sub, p)
    aug = np.vstack([sub, mat[x][None, :]])
    return gfp_rank(aug, p) == base
