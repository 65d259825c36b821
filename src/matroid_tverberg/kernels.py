"""Exact rank computation over GF(p) for int64 matrices.

This is the one numeric inner loop of the package: every closure-membership
query on a GF(p) vector matroid reduces to two small eliminations mod p.
The elimination is vectorized numpy and exact: all arithmetic stays in int64
residues, which is why primes are capped at 2**31 (intermediate products
then fit comfortably in int64).
"""

from __future__ import annotations

import numpy as np

_P_LIMIT = 2**31


def gfp_rank(mat, p):
    """Rank of ``mat`` over GF(p), vectorized numpy elimination."""
    _check_prime_size(p)
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


def _check_prime_size(p):
    if p >= _P_LIMIT:
        raise ValueError(f"prime {p} too large for the int64 kernels (limit 2**31)")


def active_backend():
    """Always ``"numpy"``: the one elimination backend.

    Kept only because ``perfbench/harness.py`` records it in each run's
    metadata; it goes when the harness stops reading it.
    """
    return "numpy"
