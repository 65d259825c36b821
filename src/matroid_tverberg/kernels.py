"""Exact rank computation over GF(p) for int64 matrices.

This is the one numeric inner loop of the package: every closure-membership
query on a GF(p) vector matroid reduces to two small eliminations mod p.
Two interchangeable implementations are provided:

* a numba ``@njit`` kernel (used by default when numba imports), and
* a vectorized pure-numpy fallback.

The backend is chosen once at import time.  Setting the environment variable
``MATROID_TVERBERG_NUMBA`` to ``0``/``false``/``off`` forces the numpy path.
Both are exact: all arithmetic stays in int64 residues, which is why primes
are capped at 2**31 (intermediate products then fit comfortably in int64).
``benchmarks/bench_kernels.py`` compares the two.
"""

from __future__ import annotations

import numpy as np

from ._env import env_flag

_P_LIMIT = 2**31


def _rank_mod_p(a, p):
    """Row-reduce ``a`` in place mod p and return its rank.

    Plain nested loops so that numba can compile it unchanged.  ``a`` must be
    a C-contiguous int64 array with entries already reduced into [0, p).
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(cols):
                t = a[r, j]
                a[r, j] = a[piv, j]
                a[piv, j] = t
        # Fermat inverse of the pivot (p is prime).
        inv = np.int64(1)
        b = a[r, c]
        e = p - 2
        while e:
            if e & 1:
                inv = (inv * b) % p
            b = (b * b) % p
            e >>= 1
        for j in range(cols):
            a[r, j] = (a[r, j] * inv) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                f = a[i, c]
                for j in range(cols):
                    a[i, j] = (a[i, j] - f * a[r, j]) % p
        r += 1
    return r


def gfp_rank_numpy(mat, p):
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


NUMBA_AVAILABLE = False
gfp_rank_numba = None

if env_flag("MATROID_TVERBERG_NUMBA"):
    try:
        from numba import njit

        _rank_mod_p_jit = njit(cache=True)(_rank_mod_p)

        def gfp_rank_numba(mat, p):
            """Rank of ``mat`` over GF(p) via the numba kernel."""
            _check_prime_size(p)
            a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64) % p)
            if not a.flags.owndata:
                a = a.copy()
            return int(_rank_mod_p_jit(a, p))

        NUMBA_AVAILABLE = True
    except ImportError:
        pass

if NUMBA_AVAILABLE:
    gfp_rank = gfp_rank_numba
    BACKEND = "numba"
else:
    gfp_rank = gfp_rank_numpy
    BACKEND = "numpy"


def active_backend():
    """Name of the elimination backend selected at import ('numba' or 'numpy')."""
    return BACKEND
