"""Exact arithmetic and dense linear algebra over prime fields GF(q).

Matrices are small, dense integer arrays, read mod q; results are new
int64 arrays with entries in [0, q).  Everything here is exact integer
arithmetic mod q -- no floating point.  Only prime q is supported; prime
powers are rejected.
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    """Primality by trial division (fields here are tiny)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(q: int) -> int:
    if not is_prime(q):
        raise ValueError(f"q must be a prime number, got {q} "
                         "(prime-power fields are not supported)")
    return q


def rref(a, q: int):
    """Reduced row-echelon form over GF(q) of the integer matrix `a`,
    read mod q.

    Returns
    -------
    (np.ndarray, list[int])
        A new int64 matrix of a's shape with the same row space, in RREF,
        and the strictly increasing pivot column indices.
    """
    check_prime(q)
    r = np.asarray(a, dtype=np.int64) % q
    if r.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={r.ndim}")
    pivots = []
    for c in range(r.shape[1]):
        k = len(pivots)
        if k == len(r):
            break
        nz = np.flatnonzero(r[k:, c])
        if nz.size == 0:
            continue
        p = k + nz[0]
        if p != k:
            r[[k, p]] = r[[p, k]]
        # Fermat: x^(q-2) = x^-1 for prime q.
        r[k] = r[k] * pow(int(r[k, c]), q - 2, q) % q
        # Clear column c everywhere else in one exact update.
        factors = r[:, c].copy()
        factors[k] = 0
        r = (r - np.outer(factors, r[k])) % q
        pivots.append(c)
    return r, pivots


def mat_rank(a, q: int) -> int:
    """Rank over GF(q) of the integer matrix `a` by exact Gaussian elimination."""
    return len(rref(a, q)[1])
