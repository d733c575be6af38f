"""Exact arithmetic and dense linear algebra over prime fields GF(q).

All matrices are small and dense; entries are integers in [0, q) held in
numpy int64 arrays.  Everything here is exact integer arithmetic mod q --
no floating point.  Only prime q is supported; prime powers are rejected.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroInverseError


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


def field_inv(a: int, q: int) -> int:
    """Multiplicative inverse of a mod prime q."""
    check_prime(q)
    a = a % q
    if a == 0:
        raise ZeroInverseError("0 has no multiplicative inverse")
    # Fermat: a^(q-2) = a^-1 for prime q.
    return pow(a, q - 2, q)


class FieldMatrix:
    """Immutable dense matrix over GF(q).

    Parameters
    ----------
    entries : array-like of shape (rows, cols)
        Integer entries; reduced mod q on construction.
    q : int
        Prime modulus.
    """

    __slots__ = ("q", "data")

    def __init__(self, entries, q: int):
        check_prime(q)
        data = np.asarray(entries, dtype=np.int64) % q
        if data.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={data.ndim}")
        data.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def identity(cls, n: int, q: int) -> "FieldMatrix":
        return cls(np.eye(n, dtype=np.int64), q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldMatrix)
                and self.q == other.q
                and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self) -> int:
        return hash((self.q, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.data.tolist()}, q={self.q})"

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.q != other.q:
            raise ValueError("moduli differ")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return FieldMatrix(self.data @ other.data, self.q)

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.q != other.q:
            raise ValueError("moduli differ")
        if self.cols == 0:
            return other
        if other.cols == 0:
            return self
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return FieldMatrix(np.hstack([self.data, other.data]), self.q)


def rref(m: FieldMatrix):
    """Reduced row-echelon form over GF(q).

    Returns
    -------
    (FieldMatrix, list[int])
        The RREF matrix (same shape) and the strictly increasing pivot
        column indices.  Row space is preserved.
    """
    q = m.q
    a = m.data.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # Find a pivot at or below row r.
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = field_inv(int(a[r, c]), q)
        a[r] = (a[r] * inv) % q
        # Eliminate everywhere else in this column.
        others = np.nonzero(a[:, c])[0]
        for i in others:
            if i != r:
                a[i] = (a[i] - a[i, c] * a[r]) % q
        pivots.append(c)
        r += 1
    return FieldMatrix(a, q), pivots


def mat_rank(m: FieldMatrix) -> int:
    """Rank over GF(q) by exact Gaussian elimination."""
    return len(rref(m)[1])
