"""Canonical subspaces of GF(q)^m and their enumeration.

A subspace is stored as the RREF basis of its row space, which makes
equality a plain entry comparison and subspaces usable as dict keys.  Meet
and join are tables of `linear_mac.subspace_lattice`.  User coordinates are
numbered 1..m throughout the public API.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BadIndexSetError, TooLargeError
from .gfq import FieldMatrix, check_prime, rref

LAYER_CAP = 10 ** 6     # subspaces of one dimension `enumerate_subspaces` may list


class Subspace:
    """A subspace of GF(q)^m, canonicalized to its RREF basis rows."""

    __slots__ = ("m", "q", "basis")

    def __init__(self, basis: FieldMatrix, m: int, *, _canonical: bool = False):
        if basis.cols != m:
            raise ValueError(f"basis vectors have length {basis.cols}, ambient is {m}")
        if not _canonical:
            red, pivots = rref(basis)
            basis = FieldMatrix(red.data[: len(pivots)], basis.q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", basis.q)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vectors(cls, vectors, m: int, q: int) -> "Subspace":
        """Span of a list of length-m vectors; anything that is not an
        (n, m) array raises ValueError."""
        check_prime(q)
        arr = np.array(list(vectors), dtype=np.int64)
        if arr.shape == (0,):
            arr = arr.reshape(0, m)
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"expected vectors of length {m}, got an array "
                             f"of shape {arr.shape}")
        return cls(FieldMatrix(arr, q), m)

    @classmethod
    def zero(cls, m: int, q: int) -> "Subspace":
        return cls.from_vectors([], m, q)

    @classmethod
    def full(cls, m: int, q: int) -> "Subspace":
        return cls(FieldMatrix.identity(m, q), m, _canonical=True)

    # -- basic protocol ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.m == other.m
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.m, self.basis))

    def __repr__(self) -> str:
        return f"Subspace({self.basis.data.tolist()}, m={self.m}, q={self.q})"

    def sort_key(self):
        """Dimension, then lexicographic on the flattened RREF basis."""
        return (self.dim, tuple(self.basis.data.ravel().tolist()))

    def vectors(self) -> np.ndarray:
        """All q^dim member vectors, as an array of shape (q^dim, m)."""
        if self.dim == 0:
            return np.zeros((1, self.m), dtype=np.int64)
        coeffs = np.array(list(itertools.product(range(self.q), repeat=self.dim)),
                          dtype=np.int64)
        return (coeffs @ self.basis.data) % self.q

    def project(self, users) -> "Subspace":
        """Image under selection of the coordinates in `users` (1-based)."""
        cols = [u - 1 for u in user_indices(users, self.m)]
        return Subspace(FieldMatrix(self.basis.data[:, cols], self.q), len(cols))


def user_indices(users, m: int) -> list:
    """Validate a 1-based user index set; return it sorted, without repeats."""
    idx = sorted(set(int(u) for u in users))
    if not idx:
        raise BadIndexSetError("index set is empty")
    if idx[0] < 1 or idx[-1] > m:
        raise BadIndexSetError(f"indices {idx} out of range 1..{m}")
    return idx


def count_subspaces(m: int, d: int, q: int) -> int:
    """Gaussian binomial coefficient: number of d-dim subspaces of GF(q)^m."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (d - i) - 1
    return num // den


def enumerate_subspaces(m: int, d: int, q: int):
    """All d-dimensional subspaces of GF(q)^m, sorted by the canonical order
    (dimension is fixed here, so lexicographic on the RREF basis).

    Raises TooLargeError if the lattice layer exceeds `LAYER_CAP`.
    """
    check_prime(q)
    total = count_subspaces(m, d, q)
    if total > LAYER_CAP:
        raise TooLargeError(f"{total} subspaces of dimension {d} exceed cap {LAYER_CAP}")
    if d == 0:
        return [Subspace.zero(m, q)]
    out = []
    for pivots in itertools.combinations(range(m), d):
        # Free entries sit right of their pivot, in non-pivot columns.
        free_pos = [(r, c) for r in range(d) for c in range(m)
                    if c > pivots[r] and c not in pivots]
        base = np.zeros((d, m), dtype=np.int64)
        for r, p in enumerate(pivots):
            base[r, p] = 1
        for values in itertools.product(range(q), repeat=len(free_pos)):
            mat = base.copy()
            for (r, c), v in zip(free_pos, values):
                mat[r, c] = v
            out.append(Subspace(FieldMatrix(mat, q), m, _canonical=True))
    out.sort(key=Subspace.sort_key)
    return out
