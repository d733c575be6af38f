"""Canonical subspaces of GF(q)^m and their lattice operations.

A subspace is stored as the RREF basis of its row space, which makes
equality a plain entry comparison and lets sets of subspaces act as
hashable fixed points for the closure computation.  User coordinates are
numbered 1..m throughout the public API.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import AmbientMismatchError, BadIndexSetError, TooLargeError
from .gfq import FieldMatrix, check_prime, null_space, rref


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
        """Span of a list of length-m vectors."""
        check_prime(q)
        arr = np.array(list(vectors), dtype=np.int64)
        if arr.size == 0:
            arr = np.zeros((0, m), dtype=np.int64)
        return cls(FieldMatrix(arr.reshape(-1, m), q), m)

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

    def _check_ambient(self, other: "Subspace"):
        if self.m != other.m or self.q != other.q:
            raise AmbientMismatchError(
                f"ambient mismatch: ({self.m}, q={self.q}) vs ({other.m}, q={other.q})")

    def contains(self, vector) -> bool:
        """Membership test for a single vector."""
        v = np.asarray(vector, dtype=np.int64) % self.q
        stacked = FieldMatrix(np.vstack([self.basis.data, v.reshape(1, -1)]), self.q)
        return len(rref(stacked)[1]) == self.dim

    def vectors(self) -> np.ndarray:
        """All q^dim member vectors, as an array of shape (q^dim, m)."""
        if self.dim == 0:
            return np.zeros((1, self.m), dtype=np.int64)
        coeffs = np.array(list(itertools.product(range(self.q), repeat=self.dim)),
                          dtype=np.int64)
        return (coeffs @ self.basis.data) % self.q

    # -- lattice operations ------------------------------------------------

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return _intersect_cached(self, other)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return _sum_cached(self, other)

    __and__ = intersect
    __add__ = sum

    def project(self, users) -> "Subspace":
        """Image under selection of the coordinates in `users` (1-based)."""
        cols = _user_columns(users, self.m)
        return Subspace(FieldMatrix(self.basis.data[:, cols], self.q), len(cols))


def _user_columns(users, m: int):
    """Validate a 1-based user index set; return sorted 0-based columns."""
    idx = sorted(set(int(u) for u in users))
    if not idx:
        raise BadIndexSetError("index set is empty")
    if idx[0] < 1 or idx[-1] > m:
        raise BadIndexSetError(f"indices {idx} out of range 1..{m}")
    return [u - 1 for u in idx]


@lru_cache(maxsize=1 << 16)
def _intersect_cached(u: Subspace, w: Subspace) -> Subspace:
    # Null-space method: coefficient pairs (a, b) with a@U = b@W span the
    # intersection via a@U.
    q = u.q
    stacked = np.vstack([u.basis.data, (-w.basis.data) % q])
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.m, q)
    kernel = null_space(FieldMatrix(stacked.T, q))  # (du+dw) x k columns
    coeff_a = kernel.data[: u.dim, :].T             # k x du
    vectors = (coeff_a @ u.basis.data) % q
    return Subspace(FieldMatrix(vectors, q), u.m)


@lru_cache(maxsize=1 << 16)
def _sum_cached(u: Subspace, w: Subspace) -> Subspace:
    stacked = np.vstack([u.basis.data, w.basis.data])
    return Subspace(FieldMatrix(stacked, u.q), u.m)


def closure(subspaces) -> frozenset:
    """Smallest set of subspaces containing the input and closed under
    intersection and sum.  Finite because the subspace lattice is finite."""
    items = list(subspaces)
    if not items:
        return frozenset()
    m, q = items[0].m, items[0].q
    for s in items[1:]:
        if s.m != m or s.q != q:
            raise AmbientMismatchError("subspaces have mixed ambient spaces")
    result = set(items)
    frontier = list(items)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(result):
                for c in (a.intersect(b), a.sum(b)):
                    if c not in result:
                        result.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(result)


def consistency_check(subspaces, users) -> bool:
    """True iff projection onto `users` commutes with intersection for every
    pair in the closure of the given family."""
    closed = sorted(closure(subspaces), key=Subspace.sort_key)
    for a, b in itertools.combinations_with_replacement(closed, 2):
        lhs = a.intersect(b).project(users)
        rhs = a.project(users).intersect(b.project(users))
        if lhs != rhs:
            return False
    return True


def count_subspaces(m: int, d: int, q: int) -> int:
    """Gaussian binomial coefficient: number of d-dim subspaces of GF(q)^m."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (d - i) - 1
    return num // den


def enumerate_subspaces(m: int, d: int, q: int, cap: int = 10 ** 6):
    """All d-dimensional subspaces of GF(q)^m, sorted by the canonical order
    (dimension is fixed here, so lexicographic on the RREF basis).

    Raises TooLargeError if the lattice layer exceeds `cap`.
    """
    check_prime(q)
    total = count_subspaces(m, d, q)
    if total > cap:
        raise TooLargeError(f"{total} subspaces of dimension {d} exceed cap {cap}")
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


def orthogonal_passage_check(subspaces, users, cap: int = 10 ** 6):
    """Search for a subspace W of dimension |users| projecting onto the full
    space of the selected coordinates such that proj(W & V) = proj(V) for
    every V in the family.  Returns the first such W in canonical order, or
    None when no witness exists.
    """
    family = list(subspaces)
    if not family:
        raise ValueError("empty family")
    m, q = family[0].m, family[0].q
    for s in family[1:]:
        if s.m != m or s.q != q:
            raise AmbientMismatchError("subspaces have mixed ambient spaces")
    cols = _user_columns(users, m)
    d = len(cols)
    full = Subspace.full(d, q)
    for w in enumerate_subspaces(m, d, q, cap=cap):
        if w.project(users) != full:
            continue
        if all(w.intersect(v).project(users) == v.project(users) for v in family):
            return w
    return None
