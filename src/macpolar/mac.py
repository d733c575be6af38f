"""Explicit discrete m-user multiple access channels over GF(q).

A channel is a dense conditional probability table P(y | x1..xm).  Input
vectors are flattened to little-endian radix-q integers (user 1 is the
least significant digit); outputs are anonymous integer indices.  All
mutual informations use logarithms base q, so every single-user quantity
lives in [0, 1] and the m-user sum capacity in [0, m].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    BadRowSumError,
    BadToleranceError,
    NegativeProbabilityError,
    NonFiniteError,
    NotFullRankError,
    NotSingleUserError,
    TooLargeError,
)
from .gfq import check_prime, mat_rank
from .subspace import user_indices

ROW_SUM_TOL = 1e-12
DEFAULT_MERGE_TOL = 1e-9
MAX_USERS = 16          # users whose 2^m - 1 subsets `user_subsets` may list


# -- input-vector indexing ---------------------------------------------------

@lru_cache(maxsize=None)
def all_vectors(q: int, m: int) -> np.ndarray:
    """All q^m input vectors, row i being the digits of i base q (user 1
    least significant).  Read-only."""
    idx = np.arange(q ** m)
    out = np.empty((q ** m, m), dtype=np.int64)
    for k in range(m):
        out[:, k] = (idx // q ** k) % q
    out.setflags(write=False)
    return out


def user_subsets(m: int) -> list:
    """All non-empty 1-based user subsets as tuples, in bitmask order:
    the subset of mask b holds user k when bit k - 1 of b is set, so the
    full set comes last.  Raises TooLargeError past MAX_USERS users."""
    if m > MAX_USERS:
        raise TooLargeError(f"{2 ** m - 1} user subsets of m={m} users exceed "
                            f"the cap of m={MAX_USERS}")
    return [tuple(k for k in range(1, m + 1) if mask >> (k - 1) & 1)
            for mask in range(1, 2 ** m)]


@lru_cache(maxsize=None)
def add_table(q: int, m: int) -> np.ndarray:
    """ADD[i, j] = index of (vec_i + vec_j) mod q.  Read-only."""
    vecs = all_vectors(q, m)
    powers = q ** np.arange(m)
    table = ((vecs[:, None, :] + vecs[None, :, :]) % q) @ powers
    table.setflags(write=False)
    return table


# -- channel type -------------------------------------------------------------

class DiscreteMac:
    """Explicit m-user MAC with a (q^m, n_outputs) float64 table."""

    __slots__ = ("q", "m", "table")

    def __init__(self, q: int, m: int, table):
        check_prime(q)
        tbl = np.ascontiguousarray(table, dtype=np.float64)
        if tbl.ndim != 2 or tbl.shape[0] != q ** m:
            raise ValueError(f"table must be (q^m, outputs) = ({q ** m}, ...), "
                             f"got {tbl.shape}")
        tbl.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", tbl)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMac is immutable")

    @property
    def output_size(self) -> int:
        return self.table.shape[1]

    def __repr__(self) -> str:
        return f"DiscreteMac(q={self.q}, m={self.m}, outputs={self.output_size})"

    # Convenience method aliases for the module-level operations.
    def mutual_info(self, users) -> float:
        return mutual_info(self, users)

    def sum_capacity(self) -> float:
        return sum_capacity(self)


def validate(mac: DiscreteMac) -> None:
    """Check finiteness, non-negativity and row sums (within 1e-12)."""
    tbl = mac.table
    bad = np.argwhere(~np.isfinite(tbl))
    if bad.size:
        r, c = map(int, bad[0])
        raise NonFiniteError(f"entry ({r}, {c}) is not finite: {float(tbl[r, c])!r}")
    neg = np.argwhere(tbl < 0)
    if neg.size:
        r, c = map(int, neg[0])
        raise NegativeProbabilityError(f"entry ({r}, {c}) is negative: {float(tbl[r, c])!r}")
    sums = tbl.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        r = int(bad[0])
        raise BadRowSumError(f"row {r} sums to {float(sums[r])!r}, expected 1")


# -- information functionals ---------------------------------------------------

def _entropy(p: np.ndarray, q: int) -> float:
    """Entropy in base-q units with the 0 log 0 = 0 convention."""
    p = p[p > 0]
    return float(-(p * (np.log(p) / np.log(q))).sum())


def mutual_info(mac: DiscreteMac, users) -> float:
    """I(X(S); Y, X(S^c)) under independent uniform inputs, base q.

    S is the 1-based user subset; the complement's inputs are side
    information at the receiver.
    """
    q, m = mac.q, mac.m
    s = user_indices(users, m)
    joint = mac.table / q ** m                     # p(x, y)
    # Reshape to (x_m, ..., x_1, y): user k lives on axis m - k.
    shaped = joint.reshape((q,) * m + (-1,))
    s_axes = tuple(m - k for k in s)
    h_y_xc = _entropy(shaped.sum(axis=s_axes).ravel(), q)
    h_all = _entropy(joint.ravel(), q)
    return len(s) + h_y_xc - h_all


def sum_capacity(mac: DiscreteMac) -> float:
    """I(X1..Xm; Y): mutual information of the full user set."""
    return mutual_info(mac, range(1, mac.m + 1))


def bhattacharyya(mac: DiscreteMac) -> float:
    """Bhattacharyya parameter of a single-user channel: the mean pairwise
    Hellinger affinity between distinct input rows, in [0, 1]."""
    if mac.m != 1:
        raise NotSingleUserError(f"channel has m={mac.m}")
    s = np.sqrt(mac.table)
    gram = s @ s.T
    q = mac.q
    return float((gram.sum() - np.trace(gram)) / (q * (q - 1)))


# -- polarization transforms ---------------------------------------------------

def transform_minus(mac: DiscreteMac) -> DiscreteMac:
    """First-step bad channel: P-(y1, y2 | u) = q^-m sum_w P(y1|u+w) P(y2|w).

    Output index is y1 * n + y2.
    """
    q, m = mac.q, mac.m
    t = mac.table
    g = t[add_table(q, m)]                         # g[u, w, y1] = P(y1 | u+w)
    out = np.einsum("uwa,wb->uab", g, t) / q ** m
    return DiscreteMac(q, m, out.reshape(q ** m, -1))


def transform_plus(mac: DiscreteMac) -> DiscreteMac:
    """First-step good channel: P+(y1, y2, u1 | u2) = q^-m P(y1|u1+u2) P(y2|u2).

    Output index is (y1 * n + y2) * q^m + u1 (mixed radix, u1 fastest).
    """
    q, m = mac.q, mac.m
    t = mac.table
    g = t[add_table(q, m)]                         # g[u1, u2, y1]
    out = np.einsum("uwa,wb->wabu", g, t) / q ** m
    return DiscreteMac(q, m, out.reshape(q ** m, -1))


def restrict(mac: DiscreteMac, a, b=None) -> DiscreteMac:
    """Synthesized channel that asks for a^T x when the receiver is also
    handed b^T x alongside y.

    a is m x n1 and b is m x n2 (None for no side info), integer matrices
    read mod q; [a b] must have full column rank.  The result is an
    n1-user MAC with output index y * q^n2 + (index of b^T x).
    """
    q, m = mac.q, mac.m
    a = np.asarray(a, dtype=np.int64) % q
    b = np.zeros((m, 0), dtype=np.int64) if b is None else np.asarray(b, dtype=np.int64) % q
    if a.ndim != 2 or b.ndim != 2 or len(a) != m or len(b) != m:
        raise ValueError("restriction matrices do not match the channel")
    n1, n2 = a.shape[1], b.shape[1]
    if mat_rank(np.hstack([a, b]), q) != n1 + n2:
        raise NotFullRankError("[a b] must have full column rank")
    vecs = all_vectors(q, m)
    u_idx = vecs @ a % q @ q ** np.arange(n1)
    v_idx = vecs @ b % q @ q ** np.arange(n2)
    n_y = mac.output_size
    out = np.zeros((q ** n1, n_y * q ** n2))
    scale = 1.0 / q ** (m - n1)
    # np.add.at adds the input rows in index order, so every sum rounds as
    # a per-row loop's would.
    np.add.at(out, (u_idx[:, None], v_idx[:, None] + np.arange(n_y) * q ** n2),
              mac.table * scale)
    return DiscreteMac(q, n1, out)


def check_merge_tol(tol: float) -> None:
    """A merge tolerance is a non-negative number; inf merges every output
    of positive probability into one."""
    if math.isnan(tol) or tol < 0:
        raise BadToleranceError(f"merge tolerance must be >= 0, got {tol!r}")


def merge_outputs(mac: DiscreteMac, tol: float = DEFAULT_MERGE_TOL) -> DiscreteMac:
    """Merge output symbols whose conditional-probability columns are
    proportional within `tol` (relative to the column mass) and drop
    zero-probability outputs.

    Proportional columns are statistically indistinguishable given the
    input, so every I[S] and Z is preserved; this is what keeps deep
    polarization trees tractable.

    Columns are normalized and sorted lexicographically; a group opens at
    the first column and takes each following column within `tol` (max
    norm) of the column that opened it.  Merged outputs are the group sums,
    ordered by each group's smallest column index.
    """
    check_merge_tol(tol)
    t = mac.table
    sums = t.sum(axis=0)
    keep = np.nonzero(sums > 0.0)[0]
    if keep.size == 0:
        raise ValueError("channel has no outputs with positive probability")
    dirs = t[:, keep] / sums[keep]
    perm = np.lexsort(dirs[::-1])                  # lex order on columns
    order = keep[perm]
    dirs = dirs[:, perm]
    # A column equal to its predecessor is exactly as far from the group's
    # opening column as the predecessor, so it joins the same group: only
    # the distinct directions need the tolerance scan.
    distinct = np.flatnonzero(np.concatenate(
        ([True], (dirs[:, 1:] != dirs[:, :-1]).any(axis=0))))
    uniq = np.ascontiguousarray(dirs[:, distinct].T)
    starts = [0]
    rep = uniq[0]
    for j in range(1, len(uniq)):
        if not np.abs(uniq[j] - rep).max() <= tol:
            starts.append(distinct[j])
            rep = uniq[j]
    ends = starts[1:] + [len(order)]
    first = np.minimum.reduceat(order, starts)     # deterministic output order
    merged = np.column_stack([t[:, order[starts[g]:ends[g]]].sum(axis=1)
                              for g in np.argsort(first).tolist()])
    return DiscreteMac(mac.q, mac.m, merged)
