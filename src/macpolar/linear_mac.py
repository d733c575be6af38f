"""Channels that are weighted combinations of deterministic linear channels.

Such a channel draws a subspace V_k with probability p_k, reveals the
index k, and outputs a fixed linear image of the input whose row space is
V_k.  The whole polarization process then lives in the subspace lattice:
the bad transform intersects pairs of subspaces, the good transform sums
them, and all mutual informations reduce to weighted projected dimensions.

The two-user binary case has only five subspaces, so its state is a plain
5-vector and the transforms become fixed polynomials; that path is exact
and fast enough to enumerate thousands of polarization levels' branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndexSetError,
    NonFiniteError,
    TooDeepError,
    TooLargeError,
    TooManyUsersError,
)
from .gfq import check_prime
from .mac import DiscreteMac, all_vectors, user_subsets
from .subspace import Subspace, consistency_check

WEIGHT_TOL = 1e-12
ENUMERATE_DEPTH_CAP = 20
EXTREMAL_TOL = 1e-3


class LinearComboMac:
    """Weighted combination of linear channels, one term per subspace.

    Terms with the same canonical subspace are merged at construction, so
    the term count never exceeds the (finite) subspace lattice size.
    """

    __slots__ = ("q", "m", "terms")

    def __init__(self, q: int, m: int, terms):
        check_prime(q)
        terms = list(terms)
        weights = np.array([w for w, _ in terms], dtype=np.float64)
        if not np.isfinite(weights).all():
            raise NonFiniteError(f"weights must be finite, got {weights.tolist()}")
        merged: dict[Subspace, float] = {}
        for w, (_, sub) in zip(weights.tolist(), terms):
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
            if sub.m != m or sub.q != q:
                raise ValueError("subspace ambient does not match the channel")
            merged[sub] = merged.get(sub, 0.0) + w
        total = sum(merged.values())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        ordered = sorted(merged.items(), key=lambda kv: kv[0].sort_key())
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", tuple((w, s) for s, w in ordered))

    def __setattr__(self, name, value):
        raise AttributeError("LinearComboMac is immutable")

    def __repr__(self):
        body = ", ".join(f"{w:.4g}*dim{s.dim}" for w, s in self.terms)
        return f"LinearComboMac(q={self.q}, m={self.m}, [{body}])"

    def subspaces(self):
        return [s for _, s in self.terms]

    def mutual_info(self, users) -> float:
        """I[S] as the weighted sum of projected subspace dimensions."""
        if not users:
            raise BadIndexSetError("index set is empty")
        return float(sum(w * s.project(users).dim for w, s in self.terms))

    def sum_capacity(self) -> float:
        return self.mutual_info(range(1, self.m + 1))

    def minus(self) -> "LinearComboMac":
        """Bad transform: pairwise subspace intersections, weights multiplied."""
        return self._pair_transform(lambda a, b: a.intersect(b))

    def plus(self) -> "LinearComboMac":
        """Good transform: pairwise subspace sums, weights multiplied."""
        return self._pair_transform(lambda a, b: a.sum(b))

    def _pair_transform(self, op) -> "LinearComboMac":
        acc: dict[Subspace, float] = {}
        for w1, s1 in self.terms:
            for w2, s2 in self.terms:
                key = op(s1, s2)
                acc[key] = acc.get(key, 0.0) + w1 * w2
        return LinearComboMac(self.q, self.m, [(w, s) for s, w in acc.items()])

    def preserves(self, users) -> bool:
        """Whether I[S] survives polarization (projection/intersection
        commute on the closure of the term subspaces)."""
        if not users:
            raise BadIndexSetError("index set is empty")
        return consistency_check(self.subspaces(), users)

    def to_explicit(self, max_cells: int = 10 ** 6) -> DiscreteMac:
        """Materialize the probability table; output alphabet is the disjoint
        union over terms k of GF(q)^dim(V_k), using the canonical basis of
        each subspace as the revealed linear map."""
        q, m = self.q, self.m
        n_out = sum(q ** s.dim for _, s in self.terms)
        if q ** m * n_out > max_cells:
            raise TooLargeError(f"table would have {q ** m * n_out} cells")
        vecs = all_vectors(q, m)
        table = np.zeros((q ** m, n_out))
        offset = 0
        for w, sub in self.terms:
            d = sub.dim
            y = (vecs @ sub.basis.data.T) % q @ (q ** np.arange(d)) if d else \
                np.zeros(q ** m, dtype=np.int64)
            table[np.arange(q ** m), offset + y] = w
            offset += q ** d
        return DiscreteMac(q, m, table)

    def region(self) -> "RateRegion":
        return rate_region(self)


def rate_region(channel: "LinearComboMac | DiscreteMac") -> "RateRegion":
    """Polymatroid constraint list, with explicit vertices for two users.

    Needs only `.m` and `.mutual_info`, so explicit channels work too."""
    if channel.m > 4:
        raise TooManyUsersError(f"region enumeration limited to m <= 4, got {channel.m}")
    constraints = tuple((s, channel.mutual_info(s)) for s in user_subsets(channel.m))
    vertices = dominant = None
    if channel.m == 2:
        (_, i1), (_, i2), (_, i12) = constraints
        walk = [(0.0, 0.0), (i1, 0.0), (i1, i12 - i1), (i12 - i2, i2), (0.0, i2)]
        vertices = _dedupe(walk)
        dominant = _dedupe([(i1, i12 - i1), (i12 - i2, i2)])
    return RateRegion(constraints, vertices, dominant)


def _dedupe(points, tol: float = 1e-12):
    out = []
    for p in points:
        if not any(abs(p[0] - x) <= tol and abs(p[1] - y) <= tol for x, y in out):
            out.append(p)
    return out


@dataclass(frozen=True)
class RateRegion:
    constraints: tuple          # ((users...), bound) for each non-empty subset
    vertices: list | None       # polygon walk, two-user channels only
    dominant_face: list | None  # endpoints of the max-sum-rate face


# -- binary two-user recursion -------------------------------------------------

# The five subspaces of GF(2)^2 in their fixed component order: the zero
# space, span{(1,0)}, span{(0,1)}, span{(1,1)}, and the full plane.
def binary2_subspaces():
    return [
        Subspace.zero(2, 2),
        Subspace.from_vectors([[1, 0]], 2, 2),
        Subspace.from_vectors([[0, 1]], 2, 2),
        Subspace.from_vectors([[1, 1]], 2, 2),
        Subspace.full(2, 2),
    ]


def binary2_state(combo: LinearComboMac) -> np.ndarray:
    """5-vector of weights in the fixed component order (q=2, m=2 only)."""
    if combo.q != 2 or combo.m != 2:
        raise ValueError("binary two-user state requires q=2, m=2")
    order = {s: i for i, s in enumerate(binary2_subspaces())}
    p = np.zeros(5)
    for w, s in combo.terms:
        p[order[s]] = w
    return p


def binary2_combo(p) -> LinearComboMac:
    """Inverse of binary2_state; zero-weight components are dropped."""
    subs = binary2_subspaces()
    return LinearComboMac(2, 2, [(w, s) for w, s in zip(np.asarray(p, float), subs) if w > 0])


def check_state(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 5:
        raise ValueError("state must have 5 components")
    sums = p.sum(axis=-1)
    # A NaN or infinite component makes its state's sum non-finite.
    if not np.isfinite(sums).all():
        raise NonFiniteError("state components must be finite")
    if np.any(p < 0):
        raise ValueError("state components must be non-negative")
    if np.max(np.abs(sums - 1.0)) > WEIGHT_TOL:
        raise ValueError("state components must sum to 1")
    return p


def binary2_step(p):
    """One polarization step of the 5-component state.

    Accepts a single state or an array of states (last axis = 5); returns
    (minus, plus).  These are the closed forms of the pairwise
    intersection/sum transform specialized to the five subspaces of
    GF(2)^2; both outputs conserve total weight exactly.
    """
    p = check_state(p)
    p0, p1, p2, p3, p4 = (p[..., k] for k in range(5))
    cross = p1 * p2 + p2 * p3 + p1 * p3
    minus = np.stack([
        p0 * p0 + 2 * p0 * (p1 + p2 + p3 + p4) + 2 * cross,
        p1 * p1 + 2 * p1 * p4,
        p2 * p2 + 2 * p2 * p4,
        p3 * p3 + 2 * p3 * p4,
        p4 * p4,
    ], axis=-1)
    plus = np.stack([
        p0 * p0,
        p1 * p1 + 2 * p1 * p0,
        p2 * p2 + 2 * p2 * p0,
        p3 * p3 + 2 * p3 * p0,
        p4 * p4 + 2 * p4 * (p0 + p1 + p2 + p3) + 2 * cross,
    ], axis=-1)
    return minus, plus


def total_loss_predict(p) -> bool:
    """Sufficient condition for the dominant face to collapse to a point:
    the diagonal component is dominated by an axis component (ties count).
    Callers compare against the empirically evolved state."""
    p = check_state(p)
    return bool(p[3] <= max(p[1], p[2]))


def state_stats(states: np.ndarray, tol_extremal: float = EXTREMAL_TOL):
    """Averages and extremal fraction for an array of 5-states."""
    avg = states.mean(axis=0)
    extremal = float(np.mean(states.max(axis=-1) >= 1.0 - tol_extremal))
    return avg, extremal


@dataclass(frozen=True)
class EvolveLevel:
    level: int
    p_avg: tuple                 # averaged 5-state over branches
    i1: float
    i2: float
    i_sum: float
    extremal_fraction: float
    stderr: tuple | None = None  # per-component standard error (sample mode)


@dataclass(frozen=True)
class EvolveReport:
    mode: str                    # "enumerate" or "sample"
    levels: tuple                # EvolveLevel per depth 0..l
    n_paths: int | None = None
    seed: int | None = None

    @property
    def final(self) -> EvolveLevel:
        return self.levels[-1]


def _level_entry(level, states, stderr=None):
    avg, extremal = state_stats(states)
    return EvolveLevel(
        level=level,
        p_avg=tuple(avg.tolist()),
        i1=float(avg[1] + avg[3] + avg[4]),
        i2=float(avg[2] + avg[3] + avg[4]),
        i_sum=float(avg[1] + avg[2] + avg[3] + 2 * avg[4]),
        extremal_fraction=extremal,
        stderr=stderr,
    )


def binary2_evolve(p, depth: int, mode: str = "enumerate",
                   n_paths: int = 1000, seed: int = 0) -> EvolveReport:
    """Evolve a 5-state through `depth` polarization levels.

    mode="enumerate" tracks all 2^depth branches exactly (depth <= 20);
    mode="sample" follows `n_paths` seeded random branch paths and also
    reports standard errors of the per-component averages.
    """
    start = check_state(p).reshape(1, 5)
    if mode == "enumerate":
        if depth > ENUMERATE_DEPTH_CAP:
            raise TooDeepError(
                f"enumeration of 2^{depth} branches exceeds cap 2^{ENUMERATE_DEPTH_CAP}")
        states = start
        levels = [_level_entry(0, states)]
        for lvl in range(1, depth + 1):
            minus, plus = binary2_step(states)
            states = np.concatenate([minus, plus], axis=0)
            # Renormalize: the per-state sum drift doubles per level (s -> s^2),
            # which would escape the 1e-12 invariant near depth 14.
            states /= states.sum(axis=1, keepdims=True)
            levels.append(_level_entry(lvl, states))
        return EvolveReport(mode="enumerate", levels=tuple(levels))
    if mode == "sample":
        rng = np.random.default_rng([seed])
        states = np.repeat(start, n_paths, axis=0)
        levels = [_level_entry(0, states, stderr=(0.0,) * 5)]
        for lvl in range(1, depth + 1):
            minus, plus = binary2_step(states)
            pick = rng.integers(0, 2, size=n_paths)
            states = np.where(pick[:, None] == 0, minus, plus)
            states /= states.sum(axis=1, keepdims=True)
            se = tuple((states.std(axis=0, ddof=1) / np.sqrt(n_paths)).tolist())
            levels.append(_level_entry(lvl, states, stderr=se))
        return EvolveReport(mode="sample", levels=tuple(levels),
                            n_paths=n_paths, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")
