"""Polarization tree over branch signatures and code construction.

A branch signature is a string over {'-', '+'} of length l.  The first
symbol is the outermost (final) split of the synthesized channel and the
last symbol is the transform applied directly to the base channel; this
matches the encoder recursion and the decoding order, which sorts
signatures by their last differing position with '-' before '+'.  A
signature's integer key therefore reads the first symbol as the least
significant bit, and increasing key is decoding order.

Explicit branch channels are built with output merging after every step,
which is what keeps depth-8 trees tractable.  A linear combination is
polarized on its subspace lattice instead (`linear_mac`), where every
branch statistic is an exact weighted sum.

Construction ends in a `CodeSpec`, held in columns built from the leaf
statistics as arrays.  Its `check` alone decides whether a spec is
consistent, and its file format is `jsonio`'s.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import SpecMismatchError, TooLargeError
from .gfq import rref
from .linear_mac import LinearComboMac, lattice_levels, subspace_lattice
from .mac import (
    DEFAULT_MERGE_TOL,
    DiscreteMac,
    all_vectors,
    bhattacharyya,
    check_merge_tol,
    merge_outputs,
    restrict,
    sum_capacity,
    transform_minus,
    transform_plus,
)
from .subspace import Subspace

MAX_BRANCH_OUTPUTS = 10 ** 5
MAX_CODE_BRANCHES = 2 ** 22     # a spec holds three floats and a shape per branch
MINUS, PLUS = "-", "+"


# -- signatures in decoding order ----------------------------------------------

def all_sigs(length: int):
    """All 2^length signatures in decoding order.  The last symbol is the
    most significant, so each length lists the one before it with '-'
    appended, then with '+' appended."""
    sigs = [""]
    for _ in range(length):
        sigs = [s + MINUS for s in sigs] + [s + PLUS for s in sigs]
    return sigs


# -- the polarization tree ----------------------------------------------------

def check_code_depth(depth: int) -> None:
    """Refuse a depth whose 2^depth branches pass MAX_CODE_BRANCHES,
    without forming 2^depth."""
    if depth >= MAX_CODE_BRANCHES.bit_length():        # 2^depth > MAX_CODE_BRANCHES
        raise TooLargeError(f"a depth-{depth} code has 2^{depth} branches, more than "
                            f"MAX_CODE_BRANCHES = {MAX_CODE_BRANCHES}")


def polarization_tree(root, depth: int, step):
    """Yield (sig, node) for every node of the depth-`depth` tree, in
    preorder with the '-' child before the '+' child.

    `step(node, symbol)` builds a child.  Leaves arrive in decoding order,
    and so do the nodes of each level, so grouping by len(sig) gives every
    level in decoding order.  Both children of a node are built before
    either subtree is walked: a '+' sibling, usually the larger one, is
    checked against any size cap before the walk goes two levels deeper.
    Only the pending '+' siblings are held, at most one per level.
    """
    pending = [("", root)]
    while pending:
        sig, node = pending.pop()
        yield sig, node
        if len(sig) < depth:
            minus = step(node, MINUS)
            pending.append((PLUS + sig, step(node, PLUS)))
            pending.append((MINUS + sig, minus))


def branch_step(channel: DiscreteMac, symbol: str,
                merge_tol: float = DEFAULT_MERGE_TOL,
                max_outputs: int = MAX_BRANCH_OUTPUTS) -> DiscreteMac:
    """Tree step for explicit channels: transform, merge the outputs, and
    refuse a child with more than `max_outputs` outputs."""
    check_merge_tol(merge_tol)
    out = transform_minus(channel) if symbol == MINUS else transform_plus(channel)
    out = merge_outputs(out, merge_tol)
    if out.output_size > max_outputs:
        raise TooLargeError(
            f"branch channel has {out.output_size} outputs after merging "
            f"(cap {max_outputs})")
    return out


# -- per-direction statistics and linear-channel detection ----------------------

def projective_directions(q: int, m: int) -> np.ndarray:
    """One representative per 1-dim subspace of GF(q)^m: all nonzero vectors
    whose first nonzero coordinate is 1, in input-index order, as rows."""
    vecs = all_vectors(q, m)[1:]
    return vecs[vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1]


@dataclass(frozen=True)
class DirectionStat:
    alpha: tuple   # canonical direction vector
    i: float       # mutual information of the direction channel, base q
    z: float       # Bhattacharyya parameter of the same channel


def direction_stats(channel: DiscreteMac):
    """I and Z of the single-user channel of every projective direction."""
    stats = []
    for alpha in projective_directions(channel.q, channel.m):
        single = restrict(channel, alpha.reshape(-1, 1))
        stats.append(DirectionStat(alpha=tuple(alpha.tolist()),
                                   i=sum_capacity(single),
                                   z=bhattacharyya(single)))
    return stats


def detect_linear(channel: DiscreteMac, eps: float, stats=None):
    """Find the emergent deterministic-linear part of a nearly polarized
    channel.

    Collects the directions with I > 1 - eps and spans them.  The good
    directions lie in their span, so they are all of it exactly when there
    are (q^d - 1)/(q - 1) of them, d the span's dimension.  Returns an
    (m, rank) int array on success -- (m, 0) when no direction is good --
    and None when the good set fails to be a subspace.  The columns are
    the span's RREF basis rows (read-only).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if stats is None:
        stats = direction_stats(channel)
    q, m = channel.q, channel.m
    good = [st.alpha for st in stats if st.i > 1 - eps]
    span = Subspace.from_vectors(good, m, q)
    if len(good) != (q ** span.dim - 1) // (q - 1):
        return None
    return span.basis.T


# -- code specification ----------------------------------------------------------

# What a branch's frozen map is made of: r column tuples of length m, the
# 1-based users carrying information, and m flags, 1 where a user is frozen.
BranchShape = namedtuple("BranchShape", "in_good_set r a_columns s_users frozen")
# One branch of a spec, as the `CodeSpec.branches` view lists it.
BranchCode = namedtuple("BranchCode", "sig in_good_set r a_columns s_users frozen z_sum "
                                      "i_branch i_detected")


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A polar code in columns.  Each distinct `BranchShape` is stored
    once, by first use.  Branch b, in decoding order, has the shape
    shapes[shape_index[b]], the floats z_sum[b], i_branch[b] and
    i_detected[b], and the signature all_sigs(l)[b]."""
    q: int
    m: int
    l: int
    eps: float
    z_budget: float
    merge_tol: float
    shapes: tuple             # distinct BranchShapes
    shape_index: np.ndarray   # (N,) ints into shapes
    z_sum: np.ndarray         # (N,) floats
    i_branch: np.ndarray      # (N,) floats
    i_detected: np.ndarray    # (N,) floats
    rate_vector: tuple        # R_k per user
    sum_rate: float
    union_bound: float

    @property
    def block_length(self) -> int:
        return 1 << self.l

    @property
    def good_count(self) -> int:
        return int(np.array([s.in_good_set for s in self.shapes])[self.shape_index].sum())

    @property
    def branches(self) -> tuple:
        """One `BranchCode` per branch in decoding order, built on each call."""
        sigs = all_sigs(self.l) + [""] * (len(self.shape_index) - self.block_length)
        rows = zip(sigs, map(self.shapes.__getitem__, self.shape_index.tolist()),
                   self.z_sum.tolist(), self.i_branch.tolist(), self.i_detected.tolist())
        return tuple(BranchCode(sig, *shape, *floats) for sig, shape, *floats in rows)

    def frozen_mask(self) -> np.ndarray:
        """(N, m) booleans in key order, True where a branch's user is
        frozen.  A message is an (N, m) array of GF(q) symbols; its
        information symbols are the ones at the False positions."""
        return np.array([s.frozen for s in self.shapes], dtype=bool).reshape(
            len(self.shapes), self.m)[self.shape_index]

    def check(self):
        """Internal consistency of the stored code, each shape decided once
        and used at least once; raises SpecMismatchError at the first
        inconsistency."""
        n, m, index = self.block_length, self.m, self.shape_index
        if len(index) != n or len(self.rate_vector) != m:
            raise SpecMismatchError(f"spec has {len(index)} branches and {len(self.rate_vector)} "
                                    f"rates, expected {n} and {m}")
        if ({len(self.z_sum), len(self.i_branch), len(self.i_detected)} != {n}
                or not 0 <= index.min() <= index.max() < len(self.shapes)):
            raise SpecMismatchError(f"branch columns are not {n} entries each, or a shape "
                                    f"index is not one of the {len(self.shapes)} shapes")
        counts = np.bincount(index, minlength=len(self.shapes)).tolist()
        if 0 in counts:
            raise SpecMismatchError(f"shape {counts.index(0)} is used by no branch")
        errors = [_shape_error(*shape, self.q, m) for shape in self.shapes]
        if any(errors):
            at = int(np.flatnonzero(np.array(list(map(bool, errors)))[index])[0])
            raise SpecMismatchError(f"branch {all_sigs(self.l)[at]}: {errors[index[at]]}")
        rate_vector, sum_rate = _rates(self.shapes, counts, m)
        for k, (rk, stored) in enumerate(zip(rate_vector, self.rate_vector), 1):
            if not abs(rk - stored) < 1e-12:
                raise SpecMismatchError(f"R_{k} = {stored!r}, but the frozen map gives {rk!r}")
        if not abs(sum_rate - self.sum_rate) < 1e-12:
            raise SpecMismatchError(f"sum rate {self.sum_rate!r}, but the good "
                                    f"set gives {sum_rate!r}")
        return True


def _rates(shapes, counts, m: int):
    """(rate_vector, sum_rate) of branches with these shapes and counts:
    per user the share not frozen, and the good branches' summed r per branch."""
    n = sum(counts)
    used = [(shape, c) for shape, c in zip(shapes, counts) if c]
    return (tuple(sum(c * (1 - shape.frozen[k]) for shape, c in used) / n for k in range(m)),
            sum(c * shape.r for shape, c in used if shape.in_good_set) / n)


def _shape_error(in_good_set, r, a_columns, s_users, frozen, q: int, m: int) -> str:
    """Why a branch with these fields does not belong in a spec over
    GF(q)^m, or '' if it does."""
    if not (r == len(s_users) == len(a_columns) and len(frozen) == m):
        return (f"r={r} does not match its {len(s_users)} users and "
                f"{len(a_columns)} columns, or it has {len(frozen)} frozen "
                f"flags for m={m}")
    for k in range(1, m + 1):
        if (frozen[k - 1] == 0) != (k in s_users):
            return (f"user {k}'s frozen flag contradicts the information "
                    f"users {s_users}")
    if not r:
        return ""
    if not in_good_set:
        return f"information users {s_users} on a branch outside the good set"
    return _info_map_error(a_columns, s_users, q, m)


@lru_cache(maxsize=None)
def _info_map_error(a_columns: tuple, s_users: tuple, q: int, m: int) -> str:
    """Why a branch's information map is not canonical, or '' if it is:
    its columns must be the RREF basis rows of their span, and its
    information users the pivot columns, plus 1.  A spec holds only a
    handful of distinct maps."""
    if any(len(c) != m for c in a_columns):
        return f"a_columns {a_columns} are not vectors of length {m}"
    if any(not 0 <= x < q for c in a_columns for x in c):
        return f"a_columns {a_columns} have entries outside 0..{q - 1}"
    rows = np.array(a_columns, dtype=np.int64).reshape(-1, m)
    red, pivots = rref(rows, q)
    if len(pivots) != len(rows) or tuple(map(tuple, red.tolist())) != a_columns:
        return f"a_columns {a_columns} are not an RREF basis"
    if s_users != tuple(p + 1 for p in pivots):
        return (f"information users {s_users} are not the pivot columns of "
                f"a_columns {a_columns}")
    return ""


def build_code(channel: "DiscreteMac | LinearComboMac", depth: int, eps: float,
               z_budget: float, merge_tol: float = DEFAULT_MERGE_TOL,
               max_outputs: int = MAX_BRANCH_OUTPUTS) -> CodeSpec:
    """Construct the frozen map for a depth-l polar code on `channel`.

    A branch joins the good set when linear detection succeeds, the
    detected information accounts for the branch's within eps both in
    value and in integer rank, and the summed direction Bhattacharyya
    parameters stay below z_budget.  A good branch's columns are the RREF
    basis rows of its detected subspace, and its information users are
    their pivot columns: the lexicographically smallest user set on which
    the columns' rows are independent.  Everything else is frozen.

    A code of more than MAX_CODE_BRANCHES branches is refused before any
    walk.  A `LinearComboMac` is polarized on its subspace lattice, with exact
    statistics and no output merging: `merge_tol` is validated and recorded
    but unused there, and so is `max_outputs`.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not z_budget > 0:        # NaN too
        raise ValueError("z_budget must be positive")
    check_merge_tol(merge_tol)
    check_code_depth(depth)
    q, m = channel.q, channel.m
    if isinstance(channel, LinearComboMac):
        maps, which, z_sum, i_branch, i_det = _lattice_leaves(channel, depth, eps)
    else:
        step = partial(branch_step, merge_tol=merge_tol, max_outputs=max_outputs)
        maps, which, z_sum, i_branch, i_det = _explicit_leaves(channel, depth, eps, step)
    rank = np.array([-1 if cols is None else len(cols) for cols in maps])[which]
    good = ((rank >= 0) & (abs(i_det - i_branch) < eps) & (abs(rank - i_branch) < eps)
            & (z_sum < z_budget))
    # Branch b's shape is its detected subspace's if it is good, else the
    # fully frozen one (-1); shapes are numbered by first use.
    keys, first, inverse = np.unique(np.where(good, which, -1), return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    shapes = []
    for k in keys[order].tolist():
        cols = maps[k] if k >= 0 else ()
        users = tuple(next(i for i, x in enumerate(c) if x) + 1 for c in cols)
        shapes.append(BranchShape(k >= 0, len(cols), cols, users,
                                  tuple(int(u not in users) for u in range(1, m + 1))))
    shape_index = np.argsort(order)[inverse.reshape(-1)]
    rate_vector, sum_rate = _rates(shapes, np.bincount(shape_index).tolist(), m)
    # One term at a time in decoding order: the bits of a per-branch running sum.
    union_bound = float(np.add.accumulate(np.append(0.0, q * z_sum[good]))[-1])
    return CodeSpec(q=q, m=m, l=depth, eps=eps, z_budget=z_budget, merge_tol=merge_tol,
                    shapes=tuple(shapes), shape_index=shape_index, z_sum=z_sum,
                    i_branch=i_branch, i_detected=i_det, rate_vector=rate_vector,
                    sum_rate=sum_rate, union_bound=union_bound)


def _explicit_leaves(channel: DiscreteMac, depth: int, eps: float, step):
    """(maps, which, z_sum, i_branch, i_detected) of the depth-`depth`
    branches in decoding order: maps lists the distinct detected columns
    (None where the good directions do not form a subspace), which is
    each branch's position in maps, and the rest are (N,) float arrays."""
    maps, which, floats = {}, [], []
    for sig, ch in polarization_tree(channel, depth, step):
        if len(sig) < depth:
            continue
        stats = direction_stats(ch)
        a = detect_linear(ch, eps, stats)
        a_cols = None if a is None else tuple(map(tuple, a.T.tolist()))
        z_of = {st.alpha: st.z for st in stats}
        z_sum = float(sum(z_of[c] for c in a_cols or ()))
        i_det = sum_capacity(restrict(ch, a)) if a_cols else 0.0
        which.append(maps.setdefault(a_cols, len(maps)))
        floats.append((z_sum, sum_capacity(ch), i_det))
    return (list(maps), np.array(which), *np.array(floats, dtype=np.float64).T.copy())


def _lattice_leaves(combo: LinearComboMac, depth: int, eps: float):
    """`_explicit_leaves` read off the subspace weights, one map per subspace.

    Every direction channel of a linear combination is an erasure channel:
    I_alpha is the weight of the subspaces that contain alpha, Z_alpha the
    weight of the rest.  Detection succeeds when the good directions are
    exactly the directions of one subspace S; then the branch carries
    sum_V w_V dim V and S carries sum_V w_V dim(V & S).
    """
    lat = subspace_lattice(combo.q, combo.m)
    dirs = projective_directions(combo.q, combo.m)
    inside = lat.contains(dirs)                               # (D, L)
    sizes = inside.sum(axis=0)[:, None]                       # directions per subspace
    position = {tuple(d.tolist()): k for k, d in enumerate(dirs)}
    # Entry s: the RREF basis rows (canonical directions) of subspace s as
    # columns, which of the directions they are, and dim(V & S) for every V.
    # The extra last entry stands for a failed detection.
    maps = [tuple(map(tuple, sub.basis.tolist())) for sub in lat.subspaces] + [None]
    basis_pick = np.zeros((lat.size + 1, len(dirs)))
    for s, cols in enumerate(maps[:-1]):
        basis_pick[s, [position[c] for c in cols]] = 1.0
    meet_dims = np.vstack([lat.dims[lat.meet], np.zeros(lat.size)])
    blocks = []
    for level, w in lattice_levels(lat, combo.weights(), depth):
        if level < depth:
            continue
        good = (inside @ w > 1 - eps).astype(float)           # (D, T)
        found = (inside.T @ good == sizes) & (sizes == good.sum(axis=0))
        spans = np.where(found.any(axis=0), found.argmax(axis=0), lat.size)
        blocks.append((spans, np.einsum("td,dt->t", basis_pick[spans], (1.0 - inside) @ w),
                       lat.dims @ w, np.einsum("tl,lt->t", meet_dims[spans], w)))
    return (maps, *map(np.concatenate, zip(*blocks)))


# -- martingale diagnostics -------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    averages: tuple           # averages[level][subset position]
    full_set_constant: bool   # within 1e-6 of level 0
    strict_non_increasing: bool  # per strict subset, 1e-9 slack


def summarize_levels(subsets, levels) -> MartingaleReport:
    """Martingale report from per-level I[S] values: levels[l][b][j] is
    I[subsets[j]] of the b-th branch of level l, branches in decoding
    order."""
    rows = [tuple(float(np.mean([node[j] for node in level]))
                  for j in range(len(subsets)))
            for level in levels]
    full = len(subsets) - 1                   # the last mask holds every user
    full_vals = [r[full] for r in rows]
    full_const = max(abs(v - full_vals[0]) for v in full_vals) < 1e-6
    strict_ok = True
    for j in range(full):
        vals = [r[j] for r in rows]
        if any(vals[i + 1] > vals[i] + 1e-9 for i in range(len(vals) - 1)):
            strict_ok = False
    return MartingaleReport(averages=tuple(rows), full_set_constant=full_const,
                            strict_non_increasing=strict_ok)
