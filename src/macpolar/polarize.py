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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import SpecMismatchError, TooLargeError
from .gfq import FieldMatrix, rref
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
    user_subsets,
)
from .subspace import Subspace

MAX_BRANCH_OUTPUTS = 10 ** 5
MINUS, PLUS = "-", "+"
_SYMBOL_OF_BIT = str.maketrans("01", MINUS + PLUS)


# -- signatures in decoding order ----------------------------------------------

def key_sig(key: int, length: int) -> str:
    """Signature of rank `key`: symbol i is '+' where bit i is set.  The
    bit above the top one pads `bin` to `length` digits, and its '1' is cut
    off with the '0b'."""
    return bin(key | 1 << length)[3:][::-1].translate(_SYMBOL_OF_BIT)


def all_sigs(length: int):
    """All 2^length signatures in decoding order."""
    return [key_sig(k, length) for k in range(1 << length)]


# -- the polarization tree ----------------------------------------------------

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

def projective_directions(q: int, m: int):
    """One representative per 1-dim subspace of GF(q)^m: all nonzero vectors
    whose first nonzero coordinate is 1, in input-index order."""
    vecs = all_vectors(q, m)
    dirs = []
    for i in range(1, q ** m):
        vec = vecs[i]
        nz = np.nonzero(vec)[0]
        if vec[nz[0]] == 1:
            dirs.append(vec.copy())
    return dirs


@dataclass(frozen=True)
class DirectionStat:
    alpha: tuple   # canonical direction vector
    i: float       # mutual information of the direction channel, base q
    z: float       # Bhattacharyya parameter of the same channel


def direction_stats(channel: DiscreteMac):
    """I and Z of the single-user channel of every projective direction."""
    stats = []
    for alpha in projective_directions(channel.q, channel.m):
        a = FieldMatrix(alpha.reshape(-1, 1), channel.q)
        single = restrict(channel, a)
        stats.append(DirectionStat(alpha=tuple(alpha.tolist()),
                                   i=sum_capacity(single),
                                   z=bhattacharyya(single)))
    return stats


def detect_linear(channel: DiscreteMac, eps: float, stats=None):
    """Find the emergent deterministic-linear part of a nearly polarized
    channel.

    Collects the directions with I > 1 - eps and spans them.  The good
    directions lie in their span, so they are all of it exactly when there
    are (q^d - 1)/(q - 1) of them, d the span's dimension.  Returns (columns
    matrix, rank) on success -- rank 0 with an empty matrix when no
    direction is good -- and None when the good set fails to be a subspace.
    The columns are the span's RREF basis rows.
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
    return FieldMatrix(span.basis.data.T, q), span.dim


# -- code specification ----------------------------------------------------------

@dataclass(frozen=True)
class BranchCode:
    sig: str
    in_good_set: bool
    r: int
    a_columns: tuple          # r column vectors of length m (tuples)
    s_users: tuple            # 1-based users carrying information
    frozen: tuple             # m flags, frozen[k-1] == 1 iff user k frozen
    z_sum: float
    i_branch: float
    i_detected: float


@dataclass(frozen=True)
class CodeSpec:
    q: int
    m: int
    l: int
    eps: float
    z_budget: float
    merge_tol: float
    branches: tuple           # BranchCode in decoding order
    rate_vector: tuple        # R_k per user
    sum_rate: float
    union_bound: float

    @property
    def block_length(self) -> int:
        return 1 << self.l

    @property
    def good_count(self) -> int:
        return sum(1 for b in self.branches if b.in_good_set)

    def frozen_mask(self) -> np.ndarray:
        """(N, m) booleans in key order, True where a branch's user is
        frozen.  A message is an (N, m) array of GF(q) symbols; its
        information symbols are the ones at the False positions."""
        return np.array([b.frozen for b in self.branches],
                        dtype=bool).reshape(self.block_length, self.m)

    def check(self):
        """Internal consistency of the stored code; raises
        SpecMismatchError at the first inconsistency."""
        n, m = self.block_length, self.m
        if len(self.branches) != n or len(self.rate_vector) != m:
            raise SpecMismatchError(
                f"spec has {len(self.branches)} branches and "
                f"{len(self.rate_vector)} rates, expected {n} and {m}")
        if [b.sig for b in self.branches] != all_sigs(self.l):
            raise SpecMismatchError(
                f"branch signatures are not the {n} of length {self.l} "
                "in decoding order")
        for b in self.branches:
            if not (b.r == len(b.s_users) == len(b.a_columns)
                    and len(b.frozen) == m):
                raise SpecMismatchError(
                    f"branch {b.sig}: r={b.r} does not match its "
                    f"{len(b.s_users)} users and {len(b.a_columns)} columns, "
                    f"or it has {len(b.frozen)} frozen flags for m={m}")
            for k in range(1, m + 1):
                if (b.frozen[k - 1] == 0) != (k in b.s_users):
                    raise SpecMismatchError(
                        f"branch {b.sig}: user {k}'s frozen flag contradicts "
                        f"the information users {b.s_users}")
            if b.r:
                if not b.in_good_set:
                    raise SpecMismatchError(
                        f"branch {b.sig}: information users {b.s_users} on a "
                        "branch outside the good set")
                why = _info_map_error(b.a_columns, b.s_users, self.q, m)
                if why:
                    raise SpecMismatchError(f"branch {b.sig}: {why}")
        for k in range(1, m + 1):
            rk = sum(1 - b.frozen[k - 1] for b in self.branches) / n
            if not abs(rk - self.rate_vector[k - 1]) < 1e-12:
                raise SpecMismatchError(
                    f"R_{k} = {self.rate_vector[k - 1]!r}, but the frozen "
                    f"map gives {rk!r}")
        r_total = sum(b.r for b in self.branches if b.in_good_set) / n
        if not abs(r_total - self.sum_rate) < 1e-12:
            raise SpecMismatchError(f"sum rate {self.sum_rate!r}, but the good "
                                    f"set gives {r_total!r}")
        return True

    def to_dict(self) -> dict:
        return {
            "q": self.q, "m": self.m, "l": self.l,
            "eps": self.eps, "z_budget": self.z_budget,
            "merge_tol": self.merge_tol,
            "rate_vector": list(self.rate_vector),
            "sum_rate": self.sum_rate,
            "union_bound": self.union_bound,
            "branches": [
                {
                    "sig": b.sig,
                    "in_good_set": b.in_good_set,
                    "r": b.r,
                    "a_columns": [list(c) for c in b.a_columns],
                    "s_users": list(b.s_users),
                    "frozen": list(b.frozen),
                    "z_sum": b.z_sum,
                    "i_branch": b.i_branch,
                    "i_detected": b.i_detected,
                }
                for b in self.branches
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CodeSpec":
        branches = tuple(
            BranchCode(
                sig=b["sig"],
                in_good_set=bool(b["in_good_set"]),
                r=int(b["r"]),
                a_columns=tuple(tuple(int(x) for x in c) for c in b["a_columns"]),
                s_users=tuple(int(k) for k in b["s_users"]),
                frozen=tuple(int(f) for f in b["frozen"]),
                z_sum=float(b["z_sum"]),
                i_branch=float(b["i_branch"]),
                i_detected=float(b["i_detected"]),
            )
            for b in d["branches"]
        )
        return cls(q=int(d["q"]), m=int(d["m"]), l=int(d["l"]),
                   eps=float(d["eps"]), z_budget=float(d["z_budget"]),
                   merge_tol=float(d["merge_tol"]), branches=branches,
                   rate_vector=tuple(float(r) for r in d["rate_vector"]),
                   sum_rate=float(d["sum_rate"]),
                   union_bound=float(d["union_bound"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


@lru_cache(maxsize=None)
def _info_map_error(a_columns: tuple, s_users: tuple, q: int, m: int) -> str:
    """Why a branch's information map is not canonical, or '' if it is:
    its columns must be the RREF basis rows of their span, and its
    information users the pivot columns, plus 1.  A spec holds only a
    handful of distinct maps."""
    if any(len(c) != m for c in a_columns):
        return f"a_columns {a_columns} are not vectors of length {m}"
    rows = np.array(a_columns, dtype=np.int64).reshape(-1, m)
    red, pivots = rref(FieldMatrix(rows, q))
    if len(pivots) != len(rows) or tuple(map(tuple, red.data.tolist())) != a_columns:
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

    A `LinearComboMac` is polarized on its subspace lattice, with exact
    statistics and no output merging: `merge_tol` is validated and recorded
    but unused there, and so is `max_outputs`.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if z_budget <= 0:
        raise ValueError("z_budget must be positive")
    check_merge_tol(merge_tol)
    q, m = channel.q, channel.m
    if isinstance(channel, LinearComboMac):
        leaves = _lattice_leaves(channel, depth, eps)
    else:
        step = partial(branch_step, merge_tol=merge_tol, max_outputs=max_outputs)
        leaves = (_explicit_leaf(sig, ch, eps)
                  for sig, ch in polarization_tree(channel, depth, step)
                  if len(sig) == depth)
    branches = []
    union_bound = 0.0
    for sig, a_cols, z_sum, i_branch, i_det in leaves:
        in_good = (a_cols is not None and abs(i_det - i_branch) < eps
                   and abs(len(a_cols) - i_branch) < eps and z_sum < z_budget)
        if in_good:
            s_users = tuple(next(k for k, x in enumerate(c) if x) + 1 for c in a_cols)
            union_bound += q * z_sum
        else:
            # Fully frozen branch: no information map is stored.
            a_cols, s_users = (), ()
        branches.append(BranchCode(
            sig=sig, in_good_set=in_good, r=len(a_cols), a_columns=a_cols,
            s_users=s_users, frozen=tuple(int(k not in s_users) for k in range(1, m + 1)),
            z_sum=z_sum, i_branch=i_branch, i_detected=i_det))
    n = 1 << depth
    rate_vector = tuple(
        sum(1 - b.frozen[k] for b in branches) / n for k in range(m))
    sum_rate = sum(b.r for b in branches if b.in_good_set) / n
    return CodeSpec(q=q, m=m, l=depth, eps=eps, z_budget=z_budget,
                    merge_tol=merge_tol, branches=tuple(branches),
                    rate_vector=rate_vector, sum_rate=sum_rate,
                    union_bound=union_bound)


def _explicit_leaf(sig: str, ch: DiscreteMac, eps: float):
    """(sig, a_columns, z_sum, i_branch, i_detected) of an explicit branch
    channel; a_columns holds the detected linear part's columns, or is
    None when the good directions do not form a subspace."""
    stats = direction_stats(ch)
    i_branch = sum_capacity(ch)
    det = detect_linear(ch, eps, stats)
    if det is None:
        return sig, None, 0.0, i_branch, 0.0
    a, r = det
    z_of = {st.alpha: st.z for st in stats}
    z_sum = float(sum(z_of[tuple(a.data[:, j].tolist())] for j in range(r)))
    i_det = sum_capacity(restrict(ch, a)) if r else 0.0
    return sig, tuple(tuple(a.data[:, j].tolist()) for j in range(r)), z_sum, i_branch, i_det


def _lattice_leaves(combo: LinearComboMac, depth: int, eps: float):
    """The leaves of `_explicit_leaf`, read off the subspace weights.

    Every direction channel of a linear combination is an erasure channel:
    I_alpha is the weight of the subspaces that contain alpha, Z_alpha the
    weight of the rest.  Detection succeeds when the good directions are
    exactly the directions of one subspace S; then the branch carries
    sum_V w_V dim V and S carries sum_V w_V dim(V & S).
    """
    q, m = combo.q, combo.m
    lat = subspace_lattice(q, m)
    dirs = projective_directions(q, m)
    inside = lat.contains(dirs)                               # (D, L)
    span_of = {col.tobytes(): s for s, col in enumerate(inside.T > 0)}
    position = {tuple(d.tolist()): k for k, d in enumerate(dirs)}
    # Entry s: the RREF basis rows (canonical directions) of subspace s as
    # columns, which of the directions they are, and dim(V & S) for every V.
    # The extra last entry stands for a failed detection.
    columns = [tuple(map(tuple, sub.basis.data.tolist())) for sub in lat.subspaces] + [None]
    basis_pick = np.zeros((lat.size + 1, len(dirs)))
    for s, cols in enumerate(columns[:-1]):
        basis_pick[s, [position[c] for c in cols]] = 1.0
    meet_dims = np.vstack([lat.dims[lat.meet], np.zeros(lat.size)])
    sigs = iter(all_sigs(depth))
    for level, w in lattice_levels(lat, combo.weights(), depth):
        if level < depth:
            continue
        spans = [span_of.get(good.tobytes(), lat.size) for good in (inside @ w > 1 - eps).T]
        z_sum = np.einsum("td,dt->t", basis_pick[spans], (1.0 - inside) @ w).tolist()
        i_det = np.einsum("tl,lt->t", meet_dims[spans], w).tolist()
        i_branch = (lat.dims @ w).tolist()
        for t, s in enumerate(spans):
            yield next(sigs), columns[s], z_sum[t], i_branch[t], i_det[t]


# -- martingale diagnostics -------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    subsets: tuple            # user subsets, each a tuple
    levels: tuple             # level indices 0..l
    averages: tuple           # averages[level][subset position]
    full_set_constant: bool   # within 1e-6 of level 0
    strict_non_increasing: bool  # per strict subset, 1e-9 slack


def martingale_report(channel: DiscreteMac, depth: int,
                      merge_tol: float = DEFAULT_MERGE_TOL,
                      max_outputs: int = MAX_BRANCH_OUTPUTS) -> MartingaleReport:
    """Per-level averages of I[S] over all branches, with the conservation
    flags: the full-set average is a constant and strict subsets never
    increase."""
    subsets = user_subsets(channel.m)
    levels = [[] for _ in range(depth + 1)]
    step = partial(branch_step, merge_tol=merge_tol, max_outputs=max_outputs)
    for sig, ch in polarization_tree(channel, depth, step):
        levels[len(sig)].append([ch.mutual_info(s) for s in subsets])
    return summarize_levels(subsets, levels)


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
    return MartingaleReport(subsets=tuple(subsets), levels=tuple(range(len(rows))),
                            averages=tuple(rows), full_set_constant=full_const,
                            strict_non_increasing=strict_ok)
