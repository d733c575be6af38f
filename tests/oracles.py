"""Test oracles for the lattice engine, kept out of the library.

`binary2_step` is the closed form of one polarization step on the five
subspaces of GF(2)^2: fixed degree-2 polynomials in the 5-state.
`dict_step` is the per-term engine that `LinearComboMac.minus`/`plus`
used before the lattice engine: it multiplies term weights pairwise and
files each product under the intersection or sum of the two subspaces.
Here a subspace is the set of its member vectors, so intersection is set
intersection and the sum is the set of pairwise sums, independent of the
library's row reduction.  Neither oracle renormalizes.  The set oracles
check the preservation condition on the same member sets.

`affine_sets` and the `set_*` node updates check the coset decoder's
tables: an affine set is found by testing every subset of GF(q)^m.

`span_scan` and `smallest_independent_rows` are the slow forms of linear
detection in code construction: the first tests whether the good
directions form a subspace by listing the members of their span, the
second picks a good branch's information users by a greedy rank search.

`butterfly_reference` is the encoder's butterfly as it was before it ran
in a narrow dtype: one int64 `%` per stage on (..., 2, j, m) views.

`level_sums_reference` is the exact enumeration of `evolve` as it was
before settled states were counted instead of expanded: it walks every
one of the 2^(depth+1) - 1 states of the tree.

The row oracle is code construction as it was before specs were held in
columns: `build_code_rows` assembles one `BranchCode` per branch from the
same leaf statistics, and `codespec_json` writes a spec with the generic
JSON encoder.  `spec_from_branches` builds a columnar spec from rows.
"""

import itertools
import json
from functools import partial

import numpy as np

from macpolar import LinearComboMac, mat_rank
from macpolar.linear_mac import (
    EXTREMAL_TOL,
    SubspaceLattice,
    lattice_levels,
)
from macpolar.mac import DEFAULT_MERGE_TOL
from macpolar.polarize import (
    MAX_BRANCH_OUTPUTS,
    BranchCode,
    BranchShape,
    CodeSpec,
    _explicit_leaves,
    _lattice_leaves,
    all_sigs,
    branch_step,
)


def binary2_step(p):
    """(minus, plus) of a 5-state or an array of 5-states (last axis)."""
    p = np.asarray(p, dtype=np.float64)
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


def members(sub) -> frozenset:
    """A Subspace as the frozenset of its member vectors (tuples): every
    combination of its basis rows."""
    coeffs = np.array(list(itertools.product(range(sub.q), repeat=sub.dim)),
                      dtype=np.int64).reshape(sub.q ** sub.dim, sub.dim)
    return frozenset(map(tuple, (coeffs @ sub.basis % sub.q).tolist()))


_PAIRS = {}


def _combine(a: frozenset, b: frozenset, symbol: str, q: int) -> frozenset:
    key = (a, b, symbol)
    if key not in _PAIRS:
        _PAIRS[key] = a & b if symbol == "-" else frozenset(
            tuple((x + y) % q for x, y in zip(u, v)) for u in a for v in b)
    return _PAIRS[key]


def dict_step(terms: dict, symbol: str, q: int) -> dict:
    """One transform of a {member set: weight} state, pairs taken
    row-major in the given order.  Products that underflow to 0.0 are
    dropped, so the state never holds a zero weight."""
    acc = {}
    for s1, w1 in terms.items():
        for s2, w2 in terms.items():
            w = w1 * w2
            if w > 0.0:
                key = _combine(s1, s2, symbol, q)
                acc[key] = acc.get(key, 0.0) + w
    return acc


def dict_levels(combo, depth: int):
    """Every level 0..depth of the dict engine's tree, branches in
    decoding order, as lists of {member set: weight} states."""
    level = [{members(s): w for w, s in combo.terms}]
    levels = [level]
    for _ in range(depth):
        level = [dict_step(c, sym, combo.q) for c in level for sym in "-+"]
        levels.append(level)
    return levels


def projected_dim(members_of: frozenset, users, q: int) -> int:
    """Dimension of a member set projected onto the 1-based users."""
    size = len({tuple(v[u - 1] for u in users) for v in members_of})
    dim = 0
    while q ** dim < size:
        dim += 1
    return dim


# -- the preservation condition on member sets ----------------------------------
#
# Oracles for `closure`, `consistency_check` and `orthogonal_passage_check`:
# a subspace is its member set, meet is set intersection, join is the set of
# pairwise sums, and projection keeps the selected coordinates.


def project_set(members_of: frozenset, users) -> frozenset:
    """A member set with only the 1-based `users` coordinates kept."""
    return frozenset(tuple(v[u - 1] for u in users) for v in members_of)


def set_sum(a: frozenset, b: frozenset, q: int) -> frozenset:
    """The set of pairwise sums of two member sets."""
    return _combine(a, b, "+", q)


def set_closure(family, q: int) -> frozenset:
    """Smallest set of member sets holding the family and closed under
    intersection and pairwise sums."""
    closed = set(family)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closed):
                for c in (a & b, set_sum(a, b, q)):
                    if c not in closed:
                        closed.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(closed)


def set_consistent(family, users, q: int) -> bool:
    """Projection onto `users` commutes with intersection on every pair of
    the family's closure."""
    closed = set_closure(family, q)
    return all(project_set(a & b, users) == project_set(a, users) & project_set(b, users)
               for a in closed for b in closed)


def set_first_witness(family, users, q: int, candidates):
    """The first of `candidates` (member sets, in order) with q^|S| members
    that projects onto all of GF(q)^|S| and keeps proj(W & V) = proj(V)
    for every V of the family; None if there is none."""
    full = q ** len(users)
    for w in candidates:
        if (len(w) == full and len(project_set(w, users)) == full
                and all(project_set(w & v, users) == project_set(v, users)
                        for v in family)):
            return w
    return None


# -- affine sets: the coset decoder's node updates on member sets ------------------


def _vec_sub(u, v, q):
    return tuple((x - y) % q for x, y in zip(u, v))


def affine_sets(q: int, m: int) -> frozenset:
    """Every non-empty subset S of GF(q)^m whose differences S - s, for one
    member s, are closed under addition (a subspace, q being prime)."""
    space = list(itertools.product(range(q), repeat=m))
    found = set()
    for mask in range(1, 1 << len(space)):
        members = [v for k, v in enumerate(space) if mask >> k & 1]
        diffs = {_vec_sub(v, members[0], q) for v in members}
        if all(tuple((x + y) % q for x, y in zip(a, b)) in diffs
               for a in diffs for b in diffs):
            found.add(frozenset(members))
    return frozenset(found)


def set_difference(a: frozenset, b: frozenset, q: int) -> frozenset:
    """{x - y : x in a, y in b}: the support of a minus node."""
    return frozenset(_vec_sub(x, y, q) for x in a for y in b)


def set_translate(a: frozenset, s, q: int) -> frozenset:
    """{x - s : x in a}."""
    return frozenset(_vec_sub(x, s, q) for x in a)


# -- linear detection and the information users ----------------------------------


def span_scan(good, m: int, q: int):
    """The member set of the span of the `good` directions (length-m tuples
    whose first nonzero entry is 1) if every nonzero member of that span is
    a multiple of a good direction, else None."""
    good = set(good)
    span = {(0,) * m}
    for g in good:
        span = {tuple((x + k * y) % q for x, y in zip(s, g))
                for s in span for k in range(q)}
    for vec in span:
        lead = next((x for x in vec if x), 0)
        if lead and tuple(x * pow(lead, q - 2, q) % q for x in vec) not in good:
            return None
    return frozenset(span)


def smallest_independent_rows(a_columns: tuple, q: int) -> tuple:
    """Lexicographically smallest set of row indices (1-based) whose rows of
    the matrix with columns `a_columns` are independent and span its row
    space, by a greedy search with one rank per row."""
    if not a_columns:
        return ()
    a = np.array(a_columns, dtype=np.int64).T
    chosen: list[int] = []
    for row in range(a.shape[0]):
        rows = [k - 1 for k in chosen] + [row]
        if mat_rank(a[rows], q) == len(rows):
            chosen.append(row + 1)
        if len(chosen) == a.shape[1]:
            break
    return tuple(chosen)


def codespec_dict(spec) -> dict:
    """A code spec as the plain dict its JSON file holds."""
    return {
        "q": spec.q, "m": spec.m, "l": spec.l,
        "eps": spec.eps, "z_budget": spec.z_budget,
        "merge_tol": spec.merge_tol,
        "rate_vector": list(spec.rate_vector),
        "sum_rate": spec.sum_rate,
        "union_bound": spec.union_bound,
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
            for b in spec.branches
        ],
    }


def codespec_json(spec) -> str:
    """The generic encoder's text of a code spec, which
    `jsonio.codespec_to_json` must reproduce byte for byte."""
    return json.dumps(codespec_dict(spec), sort_keys=True, indent=1)


# -- the row oracle of code construction -------------------------------------------


def build_code_rows(channel, depth: int, eps: float, z_budget: float,
                    merge_tol: float = DEFAULT_MERGE_TOL,
                    max_outputs: int = MAX_BRANCH_OUTPUTS):
    """(branches, rate_vector, sum_rate, union_bound) of `build_code`'s
    spec, assembled one `BranchCode` at a time from the library's leaf
    statistics: the good-set rule, the information users and the union
    bound's running sum, branch by branch in decoding order."""
    q, m = channel.q, channel.m
    if isinstance(channel, LinearComboMac):
        maps, which, *floats = _lattice_leaves(channel, depth, eps)
    else:
        step = partial(branch_step, merge_tol=merge_tol, max_outputs=max_outputs)
        maps, which, *floats = _explicit_leaves(channel, depth, eps, step)
    leaves = zip(all_sigs(depth), [maps[w] for w in which.tolist()],
                 *(f.tolist() for f in floats))
    branches = []
    union_bound = 0.0
    for sig, a_cols, z_sum, i_branch, i_det in leaves:
        in_good = (a_cols is not None and abs(i_det - i_branch) < eps
                   and abs(len(a_cols) - i_branch) < eps and z_sum < z_budget)
        if in_good:
            s_users = tuple(next(k for k, x in enumerate(c) if x) + 1 for c in a_cols)
            union_bound += q * z_sum
        else:
            a_cols, s_users = (), ()
        branches.append(BranchCode(
            sig=sig, in_good_set=in_good, r=len(a_cols), a_columns=a_cols,
            s_users=s_users, frozen=tuple(int(k not in s_users) for k in range(1, m + 1)),
            z_sum=z_sum, i_branch=i_branch, i_detected=i_det))
    n = 1 << depth
    rate_vector = tuple(
        sum(1 - b.frozen[k] for b in branches) / n for k in range(m))
    sum_rate = sum(b.r for b in branches if b.in_good_set) / n
    return branches, rate_vector, sum_rate, union_bound


def spec_from_branches(branches, **header) -> CodeSpec:
    """The columnar spec of `BranchCode` rows in decoding order (their
    signatures are dropped) and the header fields, q to union_bound."""
    shapes = {}
    index = [shapes.setdefault((b.in_good_set, b.r, b.a_columns, b.s_users, b.frozen),
                               len(shapes)) for b in branches]

    def column(name):
        return np.array([getattr(b, name) for b in branches], dtype=np.float64)

    return CodeSpec(shapes=tuple(map(BranchShape._make, shapes)),
                    shape_index=np.array(index, dtype=np.intp),
                    z_sum=column("z_sum"), i_branch=column("i_branch"),
                    i_detected=column("i_detected"), **header)


# -- the full walk of exact enumeration ---------------------------------------------


def level_sums_reference(lat: SubspaceLattice, root: np.ndarray, depth: int):
    """Per level 0..depth, the weight vectors summed over its states,
    (depth + 1, L), and the count of extremal states (a weight of at
    least 1 - EXTREMAL_TOL), (depth + 1,).  It has no depth cap: its
    work is the whole tree, 2^(depth+1) - 1 states."""
    sums = np.zeros((depth + 1, lat.size))
    extremal = np.zeros(depth + 1, dtype=np.int64)
    for level, block in lattice_levels(lat, root, depth):
        sums[level] += block.sum(axis=1)
        extremal[level] += np.count_nonzero(block.max(axis=0) >= 1.0 - EXTREMAL_TOL)
    return sums, extremal


def butterfly_reference(u, q: int) -> np.ndarray:
    """The l-stage butterfly of key-indexed rows (the second-to-last axis)
    in int64, stage by stage: the '-' slot of each stage-j pair receives
    the sum mod q."""
    x = np.asarray(u, dtype=np.int64) % q
    *batch, n, m = x.shape
    j = 1
    while j < n:
        pairs = x.reshape(*batch, n // (2 * j), 2, j, m)
        pairs[..., 0, :, :] += pairs[..., 1, :, :]
        pairs[..., 0, :, :] %= q
        j <<= 1
    return x
