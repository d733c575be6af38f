"""Channels that are weighted combinations of deterministic linear channels.

Such a channel draws a subspace V_k with probability p_k, reveals the
index k, and outputs a fixed linear image of the input whose row space is
V_k.  The whole polarization process then lives in the subspace lattice:
the bad transform intersects pairs of subspaces, the good transform sums
them, and all mutual informations reduce to weighted projected dimensions.

One engine runs that process for every (q, m).  A branch is a weight
vector over all L subspaces of GF(q)^m in `Subspace.sort_key` order, a
level of the tree is an (L, n) array of such vectors, and a transform
scatters pair products through the lattice's meet and join tables.  A
block of at most NARROW_WIDTH states forms all its live-pair products in
one array and scatters them with one `np.bincount` per child, in column
slices of at most BLOCK_FLOATS products; a wider block writes each child
row's first product and adds the rest pair by pair.  Both sum each child
cell in the same pair order, so both give the same bits.  `evolve`
follows the tree of any combination channel and reads each level's I[S]
off its averaged weight vector; the two-user binary 5-vector of
`binary2_evolve` is a reordering of the GF(2)^2 vector.  The
preservation condition (closure, the consistency check and the witness
search) reads the same tables, plus one projection table per user set.
Every table comes from the boolean membership rows, not from row
reductions: a meet's row is the AND of two rows, a subspace's image is
its row reduced over the other users' coordinates, and each such row is
found by one exact lookup.  One kernel, `preservation`,
checks a batch of families with array operations; the witness probe
checks the families of one size in one call per BLOCK_FLOATS families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AmbientMismatchError,
    BadIndexSetError,
    BadRowSumError,
    NegativeProbabilityError,
    NonFiniteError,
    TooDeepError,
    TooLargeError,
)
from .gfq import check_prime
from .mac import ROW_SUM_TOL, DiscreteMac, all_vectors, user_subsets
from .subspace import Subspace, count_subspaces, enumerate_subspaces, user_indices

ENUMERATE_DEPTH_CAP = 20
EXTREMAL_TOL = 1e-3
SETTLE_TOL = 2.0 ** -53     # off-k weight * 2^(levels left) of a settled state
LATTICE_CAP = 1024          # subspaces: GF(2)^5 has 374, GF(2)^6 has 2825
BLOCK_FLOATS = 1 << 16      # weights in one block of a wide tree level
NARROW_WIDTH = 128          # widest block whose pair products are scattered at once
MAX_EXPLICIT_CELLS = 10 ** 6   # table cells `to_explicit` may build


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
        for k, (w, (_, sub)) in enumerate(zip(weights.tolist(), terms)):
            if w <= 0:
                raise NegativeProbabilityError(f"weights must be positive, got {w}")
            if sub.m != m or sub.q != q:
                raise AmbientMismatchError(
                    f"term {k} lives in GF({sub.q})^{sub.m}, the channel in GF({q})^{m}")
            merged[sub] = merged.get(sub, 0.0) + w
        total = sum(merged.values())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise BadRowSumError(f"weights sum to {total!r}, expected 1")
        ordered = sorted(merged.items(), key=lambda kv: kv[0].sort_key())
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", tuple((w, s) for s, w in ordered))

    def __setattr__(self, name, value):
        raise AttributeError("LinearComboMac is immutable")

    def __repr__(self):
        body = ", ".join(f"{w:.4g}*dim{s.dim}" for w, s in self.terms)
        return f"LinearComboMac(q={self.q}, m={self.m}, [{body}])"

    def weights(self) -> np.ndarray:
        """The channel's weight vector over `subspace_lattice(q, m)`."""
        lat = subspace_lattice(self.q, self.m)
        w = np.zeros(lat.size)
        for weight, sub in self.terms:
            w[lat.index[sub]] = weight
        return w

    def mutual_info(self, users) -> float:
        """I[S] as the weighted sum of projected subspace dimensions."""
        if not users:
            raise BadIndexSetError("index set is empty")
        return float(sum(w * s.project(users).dim for w, s in self.terms))

    def sum_capacity(self) -> float:
        return self.mutual_info(range(1, self.m + 1))

    def minus(self) -> "LinearComboMac":
        """Bad transform: pairwise subspace intersections, weights multiplied."""
        return self._child(0)

    def plus(self) -> "LinearComboMac":
        """Good transform: pairwise subspace sums, weights multiplied."""
        return self._child(1)

    def _child(self, branch: int) -> "LinearComboMac":
        # Weights that underflow to 0.0 drop out of the child's terms.
        lat = subspace_lattice(self.q, self.m)
        w = lattice_children(lat, self.weights()[:, None])[:, branch]
        return LinearComboMac(self.q, self.m, [(float(x), s) for x, s in
                                               zip(w, lat.subspaces) if x > 0])

    def output_indices(self) -> np.ndarray:
        """(K, q^m) int64: the `to_explicit` output index of term k on
        input x, the term's offset plus the index of x's image under the
        canonical basis of the term's subspace."""
        q, m = self.q, self.m
        vecs = all_vectors(q, m)
        out = np.empty((len(self.terms), q ** m), dtype=np.int64)
        offset = 0
        for row, (_, sub) in zip(out, self.terms):
            row[:] = offset + vecs @ sub.basis.T % q @ q ** np.arange(sub.dim)
            offset += q ** sub.dim
        return out

    def to_explicit(self) -> DiscreteMac:
        """Materialize the probability table; output alphabet is the disjoint
        union over terms k of GF(q)^dim(V_k), using the canonical basis of
        each subspace as the revealed linear map (`output_indices`)."""
        q, m = self.q, self.m
        n_out = sum(q ** s.dim for _, s in self.terms)
        if q ** m * n_out > MAX_EXPLICIT_CELLS:
            raise TooLargeError(f"table would have {q ** m * n_out} cells")
        table = np.zeros((q ** m, n_out))
        inputs = np.arange(q ** m)
        for (w, _), outputs in zip(self.terms, self.output_indices()):
            table[inputs, outputs] = w
        return DiscreteMac(q, m, table)


def rate_region(channel: "LinearComboMac | DiscreteMac") -> "RateRegion":
    """Polymatroid constraint list, one bound per `user_subsets(m)` set
    (so up to MAX_USERS users), with explicit vertices for two users.

    Needs only `.m` and `.mutual_info`, so explicit channels work too."""
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


# -- the lattice engine ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubspaceLattice:
    """Every subspace of GF(q)^m in `Subspace.sort_key` order, with the
    positions of the intersection (`meet`) and the sum (`join`) of every
    pair, and the membership rows: members[i, x] is set when input vector
    x (little-endian radix q) lies in subspace i.  Read-only."""

    q: int
    m: int
    subspaces: tuple
    index: dict                 # Subspace -> position
    members: np.ndarray         # (L, q^m) bool
    dims: np.ndarray            # (L,)
    meet: np.ndarray            # (L, L)
    join: np.ndarray            # (L, L)

    @property
    def size(self) -> int:
        return len(self.subspaces)

    def contains(self, vectors) -> np.ndarray:
        """(len(vectors), L) 0/1 floats, 1 where the vector lies in the subspace."""
        idx = (np.asarray(vectors, dtype=np.int64) % self.q) @ self.q ** np.arange(self.m)
        return self.members[:, idx].T.astype(float)

    def projection(self, users):
        """(small, table): `small` is `subspace_lattice(q, |users|)`, and
        table[i] is the position in it of subspaces[i] projected onto the
        1-based `users`."""
        return _projection(self, tuple(user_indices(users, self.m)))

    def projected_dims(self, users) -> np.ndarray:
        small, proj = self.projection(users)
        return small.dims[proj]


def _row_finder(packed: np.ndarray):
    """The exact lookup of the (L, W) packed membership rows `packed`: a
    function from a (..., W) array of those rows (no others) to positions."""
    key = np.dtype((np.void, packed.shape[1]))
    keys = packed.view(key)[:, 0]
    order = np.argsort(keys)
    return lambda rows: order[np.searchsorted(
        keys, rows.view(key)[..., 0], sorter=order)]


@lru_cache(maxsize=None)
def subspace_lattice(q: int, m: int) -> SubspaceLattice:
    """The lattice of GF(q)^m, built from its membership rows.  A meet's
    row is the AND of two rows; a complement V^perp holds the x with
    basis(V) @ x = 0 (mod q); a join is (A^perp & B^perp)^perp.  Each row
    is found by one exact lookup, so no table entry needs a row reduction.
    The pairwise AND is taken in row slices of at most BLOCK_FLOATS bytes,
    or of one row where a row's pairs take more.  m must be at least 1."""
    check_prime(q)
    if m < 1:
        raise ValueError(f"a lattice needs m >= 1 coordinates, got m = {m}")
    size = sum(count_subspaces(m, d, q) for d in range(m + 1))
    if size > LATTICE_CAP:
        raise TooLargeError(f"GF({q})^{m} has {size} subspaces (lattice cap {LATTICE_CAP})")
    subs = tuple(s for d in range(m + 1) for s in enumerate_subspaces(m, d, q))
    dims = np.array([s.dim for s in subs])
    members = np.zeros((size, q ** m), dtype=bool)
    for d in range(m + 1):      # members: combinations of the basis rows
        rows = np.flatnonzero(dims == d)
        bases = np.array([subs[k].basis for k in rows]).reshape(len(rows), d, m)
        members[rows[:, None], all_vectors(q, d) @ bases % q @ q ** np.arange(m)] = True
    vecs = all_vectors(q, m)
    packed = np.packbits(members, axis=1)
    find = _row_finder(packed)
    perp = find(np.array([np.packbits(((vecs @ s.basis.T) % q == 0).all(axis=1))
                          for s in subs]))
    step = max(1, BLOCK_FLOATS // packed.size)
    meet = np.concatenate([find(packed[lo:lo + step, None] & packed)
                           for lo in range(0, size, step)])
    join = perp[meet[np.ix_(perp, perp)]]
    for arr in (members, meet, join, dims):
        arr.setflags(write=False)
    return SubspaceLattice(q, m, subs, {s: k for k, s in enumerate(subs)},
                           members, dims, meet, join)


@lru_cache(maxsize=None)
def _projection(lat: SubspaceLattice, users: tuple):
    """Input x lies in the image of subspace i when some member of i agrees
    with x on `users`.  Viewed as an (L, q, ..., q) array, with coordinate
    c on axis m - c, the membership rows are reduced over the other
    coordinates' axes; each image row is then looked up among the small
    lattice's rows.  Onto every user the image is the lattice itself."""
    if len(users) == lat.m:
        table = np.arange(lat.size)
        table.setflags(write=False)
        return lat, table
    small = subspace_lattice(lat.q, len(users))
    other = tuple(lat.m - c for c in range(lat.m) if c + 1 not in users)
    image = lat.members.reshape((lat.size,) + (lat.q,) * lat.m).any(axis=other)
    table = _row_finder(np.packbits(small.members, axis=1))(
        np.packbits(image.reshape(lat.size, -1), axis=1))
    table.setflags(write=False)
    return small, table


# -- the preservation condition ---------------------------------------------------

@dataclass(frozen=True)
class Preservation:
    """The preservation condition on F families, one row each."""

    closed: np.ndarray              # (F, L) bool: closure under meet and join
    consistent: np.ndarray | None   # (F,) bool: projection commutes with meet on it
    witness: np.ndarray | None      # (F,) first witness position, -1 if none


@lru_cache(maxsize=None)
def _passage_tables(lat: SubspaceLattice, users: tuple):
    """commutes[i, j]: proj(i & j) = proj(i) & proj(j).  The witness
    candidates, subspaces of dimension |users| that project onto the full
    space (the last subspace of the small lattice), and keeps[c, v]:
    proj(candidates[c] & v) = proj(v)."""
    small, proj = _projection(lat, users)
    commutes = proj[lat.meet] == small.meet[proj[:, None], proj[None, :]]
    candidates = np.flatnonzero((lat.dims == small.m) & (proj == small.size - 1))
    keeps = proj[lat.meet[candidates]] == proj
    return commutes, candidates, keeps


def _pair_slices(closed: np.ndarray, rows: np.ndarray, counts: np.ndarray):
    """(rows, a, b) over slices of the given rows of `closed`, whose member
    counts are `counts`.  Rows of equal count K go together, so none is
    padded, and a[r, p], b[r, p] run over the K(K - 1)/2 pairs of distinct
    members of row r (a pair of equal members adds nothing: the meet and
    join of a subspace with itself are the subspace).  The pair arrays of
    a slice hold at most BLOCK_FLOATS entries."""
    for width in np.unique(counts[counts > 1]).tolist():
        group = rows[counts == width]
        members = (np.flatnonzero(closed[group]) % closed.shape[1]).reshape(-1, width)
        first, second = np.triu_indices(width, 1)
        step = max(1, BLOCK_FLOATS // len(first))
        for lo in range(0, len(group), step):
            part = members[lo:lo + step]
            yield group[lo:lo + step, None], part[:, first], part[:, second]


def preservation(lat: SubspaceLattice, families, users=None) -> Preservation:
    """The preservation condition on an (F, k) array of families, each row
    k lattice positions (repeats allowed).  Row f of the result holds
    family f's closure under meet and join; whether projection onto the
    1-based `users` commutes with meet on every pair of that closure; and
    the first subspace W in lattice order of dimension |users| that
    projects onto the full space of those coordinates with
    proj(W & V) = proj(V) for every V of the family, or -1.  Without
    `users` only the closures are computed.

    Each round scatters the meet and join of every pair of members of the
    families still growing, until none grows.  Families are taken in
    slices of equal member count whose pair arrays hold at most
    BLOCK_FLOATS entries."""
    families = np.asarray(families, dtype=np.int64)
    if users is not None:
        users = tuple(user_indices(users, lat.m))
    everyone = np.arange(len(families))
    closed = np.zeros((len(families), lat.size), dtype=bool)
    closed[everyone[:, None], families] = True
    growing, counts = everyone, np.count_nonzero(closed, axis=1)
    while growing.size:
        for rows, a, b in _pair_slices(closed, growing, counts):
            closed[rows, lat.meet[a, b]] = True
            closed[rows, lat.join[a, b]] = True
        after = np.count_nonzero(closed[growing], axis=1)
        grew = after > counts
        growing, counts = growing[grew], after[grew]
    if users is None:
        return Preservation(closed, None, None)
    commutes, candidates, keeps = _passage_tables(lat, users)
    consistent = np.ones(len(families), dtype=bool)
    for rows, a, b in _pair_slices(closed, everyone, np.count_nonzero(closed, axis=1)):
        consistent[rows[:, 0]] = commutes[a, b].all(axis=1)
    hold = np.ones((len(candidates), len(families)), dtype=bool)
    for column in families.T:
        hold &= keeps[:, column]
    witness = np.where(hold.any(axis=0), candidates[hold.argmax(axis=0)], -1)
    return Preservation(closed, consistent, witness)


def _family(items):
    """The lattice of a non-empty family's ambient space, and the family's
    positions in it as a batch of one."""
    m, q = items[0].m, items[0].q
    if any(s.m != m or s.q != q for s in items):
        raise AmbientMismatchError("subspaces have mixed ambient spaces")
    lat = subspace_lattice(q, m)
    return lat, np.array([[lat.index[s] for s in items]])


def closure(subspaces) -> frozenset:
    """Smallest set of subspaces containing the input and closed under
    intersection and sum."""
    items = list(subspaces)
    if not items:
        return frozenset()
    lat, family = _family(items)
    closed = preservation(lat, family).closed[0]
    return frozenset(lat.subspaces[i] for i in np.flatnonzero(closed).tolist())


def consistency_check(subspaces, users) -> bool:
    """True iff projection onto `users` commutes with intersection for every
    pair in the closure of the given family."""
    items = list(subspaces)
    if not items:
        return True
    lat, family = _family(items)
    return bool(preservation(lat, family, users).consistent[0])


def orthogonal_passage_check(subspaces, users):
    """Search for a subspace W of dimension |users| projecting onto the full
    space of the selected coordinates such that proj(W & V) = proj(V) for
    every V in the family.  Returns the first such W in lattice order, or
    None when no witness exists.
    """
    items = list(subspaces)
    if not items:
        raise ValueError("empty family")
    lat, family = _family(items)
    hit = int(preservation(lat, family, users).witness[0])
    return lat.subspaces[hit] if hit >= 0 else None


@lru_cache(maxsize=None)
def _pair_table(lat: SubspaceLattice) -> np.ndarray:
    """Every pair i <= j of lattice positions in lexicographic order, as
    the columns of a (5, L(L+1)/2) array with rows i, j, the row of the
    pair's left factor in [states; 2 * states] (i on the diagonal, L + i
    off it), and the pair's meet and join."""
    i, j = np.triu_indices(lat.size)
    table = np.stack([i, j, i + lat.size * (i != j), lat.meet[i, j], lat.join[i, j]])
    table.setflags(write=False)
    return table


def _scatter_children(lat: SubspaceLattice, states: np.ndarray, live: np.ndarray):
    """The unnormalized children of a narrow block: all live-pair products
    in one pair-major array, each child cell summed by `np.bincount`, which
    adds from 0.0 in input order, so in pair order.  Columns go in slices
    of at most BLOCK_FLOATS products, or of one column where the live
    pairs are more."""
    size, n = states.shape
    table = _pair_table(lat)
    if not live.all():
        table = table[:, live[table[0]] & live[table[1]]]
    right, left = table[1], table[2]
    step = max(1, BLOCK_FLOATS // max(1, len(right)))
    parts = []
    for lo in range(0, max(n, 1), step):     # one empty slice if n == 0
        block = states[:, lo:lo + step]
        w = block.shape[1]
        prod = np.concatenate([block, 2 * block]).take(left, axis=0)
        prod *= block.take(right, axis=0)
        col = np.arange(w)
        parts.append([np.bincount((target[:, None] * w + col).ravel(), prod.ravel(),
                                  minlength=size * w).reshape(size, w)
                      for target in (table[3], table[4])])
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(children, axis=1) for children in zip(*parts)]


def _loop_children(lat: SubspaceLattice, states: np.ndarray, live: np.ndarray):
    """The unnormalized children of a wide block, one row operation per
    live pair in pair order.  A child row's first product is written, not
    added to 0.0: for a product p >= 0, 0.0 + p is p, so each row sums to
    the bits of a zero-filled row.  Rows that no live pair reaches are
    zeroed at the end."""
    size, n = states.shape
    minus, plus = np.empty((size, n)), np.empty((size, n))
    prod = np.empty(n)
    down_rows, up_rows = list(minus), list(plus)
    fresh_down, fresh_up = [True] * size, [True] * size
    live = np.flatnonzero(live)
    meet, join = (t[np.ix_(live, live)].tolist() for t in (lat.meet, lat.join))
    rows = [states[i] for i in live.tolist()]
    for a, row in enumerate(rows):
        twice = 2 * row
        for b in range(a, len(rows)):
            left = row if b == a else twice
            down, up = meet[a][b], join[a][b]
            d, u = down_rows[down], up_rows[up]
            if fresh_down[down]:
                fresh_down[down] = False
                np.multiply(left, rows[b], out=d)
                if fresh_up[up]:
                    fresh_up[up] = False
                    np.copyto(u, d)
                else:
                    np.add(u, d, out=u)
            elif fresh_up[up]:
                fresh_up[up] = False
                np.multiply(left, rows[b], out=u)
                np.add(d, u, out=d)
            else:
                np.multiply(left, rows[b], out=prod)
                np.add(d, prod, out=d)
                np.add(u, prod, out=u)
    minus[np.array(fresh_down)] = 0.0
    plus[np.array(fresh_up)] = 0.0
    return minus, plus


def lattice_children(lat: SubspaceLattice, states: np.ndarray) -> np.ndarray:
    """Both children of every state of an (L, n) level, as an (L, 2n)
    array in decoding order: column 2j is the '-' child of state j (pair
    products scattered by meet), column 2j + 1 its '+' child (by join).

    The product of live rows i <= j is s_i * s_i on the diagonal and
    (2 * s_i) * s_j off it, and each child cell sums its products in
    lexicographic pair order.  A block of at most NARROW_WIDTH states
    forms its products in one array and scatters them with `np.bincount`,
    which adds from 0.0, in column slices of at most BLOCK_FLOATS
    products; a wider block writes each child row's first product and
    adds the rest pair by pair, which is faster there.  Products are
    never negative, so 0.0 + p is p and both give the same bits.

    Each child is renormalized to sum 1, so float drift does not compound
    with depth.  Zero weights are legal: a product that underflows adds
    0.0.  Rows that are zero in every state are not live: their largest
    weight is 0.0, as weights are finite and non-negative.
    """
    size, n = states.shape
    children = _scatter_children if n <= NARROW_WIDTH else _loop_children
    minus, plus = children(lat, states, states.max(axis=1, initial=0.0) > 0)
    out = np.empty((size, 2 * n))
    np.divide(minus, minus.sum(axis=0), out=out[:, 0::2])
    np.divide(plus, plus.sum(axis=0), out=out[:, 1::2])
    return out


def lattice_levels(lat: SubspaceLattice, root: np.ndarray, depth: int):
    """Yield (level, block) over the depth-`depth` tree below the (L,)
    weight vector `root`; a block is an (L, b) array of consecutive states
    of one level, in decoding order.  A level wider than BLOCK_FLOATS
    weights is split in halves, each walked to the leaves before the next,
    so leaves arrive in decoding order and memory stays a few blocks."""
    width = max(1, BLOCK_FLOATS // lat.size)
    pending = [(0, np.asarray(root, dtype=np.float64).reshape(-1, 1))]
    while pending:
        level, block = pending.pop()
        yield level, block
        if level < depth:
            children = lattice_children(lat, block)
            n = block.shape[1]
            halves = [children] if 2 * n <= width else [children[:, n:], children[:, :n]]
            pending += [(level + 1, h) for h in halves]


def level_averages(lat: SubspaceLattice, root: np.ndarray, depth: int):
    """Per level 0..depth, the weight vector averaged over its 2^level
    states, (depth + 1, L), and the share of extremal states (a weight of
    at least 1 - EXTREMAL_TOL), (depth + 1,).  Every enumerating evolution
    comes here, so its bound is here: not the depth, but TooDeepError once
    the walk would expand more than 2^ENUMERATE_DEPTH_CAP - 1 states, the
    internal states of a full depth-20 tree.

    A state at level t is settled when its largest weight is on subspace
    k and its weight off k, delta, has delta * 2^(depth - t) <= SETTLE_TOL.
    It is counted but not expanded: each of its 2^(d - t) descendants at
    level d counts as the unit vector on k.  Since meet(k, k) = join(k, k)
    = k, a child keeps at least the square of its parent's weight on k, so
    the off-k weight at most doubles per level.  Each level average then
    moves by at most 2 * SETTLE_TOL in L1, I[S] by at most 2m * SETTLE_TOL,
    and no extremal count changes.  Settled states leave the block through
    `np.compress`, an in-order column copy that costs a fraction of a
    boolean column mask.  A state settled at level t adds 2^-t to its unit
    vector at every level below, and each level's walked sum is scaled by
    2^-level, so nothing overflows at any depth.  Shares and fractions are
    exact to level 52 (counts below 2^53), then round to 2^-53 relative."""
    sums = np.zeros((depth + 1, lat.size))
    extremal = np.zeros(depth + 1, dtype=np.int64)
    settled = np.zeros((depth + 1, lat.size))  # row t + 1: share of level t settled
    width = max(1, BLOCK_FLOATS // lat.size)
    expanded = 0
    pending = [(0, np.asarray(root, dtype=np.float64).reshape(-1, 1))]
    while pending:
        level, block = pending.pop()
        sums[level] += block.sum(axis=1)
        near = block >= 1.0 - EXTREMAL_TOL      # at most one weight per state
        extremal[level] += np.count_nonzero(near.any(axis=0))
        if level == depth:
            continue
        # The weight off k is summed, not taken as 1 - max, which rounds
        # to 0.  A state with no near-extremal weight sums to 1 here.
        off = block.sum(axis=0, where=~near)
        done = off <= SETTLE_TOL * 2.0 ** (level - depth)
        if done.any():
            settled[level + 1] += np.count_nonzero(near & done, axis=1) * 0.5 ** level
            block = np.compress(~done, block, axis=1)
        n = block.shape[1]
        expanded += n
        if expanded > 2 ** ENUMERATE_DEPTH_CAP - 1:
            raise TooDeepError(f"enumeration to depth {depth} expands more than "
                               f"2^{ENUMERATE_DEPTH_CAP} - 1 states")
        if n:
            children = lattice_children(lat, block)
            halves = [children] if 2 * n <= width else [children[:, n:], children[:, :n]]
            pending += [(level + 1, h) for h in halves]
    scale = 0.5 ** np.arange(depth + 1)
    share = np.cumsum(settled, axis=0)
    return sums * scale[:, None] + share, extremal * scale + share.sum(axis=1)


# -- evolution -------------------------------------------------------------------

@dataclass(frozen=True)
class EvolveLevel:
    level: int
    weights: tuple               # lattice weight vector averaged over branches
    info: tuple                  # averaged I[S] per `user_subsets(m)` set
    extremal_fraction: float
    stderr: tuple | None = None  # per-weight standard error (sample mode)


@dataclass(frozen=True)
class EvolveReport:
    levels: tuple                # EvolveLevel per depth 0..l

    @property
    def final(self) -> EvolveLevel:
        return self.levels[-1]


def evolve(combo: LinearComboMac, depth: int, mode: str = "enumerate",
           n_paths: int = 1000, seed: int = 0) -> EvolveReport:
    """Evolve a combination channel through `depth` polarization levels.

    Each level reports the lattice weight vector averaged over its
    branches; I[S] of that average is its projected dimensions, the
    average of I[S] over the branches.  mode="enumerate" averages all
    2^depth branches, refused past 2^ENUMERATE_DEPTH_CAP - 1 expanded
    states; mode="sample" follows `n_paths` seeded random branch paths
    and also reports standard errors of the averages.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    lat = subspace_lattice(combo.q, combo.m)
    pdims = np.array([lat.projected_dims(s) for s in user_subsets(combo.m)],
                     dtype=np.float64)
    root = combo.weights()

    def entry(level, avg, extremal, stderr=None):
        return EvolveLevel(level, tuple(avg.tolist()), tuple((pdims @ avg).tolist()),
                           float(extremal), stderr)

    if mode == "enumerate":
        averages, extremal = level_averages(lat, root, depth)
        return EvolveReport(tuple(map(entry, range(depth + 1), averages, extremal)))
    if mode == "sample":
        if n_paths < 2:
            raise ValueError(f"sample mode needs at least 2 paths, got {n_paths}")
        rng = np.random.default_rng([seed])
        states = np.repeat(root[:, None], n_paths, axis=1)
        levels = [entry(0, root, root.max() >= 1.0 - EXTREMAL_TOL,
                        stderr=(0.0,) * lat.size)]
        for lvl in range(1, depth + 1):
            children = lattice_children(lat, states)
            pick = rng.integers(0, 2, size=n_paths)
            states = np.where(pick == 0, children[:, 0::2], children[:, 1::2])
            se = states.std(axis=1, ddof=1) / np.sqrt(n_paths)
            levels.append(entry(lvl, states.mean(axis=1),
                                np.mean(states.max(axis=0) >= 1.0 - EXTREMAL_TOL),
                                stderr=tuple(se.tolist())))
        return EvolveReport(tuple(levels))
    raise ValueError(f"unknown mode {mode!r}")


# -- two-user binary states --------------------------------------------------------

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


def binary2_order() -> list:
    """Lattice positions of the five components, in component order."""
    index = subspace_lattice(2, 2).index
    return [index[s] for s in binary2_subspaces()]


def binary2_state(combo: LinearComboMac) -> np.ndarray:
    """5-vector of weights in the fixed component order (q=2, m=2 only)."""
    if combo.q != 2 or combo.m != 2:
        raise AmbientMismatchError("binary two-user state requires q=2, m=2")
    return combo.weights()[binary2_order()]


def _binary2_combo(p) -> LinearComboMac:
    """A 5-state as a channel, checked as channel weights are (zero
    components are legal)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (5,):
        raise ValueError(f"state must have 5 components, got shape {p.shape}")
    return LinearComboMac(2, 2, [(w, s) for w, s in zip(p.tolist(), binary2_subspaces())
                                 if w != 0])


def total_loss_predict(p) -> bool:
    """Sufficient condition for the dominant face to collapse to a point:
    the diagonal component is dominated by an axis component (ties count).
    Callers compare against the empirically evolved state."""
    _binary2_combo(p)
    return bool(p[3] <= max(p[1], p[2]))


def binary2_evolve(p, depth: int, mode: str = "enumerate",
                   n_paths: int = 1000, seed: int = 0) -> EvolveReport:
    """`evolve` of the channel with 5-state `p`.  The report's weights are
    in lattice order: the diagonal span{(1,1)} is component 3 there too,
    and the two axes trade places."""
    return evolve(_binary2_combo(p), depth, mode, n_paths, seed)
