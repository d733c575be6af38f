"""Independent reference results for the benchmark's correctness checks.

Nothing here imports macpolar.  A subspace of GF(q)^m is held as the
frozenset of its member vectors (tuples), which is affordable because the
benchmark only uses q^m <= 9: intersection is set intersection, the sum is
the set of pairwise sums, and a projection keeps some coordinates of every
member.  This is the subspace calculus of linear-combination channels done
a second way, so it checks the program's explicit-table pipeline and its
subspace code rather than repeating them.

Conventions shared with the program's file formats:
- an input vector's index is little-endian radix q (user 1 least
  significant), which fixes the order of the projective directions;
- a branch signature's first symbol is the outermost transform, and
  branches are listed in decoding order ('-' before '+', last symbol
  deciding);
- the two-user binary state lists the zero space, <(1,0)>, <(0,1)>,
  <(1,1)> and the full plane, in that order.
"""

from __future__ import annotations

import itertools

import numpy as np

EXTREMAL_TOL = 1e-3   # a branch is extremal when one weight is >= 1 - this


# -- GF(q)^m as sets --------------------------------------------------------

def index_vectors(q: int, m: int):
    """All vectors of GF(q)^m in input-index order (user 1 fastest)."""
    return [tuple((i // q ** k) % q for k in range(m)) for i in range(q ** m)]


def span(vectors, q: int, m: int) -> frozenset:
    members = {(0,) * m}
    for v in vectors:
        members = {tuple((s + c * x) % q for s, x in zip(base, v))
                   for base in members for c in range(q)}
    return frozenset(members)


def join(a: frozenset, b: frozenset, q: int) -> frozenset:
    return frozenset(tuple((x + y) % q for x, y in zip(u, v)) for u in a for v in b)


def dim(sub: frozenset, q: int) -> int:
    d = 0
    while q ** d < len(sub):
        d += 1
    return d


def project(sub: frozenset, users) -> frozenset:
    return frozenset(tuple(v[u - 1] for u in users) for v in sub)


def rref_rows(vectors, q: int):
    """Nonzero rows of the reduced row-echelon form of the given rows."""
    rows = [list(v) for v in vectors]
    out = []
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((r for r in rows if r[c] % q), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[c], q - 2, q)
        pivot = [(x * inv) % q for x in pivot]
        rows = [[(x - r[c] * p) % q for x, p in zip(r, pivot)] for r in rows]
        out = [[(x - r[c] * p) % q for x, p in zip(r, pivot)] for r in out]
        out.append(pivot)
    return [tuple(r) for r in out]


def all_subspaces(q: int, m: int):
    """Every subspace of GF(q)^m, smallest dimension first."""
    found = {span([], q, m)}
    frontier = list(found)
    vecs = index_vectors(q, m)
    while frontier:
        fresh = []
        for s in frontier:
            for v in vecs:
                if v not in s:
                    t = span(list(s) + [v], q, m)
                    if t not in found:
                        found.add(t)
                        fresh.append(t)
        frontier = fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def basis(sub: frozenset, q: int):
    """Canonical (RREF) basis of a subspace, as lists for a channel file."""
    return [list(r) for r in rref_rows(sorted(sub), q)]


def subsets(m: int):
    """Non-empty user subsets in the program's order (by bit mask)."""
    return [tuple(k for k in range(1, m + 1) if mask >> (k - 1) & 1)
            for mask in range(1, 2 ** m)]


class Lattice:
    """The subspaces of GF(q)^m with meet and join tables over indices."""

    def __init__(self, q: int, m: int):
        self.q, self.m = q, m
        self.subs = all_subspaces(q, m)
        self.index = {s: i for i, s in enumerate(self.subs)}
        self.meet = [[self.index[a & b] for b in self.subs] for a in self.subs]
        self.join = [[self.index[join(a, b, q)] for b in self.subs] for a in self.subs]
        self.dims = [dim(s, q) for s in self.subs]
        self.users = subsets(m)
        self.pdim = [[dim(project(s, u), q) for u in self.users] for s in self.subs]

    def step(self, weights: dict, table) -> dict:
        """One transform of a {subspace index: weight} state; products that
        underflow to zero are dropped."""
        acc: dict = {}
        for i, wi in weights.items():
            row = table[i]
            for j, wj in weights.items():
                w = wi * wj
                if w > 0.0:
                    k = row[j]
                    acc[k] = acc.get(k, 0.0) + w
        return acc

    def minus(self, weights):
        return self.step(weights, self.meet)

    def plus(self, weights):
        return self.step(weights, self.join)

    def state(self, terms) -> dict:
        """{index: weight} from (weight, basis vectors) pairs."""
        out: dict = {}
        for w, vecs in terms:
            k = self.index[span(vecs, self.q, self.m)]
            out[k] = out.get(k, 0.0) + w
        return out


# -- code construction ------------------------------------------------------

def _canonical(vec, q: int):
    lead = next(x for x in vec if x)
    inv = pow(lead, q - 2, q)
    return tuple((x * inv) % q for x in vec)


def _rank(rows, q: int) -> int:
    return len(rref_rows(rows, q)) if rows else 0


def code_reference(q: int, m: int, terms, depth: int, eps: float,
                   z_budget: float) -> dict:
    """Good set, rate vector and union bound of the depth-l code that the
    program's construction rule gives on a linear-combination channel.

    A linear channel reveals a^T x exactly when a lies in its subspace and
    nothing about it otherwise, so each direction channel is an erasure
    channel: I = weight of the subspaces holding a, Z = the rest.
    """
    lat = Lattice(q, m)
    dirs = [v for v in index_vectors(q, m)[1:] if _canonical(v, q) == v]
    holds = [[d in s for d in dirs] for s in lat.subs]
    good_sigs, union_bound = [], 0.0
    rate = [0] * m

    def leaf(sig, weights):
        nonlocal union_bound
        i_dir = {d: 0.0 for d in dirs}
        z_dir = {d: 0.0 for d in dirs}
        for k, w in weights.items():
            for d, inside in zip(dirs, holds[k]):
                if inside:
                    i_dir[d] += w
                else:
                    z_dir[d] += w
        i_branch = sum(w * lat.dims[k] for k, w in weights.items())
        good = [d for d in dirs if i_dir[d] > 1 - eps]
        good_span = span(good, q, m)
        if any(i_dir[_canonical(v, q)] <= 1 - eps for v in good_span if any(v)):
            return
        a_rows = rref_rows(good, q) if good else []
        r = len(a_rows)
        z_sum = sum(z_dir[a] for a in a_rows)
        i_det = (sum(w * dim(lat.subs[k] & good_span, q) for k, w in weights.items())
                 if r else 0.0)
        if not (abs(i_det - i_branch) < eps and abs(r - i_branch) < eps
                and z_sum < z_budget):
            return
        good_sigs.append(sig)
        union_bound += q * z_sum
        chosen = []
        for k in range(m):
            if len(chosen) == r:
                break
            rows = [tuple(a[j] for a in a_rows) for j in chosen + [k]]
            if _rank(rows, q) == len(chosen) + 1:
                chosen.append(k)
        for k in chosen:
            rate[k] += 1

    def walk(weights, suffix):
        if len(suffix) == depth:
            leaf(suffix, weights)
            return
        walk(lat.minus(weights), "-" + suffix)
        walk(lat.plus(weights), "+" + suffix)

    walk(lat.state(terms), "")
    n = 1 << depth
    return {"good": good_sigs, "rate_vector": [c / n for c in rate],
            "union_bound": union_bound, "branches": n}


# -- subspace-weight evolution ----------------------------------------------

def evolve_reference(q: int, m: int, terms, depth: int):
    """Rows (level, users, i_avg, extremal_fraction) of an enumerated
    evolution over all 2^level branches, as `macpolar evolve` writes them
    for channels other than q=2, m=2."""
    lat = Lattice(q, m)
    level = [lat.state(terms)]
    rows = []
    for lvl in range(depth + 1):
        extremal = float(np.mean([max(c.values()) >= 1 - EXTREMAL_TOL
                                  for c in level]))
        for j, users in enumerate(lat.users):
            avg = float(np.mean([sum(w * lat.pdim[k][j] for k, w in c.items())
                                 for c in level]))
            rows.append((lvl, ";".join(map(str, users)), avg, extremal))
        if lvl < depth:
            level = [c2 for c in level for c2 in (lat.minus(c), lat.plus(c))]
    return rows


FIVE_BASES = ([], [[1, 0]], [[0, 1]], [[1, 1]], [[1, 0], [0, 1]])


def five_reference(p, depth: int, chunk_level: int = 12):
    """Rows of `macpolar evolve` on a two-user binary channel: level, the
    averaged 5-state, I[{1}], I[{2}], I[{1,2}], extremal fraction and the
    total-loss prediction.

    The states of a level are the bilinear images of the previous level
    under the lattice's meet (bad branch) and join (good branch) tables,
    renormalized as the program does.  Below `chunk_level` whole levels
    are held; deeper levels are summed chunk by chunk so that this check
    adds little to the process's peak memory.
    """
    lat = Lattice(2, 2)
    order = [lat.index[span(b, 2, 2)] for b in FIVE_BASES]
    pos = {k: i for i, k in enumerate(order)}
    pairs = [(pos[a], pos[b], pos[lat.meet[a][b]], pos[lat.join[a][b]])
             for a in order for b in order]
    pdim = np.array([[lat.pdim[k][j] for j in range(3)] for k in order], float)

    def step(states):
        minus = np.zeros_like(states)
        plus = np.zeros_like(states)
        for i, j, lo, hi in pairs:
            prod = states[:, i] * states[:, j]
            minus[:, lo] += prod
            plus[:, hi] += prod
        out = np.concatenate([minus, plus], axis=0)
        out /= out.sum(axis=1, keepdims=True)
        return out

    start = np.asarray(p, dtype=float).reshape(1, 5)
    sums = np.zeros((depth + 1, 5))
    extremal = np.zeros(depth + 1)
    states = start
    top = min(depth, chunk_level)
    for lvl in range(top + 1):
        sums[lvl] = states.sum(axis=0)
        extremal[lvl] = np.count_nonzero(states.max(axis=1) >= 1 - EXTREMAL_TOL)
        if lvl < top:
            states = step(states)
    for begin in range(0, len(states), 256):
        block = states[begin: begin + 256]
        for lvl in range(top + 1, depth + 1):
            block = step(block)
            sums[lvl] += block.sum(axis=0)
            extremal[lvl] += np.count_nonzero(block.max(axis=1) >= 1 - EXTREMAL_TOL)
    predicted = int(start[0, 3] <= max(start[0, 1], start[0, 2]))
    rows = []
    for lvl in range(depth + 1):
        avg = sums[lvl] / 2 ** lvl
        info = avg @ pdim
        rows.append((lvl, *avg.tolist(), *info.tolist(),
                     float(extremal[lvl] / 2 ** lvl), predicted))
    return rows


# -- witness scan -----------------------------------------------------------

def witness_counts(q: int, m: int, users, max_family: int):
    """(families scanned, consistent families with an orthogonal-passage
    witness, consistent families without one) over all families of 1 to
    `max_family` distinct subspaces of GF(q)^m."""
    lat = Lattice(q, m)
    n = len(lat.subs)
    proj = [project(s, users) for s in lat.subs]
    full = len(users)
    witnesses = [w for w in range(n)
                 if lat.dims[w] == full and len(proj[w]) == q ** full]
    scanned = have = lack = 0
    for size in range(1, max_family + 1):
        for family in itertools.combinations(range(n), size):
            scanned += 1
            closed = set(family)
            frontier = list(family)
            while frontier:
                fresh = []
                for a in frontier:
                    for b in list(closed):
                        for c in (lat.meet[a][b], lat.join[a][b]):
                            if c not in closed:
                                closed.add(c)
                                fresh.append(c)
                frontier = fresh
            if any(proj[lat.meet[a][b]] != proj[a] & proj[b]
                   for a, b in itertools.combinations_with_replacement(closed, 2)):
                continue
            if any(all(proj[lat.meet[w][v]] == proj[v] for v in family)
                   for w in witnesses):
                have += 1
            else:
                lack += 1
    return scanned, have, lack
