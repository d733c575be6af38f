"""Subspaces of GF(q)^m: canonical forms, the lattice tables' meet, join
and projection, and the preservation analysis on them."""

import itertools

import numpy as np
import pytest

from macpolar import (
    AmbientMismatchError,
    BadIndexSetError,
    Subspace,
    TooLargeError,
    closure,
    consistency_check,
    count_subspaces,
    enumerate_subspaces,
    orthogonal_passage_check,
)
from macpolar import linear_mac
from macpolar.linear_mac import binary2_subspaces, preservation, subspace_lattice
from conftest import subsets_of
from oracles import members, set_closure, set_consistent, set_first_witness


@pytest.fixture
def f22():
    return binary2_subspaces()   # V0..V4 of GF(2)^2


def random_subspace(rng, m, q):
    d = int(rng.integers(0, m + 1))
    return Subspace.from_vectors(rng.integers(0, q, size=(d, m)), m, q)


def meet(a, b):
    lat = subspace_lattice(a.q, a.m)
    return lat.subspaces[lat.meet[lat.index[a], lat.index[b]]]


def join(a, b):
    lat = subspace_lattice(a.q, a.m)
    return lat.subspaces[lat.join[lat.index[a], lat.index[b]]]


def project(a, users):
    """The projection table's image of `a`."""
    lat = subspace_lattice(a.q, a.m)
    small, table = lat.projection(users)
    return small.subspaces[table[lat.index[a]]]


def test_span_examples(f22):
    v0, v1, v2, v3, v4 = f22
    zero_col = Subspace.from_vectors([[0, 0]], 2, 2)
    assert zero_col.dim == 0 and zero_col == v0
    assert Subspace.from_vectors([[1, 1]], 2, 2) == v3
    assert Subspace.from_vectors([[1, 0], [0, 1]], 2, 2) == v4


def test_intersect_examples(f22, rng):
    v0, v1, v2, v3, v4 = f22
    assert meet(v1, v3) == v0           # (1,0) is not in V3
    assert meet(v4, v2) == v2           # absorption
    for _ in range(30):
        u = random_subspace(rng, 3, 3)
        assert meet(u, u) == u


def test_sum_examples(f22, rng):
    v0, v1, v2, v3, v4 = f22
    assert join(v1, v2) == v4
    for _ in range(30):
        w = random_subspace(rng, 3, 2)
        assert join(v0_like(w), w) == w
    for _ in range(50):
        q = int(rng.choice([2, 3]))
        u, w = random_subspace(rng, 3, q), random_subspace(rng, 3, q)
        assert join(u, w).dim == u.dim + w.dim - meet(u, w).dim


def v0_like(w):
    return Subspace.zero(w.m, w.q)


def test_membership_of_intersection(rng):
    # Exactness beyond dimensions: every vector of U & W lies in both.
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        u, w = random_subspace(rng, 4, q), random_subspace(rng, 4, q)
        inter = meet(u, w)
        assert members(inter) <= members(u) & members(w)
        # and conversely by counting: brute-force common vectors
        common = members(u) & members(w)
        assert len(common) == q ** inter.dim


def test_project_examples(f22):
    v0, v1, v2, v3, v4 = f22
    p = v3.project([1])
    assert p.m == 1 and p.dim == 1      # image of (1,1) on the 1st axis is {0,1}
    assert v2.project([1]).dim == 0
    assert v4.project([1, 2]) == v4
    assert v4.project([2]).dim == 1


def test_project_bad_index(f22):
    with pytest.raises(BadIndexSetError):
        f22[4].project([])
    with pytest.raises(BadIndexSetError):
        f22[4].project([0])
    with pytest.raises(BadIndexSetError):
        f22[4].project([3])


def test_closure_examples(f22, rng):
    v0, v1, v2, v3, v4 = f22
    assert closure([v4]) == frozenset([v4])
    # V1 & V2 = V0 and V1 + V2 = V4; nothing further appears.
    assert closure([v1, v2]) == frozenset([v0, v1, v2, v4])
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        fam = [random_subspace(rng, 3, q) for _ in range(int(rng.integers(1, 4)))]
        cl = closure(fam)
        assert closure(cl) == cl


def test_closure_is_closed(rng):
    for _ in range(20):
        fam = [random_subspace(rng, 3, 2) for _ in range(2)]
        cl = closure(fam)
        for a, b in itertools.product(cl, repeat=2):
            assert meet(a, b) in cl and join(a, b) in cl


def test_consistency_examples(f22):
    v0, v1, v2, v3, v4 = f22
    assert consistency_check([v4], [1])
    assert consistency_check([v4], [2])
    # proj1(V1 & V3) = {0} but proj1(V1) & proj1(V3) is the full line.
    assert not consistency_check([v1, v3], [1])
    assert consistency_check([v1, v2], [1])


def test_lattice_laws(rng):
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        a, b, c = (random_subspace(rng, 3, q) for _ in range(3))
        assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(a, join(a, b)) == a  # absorption
        assert join(a, meet(a, b)) == a


def test_projection_morphisms(rng):
    # Projection distributes over + always, and is sub-distributive over &.
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        m = int(rng.choice([3, 4]))
        users = sorted(rng.choice(range(1, m + 1),
                                  size=int(rng.integers(1, m + 1)),
                                  replace=False).tolist())
        u, w = random_subspace(rng, m, q), random_subspace(rng, m, q)
        assert project(join(u, w), users) == join(project(u, users), project(w, users))
        assert project(u, users) == u.project(users)
        inter_proj = project(meet(u, w), users)
        both = meet(project(u, users), project(w, users))
        assert members(inter_proj) <= members(both)


def test_ambient_mismatch(f22):
    other = Subspace.full(3, 2)
    with pytest.raises(AmbientMismatchError):
        closure([f22[1], other])
    with pytest.raises(AmbientMismatchError):
        orthogonal_passage_check([f22[1], Subspace.full(2, 3)], [1])
    with pytest.raises(AmbientMismatchError):
        consistency_check([f22[1], other], [1])


def test_enumeration_counts():
    for q, m in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        for d in range(m + 1):
            subs = enumerate_subspaces(m, d, q)
            assert len(subs) == count_subspaces(m, d, q)
            assert len(set(subs)) == len(subs)
            assert subs == sorted(subs, key=Subspace.sort_key)
    assert count_subspaces(2, 1, 2) == 3
    assert count_subspaces(4, 2, 2) == 35


def test_enumeration_cap():
    # GF(2)^10 has 109221651 subspaces of dimension 5, past LAYER_CAP = 10^6;
    # the count is checked before any is listed.
    with pytest.raises(TooLargeError):
        enumerate_subspaces(10, 5, 2)


def test_orthogonal_passage_examples(f22):
    v0, v1, v2, v3, v4 = f22
    # Canonical order puts V1 ([1 0]) before V3 ([1 1]); V2 fails the
    # projection filter, so V1 is the first witness.
    assert orthogonal_passage_check([v4], [1]) == v1
    assert orthogonal_passage_check([v1, v3], [1]) is None
    assert orthogonal_passage_check([v0], [1]) == v1
    assert orthogonal_passage_check([v0], [2]) == v2


def test_passage_implies_consistency(rng):
    # The witness is sufficient for preservation; whenever one exists the
    # closure-level consistency check must agree.
    hits = 0
    for _ in range(60):
        q = 2
        m = int(rng.choice([2, 3]))
        fam = [random_subspace(rng, m, q) for _ in range(int(rng.integers(1, 3)))]
        users = sorted(rng.choice(range(1, m + 1),
                                  size=int(rng.integers(1, m)),
                                  replace=False).tolist())
        if orthogonal_passage_check(fam, users) is not None:
            hits += 1
            assert consistency_check(fam, users)
    assert hits > 0


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors([[1, 1], [1, 0]], 2, 2)
    b = Subspace.from_vectors([[0, 1], [1, 0]], 2, 2)
    assert a == b and hash(a) == hash(b)


def test_subspace_reads_its_basis_mod_q():
    ref = Subspace.from_vectors([[1, 1]], 2, 2)
    for sub in (Subspace.from_vectors([[3, -1]], 2, 2), Subspace([[3, -1]], 2, 2)):
        assert sub == ref and hash(sub) == hash(ref)


def test_subspace_basis_is_read_only():
    for sub in (Subspace.from_vectors([[1, 1]], 2, 2), Subspace.full(2, 2),
                enumerate_subspaces(2, 1, 3)[0]):
        assert sub.basis.dtype == np.int64 and sub.basis.shape == (sub.dim, sub.m)
        with pytest.raises(ValueError):
            sub.basis[0, 0] = 0
        with pytest.raises(AttributeError):
            sub.q = 3


def lattice_order(q, m):
    """Every subspace of GF(q)^m in lattice order, and their member sets."""
    subs = [s for d in range(m + 1) for s in enumerate_subspaces(m, d, q)]
    return subs, [members(s) for s in subs]


def assert_matches_set_oracle(family, users, q, candidates):
    sets = [members(s) for s in family]
    assert {members(s) for s in closure(family)} == set_closure(sets, q)
    assert consistency_check(family, users) == set_consistent(sets, users, q)
    witness = orthogonal_passage_check(family, users)
    got = None if witness is None else members(witness)
    assert got == set_first_witness(sets, users, q, candidates), (family, users)


@pytest.mark.parametrize("q, m, largest", [(2, 2, 3), (3, 2, 3), (2, 3, 2)])
def test_preservation_matches_set_oracle(q, m, largest):
    # Every family of up to `largest` distinct subspaces, every user subset.
    subs, candidates = lattice_order(q, m)
    for size in range(1, largest + 1):
        for family in itertools.combinations(subs, size):
            for users in subsets_of(m):
                assert_matches_set_oracle(family, users, q, candidates)


def test_preservation_matches_set_oracle_on_gf3_3():
    rng = np.random.default_rng(8)
    subs, candidates = lattice_order(3, 3)
    for _ in range(150):
        size = int(rng.integers(1, 4))
        family = [subs[k] for k in rng.choice(len(subs), size=size, replace=False)]
        users = subsets_of(3)[int(rng.integers(0, 7))]
        assert_matches_set_oracle(family, users, 3, candidates)


def assert_batch_matches(q, m, families, users):
    """`preservation` on a batch of position rows against the one-family
    calls and the set oracles, row by row."""
    lat = subspace_lattice(q, m)
    subs, candidates = lattice_order(q, m)
    batch = preservation(lat, families, users)
    closures = preservation(lat, families).closed
    assert np.array_equal(batch.closed, closures)
    for row, closed, ok, hit in zip(families.tolist(), batch.closed, batch.consistent,
                                    batch.witness.tolist()):
        family = [subs[i] for i in row]
        sets = [members(s) for s in family]
        got = {members(subs[i]) for i in np.flatnonzero(closed)}
        assert got == set_closure(sets, q) == {members(s) for s in closure(family)}
        assert ok == set_consistent(sets, users, q) == consistency_check(family, users)
        witness = orthogonal_passage_check(family, users)
        assert (hit < 0) == (witness is None), (row, users)
        expect = set_first_witness(sets, users, q, candidates)
        assert (None if hit < 0 else candidates[hit]) == expect, (row, users)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_batch_matches_one_family_calls_on_gf2_3(size):
    # Every family of `size` distinct subspaces of GF(2)^3, every user set.
    families = np.array(list(itertools.combinations(range(16), size)))
    for users in subsets_of(3):
        assert_batch_matches(2, 3, families, users)


@pytest.mark.parametrize("q, m, seed", [(3, 3, 11), (2, 4, 12)])
def test_batch_matches_one_family_calls_on_samples(q, m, seed):
    # Seeded families of 1..4 positions (repeats allowed), every user set.
    rng = np.random.default_rng(seed)
    size = subspace_lattice(q, m).size
    for k in range(1, 5):
        families = rng.integers(0, size, size=(40, k))
        for users in subsets_of(m):
            assert_batch_matches(q, m, families, users)


def test_split_batches_give_the_same_results(monkeypatch):
    # One family per slice, a few, and all 200 in one slice: families of
    # GF(2)^4 come out the same.
    lat = subspace_lattice(2, 4)
    rng = np.random.default_rng(13)
    for k in (2, 3):
        families = rng.integers(0, lat.size, size=(200, k))
        whole = preservation(lat, families, [1, 3])
        for budget in (1, 50, 10 ** 9):
            with monkeypatch.context() as patch:
                patch.setattr(linear_mac, "BLOCK_FLOATS", budget)
                split = preservation(lat, families, [1, 3])
            assert np.array_equal(split.closed, whole.closed)
            assert np.array_equal(split.consistent, whole.consistent)
            assert np.array_equal(split.witness, whole.witness)


def test_preservation_of_no_families():
    lat = subspace_lattice(2, 3)
    empty = preservation(lat, np.zeros((0, 2), dtype=np.int64), [1])
    assert empty.closed.shape == (0, 16)
    assert empty.consistent.shape == empty.witness.shape == (0,)
    with pytest.raises(BadIndexSetError):
        preservation(lat, np.zeros((0, 2), dtype=np.int64), [4])
