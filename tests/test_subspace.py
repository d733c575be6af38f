"""Subspace lattice over GF(q)^m: canonical forms and the operations
driving the preservation analysis."""

import itertools

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
from macpolar.linear_mac import binary2_subspaces


@pytest.fixture
def f22():
    return binary2_subspaces()   # V0..V4 of GF(2)^2


def random_subspace(rng, m, q):
    d = int(rng.integers(0, m + 1))
    return Subspace.from_vectors(rng.integers(0, q, size=(d, m)), m, q)


def test_span_examples(f22):
    v0, v1, v2, v3, v4 = f22
    zero_col = Subspace.from_vectors([[0, 0]], 2, 2)
    assert zero_col.dim == 0 and zero_col == v0
    assert Subspace.from_vectors([[1, 1]], 2, 2) == v3
    assert {tuple(v) for v in Subspace.from_vectors([[1, 1]], 2, 2).vectors()} == \
        {(0, 0), (1, 1)}
    assert Subspace.from_vectors([[1, 0], [0, 1]], 2, 2) == v4


def test_intersect_examples(f22, rng):
    v0, v1, v2, v3, v4 = f22
    assert v1.intersect(v3) == v0       # (1,0) is not in V3
    assert v4.intersect(v2) == v2       # absorption
    for _ in range(30):
        u = random_subspace(rng, 3, 3)
        assert u.intersect(u) == u


def test_sum_examples(f22, rng):
    v0, v1, v2, v3, v4 = f22
    assert v1.sum(v2) == v4
    for _ in range(30):
        w = random_subspace(rng, 3, 2)
        assert v0_like(w).sum(w) == w
    for _ in range(50):
        q = int(rng.choice([2, 3]))
        u, w = random_subspace(rng, 3, q), random_subspace(rng, 3, q)
        assert (u + w).dim == u.dim + w.dim - (u & w).dim


def v0_like(w):
    return Subspace.zero(w.m, w.q)


def test_membership_of_intersection(rng):
    # Exactness beyond dimensions: every vector of U & W lies in both.
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        u, w = random_subspace(rng, 4, q), random_subspace(rng, 4, q)
        inter = u & w
        for vec in inter.vectors():
            assert u.contains(vec) and w.contains(vec)
        # and conversely by counting: brute-force common vectors
        common = {tuple(v) for v in u.vectors()} & {tuple(v) for v in w.vectors()}
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
            assert a.intersect(b) in cl and a.sum(b) in cl


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
        assert a & b == b & a and a + b == b + a
        assert (a & b) & c == a & (b & c)
        assert (a + b) + c == a + (b + c)
        assert a & (a + b) == a          # absorption
        assert a + (a & b) == a


def test_projection_morphisms(rng):
    # Projection distributes over + always, and is sub-distributive over &.
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        m = int(rng.choice([3, 4]))
        users = sorted(rng.choice(range(1, m + 1),
                                  size=int(rng.integers(1, m + 1)),
                                  replace=False).tolist())
        u, w = random_subspace(rng, m, q), random_subspace(rng, m, q)
        assert (u + w).project(users) == u.project(users) + w.project(users)
        inter_proj = (u & w).project(users)
        both = u.project(users) & w.project(users)
        for vec in inter_proj.vectors():
            assert both.contains(vec)


def test_ambient_mismatch(f22):
    other = Subspace.full(3, 2)
    with pytest.raises(AmbientMismatchError):
        f22[1].intersect(other)
    with pytest.raises(AmbientMismatchError):
        f22[1].sum(Subspace.full(2, 3))
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
    with pytest.raises(TooLargeError):
        enumerate_subspaces(4, 2, 3, cap=10)


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
