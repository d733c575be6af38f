"""Exact GF(q) arithmetic and linear algebra."""

import numpy as np
import pytest

from macpolar import (
    is_prime,
    mat_rank,
    rref,
)
from conftest import random_matrix


def brute_rank(mat, q: int) -> int:
    """Oracle: size of the row space by enumerating all row combinations."""
    import itertools
    mat = np.asarray(mat)
    rows, cols = mat.shape
    space = set()
    for coeffs in itertools.product(range(q), repeat=rows):
        vec = (np.array(coeffs) @ mat) % q if rows else np.zeros(cols, int)
        space.add(tuple(vec.tolist()))
    count = len(space)
    dim = 0
    while q ** dim < count:
        dim += 1
    assert q ** dim == count
    return dim


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_prime_power_fields_rejected():
    with pytest.raises(ValueError, match="prime"):
        rref([[1]], 4)
    with pytest.raises(ValueError, match="prime"):
        mat_rank([[1]], 9)


def test_rank_examples():
    assert mat_rank(np.eye(3, dtype=np.int64), 2) == 3
    assert mat_rank([[1, 0], [1, 0]], 2) == 1
    m = [[1, 2], [2, 1]]
    assert brute_rank(m, 3) == 1          # det = 1 - 4 = 0 mod 3
    assert mat_rank(m, 3) == 1


def test_rref_examples():
    r, piv = rref(np.eye(3, dtype=np.int64), 5)
    assert np.array_equal(r, np.eye(3)) and piv == [0, 1, 2]
    zero = np.zeros((2, 3), dtype=np.int64)
    r, piv = rref(zero, 2)
    assert np.array_equal(r, zero) and piv == []
    r, piv = rref([[1, 1], [1, 0]], 2)
    assert r.tolist() == [[1, 0], [0, 1]]
    # A pivot row is scaled by the pivot's inverse mod q.
    for q in (2, 3, 5, 7):
        for a in range(1, q):
            (pivot, inverse), = rref([[a, 1]], q)[0].tolist()
            assert pivot == 1 and a * inverse % q == 1


def test_rref_and_rank_take_nested_lists_unchanged():
    rows = [[4, -1, 2], [1, 2, 0]]
    r, piv = rref(rows, 3)
    assert r.dtype == np.int64 and r.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert piv == [0, 2] and mat_rank(rows, 3) == 2
    assert rows == [[4, -1, 2], [1, 2, 0]]
    arr = np.array(rows)
    rref(arr, 3)
    mat_rank(arr, 3)
    assert arr.tolist() == rows


def test_rref_idempotent(rng):
    for _ in range(50):
        q = int(rng.choice([2, 3, 5]))
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), q)
        once, _ = rref(m, q)
        twice, _ = rref(once, q)
        assert np.array_equal(once, twice)
