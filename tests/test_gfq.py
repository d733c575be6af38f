"""Exact GF(q) arithmetic and linear algebra."""

import numpy as np
import pytest

from macpolar import (
    FieldMatrix,
    ZeroInverseError,
    field_inv,
    is_prime,
    mat_rank,
    rref,
)
from conftest import random_matrix


def brute_rank(mat: FieldMatrix) -> int:
    """Oracle: size of the row space by enumerating all row combinations."""
    import itertools
    q, rows = mat.q, mat.rows
    space = set()
    for coeffs in itertools.product(range(q), repeat=rows):
        vec = (np.array(coeffs) @ mat.data) % q if rows else np.zeros(mat.cols, int)
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
        FieldMatrix([[1]], 4)
    with pytest.raises(ValueError, match="prime"):
        field_inv(1, 9)


def test_field_inv_examples():
    assert field_inv(1, 2) == 1
    assert field_inv(2, 3) == 2
    assert field_inv(3, 5) == 2


def test_field_inv_zero():
    with pytest.raises(ZeroInverseError):
        field_inv(0, 5)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_field_inv_property(q):
    for a in range(1, q):
        assert a * field_inv(a, q) % q == 1


def test_rank_examples():
    assert mat_rank(FieldMatrix.identity(3, 2)) == 3
    assert mat_rank(FieldMatrix([[1, 0], [1, 0]], 2)) == 1
    m = FieldMatrix([[1, 2], [2, 1]], 3)
    assert brute_rank(m) == 1          # det = 1 - 4 = 0 mod 3
    assert mat_rank(m) == 1


def test_rref_examples():
    r, piv = rref(FieldMatrix.identity(3, 5))
    assert r == FieldMatrix.identity(3, 5) and piv == [0, 1, 2]
    zero = FieldMatrix(np.zeros((2, 3), dtype=np.int64), 2)
    r, piv = rref(zero)
    assert r == zero and piv == []
    r, piv = rref(FieldMatrix([[1, 1], [1, 0]], 2))
    assert r.data.tolist() == [[1, 0], [0, 1]]


def test_rref_idempotent(rng):
    for _ in range(50):
        q = int(rng.choice([2, 3, 5]))
        m = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), q)
        once, _ = rref(m)
        twice, _ = rref(once)
        assert once == twice


def test_matrix_immutable():
    m = FieldMatrix([[1]], 2)
    with pytest.raises(AttributeError):
        m.q = 3
    with pytest.raises(ValueError):
        m.data[0, 0] = 0
