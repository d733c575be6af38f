"""Explicit channel tables: validation, information functionals, the two
polarization transforms, restriction and output merging."""

import numpy as np
import pytest

from macpolar import (
    BadIndexSetError,
    BadRowSumError,
    DiscreteMac,
    NegativeProbabilityError,
    NonFiniteError,
    NotFullRankError,
    NotSingleUserError,
    bhattacharyya,
    merge_outputs,
    mutual_info,
    restrict,
    sum_capacity,
    transform_minus,
    transform_plus,
    validate,
)
from macpolar.linear_mac import LinearComboMac, binary2_subspaces
from macpolar.mac import all_vectors
from conftest import (
    identity_mac,
    random_full_column_rank,
    random_mac,
    sorted_columns,
    subsets_of,
    useless_mac,
)


def c_v3():
    """The two-user binary channel revealing x1 + x2."""
    return LinearComboMac(2, 2, [(1.0, binary2_subspaces()[3])]).to_explicit()


def test_validate_examples():
    validate(identity_mac(2, 2))
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(BadRowSumError):
        validate(DiscreteMac(2, 1, bad))
    neg = np.array([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(NegativeProbabilityError):
        validate(DiscreteMac(2, 1, neg))


def test_validate_refusal_texts():
    # Pinned word for word, so that a change to how the errors are built
    # keeps what the user reads.
    neg = np.array([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(NegativeProbabilityError) as exc:
        validate(DiscreteMac(2, 1, neg))
    assert str(exc.value) == "entry (0, 1) is negative: -0.1"
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(BadRowSumError) as exc:
        validate(DiscreteMac(2, 1, bad))
    assert str(exc.value) == "row 0 sums to 0.9, expected 1"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite(value):
    table = np.array([[0.5, 0.5], [value, 1.0]])
    with pytest.raises(NonFiniteError, match=r"\(1, 0\)"):
        validate(DiscreteMac(2, 1, table))


def test_mutual_info_examples():
    ident = identity_mac(2, 2)
    assert mutual_info(ident, [1, 2]) == pytest.approx(2.0, abs=1e-12)
    assert mutual_info(useless_mac(3, 2, 4), [1]) == pytest.approx(0.0, abs=1e-12)
    # The receiver sees x1+x2 and is handed x2, which pins x1 exactly.
    assert mutual_info(c_v3(), [1]) == pytest.approx(1.0, abs=1e-12)


def test_mutual_info_bad_subset():
    with pytest.raises(BadIndexSetError):
        mutual_info(identity_mac(2, 2), [])
    with pytest.raises(BadIndexSetError):
        mutual_info(identity_mac(2, 2), [3])


def test_sum_capacity_examples():
    assert sum_capacity(identity_mac(2, 2)) == pytest.approx(2.0)
    assert sum_capacity(useless_mac(2, 2)) == pytest.approx(0.0)
    five = LinearComboMac(2, 2, [(0.2, s) for s in binary2_subspaces()])
    # 0.2 * (0 + 1 + 1 + 1 + 2)
    assert sum_capacity(five.to_explicit()) == pytest.approx(1.0, abs=1e-12)


def test_bounds_hold(rng):
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        mac = random_mac(rng, q, 2, int(rng.integers(2, 8)))
        for s in subsets_of(2):
            val = mutual_info(mac, s)
            assert -1e-12 <= val <= len(s) + 1e-12


def test_transform_shapes_and_edge_cases():
    perfect = identity_mac(2, 2)
    useless = useless_mac(2, 2, 3)
    assert sum_capacity(transform_minus(useless)) == pytest.approx(0.0, abs=1e-12)
    assert sum_capacity(transform_plus(perfect)) == pytest.approx(2.0, abs=1e-12)
    # output alphabet sizes before merging
    assert transform_minus(useless).output_size == 9
    assert transform_plus(useless).output_size == 9 * 4


def test_transform_martingale(rng):
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        mac = random_mac(rng, q, 2, int(rng.integers(2, 8)))
        minus, plus = transform_minus(mac), transform_plus(mac)
        for s in subsets_of(2):
            lhs = mutual_info(minus, s) + mutual_info(plus, s)
            rhs = 2 * mutual_info(mac, s)
            assert lhs <= rhs + 1e-9
            if s == (1, 2):
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_minus_of_v3_keeps_direction_info():
    # V3 & V3 = V3: the bad channel of the x1+x2 revealer still reveals it.
    minus = merge_outputs(transform_minus(c_v3()))
    assert mutual_info(minus, [1]) == pytest.approx(1.0, abs=1e-12)


def test_restrict_identity_relabels(rng):
    mac = random_mac(rng, 2, 2, 5)
    same = restrict(mac, np.eye(2, dtype=np.int64))
    for s in subsets_of(2):
        assert mutual_info(same, s) == pytest.approx(mutual_info(mac, s), abs=1e-12)


def test_restrict_perfect_observation():
    ident = identity_mac(2, 2)
    single = restrict(ident, [[1], [0]], [[0], [1]])
    assert single.m == 1
    assert sum_capacity(single) == pytest.approx(1.0, abs=1e-12)


def test_restrict_reads_its_maps_mod_q(rng):
    mac = random_mac(rng, 2, 2, 5)
    assert np.array_equal(restrict(mac, [[3], [-1]]).table, restrict(mac, [[1], [1]]).table)
    assert np.array_equal(restrict(mac, [[1], [0]], [[3], [-1]]).table,
                          restrict(mac, [[1], [0]], [[1], [1]]).table)


@pytest.mark.parametrize("a, b", [([[1], [0], [0]], None), ([[1], [0]], [[1]]),
                                  ([1, 0], None), ([[1], [0]], [0, 1])])
def test_restrict_refuses_maps_of_the_wrong_shape(a, b):
    with pytest.raises(ValueError, match="do not match the channel"):
        restrict(identity_mac(2, 2), a, b)


def restrict_reference(mac, a, b=None):
    """The per-input loop that `restrict` replaced, kept as the oracle."""
    q, m = mac.q, mac.m
    if b is None:
        b = np.zeros((m, 0), dtype=np.int64)
    n1, n2 = a.shape[1], b.shape[1]
    vecs = all_vectors(q, m)
    u_idx = (vecs @ a) % q @ (q ** np.arange(n1))
    v_idx = (vecs @ b) % q @ (q ** np.arange(n2))
    n_y = mac.output_size
    out = np.zeros((q ** n1, n_y * q ** n2))
    scale = 1.0 / q ** (m - n1)
    for x in range(q ** m):
        cols = v_idx[x] + np.arange(n_y) * q ** n2
        out[u_idx[x], cols] += mac.table[x] * scale
    return out


def test_restrict_matches_reference_loop():
    rng = np.random.default_rng(252)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(1, 4))
        n1 = int(rng.integers(1, m + 1))
        n2 = int(rng.integers(0, m - n1 + 1))
        mac = random_mac(rng, q, m, int(rng.integers(1, 6)))
        ab = random_full_column_rank(rng, m, n1 + n2, q)
        a = ab[:, :n1]
        b = ab[:, n1:] if n2 else None
        assert np.array_equal(restrict(mac, a, b).table,
                              restrict_reference(mac, a, b))


def test_restrict_rank_check():
    with pytest.raises(NotFullRankError):
        restrict(identity_mac(2, 2), [[1], [1]], [[1], [1]])


def test_chain_rule(rng):
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        mac = random_mac(rng, q, 2, int(rng.integers(2, 7)))
        a_full = random_full_column_rank(rng, 2, 2, q)
        a1, a2 = a_full[:, :1], a_full[:, 1:]
        lhs = sum_capacity(restrict(mac, a_full))
        rhs = sum_capacity(restrict(mac, a1)) + sum_capacity(restrict(mac, a2, a1))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_composition_collapses(rng):
    # Restricting twice equals one restriction by the composed matrices,
    # up to an output relabeling (checked after canonical column sorting).
    for _ in range(10):
        q = int(rng.choice([2, 3]))
        m = 3
        mac = random_mac(rng, q, m, int(rng.integers(2, 5)))
        ab = random_full_column_rank(rng, m, 3, q)
        a, b = ab[:, :2], ab[:, 2:]
        inner = restrict(mac, a, b)
        apbp = random_full_column_rank(rng, 2, 2, q)
        ap, bp = apbp[:, :1], apbp[:, 1:]
        twice = restrict(inner, ap, bp)
        once = restrict(mac, a @ ap, np.hstack([b, a @ bp]))
        assert twice.output_size == once.output_size
        assert np.allclose(sorted_columns(twice.table), sorted_columns(once.table),
                           atol=1e-12)


def test_minus_commutation_and_plus_degradation(rng):
    for _ in range(10):
        q = int(rng.choice([2, 3]))
        mac = random_mac(rng, q, 2, int(rng.integers(2, 6)))
        alpha = random_full_column_rank(rng, 2, 1, q)
        # bad transform commutes with restriction when no side info is handed over
        a = sum_capacity(restrict(transform_minus(mac), alpha))
        b = sum_capacity(transform_minus(restrict(mac, alpha)))
        assert a == pytest.approx(b, abs=1e-9)
        # good-transform ordering, information and confusability
        i_outer = sum_capacity(restrict(transform_plus(mac), alpha))
        i_inner = sum_capacity(transform_plus(restrict(mac, alpha)))
        assert i_outer >= i_inner - 1e-9
        z_outer = bhattacharyya(restrict(transform_plus(mac), alpha))
        z_inner = bhattacharyya(transform_plus(restrict(mac, alpha)))
        assert z_outer <= z_inner + 1e-9


def test_bhattacharyya_examples():
    assert bhattacharyya(identity_mac(2, 1)) == pytest.approx(0.0, abs=1e-12)
    assert bhattacharyya(useless_mac(3, 1, 2)) == pytest.approx(1.0, abs=1e-12)
    flip = DiscreteMac(2, 1, [[0.75, 0.25], [0.25, 0.75]])
    assert bhattacharyya(flip) == pytest.approx(2 * np.sqrt(0.25 * 0.75), abs=1e-12)


def test_bhattacharyya_requires_single_user():
    with pytest.raises(NotSingleUserError):
        bhattacharyya(identity_mac(2, 2))


def test_bhattacharyya_range(rng):
    for _ in range(50):
        q = int(rng.choice([2, 3, 5]))
        z = bhattacharyya(random_mac(rng, q, 1, int(rng.integers(1, 6))))
        assert -1e-12 <= z <= 1 + 1e-12


def test_merge_duplicate_column(rng):
    mac = random_mac(rng, 2, 2, 4)
    # split output 0 into two proportional halves; merging must undo it
    doubled = DiscreteMac(2, 2, np.column_stack([mac.table[:, :1] * 0.5,
                                                 mac.table[:, 1:],
                                                 mac.table[:, :1] * 0.5]))
    merged = merge_outputs(doubled)
    assert merged.output_size == mac.output_size
    for s in subsets_of(2):
        assert mutual_info(merged, s) == pytest.approx(mutual_info(mac, s), abs=1e-12)


def test_merge_tol_zero_identity(rng):
    mac = random_mac(rng, 2, 2, 5)       # random columns: none proportional
    merged = merge_outputs(mac, tol=0.0)
    assert merged.output_size == mac.output_size
    assert np.array_equal(merged.table, mac.table)


def test_merge_drops_zero_outputs():
    table = np.array([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]])
    merged = merge_outputs(DiscreteMac(2, 1, table))
    assert merged.output_size == 2


def test_merge_preserves_info_and_z(rng):
    minus = transform_minus(c_v3())
    merged = merge_outputs(minus)
    # the bad channel of the x1+x2 revealer carries two distinguishable
    # likelihood profiles (the parity of the pair of coset labels)
    assert merged.output_size == 2
    for s in subsets_of(2):
        assert mutual_info(merged, s) == pytest.approx(mutual_info(minus, s),
                                                       abs=1e-10)
    for _ in range(10):
        mac = random_mac(rng, 2, 1, 6)
        assert bhattacharyya(merge_outputs(mac)) == pytest.approx(
            bhattacharyya(mac), abs=1e-12)


def test_table_immutable(rng):
    mac = random_mac(rng, 2, 2, 3)
    with pytest.raises(ValueError):
        mac.table[0, 0] = 1.0
