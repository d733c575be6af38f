"""Linear-channel combinations: exact formulas against the explicit-table
oracle, the two-user binary recursion, evolution and the rate region."""

import numpy as np
import pytest

from macpolar import (
    LinearComboMac,
    NonFiniteError,
    Subspace,
    TooDeepError,
    TooLargeError,
    TooManyUsersError,
    binary2_combo,
    binary2_evolve,
    binary2_state,
    binary2_step,
    merge_outputs,
    mutual_info,
    rate_region,
    sum_capacity,
    total_loss_predict,
    transform_minus,
    transform_plus,
)
from macpolar.linear_mac import binary2_subspaces, check_state
from conftest import random_combo, subsets_of


@pytest.fixture
def f22():
    return binary2_subspaces()


def uniform_five():
    return LinearComboMac(2, 2, [(0.2, s) for s in binary2_subspaces()])


def test_term_merging_and_weight_checks(f22):
    combo = LinearComboMac(2, 2, [(0.3, f22[1]), (0.7 - 0.3, f22[2]), (0.3, f22[1])])
    assert len(combo.terms) == 2
    with pytest.raises(ValueError):
        LinearComboMac(2, 2, [(0.5, f22[1])])
    with pytest.raises(ValueError):
        LinearComboMac(2, 2, [(-0.1, f22[1]), (1.1, f22[2])])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_and_states_rejected(f22, value):
    with pytest.raises(NonFiniteError):
        LinearComboMac(2, 2, [(value, f22[1]), (1.0, f22[2])])
    with pytest.raises(NonFiniteError):
        check_state([value, 0.25, 0.25, 0.25, 0.25])
    states = np.full((3, 5), 0.2)
    states[2, 4] = value
    with pytest.raises(NonFiniteError):
        binary2_step(states)


def test_to_explicit_examples(f22):
    full = LinearComboMac(2, 2, [(1.0, f22[4])]).to_explicit()
    assert sum_capacity(full) == pytest.approx(2.0, abs=1e-12)
    zero = LinearComboMac(2, 2, [(1.0, f22[0])]).to_explicit()
    assert sum_capacity(zero) == pytest.approx(0.0, abs=1e-12)
    five = uniform_five().to_explicit()
    assert mutual_info(five, [1]) == pytest.approx(0.6, abs=1e-12)


def test_to_explicit_cap(f22):
    with pytest.raises(TooLargeError):
        uniform_five().to_explicit(max_cells=10)


def test_li_mutual_info_examples(f22):
    full = LinearComboMac(2, 2, [(1.0, f22[4])])
    assert full.mutual_info([1, 2]) == pytest.approx(2.0)
    assert uniform_five().mutual_info([2]) == pytest.approx(0.6)


def test_li_mutual_info_matches_explicit(rng):
    for _ in range(40):
        q, m = [(2, 2), (2, 3), (3, 2)][int(rng.integers(0, 3))]
        combo = random_combo(rng, q, m)
        explicit = combo.to_explicit()
        for s in subsets_of(m):
            assert combo.mutual_info(s) == pytest.approx(
                mutual_info(explicit, s), abs=1e-9)


def test_li_transform_fixed_points(rng, f22):
    for sub in f22:
        single = LinearComboMac(2, 2, [(1.0, sub)])
        assert single.minus().terms == single.terms
        assert single.plus().terms == single.terms


def test_li_transform_example(f22):
    half = LinearComboMac(2, 2, [(0.5, f22[1]), (0.5, f22[2])])
    minus = {s: w for w, s in half.minus().terms}
    plus = {s: w for w, s in half.plus().terms}
    assert minus[f22[0]] == pytest.approx(0.5)
    assert minus[f22[1]] == pytest.approx(0.25)
    assert minus[f22[2]] == pytest.approx(0.25)
    assert f22[4] not in minus
    assert plus[f22[4]] == pytest.approx(0.5)
    assert plus[f22[1]] == pytest.approx(0.25)
    assert plus[f22[2]] == pytest.approx(0.25)


def test_li_weight_conservation(rng):
    for _ in range(50):
        combo = random_combo(rng, 2, 3)
        for moved in (combo.minus(), combo.plus()):
            assert sum(w for w, _ in moved.terms) == pytest.approx(1.0, abs=1e-12)


def test_li_transforms_match_generic(rng):
    # The subspace calculus against the explicit transform path (merged),
    # one level deep here; the acceptance suite runs the depth-3 trees.
    for _ in range(15):
        q, m = [(2, 2), (3, 2), (2, 3)][int(rng.integers(0, 3))]
        combo = random_combo(rng, q, m)
        explicit = combo.to_explicit()
        pairs = [(combo.minus(), merge_outputs(transform_minus(explicit))),
                 (combo.plus(), merge_outputs(transform_plus(explicit)))]
        for li, chan in pairs:
            for s in subsets_of(m):
                assert li.mutual_info(s) == pytest.approx(
                    mutual_info(chan, s), abs=1e-9)


def test_preservation_check(f22):
    assert LinearComboMac(2, 2, [(1.0, f22[4])]).preserves([1])
    bad = LinearComboMac(2, 2, [(0.4, f22[1]), (0.6, f22[3])])
    assert not bad.preserves([1])
    good = LinearComboMac(2, 2, [(0.5, f22[1]), (0.5, f22[2])])
    assert good.preserves([1])


def test_preservation_means_average_is_conserved(f22):
    # When the family is consistent, every tree node splits I[S] evenly;
    # the branch values may move but their mean at each level does not.
    combo = LinearComboMac(2, 2, [(0.5, f22[1]), (0.5, f22[2])])
    assert combo.preserves([1])
    level = [combo]
    base = combo.mutual_info([1])
    for _ in range(4):
        for node in level:
            lhs = 0.5 * (node.minus().mutual_info([1]) + node.plus().mutual_info([1]))
            assert lhs == pytest.approx(node.mutual_info([1]), abs=1e-12)
        level = [c for node in level for c in (node.minus(), node.plus())]
        avg = np.mean([c.mutual_info([1]) for c in level])
        assert avg == pytest.approx(base, abs=1e-12)


def test_binary2_step_vertices():
    for k in range(5):
        vertex = np.eye(5)[k]
        minus, plus = binary2_step(vertex)
        assert np.allclose(minus, vertex) and np.allclose(plus, vertex)


def test_binary2_step_example():
    minus, plus = binary2_step(np.array([0, 0.5, 0.5, 0, 0]))
    assert np.allclose(minus, [0.5, 0.25, 0.25, 0, 0])
    assert np.allclose(plus, [0, 0.25, 0.25, 0, 0.5])


def test_binary2_step_matches_li(rng):
    subs = binary2_subspaces()
    for _ in range(200):
        p = rng.dirichlet(np.ones(5))
        combo = LinearComboMac(2, 2, [(w, s) for w, s in zip(p, subs) if w > 0])
        minus, plus = binary2_step(p)
        assert np.allclose(binary2_state(combo.minus()), minus, atol=1e-12)
        assert np.allclose(binary2_state(combo.plus()), plus, atol=1e-12)


def test_binary2_state_roundtrip(rng):
    p = rng.dirichlet(np.ones(5))
    assert np.allclose(binary2_state(binary2_combo(p)), p)


def test_evolve_level_zero(rng):
    p = rng.dirichlet(np.ones(5))
    rep = binary2_evolve(p, 0)
    assert np.allclose(rep.levels[0].p_avg, p)


def test_evolve_sum_capacity_martingale(rng):
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        rep = binary2_evolve(p, 10)
        base = rep.levels[0].i_sum
        for lv in rep.levels:
            assert lv.i_sum == pytest.approx(base, abs=1e-9)


def test_evolve_uniform_depth14_decay():
    # Exact enumeration; the averaged diagonal weight decays from 0.2 to
    # the 5e-3 range by depth 14 but not below 1e-3 yet.
    rep = binary2_evolve([0.2] * 5, 14)
    p3 = [lv.p_avg[3] for lv in rep.levels]
    assert 0.005 < p3[14] < 0.006
    assert all(p3[i + 1] < p3[i] for i in range(4, 14))


def test_evolve_modes_and_caps():
    with pytest.raises(TooDeepError):
        binary2_evolve([0.2] * 5, 21, mode="enumerate")
    a = binary2_evolve([0.2] * 5, 6, mode="sample", n_paths=200, seed=9)
    b = binary2_evolve([0.2] * 5, 6, mode="sample", n_paths=200, seed=9)
    assert a.levels[-1].p_avg == b.levels[-1].p_avg
    assert a.levels[-1].stderr is not None
    exact = binary2_evolve([0.2] * 5, 6, mode="enumerate")
    for j in range(5):
        se = max(a.levels[-1].stderr[j], 1e-3)
        assert abs(a.levels[-1].p_avg[j] - exact.levels[-1].p_avg[j]) < 5 * se


def test_order_preservation(rng):
    # The relative order of the two axis weights and the diagonal weight
    # survives every branch; in floats, components may underflow to an
    # exact tie but a strict order never reverses.
    def pattern(tri):
        return tuple(int(np.sign(a - b))
                     for a, b in [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])])

    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        init = pattern(p[1:4])
        states = p.reshape(1, 5)
        for _ in range(8):
            minus, plus = binary2_step(states)
            states = np.concatenate([minus, plus], axis=0)
            states /= states.sum(axis=1, keepdims=True)
        for s in states:
            pat = pattern(s[1:4])
            for want, got in zip(init, pat):
                if want != 0 and got != 0:
                    assert want == got
            if s[1:4].min() > 1e-100:
                assert pat == init


def test_total_loss_predict_examples():
    assert total_loss_predict([0, 0.3, 0.3, 0.1, 0.3])
    assert not total_loss_predict([0, 0.1, 0.1, 0.5, 0.3])
    assert total_loss_predict([0, 0.2, 0.2, 0.2, 0.4])   # ties count


def test_dominated_component_dies(rng):
    # Dominated axis/diagonal components decay to ~0 by depth 14 when the
    # gap is clear (0.15 margin here).
    for _ in range(5):
        while True:
            p = rng.dirichlet(np.ones(5))
            if p[3] + 0.15 <= max(p[1], p[2]):
                break
        rep = binary2_evolve(p, 14)
        assert rep.levels[14].p_avg[3] < 1e-3


def test_symmetry_when_diagonal_dominates(rng):
    # If the diagonal weight strictly dominates both axis weights, the two
    # axis weights die together and the evolved region becomes symmetric.
    for _ in range(5):
        while True:
            p = rng.dirichlet(np.ones(5))
            if p[3] >= max(p[1], p[2]) + 0.1:
                break
        rep = binary2_evolve(p, 14)
        final = rep.levels[14]
        assert abs(final.i1 - final.i2) == pytest.approx(
            abs(final.p_avg[1] - final.p_avg[2]), abs=1e-12)
        assert abs(final.p_avg[1] - final.p_avg[2]) < 1e-3


def test_rate_region_examples(f22):
    full = rate_region(LinearComboMac(2, 2, [(1.0, f22[4])]))
    bounds = dict(full.constraints)
    assert bounds[(1,)] == pytest.approx(1.0)
    assert bounds[(2,)] == pytest.approx(1.0)
    assert bounds[(1, 2)] == pytest.approx(2.0)
    assert full.dominant_face == [(1.0, 1.0)]

    five = rate_region(uniform_five())
    b = dict(five.constraints)
    assert b[(1,)] == pytest.approx(0.6) and b[(2,)] == pytest.approx(0.6)
    assert b[(1, 2)] == pytest.approx(1.0)
    assert five.dominant_face == [pytest.approx((0.6, 0.4)), pytest.approx((0.4, 0.6))]

    zero = rate_region(LinearComboMac(2, 2, [(1.0, f22[0])]))
    assert zero.vertices == [(0.0, 0.0)]

    # An explicit table gives the same region as its closed form.
    table = rate_region(uniform_five().to_explicit())
    for (s, bound), (s2, closed) in zip(table.constraints, five.constraints):
        assert s == s2 and bound == pytest.approx(closed, abs=1e-12)
    for got, want in [(table.vertices, five.vertices),
                      (table.dominant_face, five.dominant_face)]:
        assert len(got) == len(want)
        for p, r in zip(got, want):
            assert p == pytest.approx(r, abs=1e-12)


def test_rate_region_user_cap():
    sub = Subspace.full(5, 2)
    with pytest.raises(TooManyUsersError):
        rate_region(LinearComboMac(2, 5, [(1.0, sub)]))


def test_equivalent_bases_give_equal_info(rng):
    # Channels built from different spanning sets of the same subspaces
    # carry identical information for every user subset.
    sub = Subspace.from_vectors([[1, 0, 1], [0, 1, 1]], 3, 2)
    same = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3, 2)
    assert sub == same
    a = LinearComboMac(2, 3, [(0.5, sub), (0.5, Subspace.zero(3, 2))]).to_explicit()
    b = LinearComboMac(2, 3, [(0.5, same), (0.5, Subspace.zero(3, 2))]).to_explicit()
    for s in subsets_of(3):
        assert mutual_info(a, s) == pytest.approx(mutual_info(b, s), abs=1e-12)
