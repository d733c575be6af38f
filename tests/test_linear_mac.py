"""Linear-channel combinations: exact formulas against the explicit-table
oracle, the two-user binary recursion, evolution and the rate region."""

import numpy as np
import pytest

from macpolar import (
    AmbientMismatchError,
    BadIndexSetError,
    BadRowSumError,
    LinearComboMac,
    NegativeProbabilityError,
    NonFiniteError,
    Subspace,
    TooDeepError,
    TooLargeError,
    binary2_evolve,
    binary2_state,
    consistency_check,
    evolve,
    merge_outputs,
    mutual_info,
    rate_region,
    sum_capacity,
    total_loss_predict,
    transform_minus,
    transform_plus,
)
from macpolar import linear_mac
from macpolar.linear_mac import (
    LATTICE_CAP,
    binary2_order,
    binary2_subspaces,
    lattice_children,
    lattice_levels,
    level_averages,
    subspace_lattice,
)
from macpolar.cli import _parse_grid
from macpolar.mac import all_vectors, user_subsets
from macpolar.subspace import count_subspaces
from conftest import binary2_levels, random_combo, subsets_of
from oracles import (
    binary2_step,
    dict_levels,
    dict_step,
    level_sums_reference,
    members,
    project_set,
    set_sum,
)


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


@pytest.mark.parametrize("weight", [0.0, -0.1])
def test_non_positive_weight_is_typed(f22, weight):
    with pytest.raises(NegativeProbabilityError, match="must be positive"):
        LinearComboMac(2, 2, [(weight, f22[1]), (1.0 - weight, f22[2])])


def test_ambient_mismatch_is_typed(f22):
    with pytest.raises(AmbientMismatchError):
        LinearComboMac(2, 3, [(1.0, f22[1])])
    with pytest.raises(AmbientMismatchError):
        LinearComboMac(3, 2, [(1.0, f22[1])])


def test_weight_sum_is_typed(f22):
    with pytest.raises(BadRowSumError, match="sum to 0.9"):
        LinearComboMac(2, 2, [(0.5, f22[1]), (0.4, f22[2])])


def test_weight_refusal_texts(f22):
    # Pinned word for word, as validate's are in test_mac.py.
    with pytest.raises(NegativeProbabilityError) as exc:
        LinearComboMac(2, 2, [(0.0, f22[1]), (1.0, f22[2])])
    assert str(exc.value) == "weights must be positive, got 0.0"
    with pytest.raises(BadRowSumError) as exc:
        LinearComboMac(2, 2, [(0.5, f22[1]), (0.4, f22[2])])
    assert str(exc.value) == "weights sum to 0.9, expected 1"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_and_states_rejected(f22, value):
    with pytest.raises(NonFiniteError):
        LinearComboMac(2, 2, [(value, f22[1]), (1.0, f22[2])])
    with pytest.raises(NonFiniteError):
        binary2_evolve([value, 0.25, 0.25, 0.25, 0.25], 1)
    with pytest.raises(NonFiniteError):
        total_loss_predict([0.25, 0.25, 0.25, 0.25, value])


def test_bad_states_rejected():
    with pytest.raises(NegativeProbabilityError):
        binary2_evolve([-0.1, 0.3, 0.3, 0.25, 0.25], 1)
    with pytest.raises(BadRowSumError):
        binary2_evolve([0.2] * 4 + [0.1], 1)
    with pytest.raises(ValueError, match="5 components"):
        binary2_evolve([0.25] * 4, 1)


LATTICES = [(2, 2, 5), (3, 2, 6), (5, 2, 8), (7, 2, 10), (11, 2, 14), (2, 3, 16),
            (3, 3, 28), (2, 4, 67), (5, 3, 64)]


@pytest.mark.parametrize("q, m, size", LATTICES)
def test_lattice_tables_match_subspace_operations(q, m, size):
    lat = subspace_lattice(q, m)
    subs = lat.subspaces
    assert lat.size == size
    assert list(subs) == sorted(subs, key=Subspace.sort_key)
    assert all(lat.index[s] == k for k, s in enumerate(subs))
    assert lat.dims.tolist() == [s.dim for s in subs]
    sets = [members(s) for s in subs]
    vecs = all_vectors(q, m)
    assert [frozenset(map(tuple, vecs[row].tolist())) for row in lat.members] == sets
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert sets[lat.meet[i, j]] == a & b
            assert sets[lat.join[i, j]] == set_sum(a, b, q)
    for users in subsets_of(m):
        small, table = lat.projection(users)
        assert [members(small.subspaces[k]) for k in table] == \
            [project_set(a, users) for a in sets]


def test_plane_lattice_over_gf101_has_its_closed_form():
    # The zero space, q + 1 lines and the plane; two distinct lines meet in
    # zero and join to the plane.
    q = 101
    lat = subspace_lattice(q, 2)
    assert lat.size == q + 3
    assert lat.dims.tolist() == [0] + [1] * (q + 1) + [2]
    assert lat.members.sum(axis=1).tolist() == (q ** lat.dims).tolist()
    lines = np.arange(1, q + 2)
    pairs = lines[:, None] != lines[None, :]
    assert (lat.meet[np.ix_(lines, lines)][pairs] == 0).all()
    assert (lat.join[np.ix_(lines, lines)][pairs] == q + 2).all()
    assert (np.diag(lat.meet) == np.arange(lat.size)).all()
    assert (np.diag(lat.join) == np.arange(lat.size)).all()
    assert (lat.meet[0] == 0).all() and (lat.join[-1] == q + 2).all()
    assert (lat.meet[-1] == np.arange(lat.size)).all()
    assert (lat.join[0] == np.arange(lat.size)).all()


@pytest.mark.parametrize("budget", [1, 10 ** 9])
def test_lattice_tables_do_not_depend_on_the_slice_budget(monkeypatch, budget):
    # The pairwise AND is built in slices of BLOCK_FLOATS bytes: one row per
    # slice at a budget of 1, every row in one slice at 10^9.
    for q, m in [(2, 4), (3, 3)]:
        cached = subspace_lattice(q, m)
        monkeypatch.setattr(linear_mac, "BLOCK_FLOATS", budget)
        fresh = subspace_lattice.__wrapped__(q, m)
        monkeypatch.undo()
        for name in ("members", "dims", "meet", "join"):
            assert np.array_equal(getattr(fresh, name), getattr(cached, name))


@pytest.mark.parametrize("m", [0, -1])
def test_lattice_needs_a_coordinate(m):
    with pytest.raises(ValueError, match="m >= 1"):
        subspace_lattice(2, m)


def test_lattice_cap():
    assert sum(count_subspaces(6, d, 2) for d in range(7)) > LATTICE_CAP
    with pytest.raises(TooLargeError):
        subspace_lattice(2, 6)
    combo = LinearComboMac(2, 6, [(1.0, Subspace.full(6, 2))])
    with pytest.raises(TooLargeError):
        consistency_check([s for _, s in combo.terms], [1, 2])


def test_block_walk_matches_whole_levels(monkeypatch):
    # Levels split into blocks come out in the same order with the same
    # bits: every child depends on its own parent column only.
    lat = subspace_lattice(3, 2)
    root = np.random.default_rng(7).dirichlet(np.ones(lat.size))

    def walk():
        levels = [[] for _ in range(8)]
        for level, block in lattice_levels(lat, root, 7):
            levels[level].append(block)
        return [np.concatenate(blocks, axis=1) for blocks in levels]

    whole = walk()
    monkeypatch.setattr(linear_mac, "BLOCK_FLOATS", 2 * lat.size)
    split = walk()
    assert [w.shape[1] for w in whole] == [2 ** lvl for lvl in range(8)]
    assert all(np.array_equal(a, b) for a, b in zip(whole, split))


def test_lattice_children_take_zero_weights():
    # The 16-term GF(2)^3 state with most weights exactly zero, and one
    # state whose products underflow: children stay normalized and finite.
    lat = subspace_lattice(2, 3)
    states = np.zeros((16, 3))
    states[[0, 5, 15], 0] = [0.5, 0.25, 0.25]
    states[:, 1] = 1 / 16
    states[[3, 9], 2] = [1.0, 1e-300]
    children = lattice_children(lat, states)
    assert children.shape == (16, 6)
    assert np.all(np.isfinite(children)) and np.all(children >= 0)
    assert np.allclose(children.sum(axis=0), 1.0, atol=1e-15)
    assert children[3, 4] == 1.0 and children[3, 5] == 1.0


def awkward_block(lat, n, seed):
    """An (L, n) block with every third row zero in every state, single
    zero weights off row 0 and state 0 (so no state is all zero, and the
    live rows do not depend on n), and every third state scaled by 1e-156,
    so that its pair products are subnormal but not all zero: there (2a)b
    and 2(ab) differ in about half the cells."""
    rng = np.random.default_rng(seed)
    block = rng.dirichlet(np.ones(lat.size), size=n).T.copy()
    block[1::3] = 0.0
    block[1:, 1:][rng.random((lat.size - 1, n - 1)) < 0.1] = 0.0
    block[:, ::3] *= 1e-156
    return block


def slice_width(lat, block):
    """The scatter's column slice: BLOCK_FLOATS products of the live pairs."""
    live = np.count_nonzero(block.any(axis=1))
    return max(1, linear_mac.BLOCK_FLOATS // (live * (live + 1) // 2))


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                  (3, 2), (3, 3), (5, 2)])
def test_scatter_and_loop_give_the_same_bits(monkeypatch, q, m):
    # Each path is forced through the width constant, at the widths around
    # the constant, at one and two column slices, and at the widest block
    # of a level walk.  Any other summation order or product form moves
    # the subnormal cells, and with them the renormalized children.
    lat = subspace_lattice(q, m)
    edge = linear_mac.NARROW_WIDTH
    step = slice_width(lat, awkward_block(lat, 1, 0))
    widths = {1, 2, 3, edge - 1, edge, edge + 1, step, step + 1,
              linear_mac.BLOCK_FLOATS // lat.size}
    for n in sorted(widths):
        block = awkward_block(lat, n, n)
        assert slice_width(lat, block) == step
        monkeypatch.setattr(linear_mac, "NARROW_WIDTH", 0)
        loop = lattice_children(lat, block)
        monkeypatch.setattr(linear_mac, "NARROW_WIDTH", n)
        scatter = lattice_children(lat, block)
        assert np.array_equal(scatter, loop), (q, m, n)


def test_the_path_follows_the_block_width(monkeypatch):
    lat = subspace_lattice(2, 3)
    seen = []
    for name in ("_scatter_children", "_loop_children"):
        def spy(lat, states, live, name=name, path=getattr(linear_mac, name)):
            seen.append((name, states.shape[1]))
            return path(lat, states, live)
        monkeypatch.setattr(linear_mac, name, spy)
    edge = linear_mac.NARROW_WIDTH
    for n in (1, edge, edge + 1):
        lattice_children(lat, awkward_block(lat, n, 0))
    assert seen == [("_scatter_children", 1), ("_scatter_children", edge),
                    ("_loop_children", edge + 1)]


def test_the_wide_kernel_writes_every_cell(monkeypatch):
    # Fresh arrays come filled with NaN, so a child cell that the pair loop
    # neither writes nor zeroes cannot pass as 0.0.  In both awkward blocks
    # some child rows are reached by no live pair.
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    wide = linear_mac.NARROW_WIDTH + 1
    lat = subspace_lattice(2, 3)
    row = lat.size // 2
    block = np.zeros((lat.size, wide))
    block[row] = np.linspace(0.5, 1.0, wide)
    unit = np.zeros((lat.size, 2 * wide))
    unit[row] = 1.0
    assert np.array_equal(lattice_children(lat, block), unit)
    for q, m in [(2, 3), (3, 2)]:
        lat = subspace_lattice(q, m)
        block = awkward_block(lat, wide, 0)
        monkeypatch.setattr(linear_mac, "NARROW_WIDTH", wide - 1)
        loop = lattice_children(lat, block)
        monkeypatch.setattr(linear_mac, "NARROW_WIDTH", wide)
        assert np.array_equal(loop, lattice_children(lat, block)), (q, m)
    # An empty block on either path (a width constant of -1 forces the loop).
    for narrow in (0, -1):
        monkeypatch.setattr(linear_mac, "NARROW_WIDTH", narrow)
        assert lattice_children(lat, np.zeros((lat.size, 0))).shape == (lat.size, 0)


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2)])
def test_projection_onto_every_user_is_the_lattice(q, m):
    lat = subspace_lattice(q, m)
    small, table = lat.projection(range(1, m + 1))
    assert small is lat
    assert np.array_equal(table, np.arange(lat.size))
    assert not table.flags.writeable
    assert np.array_equal(lat.projected_dims(range(1, m + 1)), lat.dims)


def test_to_explicit_examples(f22):
    full = LinearComboMac(2, 2, [(1.0, f22[4])]).to_explicit()
    assert sum_capacity(full) == pytest.approx(2.0, abs=1e-12)
    zero = LinearComboMac(2, 2, [(1.0, f22[0])]).to_explicit()
    assert sum_capacity(zero) == pytest.approx(0.0, abs=1e-12)
    five = uniform_five().to_explicit()
    assert mutual_info(five, [1]) == pytest.approx(0.6, abs=1e-12)


def test_to_explicit_cap(f22):
    # The full space of GF(2)^m reveals every input: a 2^m x 2^m table,
    # under MAX_EXPLICIT_CELLS = 10^6 at m = 9 and over it at m = 10.
    def revealing(m):
        return LinearComboMac(2, m, [(1.0, Subspace.full(m, 2))])

    assert revealing(9).to_explicit().output_size == 2 ** 9
    with pytest.raises(TooLargeError):
        revealing(10).to_explicit()


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


def preserves(combo, users):
    return consistency_check([s for _, s in combo.terms], users)


def test_preservation_check(f22):
    assert preserves(LinearComboMac(2, 2, [(1.0, f22[4])]), [1])
    bad = LinearComboMac(2, 2, [(0.4, f22[1]), (0.6, f22[3])])
    assert not preserves(bad, [1])
    good = LinearComboMac(2, 2, [(0.5, f22[1]), (0.5, f22[2])])
    assert preserves(good, [1])
    with pytest.raises(BadIndexSetError, match="empty"):
        preserves(good, [])


def test_preservation_means_average_is_conserved(f22):
    # When the family is consistent, every tree node splits I[S] evenly;
    # the branch values may move but their mean at each level does not.
    combo = LinearComboMac(2, 2, [(0.5, f22[1]), (0.5, f22[2])])
    assert preserves(combo, [1])
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
        _, (minus, plus) = binary2_levels(vertex, 1)
        assert np.allclose(minus, vertex) and np.allclose(plus, vertex)


def test_binary2_step_example():
    _, (minus, plus) = binary2_levels([0, 0.5, 0.5, 0, 0], 1)
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


def test_binary2_state_roundtrip(rng, f22):
    p = rng.dirichlet(np.ones(5))
    combo = LinearComboMac(2, 2, list(zip(p, f22)))
    assert np.array_equal(binary2_state(combo), p)


def test_engine_matches_closed_form_through_depth_8(rng):
    # The lattice engine against the 5-state polynomials, level by level,
    # with the same per-state renormalization.
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        states = p.reshape(1, 5)
        for level, got in enumerate(binary2_levels(p, 8)):
            assert np.max(np.abs(got - states)) < 1e-14, level
            minus, plus = binary2_step(states)
            states = np.stack([minus, plus], axis=1).reshape(-1, 5)
            states /= states.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_transforms_match_dict_oracle(q, m):
    rng = np.random.default_rng([q, m])
    for _ in range(10):
        combo = random_combo(rng, q, m, max_terms=4)
        for symbol, child in (("-", combo.minus()), ("+", combo.plus())):
            want = dict_step({members(s): w for w, s in combo.terms}, symbol, q)
            assert set(want) == {members(s) for _, s in child.terms}
            for w, s in child.terms:
                assert w == pytest.approx(want[members(s)], rel=1e-15, abs=0)


def test_transforms_survive_depth_9(f22):
    # Weight products underflow to 0.0 by depth 9 on the uniform
    # five-component channel; they drop out of the child's terms.
    level = [uniform_five()]
    for _ in range(10):
        level = [c for node in level for c in (node.minus(), node.plus())]
    assert len(level) == 1024
    assert any(len(c.terms) < 5 for c in level)
    oracle = dict_levels(uniform_five(), 10)[10]
    worst = max(abs(w - ref[members(s)]) for c, ref in zip(level, oracle)
                for w, s in c.terms)
    assert worst < 1e-12


DIAGONAL = binary2_order()[3]     # lattice position of span{(1,1)}


def enumeration_roots():
    """(label, q, m, root, depth): seeded and uniform states of three
    lattices, every state of the `step:3` and `step:2` total-loss grids,
    and the uniform 5-state past the old depth cap of 20."""
    cases = []
    for q, m, depth in ((2, 2, 16), (3, 2, 12), (2, 3, 10)):
        size = subspace_lattice(q, m).size
        cases.append(("uniform", q, m, np.full(size, 1 / size), depth))
        rng = np.random.default_rng([q, m, depth])
        for seed in range(3):
            cases.append((f"seeded{seed}", q, m, rng.dirichlet(np.ones(size)), depth))
    five = np.random.default_rng(11).dirichlet(np.ones(5))
    cases += [("seeded-l1", 2, 2, five, 1), ("seeded-l8", 2, 2, five, 8),
              ("seeded-l20", 2, 2, five, 20)]
    # step:2 adds states with two weights of exactly 1/2.
    for k, depth in ((3, 16), (2, 12)):
        for j, state in enumerate(_parse_grid(f"step:{k}")):
            root = np.zeros(5)
            root[binary2_order()] = state
            cases.append((f"step{k}-{j}", 2, 2, root, depth))
    cases += [(f"uniform-l{depth}", 2, 2, np.full(5, 0.2), depth) for depth in (21, 22)]
    return cases


# L1 distance allowed between a level's averaged weight vectors: the
# settled-state rule's 2 * 2^-53, plus 1e-15 for summing in another order.
AVERAGE_L1_TOL = 1.2220446049250313e-15


@pytest.mark.parametrize("label, q, m, root, depth", enumeration_roots(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_level_sums_match_the_full_walk(label, q, m, root, depth):
    # Counting settled states instead of expanding them keeps every
    # extremal count and moves each level average by at most the bound.
    lat = subspace_lattice(q, m)
    averages, extremal = level_averages(lat, root, depth)
    want_sums, want_extremal = level_sums_reference(lat, root, depth)
    scale = 2.0 ** np.arange(depth + 1)
    assert np.array_equal(extremal * scale, want_extremal)
    worst = np.abs(averages - want_sums / scale[:, None]).sum(axis=1).max()
    assert worst <= AVERAGE_L1_TOL, worst


@pytest.mark.parametrize("q, m, basis", [(2, 2, [[1, 1]]),
                                         (2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
def test_a_unit_root_is_counted_not_expanded(monkeypatch, q, m, basis):
    # A root with one nonzero weight has no off-k mass: every branch below
    # it is that subspace, counted without a single transform.  No depth
    # is refused, and at 2000 levels, where the branch count 2^2000 fits
    # neither int64 nor float64, every level is still the unit vector.
    def forbidden(*args):
        raise AssertionError("lattice_children called")

    monkeypatch.setattr(linear_mac, "lattice_children", forbidden)
    lat = subspace_lattice(q, m)
    k = lat.index[Subspace.from_vectors(basis, m, q)]
    root = np.zeros(lat.size)
    root[k] = 1.0
    depth = 2000
    averages, extremal = level_averages(lat, root, depth)
    for d in range(depth + 1):
        assert np.array_equal(averages[d], np.eye(lat.size)[k]), d
        assert extremal[d] == 1.0, d


def test_evolve_level_zero(rng):
    p = rng.dirichlet(np.ones(5))
    rep = binary2_evolve(p, 0)
    assert np.allclose(np.array(rep.levels[0].weights)[binary2_order()], p)


def test_evolve_sum_capacity_martingale(rng):
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        rep = binary2_evolve(p, 10)
        base = rep.levels[0].info[-1]
        for lv in rep.levels:
            assert lv.info[-1] == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (2, 3)])
def test_evolve_info_is_the_branch_average(q, m):
    # Each level's I[S] is the average over its branch channels, walked
    # here as LinearComboMac nodes; sampled levels start from the root.
    combo = random_combo(np.random.default_rng([q, m, 5]), q, m, max_terms=4)
    rep = evolve(combo, 4)
    level = [combo]
    for lv in rep.levels:
        for info, users in zip(lv.info, subsets_of(m)):
            want = np.mean([c.mutual_info(users) for c in level])
            assert info == pytest.approx(want, abs=1e-12)
        level = [c for node in level for c in (node.minus(), node.plus())]
    sampled = evolve(combo, 4, mode="sample", n_paths=50, seed=1)
    assert sampled.levels[0].info == rep.levels[0].info
    assert sampled.levels[0].weights == tuple(combo.weights().tolist())
    assert len(sampled.final.stderr) == len(sampled.final.weights)


def test_evolve_uniform_depth14_decay():
    # Exact enumeration; the averaged diagonal weight decays from 0.2 to
    # the 5e-3 range by depth 14 but not below 1e-3 yet.
    rep = binary2_evolve([0.2] * 5, 14)
    p3 = [lv.weights[DIAGONAL] for lv in rep.levels]
    assert 0.005 < p3[14] < 0.006
    assert all(p3[i + 1] < p3[i] for i in range(4, 14))


def test_evolve_modes_and_caps():
    with pytest.raises(TooDeepError, match=r"expands more than 2\^20 - 1 states"):
        binary2_evolve([0.2] * 5, 60, mode="enumerate")
    a = binary2_evolve([0.2] * 5, 6, mode="sample", n_paths=200, seed=9)
    b = binary2_evolve([0.2] * 5, 6, mode="sample", n_paths=200, seed=9)
    assert a.levels[-1].weights == b.levels[-1].weights
    assert a.levels[-1].stderr is not None
    with pytest.raises(ValueError, match="at least 2 paths"):
        binary2_evolve([0.2] * 5, 6, mode="sample", n_paths=1)
    exact = binary2_evolve([0.2] * 5, 6, mode="enumerate")
    for j in range(5):
        se = max(a.levels[-1].stderr[j], 1e-3)
        assert abs(a.levels[-1].weights[j] - exact.levels[-1].weights[j]) < 5 * se


@pytest.mark.parametrize("mode, n_paths", [("enumerate", 1000), ("sample", 4)])
def test_evolve_refuses_a_negative_depth(mode, n_paths):
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        evolve(uniform_five(), -1, mode, n_paths)


def test_binary2_evolve_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be non-negative, got -2"):
        binary2_evolve([0.2] * 5, -2)


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
        for s in binary2_levels(p, 8)[8]:
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
        assert rep.levels[14].weights[DIAGONAL] < 1e-3


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
        axes = [final.weights[k] for k in binary2_order()[1:3]]
        assert abs(final.info[0] - final.info[1]) == pytest.approx(
            abs(axes[0] - axes[1]), abs=1e-12)
        assert abs(axes[0] - axes[1]) < 1e-3


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


@pytest.mark.parametrize("q, m", [(3, 3), (2, 5)])
def test_rate_region_bounds_every_user_set(rng, q, m):
    combo = random_combo(rng, q, m)
    region = rate_region(combo)
    assert len(region.constraints) == 2 ** m - 1
    assert [s for s, _ in region.constraints] == user_subsets(m)
    for s, bound in region.constraints:
        assert bound == combo.mutual_info(s)
    assert region.vertices is None and region.dominant_face is None


def test_rate_region_past_the_user_cap_computes_nothing():
    class Seventeen:
        m = 17

        def mutual_info(self, users):
            raise AssertionError("mutual_info ran")

    with pytest.raises(TooLargeError, match="cap of m=16"):
        rate_region(Seventeen())


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
