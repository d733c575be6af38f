"""Branch signatures, branch channels, linear detection and code
construction."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from macpolar import (
    BadToleranceError,
    DiscreteMac,
    LinearComboMac,
    ParseError,
    SpecMismatchError,
    TooLargeError,
    all_sigs,
    branch_step,
    build_code,
    detect_linear,
    direction_stats,
    mutual_info,
    polarization_tree,
    projective_directions,
    run_trials,
    sc_decode,
    sum_capacity,
    user_subsets,
)
from macpolar import jsonio
from macpolar.cli import main
from macpolar.linear_mac import binary2_subspaces
from macpolar.linear_mac import closure
from macpolar.mac import all_vectors
from macpolar.jsonio import load_channel as load_channel_file
from macpolar.jsonio import (
    codespec_from_dict,
    codespec_to_json,
    load_codespec,
    save_codespec,
)
from macpolar.polarize import BranchShape, CodeSpec, summarize_levels
from macpolar.subspace import Subspace, enumerate_subspaces
from conftest import (
    binary2_levels,
    identity_mac,
    random_combo,
    random_mac,
    subsets_of,
    useless_mac,
)
from oracles import (
    build_code_rows,
    codespec_json,
    members,
    smallest_independent_rows,
    span_scan,
    spec_from_branches,
)

FIVE = str(Path(__file__).resolve().parents[1] / "demos" / "channels"
           / "five_component.json")


def uniform_five_explicit():
    return LinearComboMac(2, 2, [(0.2, s) for s in binary2_subspaces()]).to_explicit()


def tree_level(root, depth, step=branch_step):
    """Channels of the depth-`depth` branches, in decoding order."""
    return [ch for sig, ch in polarization_tree(root, depth, step)
            if len(sig) == depth]


def test_branch_order_examples():
    assert all_sigs(0) == [""]
    assert all_sigs(1) == ["-", "+"]
    assert all_sigs(2) == ["--", "+-", "-+", "++"]


def test_branch_order_pairwise_consistency():
    # all_sigs lists the signatures in the order relation: the last
    # differing position decides, '-' < '+'
    def slow_cmp(a, b):
        for i in reversed(range(len(a))):
            if a[i] != b[i]:
                return -1 if a[i] == "-" else 1
        return 0

    sigs = all_sigs(3)
    assert len(set(sigs)) == 8 and all(len(s) == 3 for s in sigs)
    for i, a in enumerate(sigs):
        for j, b in enumerate(sigs):
            assert slow_cmp(a, b) == (i > j) - (i < j)


def test_projective_directions():
    dirs = projective_directions(2, 2)
    assert [tuple(d) for d in dirs] == [(1, 0), (0, 1), (1, 1)]
    assert len(projective_directions(3, 2)) == 4      # (9-1)/(3-1)
    assert len(projective_directions(3, 3)) == 13
    # Against a loop over the inputs in index order.
    for q, m in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (11, 2)]:
        vecs = all_vectors(q, m)
        loop = [v.tolist() for v in vecs[1:] if v[np.flatnonzero(v)[0]] == 1]
        assert projective_directions(q, m).tolist() == loop
        assert len(loop) == (q ** m - 1) // (q - 1)


def test_polarize_branch_empty_sig(rng):
    mac = random_mac(rng, 2, 2, 4)
    assert list(polarization_tree(mac, 0, branch_step)) == [("", mac)]


def test_polarize_branch_single_step_matches_li(rng):
    combo = random_combo(rng, 2, 2)
    explicit = combo.to_explicit()
    nodes = dict(polarization_tree(explicit, 1, branch_step))
    for sig, li in [("-", combo.minus()), ("+", combo.plus())]:
        for s in subsets_of(2):
            assert mutual_info(nodes[sig], s) == pytest.approx(li.mutual_info(s),
                                                               abs=1e-9)


def test_tree_visits_levels_in_decoding_order():
    # With string nodes, a node is its own signature; the step counts calls.
    calls = []

    def step(node, symbol):
        calls.append(symbol + node)
        return symbol + node

    assert list(polarization_tree("", 0, step)) == [("", "")]
    assert calls == []
    for depth in range(1, 6):
        calls.clear()
        visited = list(polarization_tree("", depth, step))
        assert all(sig == node for sig, node in visited)
        assert len(calls) == 2 ** (depth + 1) - 2
        for lvl in range(depth + 1):
            assert [sig for sig, _ in visited if len(sig) == lvl] == all_sigs(lvl)
    # preorder, '-' child before '+' child
    assert [sig for sig, _ in polarization_tree("", 2, step)] == [
        "", "-", "--", "+-", "+", "-+", "++"]


def test_branch_capacity_sum(rng):
    # Total information is conserved across each level of the tree.
    # Unstructured tables stop merging, so random channels stay shallow;
    # the structured channel is taken deeper.
    mac = random_mac(rng, 2, 2, 4)
    total = sum(sum_capacity(c) for c in tree_level(mac, 2))
    assert total == pytest.approx(4 * sum_capacity(mac), abs=1e-6)
    five = uniform_five_explicit()
    total = sum(sum_capacity(c) for c in tree_level(five, 3))
    assert total == pytest.approx(8 * sum_capacity(five), abs=1e-6)


def test_iter_matches_polarize_branch():
    # Oracle: build each branch on its own, innermost symbol first.
    mac = uniform_five_explicit()
    seen = []
    for sig, chan in polarization_tree(mac, 3, branch_step):
        seen.append(sig)
        direct = mac
        for symbol in reversed(sig):
            direct = branch_step(direct, symbol)
        assert np.array_equal(chan.table, direct.table)
    assert [sig for sig in seen if len(sig) == 3] == all_sigs(3)


def test_polarize_branch_size_cap(rng):
    mac = random_mac(rng, 2, 2, 6)
    with pytest.raises(TooLargeError):
        tree_level(mac, 2, partial(branch_step, max_outputs=8))


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_tree_refuses_bad_merge_tol_before_any_transform(monkeypatch, tol):
    def forbidden(_):
        raise AssertionError("a transform ran")

    monkeypatch.setattr("macpolar.polarize.transform_minus", forbidden)
    monkeypatch.setattr("macpolar.polarize.transform_plus", forbidden)
    tree = polarization_tree(identity_mac(2, 2), 2,
                             partial(branch_step, merge_tol=tol))
    assert next(tree)[0] == ""
    with pytest.raises(BadToleranceError):
        next(tree)


def test_polarize_command_builds_each_branch_once(tmp_path, monkeypatch):
    # One walk serves the level averages and the branch rows: 2^(l+1) - 2
    # transforms at l=3, where two separate walks made 28.
    import macpolar.polarize as polarize
    counts = {"-": 0, "+": 0}

    def counting(symbol, transform):
        def wrapped(channel):
            counts[symbol] += 1
            return transform(channel)
        return wrapped

    monkeypatch.setattr(polarize, "transform_minus",
                        counting("-", polarize.transform_minus))
    monkeypatch.setattr(polarize, "transform_plus",
                        counting("+", polarize.transform_plus))
    assert main(["polarize", "--channel", FIVE, "--l", "3",
                 "--out", str(tmp_path / "p.csv"), "--no-timestamp"]) == 0
    assert counts == {"-": 7, "+": 7}


def test_detect_linear_examples():
    subs = binary2_subspaces()
    c3 = LinearComboMac(2, 2, [(1.0, subs[3])]).to_explicit()
    assert detect_linear(c3, 0.1).T.tolist() == [[1, 1]]
    assert detect_linear(identity_mac(2, 2), 0.1).shape == (2, 2)
    assert detect_linear(useless_mac(2, 2), 0.1).shape == (2, 0)


def test_detect_linear_rejects_non_subspace_good_set():
    # Two clean axis directions, noisy diagonal: the good set spans the
    # whole plane but the diagonal fails, so detection must decline.
    subs = binary2_subspaces()
    mixed = LinearComboMac(2, 2, [(0.2, subs[1]), (0.2, subs[2]),
                                  (0.6, subs[4])]).to_explicit()
    stats = {s.alpha: s.i for s in direction_stats(mixed)}
    assert stats[(1, 0)] == pytest.approx(0.8) and stats[(1, 1)] == pytest.approx(0.6)
    assert detect_linear(mixed, 0.3) is None

    f = 0.01   # product of two symmetric single-user channels, same shape
    bsc = np.array([[1 - f, f], [f, 1 - f]])
    table = np.zeros((4, 4))
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    table[x1 + 2 * x2, y1 + 2 * y2] = bsc[x1, y1] * bsc[x2, y2]
    assert detect_linear(DiscreteMac(2, 2, table), 0.1) is None


def test_detect_linear_never_fails_on_pointmass_channels():
    for sub in binary2_subspaces():
        chan = LinearComboMac(2, 2, [(1.0, sub)]).to_explicit()
        for branch in tree_level(chan, 3):
            cols = detect_linear(branch, 0.2)
            assert cols is not None
            assert cols.shape == (2, sub.dim)


# -- the information map against its slow forms -----------------------------

# Every nonzero subspace of these spaces: 506 in all.
PIVOT_LATTICES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]


def pivot_users(a_columns):
    """1-based pivot columns of RREF basis rows: each row's first nonzero
    index, plus 1."""
    return tuple(next(k for k, x in enumerate(c) if x) + 1 for c in a_columns)


def test_pivot_columns_are_the_smallest_independent_rows():
    seen = 0
    for q, m in PIVOT_LATTICES:
        for d in range(1, m + 1):
            for sub in enumerate_subspaces(m, d, q):
                cols = tuple(map(tuple, sub.basis.tolist()))
                assert pivot_users(cols) == smallest_independent_rows(cols, q), cols
                seen += 1
    assert seen == 506


def noisy_combo(rng, q, m):
    """A random combination's table mixed with up to 20% of a random table:
    its directions sit near 0 or 1 but rarely on them."""
    table = random_combo(rng, q, m, max_terms=5).to_explicit().table
    noise = rng.dirichlet(np.ones(table.shape[1]), size=table.shape[0])
    mix = rng.uniform(0, 0.2)
    return DiscreteMac(q, m, (1 - mix) * table + mix * noise)


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (2, 3)])
def test_detection_matches_span_scan_and_row_search(q, m):
    # The good directions form a subspace exactly when the span scan finds
    # no bad member, and a good branch's users are the greedy row search's.
    rng = np.random.default_rng([q, m, 9])
    ranks, rejected = set(), 0
    for _ in range(150):
        chan = noisy_combo(rng, q, m)
        stats = direction_stats(chan)
        for eps in (0.05, 0.2, 0.4, 0.6):
            good = [st.alpha for st in stats if st.i > 1 - eps]
            span = span_scan(good, m, q)
            cols = detect_linear(chan, eps, stats)
            if span is None:
                assert cols is None
                rejected += 1
                continue
            assert members(Subspace.from_vectors(cols.T, m, q)) == span
            ranks.add(cols.shape[1])
            branch = build_code(chan, 0, eps, z_budget=10.0).branches[0]
            if branch.in_good_set:
                assert branch.a_columns == tuple(map(tuple, cols.T.tolist()))
                assert branch.s_users == smallest_independent_rows(branch.a_columns, q)
    assert rejected > 0 and ranks == set(range(m + 1))


def test_direction_stats_extremes():
    # On exactly polarized channels, I and Z agree about each direction.
    subs = binary2_subspaces()
    for sub in subs:
        chan = LinearComboMac(2, 2, [(1.0, sub)]).to_explicit()
        for st in direction_stats(chan):
            if st.i > 1 - 1e-6:
                assert st.z < 1e-3
            if st.i < 1e-6:
                assert st.z > 1 - 1e-3


def test_build_code_perfect_and_useless():
    perfect = identity_mac(2, 2)
    spec = build_code(perfect, 2, eps=0.2, z_budget=1e-6)
    spec.check()
    assert spec.sum_rate == pytest.approx(2.0)
    assert all(b.in_good_set and b.r == 2 for b in spec.branches)

    useless = useless_mac(2, 2)
    spec = build_code(useless, 2, eps=0.2, z_budget=1e-6)
    spec.check()
    assert spec.sum_rate == 0.0
    assert all(b.in_good_set and b.r == 0 for b in spec.branches)
    assert all(all(f == 1 for f in b.frozen) for b in spec.branches)


def test_build_code_single_term_v3():
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[3])]).to_explicit()
    spec = build_code(chan, 3, eps=0.2, z_budget=1e-9)
    spec.check()
    assert spec.sum_rate == pytest.approx(1.0)
    assert spec.rate_vector == (1.0, 0.0)     # user 1 carries x1+x2's symbol
    assert spec.union_bound == pytest.approx(0.0, abs=1e-12)
    for b in spec.branches:
        assert b.s_users == (1,) and b.a_columns == ((1, 1),)


def assert_same_bits(got, want):
    """The same integers and shapes, and every float with the same bits."""
    fields = ("q", "m", "l", "shapes")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert np.array_equal(got.shape_index, want.shape_index)
    for name in ("eps", "z_budget", "merge_tol", "rate_vector", "sum_rate", "union_bound",
                 "z_sum", "i_branch", "i_detected"):
        a, b = (np.array(getattr(spec, name), dtype=np.float64) for spec in (got, want))
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def assert_file_round_trip(spec, path):
    """Save the spec, load it and save it again: the same bytes, and the
    loaded spec equal to `spec` bit for bit, its shapes made of bools and
    int tuples (the decoders cache their tables on them).  Returns the
    first text."""
    save_codespec(str(path), spec)
    first = path.read_bytes()
    loaded = load_codespec(str(path), check=False)
    save_codespec(str(path), loaded)
    assert path.read_bytes() == first
    assert_same_bits(loaded, spec)
    for good, r, a_columns, s_users, frozen in loaded.shapes:
        assert type(good) is bool and type(r) is int
        for ints in (*a_columns, s_users, frozen):
            assert type(ints) is tuple and {type(x) for x in ints} <= {int}
        assert type(a_columns) is tuple
    return first.decode()


def test_codespec_json_roundtrip():
    spec = build_code(uniform_five_explicit(), 3, eps=0.2, z_budget=0.1)
    text = codespec_to_json(spec)
    assert_same_bits(codespec_from_dict(json.loads(text)), spec)
    assert codespec_to_json(codespec_from_dict(json.loads(text))) == text


def test_save_leaves_the_file_when_formatting_fails(tmp_path, monkeypatch):
    # The text is made before the file is opened, so a spec too large to
    # format does not leave an empty file in place of the old one.
    path = tmp_path / "code.json"
    path.write_text("old")

    def fail(spec):
        raise MemoryError

    monkeypatch.setattr(jsonio, "codespec_to_json", fail)
    with pytest.raises(MemoryError):
        save_codespec(str(path), build_code(identity_mac(2, 2), 1, eps=0.2, z_budget=1e-6))
    assert path.read_text() == "old"


def uniform_combo(q, m):
    subs = [s for d in range(m + 1) for s in enumerate_subspaces(m, d, q)]
    return LinearComboMac(q, m, [(1 / len(subs), s) for s in subs])


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_to_json_matches_the_generic_encoder(tmp_path, q, m):
    # Depths 0..8 of a uniform combination: depth 0 is one branch with
    # signature "", and the shallow depths have an empty good set.  The
    # file is one key per line, sorted, each value the json encoder's
    # text; it round-trips bit for bit.
    combo = uniform_combo(q, m)
    good_counts, info = set(), False
    for depth in range(9):
        for z_budget in (1e-3, 0.2):
            spec = build_code(combo, depth, eps=0.2, z_budget=z_budget)
            text = assert_file_round_trip(spec, tmp_path / "code.json")
            data = json.loads(text)
            assert text == "{\n" + ",\n".join(
                f' "{k}": {json.dumps(v, sort_keys=True)}'
                for k, v in sorted(data.items())) + "\n}\n", (depth, z_budget)
            good_counts.add(spec.good_count > 0)
            info = info or any(b.r for b in spec.branches)
    assert good_counts == {False, True} and info


def test_to_json_spells_floats_as_json_does(tmp_path):
    spec = build_code(load_channel_file(FIVE), 2, eps=0.2, z_budget=0.1)
    # The first two branches take the odd values, the rest a third of z_sum.
    z_sum, i_branch, i_detected = spec.z_sum / 3, spec.i_branch.copy(), spec.i_detected.copy()
    z_sum[:2] = math.nan, -0.0
    i_branch[:2] = math.inf, 5e-324
    i_detected[:2] = -math.inf, 1e308
    odd = dataclasses.replace(
        spec, eps=np.float64(0.2), union_bound=math.inf, sum_rate=math.nan,
        rate_vector=(-0.0, 5e-324), merge_tol=0.0, z_sum=z_sum, i_branch=i_branch,
        i_detected=i_detected)
    text = assert_file_round_trip(odd, tmp_path / "code.json")
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e+308"):
        assert token in text
    # An integral merge tolerance is written as an integer and read as a float.
    path = tmp_path / "int.json"
    save_codespec(str(path), dataclasses.replace(odd, merge_tol=0))
    assert '"merge_tol": 0,' in path.read_text()
    assert_same_bits(load_codespec(str(path), check=False), odd)


def assert_matches_row_oracle(channel, depth, eps, z_budget, tmp_path):
    """build_code's columns, rates and union bound equal the row oracle's
    bit for bit, and its file round-trips bit for bit.  Returns the spec."""
    spec = build_code(channel, depth, eps, z_budget)
    rows, rate_vector, sum_rate, union_bound = build_code_rows(channel, depth, eps, z_budget)
    shapes = [(b.in_good_set, b.r, b.a_columns, b.s_users, b.frozen) for b in rows]
    assert spec.shapes == tuple(dict.fromkeys(shapes))     # distinct, by first use
    assert [spec.shapes[i] for i in spec.shape_index.tolist()] == shapes
    for name in ("z_sum", "i_branch", "i_detected"):
        want = np.array([getattr(b, name) for b in rows], dtype=np.float64)
        assert np.array_equal(getattr(spec, name).view(np.int64), want.view(np.int64)), name
    assert spec.rate_vector == rate_vector and spec.sum_rate == sum_rate
    assert spec.union_bound.hex() == union_bound.hex()
    assert spec.branches == tuple(rows)
    spec.check()
    assert_file_round_trip(spec, tmp_path / "code.json")
    return spec


@pytest.mark.parametrize("depth", range(11))
def test_columns_match_the_row_oracle_on_five_component(tmp_path, depth):
    five = load_channel_file(FIVE)
    for z_budget in (1e-3, 0.16, 1e9):
        assert_matches_row_oracle(five, depth, 0.2, z_budget, tmp_path)


@pytest.mark.parametrize("q, m", [(3, 2), (2, 3)])
def test_columns_match_the_row_oracle_on_seeded_combinations(tmp_path, q, m):
    rng = np.random.default_rng([q, m, 16])
    shapes = set()
    for _ in range(4):
        combo = random_combo(rng, q, m, max_terms=4)
        for depth in (0, 2, 5, 7):
            for z_budget in (1e-2, 0.2):
                spec = assert_matches_row_oracle(combo, depth, 0.2, z_budget, tmp_path)
                shapes.update(s[:2] for s in spec.shapes)
    # Frozen branches, and good ones without and with information.
    assert {(False, 0), (True, 0), (True, 1)} <= shapes


def test_columns_match_the_row_oracle_on_rows_channels(tmp_path):
    # Explicit tables take the transform tree; depth 3 keeps them small.
    channels = [uniform_five_explicit(), random_mac(np.random.default_rng(16), 2, 1, 2),
                identity_mac(2, 2), useless_mac(2, 2),
                LinearComboMac(2, 2, [(0.9, binary2_subspaces()[3]),
                                      (0.1, binary2_subspaces()[4])]).to_explicit()]
    shapes = set()
    for channel in channels:
        for depth in range(4):
            spec = assert_matches_row_oracle(channel, depth, 0.2, 0.2, tmp_path)
            shapes.update(s[:2] for s in spec.shapes)
    assert {(False, 0), (True, 0), (True, 1), (True, 2)} <= shapes


def test_martingale_report(rng):
    mac = random_mac(rng, 2, 2, 4)
    levels = [[], [], []]
    for sig, ch in polarization_tree(mac, 2, branch_step):
        levels[len(sig)].append([ch.mutual_info(s) for s in user_subsets(2)])
    subsets = user_subsets(2)
    rep = summarize_levels(subsets, levels)
    for j, s in enumerate(subsets):
        assert rep.averages[0][j] == pytest.approx(mutual_info(mac, s), abs=1e-12)
    assert rep.full_set_constant
    assert rep.strict_non_increasing
    full = [row[subsets.index((1, 2))] for row in rep.averages]
    assert max(abs(v - full[0]) for v in full) < 1e-6


def test_polarization_trend_even_levels():
    # Fraction of branches with every direction's information within 0.05
    # of an integer, computed exactly in the subspace-weight domain.
    fractions = {}
    for lvl, states in enumerate(binary2_levels([0.2] * 5, 10)):
        rho = np.stack([states[:, 1] + states[:, 4],
                        states[:, 2] + states[:, 4],
                        states[:, 3] + states[:, 4]], axis=1)
        dist = np.minimum(rho, 1 - rho).max(axis=1)
        fractions[lvl] = float(np.mean(dist < 0.05))
    evens = [fractions[l] for l in (2, 4, 6, 8, 10)]
    assert all(b >= a for a, b in zip(evens, evens[1:]))


def corrupted_specs():
    """Code specs that each break one invariant of CodeSpec.check."""
    spec = build_code(identity_mac(2, 2), 2, eps=0.2, z_budget=1e-6)
    rows = spec.branches
    first = rows[0]
    header = {f: getattr(spec, f) for f in ("q", "m", "l", "eps", "z_budget", "merge_tol",
                                            "rate_vector", "sum_rate", "union_bound")}

    def with_first(**changes):
        return spec_from_branches((first._replace(**changes),) + rows[1:],
                                  **header)

    # Consistent rates, so only the users outside the good set are wrong.
    outside = dataclasses.replace(
        with_first(in_good_set=False),
        sum_rate=spec.sum_rate - first.r / spec.block_length)
    # An invertible map whose user is not its pivot column, with the rates
    # it implies: only the canonical form is wrong.
    one_user = dataclasses.replace(
        with_first(r=1, a_columns=((1, 1),), s_users=(2,), frozen=(1, 0)),
        rate_vector=(spec.rate_vector[0] - 1 / spec.block_length, spec.rate_vector[1]),
        sum_rate=spec.sum_rate - 1 / spec.block_length)
    return {
        "frozen flag": with_first(frozen=(1, 0)),
        "info outside good set": outside,
        "descending users": with_first(s_users=(2, 1)),
        "dependent columns": with_first(a_columns=((1, 0), (1, 0))),
        "not RREF": with_first(a_columns=((1, 1), (0, 1))),
        # Past int64: refused before any array is built from them.
        "huge entry": with_first(a_columns=((1, 10 ** 30), (0, 1))),
        "huge negative entry": with_first(a_columns=((1, 0), (-10 ** 30, 1))),
        "users are not the pivots": one_user,
        "user out of range": with_first(s_users=(1, 3)),
        "r mismatch": with_first(r=1),
        "short frozen": with_first(frozen=(0,)),
        "missing branch": spec_from_branches(rows[1:], **header),
        "rate": dataclasses.replace(spec, rate_vector=(1.0, 0.75)),
        "nan sum rate": dataclasses.replace(spec, sum_rate=float("nan")),
        "negative shape index": dataclasses.replace(
            spec, shape_index=np.append(-1, spec.shape_index[1:])),
        "shape index out of range": dataclasses.replace(
            spec, shape_index=np.append(spec.shape_index[:-1], len(spec.shapes))),
        # A shape no branch names; its frozen flags are not even m long.
        "unused shape": dataclasses.replace(
            spec, shapes=spec.shapes + (BranchShape(True, 1, ((1, 1, 1),), (1,), (0,)),)),
    }


# Every refusal's message, as `check` gives it; the row-form spec gave the
# same for every case it could hold.
CORRUPTION_MESSAGES = {
    "dependent columns": "branch --: a_columns ((1, 0), (1, 0)) are not an RREF basis",
    "descending users": "branch --: information users (2, 1) are not the pivot columns "
                        "of a_columns ((1, 0), (0, 1))",
    "frozen flag": "branch --: user 1's frozen flag contradicts the information users (1, 2)",
    "info outside good set": "branch --: information users (1, 2) on a branch outside "
                             "the good set",
    "missing branch": "spec has 3 branches and 2 rates, expected 4 and 2",
    "nan sum rate": "sum rate nan, but the good set gives 2.0",
    "negative shape index": "branch columns are not 4 entries each, or a shape index is "
                            "not one of the 1 shapes",
    "not RREF": "branch --: a_columns ((1, 1), (0, 1)) are not an RREF basis",
    "huge entry": "branch --: a_columns ((1, 1000000000000000000000000000000), (0, 1)) "
                  "have entries outside 0..1",
    "huge negative entry": "branch --: a_columns ((1, 0), (-1000000000000000000000000000000, "
                           "1)) have entries outside 0..1",
    "r mismatch": "branch --: r=1 does not match its 2 users and 2 columns, or it has 2 "
                  "frozen flags for m=2",
    "rate": "R_2 = 0.75, but the frozen map gives 1.0",
    "shape index out of range": "branch columns are not 4 entries each, or a shape index "
                                "is not one of the 1 shapes",
    "short frozen": "branch --: r=2 does not match its 2 users and 2 columns, or it has 1 "
                    "frozen flags for m=2",
    "user out of range": "branch --: user 2's frozen flag contradicts the information "
                         "users (1, 3)",
    "unused shape": "shape 1 is used by no branch",
    "users are not the pivots": "branch --: information users (2,) are not the pivot "
                                "columns of a_columns ((1, 1),)",
}


@pytest.mark.parametrize("name", sorted(CORRUPTION_MESSAGES))
def test_codespec_check_and_load_refuse_corruption(tmp_path, name):
    # A corrupted spec is refused by its check, and its file by
    # load_codespec, with the same message.
    path = tmp_path / "spec.json"
    spec = corrupted_specs()[name]
    with pytest.raises(SpecMismatchError) as checked:
        spec.check()
    assert str(checked.value) == CORRUPTION_MESSAGES[name]
    save_codespec(str(path), spec)
    with pytest.raises(SpecMismatchError) as loaded:
        load_codespec(str(path))
    assert str(loaded.value) == CORRUPTION_MESSAGES[name]


@pytest.mark.parametrize("name", sorted(CORRUPTION_MESSAGES))
def test_sc_decode_refuses_corruption(name):
    # The decoder set-up runs the spec's own check first, so neither
    # sc_decode nor run_trials decodes a spec that `check` refuses, nor
    # fails on one with a numpy error.
    spec = corrupted_specs()[name]
    with pytest.raises(SpecMismatchError) as checked:
        spec.check()
    n = spec.block_length
    with pytest.raises(SpecMismatchError) as decoded:
        sc_decode(spec, identity_mac(2, 2), np.zeros(n, dtype=np.int64),
                  np.zeros((n, 2), dtype=np.int64))
    assert str(decoded.value) == str(checked.value)
    with pytest.raises(SpecMismatchError) as simulated:
        run_trials(spec, identity_mac(2, 2), 3, seed=1)
    assert str(simulated.value) == str(checked.value)


def test_per_branch_spec_file_is_refused(tmp_path, capsys):
    # A file in the earlier format, one object per branch with its
    # signature, has none of the columns; it is rebuilt with `construct`.
    spec_path, chan_path = tmp_path / "code.json", tmp_path / "ident.json"
    spec_path.write_text(codespec_json(build_code(identity_mac(2, 2), 2, eps=0.2,
                                                  z_budget=1e-6)) + "\n")
    chan_path.write_text(json.dumps({"q": 2, "m": 2, "outputs": 4,
                                     "rows": np.eye(4).tolist()}))
    why = f"{spec_path}: bad code spec: missing field 'shapes'"
    with pytest.raises(ParseError) as read:
        load_codespec(str(spec_path))
    assert str(read.value) == why
    assert main(["simulate", "--codespec", str(spec_path), "--channel", str(chan_path),
                 "--trials", "3", "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {why}\n"


def test_simulate_checks_the_spec_once(tmp_path, monkeypatch, capsys):
    # The decoder set-up owns the check: `simulate` reads the file without
    # it, so one run checks the spec once.
    spec_path, chan_path = tmp_path / "code.json", tmp_path / "ident.json"
    save_codespec(str(spec_path), build_code(identity_mac(2, 2), 3, eps=0.2, z_budget=1e-6))
    chan_path.write_text(json.dumps({"q": 2, "m": 2, "outputs": 4,
                                     "rows": np.eye(4).tolist()}))
    calls = []
    check = CodeSpec.check
    monkeypatch.setattr(CodeSpec, "check", lambda spec: calls.append(spec) or check(spec))
    assert main(["simulate", "--codespec", str(spec_path), "--channel", str(chan_path),
                 "--trials", "3", "--seed", "1"]) == 0
    assert len(calls) == 1
    assert '"errors": 0' in capsys.readouterr().out


def test_corrupted_spec_refused_under_optimize(tmp_path):
    # `python -O` strips assert statements; the spec checks must survive it.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    stripped = subprocess.run([sys.executable, "-O", "-c", "assert False"], env=env)
    assert stripped.returncode == 0
    spec_path = tmp_path / "bad.json"
    save_codespec(str(spec_path), corrupted_specs()["frozen flag"])
    chan_path = tmp_path / "ident.json"
    chan_path.write_text(json.dumps({"q": 2, "m": 2, "outputs": 4,
                                     "rows": np.eye(4).tolist()}))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "macpolar.cli", "simulate", "--codespec",
         str(spec_path), "--channel", str(chan_path), "--trials", "1"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert "frozen flag" in run.stderr


# -- the lattice path of build_code against the explicit path -----------------

def cheap_combo(rng, q, m, cells=2_000_000):
    """A seeded random combination whose explicit tree stays small.  A
    branch's merged alphabet has at most sum_V q^dim V outputs over the
    closure of the terms, and a transform of n outputs builds a table of
    q^m * n^2 * q^m cells."""
    while True:
        combo = random_combo(rng, q, m, max_terms=2 if m == 1 else 3)
        n = sum(q ** s.dim for s in closure(s for _, s in combo.terms))
        if q ** (2 * m) * n * n <= cells:
            return combo


def assert_same_code(got, want, tol=1e-11):
    assert (got.q, got.m, got.l, got.eps, got.z_budget, got.merge_tol) == \
        (want.q, want.m, want.l, want.eps, want.z_budget, want.merge_tol)
    assert got.rate_vector == want.rate_vector
    assert got.sum_rate == want.sum_rate
    assert abs(got.union_bound - want.union_bound) <= tol
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert (a.sig, a.in_good_set, a.r, a.a_columns, a.s_users, a.frozen) == \
            (b.sig, b.in_good_set, b.r, b.a_columns, b.s_users, b.frozen)
        for field in ("z_sum", "i_branch", "i_detected"):
            assert abs(getattr(a, field) - getattr(b, field)) <= tol, (a.sig, field)


@pytest.mark.parametrize("q, m, depth", [
    (2, 1, 5), (3, 1, 5), (5, 1, 5),
    (2, 2, 5), (3, 2, 5), (5, 2, 4),
    (2, 3, 5), (3, 3, 3), (5, 3, 2),
])
def test_lattice_code_matches_explicit_code(q, m, depth):
    rng = np.random.default_rng([q, m, depth])
    good = 0
    for _ in range(3):
        combo = cheap_combo(rng, q, m)
        for z_budget in (1e-2, 0.2):
            spec = build_code(combo, depth, eps=0.2, z_budget=z_budget)
            spec.check()
            assert_same_code(spec, build_code(combo.to_explicit(), depth,
                                              eps=0.2, z_budget=z_budget))
            good += spec.good_count
    assert good > 0


def test_lattice_code_matches_explicit_on_five_component():
    combo = load_channel_file(FIVE)
    for z_budget in (1e-3, 0.16):
        lattice = build_code(combo, 8, eps=0.2, z_budget=z_budget)
        explicit = build_code(combo.to_explicit(), 8, eps=0.2, z_budget=z_budget)
        assert_same_code(lattice, explicit)
    # Same frozen maps, so the same decoded blocks: criterion 9's seed.
    channel = combo.to_explicit()
    small = {kind: build_code(c, 6, eps=0.2, z_budget=1e-3)
             for kind, c in (("lattice", combo), ("explicit", channel))}
    reports = {kind: run_trials(spec, channel, 200, seed=902)
               for kind, spec in small.items()}
    assert reports["lattice"].errors == reports["explicit"].errors


@pytest.mark.parametrize("explicit", [False, True])
def test_build_code_refuses_a_nan_z_budget_before_any_transform(monkeypatch,
                                                                explicit):
    def forbidden(*_):
        raise AssertionError("a transform ran")

    channel = load_channel_file(FIVE)
    if explicit:
        channel = channel.to_explicit()
    for name in ("transform_minus", "transform_plus", "lattice_levels"):
        monkeypatch.setattr(f"macpolar.polarize.{name}", forbidden)
    with pytest.raises(ValueError, match="z_budget must be positive"):
        build_code(channel, 2, eps=0.2, z_budget=math.nan)


@pytest.mark.parametrize("explicit", [False, True])
def test_build_code_refuses_a_negative_depth_before_any_transform(monkeypatch,
                                                                  explicit):
    def forbidden(*_):
        raise AssertionError("a transform ran")

    channel = load_channel_file(FIVE)
    if explicit:
        channel = channel.to_explicit()
    for name in ("transform_minus", "transform_plus", "lattice_levels"):
        monkeypatch.setattr(f"macpolar.polarize.{name}", forbidden)
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        build_code(channel, -1, eps=0.2, z_budget=1e-3)


def test_construct_refuses_a_nan_z_budget(tmp_path, capsys):
    out = tmp_path / "code.json"
    argv = ["construct", "--channel", FIVE, "--l", "3", "--eps", "0.2",
            "--out", str(out), "--no-timestamp"]
    assert main(argv + ["--z-budget", "nan"]) == 2
    assert "z_budget must be positive" in capsys.readouterr().err
    assert not out.exists()
    # An infinite budget stays legal: every detected branch is good.
    assert main(argv + ["--z-budget", "inf"]) == 0
    assert json.loads(out.read_text())["z_budget"] == math.inf


def test_lattice_code_records_merge_tol_and_checks_it():
    combo = load_channel_file(FIVE)
    assert build_code(combo, 2, eps=0.2, z_budget=1e-3, merge_tol=0.25).merge_tol == 0.25
    with pytest.raises(BadToleranceError):
        build_code(combo, 2, eps=0.2, z_budget=1e-3, merge_tol=math.nan)
