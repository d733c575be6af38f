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
    SpecMismatchError,
    TooLargeError,
    all_sigs,
    branch_step,
    build_code,
    detect_linear,
    direction_stats,
    martingale_report,
    mutual_info,
    polarization_tree,
    projective_directions,
    run_trials,
    sum_capacity,
)
from macpolar.cli import main
from macpolar.linear_mac import binary2_subspaces
from macpolar.linear_mac import closure
from macpolar.jsonio import load_channel as load_channel_file
from macpolar.jsonio import load_codespec, save_codespec
from macpolar.polarize import CodeSpec
from macpolar.subspace import Subspace, enumerate_subspaces
from conftest import (
    binary2_levels,
    identity_mac,
    random_combo,
    random_mac,
    subsets_of,
    useless_mac,
)
from oracles import members, smallest_independent_rows, span_scan

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
    cols, r = detect_linear(c3, 0.1)
    assert r == 1 and cols.data.T.tolist() == [[1, 1]]
    _, r = detect_linear(identity_mac(2, 2), 0.1)
    assert r == 2
    cols, r = detect_linear(useless_mac(2, 2), 0.1)
    assert r == 0 and cols.shape == (2, 0)


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
            det = detect_linear(branch, 0.2)
            assert det is not None
            assert det[1] == sub.dim


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
                cols = tuple(map(tuple, sub.basis.data.tolist()))
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
            det = detect_linear(chan, eps, stats)
            if span is None:
                assert det is None
                rejected += 1
                continue
            cols, r = det
            assert members(Subspace.from_vectors(cols.data.T, m, q)) == span
            ranks.add(r)
            branch = build_code(chan, 0, eps, z_budget=10.0).branches[0]
            if branch.in_good_set:
                assert branch.a_columns == tuple(map(tuple, cols.data.T.tolist()))
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


def test_codespec_json_roundtrip(rng):
    spec = build_code(uniform_five_explicit(), 3, eps=0.2, z_budget=0.1)
    again = CodeSpec.from_dict(spec.to_dict())
    assert again == spec
    import json
    assert json.loads(spec.to_json()) == json.loads(
        CodeSpec.from_dict(json.loads(spec.to_json())).to_json())


def test_martingale_report(rng):
    mac = random_mac(rng, 2, 2, 4)
    rep = martingale_report(mac, 2)
    for j, s in enumerate(rep.subsets):
        assert rep.averages[0][j] == pytest.approx(mutual_info(mac, s), abs=1e-12)
    assert rep.full_set_constant
    assert rep.strict_non_increasing
    full = [row[rep.subsets.index((1, 2))] for row in rep.averages]
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
    first = spec.branches[0]

    def with_first(**changes):
        branches = (dataclasses.replace(first, **changes),) + spec.branches[1:]
        return dataclasses.replace(spec, branches=branches)

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
        "users are not the pivots": one_user,
        "user out of range": with_first(s_users=(1, 3)),
        "r mismatch": with_first(r=1),
        "short frozen": with_first(frozen=(0,)),
        "missing branch": dataclasses.replace(spec, branches=spec.branches[1:]),
        "long sig": with_first(sig="+++"),
        "bad sig": dataclasses.replace(spec, branches=(
            first, dataclasses.replace(spec.branches[1], sig="x")) + spec.branches[2:]),
        "rate": dataclasses.replace(spec, rate_vector=(1.0, 0.75)),
        "nan sum rate": dataclasses.replace(spec, sum_rate=float("nan")),
    }


@pytest.mark.parametrize("name", sorted(corrupted_specs()))
def test_codespec_check_and_load_refuse_corruption(tmp_path, name):
    spec = corrupted_specs()[name]
    with pytest.raises(SpecMismatchError):
        spec.check()
    path = tmp_path / "spec.json"
    save_codespec(str(path), spec)
    with pytest.raises(SpecMismatchError):
        load_codespec(str(path))


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
        n = sum(q ** s.dim for s in closure(combo.subspaces()))
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


def test_lattice_code_records_merge_tol_and_checks_it():
    combo = load_channel_file(FIVE)
    assert build_code(combo, 2, eps=0.2, z_budget=1e-3, merge_tol=0.25).merge_tol == 0.25
    with pytest.raises(BadToleranceError):
        build_code(combo, 2, eps=0.2, z_budget=1e-3, merge_tol=math.nan)
