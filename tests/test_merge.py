"""Output merging against the per-column loop it replaced.

`merge_outputs` groups columns by distinct direction; `merge_outputs_reference`
below is the original one-column-at-a-time loop, kept as the oracle.  The
two must give bit-identical tables (np.array_equal, not allclose): code
construction output is pinned byte for byte.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from macpolar import (
    BadToleranceError,
    DiscreteMac,
    merge_outputs,
    transform_minus,
    transform_plus,
)
from macpolar.cli import main
from macpolar.jsonio import load_channel

from conftest import channel_dict, identity_mac, subsets_of

FIVE = str(Path(__file__).resolve().parents[1] / "demos" / "channels"
           / "five_component.json")
TOLS = [0.0, 1e-12, 1e-9, 1e-3, 0.05, 0.3, math.inf]


def merge_outputs_reference(mac, tol):
    """Lex-sort the normalized columns, then walk them one by one: a column
    joins the open group when it is within `tol` of the column that opened
    it, else it opens a new group."""
    t = mac.table
    sums = t.sum(axis=0)
    keep = np.nonzero(sums > 0.0)[0]
    dirs = t[:, keep] / sums[keep]
    order = keep[np.lexsort(dirs[::-1])]
    groups = []
    rep = None
    for col in order:
        d = t[:, col] / sums[col]
        if rep is not None and np.max(np.abs(d - rep)) <= tol:
            groups[-1].append(col)
        else:
            groups.append([col])
            rep = d
    groups.sort(key=min)
    merged = np.column_stack([t[:, g].sum(axis=1) for g in groups])
    return DiscreteMac(mac.q, mac.m, merged)


def assert_same_merge(mac, tol):
    got = merge_outputs(mac, tol).table
    want = merge_outputs_reference(mac, tol).table
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got.shape[1]


def shifted(direction, delta, rng):
    """`direction` with `delta` of mass moved between two coordinates, so
    its max-norm distance to `direction` is about `delta`."""
    d = direction.copy()
    src = int(np.argmax(d))
    dst = int(rng.integers(len(d) - 1))
    dst += dst >= src
    d[src] -= delta
    d[dst] += delta
    return d


def structured_table(rng, q, m, tol):
    """Columns that probe every grouping rule: exact duplicates, rescaled
    copies (equal up to rounding), near duplicates just inside and just
    outside `tol` of a base direction, chains whose steps are within `tol`
    but whose far end is not, zero-mass columns and -0.0 entries."""
    rows = q ** m
    step = tol if 0 < tol < 0.1 else 1e-3
    cols = []
    for _ in range(int(rng.integers(1, 5))):
        base = rng.dirichlet(np.ones(rows))
        base[rng.random(rows) < 0.25] = 0.0        # sparse directions
        if not base.any():
            base[0] = 1.0
        base /= base.sum()
        cols.append(base * rng.uniform(0.1, 2.0))
        cols.append(cols[-1].copy())                       # exact duplicate
        cols.append(base * rng.uniform(0.1, 2.0))          # rounding-level copy
        for factor in (1 - 1e-6, 1 + 1e-6, 0.5, 2.0):       # around the tolerance
            cols.append(shifted(base, step * factor, rng) * rng.uniform(0.5, 1.5))
        for k in range(1, 5):                              # chain of 0.6 * step
            cols.append(shifted(base, 0.6 * step * k, rng))
        if tol == 0.0:
            cols.append(np.nextafter(base, 1.0))           # one ulp away
    cols.append(np.zeros(rows))
    cols.append(-np.zeros(rows))
    table = np.column_stack(cols)
    table = np.where(table == 0.0, -0.0, table)            # -0.0 for every zero
    table = table[:, rng.permutation(table.shape[1])]
    table[:, rng.random(table.shape[1]) < 0.2] = 0.0       # drop some columns
    if not (table.sum(axis=0) > 0).any():
        table[:, 0] = 1.0 / rows
    return DiscreteMac(q, m, table)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("tol", TOLS)
def test_merge_matches_reference_on_random_channels(q, m, tol):
    rng = np.random.default_rng([q, m, TOLS.index(tol)])
    sizes = set()
    for _ in range(12):
        sizes.add(assert_same_merge(structured_table(rng, q, m, tol), tol))
        raw = rng.random((q ** m, int(rng.integers(1, 40))))
        assert_same_merge(DiscreteMac(q, m, raw / raw.sum(axis=1, keepdims=True)),
                          tol)
    if tol == math.inf:
        assert sizes == {1}
    elif tol <= 0.05:
        assert len(sizes) > 1


def test_merge_chain_is_not_transitive():
    # Each step is within tol of the previous column, but the third column
    # is 0.06 from the first, which opened the group: two outputs.
    cols = np.array([[0.5, 0.53, 0.56], [0.5, 0.47, 0.44]])
    mac = DiscreteMac(2, 1, cols)
    assert assert_same_merge(mac, 0.05) == 2
    assert np.array_equal(merge_outputs(mac, 0.05).table,
                          np.array([[1.03, 0.56], [0.97, 0.44]]))


def test_merge_tolerance_boundary_is_inclusive():
    # Dyadic entries make the distance exactly 0.125, which merges.
    mac = DiscreteMac(2, 1, np.array([[0.5, 0.625], [0.5, 0.375]]))
    assert assert_same_merge(mac, 0.125) == 1
    assert assert_same_merge(mac, np.nextafter(0.125, 0.0)) == 2


def test_merge_matches_reference_on_five_component_tree():
    # Every node of the five-component tree to depth 7, both children.
    level = [load_channel(FIVE).to_explicit()]
    for _ in range(7):
        nxt = []
        for node in level:
            for child in (transform_minus(node), transform_plus(node)):
                assert_same_merge(child, 1e-9)
                nxt.append(merge_outputs(child, 1e-9))
        level = nxt
    assert len(level) == 128


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
def test_merge_rejects_bad_tolerance(tol):
    with pytest.raises(BadToleranceError):
        merge_outputs(identity_mac(2, 2), tol)


def test_merge_infinite_tolerance_merges_all(rng):
    raw = rng.random((4, 7))
    mac = DiscreteMac(2, 2, raw / raw.sum(axis=1, keepdims=True))
    merged = merge_outputs(mac, math.inf)
    assert merged.output_size == 1
    for s in subsets_of(2):
        assert merged.mutual_info(s) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("command", ["construct", "polarize"])
def test_cli_refuses_nan_merge_tol_before_any_transform(tmp_path, monkeypatch,
                                                        capsys, command):
    def forbidden(_):
        raise AssertionError("a transform ran")

    monkeypatch.setattr("macpolar.polarize.transform_minus", forbidden)
    monkeypatch.setattr("macpolar.polarize.transform_plus", forbidden)
    # FIVE is a combination file, which construct polarizes on the lattice.
    monkeypatch.setattr("macpolar.polarize.lattice_levels", forbidden)
    argv = [command, "--channel", FIVE, "--l", "3", "--merge-tol", "nan",
            "--out", str(tmp_path / "out")]
    if command == "construct":
        argv += ["--eps", "0.2", "--z-budget", "1e-3"]
    assert main(argv) == 2
    assert "merge tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_construct_output_is_pinned(tmp_path):
    # sha256 of the depth-6 tight code written by the per-column merge.  The
    # channel is the five-component one as an explicit table: construct on
    # the combination file itself takes the lattice path, which merges
    # nothing.
    explicit = tmp_path / "five_explicit.json"
    explicit.write_text(json.dumps(channel_dict(load_channel(FIVE).to_explicit())))
    out = tmp_path / "code.json"
    assert main(["construct", "--channel", str(explicit), "--l", "6", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(out), "--no-timestamp"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "93ebefd28fd490bdb5a23ca52657e388cef027f291cf563e13614e86e1a587a0")
