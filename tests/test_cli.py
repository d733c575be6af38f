"""Subcommand behavior, file formats, exit codes and reproducibility."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from macpolar import (
    LinearComboMac,
    NonFiniteError,
    ParseError,
    SpecMismatchError,
    Subspace,
    TooLargeError,
)
from macpolar import cli, linear_mac, polarize
from macpolar.cli import _parse_mode, main
from macpolar.jsonio import (
    channel_from_dict,
    load_channel,
    load_codespec,
)
from macpolar.mac import mutual_info
from macpolar.linear_mac import (
    EXTREMAL_TOL,
    binary2_evolve,
    binary2_order,
    binary2_subspaces,
)
from macpolar.subspace import enumerate_subspaces
from conftest import channel_dict, identity_mac, subsets_of
from oracles import codespec_json, dict_levels, projected_dim


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def five_term_file(tmp_path):
    subs = binary2_subspaces()
    combo = LinearComboMac(2, 2, [(0.2, s) for s in subs])
    return write_json(tmp_path / "five.json", channel_dict(combo))


@pytest.fixture
def explicit_file(tmp_path):
    mac = identity_mac(2, 2)
    return write_json(tmp_path / "ident.json", channel_dict(mac))


def test_channel_roundtrip(tmp_path):
    subs = binary2_subspaces()
    combo = LinearComboMac(2, 2, [(0.3, subs[1]), (0.7, subs[3])])
    loaded = channel_from_dict(channel_dict(combo))
    assert isinstance(loaded, LinearComboMac)
    assert loaded.terms == combo.terms

    mac = identity_mac(3, 1)
    loaded = channel_from_dict(channel_dict(mac))
    assert np.array_equal(loaded.table, mac.table)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ParseError, match="line 1"):
        load_channel(str(bad))
    with pytest.raises(ParseError, match="missing field"):
        channel_from_dict({"q": 2})
    with pytest.raises(ParseError, match="rows"):
        channel_from_dict({"q": 2, "m": 1, "rows": [[1.0]]})
    with pytest.raises(ParseError, match="'rows' or 'terms'"):
        channel_from_dict({"q": 2, "m": 1})
    with pytest.raises(ParseError, match="rows"):
        channel_from_dict({"q": 2, "m": 1, "rows": [5, 6]})
    # q = 0 asks for no rows; the field check, not an IndexError, refuses it.
    with pytest.raises(ParseError, match="prime"):
        channel_from_dict({"q": 0, "m": 1, "rows": []})
    with pytest.raises(ParseError, match="'terms' must be a list"):
        channel_from_dict({"q": 2, "m": 2, "terms": 5})
    with pytest.raises(ParseError, match="term 0 needs"):
        channel_from_dict({"q": 2, "m": 2, "terms": [5]})
    with pytest.raises(ParseError, match="term 0"):
        channel_from_dict({"q": 2, "m": 1, "terms": [{"p": "x", "basis": []}]})
    # A basis vector of the wrong length, and a ragged basis.
    with pytest.raises(ParseError, match="term 0: expected vectors of length 1"):
        channel_from_dict({"q": 2, "m": 1, "terms": [{"p": 1, "basis": [[1, 0]]}]})
    with pytest.raises(ParseError, match="term 0"):
        channel_from_dict({"q": 2, "m": 2, "terms": [{"p": 1, "basis": [[1, 0], [1]]}]})


@pytest.mark.parametrize("data", [{"q": 2, "m": 0, "rows": [[1]]},
                                  {"q": 2, "m": -1, "terms": [{"p": 1, "basis": []}]}])
def test_channels_need_a_user(tmp_path, capsys, data):
    with pytest.raises(ParseError, match="m must be at least 1"):
        channel_from_dict(data)
    assert main(["analyze", "--channel", write_json(tmp_path / "c.json", data)]) == 2
    assert "m must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_channel_files_rejected(tmp_path, capsys, value):
    rows = tmp_path / "rows.json"
    rows.write_text('{"q": 2, "m": 1, "rows": [[%s, 1.0], [0.5, 0.5]]}' % value)
    terms = tmp_path / "terms.json"
    terms.write_text('{"q": 2, "m": 1, "terms": [{"p": %s, "basis": []}, '
                     '{"p": 1.0, "basis": [[1]]}]}' % value)
    for path in (rows, terms):
        with pytest.raises(NonFiniteError):
            load_channel(str(path))
        assert main(["analyze", "--channel", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("data, why", [
    ({"q": 2, "m": 1, "rows": [[1.1, -0.1], [0.5, 0.5]]},
     "entry (0, 1) is negative: -0.1"),
    ({"q": 2, "m": 1, "rows": [[0.5, 0.4], [0.5, 0.5]]}, "row 0 sums to 0.9, expected 1"),
    ({"q": 2, "m": 2, "terms": [{"p": 0.0, "basis": [[1, 0]]},
                                {"p": 1.0, "basis": [[0, 1]]}]},
     "{path}: weights must be positive, got 0.0"),
    ({"q": 2, "m": 2, "terms": [{"p": 0.5, "basis": [[1, 0]]},
                                {"p": 0.4, "basis": [[0, 1]]}]},
     "{path}: weights sum to 0.9, expected 1"),
    # Non-finite entries print as Python floats, as the two above do.
    ({"q": 2, "m": 1, "rows": [[float("nan"), 1.0], [0.5, 0.5]]},
     "entry (0, 0) is not finite: nan"),
    ({"q": 2, "m": 1, "rows": [[0.5, 0.5], [float("inf"), 1.0]]},
     "entry (1, 0) is not finite: inf"),
])
def test_bad_probabilities_are_refused_word_for_word(tmp_path, capsys, data, why):
    path = write_json(tmp_path / "c.json", data)
    assert main(["analyze", "--channel", path]) == 2
    printed = capsys.readouterr()
    assert printed.err == "error: " + why.format(path=path) + "\n"
    assert printed.out == ""


def test_analyze_command(five_term_file, tmp_path, capsys):
    out = tmp_path / "analyze.csv"
    code = main(["analyze", "--channel", five_term_file,
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "sum capacity = 1.000000000" in printed
    body = out.read_text()
    assert "mutual_info,1,0.6" in body
    assert "dominant_face" in body


def test_analyze_three_users_writes_no_vertices(tmp_path):
    path = write_json(tmp_path / "gf2_3.json", GENERIC_COMBOS["gf2_3.json"])
    out = tmp_path / "analyze.csv"
    assert main(["analyze", "--channel", path, "--out", str(out),
                 "--no-timestamp"]) == 0
    records = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
    assert records == ["mutual_info"] * 7 + ["sum_capacity"]


def test_analyze_and_polarize_compute_each_information_once(five_term_file,
                                                            monkeypatch):
    calls = []

    def combo_info(self, users, original=LinearComboMac.mutual_info):
        calls.append(users)
        return original(self, users)

    def table_info(channel, users, original=mutual_info):
        # Direction statistics read single-user channels; count the rest.
        if channel.m > 1:
            calls.append(users)
        return original(channel, users)

    monkeypatch.setattr(LinearComboMac, "mutual_info", combo_info)
    assert main(["analyze", "--channel", five_term_file]) == 0
    assert calls == [(1,), (2,), (1, 2)]
    calls.clear()
    monkeypatch.setattr("macpolar.mac.mutual_info", table_info)
    assert main(["polarize", "--channel", five_term_file, "--l", "3"]) == 0
    assert len(calls) == 3 * (2 ** 4 - 1)       # three user sets per node


def test_polarize_command(five_term_file, tmp_path):
    out = tmp_path / "polar.csv"
    assert main(["polarize", "--channel", five_term_file, "--l", "3",
                 "--out", str(out), "--no-timestamp"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config")
    assert any(line.startswith("branch_direction,3,---,") for line in lines)


def test_construct_and_simulate(five_term_file, tmp_path, capsys):
    spec_path = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "4",
                 "--eps", "0.2", "--z-budget", "0.05",
                 "--out", str(spec_path)]) == 0
    spec = load_codespec(str(spec_path))
    assert spec.l == 4
    capsys.readouterr()
    sim_out = tmp_path / "sim.csv"
    assert main(["simulate", "--codespec", str(spec_path),
                 "--channel", five_term_file, "--trials", "50",
                 "--seed", "7", "--out", str(sim_out), "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["trials"] == 50
    assert "bler" in sim_out.read_text().splitlines()[1] or \
        "bler" in sim_out.read_text().splitlines()[2]


def test_evolve_command(five_term_file, tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--channel", five_term_file, "--l", "6",
                 "--mode", "enumerate", "--out", str(out),
                 "--no-timestamp"]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[1].split(",")
    assert header[:6] == ["level", "p0", "p1", "p2", "p3", "p4"]
    assert len(lines) == 2 + 7          # levels 0..6

    assert main(["evolve", "--channel", five_term_file, "--l", "5",
                 "--mode", "sample:200", "--seed", "3",
                 "--out", str(out), "--no-timestamp"]) == 0
    assert "se_p0" in out.read_text().splitlines()[1]

    # With unequal axis weights the 5-state columns must be in component
    # order (p1 is span{(1,0)}), though the library reports lattice order.
    state = [0.1, 0.3, 0.15, 0.25, 0.2]
    combo = LinearComboMac(2, 2, list(zip(state, binary2_subspaces())))
    path = write_json(tmp_path / "skew.json", channel_dict(combo))
    assert main(["evolve", "--channel", path, "--l", "3", "--mode", "sample:50",
                 "--out", str(out), "--no-timestamp"]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in out.read_text().strip().splitlines()[2:]]
    p = rows[0][1:6]
    assert p == pytest.approx(state, abs=1e-15)
    assert rows[0][6:8] == pytest.approx([p[1] + p[3] + p[4], p[2] + p[3] + p[4]],
                                         abs=1e-15)
    stderr = binary2_evolve(state, 3, "sample", 50, 0).final.stderr
    assert rows[3][11:] == [stderr[k] for k in binary2_order()]


def test_evolve_generic_users(tmp_path):
    from macpolar.subspace import Subspace
    combo = LinearComboMac(2, 3, [
        (0.5, Subspace.full(3, 2)),
        (0.5, Subspace.from_vectors([[1, 1, 0]], 3, 2)),
    ])
    path = write_json(tmp_path / "m3.json", channel_dict(combo))
    out = tmp_path / "m3.csv"
    assert main(["evolve", "--channel", path, "--l", "3",
                 "--out", str(out), "--no-timestamp"]) == 0
    assert "i_avg" in out.read_text().splitlines()[1]


def test_probe_conjectures(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    code = main(["probe-conjectures", "--grid", "step:3", "--l", "8",
                 "--q", "2", "--m", "2", "--users", "1",
                 "--max-family", "2", "--out", str(out), "--no-timestamp"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "evidence, not proof" in printed
    assert "min averaged p3" in printed
    assert "witness probe" in printed


def test_probe_no_dominant_states(tmp_path, capsys):
    grid = write_json(tmp_path / "grid.json",
                      [[0.0, 0.5, 0.3, 0.1, 0.1]])
    assert main(["probe-conjectures", "--grid", grid, "--l", "6"]) == 0
    assert "no instances" in capsys.readouterr().out


@pytest.mark.parametrize("rows", [[[0.5, 0.5]], [0.5], [[0.1] * 6],
                                  [[0.2, 0.2, 0.2, 0.2, "x"]],
                                  [[0.2, 0.2, 0.2, 0.2, None]]])
def test_probe_refuses_malformed_grid_rows(tmp_path, capsys, rows):
    grid = write_json(tmp_path / "grid.json", [[0.0, 0.5, 0.3, 0.1, 0.1], *rows])
    assert main(["probe-conjectures", "--grid", grid, "--l", "6"]) == 2
    assert "list of 5 numbers" in capsys.readouterr().err


@pytest.mark.parametrize("state", [[0.5, 0.5, 0.5, 0.1, -0.6], [0.1, 0.1, 0.1, 0.9, 0.1],
                                   [float("nan"), 0.25, 0.25, 0.25, 0.25]])
def test_probe_refuses_grid_states_that_are_not_distributions(tmp_path, capsys, state):
    # The first is accepted by the dominance test as it stands, the second
    # would reach the evolution; each is refused by name before any output.
    grid = write_json(tmp_path / "grid.json", [[0.0, 0.5, 0.3, 0.1, 0.1], state])
    assert main(["probe-conjectures", "--grid", grid, "--l", "2"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {grid}: state 1 is not a probability vector: {state}\n"


@pytest.mark.parametrize("entry", ["0.2", True, pytest.param(10 ** 400, id="10**400")])
def test_grid_entries_must_be_json_numbers(tmp_path, capsys, entry):
    # Channel and spec files refuse strings and booleans in number fields,
    # and integers past the float range; so do grid files, where float()
    # read the first two as 0.2 and 1.0 and the third raised OverflowError.
    state = [0.2, 0.2, 0.2, 0.2, 0.2] if entry == "0.2" else [0.0, 0.0, 0.0, 0.0, 0.0]
    state[3] = entry
    grid = write_json(tmp_path / "grid.json", [state])
    assert main(["probe-conjectures", "--grid", grid, "--l", "2"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {grid}: every state must be a list of 5 numbers\n"


@pytest.mark.parametrize("data", [{"a": 1}, []], ids=["object", "empty"])
def test_grid_file_of_no_states_is_refused_by_name(tmp_path, capsys, data):
    grid = write_json(tmp_path / "grid.json", data)
    assert main(["probe-conjectures", "--grid", grid, "--l", "2"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == (f"error: {grid}: grid file must be a non-empty "
                           "JSON list of states\n")


def test_integer_grid_entries_are_numbers(tmp_path, monkeypatch, capsys):
    # JSON integers stay legal and read as the floats they equal.
    written = []
    for name, state in [("ints", [0, 0, 0, 1, 0]), ("floats", [0.0, 0.0, 0.0, 1.0, 0.0])]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        write_json(tmp_path / name / "grid.json", [state])
        assert main(["probe-conjectures", "--grid", "grid.json", "--l", "2",
                     "--out", "out.csv", "--no-timestamp"]) == 0
        written.append(((tmp_path / name / "out.csv").read_bytes(), capsys.readouterr()))
    assert written[0] == written[1]
    assert b"total_loss" in written[0][0]


@pytest.mark.parametrize("argv", [[], ["--grid", "step:0"], ["--grid", "step:x"],
                                  ["--grid", "missing.json"]])
def test_refused_probes_print_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["probe-conjectures", "--l", "2", *argv]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ")


def test_a_probe_refused_mid_walk_prints_nothing(capsys):
    # The grid probe's depth-60 walk passes the expanded-state bound after
    # the probe has started; its stdout lines wait for both probes.
    assert main(["probe-conjectures", "--grid", "step:2", "--l", "60"]) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert "2^20 - 1 states" in printed.err


def test_witness_line_names_the_validated_users(tmp_path, monkeypatch, capsys):
    # The probe computes with the users as a sorted set, and says so: a
    # repeated or unsorted list prints and writes what the canonical one
    # does.  The config echo keeps the text as written.
    monkeypatch.chdir(tmp_path)
    runs = []
    for users in ("2,1,1", "1,2"):
        assert main(["probe-conjectures", "--q", "2", "--m", "3", "--users", users,
                     "--out", f"{users}.csv", "--no-timestamp"]) == 0
        runs.append((capsys.readouterr().out, read_rows(f"{users}.csv")))
    assert runs[0] == runs[1]
    assert "w.r.t. users (1, 2):" in runs[0][0]
    assert '"users": "2,1,1"' in (tmp_path / "2,1,1.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("patch", [{"q": 2.6}, {"m": 2.9},
                                   {"terms": [{"p": 1.0, "basis": [[1.5, 1]]}]},
                                   {"m": True, "terms": [{"p": 1.0, "basis": [[1]]}]},
                                   {"q": "2"},
                                   {"terms": [{"p": 1.0, "basis": [[True, 1]]}]}])
def test_fractional_channel_fields_are_refused(tmp_path, capsys, patch):
    # int() would run these as q=2, m=2 and the basis [1, 1]; a boolean or
    # a string is no integer either.
    data = {"q": 2, "m": 2, "terms": [{"p": 1.0, "basis": [[1, 1]]}], **patch}
    with pytest.raises(ParseError):
        channel_from_dict(data)
    assert main(["analyze", "--channel", write_json(tmp_path / "c.json", data)]) == 2
    assert "error" in capsys.readouterr().err
    # An integral float is an integer.
    data = {"q": 2.0, "m": 2, "terms": [{"p": 1.0, "basis": [[1.0, 1]]}]}
    assert channel_from_dict(data).terms == channel_from_dict(
        {"q": 2, "m": 2, "terms": [{"p": 1.0, "basis": [[1, 1]]}]}).terms


def set_last(column, value):
    """A patch that sets the last entry of a code-spec column."""
    return lambda d: d[column].__setitem__(-1, value)


@pytest.mark.parametrize("patch", [
    lambda d: d.update(q=2.6),
    lambda d: d.update(l=1.5),
    lambda d: d["shapes"][-1].update(a_columns=[[1.7, 1.2]]),
    lambda d: d["shapes"][-1].update(frozen=[0.5, 1]),
    # Booleans and strings are no integers either.
    lambda d: d["shapes"][-1].update(r=True),
    lambda d: d["shapes"][-1].update(frozen=[True, 1]),
    lambda d: d["shapes"][-1].update(s_users=[True]),
    lambda d: d["shapes"][-1].update(a_columns=[[True, 0]]),
    lambda d: d["shapes"][-1].update(frozen="11"),
    lambda d: d.update(m=True),
    set_last("shape_index", 0.5),
    set_last("shape_index", True),
    set_last("shape_index", "0"),
])
def test_fractional_codespec_fields_are_refused(five_term_file, tmp_path, capsys, patch):
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    data = json.loads(spec.read_text())
    patch(data)
    bad = write_json(tmp_path / "bad.json", data)
    with pytest.raises(ParseError, match="not an integer"):
        load_codespec(bad)
    assert main(["simulate", "--codespec", bad, "--channel", five_term_file,
                 "--trials", "2", "--seed", "1"]) == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("patch, why", [
    (lambda d: d["shapes"][-1].update(a_columns=5), "'int' object is not iterable"),
    (lambda d: d["shapes"][-1].update(a_columns=["ab"]), "'ab' is not an integer list"),
    (lambda d: d.update(shape_index="0"), "'0' is not an integer list"),
    (set_last("shape_index", 10 ** 30), "Python int too large to convert to C long"),
])
def test_malformed_integer_columns_are_refused_word_for_word(five_term_file, tmp_path,
                                                              patch, why):
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    data = json.loads(spec.read_text())
    patch(data)
    bad = write_json(tmp_path / "bad.json", data)
    with pytest.raises(ParseError) as exc:
        load_codespec(bad)
    assert str(exc.value) == f"{bad}: bad code spec: {why}"


@pytest.mark.parametrize("patch", [
    lambda d: d.update(eps=True),
    lambda d: d.update(z_budget="0.001"),
    lambda d: d.update(merge_tol=str(d["merge_tol"])),
    lambda d: d.update(sum_rate=str(d["sum_rate"])),
    lambda d: d.update(union_bound=str(d["union_bound"])),
    lambda d: d.update(rate_vector=[str(r) for r in d["rate_vector"]]),
    set_last("z_sum", "nan"),
    lambda d: d["i_branch"].append(str(d["i_branch"].pop())),
    set_last("i_detected", True),
])
def test_non_numeric_codespec_fields_are_refused(five_term_file, tmp_path, capsys, patch):
    # float() would read each of these, as 1.0 for true.
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    data = json.loads(spec.read_text())
    patch(data)
    bad = write_json(tmp_path / "bad.json", data)
    with pytest.raises(ParseError, match="not a number"):
        load_codespec(bad)
    assert main(["simulate", "--codespec", bad, "--channel", five_term_file,
                 "--trials", "2", "--seed", "1"]) == 2
    assert "not a number" in capsys.readouterr().err


@pytest.mark.parametrize("data, why", [
    ({"q": 2, "m": 2, "terms": [{"p": "0.5", "basis": [[1, 0]]},
                                {"p": 0.5, "basis": [[0, 1]]}]}, "not a number"),
    ({"q": 2, "m": 2, "terms": [{"p": True, "basis": [[1, 1]]}]}, "not a number"),
    ({"q": 2, "m": 1, "rows": [[True, 0.0], [0.0, 1.0]]}, "not a number"),
    ({"q": 2, "m": 1, "rows": [["0.5", 0.5], [0.5, 0.5]]}, "not a number"),
    ({"q": 2, "m": 1, "outputs": True, "rows": [[1.0], [1.0]]}, "not an integer"),
])
def test_non_numeric_channel_fields_are_refused(tmp_path, capsys, data, why):
    # float() would read each weight and table entry, and `outputs` true
    # passed as 1.
    with pytest.raises(ParseError, match=why):
        channel_from_dict(data)
    assert main(["analyze", "--channel", write_json(tmp_path / "c.json", data)]) == 2
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "no", 1.5, [], 0])
def test_non_boolean_in_good_set_is_refused(five_term_file, tmp_path, capsys, value):
    # bool() would read each of these on a frozen shape, and a frozen
    # shape with no information users passes every other check.
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    data = json.loads(spec.read_text())
    outside = [s for s in data["shapes"] if s["in_good_set"] is False]
    assert outside
    outside[0]["in_good_set"] = value
    bad = write_json(tmp_path / "bad.json", data)
    with pytest.raises(ParseError, match="is not a boolean"):
        load_codespec(bad)
    assert main(["simulate", "--codespec", bad, "--channel", five_term_file,
                 "--trials", "2", "--seed", "1"]) == 2
    assert "is not a boolean" in capsys.readouterr().err


def test_negative_depth_in_a_spec_file_is_refused(five_term_file, tmp_path, capsys):
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", five_term_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    bad = write_json(tmp_path / "bad.json", {**json.loads(spec.read_text()), "l": -1})
    with pytest.raises(ParseError, match="l=-1 is negative"):
        load_codespec(bad)
    assert main(["simulate", "--codespec", bad, "--channel", five_term_file,
                 "--trials", "2", "--seed", "1"]) == 2
    assert "l=-1 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [10 ** 30, -10 ** 30])
def test_spec_entries_past_int64_are_refused(explicit_file, tmp_path, capsys, entry):
    # The reader takes any integer; `check` must refuse one outside 0..q-1
    # before it builds an int64 array, not die with an OverflowError.
    spec = tmp_path / "code.json"
    assert main(["construct", "--channel", explicit_file, "--l", "1", "--eps", "0.2",
                 "--z-budget", "1e-3", "--out", str(spec), "--no-timestamp"]) == 0
    data = json.loads(spec.read_text())
    good = [s for s in data["shapes"] if s["in_good_set"]]
    assert good
    good[0]["a_columns"][0][-1] = entry
    bad = write_json(tmp_path / "bad.json", data)
    with pytest.raises(SpecMismatchError, match="have entries outside 0..1"):
        load_codespec(bad)
    assert main(["simulate", "--codespec", bad, "--channel", explicit_file,
                 "--trials", "2", "--seed", "1"]) == 2
    assert "have entries outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"q": 2, "m": 2, "terms": [{"p": 1, "basis": [[10 ** 30, 1]]}]},
    {"q": 2, "m": 2, "terms": [{"p": 1, "basis": [[1, -10 ** 30]]}]},
    {"q": 2, "m": 1, "terms": [{"p": 10 ** 400, "basis": [[1]]}]},
    {"q": 2, "m": 1, "rows": [[10 ** 400, 0], [0.5, 0.5]]},
])
def test_channel_integers_past_the_machine_range_are_parse_errors(tmp_path, capsys, data):
    with pytest.raises(ParseError, match="too large"):
        channel_from_dict(data)
    assert main(["analyze", "--channel", write_json(tmp_path / "c.json", data)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"q": 2, "m": 100000000, "rows": [[1.0]]},
    {"q": 2, "m": 10 ** 30, "rows": [[1.0]]},
    {"q": 10 ** 600, "m": 20, "rows": [[1.0], [1.0]]},
])
def test_rows_files_asking_for_huge_tables_are_refused_at_once(tmp_path, capsys, data):
    # q^m would have millions of digits, or more than fit in memory: the
    # count is refused before q^m is formed.
    path = write_json(tmp_path / "c.json", data)
    start = time.perf_counter()
    assert main(["analyze", "--channel", path]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"m = {data['m']} asks for q^m rows" in err
    assert f"more than the {len(data['rows'])} given" in err


@pytest.mark.parametrize("argv", [
    ["polarize", "--channel", "c.json"],
    ["construct", "--channel", "c.json", "--eps", "0.2", "--z-budget", "1e-3"],
    ["evolve", "--channel", "c.json"],
    ["probe-conjectures", "--grid", "step:2"],
])
def test_negative_depth_is_refused(capsys, argv):
    # One argument type serves every --l: a usage error (exit 2) that names
    # the option, before any file is read.
    for depth in ("-1", "-2", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--l", depth])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --l: '{depth}' is not a non-negative integer" in err
        assert "Traceback" not in err


def test_exit_codes(tmp_path, five_term_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", "--channel", str(bad)]) == 2
    assert main(["analyze", "--channel", str(tmp_path / "missing.json")]) == 2
    # probe with nothing configured is a config error
    assert main(["probe-conjectures"]) == 2
    # size caps map to exit 3
    assert main(["polarize", "--channel", five_term_file, "--l", "3",
                 "--max-outputs", "2"]) == 3
    assert main(["evolve", "--channel", five_term_file, "--l", "25",
                 "--mode", "enumerate"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("name", ["five", "gf3_2.json"])
def test_evolve_refuses_by_expanded_states(tmp_path, five_term_file, capsys, name):
    # The bound is on the states the walk expands, 2^20 - 1, not on the
    # depth: depth 60 is refused mid-walk, on (2,2) and on GF(3)^2 alike.
    path = five_term_file if name == "five" else write_json(tmp_path / name,
                                                             GENERIC_COMBOS[name])
    assert main(["evolve", "--channel", path, "--l", "60"]) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("error: enumeration to depth 60 expands more than "
                           "2^20 - 1 states\n")


def test_probe_beyond_the_lattice_cap_exits_3(capsys):
    # GF(2)^6 has 2825 subspaces, past LATTICE_CAP: the probe refuses at
    # once, as evolve and construct do on that space.
    start = time.perf_counter()
    assert main(["probe-conjectures", "--q", "2", "--m", "6", "--users", "1,2",
                 "--max-family", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "lattice cap" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--m", "-1"), ("--m", "0"), ("--max-family", "0"), ("--max-family", "-1"),
])
def test_probe_sizes_below_one_are_usage_errors(capsys, option, value):
    argv = {"--q": "2", "--m": "2", "--users": "1", "--max-family": "2"}
    argv[option] = value
    with pytest.raises(SystemExit) as exc:
        main(["probe-conjectures", *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: '{value}' is not a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, why", [
    (["--q", "2", "--m", "3"], "needs --users"),
    (["--users", "1"], "needs --q and --m"),
    (["--q", "0", "--m", "2", "--users", "1"], "q must be a prime number, got 0"),
    (["--q", "2", "--m", "2", "--users", "5"], "indices [5] out of range 1..2"),
])
def test_partial_or_bad_witness_probes_are_refused(capsys, argv, why):
    # A grid probe beside it does not hide the witness probe's options,
    # and is refused with it before it prints anything.
    assert main(["probe-conjectures", "--grid", "step:2", "--l", "2", *argv]) == 2
    printed = capsys.readouterr()
    assert why in printed.err
    assert printed.out == ""


@pytest.mark.parametrize("value", ["", "1,,2", "a", "1,"])
def test_bad_users_lists_are_usage_errors(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["probe-conjectures", "--q", "2", "--m", "2", "--users", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --users: {value!r} is not a comma-separated list of integers" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", [["polarize"], ["construct", "--eps", "0.2",
                                                    "--z-budget", "1e-3"]])
def test_max_outputs_below_one_is_a_usage_error(five_term_file, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--channel", five_term_file, "--l", "2", "--max-outputs", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --max-outputs: '{value}' is not a positive integer" in err


@pytest.mark.parametrize("argv, option, value, words", [
    (["evolve", "--channel", "c.json", "--l", "2"], "--seed", "-1", "non-negative"),
    (["evolve", "--channel", "c.json", "--l", "2", "--mode", "sample:4"], "--seed", "-2",
     "non-negative"),
    (["evolve", "--channel", "c.json", "--l", "2"], "--seed", "x", "non-negative"),
    (["simulate", "--codespec", "s.json", "--channel", "c.json", "--trials", "2"],
     "--seed", "-3", "non-negative"),
    (["simulate", "--codespec", "s.json", "--channel", "c.json"], "--trials", "0",
     "positive"),
    (["simulate", "--codespec", "s.json", "--channel", "c.json"], "--trials", "-1",
     "positive"),
])
def test_bad_seeds_and_trial_counts_are_usage_errors(capsys, argv, option, value, words):
    # Refused by name before any file is read.
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: '{value}' is not a {words} integer" in err


def test_evolve_over_gf101(tmp_path, capsys):
    # 104 subspaces over 10201 inputs: the lattice is built from its
    # membership rows, without a table over pairs of inputs.
    subs = [Subspace.zero(2, 101), Subspace.from_vectors([[1, 0]], 2, 101),
            Subspace.from_vectors([[1, 5]], 2, 101), Subspace.full(2, 101)]
    path = write_json(tmp_path / "gf101.json",
                      channel_dict(LinearComboMac(101, 2, [(0.25, s) for s in subs])))
    out = tmp_path / "out.csv"
    assert main(["evolve", "--channel", path, "--l", "6", "--out", str(out),
                 "--no-timestamp"]) == 0
    assert "evolved to depth 6" in capsys.readouterr().out
    assert out.exists()


def test_analyze_past_the_user_cap_exits_3(tmp_path, capsys):
    # 17 users have 131071 subsets, one past the cap: analyze refuses at
    # once instead of listing them.
    path = write_json(tmp_path / "m17.json",
                      {"q": 2, "m": 17, "terms": [{"p": 1.0, "basis": []}]})
    start = time.perf_counter()
    assert main(["analyze", "--channel", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "cap of m=16" in capsys.readouterr().err


def test_out_of_memory_exits_3(explicit_file, tmp_path, monkeypatch, capsys):
    # An explicit-table file: construct on a linear-combination file runs
    # no transform.
    def refuse(channel):
        raise MemoryError("Unable to allocate 235. GiB for an array")

    monkeypatch.setattr(polarize, "transform_minus", refuse)
    assert main(["construct", "--channel", explicit_file, "--l", "2",
                 "--eps", "0.2", "--z-budget", "1e-3",
                 "--out", str(tmp_path / "code.json")]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 235. GiB for an array\n"


def test_byte_reproducibility(five_term_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["polarize", "--channel", five_term_file, "--l", "2",
                     "--out", str(out), "--no-timestamp"]) == 0
    # config echo contains the out path; normalize it before comparing
    ta = a.read_text().replace(str(a), "OUT")
    tb = b.read_text().replace(str(b), "OUT")
    assert ta == tb


def test_timestamp_toggle(five_term_file, tmp_path):
    out = tmp_path / "t.csv"
    main(["analyze", "--channel", five_term_file, "--out", str(out)])
    assert out.read_text().startswith("# generated:")
    main(["analyze", "--channel", five_term_file, "--out", str(out),
          "--no-timestamp"])
    assert out.read_text().startswith("# config:")


DEMO_CHANNELS = Path(__file__).resolve().parents[1] / "demos" / "channels"
GENERIC_COMBOS = {
    "gf2_3.json": {"q": 2, "m": 3, "terms": [
        {"p": 0.3, "basis": [[1, 0, 0]]},
        {"p": 0.25, "basis": [[0, 1, 1], [1, 0, 0]]},
        {"p": 0.15, "basis": []},
        {"p": 0.3, "basis": [[1, 1, 1]]}]},
    "gf3_2.json": {"q": 3, "m": 2, "terms": [
        {"p": 0.4, "basis": [[1, 2]]},
        {"p": 0.2, "basis": [[1, 0]]},
        {"p": 0.25, "basis": [[1, 0], [0, 1]]},
        {"p": 0.15, "basis": []}]},
    "gf2_5.json": {"q": 2, "m": 5, "terms": [
        {"p": 0.6, "basis": [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]]},
        {"p": 0.4, "basis": [[1, 1, 1, 0, 1]]}]},
}


@pytest.mark.parametrize("argv, digest", [
    (["polarize", "--channel", "five_component.json", "--l", "3"],
     "bc3f326eac9d56a2234be6828490e219f348fdb0b04fa9ed140ef50d9acb5bde"),
    (["evolve", "--channel", "gf2_3.json", "--l", "3"],
     "f7a4ef337091dac7a104a54f32711fb1cafd14df30dd241a907ad4746e0a0d8b"),
    (["evolve", "--channel", "gf3_2.json", "--l", "3"],
     "1e3c835a48b19e8c000dd30e33b0c362e825d1db6429d283fe670196c3c6dde7"),
    (["analyze", "--channel", "five_component.json"],
     "a52fb33de2b54680712a6c62e6b7bc6f36213f39918ea8208a6c392029cdfd0b"),
    (["analyze", "--channel", "random_ternary.json"],
     "ca8fb0ad204f27f80e51e11ce708308c1638b7f5dcb8497d945baf6d24a5a04a"),
    (["evolve", "--channel", "five_component.json", "--l", "6"],
     "b35229390bce9543daf8d7bb5ca19870ce54be4459ee5f19741c736226e440b2"),
    (["evolve", "--channel", "five_component.json", "--l", "5",
      "--mode", "sample:200", "--seed", "3"],
     "27fe340d59764d1d67c98f812ff0953c5df233025f41a321fe9bc93810b642dd"),
    (["construct", "--channel", "five_component.json", "--l", "6",
      "--eps", "0.2", "--z-budget", "1e-3"],
     "832d48572ca7fb16b18b6bbee388af79e5307b41b3584f8f123383bb67200b9e"),
    (["construct", "--channel", "gf3_2.json", "--l", "3",
      "--eps", "0.2", "--z-budget", "0.1"],
     "8c16ddf1d3e6950f1f85b2c068c1b19a27bb03c93d1e332ea1f9f393a4be3569"),
    (["construct", "--channel", "gf2_3.json", "--l", "3",
      "--eps", "0.2", "--z-budget", "0.1"],
     "0815286b54e71c641d5d87654a3e5c73c422e6294c0e26523516908897a4aa32"),
    (["construct", "--channel", "random_ternary.json", "--l", "1",
      "--eps", "0.2", "--z-budget", "0.1"],
     "54f91a37bc5cf8d62d0c29e0a5a8afc2b199f1982f28747dfe14543c29ad1ec8"),
    (["evolve", "--channel", "gf2_5.json", "--l", "3"],
     "6d0451c876187826000ea807b6d08506fbb001e00bf45446181bab13c28c5134"),
    (["evolve", "--channel", "five_component.json", "--l", "20"],
     "87f6653ff22726a73d64fc7898105fd35107add78af55367c7bb2e64dd1297a2"),
    (["construct", "--channel", "five_component.json", "--l", "14",
      "--eps", "0.2", "--z-budget", "1e-3"],
     "1ca705f5789ecb6b9b0cce59462da1db28e4cd282c545b79aea2284659a65c22"),
])
def test_outputs_are_pinned(tmp_path, monkeypatch, argv, digest):
    # sha256 values written by the separate tree walks the one walker
    # replaced; the two generic `evolve` digests were re-pinned when the
    # lattice engine took over, after test_generic_evolve_matches_dict_oracle
    # bounded the change at depths 0..6.  The two five-component `evolve`
    # digests were written while (2,2) kept its own evolution loop and
    # hand-written information formulas.  The GF(2)^5 `evolve` digest, over
    # all 31 user sets, was written while projection tables were built by
    # row reduction.  The five-component `evolve --l 20` and `construct
    # --l 14` digests reach blocks wider than NARROW_WIDTH, split levels and
    # settled states; they were written while the wide-block pair loop added
    # every product to a zero-filled row.  The other four `construct` digests are
    # of code specs (written to out.csv), on the lattice path and, for
    # random_ternary, the explicit path.  They were pinned on the per-branch
    # file, `json.dumps(..., indent=1)` of one object per branch; the file
    # is columnar now, so each is hashed over that per-branch text rebuilt
    # from the loaded file by `oracles.codespec_json`.  Paths are relative,
    # so the config echo does not depend on where the test runs.
    monkeypatch.chdir(tmp_path)
    for name in ("five_component.json", "random_ternary.json"):
        shutil.copy(DEMO_CHANNELS / name, name)
    for name, data in GENERIC_COMBOS.items():
        write_json(tmp_path / name, data)
    assert main(argv + ["--out", "out.csv", "--no-timestamp"]) == 0
    if argv[0] == "construct":
        text = (codespec_json(load_codespec("out.csv")) + "\n").encode()
    else:
        text = (tmp_path / "out.csv").read_bytes()
    got = hashlib.sha256(text).hexdigest()
    assert got == digest, f"{' '.join(argv)}: {got}"


def test_columnar_construct_output_is_pinned(tmp_path, monkeypatch):
    # sha256 of the columnar file itself, for the five-component code at
    # l=6 whose per-branch text `test_outputs_are_pinned` pins.
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_CHANNELS / "five_component.json", "five_component.json")
    assert main(["construct", "--channel", "five_component.json", "--l", "6",
                 "--eps", "0.2", "--z-budget", "1e-3", "--out", "code.json",
                 "--no-timestamp"]) == 0
    got = hashlib.sha256((tmp_path / "code.json").read_bytes()).hexdigest()
    assert got == "7b7afd163d35b1d4b754353e8d63d13a770cb7b741659a29063ab28924950fb4", got


@pytest.mark.parametrize("channel, z_budget, trials, seed, csv_digest, json_digest", [
    ("five_component.json", "1e-3", "2000", "5",
     "4df04c6cba45f2bcc8834634ac932d9db31b62f7c28d919d7141e8ccfbe516d2",
     "10a6c726d3e20978973193e39bfb329c4ff58581a320e508c0b7d140c941081f"),
    ("parity_revealer.json", "1e-9", "200", "6",
     "21963e5ed1e55f17758316c6585dde63e0f20e09a1656c3877c3a36f7bd6735e",
     "ec5d3f457acc9203aebd8e06f84abde27f76dc62ab14dd8f49bd83a6d7cd3fcf"),
])
def test_simulate_outputs_are_pinned(tmp_path, monkeypatch, capsys, channel,
                                     z_budget, trials, seed, csv_digest,
                                     json_digest):
    # sha256 of the CSV and of the printed report, written when each run
    # took its draws from one message stream and one channel stream: the
    # same seed must give the same symbol draws, channel outputs and error
    # counts.  Paths are relative.
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_CHANNELS / channel, channel)
    assert main(["construct", "--channel", channel, "--l", "6", "--eps", "0.2",
                 "--z-budget", z_budget, "--out", "code.json"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--codespec", "code.json", "--channel", channel,
                 "--trials", trials, "--seed", seed, "--out", "out.csv",
                 "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == (csv_digest, json_digest), f"{channel}: {got}"


def test_simulate_on_the_float_decoder_is_pinned(tmp_path, monkeypatch, capsys):
    # The five-component code sent through the five-component table mixed
    # with a uniform 0.1: no column is constant on an affine support, so
    # the float decoder runs.  sha256 of the CSV and of the printed report,
    # written when each run took its draws from one message stream and one
    # channel stream.  Paths are relative.
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_CHANNELS / "five_component.json", "five_component.json")
    five = load_channel("five_component.json").to_explicit()
    write_json(tmp_path / "noisy.json", {
        "q": 2, "m": 2, "outputs": five.output_size,
        "rows": (0.9 * five.table + 0.1 / five.output_size).tolist()})
    assert main(["construct", "--channel", "five_component.json", "--l", "6",
                 "--eps", "0.2", "--z-budget", "1e-3", "--out", "code.json"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--codespec", "code.json", "--channel", "noisy.json",
                 "--trials", "200", "--seed", "5", "--out", "out.csv",
                 "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    assert '"errors": 16,' in printed
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == ("ca53b797afdf81c6949e5b9e9a2af10705f503b57812247b70e2afb2fc53b858",
                   "6dd2c353c9217c8b5c66c0a2583b279214c9f8a3f27d2abcfb66495d382b7f20")


@pytest.mark.parametrize("argv, counts, csv_digest, stdout_digest", [
    (["--q", "2", "--m", "3", "--users", "1,2", "--max-family", "3"], (696, 445, 0),
     "6388521fe9ed7f815052db8446e12a857a4c33f6755b3bf2f90afbbe3caed669",
     "6c69cacaafe77ae899a8df6d75e42c0821c600a44ac1eeb04a47381182a551c1"),
    (["--q", "3", "--m", "3", "--users", "1", "--max-family", "2"], (406, 286, 0),
     "7b146a4da07e7c4b774d59c07aa92369546e661f7e3b5d1c1bb6a14908cc89c8",
     "ce2340fcd0a7a6f033ba0df5eeab17a6f8196bdbbf2c998582a948b8d84c3e6d"),
    (["--q", "2", "--m", "3", "--users", "1,2", "--max-family", "2"], (136, 115, 0),
     "c2638ef9f62c72539b8af1a21c7e9cb3b2c32f0bddcbf9a030f56b1fb9d5ad67",
     "a0b41d37d989d5aec5b7c438d9b58b45ae8cf3a7a1685a24b16ed64a66da4079"),
    (["--q", "2", "--m", "4", "--users", "1,2", "--max-family", "2"], (2278, 1537, 0),
     "803931a5a272945eab29ccaeac0e259f5e5b88ace899955dc29094f61577f3e9",
     "10e0e2ecfff117c887acb198f61ec40843c5d941f2684cf4567541ed6a5782b7"),
])
def test_probe_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv, counts,
                                  csv_digest, stdout_digest):
    # Written by the witness probe on the null-space subspace calculus:
    # families scanned, consistent families with a witness, and without.
    # The GF(2)^4 row was written by the per-family probe on the lattice
    # tables, before families were checked in batches.  Paths are relative.
    monkeypatch.chdir(tmp_path)
    assert main(["probe-conjectures", *argv, "--out", "out.csv", "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    found = re.search(r"scanned (\d+) families .*: (\d+) consistent families "
                      r"have a witness, (\d+) lack one", printed)
    assert tuple(int(x) for x in found.groups()) == counts
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == (csv_digest, stdout_digest), f"{' '.join(argv)}: {got}"


def test_probe_in_small_batches_writes_the_pinned_files(tmp_path, monkeypatch, capsys):
    # Seven families per kernel call and per slice: the GF(2)^3
    # max-family-3 probe of test_probe_outputs_are_pinned comes out the same.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "BLOCK_FLOATS", 7)
    monkeypatch.setattr(linear_mac, "BLOCK_FLOATS", 7)
    assert main(["probe-conjectures", "--q", "2", "--m", "3", "--users", "1,2",
                 "--max-family", "3", "--out", "out.csv", "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == ("6388521fe9ed7f815052db8446e12a857a4c33f6755b3bf2f90afbbe3caed669",
                   "6c69cacaafe77ae899a8df6d75e42c0821c600a44ac1eeb04a47381182a551c1")


def test_grid_probe_is_pinned(tmp_path, monkeypatch, capsys):
    # Written while the (2,2) evolution kept its own 5-state loop and
    # hand-written information formulas.  The CSV digest was re-pinned when
    # exact enumeration began to count settled states instead of expanding
    # them, after test_level_sums_match_the_full_walk bounded the change:
    # three of the eight p3 cells, whose exact values are 2/3, 2/3 and 1/3,
    # moved by one ulp (0.6666666666666666 to ...67 twice, and
    # 0.33333333333333337 to 0.3333333333333333).  The printed report is
    # unchanged.  Paths are relative.
    monkeypatch.chdir(tmp_path)
    assert main(["probe-conjectures", "--grid", "step:3", "--l", "8",
                 "--out", "out.csv", "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == ("59bb11c7d4049a7a43f124aa101d4c2f128744cb48cd25b4157c2fea560993e7",
                   "4f6a25b16258983fb53d5c0a3d1ec3ebcee781a95caf283203c0b239e65f56af")


@pytest.mark.parametrize("mode", ["sample:1", "sample:0", "sample:-3", "sample:x",
                                  "sample:", "bogus"])
def test_bad_mode_is_a_parse_error(five_term_file, mode, capsys):
    with pytest.raises(ParseError):
        _parse_mode(mode)
    assert main(["evolve", "--channel", five_term_file, "--l", "3",
                 "--mode", mode]) == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["gf3_2.json", "gf2_3.json"])
def test_generic_sample_mode_writes_the_generic_columns(tmp_path, monkeypatch, capsys,
                                                         name):
    # Sampling runs on every shape: the columns of the enumerate run, the
    # library's numbers, the same bytes for the same seed, and the root's
    # level-0 rows.  Paths are relative, so two runs' config echoes agree.
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / name, GENERIC_COMBOS[name])
    written = []
    for mode in ("sample:40", "sample:40", "enumerate"):
        assert main(["evolve", "--channel", name, "--l", "5", "--mode", mode,
                     "--seed", "7", "--out", "out.csv", "--no-timestamp"]) == 0
        written.append((tmp_path / "out.csv").read_text())
    assert written[0] == written[1]
    assert written[0].splitlines()[1] == "level,users,i_avg,extremal_fraction"
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["evolved to depth 5: 40 sampled paths"] * 2 + [
        "evolved to depth 5: 32 branch channels"]
    combo = load_channel(name)
    want = [[str(lv.level), ";".join(map(str, s)), repr(i), repr(lv.extremal_fraction)]
            for lv in linear_mac.evolve(combo, 5, "sample", 40, 7).levels
            for s, i in zip(subsets_of(combo.m), lv.info)]
    sampled, enumerated = ([line.split(",") for line in text.splitlines()[2:]]
                           for text in written[1:])
    assert sampled == want
    level0 = len(subsets_of(combo.m))
    assert sampled[:level0] == enumerated[:level0]


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    return [line.split(",") for line in lines[2:]]


def dict_evolve_rows(combo, depth):
    """The rows `macpolar evolve` writes for a channel other than q=2, m=2,
    from the dict oracle: per level, the mean over branches of I[S] and
    the share of branches with a weight of at least 1 - EXTREMAL_TOL."""
    subsets = subsets_of(combo.m)
    pdim = {}
    rows = []
    for lvl, level in enumerate(dict_levels(combo, depth)):
        extremal = float(np.mean([max(c.values()) >= 1 - EXTREMAL_TOL for c in level]))
        for s in subsets:
            infos = []
            for c in level:
                for v in c:
                    if (v, s) not in pdim:
                        pdim[v, s] = projected_dim(v, s, combo.q)
                infos.append(sum(w * pdim[v, s] for v, w in c.items()))
            rows.append((lvl, ";".join(map(str, s)), float(np.mean(infos)), extremal))
    return rows


def assert_rows_match(got, want, tol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (int(g[0]), g[1]) == w[:2]
        assert abs(float(g[2]) - w[2]) <= tol and abs(float(g[3]) - w[3]) <= tol, g


@pytest.mark.parametrize("name", sorted(GENERIC_COMBOS))
def test_generic_evolve_matches_dict_oracle(tmp_path, name):
    path = write_json(tmp_path / name, GENERIC_COMBOS[name])
    combo = load_channel(path)
    want = dict_evolve_rows(combo, 6)
    for depth in range(7):
        out = tmp_path / f"l{depth}.csv"
        assert main(["evolve", "--channel", path, "--l", str(depth),
                     "--out", str(out), "--no-timestamp"]) == 0
        assert_rows_match(read_rows(out), want[:len(subsets_of(combo.m)) * (depth + 1)])


def test_uniform_gf2_3_evolve_passes_depth_9(tmp_path, capsys):
    # Weight products underflow to 0.0 at depth 9; zero weights are legal
    # in the lattice engine, and the dict oracle drops them.
    subs = [s for d in range(4) for s in enumerate_subspaces(3, d, 2)]
    combo = LinearComboMac(2, 3, [(1 / 16, s) for s in subs])
    path = write_json(tmp_path / "uniform.json", channel_dict(combo))
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--channel", path, "--l", "9",
                 "--out", str(out), "--no-timestamp"]) == 0
    assert_rows_match(read_rows(out), dict_evolve_rows(combo, 9))
    assert main(["evolve", "--channel", path, "--l", "12",
                 "--out", str(out), "--no-timestamp"]) == 0
    rows = read_rows(out)
    assert len(rows) == 13 * 7
    full = [float(r[2]) for r in rows if r[1] == "1;2;3"]
    assert max(abs(v - full[0]) for v in full) < 1e-12
    assert "4096 branch channels" in capsys.readouterr().out


# -- one parser per invoked command --------------------------------------------------

def run_main(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    printed = capsys.readouterr()
    return code, printed.out, printed.err


def _integer_options():
    """(command, flag) of every option typed by `cli._integer`."""
    return [(name, flag) for name, (_, _, options) in cli.COMMANDS.items()
            for flag, keywords in options
            if getattr(keywords.get("type"), "__qualname__", "").startswith("_integer.")]


HELP_AND_ERROR_ARGV = [
    [], ["--help"], ["-h", "construct"], ["bogus"], ["bogus", "--channel", "c.json"],
    *([name, "--help"] for name in cli.COMMANDS),
    *([name] for name in cli.COMMANDS),
    ["construct", "--bogus", "1"],
    ["construct", "--channel", "x"],
    ["construct", "--chan", "x"],
    ["analyze", "--chan", "missing.json"],
    ["analyze", "--channel", "missing.json", "extra"],
    ["analyze", "extra", "--channel", "missing.json"],
    ["analyze", "--channel", "missing.json", "--", "a", "b"],
    ["analyze", "--", "--channel", "missing.json"],
    ["construct", "--mode", "x"],
    ["analyze", "--channel", "missing.json", "--mode", "x"],
    ["analyze", "--channel", "missing.json", "-h"],
    ["construct", "--channel", "x", "--l", "3", "--help"],
    ["simulate", "--codespec", "c.json", "--channel", "c.json", "--trials", "0"],
    ["evolve", "--channel", "c.json", "--l", "-1"],
    ["analyze", "--channel", "missing.json"],
    *([name, flag, value] for name, flag in _integer_options() for value in ("x", "-1", "0")),
]


@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGV, ids=" ".join)
def test_help_and_errors_match_the_full_parser(tmp_path, monkeypatch, capsys, argv):
    # main parses a call naming a command with that command's parser alone;
    # usage, listings, errors and exit codes must be those of a run parsed
    # by the full parser.  COLUMNS fixes argparse's wrapping width.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    got = run_main(argv, capsys)
    monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
    want = run_main(argv, capsys)
    assert got == want
    assert got[0] != 0 or got[1].startswith("usage: macpolar")


def test_every_integer_option_has_a_bad_value_case():
    flags = {flag for _, flag in _integer_options()}
    assert flags == {"--l", "--max-outputs", "--trials", "--seed", "--m", "--max-family"}


VALID_ARGV = [
    ["analyze", "--channel", "c.json"],
    ["polarize", "--channel", "c.json", "--l", "3"],
    ["construct", "--channel", "c.json", "--l", "3", "--eps", "0.2", "--z-budget", "1e-3"],
    ["simulate", "--codespec", "s.json", "--channel", "c.json", "--trials", "5"],
    ["evolve", "--channel", "c.json", "--l", "4", "--out", "e.csv"],
    ["probe-conjectures", "--grid", "step:2", "--no-timestamp"],
]


def test_one_argv_per_command_covers_every_command():
    assert [argv[0] for argv in VALID_ARGV] == list(cli.COMMANDS)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=itemgetter(0))
def test_command_parser_gives_the_full_parsers_namespace(monkeypatch, argv):
    # Every default lands in the Namespace, and the `# config:` echo of an
    # output file lists its items in order.  A valid call never builds the
    # full parser.
    full = cli.build_parser().parse_args(argv)

    def refuse():
        raise AssertionError("the full parser was built")
    monkeypatch.setattr(cli, "build_parser", refuse)
    got = cli.parse_args(argv)
    assert list(vars(got).items()) == list(vars(full).items())
    assert got.func is cli.COMMANDS[argv[0]][1]


@pytest.mark.parametrize("extra", [["--l", "3"], ["--mode", "x"]])
def test_command_parser_leaves_the_other_commands_bare(capsys, extra):
    # A command's parser knows only its own options: another command's are
    # left over, and the full parser reports them.
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["analyze", "--channel", "c.json", *extra])
    assert exc.value.code == 2
    assert f"macpolar: error: unrecognized arguments: {' '.join(extra)}\n" \
        == capsys.readouterr().err.splitlines(keepends=True)[-1]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_parser_keeps_the_top_level_usage_and_listing(monkeypatch, capsys, command):
    # Arguments left over after a valid call are reported under the full
    # parser's usage, which lists every command.
    monkeypatch.setenv("COLUMNS", "80")
    argv = next(argv for argv in VALID_ARGV if argv[0] == command)
    with pytest.raises(SystemExit):
        cli.parse_args([*argv, "extra"])
    usage = cli.build_parser().format_usage()
    assert capsys.readouterr().err == f"{usage}macpolar: error: unrecognized arguments: extra\n"
    assert all(name in usage for name in cli.COMMANDS)


def test_main_builds_only_the_invoked_commands_parser(tmp_path, monkeypatch, capsys):
    # The full parser is built for no arguments, -h, an unknown command or
    # arguments left over, and for nothing else; with argv None the
    # command is read from sys.argv.
    monkeypatch.chdir(tmp_path)
    seen, full = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: seen.append(True) or full())
    for argv in ([], ["-h"], ["bogus"], ["analyze", "--channel", "missing.json", "x"]):
        run_main(argv, capsys)
    assert len(seen) == 4
    for argv in (["analyze", "--channel", "missing.json"], ["construct", "-h"],
                 ["construct", "--l", "x"]):
        run_main(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["macpolar", "evolve", "--channel", "missing.json",
                                      "--l", "1"])
    assert main() == 2
    assert len(seen) == 4


def test_console_script_path_writes_the_same_spec(tmp_path, monkeypatch, capsys):
    # With argv None, main reads sys.argv[1:] and picks the command there.
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_CHANNELS / "five_component.json", "five.json")
    argv = ["construct", "--channel", "five.json", "--l", "5", "--eps", "0.2",
            "--z-budget", "1e-3", "--no-timestamp", "--out"]
    assert main(argv + ["in_process.json"]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-m", "macpolar.cli", *argv, "console.json"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == capsys.readouterr().out
    assert (tmp_path / "console.json").read_bytes() == \
        (tmp_path / "in_process.json").read_bytes()


def test_construct_refuses_past_the_branch_cap_at_once(five_term_file, capsys):
    start = time.perf_counter()
    assert main(["construct", "--channel", five_term_file, "--l", "40",
                 "--eps", "0.2", "--z-budget", "1e-3"]) == 3
    assert time.perf_counter() - start < 5
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("error: a depth-40 code has 2^40 branches, more than "
                           "MAX_CODE_BRANCHES = 4194304\n")


def test_polarize_refuses_past_the_branch_cap_before_any_transform(monkeypatch, capsys):
    def step(*args, **kwargs):
        raise AssertionError("a transform ran")
    monkeypatch.setattr(cli, "branch_step", step)
    start = time.perf_counter()
    assert main(["polarize", "--channel", str(DEMO_CHANNELS / "five_component.json"),
                 "--l", "40"]) == 3
    assert time.perf_counter() - start < 5
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("error: a depth-40 code has 2^40 branches, more than "
                           "MAX_CODE_BRANCHES = 4194304\n")


def test_branch_cap_is_checked_before_the_lattice_walk(monkeypatch):
    # Depth 22 (2^22 = MAX_CODE_BRANCHES branches) reaches the walk; depth
    # 23 is refused before it.
    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked
    monkeypatch.setattr(polarize, "lattice_levels", walk)
    five = load_channel(str(DEMO_CHANNELS / "five_component.json"))
    assert polarize.MAX_CODE_BRANCHES == 2 ** 22
    with pytest.raises(Walked):
        polarize.build_code(five, 22, 0.2, 1e-3)
    for depth in (23, 40, 10 ** 9):
        with pytest.raises(TooLargeError, match="MAX_CODE_BRANCHES"):
            polarize.build_code(five, depth, 0.2, 1e-3)
