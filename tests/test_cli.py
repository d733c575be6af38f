"""Subcommand behavior, file formats, exit codes and reproducibility."""

import hashlib
import json
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from macpolar import LinearComboMac, NonFiniteError, ParseError
from macpolar import polarize
from macpolar.cli import _parse_mode, build_parser, main
from macpolar.jsonio import (
    channel_from_dict,
    load_channel,
    load_codespec,
)
from macpolar.linear_mac import EXTREMAL_TOL, binary2_subspaces
from macpolar.subspace import enumerate_subspaces
from conftest import channel_dict, identity_mac, subsets_of
from oracles import dict_levels, projected_dim


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


def test_probe_beyond_the_lattice_cap_exits_3(capsys):
    # GF(2)^6 has 2825 subspaces, past LATTICE_CAP: the probe refuses at
    # once, as evolve and construct do on that space.
    start = time.perf_counter()
    assert main(["probe-conjectures", "--q", "2", "--m", "6", "--users", "1,2",
                 "--max-family", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "lattice cap" in capsys.readouterr().err


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
])
def test_outputs_are_pinned(tmp_path, monkeypatch, argv, digest):
    # sha256 values written by the separate tree walks the one walker
    # replaced; the two generic `evolve` digests were re-pinned when the
    # lattice engine took over, after test_generic_evolve_matches_dict_oracle
    # bounded the change at depths 0..6.  Paths are relative, so the config
    # echo does not depend on where the test runs.
    monkeypatch.chdir(tmp_path)
    for name in ("five_component.json", "random_ternary.json"):
        shutil.copy(DEMO_CHANNELS / name, name)
    for name, data in GENERIC_COMBOS.items():
        write_json(tmp_path / name, data)
    assert main(argv + ["--out", "out.csv", "--no-timestamp"]) == 0
    got = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert got == digest, f"{' '.join(argv)}: {got}"


@pytest.mark.parametrize("channel, z_budget, trials, seed, csv_digest, json_digest", [
    ("five_component.json", "1e-3", "2000", "5",
     "eb990e50301c04ffed260541d392f7c53e717b75d027e5ec08641e43276867d3",
     "3cd8dd8e72a15df0b16488ff26046ebca7c56e20d24c129f2327f192c6009faf"),
    ("parity_revealer.json", "1e-9", "200", "6",
     "21963e5ed1e55f17758316c6585dde63e0f20e09a1656c3877c3a36f7bd6735e",
     "ec5d3f457acc9203aebd8e06f84abde27f76dc62ab14dd8f49bd83a6d7cd3fcf"),
])
def test_simulate_outputs_are_pinned(tmp_path, monkeypatch, capsys, channel,
                                     z_budget, trials, seed, csv_digest,
                                     json_digest):
    # sha256 of the CSV and of the printed report, written before messages
    # became (N, m) arrays: the same seed keys must give the same symbol
    # draws, channel outputs and error counts.  Paths are relative.
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
])
def test_probe_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv, counts,
                                  csv_digest, stdout_digest):
    # Written by the witness probe on the null-space subspace calculus:
    # families scanned, consistent families with a witness, and without.
    # Paths are relative.
    monkeypatch.chdir(tmp_path)
    assert main(["probe-conjectures", *argv, "--out", "out.csv", "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    found = re.search(r"scanned (\d+) families .*: (\d+) consistent families "
                      r"have a witness, (\d+) lack one", printed)
    assert tuple(int(x) for x in found.groups()) == counts
    got = (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest(),
           hashlib.sha256(printed.encode()).hexdigest())
    assert got == (csv_digest, stdout_digest), f"{' '.join(argv)}: {got}"


@pytest.mark.parametrize("mode", ["sample:1", "sample:0", "sample:-3", "sample:x",
                                  "sample:", "bogus"])
def test_bad_mode_is_a_parse_error(five_term_file, mode, capsys):
    with pytest.raises(ParseError):
        _parse_mode(mode)
    assert main(["evolve", "--channel", five_term_file, "--l", "3",
                 "--mode", mode]) == 2
    assert "--mode" in capsys.readouterr().err


def test_generic_sample_mode_is_a_parse_error(tmp_path):
    path = write_json(tmp_path / "gf3_2.json", GENERIC_COMBOS["gf3_2.json"])
    args = build_parser().parse_args(["evolve", "--channel", path, "--l", "3",
                                      "--mode", "sample:10"])
    with pytest.raises(ParseError, match="sample mode"):
        args.func(args)
    assert main(["evolve", "--channel", path, "--l", "3", "--mode", "sample:10"]) == 2


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
