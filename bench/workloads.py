"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup` (timed, reported
as setup_s), computes reference results with `reference.py` (untimed), and
then yields cycles of CLI operations.  One cycle holds one call of each
kind, so every run times the same mix whatever its length.  Every
operation's output is checked when it returns; `finish` adds the checks
that need a whole run (the decoder's aggregate block-error rate).

Why each workload exists, and the layers it isolates, is in README.md.
macpolar is imported inside functions: run.py first puts the checkout's
src/ on the path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """An operation returned a result that disagrees with the reference."""


@dataclass
class Op:
    name: str                     # operation kind, the same in every cycle
    argv: list
    units: int                    # work units completed when it succeeds
    out: str                      # the file the operation writes
    check: Callable               # check(stdout) -> observation; raises CheckFailed
    known_defect: str = ""        # a refusal this operation is known to hit
    group: str = ""               # key for checks over a whole run


# Sizes of every workload: "full" is what the benchmark measures, "tiny" is
# the self-test's smoke run.  Full sizes keep each call under about a
# second on a 2-vCPU host, so that a 30-second run holds several calls of
# every kind (run.py reports each kind's median).
PROFILES = {
    "full": {
        "construct": {"five_l": 8, "g32_l": 4, "g23_l": 3},
        "decode": {"small_l": 8, "big_l": 10, "parity_l": 8,
                   "trials": {"tight256": 16, "tight1024": 4, "parity": 8}},
        "lattice": {"five_l": 20, "u23_l": 6, "g32_l": 7, "max_family": 2,
                    "defect_l": 9, "rounds": 3},
    },
    "tiny": {
        "construct": {"five_l": 3, "g32_l": 2, "g23_l": 2},
        "decode": {"small_l": 3, "big_l": 4, "parity_l": 3,
                   "trials": {"tight256": 4, "tight1024": 2, "parity": 4}},
        "lattice": {"five_l": 6, "u23_l": 3, "g32_l": 3, "max_family": 1,
                    "defect_l": 9, "rounds": 1},
    },
}

EPS = 0.2
TIGHT_Z = 1e-3        # the five-component tight code of acceptance criterion 9
COMBO_Z = 1e-2        # random combinations: a good set of about a third
PARITY_Z = 1e-9
EVOLVE_TOL = 1e-12
UB_REL_TOL = 1e-9


def seeded_weights(rng, n: int):
    """Weights drawn from [1, 2] and normalized: every term stays far from
    zero, so the merged alphabets, and with them the cost, do not depend
    on the seed."""
    w = rng.uniform(1.0, 2.0, size=n)
    return [float(x) for x in w / w.sum()]


def write_channel(path: Path, q: int, m: int, terms) -> None:
    data = {"q": q, "m": m, "terms": [{"p": w, "basis": b} for w, b in terms]}
    path.write_text(json.dumps(data))


def combo_terms(q: int, m: int, weights):
    subs = ref.all_subspaces(q, m)
    return [(w, ref.basis(s, q)) for w, s in zip(weights, subs)]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise CheckFailed(f"{path}: no CSV header")
    return rows[0], rows[1:]


def check_rows(path, expected, tol: float = EVOLVE_TOL) -> None:
    """Every cell equal to the reference; floats (all of order one) within
    `tol`."""
    _, rows = read_csv(path)
    if len(rows) != len(expected):
        raise CheckFailed(f"{path}: {len(rows)} rows, reference has {len(expected)}")
    for got, want in zip(rows, expected):
        if len(got) != len(want):
            raise CheckFailed(f"{path}: row {got} has the wrong width")
        for g, w in zip(got, want):
            if isinstance(w, float):
                try:
                    ok = abs(float(g) - w) <= tol
                except ValueError:
                    ok = False
            else:
                ok = g == str(w)
            if not ok:
                raise CheckFailed(f"{path}: got {g}, reference {w!r} (row {got[:2]})")


def check_codespec(path, want: dict) -> None:
    """The written code spec passes CodeSpec.check() and matches the
    reference's good set, rate vector and union bound."""
    from macpolar.jsonio import load_codespec
    from macpolar.errors import MacPolarError

    try:
        spec = load_codespec(path)
        spec.check()
    except (AssertionError, MacPolarError) as exc:
        raise CheckFailed(f"{path}: CodeSpec.check() failed: {exc!r}") from exc
    good = [b.sig for b in spec.branches if b.in_good_set]
    if len(spec.branches) != want["branches"] or good != want["good"]:
        raise CheckFailed(f"{path}: good set differs from the reference "
                          f"({len(good)} vs {len(want['good'])} branches)")
    if list(spec.rate_vector) != want["rate_vector"]:
        raise CheckFailed(f"{path}: rate vector {list(spec.rate_vector)} != "
                          f"reference {want['rate_vector']}")
    if abs(spec.union_bound - want["union_bound"]) > UB_REL_TOL * abs(want["union_bound"]):
        raise CheckFailed(f"{path}: union bound {spec.union_bound!r} != "
                          f"reference {want['union_bound']!r}")


class Workload:
    name = ""
    unit = ""                 # what one unit of work_per_tick is
    setup_repeats = 1         # set-ups before the first timed call
    setup_per_op = True       # one more set-up before every timed call

    def __init__(self, root: Path, work: Path, seed: int, profile: str):
        self.root, self.work, self.seed = root, work, seed
        self.size = PROFILES[profile][self.name]

    def path(self, name: str) -> str:
        return str(self.work / name)

    def setup(self, cli, caches) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference results; untimed."""

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError

    def finish(self, records) -> dict:
        """{record index: failure} for checks over the whole run."""
        return {}


def run_cli(cli, caches, argv) -> None:
    """A set-up call into the CLI, with cold caches; it must succeed."""
    for _, cache in caches:
        cache.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {code}: {buf.getvalue()}")


class Construct(Workload):
    """`macpolar construct` on three (q, m) shapes."""

    name = "construct"
    unit = "synthesized branches"

    def setup(self, cli, caches) -> None:
        from macpolar.jsonio import load_channel

        rng = np.random.default_rng([self.seed, 1])
        self.channels = {
            "five": self.root / "demos" / "channels" / "five_component.json",
            "g32": self.work / "gf3_2.json",
            "g23": self.work / "gf2_3.json",
        }
        self.terms = {"five": [(0.2, b) for b in ref.FIVE_BASES]}
        for key, (q, m) in (("g32", (3, 2)), ("g23", (2, 3))):
            n = len(ref.all_subspaces(q, m))
            self.terms[key] = combo_terms(q, m, seeded_weights(rng, n))
            write_channel(self.channels[key], q, m, self.terms[key])
        for path in self.channels.values():
            load_channel(str(path)).to_explicit()

    def _specs(self, size):
        return [("five", 2, 2, size["five_l"], TIGHT_Z),
                ("g32", 3, 2, size["g32_l"], COMBO_Z),
                ("g23", 2, 3, size["g23_l"], COMBO_Z)]

    def prepare(self) -> None:
        self.want = {}
        for key, q, m, l, z in self._specs(self.size) + self._specs(
                PROFILES["tiny"]["construct"]):
            self.want[(key, l)] = ref.code_reference(q, m, self.terms[key], l, EPS, z)

    def _ops(self, size) -> list:
        ops = []
        for key, _, _, l, z in self._specs(size):
            out = self.path(f"code_{key}.json")
            want = self.want[(key, l)]
            ops.append(Op(
                name=f"construct {key} l={l}",
                argv=["construct", "--channel", str(self.channels[key]),
                      "--l", str(l), "--eps", str(EPS), "--z-budget", str(z),
                      "--out", out, "--no-timestamp"],
                units=1 << l, out=out,
                check=lambda _stdout, out=out, want=want: check_codespec(out, want)))
        return ops

    def cycle(self, index: int) -> list:
        return self._ops(self.size)

    def warmup(self) -> list:
        return self._ops(PROFILES["tiny"]["construct"])


SIM_COLUMNS = ("q", "m", "l", "N", "eps", "z_budget", "sum_rate",
               "union_bound", "trials", "errors", "bler", "ci_low", "ci_high",
               "seed")


class Decode(Workload):
    """`macpolar simulate` on code specs built in set-up."""

    name = "decode"
    unit = "decoded blocks"
    setup_repeats = 3         # a set-up builds three code specs: seconds
    setup_per_op = False

    def setup(self, cli, caches) -> None:
        from macpolar.jsonio import load_codespec

        chans = self.root / "demos" / "channels"
        self.five = str(chans / "five_component.json")
        self.parity = str(chans / "parity_revealer.json")
        s = self.size
        self.specs = {
            "tight256": (self.five, s["small_l"], TIGHT_Z),
            "tight1024": (self.five, s["big_l"], TIGHT_Z),
            "parity": (self.parity, s["parity_l"], PARITY_Z),
        }
        self.union_bound = {}
        for key, (chan, l, z) in self.specs.items():
            out = self.path(f"spec_{key}.json")
            run_cli(cli, caches, ["construct", "--channel", chan, "--l", str(l),
                          "--eps", str(EPS), "--z-budget", str(z),
                          "--out", out, "--no-timestamp"])
            self.union_bound[key] = load_codespec(out).union_bound

    def prepare(self) -> None:
        five = [(0.2, b) for b in ref.FIVE_BASES]
        parity = [(1.0, [[1, 1]])]
        for key, (chan, l, z) in self.specs.items():
            terms = parity if chan == self.parity else five
            check_codespec(self.path(f"spec_{key}.json"),
                           ref.code_reference(2, 2, terms, l, EPS, z))

    def _check(self, stdout, out, key, trials, seed):
        cols, rows = read_csv(out)
        if tuple(cols) != SIM_COLUMNS or len(rows) != 1:
            raise CheckFailed(f"{out}: unexpected layout {cols}")
        row = dict(zip(cols, rows[0]))
        try:
            n, errors = int(row["trials"]), int(row["errors"])
            bler, ub = float(row["bler"]), float(row["union_bound"])
            got_seed = int(row["seed"])
        except ValueError as exc:
            raise CheckFailed(f"{out}: {exc}") from exc
        if n != trials or got_seed != seed or not 0 <= errors <= n:
            raise CheckFailed(f"{out}: trials {n}, seed {got_seed}, errors {errors}")
        if bler != errors / n or ub != self.union_bound[key]:
            raise CheckFailed(f"{out}: bler {bler} or union bound {ub} inconsistent")
        if key == "parity" and errors:
            raise CheckFailed(f"{out}: {errors} block errors on the noiseless "
                              "parity channel")
        return errors, n

    def _ops(self, index: int, trials: dict) -> list:
        ops = []
        for k, (key, (chan, l, _)) in enumerate(self.specs.items()):
            seed = (self.seed * 100003 + 3 * index + k) % 2 ** 63
            out = self.path(f"sim_{key}.csv")
            ops.append(Op(
                name=f"simulate {key} N={1 << l}",
                argv=["simulate", "--codespec", self.path(f"spec_{key}.json"),
                      "--channel", chan, "--trials", str(trials[key]),
                      "--seed", str(seed), "--out", out, "--no-timestamp"],
                units=trials[key], out=out, group=key,
                check=lambda stdout, out=out, key=key, t=trials[key], s=seed:
                    self._check(stdout, out, key, t, s)))
        return ops

    def cycle(self, index: int) -> list:
        return self._ops(index + 1, self.size["trials"])

    def warmup(self) -> list:
        return self._ops(0, {key: 1 for key in self.specs})

    def finish(self, records) -> dict:
        """Criterion 9's rule on the pooled trials of each tight code:
        BLER <= union bound + 3 sigma."""
        failed = {}
        for key in ("tight256", "tight1024"):
            idx = [i for i, r in enumerate(records)
                   if r.op.group == key and r.observed is not None]
            errors = sum(records[i].observed[0] for i in idx)
            trials = sum(records[i].observed[1] for i in idx)
            if not trials:
                continue
            ub = min(self.union_bound[key], 1.0)
            limit = ub + 3 * math.sqrt(ub * (1 - ub) / trials)
            if errors / trials > limit:
                msg = (f"{key}: pooled BLER {errors}/{trials} exceeds union bound "
                       f"{ub:.3e} + 3 sigma = {limit:.3e}")
                failed.update({i: msg for i in idx})
        return failed


WITNESS_LINE = re.compile(r"scanned (\d+) families .*: (\d+) consistent families "
                          r"have a witness, (\d+) lack one")


class Lattice(Workload):
    """`macpolar evolve` and the witness probe: the subspace calculus."""

    name = "lattice"
    unit = "branch states"

    def setup(self, cli, caches) -> None:
        from macpolar.jsonio import load_channel

        rng = np.random.default_rng([self.seed, 3])
        self.five_p = seeded_weights(rng, 5)
        self.five = self.work / "five_state.json"
        write_channel(self.five, 2, 2, list(zip(self.five_p, ref.FIVE_BASES)))
        self.g32_terms = combo_terms(3, 2, seeded_weights(rng, 6))
        self.g32 = self.work / "gf3_2.json"
        write_channel(self.g32, 3, 2, self.g32_terms)
        self.u23_terms = combo_terms(2, 3, [1 / 16] * 16)
        self.u23 = self.work / "uniform_gf2_3.json"
        write_channel(self.u23, 2, 3, self.u23_terms)
        for path in (self.five, self.g32, self.u23):
            load_channel(str(path))

    def prepare(self) -> None:
        self.want_five, self.want_g32, self.want_u23 = {}, {}, {}
        for size in (self.size, PROFILES["tiny"]["lattice"]):
            self.want_five[size["five_l"]] = ref.five_reference(self.five_p, size["five_l"])
            self.want_g32[size["g32_l"]] = ref.evolve_reference(
                3, 2, self.g32_terms, size["g32_l"])
            for l in (size["u23_l"], size["defect_l"]):
                self.want_u23[l] = ref.evolve_reference(2, 3, self.u23_terms, l)
        self.want_probe = {f: ref.witness_counts(2, 3, (1, 2), f)
                           for f in {self.size["max_family"], 1}}

    def _evolve(self, label, chan, l, want, known_defect=""):
        out = self.path(f"evolve_{label}.csv")
        return Op(name=f"evolve {label} l={l}",
                  argv=["evolve", "--channel", str(chan), "--l", str(l),
                        "--out", out, "--no-timestamp"],
                  units=(1 << (l + 1)) - 1, out=out, known_defect=known_defect,
                  check=lambda _stdout: check_rows(out, want[l]))

    def _probe(self, max_family: int):
        out = self.path("probe.csv")
        want = self.want_probe[max_family]

        def check(stdout):
            found = WITNESS_LINE.search(stdout)
            got = tuple(int(x) for x in found.groups()) if found else None
            if got != want:
                raise CheckFailed(f"witness scan counts {got}, reference {want}")
            _, rows = read_csv(out)
            if len(rows) != want[2]:
                raise CheckFailed(f"{out}: {len(rows)} witness gaps, reference {want[2]}")

        return Op(name=f"probe-conjectures GF(2)^3 family<={max_family}",
                  argv=["probe-conjectures", "--q", "2", "--m", "3",
                        "--users", "1,2", "--max-family", str(max_family),
                        "--out", out, "--no-timestamp"],
                  units=0, out=out, check=check)

    def _ops(self, size, with_defect: bool) -> list:
        """`rounds` calls of each kind, then the known-defect call once, so
        that the slow failing call takes a fixed share of every cycle."""
        ops = [self._evolve("five", self.five, size["five_l"], self.want_five),
               self._evolve("gf3_2", self.g32, size["g32_l"], self.want_g32),
               self._evolve("uniform_gf2_3", self.u23, size["u23_l"], self.want_u23),
               self._probe(size["max_family"])] * size["rounds"]
        if with_defect:
            # ROADMAP known defect: weight products underflow to 0.0 at
            # depth 9 and the channel constructor refuses them.
            ops.append(self._evolve("uniform_gf2_3_deep", self.u23, size["defect_l"],
                                    self.want_u23, known_defect="weights must be positive"))
        return ops

    def cycle(self, index: int) -> list:
        return self._ops(self.size, with_defect=True)

    def warmup(self) -> list:
        return self._ops(PROFILES["tiny"]["lattice"], with_defect=False)


WORKLOADS = {w.name: w for w in (Construct, Decode, Lattice)}
