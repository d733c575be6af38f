"""macpolar benchmark: end-to-end and per-layer metrics of the CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --selftest
    python3 bench/run.py --calibrate
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

A run imports macpolar from the checkout's `src/`, builds its inputs from
the seed, calls `macpolar.cli.main` in-process on one client in a closed
loop, and checks every result against `reference.py`.  Call times are
gated in host ticks (see `host_tick`), which cancels the shared host's
changing speed.  The last line of standard output is one JSON object; the
lines before it are for people.
`--trace 1` spends half the time untraced and half with every layer's
functions wrapped (layertrace.py), and reports per-layer metrics.  `--record
FILE` appends the run to a JSON-lines file that `--compare` reads.
"""

from __future__ import annotations

import os

# Before numpy is imported: pin BLAS/OpenMP pools to one thread, and stop
# numpy asking for transparent huge pages, whose availability depends on
# the host's memory fragmentation and moved peak RSS by 20% between runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TAIL_BEYOND = 10      # samples that must lie beyond the reported tail


class Unavailable(Exception):
    """The checkout does not hold the program."""


def load_program():
    """Import macpolar from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "macpolar" / "__init__.py").is_file():
        raise Unavailable(f"no macpolar sources under {src}")
    sys.path.insert(0, str(src))
    import macpolar
    import macpolar.cli

    if Path(macpolar.__file__).resolve().parent != (src / "macpolar").resolve():
        raise Unavailable(f"imported macpolar from {macpolar.__file__}")
    return macpolar.cli


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Unavailable(f"missing {path}")
    return json.loads(path.read_text())


def environment() -> dict:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            sha = ref
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


# -- one operation ---------------------------------------------------------------

@dataclass
class Record:
    op: object
    seconds: float
    failure: str = ""         # why the operation counts as failed
    wrong: bool = False       # failed in a way that makes the run incorrect
    observed: object = None
    ticks: float = 0.0        # seconds over the host tick around the call


# -- the host tick ---------------------------------------------------------------

TICK_LOOP = 200_000           # pure-Python iterations in one tick
TICK_ARRAY = 200_000          # float64 values made unique and sorted


@functools.cache
def _tick_data():
    import numpy as np

    return np.random.default_rng(0).random(TICK_ARRAY)


def host_tick() -> float:
    """Seconds taken by a fixed computation that does not touch macpolar:
    a pure-Python loop, then a numpy unique and sort.  Other tenants of a
    shared host slow everything on it by up to 2x, for seconds to minutes
    at a time; a call's time over the tick measured next to it stays
    steady, and a change to the program moves the call but not the tick.
    The collector is off while it runs, so that the tick does not pay for
    objects the program left."""
    import numpy as np

    data = _tick_data()
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(TICK_LOOP):
            acc += i * i
        np.unique(np.round(data * 1000))
        np.sort(data)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def run_op(cli, caches, op, tamper=None, tracer=None, cache_totals=None) -> Record:
    """One CLI call with cold caches, timed, then checked (untimed).  The
    tracer, if any, is installed around the call only."""
    from workloads import CheckFailed

    for _, cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    crashed = ""
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed operation
            code, crashed = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if cache_totals is not None:
        for layer, cache in caches:
            info = cache.cache_info()
            cache_totals[layer][0] += info.hits
            cache_totals[layer][1] += info.misses
    rec = Record(op, seconds)
    if crashed or code != 0:
        rec.failure = crashed or f"exit {code}: {err.getvalue().strip()}"
        # A clean refusal (non-zero exit) on a known defect is a failed
        # operation, not a wrong answer.
        rec.wrong = bool(crashed) or not op.known_defect
        return rec
    if tamper is not None:
        tamper(op.out)
    try:
        rec.observed = op.check(out.getvalue())
    except CheckFailed as exc:
        rec.failure, rec.wrong = f"wrong result: {exc}", True
    return rec


def timed_setup(cli, caches, wl, setup_times) -> None:
    t0 = perf_counter()
    wl.setup(cli, caches)
    setup_times.append(perf_counter() - t0)


def run_phase(cli, caches, wl, seconds, first_cycle, setup_times,
              tracer=None, cache_totals=None):
    """Whole cycles, at least one, stopping at the cycle boundary nearest
    to `seconds`; returns (records, cycles run).  A workload with cheap
    set-up repeats it before every call, so that set-up is sampled across
    the whole run."""
    records, cycles = [], 0
    t0 = perf_counter()
    before = host_tick()
    while True:
        for op in wl.cycle(first_cycle + cycles):
            if wl.setup_per_op:
                timed_setup(cli, caches, wl, setup_times)
            rec = run_op(cli, caches, op, tracer=tracer, cache_totals=cache_totals)
            after = host_tick()
            rec.ticks = rec.seconds / ((before + after) / 2)
            records.append(rec)
            before = after
        cycles += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / cycles / 2 >= seconds:
            return records, cycles


# -- metrics ---------------------------------------------------------------------

def tail(samples):
    """(value, percentile): the highest percentile that still has
    TAIL_BEYOND samples beyond it.  With fewer than 2 * TAIL_BEYOND + 1
    samples that percentile is at or below the median, so the median is
    reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def by_kind(records, field: str) -> dict:
    """Operation kind -> (units of one call, medians of `field` over the
    kind's successful calls).  A failed call has no latency; it counts
    only in ops_ok_ratio."""
    kinds = {}
    for r in records:
        if not r.failure:
            kinds.setdefault(r.op.name, (r.op.units, []))[1].append(getattr(r, field))
    return {name: (units, statistics.median(xs)) for name, (units, xs) in kinds.items()}


def cycle_ticks(records) -> float:
    """One successful call of every kind, each at its kind's median, in ticks."""
    return sum(med for _, med in by_kind(records, "ticks").values())


def _rate(kinds) -> float:
    """Work units of one call of each kind over the calls' summed medians."""
    return sum(u for u, _ in kinds.values()) / sum(m for _, m in kinds.values()) if kinds else 0.0


def _geomean(kinds) -> float:
    return math.exp(statistics.fmean(math.log(m) for _, m in kinds.values())) if kinds else 0.0


def end_to_end(records, setup_times) -> tuple[dict, dict]:
    seconds = [r.seconds for r in records]
    failed = sum(1 for r in records if r.failure)
    ticks, wall = by_kind(records, "ticks"), by_kind(records, "seconds")
    tail_s, pct = tail(seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "work_per_tick": _rate(ticks),
        "op_ticks_p50": _geomean(ticks),
        "ops_ok_ratio": 1 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # For people only: wall times move with the host's load.
        "work_per_s": _rate(wall),
        "op_p50_s": _geomean(wall),
        "op_tail_s": tail_s,
    }
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "work_per_tick": "work units of one call of each kind over their median ticks",
             "op_ticks_p50": f"geometric mean over {len(ticks)} call kinds of each "
                             "kind's median",
             "work_per_s": "as work_per_tick, in seconds (not gated)",
             "op_p50_s": "as op_ticks_p50, in seconds (not gated)",
             "op_tail_s": f"p{pct:.0f} of n={len(seconds)} calls (not gated)",
             "ops_ok_ratio": f"{failed} of {len(records)} operations failed "
                             f"(ops_failed_ratio {failed / len(records):.4f})"}
    return metrics, notes


# Per-layer metric prefixes that sum several traced functions.  Any other
# "<prefix>.calls" or "<prefix>.self_s" names one traced function.
ALIASES = {
    "mac.transform": ("mac.transform_minus", "mac.transform_plus"),
    "linear_mac.pair_transform": ("linear_mac.LinearComboMac.minus",
                                  "linear_mac.LinearComboMac.plus"),
    "subspace.intersect": ("subspace.Subspace.intersect",),
    "subspace.sum": ("subspace.Subspace.sum",),
}


def per_layer(spec, tracer, traced, untraced, cache_totals) -> dict:
    """Every per-layer metric of BENCHMARK.json.  `traced` and `untraced`
    are (records, cycles) of the two halves of a traced run."""
    from layertrace import LAYERS

    traced, untraced = traced[0], untraced[0]
    wall = sum(r.seconds for r in traced)
    metrics = dict(tracer.counters)
    cols_in = metrics["mac.merge_outputs.cols_in"]
    metrics["mac.merge_outputs.keep_ratio"] = (
        metrics["mac.merge_outputs.cols_out"] / cols_in if cols_in else 0.0)
    hits, misses = cache_totals["subspace"]
    metrics["subspace.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    accounted = sum(layer_self.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.unaccounted_s"] = wall - accounted
    metrics["trace.coverage"] = accounted / wall
    metrics["trace.overhead_ratio"] = cycle_ticks(traced) / cycle_ticks(untraced) - 1
    for m in spec["per_layer"]:
        prefix, _, stat = m["name"].rpartition(".")
        if m["name"] not in metrics and stat in ("calls", "self_s"):
            calls, self_s = tracer.function(*ALIASES.get(prefix, (prefix,)))
            metrics[m["name"]] = calls if stat == "calls" else self_s
    return metrics


# -- one run ---------------------------------------------------------------------

def select(spec, computed: dict, key: str) -> dict:
    out = {}
    for m in spec[key]:
        value = float(computed[m["name"]])
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def execute(cli, spec, workload, seed, seconds, trace, profile="full"):
    """One benchmark run.  Returns (result object, report lines, per-layer
    metrics or None)."""
    from layertrace import Tracer, lru_caches
    from workloads import WORKLOADS

    caches = lru_caches("macpolar")
    lines = [f"# macpolar benchmark: workload={workload} seed={seed} "
             f"seconds={seconds} trace={trace} profile={profile}",
             "# env: " + json.dumps(environment(), sort_keys=True)]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        wl = WORKLOADS[workload](ROOT, Path(tmp), seed, profile)
        setup_times = []
        for _ in range(wl.setup_repeats):
            timed_setup(cli, caches, wl, setup_times)
        wl.prepare()
        warm = [run_op(cli, caches, op) for op in wl.warmup()]
        layer = None
        if trace:
            untraced = run_phase(cli, caches, wl, seconds / 2, 0, setup_times)
            totals = {name: [0, 0] for name, _ in caches}
            totals.setdefault("subspace", [0, 0])
            tracer = Tracer()
            traced = run_phase(cli, caches, wl, seconds / 2, untraced[1],
                               setup_times, tracer, totals)
            records = untraced[0] + traced[0]
            layer = per_layer(spec, tracer, traced, untraced, totals)
            timed = untraced[0]
        else:
            records, _ = run_phase(cli, caches, wl, seconds, 0, setup_times)
            timed = records
        for i, why in wl.finish(records).items():
            records[i].failure, records[i].wrong = why, True
    # A traced run reports end-to-end figures from its untraced half only.
    metrics, notes = end_to_end(timed, setup_times)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units.get(name, '')}  "
                     f"{notes.get(name, '')}".rstrip())
    lines.append(f"# work unit: {wl.unit}")
    kinds = {}
    for r in timed:
        kinds.setdefault(r.op.name, []).append(r)
    for name, rs in kinds.items():
        xs = [r.seconds for r in rs]
        lines.append(f"# op {name}: n={len(xs)} median={statistics.median(xs):.4f} s "
                     f"= {statistics.median(r.ticks for r in rs):.3f} ticks, "
                     f"min={min(xs):.4f} max={max(xs):.4f} s")
    if layer is not None:
        for name, value in layer.items():
            lines.append(f"{name} = {value:.6g} {units.get(name, '')}")
    seen = set()
    for r in warm + records:
        if r.failure and (r.op.name, r.failure) not in seen:
            seen.add((r.op.name, r.failure))
            kind = "WRONG" if r.wrong else "known defect"
            lines.append(f"# failed ({kind}): {r.op.name}: {r.failure}")
    correct = not any(r.wrong for r in warm + records)
    result = {"correct": correct, "attempted": len(records),
              "failed": sum(1 for r in records if r.failure),
              "metrics": select(spec, layer if trace else metrics,
                                "per_layer" if trace else "end_to_end")}
    return result, lines, layer


# -- self-test ---------------------------------------------------------------------

def _schema_problems(result, spec, trace) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        problems.append("attempted/failed are not whole numbers in range")
    want = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in want]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in want:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{m['name']}: {got}")
    json.loads(json.dumps(result, allow_nan=False))
    return problems


def _edit_json(edit):
    def tamper(path):
        data = json.loads(Path(path).read_text())
        edit(data)
        Path(path).write_text(json.dumps(data))
    return tamper


def _edit_csv(edit):
    """Apply `edit` to the first data row of a CSV, as a column -> text dict."""
    def tamper(path):
        text = Path(path).read_text().splitlines()
        head = next(i for i, line in enumerate(text) if not line.startswith("#"))
        cols = text[head].split(",")
        row = dict(zip(cols, text[head + 1].split(",")))
        edit(row)
        text[head + 1] = ",".join(row[c] for c in cols)
        Path(path).write_text("\n".join(text) + "\n")
    return tamper


def _one_block_error(row):
    row["errors"] = "1"
    row["bler"] = repr(1 / int(row["trials"]))


TAMPERS = [
    # (workload, operation index in a cycle, what is edited, the edit)
    ("construct", 0, "rate vector",
     _edit_json(lambda d: d["rate_vector"].__setitem__(0, d["rate_vector"][0] + 2 ** -d["l"]))),
    ("construct", 0, "union bound + 1e-6",
     _edit_json(lambda d: d.__setitem__("union_bound", d["union_bound"] + 1e-6))),
    ("decode", 2, "one block error on the noiseless channel",
     _edit_csv(_one_block_error)),
    ("lattice", 0, "p3 average + 1e-9",
     _edit_csv(lambda r: r.__setitem__("p3", repr(float(r["p3"]) + 1e-9)))),
]

ISOLATION = {
    # workload: per-layer counts that must be zero there
    "construct": ("codec.sc_decode.calls",),
    "decode": ("mac.merge_outputs.calls", "mac.transform.calls"),
    "lattice": ("mac.merge_outputs.calls", "mac.transform.calls",
                "codec.sc_decode.calls"),
}


def selftest(cli, spec) -> int:
    """Tiny runs of every workload: output schema, layer isolation, a
    known-defect count on lattice, and tampered outputs caught."""
    from layertrace import lru_caches
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _, layer = execute(cli, spec, name, seed=7, seconds=0,
                                       trace=trace, profile="tiny")
            label = f"{name} trace={trace}"
            problems += [f"{label}: {p}" for p in _schema_problems(result, spec, trace)]
            if not result["correct"]:
                problems.append(f"{label}: a check failed on an untampered run")
            if (result["failed"] > 0) != (name == "lattice"):
                problems.append(f"{label}: {result['failed']} failed operations")
            if layer is not None:
                problems += [f"{label}: {k} = {layer[k]}" for k in ISOLATION[name]
                             if layer[k] != 0]
                if not 0.95 <= layer["trace.coverage"] <= 1.0 + 1e-9:
                    problems.append(f"{label}: coverage {layer['trace.coverage']}")
            print(f"# smoke {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    caches = lru_caches("macpolar")
    for name, index, what, tamper in TAMPERS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
            wl = WORKLOADS[name](ROOT, Path(tmp), 7, "tiny")
            wl.setup(cli, caches)
            wl.prepare()
            op = wl.cycle(0)[index]
            clean = run_op(cli, caches, op)
            bad = run_op(cli, caches, op, tamper=tamper)
        caught = not clean.failure and bad.wrong
        print(f"# tamper {name}: {op.name}, {what}: caught={caught} ({bad.failure})")
        if not caught:
            problems.append(f"tampered {what} of {op.name} was not caught")
    for p in problems:
        print(f"# PROBLEM: {p}")
    print(json.dumps({"selftest": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 1 if problems else 0


# -- calibration against ROADMAP's library-level numbers ---------------------------

ROADMAP_BASELINE = [
    # (what, unit, number in ROADMAP)
    ("build_code five l=8", "s", 0.71),
    ("build_code five l=10", "s", 4.6),
    ("run_trials tight N=256", "ms/trial", 20.7),
    ("run_trials tight N=1024", "ms/trial", 141.0),
    ("binary2_evolve l=20", "s", 0.73),
]


def calibrate(cli, repeats: int = 3) -> int:
    """Time the library calls that ROADMAP's baseline names, median of
    `repeats`, caches cleared before each."""
    from layertrace import lru_caches
    from macpolar import binary2_evolve, build_code, run_trials
    from macpolar.jsonio import load_channel

    caches = lru_caches("macpolar")
    five_combo = load_channel(str(ROOT / "demos" / "channels" / "five_component.json"))
    five = five_combo.to_explicit()
    specs = {l: build_code(five, l, 0.2, 1e-3) for l in (8, 10)}

    def timed(fn, per=1.0):
        samples = []
        for _ in range(repeats):
            for _, cache in caches:
                cache.cache_clear()
            t0 = perf_counter()
            fn()
            samples.append((perf_counter() - t0) / per)
        return statistics.median(samples)

    measured = [
        timed(lambda: build_code(five, 8, 0.2, 1e-3)),
        timed(lambda: build_code(five, 10, 0.2, 1e-3)),
        1e3 * timed(lambda: run_trials(specs[8], five, 40, seed=11), per=40),
        1e3 * timed(lambda: run_trials(specs[10], five, 8, seed=11), per=8),
        timed(lambda: binary2_evolve([0.2] * 5, 20)),
    ]
    print("# env: " + json.dumps(environment(), sort_keys=True))
    rows = []
    for (what, unit, old), new in zip(ROADMAP_BASELINE, measured):
        print(f"{what:28s} ROADMAP {old:8.3f} {unit:9s} measured {new:8.3f}  "
              f"ratio {new / old:.2f}")
        rows.append({"what": what, "unit": unit, "roadmap": old, "measured": new})
    print(json.dumps({"calibration": rows, "repeats": repeats}))
    return 0


# -- comparison of recorded runs ------------------------------------------------------

def _spread(xs) -> float:
    """Interquartile range over the median."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def compare(spec, old_path, new_path) -> int:
    """Median of each metric per workload, the ratio new/old, and a
    verdict against BENCHMARK.json's bounds.  A metric whose run-to-run
    spread exceeds its bound is unresolved unless every new run beats
    every old one."""
    def load(path):
        groups = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    groups.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
        return groups

    old, new = load(old_path), load(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in sorted(set(old) & set(new)):
        print(f"== {workload}")
        for name, xs in old[workload].items():
            ys = new[workload].get(name)
            if not ys:
                continue
            a, b = statistics.median(xs), statistics.median(ys)
            ratio = b / a if a else float("inf") if b else 1.0
            verdict = ""
            if name in bounds:
                bound, lower = bounds[name]["bound"], bounds[name]["better"] == "lower"
                worse = b > a * (1 + bound) if lower else b < a * (1 - bound)
                better = b < a * (1 - bound) if lower else b > a * (1 + bound)
                all_better = max(ys) < min(xs) if lower else min(ys) > max(xs)
                if max(_spread(xs), _spread(ys)) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "WORSE" if worse else "better" if better else "within bound"
                regressions += verdict == "WORSE"
            print(f"  {name:42s} {a:12.6g} -> {b:12.6g}  x{ratio:.3f}  {verdict:12s}"
                  f"  spread {_spread(xs):.3f}/{_spread(ys):.3f}  n={len(xs)}/{len(ys)}")
    return 1 if regressions else 0


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append this run to a JSON-lines file")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        cli = load_program()
    except Unavailable as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(cli, spec)
    if args.calibrate:
        return calibrate(cli)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed < 0:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}, --seed >= 0")
    from workloads import CheckFailed

    try:
        result, lines, _ = execute(cli, spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (CheckFailed, RuntimeError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": environment(), "result": result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
