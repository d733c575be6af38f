"""Batch experiment front end.

Subcommands: analyze, polarize, construct, simulate, evolve,
probe-conjectures.  Every run echoes its resolved configuration into the
output file, and with --no-timestamp two runs of the same command are
byte-identical.  Exit codes: 0 success, 2 configuration or input error,
3 size or enumeration cap exceeded.  A call that names a command is
parsed by a parser of that command alone, and anything else by the full
parser of every command, with the same help and error text either way.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from functools import partial
from operator import itemgetter

import numpy as np

from . import jsonio
from .errors import (
    BadGridError,
    MacPolarError,
    ParseError,
    TooDeepError,
    TooLargeError,
)
from .linear_mac import (
    BLOCK_FLOATS,
    LinearComboMac,
    binary2_evolve,
    binary2_order,
    binary2_state,
    evolve,
    preservation,
    rate_region,
    subspace_lattice,
    total_loss_predict,
)
from .mac import DEFAULT_MERGE_TOL, ROW_SUM_TOL, DiscreteMac, user_subsets
from .polarize import (
    MAX_BRANCH_OUTPUTS,
    branch_step,
    build_code,
    check_code_depth,
    direction_stats,
    polarization_tree,
    summarize_levels,
)
from .codec import run_trials
from .subspace import user_indices


def _users_str(users) -> str:
    return ";".join(str(u) for u in users)


def _as_explicit(channel) -> DiscreteMac:
    if isinstance(channel, LinearComboMac):
        return channel.to_explicit()
    return channel


def _write_csv(args, columns, rows) -> None:
    """Write the CSV to --out, if given, echoing the command's own options."""
    if args.out:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "no_timestamp")}
        jsonio.write_csv(args.out, columns, rows, config=config,
                         timestamp=not args.no_timestamp)


# -- subcommands ------------------------------------------------------------------

def cmd_analyze(args) -> int:
    channel = jsonio.load_channel(args.channel)
    region = rate_region(channel)
    full, total = region.constraints[-1]
    rows = [("mutual_info", _users_str(s), i, "", "") for s, i in region.constraints]
    rows.append(("sum_capacity", _users_str(full), total, "", ""))
    print(f"channel: q={channel.q} m={channel.m} ({type(channel).__name__})")
    for s, i in region.constraints:
        print(f"  I[{{{','.join(map(str, s))}}}] = {i:.9f}")
    print(f"  sum capacity = {total:.9f}")
    if region.vertices is not None:
        for x, y in region.vertices:
            rows.append(("vertex", "", "", x, y))
        for x, y in region.dominant_face:
            rows.append(("dominant_face", "", "", x, y))
        print(f"  region vertices: {region.vertices}")
        print(f"  dominant face: {region.dominant_face}")
    _write_csv(args, ("record", "users", "value", "r1", "r2"), rows)
    return 0


def cmd_polarize(args) -> int:
    channel = _as_explicit(jsonio.load_channel(args.channel))
    check_code_depth(args.l)
    subsets = user_subsets(channel.m)
    levels = [[] for _ in range(args.l + 1)]
    branch_rows = []
    step = partial(branch_step, merge_tol=args.merge_tol,
                   max_outputs=args.max_outputs)
    for sig, ch in polarization_tree(channel, args.l, step):
        info = [ch.mutual_info(s) for s in subsets]
        levels[len(sig)].append(info)
        if len(sig) < args.l:
            continue
        # user_subsets lists the full set last.
        branch_rows.append(("branch_capacity", args.l, sig, "", "", info[-1], ""))
        for st in direction_stats(ch):
            branch_rows.append(("branch_direction", args.l, sig, "",
                                _users_str(st.alpha), st.i, st.z))
    report = summarize_levels(subsets, levels)
    rows = []
    for lvl, averages in enumerate(report.averages):
        for s, average in zip(subsets, averages):
            rows.append(("level_avg", lvl, "", _users_str(s), "", average, ""))
    rows += branch_rows
    print(f"levels 0..{args.l}: full-set average constant: "
          f"{report.full_set_constant}; strict subsets non-increasing: "
          f"{report.strict_non_increasing}")
    _write_csv(args, ("record", "level", "sig", "users", "direction", "i", "z"), rows)
    return 0


def cmd_construct(args) -> int:
    channel = jsonio.load_channel(args.channel)
    spec = build_code(channel, args.l, args.eps, args.z_budget,
                      merge_tol=args.merge_tol, max_outputs=args.max_outputs)
    spec.check()
    if args.out:
        jsonio.save_codespec(args.out, spec)
    print(f"N = {spec.block_length}, |good set| = {spec.good_count}")
    print(f"sum rate R = {spec.sum_rate:.9f}")
    for k, rk in enumerate(spec.rate_vector, start=1):
        print(f"  R_{k} = {rk:.9f}")
    print(f"union bound on block error = {spec.union_bound:.6e}")
    return 0


def cmd_simulate(args) -> int:
    spec = jsonio.load_codespec(args.codespec, check=False)      # run_trials checks it
    channel = jsonio.load_channel(args.channel)
    report = run_trials(spec, channel, args.trials, args.seed)
    print(json.dumps(report.to_dict(), sort_keys=True))
    _write_csv(args, report.CSV_COLUMNS, [report.csv_row()])
    return 0


def _parse_mode(mode: str):
    if mode == "enumerate":
        return "enumerate", None
    if mode.startswith("sample:"):
        try:
            n = int(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad --mode {mode!r}: the path count is not an "
                             "integer") from exc
        if n < 2:
            # One path has no standard error.
            raise ParseError(f"bad --mode {mode!r}: the path count must be >= 2")
        return "sample", n
    raise ParseError(f"bad --mode {mode!r}; use enumerate or sample:N")


def cmd_evolve(args) -> int:
    channel = jsonio.load_channel(args.channel)
    if not isinstance(channel, LinearComboMac):
        raise ParseError("evolve needs a linear-combination channel")
    mode, n_paths = _parse_mode(args.mode)
    rep = evolve(channel, args.l, mode, n_paths or 1000, args.seed)
    if channel.q == 2 and channel.m == 2:
        # The 5-state columns are the lattice weights in component order;
        # the information columns are I[{1}], I[{2}] and I[{1,2}].
        five = itemgetter(*binary2_order())
        predicted = total_loss_predict(binary2_state(channel))
        cols = ["level", "p0", "p1", "p2", "p3", "p4", "i1", "i2", "i_sum",
                "extremal_fraction", "pred_total_loss"]
        if mode == "sample":
            cols += [f"se_p{k}" for k in range(5)]
        rows = [(lv.level, *five(lv.weights), *lv.info, lv.extremal_fraction,
                 int(predicted), *(five(lv.stderr) if mode == "sample" else ()))
                for lv in rep.levels]
        print(f"total loss predicted: {predicted}; "
              f"p3 average at level {args.l}: {five(rep.final.weights)[3]:.6e}; "
              f"extremal fraction: {rep.final.extremal_fraction:.4f}")
    else:
        cols = ["level", "users", "i_avg", "extremal_fraction"]
        rows = [(lv.level, _users_str(s), i, lv.extremal_fraction)
                for lv in rep.levels for s, i in zip(user_subsets(channel.m), lv.info)]
        count = f"{n_paths} sampled paths" if n_paths else f"{2 ** args.l} branch channels"
        print(f"evolved to depth {args.l}: {count}")
    _write_csv(args, cols, rows)
    return 0


def _parse_grid(spec: str):
    """Grid of 5-component states: 'step:K' for the lattice with denominator
    K, or a path to a JSON list of states, each finite, non-negative and
    summing to 1 within ROW_SUM_TOL."""
    if spec.startswith("step:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise BadGridError(f"bad grid spec {spec!r}") from exc
        if k < 1:
            raise BadGridError("grid step denominator must be >= 1")
        states = []
        for parts in itertools.product(range(k + 1), repeat=4):
            rest = k - sum(parts)
            if rest >= 0:
                states.append(tuple(p / k for p in (*parts, rest)))
        return states
    states = jsonio.load_grid(spec)
    for i, state in enumerate(states):
        if not (all(math.isfinite(x) and x >= 0 for x in state)
                and abs(sum(state) - 1.0) <= ROW_SUM_TOL):
            raise BadGridError(f"{spec}: state {i} is not a probability vector: "
                               f"{list(state)}")
    return states


def _family_batches(n: int, size: int):
    """The `size`-subsets of range(n) in lexicographic order, as (b, size)
    arrays of at most BLOCK_FLOATS rows, so that a probe's memory does not
    grow with the number of families."""
    combos = itertools.combinations(range(n), size)
    while True:
        batch = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, BLOCK_FLOATS)), dtype=np.int64)
        if not batch.size:
            return
        yield batch.reshape(-1, size)


def cmd_probe_conjectures(args) -> int:
    missing = [f"--{k}" for k in ("q", "m", "users") if getattr(args, k) is None]
    if 0 < len(missing) < 3:
        raise ParseError(f"the witness probe also needs {' and '.join(missing)}")
    if missing and not args.grid:
        raise BadGridError("nothing to probe: pass --grid and/or --q/--m/--users")
    # A probe refused at any point, even mid-walk, prints nothing.
    if not missing:
        lat = subspace_lattice(args.q, args.m)
        users = tuple(user_indices(args.users.split(","), args.m))
    states = _parse_grid(args.grid) if args.grid else []
    rows = []
    lines = ["probe results are numerical evidence, not proof"]
    if states:
        hits = [s for s in states if s[3] > max(s[1], s[2])]
        if not hits:
            lines.append("total-loss probe: no instances with the diagonal component "
                         "dominant in grid")
        else:
            worst = None
            diagonal = binary2_order()[3]
            for s in hits:
                rep = binary2_evolve(np.array(s), args.l, mode="enumerate")
                p3 = rep.final.weights[diagonal]
                rows.append(("total_loss", json.dumps(s), args.l, p3))
                if worst is None or p3 < worst[1]:
                    worst = (s, p3)
            lines.append(f"total-loss probe: {len(hits)} states with dominant diagonal "
                         f"component; min averaged p3 at depth {args.l}: {worst[1]:.6e} "
                         f"(state {worst[0]})")
    if not missing:
        counterexamples = 0
        consistent_with_witness = 0
        scanned = 0
        for size in range(1, args.max_family + 1):
            for families in _family_batches(lat.size, size):
                result = preservation(lat, families, users)
                scanned += len(families)
                gaps = families[result.consistent & (result.witness < 0)]
                counterexamples += len(gaps)
                consistent_with_witness += np.count_nonzero(result.consistent) - len(gaps)
                rows += [("witness_gap",
                          json.dumps([lat.subspaces[i].basis.tolist() for i in family]),
                          "", "") for family in gaps.tolist()]
        lines.append(f"witness probe: scanned {scanned} families over GF({args.q})^{args.m} "
                     f"w.r.t. users {users}: {consistent_with_witness} consistent families "
                     f"have a witness, {counterexamples} lack one")
    print("\n".join(lines))
    _write_csv(args, ("probe", "instance", "depth", "value"), rows)
    return 0


# -- argument parsing ---------------------------------------------------------------

def _integer(low: int, words: str):
    """An option type: an integer of at least `low`, else a usage error
    (exit 2) saying the text is not a `words` integer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {words} integer")
        return value
    return parse


def _user_list(text: str) -> str:
    """An option type: comma-separated integers, kept as written for the
    config echo; an empty or non-integer entry is a usage error (exit 2)."""
    try:
        for u in text.split(","):
            int(u)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None
    return text


# Options as (flag, add_argument keywords), in listing order.
_CHANNEL = ("--channel", {"required": True})
_DEPTH = ("--l", {"type": _integer(0, "non-negative"), "required": True})
_SEED = ("--seed", {"type": _integer(0, "non-negative"), "default": 0})
_MERGE = (("--merge-tol", {"type": float, "default": DEFAULT_MERGE_TOL}),
          ("--max-outputs", {"type": _integer(1, "positive"),
                             "default": MAX_BRANCH_OUTPUTS}))
_COMMON = (("--out", {"default": None, "help": "output file path"}),
           ("--no-timestamp", {"action": "store_true",
                               "help": "omit the timestamp header from outputs"}))

# Every subcommand, in listing order: name -> (help, handler, options).
# Each also takes the _COMMON options, last.
COMMANDS = {
    "analyze": ("rate bounds of a channel", cmd_analyze, (_CHANNEL,)),
    "polarize": ("per-level averages and branch stats", cmd_polarize,
                 (_CHANNEL, _DEPTH, *_MERGE)),
    "construct": ("build a code spec", cmd_construct,
                  (_CHANNEL, _DEPTH, ("--eps", {"type": float, "required": True}),
                   ("--z-budget", {"type": float, "required": True}), *_MERGE)),
    "simulate": ("Monte Carlo block-error run", cmd_simulate,
                 (("--codespec", {"required": True}), _CHANNEL,
                  ("--trials", {"type": _integer(1, "positive"), "required": True}),
                  _SEED)),
    "evolve": ("subspace-weight evolution of a linear-combination channel", cmd_evolve,
               (_CHANNEL, _DEPTH,
                ("--mode", {"default": "enumerate", "help": "enumerate or sample:N"}),
                _SEED)),
    "probe-conjectures": ("numeric probes of the open questions", cmd_probe_conjectures, (
        ("--grid", {"default": None,
                    "help": "total-loss probe grid: step:K or a JSON file"}),
        ("--l", {"type": _integer(0, "non-negative"), "default": 14}),
        ("--q", {"type": int, "default": None}),
        ("--m", {"type": _integer(1, "positive"), "default": None}),
        ("--users", {"type": _user_list, "default": None,
                     "help": "comma-separated user subset for the witness probe"}),
        ("--max-family", {"type": _integer(1, "positive"), "default": 2}))),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    """Give `parser` the options and handler of command `name`."""
    _, handler, options = COMMANDS[name]
    for flag, keywords in options + _COMMON:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="macpolar",
        description="Polar coding experiments for multiple access channels "
                    "over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The Namespace of `argv`, as the full parser gives it.  A parser of
    the named command alone is the full parser's subparser for it, help
    and errors included; a call it leaves arguments over from, or that
    names no command, goes to the full parser."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"macpolar {argv[0]}")
        _add_command(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:],
                                             argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (TooLargeError, TooDeepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # A table that cannot be allocated is a size limit too: one line,
        # not a traceback.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 3
    except (MacPolarError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
