"""File formats: channel specs, code specs and grids in JSON, results in CSV.

Two channel formats, told apart by their keys, one code-spec format and
one grid format:

explicit table            {"q": 2, "m": 2, "outputs": 4,
                           "rows": [[p, ...], ...]}
    rows are indexed by the input vector as a little-endian radix-q
    integer (user 1 least significant), one row per input, one column
    per output.

linear combination        {"q": 2, "m": 2,
                           "terms": [{"p": 0.2, "basis": [[1, 0]]}, ...]}
    each term carries a weight and a list of vectors spanning its
    subspace (an empty list is the zero subspace).

code spec                 {"eps": 0.2,
                           ...
                           "z_sum": [...]}
    one object holding a `CodeSpec`'s own columns, one key per line in
    sorted order: the header numbers, `rate_vector`, `shapes` (each
    distinct branch shape as an object, by first use), `shape_index` and
    the float columns `z_sum`, `i_branch` and `i_detected`.  No signature
    is stored: branch b's is all_sigs(l)[b].  Whether the columns are
    consistent is for `CodeSpec.check` to decide.

probe grid                [[p0, p1, p2, p3, p4], ...]
    a non-empty list of GF(2)^2 states for `probe-conjectures --grid`,
    five weights each, in `binary2_subspaces` order.  Whether each state
    is a distribution is for the caller to decide.

In every file an integer field refuses a boolean, a string or a fraction,
and a float field a boolean or a string.

CSV files start with an optional "# generated:" timestamp line (suppressed
for byte-reproducible runs) followed by a "# config:" echo of the resolved
run configuration; floats are written with repr so files round-trip.
"""

from __future__ import annotations

import datetime
import json
from operator import index

import numpy as np

from .errors import BadGridError, NonFiniteError, ParseError
from .linear_mac import LinearComboMac
from .mac import DiscreteMac, validate
from .polarize import BranchShape, CodeSpec
from .subspace import Subspace


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc


def channel_from_dict(data: dict, where: str = "<channel>"):
    """Build a DiscreteMac or LinearComboMac from parsed JSON."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    for key in ("q", "m"):
        if key not in data:
            raise ParseError(f"{where}: missing field {key!r}")
    try:
        q, m = _json_int(data["q"]), _json_int(data["m"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: q and m must be integers") from exc
    if m < 1:
        raise ParseError(f"{where}: m must be at least 1, got {m}")
    if "rows" in data:
        rows = data["rows"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ParseError(f"{where}: 'rows' must be a list of rows")
        count = len(rows)
        if abs(q) > 1 and (abs(q) > count or m > count.bit_length()):
            # Then |q|^m > count.  Refused before q^m is formed: m or q
            # may have any number of digits.
            raise ParseError(f"{where}: m = {m} asks for q^m rows with q = {q}, "
                             f"more than the {count} given")
        if count != q ** m:
            raise ParseError(f"{where}: 'rows' must list q^m = {q ** m} rows")
        try:
            n_out = _json_int(data.get("outputs", len(rows[0]) if rows else 0))
            rows = [_json_float_list(r) for r in rows]
            if any(len(r) != n_out for r in rows):
                raise ValueError(f"all rows must have {n_out} entries")
            mac = DiscreteMac(q, m, rows)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        validate(mac)
        return mac
    if "terms" in data:
        if not isinstance(data["terms"], list):
            raise ParseError(f"{where}: 'terms' must be a list")
        terms = []
        for i, term in enumerate(data["terms"]):
            if not isinstance(term, dict) or "p" not in term or "basis" not in term:
                raise ParseError(f"{where}: term {i} needs 'p' and 'basis'")
            try:
                basis = [_json_ints(v) for v in term["basis"]]
                terms.append((_json_float(term["p"]), Subspace.from_vectors(basis, m, q)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"{where}: term {i}: {exc}") from exc
        try:
            return LinearComboMac(q, m, terms)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{where}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: need either 'rows' or 'terms'")


def load_channel(path: str):
    return channel_from_dict(_load_json(path), where=path)


def load_codespec(path: str, check: bool = True) -> CodeSpec:
    """Read a code spec (ParseError if a field is missing or malformed)
    and, unless `check` is off, check its consistency (SpecMismatchError);
    `simulate` leaves that to its decoder set-up."""
    data = _load_json(path)
    try:
        spec = codespec_from_dict(data)
    except KeyError as exc:
        raise ParseError(f"{path}: bad code spec: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad code spec: {exc}") from exc
    if check:
        spec.check()
    return spec


def load_grid(path: str) -> list:
    """The states of a probe grid file, each a tuple of 5 floats."""
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise BadGridError(f"{path}: grid file must be a non-empty JSON list of states")
    try:
        states = [tuple(_json_float_list(row)) for row in data]
        if any(len(state) != 5 for state in states):
            raise ValueError("a state does not hold 5 entries")
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadGridError(f"{path}: every state must be a list of 5 numbers") from exc
    return states


def save_codespec(path: str, spec: CodeSpec) -> None:
    text = codespec_to_json(spec)       # first, so that a failure leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))


def codespec_from_dict(data: dict) -> CodeSpec:
    """The spec of a parsed code-spec object, each column read once.  A
    missing field raises KeyError, a malformed one TypeError or ValueError:
    a refused integer or float field, a negative l, or a non-boolean
    `in_good_set`.
    Whether the columns fit together is for `CodeSpec.check` to decide."""
    shapes = []
    for shape in data["shapes"]:
        good = shape["in_good_set"]
        if type(good) is not bool:
            raise ValueError(f"in_good_set {good!r} is not a boolean")
        shapes.append(BranchShape(good, _json_int(shape["r"]),
                                  tuple(map(_json_ints, shape["a_columns"])),
                                  _json_ints(shape["s_users"]), _json_ints(shape["frozen"])))
    z_sum, i_branch, i_detected = (np.array(_json_float_list(data[k]), dtype=float)
                                   for k in ("z_sum", "i_branch", "i_detected"))
    l = _json_int(data["l"])
    if l < 0:
        raise ValueError(f"l={l} is negative")
    return CodeSpec(q=_json_int(data["q"]), m=_json_int(data["m"]), l=l,
                    eps=_json_float(data["eps"]), z_budget=_json_float(data["z_budget"]),
                    merge_tol=_json_float(data["merge_tol"]), shapes=tuple(shapes),
                    shape_index=np.array(_json_ints(data["shape_index"]), dtype=np.intp),
                    z_sum=z_sum, i_branch=i_branch, i_detected=i_detected,
                    rate_vector=tuple(_json_float_list(data["rate_vector"])),
                    sum_rate=_json_float(data["sum_rate"]),
                    union_bound=_json_float(data["union_bound"]))


def codespec_to_json(spec: CodeSpec) -> str:
    """The spec's file text: one key per line, sorted, each value as
    `json.dumps(value, sort_keys=True)` writes it."""
    fields = {k: getattr(spec, k) for k in (
        "eps", "l", "m", "merge_tol", "q", "rate_vector", "sum_rate", "union_bound",
        "z_budget")}
    fields.update(shapes=[shape._asdict() for shape in spec.shapes],
                  **{k: getattr(spec, k).tolist() for k in (
                      "shape_index", "z_sum", "i_branch", "i_detected")})
    return "{\n" + ",\n".join(f' "{k}": {json.dumps(fields[k], sort_keys=True)}'
                               for k in sorted(fields)) + "\n}"


def _json_int(value) -> int:
    """An integer field of a JSON file: an integer, or a float with an
    integral value (int() would truncate 2.6 to 2).  A boolean is refused,
    although Python counts it as an int, and so is a string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{value!r} is not an integer")


def _json_ints(values) -> tuple:
    """A JSON list of integers as a tuple of ints, by `_json_int`; plain
    ints, the usual case, are checked in one pass."""
    if not isinstance(values, list):
        raise TypeError(f"{values!r} is not an integer list")
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(map(_json_int, values))


def _json_float(value) -> float:
    """A float field of a JSON file: a number, not a boolean or a string."""
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{value!r} is not a number")


def _json_float_list(values) -> list:
    """A JSON list of numbers as floats, by `_json_float`; plain floats and
    ints, the usual case, are checked in one pass."""
    if not isinstance(values, list):
        raise TypeError(f"{values!r} is not a number list")
    if set(map(type, values)) <= {float, int}:
        return list(map(float, values))
    return list(map(_json_float, values))


def fmt(value) -> str:
    """Deterministic cell formatting; repr for floats round-trips exactly."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, columns, rows, config: dict,
              timestamp: bool = True) -> None:
    lines = []
    if timestamp:
        lines.append(f"# generated: {datetime.datetime.now().isoformat()}")
    lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
