"""File formats: channel specs in JSON, code specs in JSON, results in CSV.

Two channel formats are accepted and distinguished by their keys:

explicit table            {"q": 2, "m": 2, "outputs": 4,
                           "rows": [[p, ...], ...]}
    rows are indexed by the input vector as a little-endian radix-q
    integer (user 1 least significant), one row per input, one column
    per output.

linear combination        {"q": 2, "m": 2,
                           "terms": [{"p": 0.2, "basis": [[1, 0]]}, ...]}
    each term carries a weight and a list of vectors spanning its
    subspace (an empty list is the zero subspace).

A code spec is the text `json.dumps(..., sort_keys=True, indent=1)` gives
a `CodeSpec`, written per branch shape and read into the spec's columns;
whether it is consistent is for `CodeSpec.check` to decide.
In every file an integer field refuses a boolean, a string or a fraction,
and a float field a boolean or a string.

CSV files start with an optional "# generated:" timestamp line (suppressed
for byte-reproducible runs) followed by a "# config:" echo of the resolved
run configuration; floats are written with repr so files round-trip.
"""

from __future__ import annotations

import datetime
import json
from itertools import chain, islice
from operator import index, itemgetter

import numpy as np

from .errors import NonFiniteError, ParseError, SpecMismatchError
from .linear_mac import LinearComboMac
from .mac import DiscreteMac, validate
from .polarize import BranchShape, CodeSpec, all_sigs
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
        if (not isinstance(rows, list) or len(rows) != q ** m
                or any(not isinstance(r, list) for r in rows)):
            raise ParseError(f"{where}: 'rows' must list q^m = {q ** m} rows")
        try:
            n_out = _json_int(data.get("outputs", len(rows[0]) if rows else 0))
            rows = [_json_float_list(r) for r in rows]
            if any(len(r) != n_out for r in rows):
                raise ValueError(f"all rows must have {n_out} entries")
            mac = DiscreteMac(q, m, rows)
        except (TypeError, ValueError) as exc:
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
            except (TypeError, ValueError) as exc:
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
    """Read a code spec and, unless `check` is off, check its consistency
    (SpecMismatchError); `simulate` leaves that to its decoder set-up."""
    data = _load_json(path)
    try:
        spec = codespec_from_dict(data)
    except SpecMismatchError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad code spec: {exc}") from exc
    if check:
        spec.check()
    return spec


def save_codespec(path: str, spec: CodeSpec) -> None:
    text = codespec_to_json(spec)       # first, so that a failure leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines((text, "\n"))


def codespec_from_dict(data: dict) -> CodeSpec:
    """The spec of a parsed JSON object, read into columns.  A missing field
    raises KeyError, a malformed one TypeError or ValueError: a refused
    integer or float field, or a non-boolean `in_good_set`.  Signatures are
    not kept: with 2^l branches and m rates, any but `all_sigs(l)` raise
    SpecMismatchError; other inconsistencies are for `CodeSpec.check`."""
    rows = data["branches"]
    sigs, good, r, a_columns, s_users, frozen, *floats = (
        list(map(itemgetter(name), rows)) for name in _BRANCH_KEYS)
    for g in good:
        if type(g) is not bool:
            raise ValueError(f"in_good_set {g!r} is not a boolean")
    if not set(map(type, a_columns)) <= {list}:
        raise TypeError("a_columns must be lists of columns")
    flat = iter(_json_int_rows(list(chain.from_iterable(a_columns))))
    a_columns = [tuple(islice(flat, len(cols))) for cols in a_columns]
    shapes = {}
    shape_index = [shapes.setdefault(shape, len(shapes)) for shape in zip(
        good, _json_int_rows([r])[0], a_columns, _json_int_rows(s_users),
        _json_int_rows(frozen))]
    z_sum, i_branch, i_detected = (np.array(_json_float_list(c), dtype=float) for c in floats)
    spec = CodeSpec(q=_json_int(data["q"]), m=_json_int(data["m"]), l=_json_int(data["l"]),
                    eps=_json_float(data["eps"]), z_budget=_json_float(data["z_budget"]),
                    merge_tol=_json_float(data["merge_tol"]),
                    shapes=tuple(map(BranchShape._make, shapes)),
                    shape_index=np.array(shape_index, dtype=np.intp), z_sum=z_sum,
                    i_branch=i_branch, i_detected=i_detected,
                    rate_vector=tuple(_json_float_list(data["rate_vector"])),
                    sum_rate=_json_float(data["sum_rate"]),
                    union_bound=_json_float(data["union_bound"]))
    if (len(sigs) == spec.block_length and len(spec.rate_vector) == spec.m
            and sigs != all_sigs(spec.l)):
        raise SpecMismatchError(f"branch signatures are not the {len(sigs)} of "
                                f"length {spec.l} in decoding order")
    return spec


def codespec_to_json(spec: CodeSpec) -> str:
    """The spec as `json.dumps(..., sort_keys=True, indent=1)` writes it,
    from one branch text per shape: only a branch's signature and three
    floats are formatted per branch.  Shape integers are written with
    int.__repr__ (a bool as 0 or 1), and `in_good_set` as a boolean."""
    def text(values):
        return _json_list([_json_list(list(map(int.__repr__, v)), 4)
                           if isinstance(v, tuple) else int.__repr__(v) for v in values], 3)

    templates = [_BRANCH % (text(a_cols), text(frozen), "true" if good else "false",
                            int.__repr__(r), text(s_users))
                 for good, r, a_cols, s_users, frozen in spec.shapes]
    z_sum, i_branch, i_detected = (_json_floats(column.tolist()) for column in (
        spec.z_sum, spec.i_branch, spec.i_detected))
    body = [templates[i] % (ib, idt, sig, zs) for i, ib, idt, sig, zs in zip(
        spec.shape_index.tolist(), i_branch, i_detected, spec.sigs(), z_sum)]
    fields = {k: _json_number(getattr(spec, k)) for k in (
        "eps", "l", "m", "merge_tol", "q", "sum_rate", "union_bound", "z_budget")}
    fields.update(branches=_json_list(body, 1),
                  rate_vector=_json_list(list(map(_json_number, spec.rate_vector)), 1))
    return "{\n" + ",\n".join(f' "{k}": {fields[k]}' for k in sorted(fields)) + "\n}"


# One shape's branch object at the depth json.dumps(indent=1) gives it, keys
# sorted; its %%s then take a branch's i_branch, i_detected, sig and z_sum.
_BRANCH = """{
   "a_columns": %s,
   "frozen": %s,
   "i_branch": %%s,
   "i_detected": %%s,
   "in_good_set": %s,
   "r": %s,
   "s_users": %s,
   "sig": "%%s",
   "z_sum": %%s
  }"""
_BRANCH_KEYS = ("sig", "in_good_set", "r", "a_columns", "s_users", "frozen",
                "z_sum", "i_branch", "i_detected")
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_list(items: list, depth: int) -> str:
    """A JSON list of formatted items, nested `depth` levels deep, as
    json.dumps(indent=1) writes it."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _json_floats(values) -> list:
    """Floats (np.float64 among them) as json writes them: repr, with
    NaN and the infinities spelled as JavaScript spells them."""
    texts = list(map(float.__repr__, values))
    if "nan" in texts or "inf" in texts or "-inf" in texts:
        texts = [_NON_FINITE.get(t, t) for t in texts]
    return texts


def _json_number(value) -> str:
    """A header number as json writes it, int or float."""
    return _json_floats([value])[0] if isinstance(value, float) else int.__repr__(value)


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
    """A JSON list of integers as a tuple of ints, by `_json_int`."""
    if not isinstance(values, list):
        raise TypeError(f"{values!r} is not an integer list")
    return tuple(map(_json_int, values))


def _json_int_rows(rows: list) -> list:
    """JSON lists of integers as tuples of ints, one per row, by
    `_json_ints`.  Lists of plain ints, the usual case, are checked in one
    pass over all their entries."""
    if (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return list(map(tuple, rows))
    return list(map(_json_ints, rows))


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
