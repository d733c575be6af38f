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

CSV files start with an optional "# generated:" timestamp line (suppressed
for byte-reproducible runs) followed by a "# config:" echo of the resolved
run configuration; floats are written with repr so files round-trip.
"""

from __future__ import annotations

import datetime
import json

from .errors import NonFiniteError, ParseError
from .linear_mac import LinearComboMac
from .mac import DiscreteMac, validate
from .polarize import CodeSpec
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
        q, m = int(data["q"]), int(data["m"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: q and m must be integers") from exc
    if m < 1:
        raise ParseError(f"{where}: m must be at least 1, got {m}")
    if "rows" in data:
        rows = data["rows"]
        if (not isinstance(rows, list) or len(rows) != q ** m
                or any(not isinstance(r, list) for r in rows)):
            raise ParseError(f"{where}: 'rows' must list q^m = {q ** m} rows")
        n_out = data.get("outputs", len(rows[0]))
        if any(len(r) != n_out for r in rows):
            raise ParseError(f"{where}: all rows must have {n_out} entries")
        try:
            mac = DiscreteMac(q, m, rows)
        except ValueError as exc:
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
                terms.append((float(term["p"]), Subspace.from_vectors(term["basis"], m, q)))
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


def load_codespec(path: str) -> CodeSpec:
    """Read a code spec and check its consistency (SpecMismatchError)."""
    data = _load_json(path)
    try:
        spec = CodeSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad code spec: {exc}") from exc
    spec.check()
    return spec


def save_codespec(path: str, spec: CodeSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
        fh.write("\n")


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
