"""Network JSON schema and sweep CSV output.

The JSON layout is strict: unknown fields are rejected at both the document
and node level, node values are per-unit floats, and the base declarations
(s_base_mva, v_base_kv) travel with the file for SI conversion bookkeeping.

The CSV columns are ``SweepRow``'s fields in their declared order, each
formatted by its declared type (floats at 9 significant digits, booleans in
lower case). An error row leaves the fields a solve fills blank, and a field
that holds a comma or a quote is quoted.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import typing
from pathlib import Path

from .errors import InvalidNetwork
from .network import Network, NodeSpec, build_network, node_specs
from .sweep import SOLVED_FIELDS, SweepRow

_DOC_FIELDS = {"s_base_mva", "v_base_kv", "mu_lo", "mu_hi", "nu0", "nodes"}
# a node row is a NodeSpec without its label: labels are not stored
_NODE_FIELDS = {f.name for f in dataclasses.fields(NodeSpec)} - {"label"}


def network_to_json(net: Network) -> str:
    """The network as a JSON document, declaring the study bases 1 MVA, 4 kV."""
    doc = {
        "s_base_mva": 1.0,
        "v_base_kv": 4.0,
        "mu_lo": net.mu_lo,
        "mu_hi": net.mu_hi,
        "nu0": net.nu0,
        "nodes": [{f: getattr(spec, f) for f in _NODE_FIELDS} for spec in node_specs(net)],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _number(field: str, value):
    """``value`` if it is a finite JSON number (true and false are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidNetwork(f"{field} must be a finite number, not {value!r}")
    return value


def _integer(field: str, value) -> int:
    """``value`` as an int if it is a finite JSON number without a fraction."""
    if _number(field, value) != int(value):
        raise InvalidNetwork(f"{field} must be an integer, not {value!r}")
    return int(value)


def _check_fields(row: dict, fields: set[str], message: str) -> None:
    """Reject ``row``'s unknown fields, then its missing ones; ``message``
    takes the word ("unknown" or "missing") and the sorted field names."""
    for word, names in (("unknown", set(row) - fields), ("missing", fields - set(row))):
        if names:
            raise InvalidNetwork(message.format(word, sorted(names)))


def network_from_json(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidNetwork(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidNetwork("top-level JSON value must be an object")
    _check_fields(doc, _DOC_FIELDS, "{} fields {} in network document")

    for field in sorted(_DOC_FIELDS - {"nodes"}):
        _number(field, doc[field])
    if not isinstance(doc["nodes"], list):
        raise InvalidNetwork("nodes must be a list of node objects")

    specs = []
    for row in doc["nodes"]:
        if not isinstance(row, dict):
            raise InvalidNetwork(f"node {row!r} is not an object")
        _check_fields(row, _NODE_FIELDS, "{} node fields {}")
        specs.append(
            NodeSpec(
                id=_integer("id", row["id"]),
                parent=None if row["parent"] is None else _integer("parent", row["parent"]),
                **{f: float(_number(f, row[f])) for f in sorted(_NODE_FIELDS - {"id", "parent"})},
            )
        )
    return build_network(
        specs,
        nu0=float(doc["nu0"]),
        mu_lo=float(doc["mu_lo"]),
        mu_hi=float(doc["mu_hi"]),
    )


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(network_to_json(net), encoding="utf-8")


def load_network(path: str | Path) -> Network:
    return network_from_json(Path(path).read_text(encoding="utf-8"))


# one formatter per declared SweepRow field type
_FORMATS = {float: "{:.9g}".format, bool: lambda v: str(v).lower(), int: str, str: str}
_COLUMNS = tuple((name, _FORMATS[kind]) for name, kind in typing.get_type_hints(SweepRow).items())
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def sweep_rows_to_csv(rows) -> str:
    """Render sweep rows under ``CSV_HEADER``, one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(name for name, _ in _COLUMNS)
    writer.writerows(
        ["" if row.error and name in SOLVED_FIELDS else fmt(getattr(row, name)) for name, fmt in _COLUMNS]
        for row in rows
    )
    return out.getvalue()
