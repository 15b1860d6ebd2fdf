"""Reference datasets and the machinery that recomputes and diffs them.

Every JSON document under quadpartitions/reference pins one frozen table
of values.  verify_document recomputes the table from scratch with the exact
engine and reports each mismatch as a diff line; an empty diff means the
dataset reproduces bit for bit.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .contfrac import build_context, floor_ratio_eps
from .field import Field, QElement
from .partition import PartitionGrid, cone_rows
from .search import search_m, slice_element, slice_rows

__all__ = [
    "MalformedDocument",
    "builtin_documents",
    "load_documents",
    "verify_document",
    "verify_documents",
]


def builtin_documents() -> list[dict]:
    """The reference documents shipped inside the package, in name order."""
    root = resources.files("quadpartitions") / "reference"
    docs = []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".json"):
            docs.append(json.loads(entry.read_text(encoding="utf-8")))
    return docs


def load_documents(path: str | Path) -> list[dict]:
    """Documents from a JSON file or from every *.json in a directory.

    Raises ValueError for a file that is not JSON, and MalformedDocument (a
    ValueError) for a document that _check_document rejects.
    """
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    for doc in docs:
        _check_document(doc)
    return docs


def _diff_rows(doc: dict, rows: Sequence[Sequence[int]], at: str) -> list[str]:
    """One diff line per cell of doc["rows"] that differs from rows.

    at places a cell by its row r and column c.  A document cell outside rows,
    the box its own header defines, compares against None.
    """
    diffs = []
    for r, expected_row in enumerate(doc["rows"]):
        row = rows[r] if r < len(rows) else ()
        for c, expected in enumerate(expected_row):
            got = row[c] if c < len(row) else None
            if got != expected:
                diffs.append(
                    f"{doc['name']}: D={doc['D']} {at.format(r=r, c=c)} "
                    f"expected={expected} got={got}"
                )
    return diffs


def _diff_grid_xy(doc: dict) -> list[str]:
    rows = cone_rows(Field(doc["D"]), doc["max_x"])
    return _diff_rows(doc, rows, "x={c} y={r}")


def _diff_slice_ky(doc: dict) -> list[str]:
    rows = slice_rows(Field(doc["D"]), doc["k_max"], doc["y_max"])
    return _diff_rows(doc, rows, "y={r} k={c}")


def _diff_units(doc: dict) -> list[str]:
    diffs = []
    for row in doc["rows"]:
        D = row["D"]
        field = Field(D)
        ctx = build_context(field)
        ep = ctx.eps_plus
        if (ep.a, ep.b) != (row["eps_plus"]["a"], row["eps_plus"]["b"]):
            diffs.append(
                f"{doc['name']}: D={D} eps_plus expected="
                f"({row['eps_plus']['a']},{row['eps_plus']['b']}) got=({ep.a},{ep.b})"
            )
        fr = floor_ratio_eps(ctx)
        if fr != row["floor_ratio"]:
            diffs.append(
                f"{doc['name']}: D={D} floor_ratio expected={row['floor_ratio']} got={fr}"
            )
        corner = slice_element(field, 0, row["y_max"])
        got = PartitionGrid(field).count(corner)
        if got != row["corner_count"]:
            diffs.append(
                f"{doc['name']}: D={D} y={row['y_max']} k=0 "
                f"expected={row['corner_count']} got={got}"
            )
    return diffs


def _diff_representatives(doc: dict) -> list[str]:
    diffs = []
    for entry in doc["fields"]:
        D = entry["D"]
        field = Field(D)
        ctx = build_context(field)
        report = search_m(ctx, doc["m_max"])
        for m in range(1, doc["m_max"] + 1):
            expected = {(o["a"], o["b"]) for o in entry["by_m"][str(m)]}
            got = {(e.a, e.b) for e in report.representatives[m]}
            if expected != got:
                exp_txt = sorted(str(QElement(field, a, b)) for a, b in expected)
                got_txt = sorted(str(QElement(field, a, b)) for a, b in got)
                diffs.append(
                    f"{doc['name']}: D={D} m={m} expected={exp_txt} got={got_txt}"
                )
    return diffs


class MalformedDocument(ValueError):
    """A reference document that cannot be recomputed as it stands."""


# Each kind: the function that recomputes it, the keys of its header, then
# the key of its list of per-field entries (if any) and the keys of each entry.
_KINDS = {
    "grid_xy": (_diff_grid_xy, ("D", "max_x", "rows"), None, ()),
    "slice_ky": (_diff_slice_ky, ("D", "k_max", "y_max", "rows"), None, ()),
    "units": (_diff_units, ("rows",), "rows", ("D", "eps_plus", "floor_ratio", "y_max", "corner_count")),
    "representatives": (_diff_representatives, ("m_max", "fields"), "fields", ("D", "by_m")),
}
_SIZES = {"max_x", "k_max", "y_max", "m_max"}


def _check_document(doc: dict) -> None:
    """Raise MalformedDocument unless doc can be recomputed as it stands.

    A document is an object with a name and a known kind, holding every key
    its kind reads, in its header and in each per-field entry.  The sizes
    (max_x, k_max, y_max, m_max) are nonnegative integers, rows and fields
    are lists, and every D is a valid Field discriminant.  Only the document
    is read here; nothing is recomputed.
    """
    if not isinstance(doc, dict) or "name" not in doc:
        raise MalformedDocument("a document that is not an object with a name")
    name = doc["name"]
    if doc.get("kind") not in _KINDS:
        raise MalformedDocument(f"{name}: unknown document kind {doc.get('kind')!r}")
    _, header, listed, entry_keys = _KINDS[doc["kind"]]
    parts = [(doc, header)]
    if listed is not None and isinstance(doc.get(listed), list):
        parts += [(entry, entry_keys) for entry in doc[listed]]
    for part, keys in parts:
        if not isinstance(part, dict):
            raise MalformedDocument(f"{name}: an entry of {listed!r} is not an object")
        for key in keys:
            reason = _check_value(key, part[key]) if key in part else f"missing key {key!r}"
            if reason:
                raise MalformedDocument(f"{name}: {reason}")


def _check_value(key: str, value: object) -> str | None:
    """Why value cannot stand under key, or None when it can."""
    if key in ("rows", "fields"):
        return None if isinstance(value, list) else f"{key} must be a list"
    if key == "D":
        try:
            Field(value)
        except ValueError as exc:
            return str(exc)
    elif key in _SIZES and (type(value) is not int or value < 0):
        return f"{key} must be a nonnegative integer, got {value!r}"
    return None


def verify_document(doc: dict) -> list[str]:
    """Recompute one reference document; the list of diff lines (empty = pass).

    A document that _check_document rejects raises MalformedDocument before
    anything is recomputed; errors raised while recomputing propagate as they
    are.
    """
    _check_document(doc)
    return _KINDS[doc["kind"]][0](doc)


def verify_documents(docs: Iterable[dict]) -> list[tuple[str, list[str]]]:
    """(name, diffs) for each document."""
    return [(doc["name"], verify_document(doc)) for doc in docs]
