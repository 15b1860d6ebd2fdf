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
from .search import classify_m, slice_element, slice_rows

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
        report = classify_m(ctx, doc["m_max"])
        for m in range(1, doc["m_max"] + 1):
            expected = {(o["a"], o["b"]) for o in entry["by_m"][str(m)]}
            got = {(e.a, e.b) for e in report.representatives.get(m, ())}
            if expected != got:
                exp_txt = sorted(str(QElement(field, a, b)) for a, b in expected)
                got_txt = sorted(str(QElement(field, a, b)) for a, b in got)
                diffs.append(
                    f"{doc['name']}: D={D} m={m} expected={exp_txt} got={got_txt}"
                )
    return diffs


class MalformedDocument(ValueError):
    """A reference document that cannot be recomputed as it stands."""


def _size(key: str, value: object, doc: dict) -> str | None:
    if type(value) is not int or value < 0:
        return f"{key} must be a nonnegative integer, got {value!r}"
    return None


def _positive(key: str, value: object, doc: dict) -> str | None:
    # m_max = 0 has no k_max, and y_max = 0 puts a units corner at 0.
    if type(value) is not int or value < 1:
        return f"{key} must be a positive integer, got {value!r}"
    return None


def _integer(key: str, value: object, doc: dict) -> str | None:
    return None if type(value) is int else f"{key} must be an integer, got {value!r}"


def _discriminant(key: str, value: object, doc: dict) -> str | None:
    try:
        Field(value)
    except ValueError as exc:
        return str(exc)
    return None


def _list(key: str, value: object, doc: dict) -> str | None:
    return None if isinstance(value, list) else f"{key} must be a list"


def _int_rows(key: str, value: object, doc: dict) -> str | None:
    if not isinstance(value, list):
        return f"{key} must be a list"
    if all(type(row) is list and all(type(v) is int for v in row) for row in value):
        return None
    return f"{key} must be a list of lists of integers"


def _is_pair(value: object) -> bool:
    return isinstance(value, dict) and type(value.get("a")) is int and type(value.get("b")) is int


def _pair(key: str, value: object, doc: dict) -> str | None:
    return None if _is_pair(value) else f"{key} must be an object with integer a and b"


def _by_m(key: str, value: object, doc: dict) -> str | None:
    # Exactly m_max keys, so the set compared below is no larger than the document.
    m_max = doc["m_max"]
    keys_ok = isinstance(value, dict) and len(value) == m_max and set(value) == set(map(str, range(1, m_max + 1)))
    if not keys_ok:
        return f"{key} must be an object with the keys '1'..'{m_max}'"
    for m, found in value.items():
        if not isinstance(found, list) or not all(map(_is_pair, found)):
            return f"{key}[{m!r}] must be a list of objects with integer a and b"
    return None


# Each kind: the function that recomputes it, the checks of its header's
# keys, then the key of its list of per-field entries (if any) and the
# checks of each entry's keys.  The header is checked before the entries.
_KINDS = {
    "grid_xy": (_diff_grid_xy, {"D": _discriminant, "max_x": _size, "rows": _int_rows}, None, {}),
    "slice_ky": (
        _diff_slice_ky,
        {"D": _discriminant, "k_max": _size, "y_max": _size, "rows": _int_rows},
        None,
        {},
    ),
    "units": (
        _diff_units,
        {"rows": _list},
        "rows",
        {"D": _discriminant, "eps_plus": _pair, "floor_ratio": _integer, "y_max": _positive, "corner_count": _integer},
    ),
    "representatives": (
        _diff_representatives,
        {"m_max": _positive, "fields": _list},
        "fields",
        {"D": _discriminant, "by_m": _by_m},
    ),
}


def _check_document(doc: dict) -> None:
    """Raise MalformedDocument unless doc can be recomputed as it stands.

    A document is an object with a string name and a known kind, holding
    every key its kind reads, in its header and in each per-field entry,
    each of the type its diff reads: sizes are nonnegative integers
    (m_max and a units y_max positive), rows of cells are lists of lists
    of integers, rows and fields are lists, eps_plus and each listed
    representative are objects with integer a and b, by_m holds a list of
    them under each of "1".."m_max", and every D is a valid Field
    discriminant.  Only the document is read here; nothing is recomputed.
    """
    if not isinstance(doc, dict) or type(doc.get("name")) is not str:
        raise MalformedDocument("a document that is not an object with a string name")
    name = doc["name"]
    if doc.get("kind") not in _KINDS:
        raise MalformedDocument(f"{name}: unknown document kind {doc.get('kind')!r}")
    _, header, listed, entry_checks = _KINDS[doc["kind"]]
    parts = [(doc, header)]
    if listed is not None and isinstance(doc.get(listed), list):
        parts += [(entry, entry_checks) for entry in doc[listed]]
    for part, checks in parts:
        if not isinstance(part, dict):
            raise MalformedDocument(f"{name}: an entry of {listed!r} is not an object")
        for key, check in checks.items():
            reason = check(key, part[key], doc) if key in part else f"missing key {key!r}"
            if reason:
                raise MalformedDocument(f"{name}: {reason}")


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
