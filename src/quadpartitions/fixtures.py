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
from .partition import GridPool, cone_rows
from .search import search_m, slice_element, slice_rows

__all__ = [
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
    """Documents from a JSON file or from every *.json in a directory."""
    p = Path(path)
    if p.is_dir():
        return [
            json.loads(f.read_text(encoding="utf-8")) for f in sorted(p.glob("*.json"))
        ]
    return [json.loads(p.read_text(encoding="utf-8"))]


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


def _diff_grid_xy(doc: dict, pool: GridPool) -> list[str]:
    rows = cone_rows(pool.grid(Field(doc["D"])), doc["max_x"])
    return _diff_rows(doc, rows, "x={c} y={r}")


def _diff_slice_ky(doc: dict, pool: GridPool) -> list[str]:
    rows = slice_rows(pool.grid(Field(doc["D"])), doc["k_max"], doc["y_max"])
    return _diff_rows(doc, rows, "y={r} k={c}")


def _diff_units(doc: dict, pool: GridPool) -> list[str]:
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
        got = pool.grid(field).count(corner)
        if got != row["corner_count"]:
            diffs.append(
                f"{doc['name']}: D={D} y={row['y_max']} k=0 "
                f"expected={row['corner_count']} got={got}"
            )
    return diffs


def _diff_representatives(doc: dict, pool: GridPool) -> list[str]:
    diffs = []
    for entry in doc["fields"]:
        D = entry["D"]
        field = Field(D)
        ctx = build_context(field)
        report = search_m(ctx, doc["m_max"], pool.grid(field))
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


_DISPATCH = {
    "grid_xy": _diff_grid_xy,
    "slice_ky": _diff_slice_ky,
    "units": _diff_units,
    "representatives": _diff_representatives,
}


def verify_document(doc: dict, pool: GridPool | None = None) -> list[str]:
    """Recompute one reference document; the list of diff lines (empty = pass)."""
    try:
        handler = _DISPATCH[doc["kind"]]
    except KeyError:
        raise ValueError(f"unknown document kind {doc.get('kind')!r}") from None
    return handler(doc, pool if pool is not None else GridPool())


def verify_documents(
    docs: Iterable[dict], pool: GridPool | None = None
) -> list[tuple[str, list[str]]]:
    """(name, diffs) for each document, sharing one grid pool."""
    shared = pool if pool is not None else GridPool()
    return [(doc["name"], verify_document(doc, shared)) for doc in docs]
