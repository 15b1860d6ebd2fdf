"""Deterministic JSON forms for elements and search reports.

The JSON layer is lossless for arbitrary-precision counts (Python's json
reads and writes big ints natively) and canonical: keys are sorted and the
separators fixed, so equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .field import QElement
from .search import SearchReport

__all__ = [
    "dumps_canonical",
    "element_to_obj",
    "report_to_obj",
]


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def element_to_obj(e: QElement) -> dict:
    return {"a": e.a, "b": e.b, "text": str(e)}


def report_to_obj(report: SearchReport) -> dict:
    return {
        "D": report.field.D,
        "m_max": report.m_max,
        "k_max": report.k_max,
        "y_max": report.y_max,
        "slice": [list(row) for row in report.slice_counts],
        "representatives": {
            str(m): [element_to_obj(e) for e in report.representatives.get(m, ())]
            for m in range(1, report.m_max + 1)
        },
    }
