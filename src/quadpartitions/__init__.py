"""Exact partition counts for totally positive elements of real quadratic fields.

The package computes, in exact integer arithmetic throughout, the number of
ways to write a totally positive element of the ring of integers of Q(sqrt(D))
as an unordered sum of totally positive elements.  It also enumerates the
indecomposable elements and the fundamental unit via the continued fraction
expansion of the associated purely periodic surd, studies the parity of the
cumulative counting function, and searches for all elements with a prescribed
number of partitions.
"""

from .contfrac import (
    FieldContext,
    build_context,
    expand_sigma,
    floor_ratio_eps,
    indecomposables,
)
from .errors import BudgetExceeded, DivisibilityViolation, InvariantViolation
from .field import Field, QElement, is_squarefree
from .oracle import count_partitions, enumerate_partitions
from .parity import (
    ParityReport,
    cumulative_P,
    parity_check,
    trace_layer_count,
)
from .partition import (
    GridPool,
    PartitionGrid,
    asymptotic_estimate,
    cone_columns,
    diagonal_parity,
    enumerate_interval,
    p_rational,
    sigma_K,
)
from .search import (
    SearchReport,
    dm_scan,
    en_fn_bounds,
    exhaustive_scan_range,
    fundamental_representative,
    in_fundamental_domain,
    search_m,
    slice_element,
    witness_m4,
    witness_m6,
)
from .serialize import (
    dumps_canonical,
    element_to_obj,
    report_to_obj,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DivisibilityViolation",
    "Field",
    "FieldContext",
    "GridPool",
    "InvariantViolation",
    "ParityReport",
    "PartitionGrid",
    "QElement",
    "SearchReport",
    "__version__",
    "asymptotic_estimate",
    "build_context",
    "cone_columns",
    "count_partitions",
    "cumulative_P",
    "diagonal_parity",
    "dm_scan",
    "dumps_canonical",
    "element_to_obj",
    "en_fn_bounds",
    "enumerate_interval",
    "enumerate_partitions",
    "exhaustive_scan_range",
    "expand_sigma",
    "floor_ratio_eps",
    "fundamental_representative",
    "in_fundamental_domain",
    "indecomposables",
    "is_squarefree",
    "p_rational",
    "parity_check",
    "report_to_obj",
    "search_m",
    "sigma_K",
    "slice_element",
    "trace_layer_count",
    "witness_m4",
    "witness_m6",
]
