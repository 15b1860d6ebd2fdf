"""Per-layer spans and counters for the traced run.

The tracer wraps the program's public functions from outside: it replaces
class attributes (PartitionGrid.ensure, QElement.sign, ...) and every module
global that names a wrapped function (cli imports search_m, build_context,
dumps_canonical and others by name, so the copies in cli, search, fixtures
and parity are replaced too).  Nothing is changed inside src/.

A span records its name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; the spans of one job are strictly nested,
so the children never overlap.  Calls too cheap to time (cell reads, sign
tests, floors) are only counted.

Counts labelled "computed" (cells, multiply-adds, slice elements, x_top) are
derived after each job from PartitionGrid.column_window, Field floors and the
returned SearchReport, not from timing, and repeat exactly from run to run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (metric name, unit, better).  The metrics of the traced run, in print order.
LAYER_METRICS = (
    ("partition.ensure_s", "s", "lower"),
    ("partition.cells", "count", "lower"),
    ("partition.madds", "count", "lower"),
    ("partition.madds_per_s", "1/s", "higher"),
    ("partition.columns", "count", "lower"),
    ("partition.peak_cells", "count", "lower"),
    ("partition.reads", "count", "lower"),
    ("partition.useful_frac", "ratio", "higher"),
    ("partition.pool_lookups", "count", "lower"),
    ("partition.pool_hit_frac", "ratio", "higher"),
    ("search.scan_s", "s", "lower"),
    ("search.slice_elements", "count", "lower"),
    ("search.x_top", "count", "lower"),
    ("search.domain_tests", "count", "lower"),
    ("search.reps", "count", "higher"),
    ("search.dm_s", "s", "lower"),
    ("contfrac.context_s", "s", "lower"),
    ("contfrac.context_calls", "count", "lower"),
    ("contfrac.period_len", "count", "lower"),
    ("field.sign_calls", "count", "lower"),
    ("field.floor_calls", "count", "lower"),
    ("oracle.enumerate_s", "s", "lower"),
    ("oracle.partitions", "count", "lower"),
    ("parity.recurrence_s", "s", "lower"),
    ("parity.check_s", "s", "lower"),
    ("parity.diag_frac", "ratio", "higher"),
    ("fixtures.verify_s", "s", "lower"),
    ("fixtures.docs", "count", "higher"),
    ("fixtures.diff_lines", "count", "lower"),
    ("serialize.dumps_s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

COMPUTED = {"partition.cells", "partition.madds", "search.slice_elements", "search.x_top"}

# Span name -> metric that receives its summed self time.
_SELF_TIME = {
    "partition.ensure": "partition.ensure_s",
    "search.search_m": "search.scan_s",
    "contfrac.build_context": "contfrac.context_s",
    "oracle.enumerate_partitions": "oracle.enumerate_s",
    "parity.cumulative_P": "parity.recurrence_s",
    "parity.parity_check": "parity.check_s",
    "fixtures.verify_documents": "fixtures.verify_s",
    "serialize.dumps_canonical": "serialize.dumps_s",
    "cli.main": "cli.self_s",
}


def grid_counts(grid) -> tuple[int, int, int]:
    """(columns, cells, multiply-adds) of a grid, from its column windows.

    Column x holds |W(x)| cells.  For each cell and each u < x the recurrence
    walks the v with v in W(u) and y - v in W(x - u); since W(u) + W(x - u)
    lies inside W(x), those pairs number |W(u)| * |W(x - u)| summed over the
    cells of column x.  One step is one multiply-add per coordinate.
    """
    X = grid.max_x
    size = [0] * (X + 1)
    for x in range(1, X + 1):
        lo, hi = grid.column_window(x)
        size[x] = hi - lo + 1
    madds = sum(size[u] * size[x - u] for x in range(2, X + 1) for u in range(1, x))
    return X, sum(size), madds


def slice_counts(report) -> tuple[int, int]:
    """(slice elements, x_top) of a SearchReport: the box search_m fills."""
    elements = (report.y_max + 1) * (report.k_max + 1) - 1  # (0, 0) is not an element
    return elements, report.field.ceil_xi_mult(report.y_max) + report.k_max


class Tracer:
    """Installs the wrappers, records spans and counts, and restores on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job = -1
        self.count: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reports: list = []  # every SearchReport, for the computed slice counts
        self.peak_cells = 0
        # Per-job state, folded into the counts by end_job().
        self._grids: list = []
        self._reads: set = set()
        self._pools: set = set()
        self._dumps: list[str] = []
        self._parity: list[tuple[object, int]] = []

    # ----- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace_everywhere(self, modules, orig, new) -> None:
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, name, new)

    def install(self) -> None:
        from quadpartitions import cli, contfrac, field, fixtures, oracle, parity, partition, search, serialize

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "quadpartitions"]
        count = self.count
        grids, reads, pools = self._grids, self._reads, self._pools

        PG = partition.PartitionGrid
        self._set(PG, "ensure", self._span("partition.ensure", PG.ensure))
        orig_init, orig_value = PG.__init__, PG.value

        def init(grid, fld):
            orig_init(grid, fld)
            grids.append(grid)

        def value(grid, x, y):
            v = orig_value(grid, x, y)
            count["partition.reads"] += 1
            if v is not None:
                reads.add((id(grid), x, y))
            return v

        self._set(PG, "__init__", init)
        self._set(PG, "value", value)

        orig_pool_grid = partition.GridPool.grid

        def pool_grid(pool, fld):
            count["partition.pool_lookups"] += 1
            key = (id(pool), fld.D)
            if key in pools:
                count["partition.pool_hits"] += 1
            pools.add(key)
            return orig_pool_grid(pool, fld)

        self._set(partition.GridPool, "grid", pool_grid)

        self._set(field.QElement, "sign", self._counted("field.sign_calls", field.QElement.sign))
        for name in ("floor_xi", "floor_xi_mult", "floor_div_xi", "floor_div_omega"):
            self._set(field.Field, name, self._counted("field.floor_calls", getattr(field.Field, name)))

        def after_search(args, report):
            self.reports.append(report)

        def after_context(args, ctx):
            count["contfrac.context_calls"] += 1
            count["contfrac.period_len"] += len(ctx.period)

        def after_enumerate(args, parts):
            count["oracle.partitions"] += len(parts)

        def after_parity(args, report):
            self._parity.append((args[2], args[1] + 1))

        def after_verify(args, results):
            count["fixtures.docs"] += len(results)
            count["fixtures.diff_lines"] += sum(len(diffs) for _, diffs in results)

        def after_dumps(args, text):
            self._dumps.append(text)

        functions = (
            (search.search_m, "search.search_m", after_search),
            (search.dm_scan, "search.dm_scan", None),
            (contfrac.build_context, "contfrac.build_context", after_context),
            (oracle.enumerate_partitions, "oracle.enumerate_partitions", after_enumerate),
            (parity.cumulative_P, "parity.cumulative_P", None),
            (parity.parity_check, "parity.parity_check", after_parity),
            (fixtures.verify_documents, "fixtures.verify_documents", after_verify),
            (serialize.dumps_canonical, "serialize.dumps_canonical", after_dumps),
            (cli.main, "cli.main", None),
        )
        for orig, name, after in functions:
            self._replace_everywhere(modules, orig, self._span(name, orig, after))
        orig_domain = search.in_fundamental_domain
        self._replace_everywhere(modules, orig_domain, self._counted("search.domain_tests", orig_domain))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # ----- jobs -----------------------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job

    def end_job(self, stdout_bytes: int) -> None:
        """Fold the job's grids, reads and outputs into the counts (untimed)."""
        count = self.count
        count["cli.stdout_bytes"] += stdout_bytes
        cells_by_grid = {}
        job_cells = 0
        for grid in self._grids:
            columns, cells, madds = grid_counts(grid)
            cells_by_grid[id(grid)] = cells
            job_cells += cells
            count["partition.columns"] += columns
            count["partition.cells"] += cells
            count["partition.madds"] += madds
        self.peak_cells = max(self.peak_cells, job_cells)
        count["partition.distinct_reads"] += len(self._reads)
        for grid, diagonal in self._parity:
            count["parity.diagonal"] += diagonal
            count["parity.cells"] += cells_by_grid.get(id(grid), 0)
        count["serialize.bytes"] += sum(len(t.encode("utf-8")) for t in self._dumps)
        for state in (self._grids, self._reads, self._pools, self._dumps, self._parity):
            state.clear()

    # ----- results ----------------------------------------------------------------

    def metrics(self, run_s: float, untraced_run_s: float) -> dict[str, float]:
        """Every traced-run metric; call after uninstall()."""
        count = self.count
        self_time: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
            self_time[name] += (end - start) - child_time.pop(i, 0.0)
        for report in self.reports:
            elements, x_top = slice_counts(report)
            count["search.slice_elements"] += elements
            count["search.x_top"] += x_top
            count["search.reps"] += sum(len(r) for r in report.representatives.values())
        out = {metric: float(count[metric]) for metric, _, _ in LAYER_METRICS}
        for span, metric in _SELF_TIME.items():
            out[metric] = self_time[span]
        out["search.dm_s"] = float(sum(e - s for n, s, e, _, _ in self.spans if n == "search.dm_scan"))
        out["partition.madds_per_s"] = _ratio(count["partition.madds"], out["partition.ensure_s"])
        out["partition.peak_cells"] = float(self.peak_cells)
        out["partition.useful_frac"] = _ratio(count["partition.distinct_reads"], count["partition.cells"])
        out["partition.pool_hit_frac"] = _ratio(count["partition.pool_hits"], count["partition.pool_lookups"])
        out["parity.diag_frac"] = _ratio(count["parity.diagonal"], count["parity.cells"])
        out["trace.run_s"] = run_s
        out["trace.overhead"] = _ratio(run_s, untraced_run_s)
        return out

    def write(self, path: Path, jobs: list) -> None:
        """Spans as JSON lines: one header with the job argvs, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"jobs": [list(a) for a in jobs]}) + "\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([i, job, name, start, end, parent]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
