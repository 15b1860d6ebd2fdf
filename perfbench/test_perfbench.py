"""Tests of the benchmark itself: job lists, pinned counts, tracer and checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from run import harrell_davis, tail_percentile  # noqa: E402
from tracing import Tracer, grid_counts, slice_counts  # noqa: E402

cli = harness.import_cli()

from quadpartitions import Field, PartitionGrid, build_context, search_m  # noqa: E402

SECONDS = workloads.REFERENCE_SECONDS


# ----- job lists ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded_samples_of_the_pool(workload):
    pool = set(workloads.pool(workload))
    first = workloads.job_list(workload, 7, SECONDS)
    assert first == workloads.job_list(workload, 7, SECONDS)
    assert first != workloads.job_list(workload, 8, SECONDS)
    assert set(first) <= pool
    assert len(set(first)) == len(first)
    assert len(first) >= 11  # job_s_tail needs ten jobs beyond its percentile


@pytest.mark.parametrize("workload", ["dense-grid", "slice-search", "parity"])
def test_fields_never_repeat_within_a_run(workload):
    for seed in range(5):
        fields = [argv[argv.index("--D") + 1] for argv in workloads.job_list(workload, seed, SECONDS)]
        assert len(set(fields)) == len(fields)


def test_every_pool_argv_has_a_pinned_digest():
    table = harness.load_table()
    for workload in workloads.WORKLOADS:
        for argv in workloads.pool(workload):
            assert harness.argv_key(argv) in table, argv


def test_pools_hold_only_inputs_the_dense_path_finishes():
    searched = {argv[2] for argv in workloads.pool("slice-search")}
    assert not searched & {"31", "43", "46", "82", "22", "146", "101", "123"}
    assert len(searched) == 53


# ----- computed counts ------------------------------------------------------------------


@pytest.mark.parametrize("D, X, expected", [
    (2, 40, (40, 1160, 223660)),
    (3, 60, (60, 2114, 745434)),
    (5, 30, (30, 1039, 179677)),
    (13, 50, (50, 1532, 390404)),
])
def test_grid_counts_are_pinned(D, X, expected):
    grid = PartitionGrid(Field(D))
    grid.ensure(X)
    assert grid_counts(grid) == expected


@pytest.mark.parametrize("D", [2, 5])
def test_madds_formula_matches_the_recurrence_loop(D):
    # Walk the same (u, v) bounds as PartitionGrid._cell and count the steps.
    fld = Field(D)
    X = 14
    fdo = [fld.floor_div_omega(x) for x in range(X + 1)]
    fdx = [fld.floor_div_xi(x) for x in range(X + 1)]
    steps = 0
    for x in range(1, X + 1):
        for y in range(-fdo[x], fdx[x] + 1):
            for u in range(1, x):
                lo = max(y - fdx[x - u], -fdo[u])
                hi = min(y + fdo[x - u], fdx[u])
                steps += max(0, hi - lo + 1)
    grid = PartitionGrid(fld)
    grid.ensure(X)
    assert grid_counts(grid)[2] == steps


@pytest.mark.parametrize("D, m, expected", [(19, 11, (286, 181)), (2, 11, (111, 28)), (5, 7, (54, 11))])
def test_slice_counts_are_pinned(D, m, expected):
    assert slice_counts(search_m(build_context(Field(D)), m)) == expected


# ----- tracer ------------------------------------------------------------------------------


def _traced(argvs):
    tracer = Tracer()
    tracer.install()
    outs = []
    try:
        for i, argv in enumerate(argvs):
            tracer.start_job(i)
            rc, out, _ = harness.run_job(cli, argv)
            outs.append((rc, out))
            tracer.end_job(len(out))
    finally:
        tracer.uninstall()
    return tracer, outs


ARGVS = [
    ("grid", "--view", "xy", "--D", "2", "--max-x", "40", "--format", "json"),
    ("search", "--D", "19", "--m", "11", "--explain"),
    ("parity", "--D", "13", "--N", "30"),
    ("verify",),
]


def test_tracing_changes_no_output_and_restores_the_program():
    import quadpartitions.search as search

    before = (PartitionGrid.ensure, PartitionGrid.value, cli.main, cli.search_m, search.search_m)
    plain = [harness.run_job(cli, argv)[:2] for argv in ARGVS]
    tracer, traced = _traced(ARGVS)
    assert traced == plain
    assert (PartitionGrid.ensure, PartitionGrid.value, cli.main, cli.search_m, search.search_m) == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "partition.ensure", "search.search_m", "oracle.enumerate_partitions",
            "parity.cumulative_P", "parity.parity_check", "fixtures.verify_documents",
            "contfrac.build_context", "serialize.dumps_canonical"} <= names
    assert all(span[4] == 0 for span in tracer.spans if span[0] == "serialize.dumps_canonical")


def test_traced_counts_repeat_exactly():
    first, _ = _traced(ARGVS)
    second, _ = _traced(ARGVS)
    a, b = first.metrics(1.0, 1.0), second.metrics(1.0, 1.0)
    counts = [name for name in a if not name.endswith("_s") and name != "partition.madds_per_s"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["partition.madds"] >= 223660 and a["fixtures.docs"] == 12 and a["fixtures.diff_lines"] == 0
    assert a["search.x_top"] >= 181


def test_self_times_add_up_to_the_cli_time():
    tracer, _ = _traced(ARGVS[:2])
    metrics = tracer.metrics(1.0, 1.0)
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "cli.main")
    layers = [k for k in metrics if k.endswith("_s") and k not in ("search.dm_s", "trace.run_s")
              and not k.endswith("_per_s")]
    assert sum(metrics[k] for k in layers) == pytest.approx(total, rel=1e-9)


# ----- checks ---------------------------------------------------------------------------------


def _out(argv):
    rc, out, err = harness.run_job(cli, argv)
    assert rc == 0, err
    return out


@pytest.mark.parametrize("view", [("--view", "xy", "--max-x", "14"), ("--view", "ky", "--kmax", "4", "--ymax", "6")])
def test_matrix_parser_reads_every_format_alike(view):
    base = ("grid", "--D", "5") + view
    rows = [checks.parse_matrix(_out(base + ("--format", f)).decode(), f)
            for f in ("pretty", "csv", "json", "tex")]
    assert rows[0] == rows[1] == rows[2] == rows[3]


@pytest.mark.parametrize("D", [7, 13])
def test_search_parser_reads_every_format_alike(D):
    base = ("search", "--D", str(D), "--m", "11")
    field = Field(D)
    reps = [checks.parse_search(_out(base + ("--format", f)).decode(), f, field)[0]
            for f in ("pretty", "csv", "json", "tex")]
    assert reps[0] == reps[1] == reps[2] == reps[3]
    assert sum(len(r) for r in reps[0].values()) > 5


@pytest.mark.parametrize("argv", [
    ("grid", "--view", "xy", "--D", "2", "--max-x", "20", "--format", "tex"),
    ("grid", "--view", "ky", "--D", "13", "--kmax", "6", "--ymax", "12", "--format", "csv"),
    ("search", "--D", "13", "--m", "11", "--format", "json"),
    ("search", "--D", "6", "--m", "11", "--explain"),
    ("parity", "--D", "13", "--N", "40", "--format", "pretty"),
    ("parity", "--D", "7", "--N", "40", "--format", "csv"),
])
def test_checks_pass_real_output_and_catch_a_changed_count(argv):
    checker = checks.Checker()
    out = _out(argv)
    assert checker.check(argv, out) == []
    text = out.decode()
    if argv[0] == "parity":
        broken = text.replace("[1, 1, ", "[1, 0, ", 1).replace("1,1,1,1,1", "1,1,2,0,1", 1)
    elif argv[0] == "search":
        broken = text.replace('"1":[{"a":', '"2":[{"a":', 1).replace("  m = 1: ", "  m = 2: ", 1)
    else:
        broken = text.replace("$1$&$1$", "$1$&$2$", 1).replace("1,1,", "1,2,", 1)
    assert broken != text
    assert checker.check(argv, broken.encode()) != []


def test_fidelity_matches_a_subprocess_run():
    argv = ("units", "--D", "199", "--format", "json")
    assert checks.fidelity(argv, 0, _out(argv)) is None
    assert checks.fidelity(argv, 0, b"other") is not None


def test_classical_partitions():
    assert checks.classical_partitions(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_tail_percentile_keeps_ten_jobs_beyond_it():
    assert tail_percentile(40) == 75.0
    assert tail_percentile(5) == 20.0


def test_harrell_davis_quantiles():
    times = [float(i) for i in range(1, 41)]
    assert harrell_davis(times, 0.5) == pytest.approx(20.5)
    assert 29.0 < harrell_davis(times, 0.75) < 32.0
    assert harrell_davis([0.25] * 7, 0.3) == pytest.approx(0.25)
    # One outlying job barely moves the median estimate.
    assert harrell_davis(times[:-1] + [4000.0], 0.5) == pytest.approx(20.5, abs=1e-3)
    # Thousands of jobs, as in field-sweep, must not underflow the weights.
    many = [float(i) for i in range(1, 2501)]
    assert harrell_davis(many, 0.5) == pytest.approx(1250.5, rel=1e-3)
    assert harrell_davis(many, 2490 / 2500) == pytest.approx(2490.5, rel=1e-3)
