import json
import multiprocessing.process
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quadpartitions
from quadpartitions import (
    BudgetExceeded,
    Field,
    GridPool,
    InvariantViolation,
    cli,
    enumerate_partitions,
    fixtures,
    oracle,
    parity,
    partition,
    search,
)

REFERENCE = Path(quadpartitions.__file__).parent / "reference"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def start_python(*args):
    """Start python with args in a fresh interpreter that imports this package."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (str(REFERENCE.parents[1]), os.environ.get("PYTHONPATH")))),
        PYTHONIOENCODING="utf-8",
        COLUMNS="80",  # argparse wraps --help to the terminal width
    )
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8"
    )


def finish(proc):
    """(exit code, stdout, stderr) of a process from start_python."""
    out, err = proc.communicate()
    return proc.returncode, out, err


def test_grid_xy_json_matches_fixture(capsys):
    code, out, _ = run(capsys, "grid", "--D", "2", "--max-x", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    fixture = json.loads((REFERENCE / "grid-xy-D2.json").read_text())
    assert doc["rows"] == fixture["rows"]
    assert doc["y_max"] == 7


def test_grid_ky_json_matches_every_slice_fixture(capsys):
    paths = sorted(REFERENCE.glob("slice-D*.json"))
    assert len(paths) == 8
    for path in paths:
        fixture = json.loads(path.read_text())
        code, out, _ = run(
            capsys, "grid", "--D", str(fixture["D"]), "--view", "ky",
            "--kmax", str(fixture["k_max"]), "--ymax", str(fixture["y_max"]), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"] == fixture["rows"], path.name


def test_grid_ky_corner_box(capsys):
    # (k_max, y_max) = (0, 0) is the one box whose row top is not totally positive.
    want = {
        "pretty": "   y\\k | 0\n----------\n     0 | 1\n",
        "csv": "y\\k,0\n0,1\n",
        "json": '{"D":2,"k_max":0,"rows":[[1]],"view":"ky","y_max":0}\n',
        "tex": "\\begin{tabular}{|l||r|}\n\\hline\n&\\multicolumn{1}{c|}{$k$}\\\\\n"
        "\\hline\n$y$&$0$\\\\\n\\hline\\hline\n$0$&$1$\\\\\n\\hline\n\\end{tabular}\n",
    }
    for fmt, text in want.items():
        code, out, _ = run(
            capsys, "grid", "--D", "2", "--view", "ky", "--kmax", "0", "--ymax", "0", "--format", fmt
        )
        assert (code, out) == (0, text), fmt


def test_output_is_deterministic(capsys):
    argvs = (
        ("grid", "--D", "13", "--max-x", "8", "--format", "json"),
        ("search", "--D", "5", "--m", "6", "--format", "json"),
        ("parity", "--D", "3", "--N", "12", "--format", "json"),
    )
    for argv in argvs:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_units_and_indecomposables_run(capsys):
    code, out, _ = run(capsys, "units", "--D", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_plus"]["text"] == "8+3√7"
    code, out, _ = run(capsys, "indecomposables", "--D", "7")
    assert code == 0
    assert "1+√7" not in out  # not totally positive, so never indecomposable


def test_witness_excluded_field_reports_ten(capsys):
    code, out, _ = run(capsys, "witness", "--D", "5", "--m", "6")
    assert code == 0
    assert "excluded" in out
    assert "10" in out
    code, out, _ = run(capsys, "witness", "--D", "5", "--m", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 10
    assert doc["branch"] == "excluded"


def test_witness_branches(capsys):
    code, out, _ = run(capsys, "witness", "--D", "2", "--m", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["branch"] == "wide-gap"
    code, out, _ = run(capsys, "witness", "--D", "7", "--m", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["branch"] == "narrow-gap"


def test_dm_json(capsys):
    code, out, _ = run(capsys, "dm", "--m", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["missing"] == [5]
    assert doc["complete"] is True


def test_parity_reads_the_euler_product(capsys):
    code, out, _ = run(capsys, "parity", "--D", "3", "--N", "200")
    assert code == 0
    assert "congruent: True" in out


def test_estimate_compare(capsys):
    code, out, _ = run(
        capsys, "estimate", "--D", "2", "--a", "8", "--b", "1", "--compare", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p_exact"] >= 1
    assert doc["log_p_estimate"] > 0


def test_formats_do_not_crash(capsys):
    for fmt in ("pretty", "csv", "tex"):
        code, out, _ = run(capsys, "grid", "--D", "3", "--max-x", "6", "--format", fmt)
        assert code == 0 and out
    code, out, _ = run(capsys, "search", "--D", "3", "--m", "4", "--format", "tex")
    assert code == 0
    assert "\\begin{tabular}" in out
    assert "√" not in out
    code, out, _ = run(capsys, "search", "--D", "2", "--m", "4", "--explain")
    assert code == 0
    assert "2+√2 = " in out


def test_usage_errors_exit_1(capsys):
    cases = (
        ("grid", "--D", "12", "--max-x", "4"),
        ("grid", "--D", "2"),
        ("grid", "--D", "2", "--view", "ky", "--kmax", "3"),
        ("dm", "--m", "4"),
        ("dm", "--m", "3", "--jobs", "0"),
        ("dm", "--m", "3", "--jobs", "-2"),
        ("parity", "--D", "2", "--N", "-1"),
        ("grid", "--D", "2", "--max-x", "-2"),
        ("grid", "--D", "2", "--view", "ky", "--kmax", "-1", "--ymax", "2"),
        ("grid", "--D", "2", "--view", "ky", "--kmax", "2", "--ymax", "-1"),
        ("search", "--D", "2", "--m", "0"),
        ("search", "--D", "2", "--m", "-3"),
        ("dm", "--m", "0", "--Dmax", "5"),
        ("dm", "--m", "3", "--Dmax", "-5"),
        ("dm", "--m", "3", "--Dmax", "1"),
        ("estimate", "--D", "2", "--a", "1", "--b", "1"),
        ("estimate", "--D", "2", "--a", "1" + "0" * 200, "--b", "0"),
        ("verify", "--fixtures", "/nonexistent/path"),
        ("nonsense",),
        (),
    )
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err, argv
    # the bounds themselves are valid
    boundary = (
        ("parity", "--D", "2", "--N", "0"),
        ("grid", "--D", "2", "--max-x", "0"),
        ("grid", "--D", "2", "--view", "ky", "--kmax", "0", "--ymax", "0"),
        ("search", "--D", "2", "--m", "1"),
        ("dm", "--m", "3", "--Dmax", "2"),
    )
    for argv in boundary:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv


def test_verify_builtin_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == 12
    assert "all 12 documents reproduce exactly" in out


def test_verify_corrupt_fixture_exits_2(tmp_path, capsys):
    for f in REFERENCE.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    bad = tmp_path / "grid-xy-D2.json"
    doc = json.loads(bad.read_text())
    doc["rows"][0][4] = 7
    bad.write_text(json.dumps(doc))
    bad = tmp_path / "slice-D13.json"
    doc = json.loads(bad.read_text())
    doc["rows"][3][2] += 1
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 2
    assert "FAIL grid-xy-D2\n  grid-xy-D2: D=2 x=4 y=0 expected=7 got=6\n" in out
    assert "FAIL slice-D13\n  slice-D13: D=13 y=3 k=2 expected=9 got=8\n" in out
    assert "2 of 12 documents failed" in out


def test_verify_reports_cells_outside_the_header_box(tmp_path, capsys):
    # One extra column and one extra row: every cell beyond the box that the
    # header (max_x, or k_max and y_max) defines is reported with got=None.
    want = []
    for name in ("grid-xy-D2", "slice-D13"):
        doc = json.loads((REFERENCE / f"{name}.json").read_text())
        width = len(doc["rows"][0])
        doc["rows"] = [row + [1] for row in doc["rows"]] + [[1] * (width + 1)]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        at = "x={c} y={r}" if name == "grid-xy-D2" else "y={r} k={c}"
        cells = [(r, width) for r in range(len(doc["rows"]) - 1)]
        cells += [(len(doc["rows"]) - 1, c) for c in range(width + 1)]
        want.append(f"FAIL {name}")
        want += [
            f"  {name}: D={doc['D']} {at.format(r=r, c=c)} expected=1 got=None" for r, c in cells
        ]
    code, out, err = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, err) == (2, "")
    assert out.splitlines() == want + ["2 of 2 documents failed"]


def test_verify_empty_dir_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 1
    assert "no fixture documents" in err


def test_internal_violation_exits_3(monkeypatch, capsys):
    def boom(field, grid=None):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli, "witness_m4", boom)
    code, _, err = run(capsys, "witness", "--D", "2", "--m", "4")
    assert code == 3
    assert "invariant" in err


def test_explain_count_mismatch_exits_3(monkeypatch, capsys):
    def one_partition_too_many(e):
        parts = enumerate_partitions(e)
        return parts + parts[:1]

    monkeypatch.setattr(cli, "enumerate_partitions", one_partition_too_many)
    code, _, err = run(capsys, "search", "--D", "5", "--m", "3", "--explain")
    assert code == 3
    assert "listed under m = 1" in err


def test_budget_exceeded_exits_4(monkeypatch, capsys):
    def over_budget(e):
        raise BudgetExceeded(f"enumerating the partitions of {e} exceeded its node budget")

    monkeypatch.setattr(cli, "enumerate_partitions", over_budget)
    code, _, err = run(capsys, "search", "--D", "5", "--m", "11", "--explain")
    assert code == 4
    assert "node budget" in err


def test_node_budget_of_the_real_enumerator_exits_4(monkeypatch, capsys):
    # No stub: the walker itself runs out of nodes on a representative it explains.
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10)
    code, out, err = run(capsys, "search", "--D", "5", "--m", "11", "--explain")
    assert code == 4
    assert err == "partition enumeration budget exhausted\n"
    assert "partitions of the small representatives:" in out


def test_parity_refuses_before_the_recurrence(monkeypatch, capsys):
    # The fold's budget check runs before cumulative_P's O(N^2) transform.
    def recurrence(field, N):
        raise AssertionError(f"cumulative_P ran for N = {N}")

    monkeypatch.setattr(parity, "cumulative_P", recurrence)
    code, out, err = run(capsys, "parity", "--D", "2", "--N", "100000")
    assert (code, out) == (4, "")
    assert "over the cost budget" in err


def test_runs_over_the_cost_budget_exit_4_at_once(capsys):
    for argv in (("grid", "--D", "2", "--max-x", "100000"), ("parity", "--D", "2", "--N", "100000")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (4, ""), argv
        assert err.count("\n") == 1 and "over the cost budget" in err, argv
    # The largest argvs of the benchmark pool stay well inside the budget.
    for argv in (("grid", "--D", "15", "--max-x", "100"), ("parity", "--D", "2", "--N", "90")):
        assert run(capsys, *argv)[0] == 0, argv
    # The xy view runs up to x = 416 for D=2 and 331 for D=5, and is refused
    # at once from the next X on.
    for D, X in ((2, 260), (5, 210), (2, 316), (5, 251), (2, 416), (5, 331)):
        f = Field(D)
        sizes = [f.floor_div_omega(x) + f.floor_div_xi(x) + 1 for x in range(X + 1)]
        assert partition._madds_ms(partition._recurrence_madds(sizes)) <= partition._BUDGET_MS, D
    # The estimate is rounded up, so a refusal never reads "about 120 s, more than 120 s".
    refusals = {
        ("grid", "--D", "2", "--max-x", "417"): 121,
        ("grid", "--D", "5", "--max-x", "332"): 122,
    }
    for argv, secs in refusals.items():
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (4, ""), argv
        assert err == (
            f"the cone up to x = {argv[-1]} is over the cost budget: "
            f"its recurrence would take about {secs} s, more than 120 s\n"
        )
        assert secs > partition._BUDGET_MS // 1000


def _drop_corner(doc):
    del doc["rows"][1]["corner_count"]


@pytest.mark.parametrize("name, edit, reason", [
    ("slice-D13", lambda d: d.pop("k_max"), "missing key 'k_max'"),
    ("grid-xy-D2", lambda d: d.update(D=12), "D must be squarefree, got 12"),
    ("grid-xy-D2", lambda d: d.update(kind="grid_yx"), "unknown document kind 'grid_yx'"),
    ("grid-xy-D2", lambda d: d.update(max_x="10"), "max_x must be a nonnegative integer, got '10'"),
    ("grid-xy-D2", lambda d: d.update(max_x=-1), "max_x must be a nonnegative integer, got -1"),
    ("grid-xy-D2", lambda d: d.update(D=True), "D must be an integer >= 2, got True"),
    ("grid-xy-D2", lambda d: d.update(rows={}), "rows must be a list"),
    ("units-summary", _drop_corner, "missing key 'corner_count'"),
    ("representatives-1-mod-4", lambda d: d["fields"][0].update(D=4), "D must be squarefree, got 4"),
])
def test_verify_malformed_document_exits_1(tmp_path, capsys, name, edit, reason):
    doc = json.loads((REFERENCE / f"{name}.json").read_text())
    edit(doc)
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, out, err) == (1, "", f"cannot load fixtures from {tmp_path}: {name}: {reason}\n")


def test_verify_lets_an_engine_error_propagate(monkeypatch):
    # Only the document's own inputs make it malformed: an error raised while
    # recomputing it is not reported as one.
    def broken(field, max_x):
        raise ValueError("engine bug")

    monkeypatch.setattr(fixtures, "cone_rows", broken)
    doc = json.loads((REFERENCE / "grid-xy-D2.json").read_text())
    with pytest.raises(ValueError, match="engine bug") as info:
        fixtures.verify_document(doc, GridPool())
    assert not isinstance(info.value, fixtures.MalformedDocument)


def test_one_parser_serves_every_call_alike(monkeypatch, capsys):
    # main builds its parser once per process; each call must still print
    # what the same argv prints alone in a fresh interpreter.
    argvs = (
        ("search", "--D", "2", "--m", "0"),
        ("--help",),
        ("grid", "--D", "2", "--max-x", "417"),
        ("grid", "--D", "5", "--max-x", "6", "--format", "tex"),
        ("grid", "--D", "5", "--max-x", "6"),
        ("grid", "--D", "2", "--view", "ky", "--kmax", "3", "--ymax", "4", "--format", "csv"),
        ("search", "--D", "5", "--m", "5", "--format", "json"),
        ("units", "--D", "7"),
        ("dm", "--m", "3", "--format", "csv"),
        ("parity", "--D", "3", "--N", "12", "--format", "json"),
    )
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setenv("COLUMNS", "80")
    alone = [start_python("-m", "quadpartitions", *argv) for argv in argvs]
    cli._parser.cache_clear()
    for argv, proc in zip(argvs, alone):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == finish(proc), argv
    assert len(builds) == 1
    # The public builder still returns a new parser on every call.
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_loads_no_process_pool():
    code, out, err = finish(start_python(
        "-c", "import sys, quadpartitions, quadpartitions.cli; print(*sorted(sys.modules))"
    ))
    assert (code, err) == (0, "")
    loaded = out.split()
    assert "quadpartitions.cli" in loaded
    pool = [name for name in loaded
            if name.split(".")[0] == "multiprocessing" or name.startswith("concurrent.futures")]
    assert pool == []


def test_dm_jobs_2_runs_a_pool_of_two_and_prints_the_serial_bytes(monkeypatch, capsys):
    starts = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        real_start(self)

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    for fmt in ("pretty", "csv", "json"):
        serial = run(capsys, "dm", "--m", "5", "--jobs", "1", "--format", fmt)
        assert starts == [], fmt
        assert run(capsys, "dm", "--m", "5", "--jobs", "2", "--format", fmt) == serial, fmt
        assert len(starts) == 2, fmt
        starts.clear()


def test_no_command_reads_what_only_perfbench_keeps(monkeypatch, capsys):
    # PartitionGrid keeps ensure, max_x and column_window for perfbench alone:
    # with all three raising, every subcommand prints what it prints with them.
    argvs = (
        ("grid", "--D", "5", "--max-x", "12", "--format", "json"),
        ("grid", "--D", "19", "--view", "ky", "--kmax", "3", "--ymax", "6"),
        ("search", "--D", "7", "--m", "11", "--format", "json"),
        ("search", "--D", "5", "--m", "11", "--explain"),
        ("dm", "--m", "5"),
        ("parity", "--D", "3", "--N", "30"),
        ("witness", "--D", "14", "--m", "4"),
        ("witness", "--D", "14", "--m", "6"),
        ("estimate", "--D", "2", "--a", "10", "--b", "5", "--compare"),
        ("units", "--D", "19"),
        ("indecomposables", "--D", "19"),
        ("verify",),
    )
    unpatched = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        unpatched.append((code, out))

    def perfbench_only(*args):
        raise AssertionError("a command read a PartitionGrid member kept for perfbench")

    monkeypatch.setattr(partition.PartitionGrid, "ensure", perfbench_only)
    monkeypatch.setattr(partition.PartitionGrid, "max_x", property(perfbench_only))
    monkeypatch.setattr(partition.PartitionGrid, "column_window", perfbench_only)
    for argv, want in zip(argvs, unpatched):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == want, argv
    assert [code for code, _ in unpatched] == [0] * len(argvs)
