import json
import shutil
import sys
import time
from itertools import accumulate
from math import isqrt

import pytest

from quadpartitions import (
    BudgetExceeded,
    InvariantViolation,
    cli,
    contfrac,
    enumerate_partitions,
    errors,
    fixtures,
    oracle,
    parity,
    partition,
)

from conftest import REFERENCE, finish, start_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_only_the_indecomposables_command_lists_them(monkeypatch, capsys):
    def listed(ctx):
        raise AssertionError(f"indecomposables listed for D={ctx.field.D}")

    monkeypatch.setattr(contfrac, "indecomposables", listed)
    monkeypatch.setattr(cli, "indecomposables", listed)
    for argv in (
        ("units", "--D", "7"),
        ("units", "--D", "13", "--format", "json"),
        ("search", "--D", "7", "--m", "5"),
        ("dm", "--m", "3"),
        ("verify",),
    ):
        assert run(capsys, *argv)[0] == 0, argv


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
    code, out, _ = run(capsys, "parity", "--D", "3", "--N", "200", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["P_parity"] == doc["p_parity"]
    assert doc["odd_count"] == sum(doc["p_parity"][1:])
    assert doc["odd_count"] + doc["even_count"] == 200


def test_parity_disagreement_exits_3(monkeypatch, capsys):
    # One flipped bit at n = 5 in p(n) mod 2 is a disagreement at n = 5.
    def flipped(field, N):
        bits = list(partition.diagonal_parity(field, N))
        bits[5] ^= 1
        return bits

    monkeypatch.setattr(cli, "diagonal_parity", flipped)
    code, out, err = run(capsys, "parity", "--D", "3", "--N", "12")
    assert (code, out) == (3, "")
    assert err == "internal invariant violated: P and p disagree mod 2 for D=3 at n in [5]\n"


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
        ("dm", "--m", "3", "--jobs", "2"),
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


def test_verify_empty_fixtures_path_is_a_usage_error(monkeypatch, tmp_path, capsys):
    # Path("") is the working directory: an empty path must not load the
    # stray JSON there as fixture documents.
    (tmp_path / "stray.json").write_text('{"workloads": []}')
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--fixtures", "")
    assert (code, out, err) == (1, "", "verify: --fixtures is an empty path\n")


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
    code, out, err = run(capsys, "search", "--D", "5", "--m", "3", "--explain")
    assert (code, out) == (3, "")  # the explanation is built before anything prints
    assert "listed under m = 1" in err


def test_budget_exceeded_exits_4(monkeypatch, capsys):
    def over_budget(e):
        raise BudgetExceeded(f"enumerating the partitions of {e} exceeded its node budget")

    monkeypatch.setattr(cli, "enumerate_partitions", over_budget)
    code, _, err = run(capsys, "search", "--D", "5", "--m", "11", "--explain")
    assert code == 4
    assert "node budget" in err


def test_node_budget_of_the_real_enumerator_exits_4(monkeypatch, capsys):
    # No stub: the walker itself runs out of nodes on a representative it
    # explains, and nothing is printed before the refusal.
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10)
    assert run(capsys, "search", "--D", "5", "--m", "11", "--explain") == (
        4, "", "the partitions of 4 of D=5 are over the cost budget: listing them visits more than 10 nodes\n"
    )


def test_parity_refuses_before_the_recurrence(monkeypatch, capsys):
    # The fold's budget check runs before cumulative_P's O(N^2) transform.
    def recurrence(field, N):
        raise AssertionError(f"cumulative_P ran for N = {N}")

    monkeypatch.setattr(parity, "cumulative_P", recurrence)
    assert run(capsys, "parity", "--D", "2", "--N", "100000")[:2] == (4, "")


def test_a_hopeless_m_is_refused_before_any_fill(monkeypatch, capsys):
    # _price_search refuses the interval [0, 257] of D=2 at m = 10^300 from
    # its O(1) estimate; nothing is filled.
    def fill(grid, x, y):
        raise AssertionError(f"PartitionGrid filled the interval below ({x}, {y})")

    monkeypatch.setattr(partition.PartitionGrid, "cell", fill)
    m = str(10**300)
    for argv in (("search", "--D", "2", "--m", m), ("dm", "--m", m, "--Dmax", "3")):
        assert run(capsys, *argv)[:2] == (4, ""), argv


def test_a_search_table_it_cannot_print_is_refused_before_any_count(monkeypatch, capsys):
    # search prints a row for every m <= m_max: a table of 2^19 rows reaches
    # classify_m, the walk the pretty table reads, and one of 2^19 + 1 is
    # refused before anything is counted.
    def counted(ctx, m_max):
        raise AssertionError(f"classify_m counted up to m = {m_max}")

    monkeypatch.setattr(cli, "classify_m", counted)
    assert run(capsys, "search", "--D", "2", "--m", str(2**19 + 1)) == (
        4, "", "the table of D=2 up to m = 524289 is over the cost budget: "
        "it would print 524289 rows, more than 524288\n"
    )
    with pytest.raises(AssertionError, match="m = 524288$"):
        cli.main(["search", "--D", "2", "--m", str(2**19)])


def test_indecomposables_refuses_before_it_lists(monkeypatch, capsys):
    # The digit limit is checked on the ints of the last element it would
    # list, before indecomposables runs.
    def listed(ctx):
        raise AssertionError(f"indecomposables listed D={ctx.field.D}")

    monkeypatch.setattr(cli, "indecomposables", listed)
    assert run(capsys, "indecomposables", "--D", "1000000007")[:2] == (4, "")


def test_a_dm_scan_over_the_cost_budget_exits_4_before_it_lists_a_field(monkeypatch, capsys):
    # Listing the squarefree D <= 10^17 alone ran for more than ten minutes:
    # the scan is priced from the fields it holds at the least, before any
    # D is tested, and refused at once.
    def listed(n):
        raise AssertionError(f"dm tested {n} for squarefreeness")

    monkeypatch.setattr(cli, "is_squarefree", listed)
    assert run(capsys, "dm", "--m", "2", "--Dmax", str(10**17))[:2] == (4, "")
    # The price counts D_max // 2 fields from D_max = 21 on: no scan holds fewer.
    n = 100_000
    squarefree = [True] * (n + 1)
    for d in range(2, isqrt(n) + 1):
        squarefree[d * d :: d * d] = [False] * (n // (d * d))
    held = list(accumulate(squarefree[2:]))  # fields of 2..D_max at D_max - 2
    assert all(held[D_max - 2] >= D_max // 2 for D_max in range(21, n + 1))


def test_errors_budget_ms_alone_moves_every_refusal(monkeypatch, capsys):
    # errors.check_budget is the one reader of BUDGET_MS, so patching it in
    # errors alone reaches the interval, the band and the squarefree test:
    # at a budget of 1 s each argv is refused at once, naming what it prices.
    # The band is the box of the json search, which folds it: the pretty
    # table walks only the cells with p <= m and finishes.
    monkeypatch.setattr(errors, "BUDGET_MS", 1000)
    squarefree = (
        "the squarefree test of D=10000000000000000000001 is over the cost budget: "
        "its trial divisions would take about 2 s"
    )
    refusals = {
        "estimate --D 2 --a 200 --b 0 --compare":
            "the interval [0, 200] of D=2 is over the cost budget: its recurrence would take about 102 s",
        "search --D 86 --m 11 --format json":
            "the slice band of D=86 up to x = 10421 is over the cost budget: its Euler product would take about 2 s",
        "units --D 10000000000000000000001": squarefree,
        "witness --D 10000000000000000000001": squarefree,
    }
    for argv, message in refusals.items():
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out, err) == (4, "", f"{message}, more than 1 s\n"), argv


def _drop_corner(doc):
    del doc["rows"][1]["corner_count"]


def _row(index, value):
    """An edit that puts value in place of row index of a document's rows."""
    def edit(doc):
        doc["rows"][index] = value
    return edit


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
    ("grid-xy-D2", lambda d: d.update(name=1), "a document that is not an object with a string name"),
    ("grid-xy-D2", _row(3, 1), "rows must be a list of lists of integers"),
    ("grid-xy-D2", _row(0, "abc"), "rows must be a list of lists of integers"),
    ("grid-xy-D2", lambda d: d["rows"][0].insert(0, True), "rows must be a list of lists of integers"),
    ("slice-D13", _row(2, {}), "rows must be a list of lists of integers"),
    ("units-summary", lambda d: d["rows"][0].update(eps_plus=3), "eps_plus must be an object with integer a and b"),
    ("units-summary", lambda d: d["rows"][2]["eps_plus"].pop("a"), "eps_plus must be an object with integer a and b"),
    ("units-summary", lambda d: d["rows"][0]["eps_plus"].pop("b"), "eps_plus must be an object with integer a and b"),
    ("units-summary", lambda d: d["rows"][0].update(floor_ratio="2"), "floor_ratio must be an integer, got '2'"),
    ("units-summary", lambda d: d["rows"][0].update(y_max=0), "y_max must be a positive integer, got 0"),
    ("representatives-1-mod-4", lambda d: d["fields"][0].update(by_m=1), "by_m must be an object with the keys '1'..'11'"),
    ("representatives-1-mod-4", lambda d: d["fields"][1]["by_m"].pop("1"), "by_m must be an object with the keys '1'..'11'"),
    ("representatives-1-mod-4", lambda d: d["fields"][0]["by_m"].update({"01": []}), "by_m must be an object with the keys '1'..'11'"),
    ("representatives-1-mod-4", lambda d: d.update(m_max=10**18), "by_m must be an object with the keys '1'..'1000000000000000000'"),
    ("representatives-1-mod-4", lambda d: d.update(m_max=0), "m_max must be a positive integer, got 0"),
    ("representatives-2-3-mod-4", lambda d: d["fields"][0]["by_m"]["2"][0].pop("a"), "by_m['2'] must be a list of objects with integer a and b"),
    ("representatives-2-3-mod-4", lambda d: d["fields"][0]["by_m"].update({"3": {}}), "by_m['3'] must be a list of objects with integer a and b"),
])
def test_verify_malformed_document_exits_1(tmp_path, capsys, name, edit, reason):
    doc = json.loads((REFERENCE / f"{name}.json").read_text())
    edit(doc)
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--fixtures", str(tmp_path))
    named = f"{doc['name']}: " if type(doc["name"]) is str else ""  # a document is named by its string name
    assert (code, out, err) == (1, "", f"cannot load fixtures from {tmp_path}: {named}{reason}\n")


def test_verify_lets_an_engine_error_propagate(monkeypatch):
    # Only the document's own inputs make it malformed: an error raised while
    # recomputing it is not reported as one.
    def broken(field, max_x):
        raise ValueError("engine bug")

    monkeypatch.setattr(fixtures, "cone_rows", broken)
    doc = json.loads((REFERENCE / "grid-xy-D2.json").read_text())
    with pytest.raises(ValueError, match="engine bug") as info:
        fixtures.verify_document(doc)
    assert not isinstance(info.value, fixtures.MalformedDocument)


def test_one_parser_serves_every_call_alike(monkeypatch, capsys):
    # main builds its parser once per process; each call must still print
    # what the same argv prints alone in a fresh interpreter.
    argvs = (
        ("search", "--D", "2", "--m", "0"),
        ("units", "--D", "7", "extra"),
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


def test_each_command_parses_as_the_top_level_parser_would(monkeypatch, capsys):
    # main hands a command's arguments to that command's parser alone; every
    # argv, usage errors and help included, prints what the top-level
    # parser's pass over the whole argv prints.
    argvs = (
        ("units", "--D", "7", "extra"),
        ("units", "--D", "7", "--bogus", "1"),
        ("units",),
        ("nonsense",),
        (),
        ("grid", "--D", "2", "--view", "zz"),
        ("units", "--form", "json", "--D", "7"),
        ("units", "--D=7"),
        ("-h",),
        ("units", "-h"),
        ("units", "--D", "7", "--", "x"),
        ("--D", "7", "units"),
        ("-h", "units"),
        ("grid", "--D", "2", "--max-x", "-2"),
        ("witness", "--D", "5", "--m", "6", "--format", "json"),
        ("search", "--D", "2", "--m", "0"),
    )
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    split = [outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._argparser().parse_args(argv))
    for argv, seen in zip(argvs, split):
        assert seen == outcome(argv), argv
    assert split[0] == (1, "", "quadpartitions: unrecognized arguments: extra\n")
    assert split[2] == (1, "", "quadpartitions units: the following arguments are required: --D\n")


# One argv per command and format, in the shapes the benchmark's jobs take.
PLAIN_SHAPES = (
    *(("grid", "--view", "xy", "--D", "5", "--max-x", "6", "--format", f) for f in ("pretty", "csv", "json", "tex")),
    *(("grid", "--view", "ky", "--D", "2", "--kmax", "2", "--ymax", "3", "--format", f)
      for f in ("pretty", "csv", "json", "tex")),
    ("search", "--D", "2", "--m", "4", "--explain"),
    *(("search", "--D", "5", "--m", "4", "--format", f) for f in ("pretty", "csv", "json", "tex")),
    *(("parity", "--D", "3", "--N", "12", "--format", f) for f in ("pretty", "csv", "json")),
    *(("dm", "--m", "3", "--format", f) for f in ("pretty", "csv", "json")),
    *((kind, "--D", "7", "--format", f) for kind in ("units", "indecomposables") for f in ("pretty", "json")),
    *(("witness", "--D", "7", "--m", m, "--format", f) for m in ("4", "6") for f in ("pretty", "json")),
    *(("estimate", "--D", "2", "--a", "6", "--b", "2", "--compare", "--format", f) for f in ("pretty", "json")),
    ("verify",),
)

# Words argparse reads by rules of its own: values that start with "-", a
# type or choices check that fails, repeats, and forms that are not a whole
# option followed by its value.
PLAIN_EDGES = (
    ("units", "--D", "7", "extra"),
    ("units", "--D", "7", "--bogus", "1"),
    ("units",),
    ("nonsense",),
    (),
    ("grid", "--D", "2", "--view", "zz"),
    ("units", "--form", "json", "--D", "7"),
    ("units", "--D=7"),
    ("-h",),
    ("units", "-h"),
    ("units", "--D", "7", "--", "x"),
    ("--D", "7", "units"),
    ("-h", "units"),
    ("grid", "--D", "2", "--max-x", "-2"),
    ("witness", "--D", "5", "--m", "6", "--format", "json"),
    ("search", "--D", "2", "--m", "0"),
    ("estimate", "--D", "2", "--a", "3", "--b", "-1"),
    ("units", "--D"),
    ("units", "--D", "7", "--D", "11"),
    ("search", "--D", "2", "--m", "3", "--explain", "--explain"),
    ("witness", "--D", "7", "--m", "5"),
    ("witness", "--D", "7", "--m", "06"),
    ("units", "--D", " 7"),
    ("units", "--D", "٧"),
    ("verify", "--fixtures", ""),
    ("verify", "--fixtures", "-"),
    ("verify", "--fixtures", "--D"),
    ("dm", "--m", "3", "--Dmax", "1_0"),
    ("units", "--D", "7", "--"),
    ("units", "--D", "seven"),
)


def test_the_plain_reading_gives_what_argparse_gives(monkeypatch, tmp_path, capsys):
    # Each argv the plain reading answers gets argparse's own Namespace, and
    # main prints the same for every argv whether or not that reading runs.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # relative --fixtures paths stay inside tmp_path
    commands, parsers = cli._parser(), cli._argparser().commands

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argvs = PLAIN_SHAPES + PLAIN_EDGES
    for argv in argvs:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            continue
        plain = cli._read_plain(command, list(argv[1:]))
        if plain is not None:
            args, extras = parsers[argv[0]].parse_known_args(list(argv[1:]))
            assert (vars(plain), extras) == (vars(args), []), argv
    read = [outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_read_plain", lambda command, words: None)
    for argv, seen in zip(argvs, read):
        assert seen == outcome(argv), argv


def test_every_benchmark_shaped_argv_is_read_plain():
    # A table edit that sends these calls back through argparse fails here.
    # The plain reading follows only options that take one value or none,
    # and stores each default as declared, where argparse would convert a
    # string default through its option's type.
    commands = cli._parser()
    for argv in PLAIN_SHAPES:
        assert cli._read_plain(commands[argv[0]], list(argv[1:])) is not None, argv
    options = [option for _, _, declared in cli._COMMANDS.values() for option in declared]
    assert options
    for option, kind, choices, default, required in options:
        if kind is None and choices is None:  # a flag: absent False, present True
            assert (default, required) == (False, False), option
        assert not (isinstance(default, str) and kind is not None), option
    # The argparse parsers built from the table read each option as a flag
    # or as one value too.
    for parser in cli._argparser().commands.values():
        for action in parser._actions:
            if action.dest != "help":
                assert action.nargs is None or (action.nargs, action.const) == (0, True), action.dest


def test_importing_the_cli_and_building_its_parser_loads_no_introspection():
    # dataclasses loads inspect, ast, dis and tokenize, about a quarter of the
    # CLI's cold start; no command reads any of them.
    code, out, err = finish(start_python(
        "-c",
        "import sys, quadpartitions, quadpartitions.cli; quadpartitions.cli.build_parser(); "
        "print(*sorted(sys.modules))",
    ))
    assert (code, err) == (0, "")
    loaded = set(out.split())
    assert "quadpartitions.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    # Nor is a process pool loaded.
    pool = [name for name in loaded
            if name.split(".")[0] == "multiprocessing" or name.startswith("concurrent.futures")]
    assert pool == []


# Runs each list of argvs in sys.argv[1] through main with stdout and stderr
# sent to devnull, then prints the exit codes and which of argparse, gettext
# and quadpartitions.fixtures are loaded so far.
IMPORTS_CHILD = """\
import contextlib, json, os, sys
from quadpartitions.cli import main
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
    for argvs in json.loads(sys.argv[1]):
        codes = [main(argv) for argv in argvs]
        loaded = [name in sys.modules for name in ("argparse", "gettext", "quadpartitions.fixtures")]
        print(json.dumps([codes, loaded]), file=sys.__stdout__)
"""


def test_a_plain_argv_imports_no_argparse():
    # argparse and gettext cost about a tenth of the cold start, and
    # fixtures as much again: a plain argv loads neither, verify alone loads
    # fixtures, and only an argv that is not plain loads argparse.
    stages = [[argv for argv in PLAIN_SHAPES if argv[0] != "verify"], [["verify"]], [["units", "--D", "7", "extra"]]]
    code, out, err = finish(start_python("-c", IMPORTS_CHILD, json.dumps(stages)))
    assert (code, err) == (0, "")
    plain, verify, usage_error = map(json.loads, out.splitlines())
    assert plain == [[0] * len(stages[0]), [False, False, False]]
    assert verify == [[0], [False, False, True]]
    assert usage_error[0] == [1] and usage_error[1][0]


def test_a_child_interpreter_runs_at_the_parents_optimization_level():
    # Under python -O the children of start_python (the refusal table, the
    # walks, the import checks) run without their assert statements too.
    code, out, err = finish(start_python("-c", "import sys; print(sys.flags.optimize)"))
    assert (code, out, err) == (0, f"{sys.flags.optimize}\n", "")


def test_a_closed_stdout_exits_141_without_a_traceback():
    # The grid's 140,744 bytes overflow a 64 KiB pipe, so the process is
    # still writing when its reader stops after one line.
    proc = start_python("-m", "quadpartitions", "grid", "--D", "2", "--max-x", "100")
    assert proc.stdout.readline().startswith("   y\\x |")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, "")


def test_no_command_reads_what_only_perfbench_keeps(monkeypatch, capsys):
    # PartitionGrid keeps ensure, max_x and column_window, and GridPool its
    # grid, for perfbench alone: with all four raising, every subcommand
    # prints what it prints with them.
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
        raise AssertionError("a command read a member kept for perfbench")

    monkeypatch.setattr(partition.PartitionGrid, "ensure", perfbench_only)
    monkeypatch.setattr(partition.PartitionGrid, "max_x", property(perfbench_only))
    monkeypatch.setattr(partition.PartitionGrid, "column_window", perfbench_only)
    monkeypatch.setattr(partition.GridPool, "grid", perfbench_only)
    for argv, want in zip(argvs, unpatched):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == want, argv
    assert [code for code, _ in unpatched] == [0] * len(argvs)
