import json
import shutil
from pathlib import Path

import quadpartitions
from quadpartitions import BudgetExceeded, InvariantViolation, cli

REFERENCE = Path(quadpartitions.__file__).parent / "reference"


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
    code, out, _ = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 2
    assert "FAIL grid-xy-D2" in out
    assert "1 of 12 documents failed" in out


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
    class MiscountingGrid(cli.PartitionGrid):
        def count(self, e):
            return 0

    monkeypatch.setattr(cli, "PartitionGrid", MiscountingGrid)
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
