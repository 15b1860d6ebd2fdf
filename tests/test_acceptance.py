"""One test per release criterion; each prints a single PASS/FAIL line."""

import json
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext
from pathlib import Path

import quadpartitions
from quadpartitions import (
    Field,
    build_context,
    cone_columns,
    count_partitions,
    dm_scan,
    enumerate_partitions,
    exhaustive_scan_range,
    in_fundamental_domain,
    is_squarefree,
    parity_check,
    search_m,
    sigma_K,
    slice_element,
    trace_layer_count,
    witness_m4,
    witness_m6,
)
from quadpartitions.contfrac import floor_ratio_eps
from quadpartitions.partition import enumerate_interval
from quadpartitions.search import classify_m

from conftest import TABULATED_D, dense_counts, diagonal, verify_thresholds

REFERENCE = Path(quadpartitions.__file__).parent / "reference"


def load(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {n} FAIL: {description} ({exc!r})")
        raise
    print(f"ACCEPTANCE {n} PASS: {description}")


def test_criterion_1_figure_grid():
    with criterion(1, "88-cell partition grid for D=2 reproduced bit-exact in < 1 s"):
        fixture = load("grid-xy-D2")
        t0 = time.perf_counter()
        cone = dense_counts(Field(2), 10)
        rows = [
            [1 if (x, y) == (0, 0) else cone.get((x, y), 0) for x in range(11)]
            for y in range(len(fixture["rows"]))
        ]
        elapsed = time.perf_counter() - t0
        assert sum(len(r) for r in rows) == 88
        assert rows == fixture["rows"]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_slice_tables():
    with criterion(2, "eight slice tables reproduced bit-exact in < 60 s total"):
        t0 = time.perf_counter()
        seen_max = 0
        for D in TABULATED_D:
            fixture = load(f"slice-D{D}")
            field = Field(D)
            cone = dense_counts(field, field.ceil_xi_mult(fixture["y_max"]) + fixture["k_max"])
            rows = []
            for y in range(fixture["y_max"] + 1):
                row = []
                for k in range(fixture["k_max"] + 1):
                    if (k, y) == (0, 0):
                        row.append(1)
                        continue
                    e = slice_element(field, k, y)
                    row.append(cone[e.a, e.b])
                rows.append(row)
            assert rows == fixture["rows"], f"D={D}"
            seen_max = max(seen_max, max(max(r) for r in rows))
        elapsed = time.perf_counter() - t0
        assert seen_max == 26201
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_3_units_summary(contexts, pool):
    with criterion(3, "unit table: eps_plus, floor ratio and corner counts all match"):
        fixture = load("units-summary")
        assert [r["D"] for r in fixture["rows"]] == list(TABULATED_D)
        for row in fixture["rows"]:
            ctx = contexts[row["D"]]
            ep = ctx.eps_plus
            assert (ep.a, ep.b) == (row["eps_plus"]["a"], row["eps_plus"]["b"])
            assert str(ep) == row["eps_plus"]["text"]
            assert floor_ratio_eps(ctx) == row["floor_ratio"]
            grid = pool.grid(ctx.field)
            assert classify_m(ctx, 11).y_max == row["y_max"]
            corner = slice_element(ctx.field, 0, row["y_max"])
            assert grid.count(corner) == row["corner_count"]


def test_criterion_4_representative_tables(contexts):
    with criterion(4, "all elements with m <= 11 partitions match as exact sets"):
        for name in ("representatives-2-3-mod-4", "representatives-1-mod-4"):
            for entry in load(name)["fields"]:
                D = entry["D"]
                ctx = contexts[D]
                report = search_m(ctx, 11)
                assert set(entry["by_m"]) == {str(m) for m in range(1, 12)}
                for m_str, items in entry["by_m"].items():
                    got = [
                        {"a": e.a, "b": e.b, "text": str(e)}
                        for e in report.representatives.get(int(m_str), ())
                    ]
                    assert got == items, (D, m_str)


def test_criterion_5_dm_sets():
    with criterion(5, "D(m) scans return the expected sets for m in {1,2,3,5,7,11}"):
        want = {
            1: (),
            2: (),
            3: (5,),
            5: (2, 3, 5),
            7: (2, 5),
            11: (2, 3, 5, 6, 7, 13, 21),
        }
        for m, expected in want.items():
            got = dm_scan(m, list(exhaustive_scan_range(m)))
            assert got == expected, m


def test_criterion_6_witnesses(pool):
    with criterion(6, "4-partition and 6-or-9-partition witnesses for squarefree D <= 200"):
        getcontext().prec = 60
        for D in range(2, 201):
            if not is_squarefree(D):
                continue
            f = Field(D)
            grid = pool.grid(f)
            alpha, count = witness_m4(f, grid)
            assert count == 4, D
            if D == 5:
                assert grid.count(slice_element(f, 2, 2)) == 10
                continue
            alpha, count, branch = witness_m6(f, grid)
            assert (count, branch) in ((6, "wide-gap"), (9, "narrow-gap")), D
            sq = Decimal(D).sqrt()
            xi = (sq - 1) / 2 if D % 4 == 1 else sq
            wide = Decimal(f.floor_xi() + 1) - xi > Decimal("0.5")
            assert branch == ("wide-gap" if wide else "narrow-gap"), D
        # the six partitions of 16 + 4*sqrt(14)
        f14 = Field(14)
        alpha = f14.from_sqrt(16, 4)
        got = {
            tuple(sorted((p.a, p.b) for p in parts))
            for parts in enumerate_partitions(alpha)
        }
        assert got == {
            ((16, 4),),
            ((1, 0), (15, 4)),
            ((4, 1), (12, 3)),
            ((8, 2), (8, 2)),
            ((4, 1), (4, 1), (8, 2)),
            ((4, 1), (4, 1), (4, 1), (4, 1)),
        }
        assert len(got) == 6


def test_criterion_7_oracle_equivalence():
    with criterion(7, "brute-force count equals recurrence count on every cell with x <= 8"):
        checked = 0
        small = 0
        for D in TABULATED_D:
            f = Field(D)
            cone = dense_counts(f, 8)
            for (x, y), c in cone.items():
                assert count_partitions(f.element(x, y)) == c, (D, x, y)
                checked += 1
                if x <= 6:
                    small += 1
            expect_small = sum(
                f.floor_div_omega(x) + f.floor_div_xi(x) + 1 for x in range(1, 7)
            )
            cells_small = sum(1 for x, _ in cone if x <= 6)
            assert cells_small == expect_small
        assert checked >= 300, checked
        assert small >= 200, small


def test_criterion_8_invariant_suites(contexts, pool):
    with criterion(8, "conjugation, unit invariance, monotonicity, recurrence and parity invariants"):
        # conjugation symmetry on every cell up to x = 15
        for D in TABULATED_D:
            f = Field(D)
            cone = dense_counts(f, 15)
            for (x, y), c in cone.items():
                cx = x + y if f.one_mod4 else x
                if cx > 15:
                    continue  # conjugate column beyond the cone read
                assert cone[cx, -y] == c, (D, x, y)

        # multiplication by eps_plus fixes the count
        for D in (2, 5, 13):
            ctx = contexts[D]
            grid = pool.grid(ctx.field)
            for k in range(0, 4):
                for y in range(0, 4):
                    if (k, y) == (0, 0):
                        continue
                    e = slice_element(ctx.field, k, y)
                    assert grid.count(e * ctx.eps_plus) == grid.count(e), (D, k, y)

        # the partial order is strictly monotone
        for D in (2, 13):
            f = Field(D)
            cells = [(x, y, c) for (x, y), c in dense_counts(f, 6).items()]
            for x1, y1, c1 in cells:
                e1 = f.element(x1, y1)
                for x2, y2, c2 in cells:
                    if (x1, y1) == (x2, y2):
                        continue
                    if f.element(x2, y2).succ_gt(e1):
                        assert c2 > c1, (D, (x1, y1), (x2, y2))

        # divisor-weighted recurrence on every cell up to x = 10
        for D in TABULATED_D:
            f = Field(D)
            cone = dense_counts(f, 10)
            for (x, y), c in cone.items():
                alpha = f.element(x, y)
                total = f.element(0)
                for beta in enumerate_interval(alpha):
                    rest = 1 if beta == alpha else cone.get((alpha.a - beta.a, alpha.b - beta.b))
                    assert rest is not None
                    total = total + sigma_K(beta) * rest
                assert total == alpha * c, (D, x, y)

        # slice lemmas on the search regions
        for D in (2, 5, 13, 17):
            ctx = contexts[D]
            f = ctx.field
            cross = f.xi() + f.omega()
            pts = [(k, y) for k in range(0, 7) for y in range(0, 7) if (k, y) != (0, 0)]
            for k1, y1 in pts:
                e1 = slice_element(f, k1, y1)
                if in_fundamental_domain(e1, ctx):
                    margin = (k1 + 1) * ctx.eps_plus - f.element(k1) - y1 * cross
                    assert margin.sign() > 0, (D, k1, y1)
                for k2, y2 in pts:
                    e2 = slice_element(f, k2, y2)
                    if y1 <= y2 and k1 < k2:
                        assert e2.succ_gt(e1), (D, (k1, y1), (k2, y2))
                    if e2.succ_ge(e1):
                        assert k1 <= k2, (D, (k1, y1), (k2, y2))

        # a_n is odd in the D = 2, 3 (mod 4) classes
        for D in range(2, 31):
            if not is_squarefree(D) or D % 4 == 1:
                continue
            f = Field(D)
            assert all(trace_layer_count(f, 2 * n) % 2 == 1 for n in range(1, 201)), D

        # cumulative parity agrees with the grid diagonal
        for D in (2, 3, 6, 7):
            f = Field(D)
            report = parity_check(f, 40, diagonal(f, cone_columns(f, 40)))
            assert report.p_parity == tuple(v % 2 for v in report.P), D


def test_criterion_9_threshold_optimality(pool):
    with criterion(9, "p(n) collapses to the rational count exactly above E_n or F_n"):
        D_values = [D for D in range(2, 51) if is_squarefree(D)]
        for n in range(1, 13):
            rows = verify_thresholds(n, D_values, pool=pool)
            for row in rows:
                assert row.collapsed == (row.D > row.bound), (n, row.D)
