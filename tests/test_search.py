import random
from decimal import Decimal, getcontext

import pytest

from quadpartitions import (
    Field,
    PartitionGrid,
    build_context,
    cone_parity,
    dm_scan,
    en_fn_bounds,
    exhaustive_scan_range,
    find_kmax,
    find_ymax,
    fundamental_representative,
    in_fundamental_domain,
    is_squarefree,
    search_m,
    slice_element,
    verify_thresholds,
    witness_m4,
    witness_m6,
)
from quadpartitions import cli
from quadpartitions.contfrac import floor_ratio_eps
from quadpartitions.search import slice_rows, worker_count

from conftest import TABULATED_D, stored_counts

# (k_max, y_max) produced by search_m at m_max = 11
BOUNDS_AT_11 = {
    2: (6, 15),
    3: (6, 11),
    5: (5, 13),
    6: (6, 9),
    7: (6, 11),
    13: (6, 10),
    17: (6, 18),
    21: (6, 9),
}

# The 53 fields searched by the benchmark's slice-search workload.
SLICE_SEARCH_FIELDS = (
    2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23, 26, 29, 30, 33, 34, 35, 37, 38, 39,
    42, 47, 51, 53, 55, 57, 62, 66, 69, 77, 78, 79, 83, 85, 87, 93, 95, 102, 105, 110, 119,
    133, 138, 141, 142, 143, 165, 182, 194, 195,
)

WITNESS6_BRANCH = {
    2: (6, "wide-gap"),
    3: (9, "narrow-gap"),
    6: (6, "wide-gap"),
    7: (9, "narrow-gap"),
    13: (6, "wide-gap"),
    17: (9, "narrow-gap"),
    21: (9, "narrow-gap"),
}


def test_slice_element_basics():
    f = Field(2)
    assert slice_element(f, 3, 0) == f.element(3)
    assert slice_element(f, 0, 1) == f.element(2, 1)  # ceil(sqrt(2)) = 2
    assert slice_element(f, 0, 0) == f.element(0)
    for k in range(0, 5):
        for y in range(0, 5):
            if (k, y) == (0, 0):
                continue
            assert slice_element(f, k, y).is_totally_positive()
    with pytest.raises(ValueError):
        slice_element(f, -1, 0)
    with pytest.raises(ValueError):
        slice_element(f, 0, -1)


def test_search_bounds_frozen(contexts, pool):
    for D in TABULATED_D:
        ctx = contexts[D]
        report = search_m(ctx, 11, pool.grid(ctx.field))
        assert (report.k_max, report.y_max) == BOUNDS_AT_11[D], D
        assert len(report.slice_counts) == report.y_max + 1
        assert all(len(row) == report.k_max + 1 for row in report.slice_counts)
        assert report.slice_counts[0][0] == 1


def test_slice_counts_match_grid(contexts, pool):
    ctx = contexts[7]
    grid = pool.grid(ctx.field)
    report = search_m(ctx, 11, grid)
    for y, row in enumerate(report.slice_counts):
        for k, c in enumerate(row):
            if (k, y) == (0, 0):
                continue
            e = slice_element(ctx.field, k, y)
            assert grid.value(e.a, e.b) == c


def test_find_kmax_find_ymax(contexts, pool):
    for D in TABULATED_D:
        ctx = contexts[D]
        grid = pool.grid(ctx.field)
        assert find_kmax(grid, 1) == 1
        assert find_kmax(grid, 11) == BOUNDS_AT_11[D][0]
        assert find_ymax(ctx, grid, 1) == floor_ratio_eps(ctx)
        assert find_ymax(ctx, grid, 11) == BOUNDS_AT_11[D][1]
    with pytest.raises(ValueError):
        find_kmax(pool.grid(Field(2)), 0)
    with pytest.raises(ValueError):
        find_ymax(contexts[2], pool.grid(Field(2)), 0)


def test_domain_membership_lemma_slice_bound(contexts):
    # in the domain, y*(xi + omega) < (k+1)*eps_plus - k, all signs exact
    for D in (2, 5, 13):
        ctx = contexts[D]
        f = ctx.field
        cross = f.xi() + f.omega()
        for y in range(0, 9):
            for k in range(0, 9):
                if (k, y) == (0, 0):
                    continue
                e = slice_element(f, k, y)
                if not in_fundamental_domain(e, ctx):
                    continue
                margin = (k + 1) * ctx.eps_plus - f.element(k) - y * cross
                assert margin.sign() > 0, (D, k, y)


def test_slice_order_monotone_in_k_and_y(contexts):
    # y1 <= y2 and k1 < k2 forces slice1 strictly below slice2; conversely
    # slice1 <= slice2 forces k1 <= k2
    for D in (2, 5, 13):
        f = contexts[D].field
        pts = [(k, y) for k in range(0, 9) for y in range(0, 9) if (k, y) != (0, 0)]
        for k1, y1 in pts:
            e1 = slice_element(f, k1, y1)
            for k2, y2 in pts:
                e2 = slice_element(f, k2, y2)
                if y1 <= y2 and k1 < k2:
                    assert e2.succ_gt(e1), (D, (k1, y1), (k2, y2))
                if e2.succ_ge(e1):
                    assert k1 <= k2, (D, (k1, y1), (k2, y2))


def test_m1_classes_are_indecomposable_classes(contexts, pool):
    for D in TABULATED_D:
        ctx = contexts[D]
        report = search_m(ctx, 3, pool.grid(ctx.field))
        classes = {fundamental_representative(e, ctx) for e in ctx.indecomposables}
        assert set(report.representatives[1]) == classes, D


def test_fundamental_representative_orbit(contexts):
    rng = random.Random(0x5EED5)
    for D in (2, 5, 7, 13):
        ctx = contexts[D]
        f = ctx.field
        inv = ctx.eps_plus.conjugate()
        for _ in range(40):
            e = slice_element(f, rng.randrange(0, 6), rng.randrange(0, 6))
            if e == f.element(0):
                continue
            rep = fundamental_representative(e, ctx)
            assert in_fundamental_domain(rep, ctx)
            assert fundamental_representative(rep, ctx) == rep
            orbit = [e.conjugate(), e * ctx.eps_plus, e * inv, (e * ctx.eps_plus).conjugate()]
            for other in orbit:
                assert fundamental_representative(other, ctx) == rep
    with pytest.raises(ValueError):
        fundamental_representative(Field(2).element(-1), contexts[2])


def test_boundary_elements_are_self_paired(contexts):
    # alpha = eps_plus * conj(alpha) exactly on the domain boundary
    cases = {2: (4, 2), 6: (6, 2), 7: (12, 4), 5: (4, 2), 17: (13, 8)}
    for D, (a, b) in cases.items():
        ctx = contexts[D]
        e = ctx.field.element(a, b)
        assert (ctx.eps_plus * e.conjugate() - e).sign() == 0
        assert in_fundamental_domain(e, ctx)
        assert fundamental_representative(e, ctx) == e


def test_witness_m4_small_fields(pool):
    for D in range(2, 61):
        if not is_squarefree(D):
            continue
        f = Field(D)
        alpha, count = witness_m4(f, pool.grid(f))
        assert count == 4
        assert alpha == slice_element(f, 2, 1)


def test_witness_m6_branches(pool):
    getcontext().prec = 60
    for D, (count, branch) in WITNESS6_BRANCH.items():
        f = Field(D)
        alpha, got, got_branch = witness_m6(f, pool.grid(f))
        assert got == count, D
        assert got_branch == branch, D
        assert alpha == slice_element(f, 2, 2)
        # independent gap oracle: ceil(xi) - xi vs 1/2
        sq = Decimal(D).sqrt()
        xi = (sq - 1) / 2 if D % 4 == 1 else sq
        gap = Decimal(f.floor_xi() + 1) - xi
        assert (gap > Decimal("0.5")) == (branch == "wide-gap"), D


def test_witness_m6_excludes_sqrt5(pool):
    # the candidate element of Q(sqrt(5)) has 10 partitions instead of 6 or 9
    f = Field(5)
    assert witness_m6(f, pool.grid(f)) == (slice_element(f, 2, 2), 10, "excluded")


def test_exhaustive_scan_range_frozen():
    assert exhaustive_scan_range(1) == ()
    assert exhaustive_scan_range(2) == ()
    assert exhaustive_scan_range(3) == (5,)
    assert exhaustive_scan_range(5) == (2, 3, 5)
    assert exhaustive_scan_range(7) == (2, 3, 5, 13, 17, 21)
    assert exhaustive_scan_range(11) == (2, 3, 5, 6, 7, 13, 17, 21)
    with pytest.raises(ValueError):
        exhaustive_scan_range(4)


def test_dm_scan():
    assert dm_scan(3, exhaustive_scan_range(3)) == (5,)
    assert dm_scan(5, exhaustive_scan_range(5), jobs=2) == (2, 3, 5)
    assert dm_scan(11, (17,)) == ()
    with pytest.raises(ValueError):
        dm_scan(3, (12,))
    with pytest.raises(ValueError):
        dm_scan(3, (1,))


def test_en_fn_bounds_frozen():
    assert [en_fn_bounds(n) for n in range(1, 7)] == [
        (0, 1),
        (1, 1),
        (1, 9),
        (4, 9),
        (4, 25),
        (9, 25),
    ]
    with pytest.raises(ValueError):
        en_fn_bounds(0)


def test_verify_thresholds(pool):
    rows = verify_thresholds(4, TABULATED_D, pool=pool)
    for row in rows:
        assert row.collapsed == (row.D > row.bound)
        grid = pool.grid(Field(row.D))
        assert row.p_field == grid.value(4, 0)
    assert {r.D: r.collapsed for r in rows} == {
        2: False, 3: False, 5: False, 6: True, 7: True,
        13: True, 17: True, 21: True,
    }
    ones = verify_thresholds(1, TABULATED_D, pool=pool)
    assert all(r.collapsed and r.p_field == 1 for r in ones)


def test_search_missing_flag(contexts, pool):
    r2 = search_m(contexts[2], 11, pool.grid(Field(2)))
    r17 = search_m(contexts[17], 11, pool.grid(Field(17)))
    assert r2.missing()
    assert not r17.missing()
    assert [str(e) for e in r17.representatives[11]] == ["14+3√17"]


def test_dm_worker_count_is_capped():
    assert worker_count(1, 10, 8) == 1
    assert worker_count(4, 10, 8) == 4
    assert worker_count(1000, 10, 8) == 8
    assert worker_count(1000, 3, 8) == 3
    assert worker_count(5, 0, 8) == 0
    with pytest.raises(ValueError):
        worker_count(0, 10, 8)


@pytest.mark.parametrize("D, cells", [(2, 122), (19, 286)])
def test_search_fills_only_the_slice_ideal(D, cells):
    # The stored cells are the union of the row tops' intervals, a deterministic
    # count; the dense cone up to x_top has 575 and 7,560 cells.
    ctx = build_context(Field(D))
    grid = PartitionGrid(ctx.field)
    search_m(ctx, 11, grid)
    assert len(stored_counts(grid)) == cells


def test_ky_view_fills_only_the_slice_ideal(monkeypatch, capsys):
    # grid --view ky over search's own box (k_max, y_max) = (6, 40) for D=19
    # stores the same 286 cells; the dense fill under the box stored 7,559.
    f = Field(19)
    report = search_m(build_context(f), 11)
    assert (report.k_max, report.y_max) == (6, 40)
    grid = PartitionGrid(f)
    assert slice_rows(grid, 6, 40) == report.slice_counts
    assert len(stored_counts(grid)) == 286

    grids = []

    class RecordingGrid(cli.PartitionGrid):
        def __init__(self, field):
            super().__init__(field)
            grids.append(self)

    monkeypatch.setattr(cli, "PartitionGrid", RecordingGrid)
    assert cli.main(["grid", "--D", "19", "--view", "ky", "--kmax", "6", "--ymax", "40"]) == 0
    capsys.readouterr()
    assert [len(stored_counts(g)) for g in grids] == [286]


def test_search_reaches_D31():
    # The dense search would fill all 421,815 cells up to x_top = 1532.
    ctx = build_context(Field(31))
    f = ctx.field
    grid = PartitionGrid(f)
    report = search_m(ctx, 11, grid)
    assert len(stored_counts(grid)) == 1924
    assert (report.k_max, report.y_max) == (6, 274)
    assert not report.missing()
    x_top = f.ceil_xi_mult(report.y_max) + report.k_max
    cone = sum(f.floor_div_omega(x) + f.floor_div_xi(x) + 1 for x in range(x_top + 1))
    assert (x_top, cone) == (1532, 421815)


def test_slice_counts_match_the_parity_kernel():
    # cone_parity expands the Euler product mod 2 over the whole cone and shares
    # no arithmetic with the interval fill that search_m uses.
    checked = []
    for D in SLICE_SEARCH_FIELDS:
        f = Field(D)
        report = search_m(build_context(f), 11, PartitionGrid(f))
        x_top = f.ceil_xi_mult(report.y_max) + report.k_max
        if x_top > 200:
            continue
        par = cone_parity(f, x_top)
        for y, row in enumerate(report.slice_counts):
            for k, c in enumerate(row):
                e = slice_element(f, k, y)
                assert par[e.a][e.b + f.floor_div_omega(e.a)] == c % 2, (D, k, y)
        checked.append(D)
    assert len(checked) == 51 and 19 in checked
