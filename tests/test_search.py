import hashlib
import random
from collections import Counter
from decimal import Decimal, getcontext

import pytest

from quadpartitions import (
    Field,
    InvariantViolation,
    PartitionGrid,
    build_context,
    dm_scan,
    en_fn_bounds,
    exhaustive_scan_range,
    find_kmax,
    find_ymax,
    fundamental_representative,
    in_fundamental_domain,
    indecomposables,
    is_squarefree,
    search_m,
    slice_element,
    witness_m4,
    witness_m6,
)
from quadpartitions import cli, partition, search
from quadpartitions.contfrac import floor_ratio_eps
from quadpartitions.parity import cumulative_P
from quadpartitions.partition import band_rows
from quadpartitions.search import slice_rows, worker_count

from conftest import (
    TABULATED_D,
    coin_change_count,
    cone_parity,
    grid_search,
    grid_slice_rows,
    stored_counts,
    verify_thresholds,
)

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


def test_search_bounds_frozen(contexts):
    for D in TABULATED_D:
        ctx = contexts[D]
        report = search_m(ctx, 11)
        assert (report.k_max, report.y_max) == BOUNDS_AT_11[D], D
        assert len(report.slice_counts) == report.y_max + 1
        assert all(len(row) == report.k_max + 1 for row in report.slice_counts)
        assert report.slice_counts[0][0] == 1


def test_slice_counts_match_grid(contexts, pool):
    ctx = contexts[7]
    grid = pool.grid(ctx.field)
    report = search_m(ctx, 11)
    for y, row in enumerate(report.slice_counts):
        for k, c in enumerate(row):
            if (k, y) == (0, 0):
                continue
            e = slice_element(ctx.field, k, y)
            assert grid.count(e) == c


def test_find_kmax_find_ymax(contexts, pool):
    for D in TABULATED_D:
        ctx = contexts[D]
        grid = pool.grid(ctx.field)
        assert find_kmax(grid, 1) == 1
        assert find_kmax(grid, 11) == BOUNDS_AT_11[D][0]
        assert find_ymax(ctx, 1) == floor_ratio_eps(ctx)
        assert find_ymax(ctx, 11) == BOUNDS_AT_11[D][1]
    with pytest.raises(ValueError):
        find_kmax(pool.grid(Field(2)), 0)
    with pytest.raises(ValueError):
        find_ymax(contexts[2], 0)


def test_find_kmax_is_the_least_n_with_p_at_least_m():
    # Against a linear walk of counts from n = 1 for every m <= 5,000.  The
    # counts of find_kmax start at the least n whose trace sum P(n) reaches
    # m, at or below k_max as P(n) >= p(n).
    for D in (2, 5, 13, 31):
        f = Field(D)
        walk, grid = PartitionGrid(f), PartitionGrid(f)
        P = cumulative_P(f, 30)
        assert all(walk.count(f.element(n)) <= P[n] for n in range(1, 31)), D
        n = 1
        for m in range(1, 5001):
            while walk.count(f.element(n)) < m:
                n += 1
            assert find_kmax(grid, m) == n, (D, m)
    # At D = 2 and m = 10^13, k_max = 69 while p_rational first reaches m at
    # n = 211, whose interval is over budget; the counts fill no column
    # beyond k_max.
    f = Field(2)
    grid = PartitionGrid(f)
    assert find_kmax(grid, 10**13) == 69
    assert grid.value(68, 0) < 10**13 <= grid.value(69, 0)
    assert grid.value(70, 0) is None


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


def test_m1_classes_are_indecomposable_classes(contexts):
    for D in TABULATED_D:
        ctx = contexts[D]
        report = search_m(ctx, 3)
        classes = {fundamental_representative(e, ctx) for e in indecomposables(ctx)}
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


def test_fundamental_representative_loop_is_bounded(contexts):
    for D in TABULATED_D:
        ctx = contexts[D]
        e = ctx.field.element(3, 1)
        rep = fundamental_representative(e, ctx)
        for _ in range(40):
            e = e * ctx.eps_plus
            assert fundamental_representative(e, ctx) == rep, D
    # With eps_plus = 1 no pass brings 2 + sqrt(2) into the domain.
    ctx = contexts[2]._replace(eps_plus=Field(2).element(1))
    with pytest.raises(InvariantViolation):
        fundamental_representative(Field(2).element(2, 1), ctx)


def test_slice_counts_are_conjugation_and_unit_invariant(contexts):
    # p(alpha) = p(alpha') = p(eps_plus * alpha') on the whole m = 11 slice
    # box, out to x = 1,186, far beyond the oracle's x <= 8.
    for ctx in (*contexts.values(), build_context(Field(19))):
        f = ctx.field
        grid = PartitionGrid(f)
        report = search_m(ctx, 11)
        for y, row in enumerate(report.slice_counts):
            for k, p in enumerate(row):
                if (k, y) != (0, 0):
                    conj = slice_element(f, k, y).conjugate()
                    assert grid.count(conj) == grid.count(ctx.eps_plus * conj) == p, (f.D, k, y)


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
    # Every other m raises: m = 4, 6 and 8 are no p(n), and m = p(7) = 15,
    # m = p(8) = 22 and a 301-digit m lie beyond the n <= 6 that the paper
    # settles.
    for m in (4, 6, 8, 15, 22, 10**300):
        with pytest.raises(ValueError):
            exhaustive_scan_range(m)


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


def test_search_missing_flag(contexts):
    r2 = search_m(contexts[2], 11)
    r17 = search_m(contexts[17], 11)
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
    # The oracle's grid stores the union of the row tops' intervals, a
    # deterministic count; the dense cone up to x_top has 575 and 7,560 cells.
    # search_m's band B(x_top, k_max + 1) holds the box and a few cells more.
    ctx = build_context(Field(D))
    grid = PartitionGrid(ctx.field)
    k_max, y_max, rows = grid_search(ctx, 11, grid)
    assert len(stored_counts(grid)) == cells
    report = search_m(ctx, 11)
    assert (report.k_max, report.y_max, report.slice_counts) == (k_max, y_max, rows)
    x_top = ctx.field.ceil_xi_mult(y_max) + k_max
    assert sum(len(values) for _, values in band_rows(ctx.field, x_top, k_max + 1).values()) == {2: 133, 19: 290}[D]


def test_ky_view_fills_only_the_slice_ideal(monkeypatch, capsys):
    # grid --view ky over search's own box (k_max, y_max) = (6, 40) for D=19
    # reads it from one band of 290 cells, and the oracle's grid stores 286;
    # the dense fill under the box stored 7,559.
    f = Field(19)
    report = search_m(build_context(f), 11)
    assert (report.k_max, report.y_max) == (6, 40)
    grid = PartitionGrid(f)
    assert grid_slice_rows(grid, 6, 40) == slice_rows(f, 6, 40) == report.slice_counts
    assert len(stored_counts(grid)) == 286

    grids = []
    bands = []

    class RecordingGrid(partition.PartitionGrid):
        def __init__(self, field):
            super().__init__(field)
            grids.append(self)

    def recording_band(field, max_x, K):
        rows = band_rows(field, max_x, K)
        bands.append((max_x, K, sum(len(values) for _, values in rows.values())))
        return rows

    monkeypatch.setattr(cli, "PartitionGrid", RecordingGrid)
    monkeypatch.setattr(search, "band_rows", recording_band)
    assert cli.main(["grid", "--D", "19", "--view", "ky", "--kmax", "6", "--ymax", "40"]) == 0
    capsys.readouterr()
    assert grids == []
    assert bands == [(f.ceil_xi_mult(40) + 6, 7, 290)]


@pytest.mark.parametrize("D, k, y, x, p", [
    (73, 0, 338, 1275, 42),
    (97, 0, 266, 1177, 77),
    (89, 0, 456, 1923, 56),
    (73, 6, 1, 10, 30),
])
def test_slice_hits_beyond_m_11_agree_with_the_coin_change_count(D, k, y, x, p):
    # Hits of the D(m) scans beyond the paper: cells with exactly m = p(10),
    # p(12), p(11) and p(9) partitions.  They lie at x up to 1,923, with at
    # most 27 points below each, far past the brute-force oracle's x <= 8.
    f = Field(D)
    alpha = slice_element(f, k, y)
    assert alpha.a == x
    assert slice_rows(f, k, y)[y][k] == coin_change_count(alpha) == p


def test_search_reaches_D31():
    # The dense search would fill all 421,815 cells up to x_top = 1532; the
    # band holds 1,926 of them, where the oracle's grid stores 1,924.
    ctx = build_context(Field(31))
    f = ctx.field
    report = search_m(ctx, 11)
    assert (report.k_max, report.y_max) == (6, 274)
    assert not report.missing()
    x_top = f.ceil_xi_mult(report.y_max) + report.k_max
    cone = sum(f.floor_div_omega(x) + f.floor_div_xi(x) + 1 for x in range(x_top + 1))
    assert (x_top, cone) == (1532, 421815)
    assert sum(len(values) for _, values in band_rows(f, x_top, 7).values()) == 1926


def test_band_floor_work_follows_its_rows_not_x(monkeypatch):
    # find_ymax's corner bands hold one cell a row: for D=195 (xi ~ 13.96)
    # the 301 corners up to y = 300 lie in a band that runs to x = 4,190.
    # Its bounds take one floor a row (318 floors in all here), where a walk
    # by columns takes about one for each of its 4,190 columns.
    f = Field(195)
    assert f.ceil_xi_mult(300) == 4190
    calls = Counter()
    for name in ("floor_xi", "floor_xi_mult", "ceil_xi_mult", "floor_div_xi", "floor_div_omega"):
        def counted(self, *args, _name=name, _method=getattr(Field, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Field, name, counted)
    assert len(slice_rows(f, 0, 300)) == 301
    assert sum(calls.values()) < 2 * (300 + 1), calls


def test_slice_counts_match_the_parity_kernel():
    # cone_parity expands the Euler product mod 2 over the whole cone and shares
    # no arithmetic with the interval fill that search_m uses.
    checked = []
    for D in SLICE_SEARCH_FIELDS:
        f = Field(D)
        report = search_m(build_context(f), 11)
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


def oracle_fields() -> list[int]:
    """Every squarefree D < 200 with floor(eps_plus/(xi + omega)) < 70."""
    return [D for D in range(2, 200) if is_squarefree(D) and floor_ratio_eps(build_context(Field(D))) < 70]


def test_search_matches_the_grid_oracle():
    # The band and its certificate against the per-cell recurrence, bit for
    # bit, on the oracle fields, on each of which the oracle's grid search
    # takes under 0.1 s.
    fields = oracle_fields()
    assert len(fields) == 70
    for D in fields:
        ctx = build_context(Field(D))
        grid = PartitionGrid(ctx.field)
        for m in (3, 5, 7, 10, 11):
            report = search_m(ctx, m)
            assert (report.k_max, report.y_max, report.slice_counts) == grid_search(ctx, m, grid), (D, m)


def test_the_first_slice_corner_is_never_zero():
    # find_ymax starts at y = floor(eps_plus/(xi + omega)), proved >= 1 in its
    # docstring, so it never reads the corner (0, 0).
    fields = [D for D in range(2, 3000) if is_squarefree(D)]
    assert len(fields) == 1823
    assert min(floor_ratio_eps(build_context(Field(D))) for D in fields) == 1


def test_the_D31_box_widens_in_place_byte_by_byte(monkeypatch, capsys):
    # The values of D=31's box reach 46 bits, so its band, started at 16-bit
    # slots, widens a byte at a time to 56 bits: the 48 value bits that hold
    # 46 under the guard byte.  Every band starts at 16 bits and each wider
    # estimate is one byte more, so no band is folded twice.
    estimate = partition._band_ms
    widths = []

    def recording(field, X, K, a, b, bits):
        widths.append(bits)
        return estimate(field, X, K, a, b, bits)

    monkeypatch.setattr(partition, "_band_ms", recording)
    assert cli.main(["search", "--D", "31", "--m", "11", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd80c53c3b50704968e30da5d4346d0799df614dfdad9b94ee50abe56613ec9e"
    )
    assert all(b in (16, a + 8) for a, b in zip(widths, widths[1:]))
    assert widths[-6:] == [16, 24, 32, 40, 48, 56]


def test_the_band_priced_before_the_counts_costs_no_more_than_the_box(monkeypatch):
    # Before any count, search_m prices find_ymax's first band and then a
    # band inside its box, at a width the box's fold reaches.  On the pinned
    # searches that estimate is at most the box band's at the width where
    # its fold ends, so a search the box's own checks let finish is never
    # refused by it.
    estimate = partition._band_ms
    calls = []

    def recording(field, X, K, a, b, bits):
        ms = estimate(field, X, K, a, b, bits)
        calls.append((X, K, ms))
        return ms

    monkeypatch.setattr(partition, "_band_ms", recording)
    for D, m in ((2, 10), (5, 10), (31, 11), (41, 11), (43, 11), (61, 11)):
        calls.clear()
        f = Field(D)
        report = search_m(build_context(f), m)
        box = (f.ceil_xi_mult(report.y_max) + report.k_max, report.k_max + 1)
        assert calls[1][2] <= [ms for X, K, ms in calls if (X, K) == box][-1], D


def test_search_rows_stop_at_the_first_p_over_m_and_the_first_cell_inside():
    # search_m stops a row at its first p > m and tests the domain only up to
    # the row's first cell inside it: p is nondecreasing along every row and
    # membership is monotone in k (proofs in its docstring).  Its
    # representatives equal a filter that tests every cell with p <= m.
    for D in oracle_fields():
        ctx = build_context(Field(D))
        for m in (3, 5, 7, 10, 11):
            report = search_m(ctx, m)
            found = {n: [] for n in range(1, m + 1)}
            for y, row in enumerate(report.slice_counts):
                assert list(row) == sorted(row), (D, m, y)
                inside = [in_fundamental_domain(slice_element(ctx.field, k, y), ctx) for k in range(len(row))]
                assert inside == sorted(inside), (D, m, y)
                for k, p in enumerate(row):
                    if p <= m and inside[k]:
                        found[p].append(slice_element(ctx.field, k, y))
            expected = {n: tuple(sorted(reps, key=lambda e: e.lex_key)) for n, reps in found.items()}
            assert {n: report.representatives.get(n, ()) for n in expected} == expected, (D, m)
            assert set(report.representatives) == {n for n, reps in expected.items() if reps}, (D, m)


def test_search_records_only_the_m_it_finds(contexts):
    # One entry per m that some element has, never an empty one: the box
    # bounds how many there are, where one entry per m <= m_max took 100,000.
    report = search_m(contexts[2], 10**5)
    assert 0 < len(report.representatives) <= sum(map(len, report.slice_counts))
    assert all(report.representatives.values())


@pytest.mark.parametrize("late", [False, True])
def test_search_certifies_the_corners_find_ymax_read(monkeypatch, late):
    # find_ymax reads its corners from the fold without its certificate, and
    # search_m checks y_max against column 0 of its certified box.  A fold
    # that lets the corner before y_max read m_max (too early), or y_max
    # itself read m_max - 1 (too late), must be caught and name D.
    ctx = build_context(Field(2))
    y0, y_max = floor_ratio_eps(ctx), BOUNDS_AT_11[2][1]
    assert y0 < y_max - 1
    y, value = (y_max, 10) if late else (y_max - 1, 11)
    fold = partition._band_product
    changed = []

    def wrong(field, X, K):
        rows, certify = fold(field, X, K)
        if y in rows:
            rows[y] = (rows[y][0], [value])
            changed.append(X)
        return rows, certify

    monkeypatch.setattr(search, "_band_product", wrong)
    with pytest.raises(InvariantViolation, match=rf"D=2 .*corner \(0, {y}\)"):
        search_m(ctx, 11)
    assert changed


def test_each_search_certifies_one_band(monkeypatch):
    # find_ymax's corner bands skip the certificate, so each search on the
    # benchmark's slice-search fields certifies its box alone, while every
    # band, corners included, is still folded.
    certified, folded = [], []
    violation, fold = partition._band_violation, partition._band_fold

    def counted_violation(*args):
        certified.append(1)
        return violation(*args)

    def counted_fold(*args):
        folded.append(1)
        return fold(*args)

    monkeypatch.setattr(partition, "_band_violation", counted_violation)
    monkeypatch.setattr(partition, "_band_fold", counted_fold)
    for D in SLICE_SEARCH_FIELDS:
        certified.clear()
        folded.clear()
        search_m(build_context(Field(D)), 11)
        assert len(certified) == 1 and len(folded) >= 2, D
