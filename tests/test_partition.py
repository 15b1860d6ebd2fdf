import random

import pytest

from quadpartitions import (
    DivisibilityViolation,
    Field,
    InvariantViolation,
    PartitionGrid,
    QElement,
    asymptotic_estimate,
    cone_parity,
    enumerate_interval,
    p_rational,
    sigma_K,
)
from quadpartitions import cli, cone_columns, partition
from quadpartitions.partition import content

from conftest import TABULATED_D, dense_counts, euler_product, stored_counts

SPOT_VALUES = {
    # (D, a, b) -> p, frozen reference values
    (2, 4, 2): 3,
    (2, 10, 5): 33,
    (2, 6, 0): 19,
    (3, 4, 0): 6,
    (5, 4, 2): 10,
    (7, 12, 4): 8,
    (17, 35, 18): 26201,  # the k = 6, y = 18 slice corner: ceil(18*xi) + 6 = 35
}


def conjugate_cell(field: Field, x: int, y: int) -> tuple[int, int]:
    return (x + y, -y) if field.one_mod4 else (x, -y)


def brute_interval(alpha: QElement) -> set[QElement]:
    fld = alpha.field
    out = set()
    for u in range(1, alpha.a + 1):
        for v in range(-3 * u - 3, 3 * u + 4):
            beta = QElement(fld, u, v)
            rest = alpha - beta
            if beta.is_totally_positive():
                if (rest.a, rest.b) == (0, 0) or rest.is_totally_positive():
                    out.add(beta)
    return out


def test_divisor_cache():
    assert partition.divisors(12) == (1, 2, 3, 4, 6, 12)
    assert partition.divisors(1) == (1,)
    assert partition.divisors(49) == (1, 7, 49)
    assert partition.sigma(12) == 28
    assert partition.sigma(1) == 1
    with pytest.raises(ValueError):
        partition.divisors(0)
    with pytest.raises(ValueError):
        partition.sigma(0)


def test_content_and_sigma_k():
    f = Field(2)
    assert content(f.element(6, 4)) == 2
    assert content(f.element(5, 0)) == 5
    with pytest.raises(ValueError):
        content(f.element(0, 0))
    e = f.element(6, 4)  # content 2, sigma(2) = 3
    assert sigma_K(e) == f.element(9, 6)
    with pytest.raises(ValueError):
        sigma_K(f.element(-1, 0))


def test_interval_enumeration_is_exact():
    rng = random.Random(0x1B7)
    for D in TABULATED_D:
        f = Field(D)
        for _ in range(25):
            x = rng.randint(1, 7)
            lo = -f.floor_div_omega(x)
            hi = f.floor_div_xi(x)
            y = rng.randint(lo, hi)
            alpha = f.element(x, y)
            if not alpha.is_totally_positive():
                continue
            got = list(enumerate_interval(alpha))
            assert len(set(got)) == len(got)
            assert set(got) == brute_interval(alpha), (D, x, y)
            assert got[-1] == alpha


def test_interval_rejects_bad_base():
    with pytest.raises(ValueError):
        list(enumerate_interval(Field(2).element(1, 1)))


def test_spot_values(pool):
    for (D, a, b), want in SPOT_VALUES.items():
        f = Field(D)
        assert pool.grid(f).count(f.element(a, b)) == want, (D, a, b)


def test_grid_windows_and_base_column():
    # ensure, max_x and column_window, which perfbench reads: ensure(X) stores
    # exactly the dense cone up to X, and max_x and the windows describe it.
    for D in TABULATED_D:
        f = Field(D)
        grid = PartitionGrid(f)
        grid.ensure(10)
        assert stored_counts(grid) == dense_counts(f, 10), D
        assert grid.max_x == 10
        assert grid.value(0, 0) == 1
        assert grid.column_window(0) == (0, 0)
        for x in range(1, 11):
            lo, hi = grid.column_window(x)
            assert lo == -f.floor_div_omega(x)
            assert hi == f.floor_div_xi(x)
        with pytest.raises(ValueError):
            grid.column_window(11)
        assert grid.value(1, -1) is None  # floor(1/omega) = 0, so no y = -1 cell
        assert grid.value(-1, 0) is None


def test_out_of_cone_queries(pool):
    f = Field(2)
    grid = pool.grid(f)
    grid.count(f.element(4, 2))
    assert grid.value(3, 3) is None
    assert grid.value(-1, 0) is None
    with pytest.raises(ValueError):
        grid.count(f.element(3, 3))
    with pytest.raises(ValueError):
        grid.count(Field(3).element(2, 0))


def test_conjugation_symmetry():
    for D in TABULATED_D:
        f = Field(D)
        dense = dense_counts(f, 25)
        for (x, y), c in dense.items():
            cx, cy = conjugate_cell(f, x, y)
            if cx <= 25:
                assert dense[cx, cy] == c, (D, x, y)


def test_unit_invariance(contexts, pool):
    for D, cap in ((2, 8), (5, 8), (13, 6)):
        ctx = contexts[D]
        grid = pool.grid(ctx.field)
        for (x, y), c in dense_counts(ctx.field, cap).items():
            e = ctx.field.element(x, y)
            assert grid.count(ctx.eps_plus * e) == c, (D, x, y)


def test_strict_monotonicity():
    for D in (2, 5):
        f = Field(D)
        cells = dense_counts(f, 8).items()
        for (x1, y1), c1 in cells:
            e1 = f.element(x1, y1)
            for (x2, y2), c2 in cells:
                if (x1, y1) == (x2, y2):
                    continue
                if f.element(x2, y2).succ_gt(e1):
                    assert c2 > c1, (D, (x1, y1), (x2, y2))


def test_recurrence_coefficients_recheck():
    # alpha * p(alpha) = sum sigma_K(beta) * p(alpha - beta), re-derived
    # through the public interval generator instead of the packed columns.
    for D in TABULATED_D:
        f = Field(D)
        dense = dense_counts(f, 10)
        for (x, y), c in dense.items():
            alpha = f.element(x, y)
            total = f.element(0)
            for beta in enumerate_interval(alpha):
                rest = alpha - beta
                pr = 1 if beta == alpha else dense.get((rest.a, rest.b))  # p(0) = 1
                assert pr is not None
                total = total + sigma_K(beta) * pr
            assert total == alpha * c, (D, x, y)


def test_column_cells_all_positive(pool):
    for D in TABULATED_D:
        f = Field(D)
        grid = pool.grid(f)
        grid.count(f.element(12, 0))
        assert all(c >= 1 for c in stored_counts(grid).values()), D
        assert all(c >= 1 for c in dense_counts(f, 12).values()), D


def test_fresh_grid_and_pool_agree(pool):
    for D in (3, 21):
        f = Field(D)
        fresh = PartitionGrid(f)
        shared = pool.grid(f)
        for (x, y), c in dense_counts(f, 9).items():
            e = f.element(x, y)
            assert fresh.count(e) == shared.count(e) == c, (D, x, y)


def test_count_stores_exactly_the_interval():
    # On a fresh grid count(alpha) stores [0, alpha] and nothing else; a cell of
    # a window outside the interval is not computed and reads None.
    for D, a, b in ((2, 3, 2), (2, 10, 5), (5, 6, 3), (5, 9, 1)):
        f = Field(D)
        alpha = f.element(a, b)
        grid = PartitionGrid(f)
        grid.count(alpha)
        stored = stored_counts(grid)
        assert set(stored) == {(e.a, e.b) for e in brute_interval(alpha)}, (D, a, b)
        assert stored.items() <= dense_counts(f, a).items(), (D, a, b)
    grid = PartitionGrid(Field(2))
    assert grid.count(Field(2).element(3, 2)) == 1  # the unit 3+2*sqrt(2)
    assert grid.value(3, 0) is None and grid.value(1, 0) is None
    # After a sequence of counts it stores exactly the union of their intervals,
    # and no cell between two of them.
    rng = random.Random(0xC0DE)
    for D in TABULATED_D:
        f = Field(D)
        dense = dense_counts(f, 30)
        cells = list(dense)
        rng.shuffle(cells)
        grid = PartitionGrid(f)
        union = set()
        for x, y in cells[:12]:
            grid.count(f.element(x, y))
            union |= {(e.a, e.b) for e in brute_interval(f.element(x, y))}
        stored = stored_counts(grid)
        assert set(stored) == union, D
        assert stored.items() <= dense.items(), D


def test_count_in_any_order_matches_the_dense_grid():
    # A shuffled order makes new intervals overlap the stored cells only in
    # part, so _fill must compute exactly the missing cells of each column.
    rng = random.Random(0xC0DE)
    for D in TABULATED_D:
        f = Field(D)
        dense = dense_counts(f, 30)
        cells = list(dense)
        rng.shuffle(cells)
        grid = PartitionGrid(f)
        for x, y in cells:
            assert grid.count(f.element(x, y)) == dense[x, y], (D, x, y)
        assert stored_counts(grid) == dense, D


def test_ensure_completes_partial_columns():
    # ensure and max_x, which perfbench reads, after count left partial columns.
    f = Field(13)
    grid = PartitionGrid(f)
    grid.count(f.element(9, 4))
    grid.ensure(12)
    assert grid.max_x == 12
    assert stored_counts(grid) == dense_counts(f, 12)
    # extended further, it still equals the dense cone on every cell
    grid.ensure(20)
    assert grid.max_x == 20
    assert stored_counts(grid) == dense_counts(f, 20)


def test_p_rational_small_values():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
    for n, w in enumerate(want):
        assert p_rational(n) == w
    with pytest.raises(ValueError):
        p_rational(-1)


def brute_rational_partitions(n: int) -> int:
    # classic bounded-part counting, independent of the sigma recurrence
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[k][0] = 1
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            table[k][m] = table[k - 1][m] + (table[k][m - k] if m >= k else 0)
    return table[n][n]


def test_p_rational_against_brute_force():
    for n in range(0, 26):
        assert p_rational(n) == brute_rational_partitions(n), n


def test_rational_column_matches_p_rational_when_cone_is_narrow():
    # For D > E_n the y = 0 column collapses to the rational values.
    f = Field(199)
    grid = PartitionGrid(f)
    for n in range(1, 13):
        assert grid.count(f.element(n, 0)) == p_rational(n), n


def test_divisibility_violation_on_corrupted_state():
    f = Field(2)
    grid = PartitionGrid(f)
    grid.count(f.element(6, 0))
    grid._cols[5][0] = 9  # poison p(5, 0)
    with pytest.raises(DivisibilityViolation):
        grid.count(f.element(12, 0))


def test_asymptotic_estimate_monotone_in_norm():
    f = Field(2)
    vals = [asymptotic_estimate(f.element(n, 0)) for n in (4, 8, 16, 32)]
    assert vals == sorted(vals)
    assert asymptotic_estimate(Field(5).element(4, 2)) > 0
    with pytest.raises(ValueError):
        asymptotic_estimate(f.element(1, 1))


def test_parity_grid_matches_exact_grid_mod_2():
    # D=2 at X=60 fails when W is the width of column X alone: the bottom cell
    # of column 61 then shares a bit with the top cell (60, 42) of column 60.
    for D, X in [(D, 40) for D in TABULATED_D] + [(2, 60)]:
        f = Field(D)
        par = cone_parity(f, X)
        assert len(par) == X + 1
        assert par[0] == [1]
        for (x, y), c in dense_counts(f, X).items():
            assert par[x][y + f.floor_div_omega(x)] == c % 2, (D, x, y)
    for D in (2, 5):
        assert cone_parity(Field(D), 0) == [[1]], D


def test_euler_product_matches_the_recurrence_to_x60():
    # Every cell of every column x <= 60, y < 0 included, from two algorithms.
    # D=2 at X=60 also catches a W no wider than column X in the product (see
    # test_parity_grid_matches_exact_grid_mod_2).
    for D in TABULATED_D:
        f = Field(D)
        cols = cone_columns(f, 60)
        assert len(cols) == 61
        assert cols == euler_product(f, 60), D


def test_cone_columns_match_the_euler_product_to_x100():
    # Slots of 72 bits in cone_columns and 64 in the product, wider than at x <= 60.
    for D in (2, 3):
        f = Field(D)
        assert cone_columns(f, 100) == euler_product(f, 100), D


def test_cone_columns_match_the_parity_grid_to_x100():
    for D in TABULATED_D:
        f = Field(D)
        assert cone_parity(f, 100) == [[p % 2 for p in c] for c in cone_columns(f, 100)], D


def test_euler_product_column_sum_mismatch_raises(monkeypatch):
    real = partition.euler_transform

    def one_too_many_at_3(c):
        R = real(c)
        R[3] += 1
        return R

    monkeypatch.setattr(partition, "euler_transform", one_too_many_at_3)
    with pytest.raises(InvariantViolation, match="column 3 of the cone for D=2 sums to"):
        cone_columns(Field(2), 10)


def test_wrong_weight_raises_divisibility_violation(monkeypatch, capsys):
    # sigma(2) off by one corrupts the weight of every part with content 2.  The
    # first such cell is (2, 0): 2*p = 1 + sigma(2) is odd, where the cell
    # (2, -1) before it has content 1.
    real = partition.sigma
    monkeypatch.setattr(partition, "sigma", lambda c: real(c) + (c == 2))
    with pytest.raises(DivisibilityViolation, match=r"at \(x=2, y=0\)"):
        cone_columns(Field(2), 10)
    code = cli.main(["grid", "--D", "2", "--max-x", "10"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "at (x=2, y=0)" in err


def test_recurrence_madds_matches_the_loop():
    # The same (u, v) bounds as PartitionGrid._cell, counted step by step.  The
    # counts are exact, so the larger cases pin (madds, cells) of the cone up to X.
    pinned = {(2, 40): (223_660, 1_160), (3, 60): (745_434, 2_114),
              (5, 30): (179_677, 1_039), (13, 50): (390_404, 1_532)}
    for D, X in [(2, 14), (5, 14), (13, 14), *pinned]:
        f = Field(D)
        fdo = [f.floor_div_omega(x) for x in range(X + 1)]
        fdx = [f.floor_div_xi(x) for x in range(X + 1)]
        steps = 0
        for x in range(1, X + 1):
            for y in range(-fdo[x], fdx[x] + 1):
                for u in range(1, x):
                    steps += max(0, min(y + fdo[x - u], fdx[u]) - max(y - fdx[x - u], -fdo[u]) + 1)
        sizes = [fdo[x] + fdx[x] + 1 for x in range(X + 1)]
        assert partition._recurrence_madds(sizes) == steps
        if (D, X) in pinned:
            assert (steps, sum(sizes[1:])) == pinned[D, X], (D, X)
