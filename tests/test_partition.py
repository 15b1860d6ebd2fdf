import random
from collections import Counter
from itertools import count
from math import ceil, comb, floor, gcd, sqrt

import pytest

from quadpartitions import (
    DivisibilityViolation,
    Field,
    InvariantViolation,
    PartitionGrid,
    QElement,
    asymptotic_estimate,
    enumerate_interval,
    p_rational,
    sigma_K,
)
from quadpartitions import cli, cone_columns, diagonal_parity, is_squarefree, partition
from quadpartitions.partition import content
from quadpartitions.search import slice_element, slice_rows

from conftest import TABULATED_D, cone_parity, dense_counts, diagonal, euler_product, stored_counts

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
    # Against a sieve that adds each d to every multiple of d.
    n = 2_000
    sums = [0] * (n + 1)
    for d in range(1, n + 1):
        for k in range(d, n + 1, d):
            sums[k] += d
    assert [partition.sigma(k) for k in range(1, n + 1)] == sums[1:]
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


def box_scan(alpha: QElement) -> set[tuple[int, int]]:
    """The cells 0 < beta <= alpha, by sign tests over a box that holds them.

    beta = u + v*w has beta - beta' = v*s, s = w - w' > 0, and 0 < beta <= alpha
    in the cone's order bounds both embeddings, beta in (0, alpha] and beta'
    in (0, alpha'], so -alpha' < v*s < alpha; u runs over 1..x, as every
    totally positive element has x >= 1.
    """
    f, x, y = alpha.field, alpha.a, alpha.b
    r = sqrt(f.D)
    w, w_, s = ((1 + r) / 2, (1 - r) / 2, r) if f.one_mod4 else (r, -r, 2 * r)
    cells = set()
    for v in range(floor(-(x + y * w_) / s) - 1, ceil((x + y * w) / s) + 2):
        for u in range(1, x + 1):
            rest = f.element(x - u, y - v)
            if f.element(u, v).is_totally_positive() and ((x - u, y - v) == (0, 0) or rest.is_totally_positive()):
                cells.add((u, v))
    return cells


def test_interval_rows_match_a_box_scan_to_x40():
    # _RowEdges.rows, which the grid, diagonal_parity and enumerate_interval
    # share, and enumerate_interval itself, against sign tests over a box, far
    # past the oracle's x <= 8: elements up to x = 40 with y of both signs,
    # and thin slice corners (ceil(y*xi), y), whose rows between 0 and y may
    # hold no cell.
    rng = random.Random(0x34)
    empty_rows = 0
    for D in range(2, 200):
        if not is_squarefree(D):
            continue
        f = Field(D)
        edges = partition._RowEdges(f)
        alphas = [slice_element(f, 0, rng.randint(1, 20)) for _ in range(2)]
        for x in rng.sample(range(1, 41), 3):
            alphas.append(f.element(x, rng.randint(-f.floor_div_omega(x), f.floor_div_xi(x))))
        for alpha in alphas:
            want = box_scan(alpha)
            a, b = edges.reach(alpha.a, alpha.b)
            rows = list(edges.rows(alpha.a, alpha.b))
            assert [v for v, _, _ in rows] == list(range(a, b + 1)), (D, alpha)
            cells = [(u, v) for v, first, last in rows for u in range(first, last + 1)]
            assert len(cells) == len(set(cells)) and set(cells) == want, (D, alpha)
            empty_rows += sum(last < first for _, first, last in rows)
            got = [(e.a, e.b) for e in enumerate_interval(alpha)]
            assert len(got) == len(set(got)) and set(got) == want, (D, alpha)
            assert got[-1] == (alpha.a, alpha.b), (D, alpha)
    assert empty_rows, "no interval with an empty row between 0 and y"


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
    # part, so cell() must compute exactly the missing cells of each column.
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


def test_point_counts_match_the_band_on_every_field_below_1000():
    # PartitionGrid.count, each on a fresh grid, against slice_rows, which
    # reads the band's Euler product and shares no arithmetic with the
    # recurrence: the witness elements (2, 1) and (2, 2) and the estimate
    # elements (3, y), y in {2, 4, 16}, on every squarefree D < 1000.
    fields = [D for D in range(2, 1000) if is_squarefree(D)]
    assert len(fields) == 607
    for D in fields:
        f = Field(D)
        rows = slice_rows(f, 3, 16)
        for k, y in ((2, 1), (2, 2), (3, 2), (3, 4), (3, 16)):
            assert PartitionGrid(f).count(slice_element(f, k, y)) == rows[y][k], (D, k, y)


def test_every_cell_up_to_x_40_matches_the_cone():
    # Every cell with x <= 40, y < 0 included, counted in a shuffled order on
    # one grid, so most fills meet stored rows in part, against cone_columns.
    # On D = 5 (xi < 1) and 13 an interval has more rows than columns.
    rng = random.Random(0x40)
    for D in (2, 3, 5, 13, 17):
        f = Field(D)
        dense = dense_counts(f, 40)
        cells = list(dense)
        rng.shuffle(cells)
        grid = PartitionGrid(f)
        for x, y in cells:
            assert grid.count(QElement(f, x, y)) == dense[x, y], (D, x, y)
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


def test_p_rational_parity_is_that_of_distinct_odd_parts_to_n2000():
    # Modulo 2, prod 1/(1 - q^k) = prod over odd k of (1 + q^k): the rational
    # form of diagonal_parity's product.  Bit n of F counts the partitions of
    # n into distinct odd parts mod 2, one XOR step per odd part.  p_rational(n)
    # is entry n of one transform, read here once for every n.
    n = 2000
    mask = (1 << (n + 1)) - 1
    F = 1
    for k in range(1, n + 1, 2):
        F ^= (F << k) & mask
    p = partition.euler_transform([0] + [1] * n)
    assert p[n] == p_rational(n)
    assert [c % 2 for c in p] == [F >> m & 1 for m in range(n + 1)]


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
    for n in range(0, 121):
        assert p_rational(n) == brute_rational_partitions(n), n
    assert p_rational(1000) == 24061467864032622473692149727991


def product_expansion(c: list[int]) -> list[int]:
    # prod_k (1 - q^k)^(-c[k]) to q^T, one factor at a time: the series
    # sum_j C(c[k] + j - 1, j) q^(jk) is c[k] passes of stride-k prefix sums at
    # once; no divisor sum, no logarithmic derivative, no division.
    T = len(c) - 1
    P = [1] + [0] * T
    for k in range(1, T + 1):
        if c[k]:
            b = [comb(c[k] + j - 1, j) for j in range(T // k + 1)]
            P = [sum(b[j] * P[n - j * k] for j in range(n // k + 1)) for n in range(T + 1)]
    return P


def test_euler_transform_matches_the_product_expansion():
    # Entries up to 10^6 make P(n) outgrow its slots block after block, so the
    # packed sums widen many times; c[1] = 0 is the shape of D = 1 (mod 4).
    rng = random.Random(36)
    assert partition.euler_transform([]) == [1]
    for T in [*range(71), 127, 128, 129, 200]:
        for top in (3, 10**6):
            c = [0] + [rng.randint(1, top) if rng.random() < 0.8 else 0 for _ in range(T)]
            if T and rng.random() < 0.5:
                c[1] = 0
            assert partition.euler_transform(c) == product_expansion(c), (T, top)
    with pytest.raises(ValueError):
        partition.euler_transform([0, 1, 2, -1, 3])


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
    grid._rows[0][0][4] = 9  # poison p(5, 0), the fifth cell of row 0
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


def test_diagonal_parity_matches_the_exact_diagonal_to_n120():
    # Beyond the tabulated fields, D = 19 is 3 (mod 4) and D = 29, 101 are 1 (mod 4).
    for D in TABULATED_D + (19, 29, 101):
        f = Field(D)
        exact = diagonal(f, cone_columns(f, 120))
        assert diagonal_parity(f, 120) == tuple(p % 2 for p in exact), D


def test_diagonal_parity_matches_the_whole_cone_fold():
    # The fold below (N, 0) against the fold over the whole cone up to x = N,
    # in layouts a*u + b*v of every sign of b: D = 683, 911, 919 and 970 have
    # b < 0 at the benchmark's N.
    signs = set()
    wide = {683: (60, 90), 911: (60, 90), 919: (60, 90), 970: (60, 90)}
    for D in [*filter(is_squarefree, range(2, 400)), *wide]:
        f = Field(D)
        assert diagonal_parity(f, 0) == (1,), D
        for N in wide.get(D, (1, 2, 3, 7, 30)):
            assert diagonal_parity(f, N) == tuple(diagonal(f, cone_parity(f, N))), (D, N)
            b = partition._band_layout(f, N)[1]
            signs.add((b > 0) - (b < 0))
    assert signs == {-1, 0, 1}


def _chain_parity(f, N):
    """p(n) mod 2 for n <= N from every chain 2^k*beta of the ideal below (N, 0): the factors
    1 + q^(2^k*beta) of _fold_steps, folded in diagonal_parity's layout and mask."""
    a, b = partition._band_layout(f, max(N, 1))
    lines = partition._lines(a, b, partition._RowEdges(f).rows(N, 0))
    mask = 1 | sum(1 << s for _, _, r in lines for s in r)
    F = 1
    for r in partition._fold_steps(lines):
        for s in r:
            F ^= (F << s) & mask
    return tuple(F >> (a * n) & 1 for n in range(N + 1))


def test_diagonal_parity_matches_the_chain_fold():
    # The factors 1 + q^beta with u or v odd against every chain 2^k*beta, in
    # layouts a*u + b*v of every sign of b.
    signs = set()
    for D in filter(is_squarefree, range(2, 100)):
        f = Field(D)
        for N in range(41):
            assert diagonal_parity(f, N) == _chain_parity(f, N), (D, N)
            b = partition._band_layout(f, max(N, 1))[1]
            signs.add((b > 0) - (b < 0))
    assert signs == {-1, 0, 1}


def test_parity_steps_are_every_cell_below_the_diagonal_outside_2O():
    # The shifts that diagonal_parity folds, and its budget counts, against a
    # walk of every part beta = u + v*w of the ideal below (N, 0), from the
    # ideal's columns, kept when (N, 0) - beta is totally positive or zero
    # and u or v is odd.
    for D in (2, 3, 5, 6, 7, 13, 17, 21, 19, 29, 101):
        f = Field(D)
        for N in (0, 1, 2, 5, 12, 33):
            fdo, fdx = partition._floors(f, N)
            a, b = partition._band_layout(f, max(N, 1))
            walked = []
            for u in range(1, N + 1):
                for v in range(-fdo[u], fdx[u] + 1):
                    rest = f.element(N - u, -v)
                    if ((rest.a, rest.b) == (0, 0) or rest.is_totally_positive()) and (u % 2 or v % 2):
                        walked.append(a * u + b * v)
            steps = partition._parity_steps(partition._lines(a, b, partition._RowEdges(f).rows(N, 0)))
            assert sorted(s for r in steps for s in r) == sorted(walked), (D, N)


def test_fold_steps_are_every_chain_below_the_diagonal():
    # The shifts that band_rows folds, and its budget counts, against a walk
    # of every part beta of each ideal, its chain 2^k*beta followed by sign
    # tests while it stays in the ideal (diagonal_parity folds no chains,
    # only the cells outside 2O; _chain_parity folds these chains): below
    # (N, 0), while (N, 0) - 2^k*beta is totally positive or zero, from the
    # ideal's columns; in the band B(X, K), while 2^k*beta has x <= X and
    # its conjugate is <= K, from the band's rows.
    for D in (2, 3, 5, 6, 7, 13, 17, 21, 19, 29, 101):
        f = Field(D)
        for N in (0, 1, 2, 5, 12, 33):
            fdo, fdx = partition._floors(f, N)
            a, b = partition._band_layout(f, max(N, 1))
            walked = []
            for u in range(1, N + 1):
                for v in range(-fdo[u], fdx[u] + 1):
                    k = 0
                    while True:
                        rest = f.element(N - (u << k), -(v << k))
                        if (rest.a, rest.b) != (0, 0) and not rest.is_totally_positive():
                            break
                        walked.append((a * u + b * v) << k)
                        k += 1
            steps = partition._fold_steps(partition._lines(a, b, partition._RowEdges(f).rows(N, 0)))
            assert sorted(s for r in steps for s in r) == sorted(walked), (D, N)
        for X, K in ((0, 1), (1, 1), (9, 1), (12, 9), (16, 16), (33, 2), (40, 7)):
            a, b = partition._band_layout(f, K)
            cap = f.element(K)
            walked = []
            for u, v in brute_band(f, X, K):
                k = 0
                while True:
                    multiple = QElement(f, u << k, v << k)
                    in_band = multiple.is_totally_positive() and u << k <= X
                    if not in_band or (cap - multiple.conjugate()).sign() < 0:
                        break
                    walked.append((a * u + b * v) << k)
                    k += 1
            rows = [(v, l, range(a * l + b * v, a * (h + 1) + b * v, a)) for v, l, h in partition._band_rows(f, X, K)]
            steps = partition._fold_steps(rows)
            assert sorted(s for r in steps for s in r) == sorted(walked), (D, X, K)


def _diamond_aliases(f, N, a, b):
    """Whether, at slot a*x + b*y, two cells of I = [0, (N, 0)] share a slot or a cell
    of [0, (2N, 0)] outside I lands on the slot of a cell of I."""
    edges = partition._RowEdges(f)
    inner = {(0, 0)} | {(x, y) for y, first, last in edges.rows(N, 0) for x in range(first, last + 1)}
    slots = {a * x + b * y for x, y in inner}
    if len(slots) < len(inner):
        return True
    return any(a * x + b * y in slots
               for y, first, last in edges.rows(2 * N, 0)
               for x in range(first, last + 1) if (x, y) not in inner)


def test_the_band_layout_keeps_the_diagonal_ideal_apart():
    # A cell of I = [0, (N, 0)] plus a part lies in [0, (2N, 0)], so the XOR
    # steps of diagonal_parity, in the band layout at K = N, write no bit of
    # I from outside it, and (N, 0) has the top slot a*N.
    for D in range(2, 100):
        if is_squarefree(D):
            f = Field(D)
            edges = partition._RowEdges(f)
            for N in range(41):
                a, b = partition._band_layout(f, max(N, 1))
                assert not _diamond_aliases(f, N, a, b), (D, N)
                top = max((a * x + b * y for y, first, last in edges.rows(N, 0) for x in range(first, last + 1)), default=0)
                assert top == a * N, (D, N)


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


def test_interval_estimate_bounds_every_column():
    # _interval_ms bounds the cells of [0, alpha] by C = floor(K/xi) + 1 in
    # each column, K = ceil(alpha'), and each row holds at most K; checked on
    # the cells count(alpha) stores, with K found by sign tests, and so is
    # the K of its estimate.
    for D in (2, 3, 5, 13, 19, 97):
        f = Field(D)
        elements = [f.element(n) for n in (1, 7, 20)]
        elements += [QElement(f, f.ceil_xi_mult(y) + k, y) for k in (0, 1, 6) for y in (1, 9, 30)]
        elements += [QElement(f, 20, -f.floor_div_omega(20)), QElement(f, 20, -3)]
        for alpha in elements:
            K = 1
            while (f.element(K) - alpha.conjugate()).sign() < 0:
                K += 1
            grid = PartitionGrid(f)
            grid.count(alpha)
            widths = Counter(x for x, _ in stored_counts(grid))
            C, x = f.floor_div_xi(K) + 1, alpha.a
            assert max(widths.values()) <= C, (D, alpha)
            # Row v holds the u with u - v*xi in (0, alpha'], at most K of them.
            lengths = Counter(y for _, y in stored_counts(grid))
            assert max(lengths.values()) <= K, (D, alpha)
            steps = C * x * (x + 1) // 2 + C * C * x * (x - 1) // 2
            assert partition._interval_ms(f, alpha) == steps * 1000 // partition._INTERVAL_STEPS_PER_S


def brute_band(field: Field, X: int, K: int) -> set[tuple[int, int]]:
    """B(X, K) by sign tests: totally positive beta with x <= X and conjugate <= K."""
    cap = field.element(K)
    return {
        (u, v)
        for u in range(1, X + 1)
        for v in range(-2 * u, 2 * u + 1)  # |v| < u/xi or u/omega, both below 2u
        if QElement(field, u, v).is_totally_positive()
        and (cap - QElement(field, u, v).conjugate()).sign() >= 0
    }


def layout_by_sign_tests(field: Field, K: int) -> tuple[int, int]:
    """The least a >= 1 with b = 2K - floor(a*xi) < a*omega and gcd(a, b) = 1, and b; a*omega - b = -b + a*w."""
    for a in count(1):
        b = 2 * K - field.floor_xi_mult(a)
        if QElement(field, -b, a).sign() > 0 and gcd(a, b) == 1:
            return a, b


def test_band_rows_are_the_band_by_sign_tests():
    # Every row of B(X, K) is one run of at most K cells, and the rows are
    # exactly the band; the rows below 0 and the rows cut at X are among
    # those checked, and at K = 1 row v >= 1 is the corner (ceil(v*xi), v).
    seen = Counter()
    for D in range(2, 200):
        if not is_squarefree(D):
            continue
        f = Field(D)
        for K in (1, 2, 3, 7, 11, 40, 45):
            for X in (0, 1, 9, 40):
                rows = partition._band_rows(f, X, K)
                cells = [(u, v) for v, first, last in rows for u in range(first, last + 1)]
                assert len(cells) == len(set(cells)) and set(cells) == brute_band(f, X, K), (D, K, X)
                assert [v for v, _, _ in rows] == sorted({v for _, v in cells}), (D, K, X)
                for v, first, last in rows:
                    assert 1 <= first <= last <= min(first + K - 1, X), (D, K, X, v)
                    seen["below 0"] += v < 0
                    seen["cut at X"] += last == X and last < first + K - 1
                    if K == 1 and v >= 1 and last < X:
                        assert first == last == f.ceil_xi_mult(v), (D, X, v)
                        seen["corner"] += 1
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def test_band_layout_is_an_injective_order_ideal():
    # The three facts of band_rows' docstring, by brute force: B is an
    # order ideal, its slots are >= 1, and the slot a*u + b*v is injective on
    # B and B + B together.  The layouts include b < 0, b = 0 and a > 1.
    layouts = {}
    for D in range(2, 200):
        if not is_squarefree(D):
            continue
        f = Field(D)
        for K in (1, 2, 3, 7, 11):
            X = 40
            a, b = layouts[D, K] = partition._band_layout(f, K)
            assert (a, b) == layout_by_sign_tests(f, K), (D, K)
            band = brute_band(f, X, K)
            rows = partition.band_rows(f, X, K).items()
            assert {(u, v) for v, (first, values) in rows for u in range(first, first + len(values))} == band
            cells = sorted(band)
            for u1, v1 in cells:
                for u2, v2 in cells:
                    # (u1 - u2) + (v1 - v2)*w >> 0, as in QElement.is_totally_positive
                    A, B = f.den * (u1 - u2) + f.t * (v1 - v2), v1 - v2
                    if A > 0 and A * A > B * B * D:
                        assert (u2, v2) in band, (D, K, (u1, v1), (u2, v2))
            assert min(a * u + b * v for u, v in band) >= 1, (D, K)
            sums = {(u1 + u2, v1 + v2) for u1, v1 in cells for u2, v2 in cells}
            union = band | sums
            assert len({a * u + b * v for u, v in union}) == len(union), (D, K)
    assert (layouts[195, 1], layouts[19, 2], layouts[41, 7]) == ((1, -11), (1, 0), (5, 1))


def test_a_corrupted_euler_value_is_named(monkeypatch):
    # One value off by one fails the certificate, which names the cell after
    # the one fold.
    f = Field(19)
    X, K = 120, 3
    a, b = partition._band_layout(f, K)
    band = brute_band(f, X, K)
    assert (10, 2) in band
    fold = partition._band_fold
    calls = []

    def corrupted(steps, ones, nb, check):
        calls.append(nb)
        values, data = fold(steps, ones, nb, check)
        values[10 * a + 2 * b] += 1
        return values, data

    monkeypatch.setattr(partition, "_band_fold", corrupted)
    with pytest.raises(DivisibilityViolation, match=r"at \(x=10, y=2\)"):
        partition.band_rows(f, X, K)
    assert len(calls) == 1
    assert max(Counter(u for u, _ in band).values()) <= f.floor_div_xi(K) + 1
