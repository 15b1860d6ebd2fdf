"""Property tests on random fields: the exact floors and signs against decimal
arithmetic, the packed columns against the per-cell recurrence and the Euler
product, the Euler product mod 2 below (N, 0) against the exact diagonal, the
band's Euler product against the per-cell recurrence, and the coin-change
count over an interval's points against the band and the recurrence."""

import random
from decimal import ROUND_FLOOR, Decimal, localcontext

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from quadpartitions import (  # noqa: E402
    Field,
    PartitionGrid,
    QElement,
    build_context,
    cone_columns,
    diagonal_parity,
    is_squarefree,
)
from quadpartitions.partition import band_rows, cone_rows  # noqa: E402
from quadpartitions.search import slice_element, slice_rows  # noqa: E402

from conftest import coin_change_count, diagonal, euler_product  # noqa: E402

SQUAREFREE = [D for D in range(2, 300) if is_squarefree(D)]
SQUAREFREE_10K = [D for D in range(2, 10_000) if is_squarefree(D)]
# Coordinates up to 1e40, their number of digits drawn first and the value then
# uniform from a seed: st.integers over the whole range draws mostly small ones.
COORD = st.tuples(st.integers(0, 40), st.integers(0, 2**64)).map(
    lambda t: random.Random(t[1]).randint(-(10 ** t[0]), 10 ** t[0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(SQUAREFREE_10K), u=COORD.map(abs), a=COORD, b=COORD,
       near=st.integers(-2, 1))
def test_floors_and_signs_match_decimal(D, u, a, b, near):
    # At 120 digits every quantity below is off by less than 1e-70, and none
    # but an exact 0 lies within 1e-50 of an integer: u/xi, u/omega and u*xi
    # are irrational for u > 0, and |a + b*w| >= 1/|conj(a + b*w)| since the
    # norm is a nonzero integer.  The second a puts a + b*w within 2 of 0 and
    # the third puts its conjugate a - b*xi there: A^2 and B^2*D nearly tie.
    f = Field(D)
    with localcontext() as ctx:
        ctx.prec = 120
        root = Decimal(D).sqrt()
        omega, xi = ((1 + root) / 2, (root - 1) / 2) if f.one_mod4 else (root, root)

        def floor(d: Decimal) -> int:
            return int(d.to_integral_value(rounding=ROUND_FLOOR))

        assert f.floor_div_xi(u) == floor(u / xi)
        assert f.floor_div_omega(u) == floor(u / omega)
        assert f.floor_xi_mult(u) == floor(u * xi)
        assert f.ceil_xi_mult(u) == -floor(-u * xi)
        for a in (a, near - floor(b * omega), near + floor(b * xi)):
            value, conj = a + b * omega, a - b * xi
            e = QElement(f, a, b)
            assert e.sign() == (value > 0) - (value < 0), (D, a, b)
            assert e.is_totally_positive() == (value > 0 and conj > 0), (D, a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(SQUAREFREE), X=st.integers(0, 25))
def test_euler_product_rows_match_the_recurrence(D, X):
    f = Field(D)
    cols = cone_columns(f, X)
    assert cols == euler_product(f, X)
    # The per-cell recurrence, counting every cell of the cone column by column.
    grid = PartitionGrid(f)
    for x, col in enumerate(cols[1:], 1):
        for y, p in enumerate(col, -f.floor_div_omega(x)):
            assert grid.count(QElement(f, x, y)) == p, (D, x, y)
    # Column x runs from y = -floor(x/omega); the rows hold y >= 0, 0 outside the cone.
    rows = cone_rows(f, X)
    bottoms = [f.floor_div_omega(x) for x in range(X + 1)]
    assert rows == [[col[b + y] if b + y < len(col) else 0 for col, b in zip(cols, bottoms)]
                    for y in range(len(rows))]
    # p(alpha) = p(eps_plus * conj(alpha)) wherever both cells are in the rows.
    eps = build_context(f).eps_plus
    for y, row in enumerate(rows):
        for x, p in enumerate(row):
            if p and (x, y) != (0, 0):
                image = eps * QElement(f, x, y).conjugate()
                if image.a <= X and 0 <= image.b < len(rows):
                    assert rows[image.b][image.a] == p, (D, x, y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(SQUAREFREE), N=st.integers(0, 60))
def test_diagonal_parity_matches_the_exact_diagonal(D, N):
    f = Field(D)
    assert diagonal_parity(f, N) == tuple(p % 2 for p in diagonal(f, cone_columns(f, N)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(SQUAREFREE), X=st.integers(0, 120), K=st.integers(1, 8))
# Values of 29 and 41 bits: the fold widens its 16-bit slots three and five
# times.
@example(D=2, X=120, K=8)
@example(D=5, X=120, K=8)
# Slot layouts (a, b) = (1, -11), (1, 0) and (5, 1).
@example(D=195, X=120, K=1)
@example(D=19, X=120, K=2)
@example(D=41, X=120, K=7)
def test_band_cells_match_the_recurrence(D, X, K):
    f = Field(D)
    grid = PartitionGrid(f)
    for y, (first, values) in band_rows(f, X, K).items():
        for x, p in enumerate(values, first):
            assert grid.count(QElement(f, x, y)) == p, (D, X, K, x, y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from((2, 5, 13, 31)), k=st.integers(0, 4), y=st.integers(0, 60))
def test_coin_change_count_matches_the_band_and_the_recurrence(D, k, y):
    # Slice cells up to x = 339 (D=31 at y = 60), where the oracle's x <= 8
    # does not reach.
    assume((k, y) != (0, 0))
    f = Field(D)
    alpha = slice_element(f, k, y)
    p = coin_change_count(alpha)
    assert slice_rows(f, k, y)[y][k] == p, (D, k, y)
    assert PartitionGrid(f).count(alpha) == p, (D, k, y)
