"""Property tests on random fields: the exact floors and signs against decimal
arithmetic, and the packed columns against the per-cell recurrence and the
Euler product."""

import random
from decimal import ROUND_FLOOR, Decimal, localcontext

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quadpartitions import (  # noqa: E402
    Field,
    PartitionGrid,
    QElement,
    build_context,
    cone_columns,
    is_squarefree,
)
from quadpartitions.partition import cone_rows  # noqa: E402

from conftest import euler_product  # noqa: E402

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
    # norm is a nonzero integer.  The second a puts a + b*w within 2 of 0,
    # where A^2 and B^2*D nearly tie.
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
        for a in (a, near - floor(b * omega)):
            value = a + b * omega
            assert QElement(f, a, b).sign() == (value > 0) - (value < 0), (D, a, b)


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
