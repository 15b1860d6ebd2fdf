"""Property tests of the packed Euler product against the recurrence, on random fields."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quadpartitions import Field, PartitionGrid, QElement, build_context, is_squarefree  # noqa: E402
from quadpartitions.partition import cone_rows  # noqa: E402

from conftest import euler_product  # noqa: E402

SQUAREFREE = [D for D in range(2, 300) if is_squarefree(D)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(SQUAREFREE), X=st.integers(0, 25))
def test_euler_product_rows_match_the_recurrence(D, X):
    f = Field(D)
    cols = euler_product(f, X)
    grid = PartitionGrid(f)
    grid.ensure(X)
    assert cols == [column["counts"] for column in grid.to_columns()]
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
