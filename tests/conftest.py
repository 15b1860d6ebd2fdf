import pytest

from quadpartitions import Field, GridPool, build_context
from quadpartitions import partition

# The eight fields whose tables the reference fixtures pin down.
TABULATED_D = (2, 3, 5, 6, 7, 13, 17, 21)


@pytest.fixture(scope="session")
def pool():
    return GridPool()


@pytest.fixture(scope="session")
def contexts():
    return {D: build_context(Field(D)) for D in TABULATED_D}


def dense_counts(field, X):
    """{(x, y): p(x + y*w)} on every totally positive cell with x <= X, from cone_columns."""
    return {
        (x, y): p
        for x, col in enumerate(partition.cone_columns(field, X))
        if x
        for y, p in enumerate(col, -field.floor_div_omega(x))
    }


def stored_counts(grid):
    """{(x, y): p(x + y*w)} on every cell a PartitionGrid has filled, all with x >= 1."""
    return {(x, y): p for x, col in enumerate(grid._cols) if x for y, p in col.items()}


def euler_product(field, X):
    """The columns up to X from the Euler product of 1/(1 - q^beta), an exact reference.

    The product over the parts beta = (u, v) with u <= X is packed B bits
    per slot in the layout of partition._cone_layout (Kronecker
    substitution).  Each part with offset s = u*W + v is folded in as the
    factors 1 + t^(s*2^k), s*2^k < L, each one shift, one mask and one add on
    the whole int.  It shares no arithmetic with the recurrence.

    B = bitlen(R(X)) rounded up to whole bytes, R the Euler transform of the
    column sizes, never carries: p(alpha) <= R(X) (see cone_columns), and
    every factor has nonnegative coefficients and constant term 1, so every
    partial product is coefficientwise <= the final one.  Each column's sum
    is checked against R(x).
    """
    fdo, fdx, W, L = partition._cone_layout(field, X)
    R = partition.euler_transform([0] + [fdo[x] + fdx[x] + 1 for x in range(1, X + 1)])
    nbytes = (R[X].bit_length() + 7) // 8
    B = 8 * nbytes
    full = (1 << L * B) - 1
    F = 1
    for u in range(1, X + 1):
        for v in range(-fdo[u], fdx[u] + 1):
            s = u * W + v
            while s < L:
                F += (F & (full >> s * B)) << s * B
                s <<= 1
    buf = F.to_bytes(L * nbytes, "little")
    columns = []
    for x in range(X + 1):
        col = [
            int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(x * W - fdo[x], x * W + fdx[x] + 1)
        ]
        if sum(col) != R[x]:
            raise AssertionError(f"column {x} of the Euler product for D={field.D} sums to "
                                 f"{sum(col)}, not {R[x]}")
        columns.append(col)
    return columns
