import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

import quadpartitions
from quadpartitions import (
    Field,
    GridPool,
    InvariantViolation,
    PartitionGrid,
    QElement,
    build_context,
    en_fn_bounds,
    expand_sigma,
    find_kmax,
    p_rational,
)
from quadpartitions import partition
from quadpartitions.contfrac import floor_ratio_eps
from quadpartitions.search import slice_element

# The eight fields whose tables the reference fixtures pin down.
TABULATED_D = (2, 3, 5, 6, 7, 13, 17, 21)
REFERENCE = Path(quadpartitions.__file__).parent / "reference"


def start_python(*args, cwd=None):
    """Start python with args in a fresh interpreter, in cwd, that imports this package."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (str(REFERENCE.parents[1]), os.environ.get("PYTHONPATH")))),
        PYTHONIOENCODING="utf-8",
        COLUMNS="80",  # argparse wraps --help to the terminal width
    )
    return subprocess.Popen(
        [sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8"
    )


def finish(proc):
    """(exit code, stdout, stderr) of a process from start_python."""
    out, err = proc.communicate()
    return proc.returncode, out, err


@pytest.fixture(scope="session")
def pool():
    return GridPool()


@pytest.fixture(scope="session")
def contexts():
    return {D: build_context(Field(D)) for D in TABULATED_D}


def convergent_elements(ctx):
    """alpha_i = p_i + q_i*xi as ring elements, for every (p_i, q_i) in ctx.convergents."""
    xi = ctx.field.xi()
    return [ctx.field.element(p) + q * xi for p, q in ctx.convergents]


def reference_context(field):
    """The continued-fraction context built in QElement arithmetic throughout, an oracle.

    Returns period, convergents, alphas, eps, eps_plus and the ordered
    indecomposables; contfrac builds the same values on integer pairs.
    """
    period = expand_sigma(field)
    s = len(period)
    ps = [1, (period[0] + 1) // 2]
    qs = [0, 1]
    for i in range(1, 2 * s + 1):
        u = period[i % s]
        ps.append(u * ps[-1] + ps[-2])
        qs.append(u * qs[-1] + qs[-2])
    xi = field.xi()
    alphas = tuple(field.element(p) + q * xi for p, q in zip(ps, qs))
    eps = alphas[s]
    eps_plus = eps if s % 2 == 0 else alphas[2 * s]
    top = s - 3 if s % 2 == 0 else 2 * s - 3
    seen = {}
    for i in range(-1, top + 1, 2):
        for r in range(period[(i + 2) % s]):
            seen.setdefault(alphas[i + 1] + r * alphas[i + 2])
    return SimpleNamespace(
        period=period,
        convergents=tuple(zip(ps, qs)),
        alphas=alphas,
        eps=eps,
        eps_plus=eps_plus,
        indecomposables=tuple(seen),
    )


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
    return {(x, y): p for y, row in grid._rows.items() for x, p in row.items() if x}


def grid_slice_rows(grid, k_max, y_max):
    """p on the slice box, rows y = 0..y_max and columns k = 0..k_max, from a PartitionGrid.

    The per-cell recurrence, an oracle for search.slice_rows: each row fills
    only the interval of its top (k_max, y), as every cell of the row lies
    below the top (the difference is the rational integer k_max - k), so
    the grid stores the box's order ideal and nothing more.  The corner
    (0, 0) is not totally positive; it reads p(0) = 1.
    """
    field = grid.field
    rows = []
    for y in range(y_max + 1):
        top = slice_element(field, k_max, y)
        if (k_max, y) != (0, 0):
            grid.count(top)
        row = tuple(grid.value(top.a - k_max + k, y) for k in range(k_max + 1))
        if None in row:
            raise AssertionError(f"grid for D={field.D} is missing a cell of slice row {y}")
        rows.append(row)
    return tuple(rows)


def grid_search(ctx, m, grid=None):
    """(k_max, y_max, slice rows) of the search for m on a PartitionGrid, an oracle for search_m.

    y_max is the first corner (0, y), y >= floor(eps_plus/(xi + omega)),
    with p >= m, each corner counted by grid.count.
    """
    grid = grid or PartitionGrid(ctx.field)
    k_max = find_kmax(grid, m)
    y = floor_ratio_eps(ctx)
    while grid.count(slice_element(ctx.field, 0, y)) < m:
        y += 1
    return k_max, y, grid_slice_rows(grid, k_max, y)


def cone_layout(field, X):
    """(fdo, fdx, W, L) of the cone up to column X packed into one int, slot x*W + y.

    fdo[x] = floor(x/omega) and fdx[x] = floor(x/xi) bound the window of
    column x, which occupies slots x*W - fdo[x] up to x*W + fdx[x], and
    L = X*W + fdx[X] + 1 is one past the top cell of column X; euler_product
    and cone_parity fold the whole cone in this layout.

    Choice of W.  Every exponent the Euler product generates is a totally
    positive element, so dropping the slots >= L is the truncation x <= X
    exactly when every cell with x > X lands at or above L.  The lowest such
    cell is (X + 1, -floor((X + 1)/omega)), and the bottom slot of column x
    grows with x, so W must exceed floor((X + 1)/omega) + floor(X/xi); that
    bound also keeps the columns up to X disjoint and in order.  The width of
    column X itself, floor(X/omega) + floor(X/xi) + 1, falls one short
    whenever floor(t/omega) steps up at t = X + 1: the bottom cell of column
    X + 1 then aliases the top cell of column X.
    """
    fdo, fdx = partition._floors(field, X)
    W = field.floor_div_omega(X + 1) + fdx[X] + 1
    return fdo, fdx, W, X * W + fdx[X] + 1


def euler_product(field, X):
    """The columns up to X from the Euler product of 1/(1 - q^beta), an exact reference.

    The product over the parts beta = (u, v) with u <= X is packed B bits
    per slot in the layout of cone_layout (Kronecker
    substitution).  Each part with offset s = u*W + v is folded in as the
    factors 1 + t^(s*2^k), s*2^k < L, each one shift, one mask and one add on
    the whole int.  It shares no arithmetic with the recurrence.

    B = bitlen(R(X)) rounded up to whole bytes, R the Euler transform of the
    column sizes, never carries: p(alpha) <= R(X) (see cone_columns), and
    every factor has nonnegative coefficients and constant term 1, so every
    partial product is coefficientwise <= the final one.  Each column's sum
    is checked against R(x).
    """
    fdo, fdx, W, L = cone_layout(field, X)
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


# Maps the digits of a binary numeral to the byte values 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def cone_parity(field, max_x):
    """p(x + y*w) mod 2 over the whole window of each column x <= max_x, from the Euler product.

    The shape of cone_columns, and the mod-2 twin of euler_product: 1-bit
    slots in the layout of cone_layout, and since modulo 2
    1/(1 - t) = (1 + t)(1 + t^2)(1 + t^4)..., every part beta = (u, v) with
    u <= max_x is folded in as the factors 1 + t^(s*2^k) for s = u*W + v and
    every s*2^k < L, each one shift, one mask and one XOR on the whole int.
    It folds the whole cone, where partition.diagonal_parity folds only the
    order ideal below (max_x, 0), and shares no arithmetic with the recurrence.
    """
    fdo, fdx, W, L = cone_layout(field, max_x)
    mask = (1 << L) - 1
    F = 1  # p(0) = 1
    for u in range(1, max_x + 1):
        for v in range(-fdo[u], fdx[u] + 1):
            s = u * W + v
            while s < L:
                F ^= (F << s) & mask
                s <<= 1
    # Byte i of bits is bit i of F.
    bits = format(F, f"0{L}b").encode()[::-1].translate(_BIT_BYTES)
    return [list(bits[x * W - fdo[x] : x * W + fdx[x] + 1]) for x in range(max_x + 1)]


def coin_change_count(alpha):
    """p(alpha) by a coin-change count over the points of [0, alpha], an oracle at any x.

    The parts beta of partition.enumerate_interval(alpha), sorted, are taken
    one at a time in lex order, and f[gamma] counts the partitions of gamma
    into the parts taken so far: for each point gamma >= beta in lex order,
    f[gamma] += f[gamma - beta].  gamma - beta lies below alpha, so it is 0
    or a point of the list exactly when it is totally positive, and it is
    lex-smaller than gamma, so f[gamma - beta] already counts beta.  That is the Euler
    product truncated to [0, alpha], summed over a point list: it shares no
    arithmetic with the recurrence or the packed folds, and it costs about
    |[0, alpha]|^2 steps whatever x is.
    """
    pts = sorted((e.a, e.b) for e in partition.enumerate_interval(alpha))
    f = dict.fromkeys(pts, 0)
    f[0, 0] = 1
    for i, (u, v) in enumerate(pts):
        for x, y in pts[i:]:
            d = (x - u, y - v)
            if d in f:
                f[x, y] += f[d]
    return f[alpha.a, alpha.b]


def diagonal(field, columns):
    """The cells (n, 0), n = 0..X, of columns in the shape of cone_columns up to X."""
    return [col[field.floor_div_omega(n)] for n, col in enumerate(columns)]


# The threshold table of E_n and F_n: the reference for ACCEPTANCE 9, which
# no command prints.


@dataclass(frozen=True)
class ThresholdRow:
    D: int
    n: int
    bound: int
    p_field: int
    p_rational: int

    @property
    def collapsed(self) -> bool:
        return self.p_field == self.p_rational


def _threshold_witness_parts(field: Field, n: int) -> tuple[QElement, QElement]:
    # The canonical extra partition that exists strictly below the threshold.
    k = n // 2
    if field.one_mod4:
        if n % 2 == 0:
            return field.element(k, 1), field.element(k, -1)
        return field.element(k + 1, -1), field.element(k, 1)
    if n % 2 == 0:
        return field.from_sqrt(k, 1), field.from_sqrt(k, -1)
    return field.from_sqrt(k + 1, 1), field.from_sqrt(k, -1)


def verify_thresholds(
    n: int,
    D_values: list[int] | tuple[int, ...],
    pool: GridPool,
) -> tuple[ThresholdRow, ...]:
    """Check p(n) = p_rational(n) exactly when D exceeds its class threshold.

    Below the threshold the strict excess is asserted together with total
    positivity of the explicit two-part witness partition.
    """
    pn = p_rational(n)
    e_n, f_n = en_fn_bounds(n)
    rows = []
    for D in D_values:
        field = Field(D)
        pkn = pool.grid(field).count(field.element(n))
        bound = f_n if field.one_mod4 else e_n
        row = ThresholdRow(D=D, n=n, bound=bound, p_field=pkn, p_rational=pn)
        if D > bound:
            if pkn != pn:
                raise InvariantViolation(f"p({n}) != p_rational({n}) for D={D} > {bound}")
        else:
            if pkn <= pn:
                raise InvariantViolation(f"p({n}) <= p_rational({n}) for D={D} <= {bound}")
            u, v = _threshold_witness_parts(field, n)
            if not (u.is_totally_positive() and v.is_totally_positive()):
                raise InvariantViolation(f"threshold witness not totally positive, D={D}, n={n}")
            if u + v != field.element(n):
                raise InvariantViolation(f"threshold witness does not sum to {n}, D={D}")
        rows.append(row)
    return tuple(rows)
