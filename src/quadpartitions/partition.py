"""Partition counts p(alpha) for totally positive elements.

One exact recurrence computes p:

    alpha * p(alpha) = sum over 0 < beta <= alpha of sig(beta) * p(alpha - beta)

where the interval runs over the total-positivity order, and
sig(beta) = (beta / c) * sigma(c) with c = gcd of the coordinates of beta
and sigma the rational sum-of-divisors function.  Match coefficients in the
basis (1, w), alpha = x + y*w: the first coordinate of the sum is x*p(alpha),
so p(alpha) is one exact division.  Both layouts also sum the weights
((u + v)/c)*sigma(c) of the parts beta = u + v*w, the two coordinates of
sig(beta) added, and check that the sum is (x + y)*p(alpha) with p(alpha) >= 1;
any mismatch raises DivisibilityViolation.
Every summand beta has first coordinate >= 1, so a cell only depends on
strictly earlier columns and the recurrence is well founded.

It runs in two layouts.  PartitionGrid computes it cell by cell on the
intervals [0, alpha] that count(alpha) asks for, and stores each column as a
dict of exactly the cells filled.  cone_columns computes the whole cone up to a
column, one column at a time: each column is one big int with a slot of B
bits per cell (Kronecker substitution), and column x is a sum of x products
of packed columns.  cone_rows, the xy view, reads it.

Two checks are independent of the recurrence over the cone.  Every column of
cone_columns must sum to R(x), the number of partitions of x into parts
counted by their first coordinate, or InvariantViolation is raised.  And
cone_parity expands the Euler product of 1/(1 - q^beta) modulo 2, with 1-bit
slots and XOR in place of addition, and returns p mod 2 in the shape of
cone_columns, so p mod 2 from either layout is compared with a product that
never runs the recurrence.

euler_transform is the one-variable form of the recurrence, for a product
prod_k (1 - q^k)^(-c[k]) over the rational integers: p_rational uses it with
c = 1, parity.cumulative_P with the trace-layer counts, and cone_columns with
the column sizes, for its slot width and its column-sum check.
"""

from __future__ import annotations

from functools import cache
from math import gcd, sqrt
from typing import Iterator, Sequence

from .errors import BudgetExceeded, DivisibilityViolation, InvariantViolation
from .field import Field, QElement

__all__ = [
    "PartitionGrid",
    "GridPool",
    "content",
    "sigma_K",
    "enumerate_interval",
    "cone_columns",
    "cone_parity",
    "cone_rows",
    "euler_transform",
    "p_rational",
    "asymptotic_estimate",
    "ZETA3",
]

# Apery's constant zeta(3), used only by the floating-point diagnostic below.
ZETA3 = 1.2020569031595942854

# Throughput of the two cone kernels on a 2-core host with Python 3.11:
# estimated 64-bit word operations per second of cone_parity's XOR fold (in
# _fold_ms), measured for D = 2..97 and X = 40..260, and slot products per
# second of cone_columns (see _recurrence_madds).  The latter falls as the
# columns and their slots widen: 8e7 at X = 100 and 5e7 at X = 200 for D = 2,
# 2.6e7 at X = 316 and 2.1e7 at X = 430, where the budget bites.  The rate is
# that last one, so smaller cones run faster than estimated.
_MADDS_PER_S = 21_000_000
# The longest estimated run, in milliseconds on that host, that is started.
# The xy view runs up to x = 416 for D=2 and 331 for D=5, estimated at two
# minutes each, and is refused beyond.
_BUDGET_MS = 120_000


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@cache
def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    return sum(divisors(n))


def content(e: QElement) -> int:
    """gcd of the coordinates; the largest c with e/c still integral."""
    c = gcd(e.a, e.b)
    if c == 0:
        raise ValueError("the zero element has no content")
    return c


def sigma_K(e: QElement) -> QElement:
    """(e / content(e)) * sigma(content(e)) for totally positive e."""
    if not e.is_totally_positive():
        raise ValueError(f"sigma_K needs a totally positive element, got {e!r}")
    c = content(e)
    s = sigma(c)
    return QElement(e.field, (e.a // c) * s, (e.b // c) * s)


def enumerate_interval(alpha: QElement) -> Iterator[QElement]:
    """Yield every beta with 0 < beta <= alpha, in increasing lex order.

    For each first coordinate u the second coordinate runs over an exact
    window: beta totally positive forces -floor(u/omega) <= v <= floor(u/xi),
    and alpha - beta totally positive (or zero) pins v to a translate of the
    same window for x - u.  Both bounds are integer-exact, and every candidate
    is confirmed by sign tests before being yielded.
    """
    fld = alpha.field
    if not alpha.is_totally_positive():
        raise ValueError(f"interval base must be totally positive, got {alpha!r}")
    x, y = alpha.a, alpha.b
    for u in range(1, x):
        g = x - u
        lo = max(-fld.floor_div_omega(u), y - fld.floor_div_xi(g))
        hi = min(fld.floor_div_xi(u), y + fld.floor_div_omega(g))
        for v in range(lo, hi + 1):
            beta = QElement(fld, u, v)
            if not (beta.is_totally_positive() and (alpha - beta).is_totally_positive()):
                raise InvariantViolation(f"{beta!r} escapes the interval [0, {alpha!r}]")
            yield beta
    # u = x admits only beta = alpha: a nonzero (0, c) is never totally positive.
    yield alpha


class PartitionGrid:
    """Partition counts p(x + y*w) on an order ideal of the cone, filled on demand.

    Column x is a dict {y: p(x + y*w)} of exactly the cells filled so far,
    all inside its window [-floor(x/omega), floor(x/xi)]; value() returns
    None for every other cell.  count(alpha) fills the interval [0, alpha]
    that the recurrence reads, so a search near the cone's edge touches a
    thin sliver instead of the whole cone.  The stored set is the union of
    the intervals filled, itself an order ideal, so it holds every cell the
    recurrence reads.  Whole cones come from cone_columns.

    ensure, max_x and column_window are kept for perfbench, which reads them;
    no command calls them.  ensure(X) fills the interval below every cell of
    column X, which is every column up to X, and max_x is the largest X whose
    columns up to X are all complete.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._cols: list[dict[int, int]] = [{0: 1}]  # p(0) = 1
        self._fdo: list[int] = [0]
        self._fdx: list[int] = [0]
        # sig weight tables of column x, keyed by y like the column.
        self._sig0: list[dict[int, int]] = [{}]
        self._sig1: list[dict[int, int]] = [{}]

    @property
    def max_x(self) -> int:
        cols, fdo, fdx = self._cols, self._fdo, self._fdx
        m = 0
        while m + 1 < len(cols) and len(cols[m + 1]) == fdo[m + 1] + fdx[m + 1] + 1:
            m += 1
        return m

    def ensure(self, max_x: int) -> None:
        """Extend the grid so that all columns up to max_x are complete."""
        if max_x > self.max_x:
            self._grow(max_x)
            for y in range(-self._fdo[max_x], self._fdx[max_x] + 1):
                self._fill(max_x, y)

    def value(self, x: int, y: int) -> int | None:
        """Stored count at (x, y), or None when the cell is not stored."""
        if not 0 <= x < len(self._cols):
            return None
        return self._cols[x].get(y)

    def count(self, e: QElement) -> int:
        """p(e) for totally positive e, filling the interval [0, e] as needed."""
        if e.field != self.field:
            raise ValueError(f"element of D={e.field.D} queried against D={self.field.D}")
        if not e.is_totally_positive():
            raise ValueError(f"count needs a totally positive element, got {e!r}")
        v = self.value(e.a, e.b)
        if v is None:
            self._fill(e.a, e.b)
            v = self.value(e.a, e.b)
            if v is None:
                raise InvariantViolation(f"no stored cell for {e!r} after filling its interval")
        return v

    def column_window(self, x: int) -> tuple[int, int]:
        """(y_min, y_max) of the window of a complete column x <= max_x."""
        if not 0 <= x <= self.max_x:
            raise ValueError(f"column {x} not built yet")
        return -self._fdo[x], self._fdx[x]

    # ----- internals -----------------------------------------------------

    def _grow(self, x: int) -> None:
        """Add empty columns and their floors up to x."""
        fld = self.field
        for u in range(len(self._cols), x + 1):
            self._fdo.append(fld.floor_div_omega(u))
            self._fdx.append(fld.floor_div_xi(u))
            self._cols.append({})
            self._sig0.append({})
            self._sig1.append({})

    def _fill(self, x: int, y: int) -> None:
        """Store the interval [0, x + y*w].

        Bottom up, each missing cell of the interval's range in a column (see
        _below) gets its weights and then its count from _cell, which reads
        only its own weights and lower columns.
        """
        self._grow(x)
        cols = self._cols
        lo, hi = self._below(x, y)
        for u in range(1, x + 1):
            col, s0, s1 = cols[u], self._sig0[u], self._sig1[u]
            for v in range(lo[u], hi[u] + 1):
                if v not in col:
                    c = gcd(u, v)
                    sc = sigma(c)
                    s0[v] = (u // c) * sc
                    s1[v] = ((u + v) // c) * sc
                    col[v] = self._cell(u, v)

    def _below(self, x: int, y: int) -> tuple[list[int], list[int]]:
        """(lo, hi): the interval [0, x + y*w] meets column u in lo[u]..hi[u].

        That is column u's window clipped to [y - floor((x-u)/xi),
        y + floor((x-u)/omega)]; lo[u] > hi[u] where the interval misses u.
        """
        fdo, fdx = self._fdo, self._fdx
        lo = [max(-fdo[u], y - fdx[x - u]) for u in range(x + 1)]
        hi = [min(fdx[u], y + fdo[x - u]) for u in range(x + 1)]
        return lo, hi

    def _cell(self, x: int, y: int) -> int:
        fdo, fdx = self._fdo, self._fdx
        cols = self._cols
        sig0, sig1 = self._sig0, self._sig1
        S0 = 0
        S1 = 0
        for u in range(1, x):
            g = x - u
            lo = y - fdx[g]
            t = -fdo[u]
            if t > lo:
                lo = t
            hi = y + fdo[g]
            t = fdx[u]
            if t < hi:
                hi = t
            if lo > hi:
                continue
            a0 = sig0[u]
            a1 = sig1[u]
            prev = cols[g]
            for v in range(lo, hi + 1):
                P = prev[y - v]
                S0 += a0[v] * P
                S1 += a1[v] * P
        # The beta = alpha term contributes sig(alpha) * p(0).
        S0 += sig0[x][y]
        S1 += sig1[x][y]

        # S0 = x*p recovers p, and S1 = (x + y)*p cross-checks it.
        p, r = divmod(S0, x)
        if r or p < 1 or S1 != (x + y) * p:
            raise DivisibilityViolation(
                f"coefficient match failed at (x={x}, y={y}): x*p = {S0}"
            )
        return p


def _cone_layout(field: Field, X: int) -> tuple[list[int], list[int], int, int]:
    """(fdo, fdx, W, L) of the cone up to column X packed into one int, slot x*W + y.

    fdo[x] = floor(x/omega) and fdx[x] = floor(x/xi) bound the window of
    column x, which occupies slots x*W - fdo[x] up to x*W + fdx[x], and
    L = X*W + fdx[X] + 1 is one past the top cell of column X.  Both
    whole-cone kernels start here, cone_columns with B-bit slots and
    cone_parity with 1-bit slots.  Raises BudgetExceeded, before the O(X)
    floors are listed, when neither could build the cone within the budget.

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
    top = field.floor_div_xi(X)
    W = field.floor_div_omega(X + 1) + top + 1
    L = X * W + top + 1
    # Every column holds the cell y = 0, so the cheapest kernel, the XOR fold,
    # folds at least X parts, and the recurrence does at least X(X-1)/2
    # multiply-adds.
    lower = min(_fold_ms(X, L), _madds_ms(X * (X - 1) // 2))
    _check_budget(X, lower, "building it would take at least")
    fdo = [field.floor_div_omega(x) for x in range(X + 1)]
    fdx = [field.floor_div_xi(x) for x in range(X + 1)]
    return fdo, fdx, W, L


def _fold_ms(parts: int, L: int) -> int:
    """Estimated milliseconds of cone_parity's XOR fold of parts into L one-bit slots.

    Each part is folded in as at most ceil(log2 L) factors, and each factor
    is a shift, a mask and an XOR over L/64 words, at 5e9 word operations
    per second.
    """
    return parts * (L - 1).bit_length() * L * 1000 // (64 * 5_000_000_000)


def _recurrence_madds(sizes: Sequence[int]) -> int:
    """Slot products of cone_columns up to X, sizes[x] the width of column x <= X.

    For each u < x the product S0_u * C_(x-u) multiplies |W(u)| * |W(x - u)|
    pairs of slots, so the total is the sum of sizes[u] * sizes[g] over
    u, g >= 1 with u + g <= X: sizes[u] times the sum of sizes[1..X - u].
    The per-cell recurrence over the same cone walks as many multiply-adds.
    """
    X = len(sizes) - 1
    below = [0]
    for g in range(1, X + 1):
        below.append(below[-1] + sizes[g])
    return sum(sizes[u] * below[X - u] for u in range(1, X))


def _madds_ms(madds: int) -> int:
    """Estimated milliseconds of cone_columns for madds multiply-adds."""
    return madds * 1000 // _MADDS_PER_S


def _check_budget(X: int, ms: int, what: str) -> None:
    """Raise BudgetExceeded when ms, what's estimate for the cone up to x = X, is over budget."""
    if ms > _BUDGET_MS:
        secs = -(-ms // 1000)  # rounded up, so it always reads above the budget
        # Beyond 1e300 no float holds secs.
        about = secs if secs < 10**6 else f"{secs:.1e}" if secs < 10**300 else "over 1e+300"
        raise BudgetExceeded(
            f"the cone up to x = {X} is over the cost budget: {what} {about} s, "
            f"more than {_BUDGET_MS // 1000} s"
        )


# Maps the digits of a binary numeral to the byte values 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def cone_parity(field: Field, max_x: int) -> list[list[int]]:
    """p(x + y*w) mod 2 over the whole window of each column x <= max_x, from the Euler product.

    The shape of cone_columns: column x lists y = -floor(x/omega)..floor(x/xi).
    The generating function of p is the product over totally positive beta of
    1/(1 - q^beta), and modulo 2, 1/(1 - t) = (1 + t)(1 + t^2)(1 + t^4)...
    The truncated product therefore needs only shifts and XORs.  The cone up
    to max_x is one int F whose bit x*W + y holds p(x + y*w) mod 2 (the
    layout of _cone_layout with 1-bit slots).  Every coin beta = (u, v) with
    u <= max_x is folded in as the factors 1 + t^(s*2^k) for s = u*W + v and
    every s*2^k < L.  It shares no arithmetic with the recurrence, so it
    checks the counts of PartitionGrid and cone_columns mod 2 independently.

    Raises BudgetExceeded, before any folding, when the fold is too costly.
    """
    fdo, fdx, W, L = _cone_layout(field, max_x)
    parts = sum(fdo) + sum(fdx) + max_x
    _check_budget(max_x, _fold_ms(parts, L), "its parity product would take about")
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


class GridPool:
    """One shared, lazily extended grid per field."""

    def __init__(self) -> None:
        self._grids: dict[int, PartitionGrid] = {}

    def grid(self, field: Field) -> PartitionGrid:
        try:
            return self._grids[field.D]
        except KeyError:
            g = PartitionGrid(field)
            self._grids[field.D] = g
            return g


def cone_columns(field: Field, max_x: int) -> list[list[int]]:
    """p(x + y*w) over the whole window y = -floor(x/omega)..floor(x/xi) of each column x <= max_x.

    The recurrence of PartitionGrid, a column at a time on packed ints.
    Column g is one int C_g with B bits per cell, p(g, y) at slot
    y + floor(g/omega), and S0_u, S1_u pack the weights sig0(u, v) = (u/c)*sigma(c)
    and sig1(u, v) = ((u + v)/c)*sigma(c), c = gcd(u, v), over column u's
    window.  The slots of the product S0_u * C_g, g = x - u, that sum to y
    hold the terms of beta = (u, .) in column x's sum for p(x, y), at slot
    y + floor(u/omega) + floor(g/omega), so

        T0 = sum over u = 1..x of (S0_u * C_(x-u)) << (fdo[x] - fdo[u] - fdo[x-u])*B

    holds x*p(x, y) at slot y + floor(x/omega), and T1, with S1_u, holds
    (x + y)*p(x, y); the shifts are >= 0 as floor(t/omega) is superadditive.
    p is T0's slot divided by x, and T1's slot must equal (x + y)*p, the
    check of PartitionGrid._cell; a remainder or a mismatch raises
    DivisibilityViolation.  Column x costs x products of two packed columns,
    where the per-cell recurrence walks every pair of cells one multiply-add
    at a time.

    Why B bits never carry.  B = bitlen((X + floor(X/xi)) * R(X)) rounded up
    to whole bytes, X = max_x, where R(n), the sum of column n, is the Euler
    transform of the column sizes.  Every totally positive element has
    x >= 1, so x is an additive, positive integer functional on the cone,
    and R(n) counts the partitions into parts counted by their x.  p(alpha)
    is one term of R(x(alpha)), and R is nondecreasing (adding the part 1
    maps the partitions counted by R(n) injectively into those of R(n + 1)),
    so p(alpha) <= R(X).  u + v > 0 on the cone, as v >= -floor(u/omega) and
    omega > 1, so every weight and every count is nonnegative, and every
    partial sum of a slot, within one product or across them, is at most its
    final value x*p or (x + y)*p <= (X + floor(X/xi)) * R(X).  Each column's
    sum is still checked against R(x), and a mismatch raises
    InvariantViolation.

    Raises BudgetExceeded, before any work, when the estimated cost is over
    budget.
    """
    fdo, fdx, _, _ = _cone_layout(field, max_x)
    sizes = [fdo[x] + fdx[x] + 1 for x in range(max_x + 1)]
    ms = _madds_ms(_recurrence_madds(sizes))
    _check_budget(max_x, ms, "its recurrence would take about")
    R = euler_transform([0] + sizes[1:])
    nbytes = (((max_x + fdx[max_x]) * R[max_x]).bit_length() + 7) // 8
    B = 8 * nbytes

    def pack(values: list[int]) -> int:
        return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")

    cols = [[1]]  # p(0) = 1
    C = [1]
    S0 = [0]
    S1 = [0]
    for x in range(1, max_x + 1):
        f = fdo[x]
        sig0 = []
        sig1 = []
        for v in range(-f, fdx[x] + 1):
            c = gcd(x, v)
            sc = sigma(c)
            sig0.append((x // c) * sc)
            sig1.append(((x + v) // c) * sc)
        S0.append(pack(sig0))
        S1.append(pack(sig1))
        T0 = 0
        T1 = 0
        for u in range(1, x + 1):
            g = x - u
            shift = (f - fdo[u] - fdo[g]) * B
            T0 += (S0[u] * C[g]) << shift
            T1 += (S1[u] * C[g]) << shift
        t0 = T0.to_bytes(sizes[x] * nbytes, "little")
        t1 = T1.to_bytes(sizes[x] * nbytes, "little")
        col = []
        for i in range(0, sizes[x] * nbytes, nbytes):
            y = i // nbytes - f
            xp = int.from_bytes(t0[i : i + nbytes], "little")
            p, r = divmod(xp, x)
            if r or p < 1 or int.from_bytes(t1[i : i + nbytes], "little") != (x + y) * p:
                raise DivisibilityViolation(
                    f"coefficient match failed at (x={x}, y={y}): x*p = {xp}"
                )
            col.append(p)
        if sum(col) != R[x]:
            raise InvariantViolation(
                f"column {x} of the cone for D={field.D} sums to {sum(col)}, not R({x}) = {R[x]}"
            )
        cols.append(col)
        C.append(pack(col))
    return cols


def cone_rows(field: Field, max_x: int) -> list[list[int]]:
    """p(x + y*w) for rows y = 0..floor(max_x/xi), columns x = 0..max_x, 0 outside the cone."""
    cols = cone_columns(field, max_x)
    tops = [field.floor_div_xi(x) for x in range(max_x + 1)]
    # Column x ends at y = tops[x], so y sits at index y - tops[x] - 1 from its end.
    return [
        [col[y - top - 1] if y <= top else 0 for col, top in zip(cols, tops)]
        for y in range(tops[-1] + 1)
    ]


def euler_transform(c: Sequence[int]) -> list[int]:
    """P(0..T), T = len(c) - 1, the coefficients of prod_{k>=1} (1 - q^k)^(-c[k]).

    Taking the logarithmic derivative gives n * P(n) = sum_{k=1..n} w(k) * P(n - k)
    with w(k) = sum_{d | k} d * c[d]; c[0] is ignored.  Every division is
    checked and a remainder raises DivisibilityViolation.
    """
    T = len(c) - 1
    w = [0] + [sum(d * c[d] for d in divisors(k)) for k in range(1, T + 1)]
    P = [1]
    for n in range(1, T + 1):
        q, r = divmod(sum(w[k] * P[n - k] for k in range(1, n + 1)), n)
        if r:
            raise DivisibilityViolation(f"Euler transform division failed at n={n}")
        P.append(q)
    return P


def p_rational(n: int) -> int:
    """The classical partition number p(n): the Euler transform of c = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return euler_transform([0] + [1] * n)[n]


def asymptotic_estimate(alpha: QElement) -> float:
    """Leading-order estimate of log p(alpha): 3*(zeta(3)*Nm(alpha)/sqrt(disc))^(1/3).

    This is the only floating-point computation in the package and is purely
    diagnostic; nothing exact depends on it.
    """
    if not alpha.is_totally_positive():
        raise ValueError(f"estimate needs a totally positive element, got {alpha!r}")
    nm = alpha.norm()
    return 3.0 * (ZETA3 * nm / sqrt(alpha.field.discriminant)) ** (1.0 / 3.0)
