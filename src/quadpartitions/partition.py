"""Partition counts p(alpha) for totally positive elements.

Two independent algorithms compute p.  The first is an exact recurrence:

    alpha * p(alpha) = sum over 0 < beta <= alpha of sig(beta) * p(alpha - beta)

where the interval runs over the total-positivity order, and
sig(beta) = (beta / c) * sigma(c) with c = gcd of the coordinates of beta
and sigma the rational sum-of-divisors function.  Matching coefficients in
the basis (1, w) recovers p(alpha) by one exact division, and the second
coordinate cross-checks it; any mismatch raises DivisibilityViolation.
Cells are filled column by column in the first coordinate.  Every summand
beta has first coordinate >= 1, so a cell only depends on strictly earlier
columns and the recurrence is well founded.  PartitionGrid fills order ideals
of the cone on demand with it.

The second expands the Euler product of 1/(1 - q^beta) over the whole cone
up to a column, packed into one big int (Kronecker substitution), and
ParityGrid is its mod-2 case, with 1-bit slots and XOR in place of addition.
It shares no arithmetic with the recurrence, so each checks the other.
cone_columns and cone_rows, the xy view, read the whole cone from whichever
of the two is estimated cheaper: the product up to X of about 200 for small
D, the recurrence above.

euler_transform is the one-variable form of the recurrence, for a product
prod_k (1 - q^k)^(-c[k]) over the rational integers: p_rational uses it with
c = 1, parity.cumulative_P with the trace-layer counts, and the Euler product
with the column sizes, for its slot width and its column-sum check.
"""

from __future__ import annotations

from functools import cache
from math import gcd, sqrt
from typing import Iterator, Sequence

from .errors import BudgetExceeded, DivisibilityViolation, InvariantViolation
from .field import Field, QElement

__all__ = [
    "PartitionGrid",
    "ParityGrid",
    "GridPool",
    "content",
    "sigma_K",
    "enumerate_interval",
    "cone_rows",
    "euler_transform",
    "p_rational",
    "asymptotic_estimate",
    "ZETA3",
]

# Apery's constant zeta(3), used only by the floating-point diagnostic below.
ZETA3 = 1.2020569031595942854

# Throughput of the three cone kernels on a 2-core host with Python 3.11,
# measured for D = 2..97 and X = 40..260: estimated 64-bit word operations per
# second of the exact fold and of the XOR fold (see _fold_ms), and multiply-adds
# per second of the recurrence (see _recurrence_madds).  The exact fold's rate
# is the one it keeps once its int outgrows about 400 KB (X >= 140 for D = 2
# or 5), where its cost meets the recurrence's; smaller ints fold up to 1.6x
# faster, which only widens the product's lead.
_ADD_FOLD_OPS_PER_S = 2_500_000_000
_XOR_FOLD_OPS_PER_S = 5_000_000_000
_MADDS_PER_S = 7_000_000
# The longest estimated run, in milliseconds on that host, that is started.
# The recurrence took 55 s for the xy view of D=2 up to x = 260, and 56 s for
# D=5 up to x = 210, so every run it finished in about a minute stays inside.
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

    Column x stores one contiguous range of its exact window
    [-floor(x/omega), floor(x/xi)]; value() returns None for every cell that
    is not stored, inside the window or not.  Both ways in go through one
    _fill, which stores the order ideal below a segment of one column.
    count(alpha) fills the ideal below the single cell alpha, the interval
    [0, alpha] that the recurrence reads, so a search near the cone's edge
    touches a thin sliver instead of the whole cone.  ensure(X) fills the
    ideal below column X's whole window, which is every column up to X.
    max_x is the largest X whose columns up to X are all complete; columns
    beyond it may hold partial ranges.

    Why one range per column is enough.  [0, x + y*w] meets column u in the
    window clipped to [y - floor((x-u)/xi), y + floor((x-u)/omega)]: one
    interval, whose two ends never fall as y grows.  So the interval of a
    cell lying between two cells of a column sits, in each lower column,
    inside the hull of their two intervals, and the union of intervals filled
    one after another mostly stays contiguous column by column.  Not always:
    where an interval misses a column altogether (that of the unit
    3+2*sqrt(2) meets neither column 1 nor column 2), the hull of a stored
    range and a new one can hold cells whose own intervals reach past both,
    and filling targets in an arbitrary order does run into them.  So _fill
    takes that hull in every column and, for each new cell outside the
    requested ideal, widens the lower columns' ranges by the cell's own
    interval before computing anything.  The stored set stays an order ideal,
    one range per column, and holds every cell the recurrence reads.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._cols: list[list[int]] = [[1]]  # p(0) = 1
        self._vmin: list[int] = [0]
        self._fdo: list[int] = [0]
        self._fdx: list[int] = [0]
        # sig coordinate tables, indexed by v + floor(x/omega): a list over the
        # whole window once column x is complete, a dict of its stored cells before.
        self._sig0: list[list[int] | dict[int, int]] = [[]]
        self._sig1: list[list[int] | dict[int, int]] = [[]]
        self._max_x = 0

    @property
    def max_x(self) -> int:
        return self._max_x

    def ensure(self, max_x: int) -> None:
        """Extend the grid so that all columns up to max_x are complete."""
        if max_x > self._max_x:
            self._grow(max_x)
            self._fill(max_x, -self._fdo[max_x], self._fdx[max_x])

    def value(self, x: int, y: int) -> int | None:
        """Stored count at (x, y), or None when the cell is not stored."""
        if not 0 <= x < len(self._cols):
            return None
        i = y - self._vmin[x]
        col = self._cols[x]
        if 0 <= i < len(col):
            return col[i]
        return None

    def count(self, e: QElement) -> int:
        """p(e) for totally positive e, filling the interval [0, e] as needed."""
        if e.field != self.field:
            raise ValueError(f"element of D={e.field.D} queried against D={self.field.D}")
        if not e.is_totally_positive():
            raise ValueError(f"count needs a totally positive element, got {e!r}")
        v = self.value(e.a, e.b)
        if v is None:
            self._fill(e.a, e.b, e.b)
            v = self.value(e.a, e.b)
            if v is None:
                raise InvariantViolation(f"no stored cell for {e!r} after filling its interval")
        return v

    def column_window(self, x: int) -> tuple[int, int]:
        """(y_min, y_max) of the window of a complete column x <= max_x."""
        if not 0 <= x <= self._max_x:
            raise ValueError(f"column {x} not built yet")
        return self._vmin[x], self._vmin[x] + len(self._cols[x]) - 1

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Every stored (x, y, count) triple with x >= 1, complete column or not."""
        for x in range(1, len(self._cols)):
            vmin = self._vmin[x]
            for i, c in enumerate(self._cols[x]):
                yield x, vmin + i, c

    # ----- internals -----------------------------------------------------

    def _grow(self, x: int) -> None:
        """Add empty columns and their floors up to x."""
        fld = self.field
        for u in range(len(self._cols), x + 1):
            self._fdo.append(fld.floor_div_omega(u))
            self._fdx.append(fld.floor_div_xi(u))
            self._cols.append([])
            self._vmin.append(-self._fdo[u])
            self._sig0.append({})
            self._sig1.append({})

    def _fill(self, x: int, ylo: int, yhi: int) -> None:
        """Store the order ideal below the segment (x, ylo..yhi) of column x.

        That ideal is the union of the intervals [0, x + y*w], ylo <= y <= yhi,
        one range per column (see _below).  Below column x's whole window it
        is every full window up to x, as the floors are nondecreasing in u.

        Top down, each column's new range is the hull of its stored range and
        the requested one (widened by any gap cells above it); bottom up, the
        missing cells of each range are computed by _cell, column by column.
        """
        self._grow(x)
        fdo, fdx = self._fdo, self._fdx
        cols, vmins = self._cols, self._vmin
        lo, hi = self._below(x, ylo, yhi)
        want = list(zip(lo, hi))
        work: list[tuple[int, range, range]] = []
        for u in range(x, 0, -1):
            a, b = lo[u], hi[u]
            if a > b:
                continue
            s, n = vmins[u], len(cols[u])
            if not n:
                s = b + 1
            elif s <= a and b < s + n:
                continue
            below, above = range(min(a, s), s), range(s + n, max(b, s + n - 1) + 1)
            work.append((u, below, above))
            # New cells outside the request close a gap; store their intervals too.
            ra, rb = want[u]
            out = [v for v in (*below, *above) if not ra <= v <= rb]
            if out:
                self._widen(u, out[0], out[-1], lo, hi)
        cell = self._cell
        for u, below, above in reversed(work):
            complete = below.start == -fdo[u] and above.stop == fdx[u] + 1
            self._add_sig(u, (below, above), complete)
            cols[u] = [cell(u, v) for v in below] + cols[u] + [cell(u, v) for v in above]
            vmins[u] = below.start
        m = self._max_x
        while m + 1 < len(cols) and len(cols[m + 1]) == fdo[m + 1] + fdx[m + 1] + 1:
            m += 1
        self._max_x = m

    def _below(self, x: int, ylo: int, yhi: int) -> tuple[list[int], list[int]]:
        """(lo, hi): the ideal below the segment (x, ylo..yhi) meets column u in lo[u]..hi[u].

        [0, x + y*w] meets column u in one range whose ends never fall as y
        grows (see the class docstring), and the nonempty ranges of
        consecutive y leave no gap, so the segment's union runs from the lower
        end at ylo to the upper end at yhi; lo[u] > hi[u] where it misses u.
        """
        fdo, fdx = self._fdo, self._fdx
        lo = [max(-fdo[u], ylo - fdx[x - u]) for u in range(x + 1)]
        hi = [min(fdx[u], yhi + fdo[x - u]) for u in range(x + 1)]
        return lo, hi

    def _widen(self, u: int, c: int, d: int, lo: list[int], hi: list[int]) -> None:
        """Widen lo/hi below column u to hold the ideal below the cells (u, c..d)."""
        blo, bhi = self._below(u, c, d)
        for r in range(1, u):
            a, b = blo[r], bhi[r]
            if a <= b:
                if lo[r] > hi[r]:
                    lo[r], hi[r] = a, b
                else:
                    lo[r], hi[r] = min(lo[r], a), max(hi[r], b)

    def _add_sig(self, x: int, new: tuple[range, ...], complete: bool) -> None:
        """Add sig(x + v*w) for every v in new to column x's coordinate tables."""
        f = self._fdo[x]
        s0, s1 = self._sig0[x], self._sig1[x]
        for vs in new:
            for v in vs:
                c = gcd(x, v)
                sc = sigma(c)
                s0[v + f] = (x // c) * sc
                s1[v + f] = (v // c) * sc
        if complete:
            self._sig0[x] = [s0[i] for i in range(len(s0))]
            self._sig1[x] = [s1[i] for i in range(len(s1))]

    def _cell(self, x: int, y: int) -> int:
        fdo, fdx = self._fdo, self._fdx
        cols, vmins = self._cols, self._vmin
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
            i = lo + fdo[u]
            j = (y - lo) - vmins[g]
            for _ in range(lo, hi + 1):
                P = prev[j]
                S0 += a0[i] * P
                S1 += a1[i] * P
                i += 1
                j -= 1
        # The beta = alpha term contributes sig(alpha) * p(0).
        i = y + fdo[x]
        S0 += sig0[x][i]
        S1 += sig1[x][i]

        # Recover p from alpha * p = (S0, S1) and cross-check both coordinates.
        if y:
            p, r = divmod(S1, y)
            if r or S0 != x * p:
                raise DivisibilityViolation(
                    f"coefficient match failed at (x={x}, y={y}): S=({S0}, {S1})"
                )
        else:
            p, r = divmod(S0, x)
            if r or S1 != 0:
                raise DivisibilityViolation(
                    f"coefficient match failed at (x={x}, y={y}): S=({S0}, {S1})"
                )
        if p < 1:
            raise DivisibilityViolation(f"nonpositive count {p} at (x={x}, y={y})")
        return p

    def to_columns(self) -> list[dict]:
        """The complete columns x <= max_x as {"x", "y_min", "counts"}."""
        return [
            {"x": x, "y_min": self._vmin[x], "counts": list(self._cols[x])}
            for x in range(self.max_x + 1)
        ]


def _cone_layout(field: Field, X: int) -> tuple[list[int], list[int], int, int]:
    """(fdo, fdx, W, L) of the cone up to column X packed into one int, slot x*W + y.

    fdo[x] = floor(x/omega) and fdx[x] = floor(x/xi) bound the window of
    column x, which occupies slots x*W - fdo[x] up to x*W + fdx[x], and
    L = X*W + fdx[X] + 1 is one past the top cell of column X.  Raises
    BudgetExceeded, before the O(X) floors are listed, when no kernel could
    build the cone within the budget.

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
    lower = min(_fold_ms(X, L, 1, _XOR_FOLD_OPS_PER_S), _madds_ms(X * (X - 1) // 2))
    _check_budget(X, lower, "building it would take at least")
    fdo = [field.floor_div_omega(x) for x in range(X + 1)]
    fdx = [field.floor_div_xi(x) for x in range(X + 1)]
    return fdo, fdx, W, L


def _fold_ms(parts: int, L: int, bits: int, ops_per_s: int) -> int:
    """Estimated milliseconds to fold parts into L slots of bits bits each.

    Each part is folded in as at most ceil(log2 L) factors, and each factor
    is a shift, a mask and an add (or XOR) over L*bits/64 words.
    """
    return parts * (L - 1).bit_length() * L * bits * 1000 // (64 * ops_per_s)


def _recurrence_madds(sizes: Sequence[int]) -> int:
    """Multiply-adds of PartitionGrid.ensure(X), sizes[x] the width of column x <= X.

    For each u < x the cells of column x walk |W(u)| * |W(x - u)| pairs in
    all, so the total is the sum of sizes[u] * sizes[g] over u, g >= 1 with
    u + g <= X: sizes[u] times the sum of sizes[1..X - u].
    """
    X = len(sizes) - 1
    below = [0]
    for g in range(1, X + 1):
        below.append(below[-1] + sizes[g])
    return sum(sizes[u] * below[X - u] for u in range(1, X))


def _madds_ms(madds: int) -> int:
    """Estimated milliseconds of the recurrence for madds multiply-adds."""
    return madds * 1000 // _MADDS_PER_S


def _check_budget(X: int, ms: int, what: str) -> None:
    """Raise BudgetExceeded when ms, what's estimate for the cone up to x = X, is over budget."""
    if ms > _BUDGET_MS:
        secs = ms // 1000
        # Beyond 1e300 no float holds secs.
        about = secs if secs < 10**6 else f"{secs:.1e}" if secs < 10**300 else "over 1e+300"
        raise BudgetExceeded(
            f"the cone up to x = {X} is over the cost budget: {what} {about} s, "
            f"more than {_BUDGET_MS // 1000} s"
        )


class ParityGrid:
    """p(alpha) mod 2 for the whole cone, from the Euler product.

    The generating function of p is the product over totally positive beta of
    1/(1 - q^beta), and modulo 2, 1/(1 - t) = (1 + t)(1 + t^2)(1 + t^4)...
    The truncated product therefore needs only shifts and XORs.  The cone up
    to max_x is one int F whose bit x*W + y holds p(x + y*w) mod 2 (the
    layout of _cone_layout with 1-bit slots).  Every coin beta = (u, v) with
    u <= max_x is folded in as the factors 1 + t^(s*2^k) for s = u*W + v and
    every s*2^k < L.  This is _product_columns modulo 2: 1-bit slots and XOR
    for +, so each factor touches B times fewer words.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._bits = 1  # p(0) = 1
        self._width = 1
        self._fdo: list[int] = [0]
        self._fdx: list[int] = [0]

    @property
    def max_x(self) -> int:
        return len(self._fdo) - 1

    def ensure(self, max_x: int) -> None:
        """Rebuild the product so that all columns up to max_x are complete.

        Raises BudgetExceeded, before any folding, when the fold is too costly.
        """
        if max_x <= self.max_x:
            return
        fdo, fdx, W, L = _cone_layout(self.field, max_x)
        parts = sum(fdo) + sum(fdx) + max_x
        ms = _fold_ms(parts, L, 1, _XOR_FOLD_OPS_PER_S)
        _check_budget(max_x, ms, "its parity product would take about")
        mask = (1 << L) - 1
        F = 1
        for u in range(1, max_x + 1):
            for v in range(-fdo[u], fdx[u] + 1):
                s = u * W + v
                while s < L:
                    F ^= (F << s) & mask
                    s <<= 1
        self._bits = F
        self._width = W
        self._fdo = fdo
        self._fdx = fdx

    def value(self, x: int, y: int) -> int | None:
        """p(x + y*w) mod 2, or None when the cell is outside the built cone."""
        if not 0 <= x <= self.max_x or not -self._fdo[x] <= y <= self._fdx[x]:
            return None
        return (self._bits >> (x * self._width + y)) & 1


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

    Two kernels compute the same counts, the packed Euler product of
    _product_columns and the recurrence of PartitionGrid.ensure, and the one
    of lower estimated cost runs (see _cone_costs).  Raises BudgetExceeded,
    before any work, when that estimate is over budget.
    """
    layout, R, costs = _cone_costs(field, max_x)
    if costs["product"] <= costs["recurrence"]:
        _check_budget(max_x, costs["product"], "its Euler product would take about")
        return _product_columns(field, *layout, R)
    _check_budget(max_x, costs["recurrence"], "its recurrence would take about")
    grid = PartitionGrid(field)
    grid.ensure(max_x)
    return [column["counts"] for column in grid.to_columns()]


def _cone_costs(
    field: Field, X: int
) -> tuple[tuple[list[int], list[int], int, int], list[int] | None, dict[str, int]]:
    """(layout, R, costs) of the cone up to column X, for cone_columns.

    layout is _cone_layout's, R the Euler transform of the column sizes, and
    costs each kernel's estimated milliseconds.  The fold costs about
    X^4 log X * B/64 word operations and the recurrence about X^4 small
    multiply-adds, so the product is cheaper up to X of about 200 for D = 2
    (170 for D = 5, further for larger D) and the recurrence beyond.  R costs
    O(X^2), so it is computed, and the product costed at its real B, only
    when the fold at the least B, one byte, is within budget; otherwise R is
    None.
    """
    layout = _cone_layout(field, X)
    fdo, fdx, _, L = layout
    sizes = [fdo[u] + fdx[u] + 1 for u in range(X + 1)]
    parts = sum(sizes) - 1
    product = _fold_ms(parts, L, 8, _ADD_FOLD_OPS_PER_S)
    R = None
    if product <= _BUDGET_MS:
        R = euler_transform([0] + sizes[1:])
        product = _fold_ms(parts, L, 8 * _slot_bytes(R[X]), _ADD_FOLD_OPS_PER_S)
    return layout, R, {"product": product, "recurrence": _madds_ms(_recurrence_madds(sizes))}


def _slot_bytes(top: int) -> int:
    """Whole bytes per slot that hold every count up to top."""
    return (top.bit_length() + 7) // 8


def _product_columns(
    field: Field, fdo: list[int], fdx: list[int], W: int, L: int, R: list[int]
) -> list[list[int]]:
    """The columns of cone_columns from the Euler product of 1/(1 - q^beta).

    The counts are the coefficients of the product over the parts
    beta = (u, v) with u <= X, packed B bits per slot in the layout of
    _cone_layout (Kronecker substitution).  Each part with offset
    s = u*W + v is folded in as the factors 1 + t^(s*2^k), s*2^k < L, each
    one shift, one mask and one add on the whole int.  R is the Euler
    transform of the column sizes.

    Why B bits never carry.  Every totally positive element has x >= 1, so
    x is an additive, positive integer functional on the cone, and R(n), the
    sum of column n, is the number of partitions into parts counted by their
    x: the Euler transform of the column sizes.  p(alpha) is one term of
    R(x(alpha)), and R is nondecreasing (adding the part 1 maps the
    partitions counted by R(n) injectively into those of R(n + 1)), so
    p(alpha) <= R(X).  Every factor has nonnegative coefficients and
    constant term 1, so every partial product is coefficientwise <= the final
    one, and B = bitlen(R(X)), rounded up to whole bytes for to_bytes,
    holds every slot at every step.  Each column's slot sum is still checked
    against R(x), and a mismatch raises InvariantViolation.
    """
    X = len(fdo) - 1
    nbytes = _slot_bytes(R[X])
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
    cols = []
    for x in range(X + 1):
        col = [
            int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(x * W - fdo[x], x * W + fdx[x] + 1)
        ]
        if sum(col) != R[x]:
            raise InvariantViolation(
                f"column {x} of the Euler product for D={field.D} sums to {sum(col)}, not {R[x]}"
            )
        cols.append(col)
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
