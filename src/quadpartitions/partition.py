"""Partition counts p(alpha) for totally positive elements.

One exact recurrence computes p:

    alpha * p(alpha) = sum over 0 < beta <= alpha of sig(beta) * p(alpha - beta)

where the interval runs over the total-positivity order, and
sig(beta) = (beta / c) * sigma(c) with c = gcd of the coordinates of beta
and sigma the rational sum-of-divisors function.  Match coefficients in the
basis (1, w), alpha = x + y*w: the first coordinate of the sum is x*p(alpha),
so p(alpha) is one exact division.  Wherever the recurrence runs, it also
sums the weights ((u + v)/c)*sigma(c) of the parts beta = u + v*w, the two
coordinates of sig(beta) added, and checks that the sum is (x + y)*p(alpha)
with p(alpha) >= 1; any mismatch raises DivisibilityViolation.
Every summand beta has first coordinate >= 1, so a cell only depends on
strictly earlier columns and the recurrence is well founded.

Four kernels compute p, or p mod 2, on an order ideal of the cone:

- PartitionGrid runs the recurrence cell by cell on the intervals
  [0, alpha] that count(alpha) asks for, row by row like band_rows, and
  stores each row as a dict of exactly the cells filled; the point queries
  (find_kmax, the witnesses, estimate --compare, the units corner of
  verify) and the tests' threshold table read it.
- cone_columns runs it over the whole cone up to a column, one column at a
  time: each column is one big int with a slot of B bits per cell
  (Kronecker substitution), and column x is a sum of x products of packed
  columns.  cone_rows, the xy view, reads it.
- diagonal_parity expands the Euler product of 1/(1 - q^beta) modulo 2
  over the interval below (N, 0) as the product of 1 + q^beta over its
  cells outside 2O (Euler's distinct parts, mod 2), with 1-bit slots and
  XOR in place of addition, and returns p(n) mod 2 for n <= N, the side of
  the parity congruence that never runs the recurrence.
- band_rows expands the same product exactly over the thin band
  B(X, K) = {beta >> 0 : x(beta) <= X, beta' <= K}, row by row, whose rows
  0..y_max hold the search's slice box, one shift, mask and add of one big
  int per factor; _band_fold proves that no slot carries, and the
  recurrence then certifies every cell with two big-int products.
  _band_product is the fold with its certificate still to run: band_rows
  runs it at once for search.slice_rows (the search's box, the ky view and
  verify's slice datasets), and search.find_ymax reads its slice corners
  from the fold alone, as search_m checks the y_max they give against the
  certified box.

Each fact of the ideals is stated once, in one helper: _RowEdges lists
the rows of an interval [0, x + y*w] (for PartitionGrid, diagonal_parity
and enumerate_interval), _band_rows the rows of a band, and _floors the
column windows of cone_columns; _band_layout gives both products the slot
a*u + b*v of the cell u + v*w, with the proof that it keeps any order
ideal inside a band apart; _lines puts an ideal's rows in that layout,
_fold_steps lists from them band_rows' factors 1 + q^(2^k*beta) and
_parity_steps diagonal_parity's factors 1 + q^beta, beta outside 2O;
_weights gives the two weights of a part; and _pack, _unpack and _spread
move values into, out of and between byte slots.

Two checks are independent of the recurrence: every column of cone_columns
must sum to R(x), the number of partitions of x into parts counted by their
first coordinate, or InvariantViolation is raised; and diagonal_parity's
product shares no arithmetic with it.  Every kernel estimates its cost
before any work, and errors.check_budget, the one reader of BUDGET_MS,
refuses it and only then names it; check_interval is PartitionGrid's,
which search.find_kmax also asks about an interval it has not reached
yet, and check_band is band_rows', which search.search_m also asks about
a band below its box and search.dm_scan for each field before any count.

euler_transform is the one-variable form of the recurrence, for a product
prod_k (1 - q^k)^(-c[k]) over the rational integers, and sums it in packed
blocks: each block of _EULER_BLOCK coefficients is added to every later one
by one Kronecker product, in slots proved wide enough as they grow.
p_rational uses it with c = 1, parity.cumulative_P with the trace-layer
counts, and cone_columns with the column sizes, for its slot width and its
column-sum check.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, count, repeat
from math import gcd, isqrt, sqrt
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DivisibilityViolation, InvariantViolation, check_budget
from .field import Field, QElement

__all__ = [
    "PartitionGrid",
    "GridPool",
    "content",
    "sigma_K",
    "enumerate_interval",
    "cone_columns",
    "cone_rows",
    "band_rows",
    "diagonal_parity",
    "euler_transform",
    "p_rational",
    "check_interval",
    "check_band",
    "asymptotic_estimate",
    "ZETA3",
]

# Apery's constant zeta(3), used only by the floating-point diagnostic below.
ZETA3 = 1.2020569031595942854

# Throughput of the four kernels on a 2-core host with Python 3.11, each taken
# where the budget bites, so smaller runs take less than estimated.  64-bit
# words per second of diagonal_parity's XOR steps (see _fold_ms): with one
# step per cell outside 2O the last N started ran 2.7e8 for D = 2 (N = 1547,
# a 1.69 Mbit int, 63 s with 0.1 s of system time) and 3.9e8 for D = 5
# (N = 1375, 43 s); the chain fold before it ran 3.0e8 and 3.5e8 at its own
# last N (1339 and 1191), and once 1.4e8-1.5e8 on a 1.4 Mbit int, with 45 s
# of system time (D = 2, N = 1406: 132-143 s; timed again, 54 s with none),
# and the rate is that lower one.
# Slot products per second of cone_columns (see _recurrence_madds): 8e7 at
# X = 100 for D = 2, 2.1e7 at X = 430.
# 64-bit words per second of band_rows' fold steps, its certificate's
# two products included (see _band_ms): the fold alone ran at 1.4e8-1.9e8
# over D = 2..97, K = 1..30, X = 600..100,000, and the certificate took
# 0.4-1.4 times as long again; every cell costs about 10 us more.  Those
# folds ran at one width; the fold that widens from 16 bits as it goes took
# 0.5-1.0 of the estimate at the width it ends at over D = 2..97, K = 1..30,
# X = 600..100,000, and 0.70-0.79 of it in the slot layout a*u + b*v on
# three of those bands (D = 2, X = 8,000, K = 6: 65.4 s against 83.0 s at
# 144 bits).
# Steps per second of PartitionGrid filling an interval (see _interval_ms):
# 4.1e6-5.2e6 for D=2 at k = 6 (5.7, 26.7 and 70.4 s at x = 1,400, 2,800 and
# 4,900; the column walk before it took 30.0 s at 2,800) and 6.2e6-7.0e6 for
# D=5 at k = 2 (4.2, 18.4 and 57.7 s), slices whose columns come close to
# the bound, and 4e7-1e8 where it overcounts: diamonds (n, 0), thin corners.
_FOLD_WORDS_PER_S = 140_000_000
_MADDS_PER_S = 21_000_000
_BAND_WORDS_PER_S = 90_000_000
_BAND_CELL_US = 10
_INTERVAL_STEPS_PER_S = 4_000_000
# Within errors.BUDGET_MS the xy view runs up to x = 416 for D=2 and 331 for
# D=5, and parity up to N = 1547 and 1375; both are refused beyond.
# Coefficients euler_transform adds to every later one with one packed product.
_EULER_BLOCK = 16


@cache
def sigma(n: int) -> int:
    """Sum of the positive divisors of n, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d if d * d == n else d + n // d
        d += 1
    return total


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


def _weights(u: int, v: int) -> tuple[int, int]:
    """(sig0, sig1) of beta = u + v*w: (u/c)*sigma(c) and ((u + v)/c)*sigma(c), c = gcd(u, v).

    They are the two coordinates of sig(beta), added for sig1, so the
    recurrence's sums with them are x*p(alpha) and (x + y)*p(alpha).
    """
    c = gcd(u, v)
    sc = sigma(c)
    return (u // c) * sc, ((u + v) // c) * sc


def _pack(values: Iterable[int], nb: int) -> int:
    """values packed nb bytes a slot, the first at slot 0."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(nb), repeat("little"))), "little")


def _unpack(n: int, slots: int, nb: int) -> list[int]:
    """The first slots slots of n, nb bytes each."""
    data = n.to_bytes(max(slots * nb, (n.bit_length() + 7) // 8), "little")
    chunks = map(data.__getitem__, map(slice, range(0, slots * nb, nb), range(nb, (slots + 1) * nb, nb)))
    return list(map(int.from_bytes, chunks, repeat("little")))


def enumerate_interval(alpha: QElement) -> Iterator[QElement]:
    """Yield every beta with 0 < beta <= alpha: the rows of _RowEdges.rows in order, alpha last.

    Every candidate is confirmed by sign tests before being yielded.
    """
    fld = alpha.field
    if not alpha.is_totally_positive():
        raise ValueError(f"interval base must be totally positive, got {alpha!r}")
    x, y = alpha.a, alpha.b
    for v, first, last in _RowEdges(fld).rows(x, y):
        # Row y ends at alpha itself, yielded last.
        for u in range(first, last + (v != y)):
            beta = QElement(fld, u, v)
            if not (beta.is_totally_positive() and (alpha - beta).is_totally_positive()):
                raise InvariantViolation(f"{beta!r} escapes the interval [0, {alpha!r}]")
            yield beta
    yield alpha


class _RowEdges(dict):
    """edges[n] = floor(max(n*xi, -n*omega)): row n of the cone starts at u = edges[n] + 1; one floor per |n|, as omega = xi + t.

    rows(x, y) lists the interval [0, x + y*w] by rows, for PartitionGrid,
    diagonal_parity and enumerate_interval, and reach(x, y) bounds them.
    """

    def __init__(self, field: Field) -> None:
        self.field = field

    def __missing__(self, n: int) -> int:
        e = self[n] = self.field.floor_xi_mult(n) if n >= 0 else self[-n] - n * self.field.t
        return e

    def reach(self, x: int, y: int) -> tuple[int, int]:
        """(a, b): the rows v = a..b of the interval [0, x + y*w], row v over u = g(v) + 1..x - 1 - g(y - v), and to x at v = y.

        g = self.  beta = u + v*w has beta' = u - v*xi, so beta >> 0
        reads u > v*xi for v >= 0 and u > -v*omega for v < 0: u >= g(v) + 1
        (v*xi is irrational for v != 0).  alpha - beta = (x - u) + d*w,
        d = y - v, is >> 0 or 0 exactly when u <= x - g(d) - 1, or u <= x at
        d = 0.  Every row between 0 and y is in a..b: there the real u with
        beta, alpha - beta >= 0 fill a segment of length alpha' (y >= 0) or
        alpha (y < 0), so the row is empty when that is below 1.  Outside
        [min(0, y), max(0, y)], v and d keep their signs as v moves outward
        and |v|, |d| grow, so the first u rises and the last falls: each
        outward walk stops at its first empty row, past which none holds a
        cell.  Each row takes one floor.
        """
        a, b = min(0, y), max(0, y)
        while self[b + 1] + self[y - b - 1] + 1 < x:
            b += 1
        while self[a - 1] + self[y - a + 1] + 1 < x:
            a -= 1
        return a, b

    def rows(self, x: int, y: int) -> Iterator[tuple[int, int, int]]:
        """Yield (v, first, last) for each row v = a..b of reach(x, y): the cells 0 < beta <= x + y*w of row v are u = first..last, none where last < first."""
        a, b = self.reach(x, y)
        for v in range(a, b + 1):
            yield v, self[v] + 1, x - self[y - v] - (v != y)


class PartitionGrid:
    """Partition counts p(x + y*w) on an order ideal of the cone, filled on demand.

    Row v is a dict {u: p(u + v*w)} of exactly the cells filled so far, and
    a matching dict of their weights {u: (sig0, sig1)}; row 0 also holds
    p(0) = 1 at u = 0, and value() returns None for every cell not stored.
    count(alpha) fills the interval [0, alpha] that the recurrence reads, so
    a search near the cone's edge touches a thin sliver instead of the whole
    cone.  The stored set is the union of the intervals filled, itself an
    order ideal, so it holds every cell the recurrence reads.  Whole cones
    come from cone_columns, the slice box from band_rows.

    ensure, max_x and column_window are kept for perfbench, which reads them;
    no command calls them.  ensure(X) fills the interval below every cell of
    column X, which is every column up to X, and max_x is the largest X whose
    columns up to X are all complete.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._rows: dict[int, dict[int, int]] = {0: {0: 1}}  # p(0) = 1
        self._sig: dict[int, dict[int, tuple[int, int]]] = {0: {}}
        self._edges = _RowEdges(field)

    @property
    def max_x(self) -> int:
        m = 0
        while all(self.value(m + 1, y) is not None for y in self._window(m + 1)):
            m += 1
        return m

    def ensure(self, max_x: int) -> None:
        """Extend the grid so that all columns up to max_x are complete."""
        if max_x > self.max_x:
            for y in self._window(max_x):
                self._fill(max_x, y)

    def value(self, x: int, y: int) -> int | None:
        """Stored count at (x, y), or None when the cell is not stored."""
        row = self._rows.get(y)
        return None if row is None else row.get(x)

    def count(self, e: QElement) -> int:
        """p(e) for totally positive e, filling the interval [0, e] as needed."""
        if e.field != self.field:
            raise ValueError(f"element of D={e.field.D} queried against D={self.field.D}")
        if not e.is_totally_positive():
            raise ValueError(f"count needs a totally positive element, got {e!r}")
        v = self.value(e.a, e.b)
        if v is None:
            check_interval(e)
            self._fill(e.a, e.b)
            v = self.value(e.a, e.b)
            if v is None:
                raise InvariantViolation(f"no stored cell for {e!r} after filling its interval")
        return v

    def column_window(self, x: int) -> tuple[int, int]:
        """(y_min, y_max) of the window of a complete column x <= max_x."""
        if not 0 <= x <= self.max_x:
            raise ValueError(f"column {x} not built yet")
        return self._window(x)[0], self._window(x)[-1]

    # ----- internals -----------------------------------------------------

    def _window(self, x: int) -> range:
        """The y of column x: -floor(x/omega)..floor(x/xi)."""
        return range(-self.field.floor_div_omega(x), self.field.floor_div_xi(x) + 1)

    def _fill(self, x: int, y: int) -> None:
        """Store the interval [0, x + y*w], its missing cells in order of u, so each reads only stored cells.

        The parts beta = u + v*w != alpha of the cell alpha = (X, Y) lie in
        the rows r of _RowEdges.reach(X, Y), row r over u = g(r) + 1..X - 1 - g(Y - r),
        with alpha - beta in row Y - r.  Every cell of row Y walks the rows
        of its last missing cell (L, Y), as [0, X + Y*w] lies in
        [0, L + Y*w], and skips a row that holds no part of it.
        """
        rows, sig, g = self._rows, self._sig, self._edges
        walk = []  # (v, first u, weights) for the rows of [0, x + y*w]
        missing = []
        for v, first, end in g.rows(x, y):
            row = rows.setdefault(v, {})
            walk.append((v, first, sig.setdefault(v, {})))
            missing += [(u, v) for u in range(first, end + 1) if u not in row]
        a = walk[0][0]  # the lowest row
        missing.sort()
        last = {Y: L for L, Y in missing}  # the last missing cell (L, Y) of each row
        reach = map(g.reach, last.values(), last)
        spans = {Y: slice(r0 - a, r1 - a + 1) for Y, (r0, r1) in zip(last, reach)}  # its rows in walk
        for X, Y in missing:
            S0 = 0
            S1 = 0
            for r, lo, w in walk[spans[Y]]:
                hi = X - g[Y - r]
                if lo >= hi:
                    continue
                prev = rows[Y - r]
                for u in range(lo, hi):
                    P = prev[X - u]
                    w0, w1 = w[u]
                    S0 += w0 * P
                    S1 += w1 * P
            # The beta = alpha term contributes sig(alpha) * p(0).
            w0, w1 = sig[Y][X] = _weights(X, Y)
            S0 += w0
            S1 += w1
            # S0 = x*p recovers p, and S1 = (x + y)*p cross-checks it.
            p, r = divmod(S0, X)
            if r or p < 1 or S1 != (X + Y) * p:
                raise DivisibilityViolation(
                    f"coefficient match failed at (x={X}, y={Y}): x*p = {S0}"
                )
            rows[Y][X] = p


def _floors(field: Field, X: int) -> tuple[list[int], list[int]]:
    """(fdo, fdx), fdo[x] = floor(x/omega) and fdx[x] = floor(x/xi): column x runs over -fdo[x]..fdx[x]."""
    return [field.floor_div_omega(x) for x in range(X + 1)], [field.floor_div_xi(x) for x in range(X + 1)]


def _fold_ms(steps: int, L: int) -> int:
    """Estimated milliseconds of diagonal_parity's steps, each a shift, a mask and an XOR of L bits."""
    return steps * L * 1000 // (64 * _FOLD_WORDS_PER_S)


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


def _interval_ms(field: Field, e: QElement) -> int:
    """Estimated milliseconds of PartitionGrid filling [0, e] from nothing, in O(1).

    [0, e] lies in the band B(x, K) of band_rows, x = x(e) and
    K = ceil(e'), as beta <= e has beta' <= e'.  Column u of the band holds
    the v with (u - K)/xi <= v < u/xi, at most C = floor(K/xi) + 1, as
    floor(a) - floor(b) <= floor(a - b) + 1 and floor(a) + floor(b) <=
    floor(a + b): floor(u/xi) - floor((u - K)/xi) <= C for u > K, and
    floor(u/xi) + floor((K - u)/xi) + 1 <= C for u <= K.  A cell in column
    u pairs with at most C cells in each of the u - 1 columns below it, so
    the fill does at most C^2*x(x - 1)/2 multiply-adds, and the estimate
    adds C*x(x + 1)/2 steps for the row walk.  A cell visits at most
    x/xi + K/(xi + omega) + 1 rows (v*xi < u <= x where v >= 0, and
    |v|*omega < u <= K - |v|*xi where v < 0), each but those it skips with
    a multiply-add; the rate is timed where rows hold fewest of them.
    """
    x = e.a
    K = x - field.floor_xi_mult(e.b) if e.b >= 0 else x + field.ceil_xi_mult(-e.b)
    C = field.floor_div_xi(K) + 1
    return (C * x * (x + 1) + C * C * x * (x - 1)) * 500 // _INTERVAL_STEPS_PER_S


def check_interval(e: QElement) -> None:
    """Raise BudgetExceeded when filling [0, e] from nothing is over budget, in O(1)."""
    def subject() -> str:
        try:
            return f"the interval [0, {e}] of D={e.field.D}"
        except ValueError:  # more digits than Python turns into a string: name e by its x
            return f"the interval [0, alpha] of D={e.field.D} up to an x of {e.a.bit_length()} bits"
    check_budget(subject, _interval_ms(e.field, e), "its recurrence would take about")


def _fold_steps(lines: Sequence[tuple[int, int, range]]) -> list[range]:
    """The slots of the factors 1 + q^(2^k*beta), 2^k*beta in an order ideal I: a range per k and line.

    lines holds (v, first, slots) for every row v of I off 0 (see _lines):
    its cells run over u = first, first + 1, ..., and slots lists their
    slots in that order.  The multiples 2^k*beta of totally positive beta
    are the cells whose two coordinates are divisible by 2^k, as I lies in
    the cone.  So for k >= 1 they lie on the rows whose v is divisible by
    2^k, every 2^k-th cell from the first whose u is: a slice of its range.
    Where I has no such cell for 2^k, it has none for 2^(k+1), and the
    list ends.  The first ranges are the lines themselves.  band_rows folds
    them all, as its product is exact; modulo 2, diagonal_parity needs only
    the cells outside 2O (_parity_steps).
    """
    steps, m = [r for _, _, r in lines], 2
    while multiples := [s for f, l, r in lines if not f % m and (s := r[-l % m :: m])]:
        steps += multiples
        m *= 2
    return steps


def _parity_steps(lines: Sequence[tuple[int, int, range]]) -> list[range]:
    """The slots of diagonal_parity's factors 1 + q^beta: the cells u + v*w of lines (see _fold_steps) with u or v odd.

    All of row v when v is odd; every second cell from the first odd u
    when v is even.
    """
    return [r if v % 2 else r[1 - first % 2 :: 2] for v, first, r in lines]


def _lines(a: int, b: int, rows: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, range]]:
    """The rows (v, first, last) of an ideal as lines of _fold_steps and _parity_steps, the cell (u, v) at slot a*u + b*v."""
    return [(v, first, range(a * first + b * v, a * (last + 1) + b * v, a)) for v, first, last in rows]


def diagonal_parity(field: Field, N: int) -> tuple[int, ...]:
    """p(n) mod 2 for n = 0..N, from the Euler product folded over the order ideal below (N, 0).

    Modulo 2 the generating function of p, the product over totally positive
    beta of 1/(1 - q^beta), is the product of the factors 1 + q^beta over
    the beta = u + v*w with u or v odd, so it needs only shifts and XORs.
    It is one int F whose bit a*x + b*y holds p(x + y*w) mod 2 on the ideal
    I = [0, (N, 0)], and it shares no arithmetic with the recurrence.

    Why the cells outside 2O are enough (Euler's distinct parts, mod 2); all
    products run over totally positive beta:
    - Over GF(2), prod (1 + q^beta) = prod (1 - q^beta).
    - prod (1 + q^beta) * prod (1 - q^beta) = prod (1 - q^(2*beta)).
    - So prod (1 - q^beta)^2 = prod (1 - q^(2*beta)) mod 2.  The left side
      is prod (1 - q^beta) times the right side (the factors on 2*cone)
      times prod_(beta not in 2*cone) (1 - q^beta); cancelling the right
      side, prod 1/(1 - q^beta) = prod_(beta not in 2*cone) (1 - q^beta)
      = prod_(beta not in 2O) (1 + q^beta) mod 2.
    - beta = 2*gamma with gamma in O is totally positive exactly when gamma
      is, so beta is in 2*cone exactly when u and v are both even.
    On the rational integers this is the classical p(n) = the number of
    partitions of n into distinct odd parts (mod 2).

    Why folding only I is exact on I.  Every partition of (n, 0), n <= N,
    has all its parts in I, and I is an order ideal, so the coefficients of
    a product on I read its factors only on I: each XOR step is ANDed with
    the mask of I, and a factor 1 + q^gamma with gamma outside I is 1 on I.
    So the fold takes one step per cell of I with u or v odd (_parity_steps
    lists them from its rows, _RowEdges.rows(N, 0)).  The slot a*x + b*y
    is band_rows' layout at K = max(N, 1): a cell beta != 0 of I has
    x <= N and beta' <= N, so it lies in B(N, N), and _band_layout's proof
    keeps I apart from every cell a step writes (each step still adds one
    part of I) and puts (N, 0) at the top slot a*N.

    Raises BudgetExceeded, before any folding, when the fold is too costly.
    """
    a, b = _band_layout(field, max(N, 1))
    L = a * N + 1  # one past the slot of (N, 0)
    subject = partial("the ideal below ({}, 0) of D={}".format, N, field.D)
    # Every part (u, 0) with u odd, u <= N, lies in I outside 2O, so the fold
    # takes at least ceil(N/2) steps of L bits.
    check_budget(subject, _fold_ms((N + 1) // 2, L), "building it would take at least")
    steps = _parity_steps(lines := _lines(a, b, _RowEdges(field).rows(N, 0)))
    check_budget(subject, _fold_ms(sum(map(len, steps)), L), "its parity product would take about")
    # Character s of bits is bit s of the mask: (0, 0) and the rows of I, whose
    # slots rise by a from >= 1 (_band_layout).
    bits = bytearray(b"1" + b"0" * (L - 1))
    for _, _, r in lines:
        bits[r.start : r.stop : r.step] = b"1" * len(r)
    mask = int(bits[::-1], 2)
    F = 1  # p(0) = 1
    for r in steps:
        for s in r:
            F ^= (F << s) & mask
    # Character i of the reversed binary digits is bit i of F, so (n, 0) is character a*n.
    return tuple(map(int, format(F, f"0{L}b")[::-1][::a]))


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
    check of PartitionGrid._fill; a remainder or a mismatch raises
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
    # Every column holds the cell y = 0, so the recurrence does at least
    # X(X-1)/2 multiply-adds.
    lower = _madds_ms(max_x * (max_x - 1) // 2)
    check_budget(lambda: f"the cone up to x = {max_x}", lower, "building it would take at least")
    fdo, fdx = _floors(field, max_x)
    sizes = [fdo[x] + fdx[x] + 1 for x in range(max_x + 1)]
    ms = _madds_ms(_recurrence_madds(sizes))
    check_budget(lambda: f"the cone up to x = {max_x}", ms, "its recurrence would take about")
    R = euler_transform([0] + sizes[1:])
    nbytes = (((max_x + fdx[max_x]) * R[max_x]).bit_length() + 7) // 8
    B = 8 * nbytes
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
        S0.append(_pack(sig0, nbytes))
        S1.append(_pack(sig1, nbytes))
        T0 = 0
        T1 = 0
        for u in range(1, x + 1):
            g = x - u
            shift = (f - fdo[u] - fdo[g]) * B
            T0 += (S0[u] * C[g]) << shift
            T1 += (S1[u] * C[g]) << shift
        col = []
        t0 = _unpack(T0, sizes[x], nbytes)
        t1 = _unpack(T1, sizes[x], nbytes)
        for y, xp, s1 in zip(range(-f, fdx[x] + 1), t0, t1):
            p, r = divmod(xp, x)
            if r or p < 1 or s1 != (x + y) * p:
                raise DivisibilityViolation(
                    f"coefficient match failed at (x={x}, y={y}): x*p = {xp}"
                )
            col.append(p)
        if sum(col) != R[x]:
            raise InvariantViolation(
                f"column {x} of the cone for D={field.D} sums to {sum(col)}, not R({x}) = {R[x]}"
            )
        cols.append(col)
        C.append(_pack(col, nbytes))
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


def _band_rows(field: Field, X: int, K: int) -> list[tuple[int, int, int]]:
    """(v, first, last) for every row of B(X, K) that holds a cell, v ascending: row v runs over u = first..last.

    The cell beta = u + v*w, w = omega = xi + t, has beta' = u - v*xi, and
    v*xi is irrational for v != 0; each row is cut at u = X.  For v >= 0,
    0 < beta' <= K reads floor(v*xi) < u <= floor(v*xi) + K, and then
    beta > 0.  For v = -n < 0, beta = u - n*xi - n*t > 0 reads u >=
    floor(n*xi) + n*t + 1 and beta' = u + n*xi <= K reads u <=
    K - floor(n*xi) - 1, and then beta' > 0.  So a row is one run of at
    most K cells, and as first grows with |v| and last falls with n, each
    walk stops at its first empty row: one floor a row.
    """
    above, below = [], []
    v, n = 0, 1
    while (f := field.floor_xi_mult(v)) < X:
        above.append((v, f + 1, min(f + K, X)))
        v += 1
    while (first := (f := field.floor_xi_mult(n)) + n * field.t + 1) <= (last := min(K - f - 1, X)):
        below.append((-n, first, last))
        n += 1
    return below[::-1] + above


def _band_layout(field: Field, K: int) -> tuple[int, int]:
    """(a, b) of the slot a*u + b*v of both Euler products: the least a >= 1 with b = 2K - floor(a*xi) < a*omega and gcd(a, b) = 1.

    Why it keeps an ideal apart.  Let I be an order ideal of the cone inside
    B(X, K) and 0 (see band_rows), K >= 1.  The cell beta = u + v*w has
    the conjugate beta' = u - v*xi, so its slot is
    phi = a*u + b*v = a*beta' + v*(a*xi + b), and a*xi + b = 2K + frac(a*xi)
    lies in (2K, 2K + 1), as xi is irrational.
    - phi >= 1 off 0.  phi is an integer.  Where v >= 0, phi >= a*beta' > 0.
      Where v < 0, |v| <= u/omega (the cell is totally positive), so
      phi >= a*u - max(b, 0)*u/omega > 0, as b < a*omega and u >= 1.
    - phi is injective on I and I + I.  Their conjugates lie in [0, 2K].
      phi vanishes on (b, -a), whose conjugate is a*xi + b, and as
      gcd(a, b) = 1 every cell with phi = 0 is a multiple n*(b, -a).  So
      phi1 = phi2 makes the conjugates differ by n*(a*xi + b), more than
      2K unless n = 0, and then the cells are equal.
    So a product truncated to I reads no term from outside I on a slot of I.
    On I = [0, (N, 0)] with K = N, the cell (N, 0) has the top slot a*N:
    every cell of I has u + v*omega <= N and beta' <= N, so for v > 0,
    u <= N - v*omega gives phi <= a*N - v*(a*omega - b) < a*N, and for
    v < 0, phi = a*beta' + v*(a*xi + b) < a*N.

    Every a <= 2K/(xi + omega) = K*den/sqrt(D) has b >= 2K - a*xi >= a*omega,
    so the search starts past that bound; the inequality holds from its
    second a on.
    """
    a = isqrt((field.den * K) ** 2 // field.D) + 1
    while True:
        fx = field.floor_xi_mult(a)
        b = 2 * K - fx
        # b < a*omega = a*xi + a*t, with a*xi irrational.
        if b <= fx + a * field.t and gcd(a, b) == 1:
            return a, b
        a += 1


def _band_ms(field: Field, X: int, K: int, a: int, b: int, bits: int) -> int:
    """Estimated milliseconds of band_rows at a slot width of bits, from X, K and the layout (a, b) alone.

    The band holds about K*X/xi cells, and up to K*(floor(2K/xi) + 1) more
    near its corner u <= K, each with a fixed share of Python work, and
    about 4/3 fold steps per cell, each a shift, a mask and an add of the
    whole int: L slots of bits bits.  A cell has u <= X and v <= X/xi, so
    where b >= 0 its slot a*u + b*v is at most a*X + b*X/xi.  Where b < 0 the
    slot is a*beta' + v*(a*xi + b) with beta' <= K and a*xi + b > 0 (see
    _band_layout), at most a*K + (a*xi + b)*X/xi = a*(K + X) + b*X/xi.
    """
    cells = field.floor_div_xi(K * X) + K * (field.floor_div_xi(2 * K) + 1)
    bx = field.floor_div_xi(b * X) + 1 if b > 0 else -field.floor_div_xi(-b * X)  # >= b*X/xi
    words = (a * (X + (K if b < 0 else 0)) + bx + 1) * bits // 64 + 1
    return cells * 4 * words * 1000 // (3 * _BAND_WORDS_PER_S) + cells * _BAND_CELL_US // 1000


def check_band(field: Field, X: int, K: int, bits: int) -> None:
    """Raise BudgetExceeded when band_rows(field, X, K) at a slot width of bits is over budget, in O(1)."""
    def subject() -> str:
        try:
            return f"the slice band of D={field.D} up to x = {X}"
        except ValueError:  # more digits than Python turns into a string
            return f"the slice band of D={field.D} up to an x of {X.bit_length()} bits"
    check_budget(subject, _band_ms(field, X, K, *_band_layout(field, K), bits), "its Euler product would take about")


def _spread(data: bytes, k: int, n: int) -> int:
    """The slots of k bytes each in data, moved to slots of n >= k bytes, as one int."""
    wide = bytearray(len(data) // k * n)
    for j in range(k):
        wide[j::n] = data[j::k]
    return int.from_bytes(wide, "little")


def _band_fold(steps: Sequence[range], ones: bytes, nb: int, check: Callable[[int], None]) -> tuple[list[int], bytes]:
    """(values, data): the Euler product over the band, one value a slot, folded once from nb-byte slots on.

    steps lists the slots of the factors 1 + q^(2^k*beta) (see _fold_steps),
    and ones holds 1 at slot 0 and at the slots of B, so the mask M keeps
    those.  The top byte of every slot is a guard: every 8 steps F is ANDed
    with the guard mask G, and where a guard bit is set the values are
    spread one byte wider and the fold goes on from the same step.
    check(bits) runs at each new width.  data is F's bytes at its last width.

    Why no slot carries.  Each step F += (F & (M >> s)) << s adds to each
    slot the value of one other slot, so it at most doubles the largest
    slot, and 8 steps multiply it by at most 2^8.  A clear guard byte means
    every slot is below 2^(bits - 8), so the next 8 steps keep every slot
    below 2^bits and none carries.  A set guard bit comes after 8 steps
    without a carry, so the values are still exact, and one byte wider they
    are below the guard again.  p(0) = 1 starts below the guard, so by
    induction the fold is exact at every width it reaches.
    """
    L = len(ones)
    F, bits, G = 1, 0, 0  # p(0) = 1; the masks are set at step 0
    for i, s in enumerate(chain.from_iterable(steps)):
        if not i % 8:
            if F & G:
                check(8 * nb + 8)
                F = _spread(F.to_bytes(L * nb, "little"), nb, nb + 1)
                nb += 1
            if bits != 8 * nb:  # M and G at the new width, from the slots of B
                low = _spread(ones, 1, nb)
                bits, M, G = 8 * nb, low * ((1 << 8 * nb) - 1), low * 255 << 8 * nb - 8
        s *= bits
        # (F << s) & M, masked before the shift: only the terms that land in B.
        F += (F & (M >> s)) << s
    return _unpack(F, L, nb), F.to_bytes(L * nb, "little")


def _band_violation(values: list[int], data: bytes, ones: bytes, rows: Sequence[tuple[int, int, range]]) -> None:
    """Raise DivisibilityViolation at the first cell of the band, by x and then y, that fails the recurrence.

    values and data are _band_fold's, ones and rows band_rows' (v, first,
    slots) for each row.  S0 is the recurrence's sum of sig0(beta) * p(alpha - beta)
    over 0 < beta <= alpha, read from the product of the packed weights and
    the values P, spread from data; a cell fails unless its value p >= 1,
    S0 = x*p and the same sum with sig1 is (x + y)*p.  Each product is
    compared on the slots of B with the packed x*p or (x + y)*p as one int,
    and the cells are walked again only to name a failing one.
    """
    L = len(values)
    G0, G1, T0, T1 = [0] * L, [0] * L, [0] * L, [0] * L
    for v, l, r in rows:
        for u, s in zip(count(l), r):
            p = values[s]
            G0[s], G1[s] = _weights(u, v)
            T0[s], T1[s] = u * p, (u + v) * p
    # Every term is >= 0 (u + v > 0 on the cone), so no slot of either
    # product exceeds the larger weight sum times the largest value; sig1 is
    # below sig0 where v < 0, so both sums are needed.  P is spread from the
    # fold's slots, so it needs at least their width.
    folded = len(data) // L
    nb = max((max(sum(G0), sum(G1)) * max(values)).bit_length() // 8 + 1, folded)
    P = _spread(data, folded, nb)
    M = _spread(ones, 1, nb) * ((1 << 8 * nb) - 1)
    S0, S1 = _pack(G0, nb) * P, _pack(G1, nb) * P
    low = min(map(values.__getitem__, chain.from_iterable(r for _, _, r in rows)), default=1)
    if low >= 1 and S0 & M == _pack(T0, nb) and S1 & M == _pack(T1, nb):
        return
    S0, S1 = _unpack(S0, L, nb), _unpack(S1, L, nb)
    for u, v, s in sorted((u, v, s) for v, l, r in rows for u, s in zip(count(l), r)):
        if values[s] < 1 or S0[s] != T0[s] or S1[s] != T1[s]:
            raise DivisibilityViolation(f"coefficient match failed at (x={u}, y={v}): x*p = {S0[s]}")


def band_rows(field: Field, X: int, K: int) -> dict[int, tuple[int, list[int]]]:
    """{v: (first, values)}: p(u + v*w) on the band B(X, K), row v holding u = first, first + 1, ...

    B(X, K) = {beta >> 0 : x(beta) <= X, beta' <= K}, for an integer K >= 1,
    where beta = u + v*w has the conjugate beta' = u - v*xi.  Row v holds
    its cells with conjugate in (0, K] (see _band_rows), only the rows that
    hold one are keys, and p(0) = 1 is in none.  The search's slice box lies
    in rows 0..y_max of B(ceil(y_max*xi) + k_max, k_max + 1), as the cell
    (k, y) has its conjugate in (k, k + 1).

    B is an order ideal: if beta - gamma >> 0, that difference has x >= 1
    (every totally positive element has) and a positive conjugate, so gamma
    has a smaller x and a smaller conjugate than beta.  The cell (u, v)
    sits at slot a*u + b*v (_band_layout, whose docstring proves that the
    slots of B are >= 1 and keep B and B + B apart).

    The product.  1/(1 - q^beta) is the product of the factors
    1 + q^(2^k*beta), k >= 0.  From F = 1, each factor with 2^k*beta in B
    is one shift, one mask and one add of F, and the mask keeps the slots of
    B and slot 0; a factor with 2^k*beta outside B is 1 on B.  Truncating to
    B commutes with the products, as the cells outside an order ideal are
    closed under adding cone elements, and by the layout's injectivity no
    term of a product lands on the slot of another cell.  _fold_steps lists
    these factors from the band's rows.  Every chain is needed here: the
    product is exact, so diagonal_parity's mod-2 identity does not apply.

    The slot width.  The fold starts at two-byte slots, one value byte under
    a guard byte, and _band_fold widens them a byte at a time, in place,
    whenever a guard bit is set; its docstring proves that no slot carries,
    so every band folds once.

    The certificate.  Every cell is still checked against the recurrence
    (see _band_violation), by arithmetic the fold does not share: the
    weights sig0 and sig1 over B and the values are packed into slots wide
    enough for any sum, and in the products G0*P and G1*P each cell alpha
    must read x*p(alpha) and (x + y)*p(alpha), with p(alpha) >= 1.  By the
    injectivity the slot of alpha in G0*P is the recurrence's sum over
    0 < beta <= alpha, so by induction on x every value that passes is p.  A
    failure raises DivisibilityViolation naming the first failing cell.

    Raises BudgetExceeded before any O(X) work, and again at each wider
    slot, when the estimated cost is over budget.
    """
    rows, certify = _band_product(field, X, K)
    certify()
    return rows


def _band_product(field: Field, X: int, K: int) -> tuple[dict[int, tuple[int, list[int]]], Callable[[], None]]:
    """(rows, certify): band_rows' rows before its certificate, and the certificate.

    The fold and every check_band call of band_rows run here, at the same
    widths, so a band is refused with the same message whoever reads it.
    certify() runs _band_violation on the fold.  Until it has run nothing in
    rows is proved, so a reader that skips it checks what it read against a
    certified band: search.find_ymax reads its corners here, and search_m
    checks y_max against the certified column 0 of its box.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    check = partial(check_band, field, X, K)
    nb = 2  # one value byte under the guard byte
    check(8 * nb)
    a, b = _band_layout(field, K)
    rows = _lines(a, b, _band_rows(field, X, K))
    ones = bytearray(max((r[-1] for _, _, r in rows), default=0) + 1)  # slot 0 and the slots of B
    for s in chain((0,), *(r for _, _, r in rows)):
        ones[s] = 1
    values, data = _band_fold(_fold_steps(rows), ones, nb, check)
    certify = partial(_band_violation, values, data, ones, rows)
    return {v: (first, values[r.start : r.stop : a]) for v, first, r in rows}, certify


def euler_transform(c: Sequence[int]) -> list[int]:
    """P(0..T), T = len(c) - 1, the coefficients of prod_{k>=1} (1 - q^k)^(-c[k]).

    Taking the logarithmic derivative gives n * P(n) = sum_{m<n} w(n - m) * P(m)
    with w(k) = sum_{d | k} d * c[d], which a divisor sieve adds up: d * c[d]
    to w(d), w(2d), ...  c[0] is ignored, and c[k] < 0 for a k >= 1 raises
    ValueError.  Every division is checked and a remainder raises
    DivisibilityViolation.

    The sum runs in blocks of _EULER_BLOCK coefficients; a tail of fewer
    than half a block joins the block before it.  A packs, nb bytes a slot,
    S(n) = sum_{m < lo} w(n - m) * P(m) for every n not yet reached, where
    lo is the first m of the block.  The first block has lo = 0 and reads
    no A, so a transform with T < 24 is one plain loop.  Inside a block each
    n adds the terms of lo <= m < n to S(n), the low slot of A, one by one.
    After the block P(lo..n1-1), the block identity

        S'(n) = S(n) + sum_{lo <= m < n1} w(n - m) * P(m),   n >= n1,

    is one product: W, the slots w(1..T-lo), times the block packed has at
    slot e the sum of w(e + 1 - i) * P(lo + i), the terms of n = lo + e + 1.
    Shifted down n1 - lo - 1 slots, it is added to A shifted down past the
    block, and a mask keeps the T + 1 - n1 slots of n1..T.

    Why it is exact.  With every c[k] >= 0, every w(k) and P(m) is >= 0.
    Every slot, of A or of a block product, is a sum of terms w(k) * P(m)
    with distinct k, so it is at most sum(w) * max P < 2^(8*nb), with nb
    checked after each block against the max of the P computed, and A and
    W spread to wider slots, their exact values moved, when it grows.  So
    no slot carries into the next, and the shifts, the masks and the low
    slots read every slot exactly.  The slots the shifts drop belong to n
    inside the block, whose terms from the block its own loop has added.
    """
    T = len(c) - 1
    w = [0] * T  # w(1..T); empty for T <= 0
    for d in range(1, T + 1):
        if (v := d * c[d]) < 0:
            raise ValueError(f"euler_transform needs every c[k] >= 0, got c[{d}] = {c[d]}")
        for k in range(d - 1, T, d):
            w[k] += v
    total = sum(w)
    P, lo, top, nb, A, W, S = [1], 0, 1, 0, 0, 0, 0
    for n0 in range(1, T + 1, _EULER_BLOCK):
        # A tail of fewer than half a block joins the block before it.
        n1 = n0 + _EULER_BLOCK if T + 1 - n0 >= 3 * _EULER_BLOCK // 2 else T + 1
        blk = P[lo:]  # P(lo..n-1): P(0) in the first block
        bits = 8 * nb
        m = (1 << bits) - 1
        for n in range(n0, n1):
            q, r = divmod(sum(map(mul, w, reversed(blk)), S & m), n)
            if r:
                raise DivisibilityViolation(f"Euler transform division failed at n={n}")
            P.append(q)
            blk.append(q)
            S >>= bits
        rest = T + 1 - n1  # the slots still to come, n1..T
        if not rest:
            break
        top = max(top, *blk)
        W &= (1 << (T - lo) * bits) - 1  # w(1..T-lo), all a block product reads
        if (need := (total * top).bit_length() // 8 + 1) > nb:
            if nb:
                A = _spread(A.to_bytes((T + 1 - n0) * nb, "little"), nb, need)
                W = _spread(W.to_bytes((T - lo) * nb, "little"), nb, need)
            else:
                W = _pack(w, need)
            nb = need
        bits = 8 * nb
        A = (A >> (n1 - n0) * bits) + (W * _pack(blk, nb) >> (n1 - lo - 1) * bits)
        A &= (1 << rest * bits) - 1
        S = A & ((1 << 2 * _EULER_BLOCK * bits) - 1)  # the next block's slots
        lo = n1
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
