"""Search for every element with a prescribed number of partitions.

Elements are classified up to conjugation and multiplication by the totally
positive fundamental unit.  Each class has exactly one representative in the
fundamental domain

    x >= 1,  y >= 0,  alpha / conj(alpha) <= eps_plus  (tested exactly),

and a correctness lemma confines all representatives with p(alpha) <= m to
the finite slice alpha = (ceil(y*xi) + k) + y*omega with 0 <= k <= k_max,
0 <= y <= y_max, where p(k_max) >= m and the slice corner at y_max already
has p >= m with y_max >= floor(eps_plus / (xi + omega)).

How the bounds are found.  One walk finds k_max and y_max for every
search (_walk_bounds): a partition.PartitionGrid capped at m counts
min(p, m + 1) cell by cell, by the recurrence on the cell's parts while
they are at most 2m - 2, and reads k_max from row 0 and y_max from the
corners y0, y0 + 1, ..., y0 = floor(eps_plus/(xi + omega)).

How the box is read.  classify_m walks on, reading only the cells with
p <= m and the first cell past them, for every format of search but json,
for dm and for verify's representatives, so a heavy box costs
milliseconds where its fold costs seconds.  search_m reads every cell,
for search --format json, which prints the slice matrix: slice_rows reads
the whole box from the one band B(ceil(y_max*xi) + k_max, k_max + 1) of
partition.band_rows, certified cell by cell by the recurrence, whose row
y >= 1 is slice row y, and search_m checks the walk's k_max and y_max
against row 0 and column 0 of that box.

Each interval and each band is estimated before any O(X) work and refused
with BudgetExceeded when over budget; before the walk, search_m and
classify_m run the checks of _price_search, and dm_scan prices every
field of a scan before it walks any.  The walk is charged for the rows it
lists.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from typing import Iterable, NamedTuple

from .contfrac import FieldContext, build_context, floor_ratio_eps
from .errors import InvariantViolation, check_budget
from .field import Field, QElement, is_squarefree
from .parity import cumulative_P
from .partition import PartitionGrid, band_rows, check_band, check_interval, p_rational

__all__ = [
    "SearchReport",
    "slice_element",
    "in_fundamental_domain",
    "fundamental_representative",
    "slice_rows",
    "search_m",
    "classify_m",
    "dm_scan",
    "check_scan",
    "exhaustive_scan_range",
    "en_fn_bounds",
    "witness_m4",
    "witness_m6",
]

# The paper settles D(p(n)) for n <= _COMPLETE_N; raising it needs the slice
# lemma and the E_n/F_n collapse proved for the new n first.
_COMPLETE_N = 6


def slice_element(field: Field, k: int, y: int) -> QElement:
    """(ceil(y*xi) + k) + y*omega; totally positive whenever (k, y) != (0, 0)."""
    if k < 0 or y < 0:
        raise ValueError(f"slice offsets must be >= 0, got k={k}, y={y}")
    return QElement(field, field.ceil_xi_mult(y) + k, y)


def in_fundamental_domain(e: QElement, ctx: FieldContext) -> bool:
    """x >= 1, y >= 0 and alpha <= eps_plus * conj(alpha), all exact."""
    if e.a < 1 or e.b < 0:
        return False
    return (ctx.eps_plus * e.conjugate() - e).sign() >= 0


def fundamental_representative(e: QElement, ctx: FieldContext) -> QElement:
    """The unique domain element equivalent to e up to units and conjugation.

    Take a = e or e', so that a >= a'.  Then a/a' = a^2/Nm(a) < Tr(e)^2, as
    Nm(a) >= 1 and a < Tr(e).  Each pass outside the domain divides a/a' by
    eps_plus^2 >= ((3+sqrt5)/2)^2 > 4, so at most bit_length(Tr(e)) + 1
    passes reach it; a loop that runs out means eps_plus is no unit > 1.
    """
    if not e.is_totally_positive():
        raise ValueError(f"need a totally positive element, got {e!r}")
    inv = ctx.eps_plus.conjugate()  # norm 1, so the conjugate is the inverse
    a = e
    for _ in range(e.trace().bit_length() + 3):
        if a.b < 0:
            a = a.conjugate()
        if in_fundamental_domain(a, ctx):
            return a
        a = a * inv
    raise InvariantViolation(f"{e!r} did not reach the fundamental domain")


class SearchReport(NamedTuple):
    field: Field
    m_max: int
    k_max: int
    y_max: int
    slice_counts: tuple[tuple[int, ...], ...]  # rows y = 0..y_max, cols k = 0..k_max; () from classify_m
    # m -> lex-sorted domain reps, for each m <= m_max that some element has
    representatives: dict[int, tuple[QElement, ...]]

    def missing(self) -> bool:
        """True when no element at all has exactly m_max partitions."""
        return self.m_max not in self.representatives


def slice_rows(field: Field, k_max: int, y_max: int) -> tuple[tuple[int, ...], ...]:
    """p on the slice box: rows y = 0..y_max, columns k = 0..k_max.

    Cell (k, y) is (ceil(y*xi) + k) + y*w, whose conjugate lies in
    (k, k + 1) (it is k at y = 0), so slice row y >= 1 is row y of the band
    B(ceil(y_max*xi) + k_max, k_max + 1), from ceil(y*xi) over k_max + 1
    cells, and one band_rows fills the box.  The band's row 0 starts at x = 1,
    after the corner (0, 0), which is not totally positive and reads p(0) = 1.
    """
    band = band_rows(field, field.ceil_xi_mult(y_max) + k_max, k_max + 1)
    row0 = (1, *band[0][1][:k_max]) if k_max else (1,)
    return (row0,) + tuple(tuple(band[y][1]) for y in range(1, y_max + 1))


def _price_search(ctx: FieldContext, m_max: int) -> None:
    """Every check search_m and classify_m make before their first count.

    n0 is the least n >= 1 with P(n) >= m_max, P(n) the sum of p over all
    alpha of trace 2n (parity.cumulative_P), so k_max >= n0 as p(n) <= P(n).
    N doubles until P(N) >= m_max.  While P(N) < m_max, k_max > N, so the
    box's band holds the interval [0, N + 1], whose cells have x and
    conjugate at most N + 1; one over budget is refused before the next
    transform, and a hopeless m costs a few short transforms.

    Then two bands are priced.  The corner band B(ceil((y0 + 1)*xi), 1),
    y0 = floor(eps_plus/(xi + omega)), is priced at 16 bits: no search
    folds it, and it stays as the O(1) guard that refuses at once, by that
    band's line, a field whose y0 is far too large (D = 73, 97, ...).  And
    a band inside the box's band B(ceil(y_max*xi) + k_max, k_max + 1) is
    priced at a width that fold reaches.  As k_max >= n0, the box's band
    contains B(ceil(y*xi) + n0, n0 + 1) for y <= y_max, and its cell
    (k_max, 0) holds p >= m_max, so its slots end at whole bytes of at least
    bitlen(m_max) bits, and at least 16.  y_max >= y0, and
    y_max > (n0 - 2)/(xi + omega), where xi + omega = 2*sqrt(D)/den: the
    rational N = floor(c) + 1 lies above the corner c = (0, y_max) <
    y_max*(xi + omega) + 1, so p(N) >= p(c) >= m_max and N >= k_max >= n0.
    """
    if m_max < 1:
        raise ValueError(f"m must be >= 1, got {m_max}")
    field = ctx.field
    N = 1
    while (P := cumulative_P(field, N))[N] < m_max:
        check_interval(field.element(N + 1))
        N *= 2
    n0 = next(n for n in range(1, N + 1) if P[n] >= m_max)
    y0 = floor_ratio_eps(ctx)
    check_band(field, field.ceil_xi_mult(y0 + 1), 1, 16)
    y = max(y0, isqrt(((n0 - 2) * field.den) ** 2 // (4 * field.D)) + 1)
    check_band(field, field.ceil_xi_mult(y) + n0, n0 + 1, 8 * max(2, -(-m_max.bit_length() // 8)))


def _walk_bounds(ctx: FieldContext, m_max: int) -> tuple[PartitionGrid, int, int]:
    """(grid, k_max, y_max): the slice box's bounds, read by a walk capped at m_max, once _price_search has run.

    The walk reads min(p, m_max + 1) of each cell from a
    partition.PartitionGrid capped at m_max, charged before it starts for
    y0 + 1 slice rows, y0 = floor(eps_plus/(xi + omega)), each of which
    lists about 2*m_max rows at the cap and no more than the y0 + 1 rows of
    its corner's interval.  k_max is the first k >= 1 of row 0 with p >= m_max, within
    m_max + 1 cells as p rises by at least 1 at each step of a slice row
    (see search_m), and y_max is the first corner (0, y), y >= y0, with
    p >= m_max, read a corner at a time.

    The first corner is never (0, 0), which is not totally positive:
    y0 >= 1 for every field.  Write eps_plus = (A + B*sqrt(D))/den with
    A, B >= 1 (eps_plus > 1 > eps_plus' > 0).  For D = 2, 3 (mod 4),
    den = 1, A^2 - D*B^2 = 1 and xi + omega = 2*sqrt(D), so
    eps_plus > 2B*sqrt(D) >= xi + omega.  For D = 1 (mod 4), den = 2,
    A^2 - D*B^2 = 4 and xi + omega = sqrt(D), so eps_plus > B*sqrt(D) >=
    xi + omega.
    """
    field = ctx.field
    y0 = floor_ratio_eps(ctx)
    grid = PartitionGrid(field)
    grid.cap(m_max, (y0 + 1) * min(2 * m_max, y0 + 1))
    k_max = 1
    while grid.cell(k_max, 0) < m_max:
        k_max += 1
    y_max = y0
    while grid.cell(field.ceil_xi_mult(y_max), y_max) < m_max:
        y_max += 1
    return grid, k_max, y_max


def search_m(ctx: FieldContext, m_max: int) -> SearchReport:
    """Classify every element with p(alpha) <= m_max, up to units and conjugation.

    Before any count every check of _price_search runs.  Then the walk of
    classify_m finds k_max and y_max (_walk_bounds), and slice_rows reads
    the box from one certified band.

    Both bounds are certified by their definitions, against the box: row 0
    must read p < m_max at k = 1..k_max - 1 and p >= m_max at k_max, and
    column 0, the corners (0, y0..y_max), p < m_max below y_max and
    p >= m_max at y_max; otherwise InvariantViolation names D, m_max and
    the cell.

    Each row is classified up to its first p > m_max, and tested for the
    fundamental domain only up to its first cell inside it:
    - p is nondecreasing along a slice row.  The cell (k + 1, y) is
      (k, y) + 1, and for alpha >> 0 adding a part 1 to each partition of
      alpha gives distinct partitions of alpha + 1, none of them the one
      part alpha + 1, so p(alpha + 1) >= p(alpha) + 1; on row 0,
      p(0) = p(1) = 1.
    - Membership is monotone in k.  Along row y the x = ceil(y*xi) + k
      grows, y is fixed, and with alpha = alpha0 + k the exact test reads
      eps_plus*alpha' - alpha = (eps_plus - 1)*k + c(y), c(y) =
      eps_plus*alpha0' - alpha0, which grows with k as eps_plus > 1.
    """
    _price_search(ctx, m_max)
    field = ctx.field
    _, k_max, y_max = _walk_bounds(ctx, m_max)
    rows = slice_rows(field, k_max, y_max)
    bounds = [(k, 0, k == k_max) for k in range(1, k_max + 1)]
    bounds += [(0, y, y == y_max) for y in range(floor_ratio_eps(ctx), y_max + 1)]
    for k, y, last in bounds:
        if (rows[y][k] >= m_max) != last:
            raise InvariantViolation(
                f"the walk gave k_max = {k_max} and y_max = {y_max} for D={field.D} at m = {m_max}, "
                f"but the certified cell ({k}, {y}) has p = {rows[y][k]}"
            )
    classes = _classes(ctx, m_max, ((y, field.ceil_xi_mult(y), row) for y, row in enumerate(rows)))
    return SearchReport(field, m_max, k_max, y_max, rows, classes)


def _classes(ctx: FieldContext, m_max: int, rows: Iterable[tuple[int, int, Iterable[int]]]) -> dict[int, tuple[QElement, ...]]:
    """m -> the lex-sorted representatives with p = m <= m_max, from rows (y, x, counts).

    counts holds p(x + y*w), p(x + 1 + y*w), ..., and is read up to its first
    p > m_max, each cell tested for the fundamental domain up to the first
    inside it (search_m's docstring proves both stops).
    """
    reps: dict[int, list[QElement]] = {}
    for y, x, counts in rows:
        inside = False
        for u, p in enumerate(counts, x):
            if p > m_max:
                break
            alpha = QElement(ctx.field, u, y)
            inside = inside or in_fundamental_domain(alpha, ctx)
            if inside:
                reps.setdefault(p, []).append(alpha)
    return {m: tuple(sorted(found, key=lambda e: e.lex_key)) for m, found in sorted(reps.items())}


def classify_m(ctx: FieldContext, m_max: int) -> SearchReport:
    """search_m's report without the slice matrix, from a walk capped at m_max.

    Before any count every check of _price_search runs.  The walk finds
    k_max and y_max (_walk_bounds), and then reads each slice row 0..y_max
    up to its first p > m_max, tested for the fundamental domain up to its
    first cell inside it, as search_m reads its box (its docstring proves
    both).  No cell past column k_max is lost: (k, y) is (k_max, y) plus
    the rational integer k - k_max, and p(k_max, y) >= p(k_max) >= m_max,
    so p(k, y) > m_max.
    """
    _price_search(ctx, m_max)
    return _classify(ctx, m_max)


def _classify(ctx: FieldContext, m_max: int) -> SearchReport:
    """classify_m once _price_search has run."""
    field = ctx.field
    grid, k_max, y_max = _walk_bounds(ctx, m_max)
    # Row 0 starts at x = 1: (0, 0) is not totally positive.
    starts = [(y, field.ceil_xi_mult(y) or 1) for y in range(y_max + 1)]
    rows = ((y, x, map(grid.cell, range(x, x + k_max + (y > 0)), repeat(y))) for y, x in starts)
    return SearchReport(field, m_max, k_max, y_max, (), _classes(ctx, m_max, rows))


def dm_scan(m: int, D_values: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The subset of D_values whose field has no element with exactly m partitions.

    Every Field is built first, so Field alone raises ValueError for a D
    that is not squarefree and >= 2, before any work.  Then every field's
    context is built and, by increasing D, runs the checks classify_m makes
    before its first count (_price_search), and only then is any field
    walked, so a scan that some field's band or interval refuses is refused
    at once.  Each field is then walked from the context it was priced
    with, by _classify (classify_m without its price).
    """
    fields = [Field(D) for D in sorted(D_values)]
    priced = list(map(build_context, fields))
    for ctx in priced:
        _price_search(ctx, m)
    return tuple(ctx.field.D for ctx in priced if _classify(ctx, m).missing())


# Microseconds that dm takes at the least on one field, on a 2-core host
# with Python 3.11: its Field, its context, _price_search and the walk of
# classify_m.  At m = 1 the cheapest of the squarefree D < 1000 with
# floor(eps_plus/(xi + omega)) < 70 took 56-63 us over three rounds (D = 15,
# 35, 3, 255, 323, 399, best of 25), the price and the walk alone 37-43 us
# of it; larger m cost more, the cheapest D < 40 taking 110, 170 and 239 us
# at m = 2, 3 and 5 for the price and the walk alone.  The rate is below
# them all.
_SEARCH_US = 50


def check_scan(m: int, D_max: int) -> None:
    """Raise BudgetExceeded when a dm scan of every squarefree D <= D_max is sure to run over budget.

    At most sum_p D_max/p^2 < 0.453*D_max of 1..D_max are divisible by a
    prime square, so from D_max = 21 on the scan holds at least D_max/2
    fields.  A scan that finishes builds each of them and its context and
    walks it at m (classify_m), and none takes less than the cheapest field
    at m = 1.  Nothing is listed: the estimate is O(1).
    """
    if D_max >= 21:
        check_budget(
            lambda: f"the dm scan of the squarefree D <= {D_max} at m = {m}",
            D_max // 2 * _SEARCH_US // 1000,
            "its searches would take",
            least=True,
        )


def exhaustive_scan_range(m: int) -> tuple[int, ...]:
    """Squarefree D whose membership of m is not settled by the threshold bounds.

    For any other squarefree D, p(n) = m is attained at the rational integer n
    with p(n) = m, so scanning this finite set determines D(m) completely.
    Raises unless m = p_rational(n) for some n <= _COMPLETE_N.
    """
    n = next((n for n in range(1, _COMPLETE_N + 1) if p_rational(n) == m), None)
    if n is None:
        raise ValueError(f"no exhaustive scan range known for m={m}")
    e_bound, f_bound = en_fn_bounds(n)
    out = [D for D in range(2, e_bound + 1) if is_squarefree(D) and D % 4 != 1]
    out += [D for D in range(2, f_bound + 1) if is_squarefree(D) and D % 4 == 1]
    return tuple(sorted(out))


def en_fn_bounds(n: int) -> tuple[int, int]:
    """(E_n, F_n): thresholds beyond which p(n) collapses to the rational value."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    e_n = (n // 2) ** 2
    f_n = (n - 1) ** 2 if n % 2 == 0 else n * n
    return e_n, f_n


def witness_m4(field: Field, grid: PartitionGrid) -> tuple[QElement, int]:
    """(ceil(xi) + 2) + omega has exactly 4 partitions, for every field."""
    alpha = slice_element(field, 2, 1)
    count = grid.count(alpha)
    if count != 4:
        raise InvariantViolation(f"expected 4 partitions at {alpha}, got {count}")
    return alpha, count


def witness_m6(field: Field, grid: PartitionGrid) -> tuple[QElement, int, str]:
    """(ceil(2*xi) + 2) + 2*omega has 6 or 9 partitions, by an exact gap test.

    The count is 6 when ceil(xi) - xi > 1/2 and 9 when it is < 1/2 (equality
    cannot occur).  D = 5 is excluded from the dichotomy: the same element has
    10 partitions there, and the branch is reported as "excluded".
    """
    if field.D == 5:
        expected, branch = 10, "excluded"
    else:
        # ceil(xi) - xi vs 1/2 becomes sign(2*ceil(xi) - 1 - 2*xi).
        s = (field.element(2 * (field.floor_xi() + 1) - 1) - 2 * field.xi()).sign()
        if s == 0:
            raise InvariantViolation(f"ceil(xi) - xi equals 1/2 for D={field.D}")
        expected, branch = (6, "wide-gap") if s > 0 else (9, "narrow-gap")
    alpha = slice_element(field, 2, 2)
    count = grid.count(alpha)
    if count != expected:
        raise InvariantViolation(f"expected {expected} partitions at {alpha}, got {count}")
    return alpha, count, branch
