"""Search for every element with a prescribed number of partitions.

Elements are classified up to conjugation and multiplication by the totally
positive fundamental unit.  Each class has exactly one representative in the
fundamental domain

    x >= 1,  y >= 0,  alpha / conj(alpha) <= eps_plus  (tested exactly),

and a correctness lemma confines all representatives with p(alpha) <= m to
the finite slice alpha = (ceil(y*xi) + k) + y*omega with 0 <= k <= k_max,
0 <= y <= y_max, where p(k_max) >= m and the slice corner at y_max already
has p >= m with y_max >= floor(eps_plus / (xi + omega)).

How the box is filled.  k_max is counted by a PartitionGrid on the
rational integers n0, n0 + 1, ..., where n0 <= k_max is the least n whose
trace sum P(n) (parity.cumulative_P) reaches m.  Every other count comes
from the Euler product over a thin band (partition.band_rows).  slice_rows
reads the whole box from the one band B(ceil(y_max*xi) + k_max, k_max + 1),
certified cell by cell by the recurrence, whose row y >= 1 is slice row y.
find_ymax reads each corner (0, y) as the one cell of row y of a band with
K = 1, from partition's fold without its certificate, and search_m checks
the y_max it finds against column 0 of the certified box, which holds the
same corners: each slice is certified once.  Each interval and each band
is estimated before any O(X) work and refused with BudgetExceeded when
over budget; before the first count of k_max, search_m also prices
find_ymax's first band and a band inside the box (see _price_search), and
dm_scan prices every field of a scan before it searches any.
"""

from __future__ import annotations

import os
from math import isqrt
from typing import NamedTuple

from .contfrac import FieldContext, build_context, floor_ratio_eps
from .errors import InvariantViolation, check_budget
from .field import Field, QElement, is_squarefree
from .parity import cumulative_P
from .partition import PartitionGrid, _band_product, band_rows, check_band, check_interval, p_rational

__all__ = [
    "SearchReport",
    "slice_element",
    "in_fundamental_domain",
    "fundamental_representative",
    "find_kmax",
    "find_ymax",
    "slice_rows",
    "search_m",
    "dm_scan",
    "check_scan",
    "worker_count",
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


def _trace_bound(field: Field, m: int) -> int:
    """n0, the least n >= 1 with P(n) >= m, so that k_max >= n0 (see find_kmax)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    N = 1
    while (P := cumulative_P(field, N))[N] < m:
        check_interval(field.element(N + 1))
        N *= 2
    return next(n for n in range(1, N + 1) if P[n] >= m)


def _count_up(grid: PartitionGrid, m: int, n: int) -> int:
    """The least n' >= n with p(n') >= m, counted one rational integer at a time."""
    while grid.count(grid.field.element(n)) < m:
        n += 1
    return n


def find_kmax(grid: PartitionGrid, m: int) -> int:
    """Smallest n >= 1 with p(n) >= m.

    p(n) <= P(n), the sum of p over all alpha of trace 2n
    (parity.cumulative_P), so k_max >= n0, the least n with P(n) >= m.  The
    counts run from n0 up, each filling one more column, so together they
    fill [0, k_max] as counts from n = 1 would, and the first whose interval
    is over budget refuses, where counts from n = 1 would refuse too.  N
    doubles until P(N) >= m; while P(N) < m, k_max > N, so an interval
    [0, N + 1] over budget is refused before the next transform, and a
    hopeless m costs a few short transforms.
    """
    return _count_up(grid, m, _trace_bound(grid.field, m))


def find_ymax(ctx: FieldContext, m: int) -> int:
    """Smallest y >= floor(eps_plus/(xi+omega)) whose slice corner has p >= m.

    The corners (0, y), 1 <= y <= top, are the cells of rows 1..top of the
    band B(ceil(top*xi), 1): the cell u + y*w with conjugate in (0, 1] is
    u = ceil(y*xi).  The scan reads them from y0 = floor(eps_plus/(xi + omega))
    on, one such band at a time, and doubles the corners a band holds
    until one has p >= m: the first band holds y0 and y0 + 1, the corner
    that most often settles the scan where eps_plus is large.

    The corners are read from partition's fold without its certificate, so
    the y returned is not proved here: search_m checks it against column 0
    of its box, whose band is certified and holds the corners y0..y_max.

    The first corner is never (0, 0), which is not totally positive:
    y0 >= 1 for every field.  Write eps_plus = (A + B*sqrt(D))/den with
    A, B >= 1 (eps_plus > 1 > eps_plus' > 0).  For D = 2, 3 (mod 4),
    den = 1, A^2 - D*B^2 = 1 and xi + omega = 2*sqrt(D), so
    eps_plus > 2B*sqrt(D) >= xi + omega.  For D = 1 (mod 4), den = 2,
    A^2 - D*B^2 = 4 and xi + omega = sqrt(D), so eps_plus > B*sqrt(D) >=
    xi + omega.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    field = ctx.field
    y0 = y = floor_ratio_eps(ctx)
    n = 2
    while True:
        top = y0 + n - 1
        corners, _ = _band_product(field, field.ceil_xi_mult(top), 1)
        for y in range(y, top + 1):
            if corners[y][1][0] >= m:
                return y
        y = top + 1
        n *= 2


class SearchReport(NamedTuple):
    field: Field
    m_max: int
    k_max: int
    y_max: int
    slice_counts: tuple[tuple[int, ...], ...]  # rows y = 0..y_max, cols k = 0..k_max
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


def _price_search(ctx: FieldContext, m_max: int) -> int:
    """n0 of find_kmax, after every check search_m makes before its first count.

    The doubling that finds n0 refuses a hopeless m from an interval's
    estimate.  Then find_ymax's first band, B(ceil((y0 + 1)*xi), 1), is
    priced at its first width, and a band inside the box's band
    B(ceil(y_max*xi) + k_max, k_max + 1) at a width that fold reaches.  As
    k_max >= n0, the box's band contains B(ceil(y*xi) + n0, n0 + 1) for
    y <= y_max, and its cell (k_max, 0) holds p >= m_max, so its slots end at
    whole bytes of at least bitlen(m_max) bits, and at least 16.  y_max >= y0,
    and y_max > (n0 - 2)/(xi + omega), where xi + omega = 2*sqrt(D)/den: the
    rational N = floor(c) + 1 lies above the corner c = (0, y_max) <
    y_max*(xi + omega) + 1, so p(N) >= p(c) >= m_max and N >= k_max >= n0.
    """
    field = ctx.field
    n0 = _trace_bound(field, m_max)
    y0 = floor_ratio_eps(ctx)
    check_band(field, field.ceil_xi_mult(y0 + 1), 1, 16)
    y = max(y0, isqrt(((n0 - 2) * field.den) ** 2 // (4 * field.D)) + 1)
    check_band(field, field.ceil_xi_mult(y) + n0, n0 + 1, 8 * max(2, -(-m_max.bit_length() // 8)))
    return n0


def search_m(ctx: FieldContext, m_max: int) -> SearchReport:
    """Classify every element with p(alpha) <= m_max, up to units and conjugation.

    Before any count every check of _price_search runs.  Then k_max is
    counted from n0, find_ymax finds y_max, and slice_rows reads the box
    from one certified band.

    y_max is certified by its definition.  find_ymax read the corners
    (0, y0..y_max) uncertified, and they are column 0 of the box, so each
    must read p < m_max below y_max and p >= m_max at y_max; otherwise
    InvariantViolation names D and the corner.

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
    return _search(ctx, m_max, _price_search(ctx, m_max))


def _search(ctx: FieldContext, m_max: int, n0: int) -> SearchReport:
    """search_m from n0, once _price_search has run."""
    field = ctx.field
    k_max = _count_up(PartitionGrid(field), m_max, n0)
    y_max = find_ymax(ctx, m_max)
    rows = slice_rows(field, k_max, y_max)
    for y in range(floor_ratio_eps(ctx), y_max + 1):
        if (rows[y][0] >= m_max) != (y == y_max):
            raise InvariantViolation(
                f"find_ymax gave y_max = {y_max} for D={field.D} at m = {m_max}, "
                f"but the certified corner (0, {y}) has p = {rows[y][0]}"
            )
    reps: dict[int, list[QElement]] = {}
    for y, row in enumerate(rows):
        inside = False
        for k, p in enumerate(row):
            if p > m_max:
                break
            alpha = slice_element(field, k, y)
            inside = inside or in_fundamental_domain(alpha, ctx)
            if inside:
                reps.setdefault(p, []).append(alpha)

    representatives = {
        m: tuple(sorted(found, key=lambda e: e.lex_key)) for m, found in sorted(reps.items())
    }
    return SearchReport(
        field=field,
        m_max=m_max,
        k_max=k_max,
        y_max=y_max,
        slice_counts=rows,
        representatives=representatives,
    )


def _misses(args: tuple[FieldContext, int, int]) -> tuple[int, bool]:
    """(D, missing) of _search(ctx, m, n0): all a pool worker sends back."""
    ctx, m, n0 = args
    return ctx.field.D, _search(ctx, m, n0).missing()


def worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Worker processes for a scan: never more than jobs, tasks or cpus."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, tasks, cpus)


def dm_scan(m: int, D_values: list[int] | tuple[int, ...], jobs: int = 1) -> tuple[int, ...]:
    """The subset of D_values whose field has no element with exactly m partitions.

    Every Field is built first, so Field alone raises ValueError for a D
    that is not squarefree and >= 2, before any work.  Then every field, by
    increasing D, runs the checks search_m makes before its first count
    (_price_search), and only then is any field searched, so a scan that
    some field's band or interval refuses is refused at once.
    Each field is then searched from the context and n0 it was priced with,
    by _misses, in this process or in a pool's worker alike.
    """
    fields = [Field(D) for D in sorted(D_values)]
    priced = [(ctx, m, _price_search(ctx, m)) for ctx in map(build_context, fields)]
    workers = worker_count(jobs, len(priced), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it loads multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_misses, priced))
    else:
        results = list(map(_misses, priced))
    return tuple(D for D, missing in results if missing)


# Microseconds that search_m takes at the least on one field, on a 2-core
# host with Python 3.11.  At m = 1 the five cheapest of the squarefree
# D < 1000 with D = 5 (mod 7) took 126-185 us over three rounds (D = 110,
# 285, 957, 138, 915, best of 5; fields with floor(eps_plus/(xi + omega))
# >= 70 were not timed), and the cheapest squarefree D < 40 104-123 us
# (D = 15, 3, best of 7); larger m cost more, the cheapest D < 40 taking
# 141-158, 207-228 and 236-260 us at m = 2, 3 and 5.  The rate is well below
# them all.
_SEARCH_US = 50


def check_scan(m: int, D_max: int) -> None:
    """Raise BudgetExceeded when a dm scan of every squarefree D <= D_max is sure to run over budget.

    At most sum_p D_max/p^2 < 0.453*D_max of 1..D_max are divisible by a
    prime square, so from D_max = 21 on the scan holds at least D_max/2
    fields.  A scan that finishes runs search_m at m on each of them, and
    none takes less than the cheapest search at m = 1.  Nothing is listed:
    the estimate is O(1).
    """
    if D_max >= 21:
        check_budget(
            lambda: f"the dm scan of the squarefree D <= {D_max} at m = {m}",
            D_max // 2 * _SEARCH_US // 1000,
            "its searches would take at least",
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
