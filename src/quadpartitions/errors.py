"""Exceptions shared across the package, and the cost budget that raises BudgetExceeded."""


class DivisibilityViolation(ArithmeticError):
    """An exact division required by a recurrence failed.

    The coefficient-matching step of the partition recurrence divides exactly
    when the implementation is correct, so this exception always signals a bug
    rather than bad input.
    """


class BudgetExceeded(RuntimeError):
    """A run over its cost budget.

    Raised when the brute-force enumerator exhausts its node budget, and,
    before any work starts, when building the cone up to a column (grid
    --view xy), parity's fold over the ideal below (N, 0), the Euler
    product over a slice band (search, dm, grid --view ky and the slice
    documents of verify) or the interval [0, alpha] of a point count
    (PartitionGrid.count: search, dm, witness, estimate --compare and
    verify) is estimated to take longer than BUDGET_MS.  A band is
    estimated again before each wider fold, and search prices a band inside
    its box before any count.  Before any of these, a D whose squarefree
    test is estimated over BUDGET_MS, and a field whose convergents
    build_context bounds above its memory limit, are refused.  dm --Dmax
    is refused before it lists a field when the fewest fields its scan can
    hold, each at the cheapest search, would take longer than BUDGET_MS.
    units and indecomposables raise it, before they format anything, when
    an int they would print has more digits than Python turns into a
    string.  The CLI exits with code 4.
    """


# The longest estimated run, in milliseconds on a 2-core host with Python
# 3.11, that is started: two minutes.  The rates behind each estimate are
# next to the estimate (partition, field, search).
BUDGET_MS = 120_000


def check_budget(subject: str, ms: int, what: str) -> None:
    """Raise BudgetExceeded when ms, what's estimate for subject, is over budget."""
    if ms > BUDGET_MS:
        secs = -(-ms // 1000)  # rounded up, so it always reads above the budget
        # Beyond 1e300 no float holds secs.
        about = secs if secs < 10**6 else f"{secs:.1e}" if secs < 10**300 else "over 1e+300"
        raise BudgetExceeded(
            f"{subject} is over the cost budget: {what} {about} s, "
            f"more than {BUDGET_MS // 1000} s"
        )


class InvariantViolation(AssertionError):
    """A structural invariant that should hold unconditionally was violated."""
