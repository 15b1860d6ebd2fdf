"""Exceptions shared across the package, and the cost budget that raises BudgetExceeded."""

from typing import Callable


class DivisibilityViolation(ArithmeticError):
    """An exact division required by a recurrence failed.

    The coefficient-matching step of the partition recurrence divides exactly
    when the implementation is correct, so this exception always signals a bug
    rather than bad input.
    """


class BudgetExceeded(RuntimeError):
    """A run over its cost budget.  The CLI exits with code 4.

    check_budget, the one reader of BUDGET_MS, raises it before any work
    whose estimate is over the budget: building the cone up to a column
    (grid --view xy), parity's fold over the ideal below (N, 0), the Euler
    product over a slice band (search --format json, grid --view ky and the
    slice documents of verify), estimated again before each wider fold and
    priced by search and dm inside the box before any count, the one
    kernel of PartitionGrid under its two budgets (capped at m, the walk
    of every search, dm and verify's representatives, charged for the rows
    it lists and again as it lists more; exact, the interval [0, alpha] of
    a point count for witness, estimate --compare and verify's units
    corner, priced by check_interval, which search and dm also ask about
    the intervals [0, N + 1] before any count), the squarefree test of D,
    and a dm --Dmax scan of the fewest fields it can hold, each at the
    cheapest field.  It is also raised by the brute-force enumerator out of nodes,
    by build_context for convergents over its memory limit, by search for a
    table of more than 2^19 rows, and by units, indecomposables and
    estimate, before they format anything, for an int with more digits than
    Python turns into a string.
    """


# The longest estimated run, in milliseconds on a 2-core host with Python
# 3.11, that is started: two minutes.  The rates behind each estimate are
# next to the estimate (partition, field, search).
BUDGET_MS = 120_000


def check_budget(subject: Callable[[], str], ms: int, what: str, least: bool = False) -> None:
    """Raise BudgetExceeded when ms, what's estimate for subject(), is over budget; subject() runs only then.

    what ends in a verb such as "would take"; the line reads "about" the
    estimate, or "at least" it where least says it is a lower bound.
    """
    if ms > BUDGET_MS:
        secs = -(-ms // 1000)  # rounded up, so it always reads above the budget
        # Beyond 1e300 no float holds secs.
        qualifier = "at least" if least else "about"
        about = f"{qualifier} {secs if secs < 10**6 else f'{secs:.1e}'}" if secs < 10**300 else "over 1e+300"
        raise BudgetExceeded(
            f"{subject()} is over the cost budget: {what} {about} s, "
            f"more than {BUDGET_MS // 1000} s"
        )


class InvariantViolation(AssertionError):
    """A structural invariant that should hold unconditionally was violated."""
