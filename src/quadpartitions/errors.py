"""Exceptions shared across the package."""


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
    verify) is estimated to take longer than the partition module's budget.
    A band is estimated again before each wider fold.  units and
    indecomposables raise it, before they format anything, when an int they
    would print has more digits than Python turns into a string.  The CLI
    exits with code 4.
    """


class InvariantViolation(AssertionError):
    """A structural invariant that should hold unconditionally was violated."""
