"""Brute-force partition enumeration, independent of the recurrence.

Partitions are produced as tuples of parts in non-increasing lex order, by
recursive descent over the interval of each remainder.  One walker serves
both entry points: enumerate_partitions collects what it yields and
count_partitions counts it.  The walker counts the nodes it visits and
raises BudgetExceeded past DEFAULT_BUDGET of them, read at each call, so
that runaway inputs fail fast instead of hanging.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceeded
from .field import QElement
from .partition import enumerate_interval

__all__ = ["enumerate_partitions", "count_partitions"]

DEFAULT_BUDGET = 10_000_000


def _candidates(remaining: QElement) -> list[QElement]:
    # Descending lex, so partitions come out in non-increasing part order.
    return sorted(enumerate_interval(remaining), key=lambda e: e.lex_key, reverse=True)


def _partitions(alpha: QElement) -> Iterator[tuple[QElement, ...]]:
    """Yield each partition of alpha once, as a tuple of non-increasing parts."""
    if not alpha.is_totally_positive():
        raise ValueError(f"can only partition totally positive elements, got {alpha!r}")
    left = budget = DEFAULT_BUDGET

    def walk(remaining: QElement, bound: tuple[int, int], prefix: list[QElement]):
        nonlocal left
        left -= 1
        if left < 0:
            raise BudgetExceeded(
                f"the partitions of {alpha} of D={alpha.field.D} are over the cost budget: "
                f"listing them visits more than {budget} nodes"
            )
        for beta in _candidates(remaining):
            if beta.lex_key > bound:
                continue
            prefix.append(beta)
            rest = remaining - beta
            if rest.a == 0 and rest.b == 0:
                yield tuple(prefix)
            else:
                yield from walk(rest, beta.lex_key, prefix)
            prefix.pop()

    yield from walk(alpha, alpha.lex_key, [])


def enumerate_partitions(alpha: QElement) -> list[tuple[QElement, ...]]:
    """All partitions of alpha into totally positive parts.

    Each partition is a tuple sorted by non-increasing lex key; the list of
    partitions is itself lex-sorted and duplicate-free by construction.
    """
    return list(_partitions(alpha))


def count_partitions(alpha: QElement) -> int:
    """len(enumerate_partitions(alpha)) without keeping the partitions."""
    return sum(1 for _ in _partitions(alpha))
