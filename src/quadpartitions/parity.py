"""Trace-layer counts and the parity of cumulative partition numbers.

P(n) sums p(alpha) over all totally positive alpha of trace 2n, with
P(0) = 1.  Writing a_n for the number of such alpha, every a_n is odd for
D = 2, 3 (mod 4) and P satisfies the exact recurrence

    n * P(n) = sum_{k=1..n} ( sum_{d | k} d * a_d ) * P(n - k),

the Euler transform of (a_n) that partition.euler_transform computes.

Conjugation pairs off every non-rational term of P(n), so P(n) = p(n)
(mod 2) where p(n) counts the partitions of the rational integer n in the
field; the recurrence therefore pins the parity of p(n) itself.  For
D = 1 (mod 4) elements of odd trace exist, so the same Euler product
argument is run on the full trace layers c_t instead (the same helper on
c_1..c_2N); the resulting P(n) = Q(2n) still equals the direct sum over
even traces.

parity_check confirms the congruence by comparing P(n) mod 2 with p(n) mod 2
read from whole-window columns at (n, 0).  The command line passes the
columns of partition.cone_parity, which expands the Euler product modulo 2,
so the two sides of the congruence come from independent algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .errors import InvariantViolation
from .field import Field
from .partition import euler_transform

__all__ = [
    "ParityProfile",
    "ParityReport",
    "count_trace",
    "trace_layer_count",
    "cumulative_P",
    "parity_check",
]


def count_trace(field: Field, n: int) -> int:
    """a_n: the number of totally positive elements of trace 2n.

    Closed form 2*floor(n/sqrt(D)) + 1: the elements of trace 2n are
    n + t*sqrt(D), and exactly those with |t| <= floor(n/sqrt(D)) are totally
    positive.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2 * isqrt(n * n // field.D) + 1


def trace_layer_count(field: Field, t: int) -> int:
    """Number of totally positive elements of trace exactly t (any parity)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not field.one_mod4:
        return 0 if t % 2 else count_trace(field, t // 2)
    # Elements of trace t are (t + B*sqrt(D))/2 with B = t (mod 2), and total
    # positivity is exactly |B| <= floor(t/sqrt(D)).
    f = isqrt(t * t // field.D)
    if t % 2 == 0:
        return 2 * (f // 2) + 1
    return 2 * ((f + 1) // 2)


@dataclass(frozen=True)
class ParityProfile:
    field: Field
    N: int
    a: tuple[int, ...]  # a_1 .. a_N
    P: tuple[int, ...]  # P(0) .. P(N)

    @property
    def parity_bits(self) -> tuple[int, ...]:
        return tuple(v % 2 for v in self.P)


def cumulative_P(field: Field, N: int) -> ParityProfile:
    """P(0..N) through the exact divisor-weighted recurrence (euler_transform).

    For D = 1 (mod 4) the transform runs over the trace layers c_t, t <= 2N,
    and P(n) = Q(2n) is every second entry.  Otherwise only even traces
    occur, so it runs over (0, a_1..a_N) directly: the trace-layer path would
    give the same values from twice as many terms, at four times the cost.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    a = tuple(count_trace(field, n) for n in range(1, N + 1))
    if field.one_mod4:
        c = [0] + [trace_layer_count(field, t) for t in range(1, 2 * N + 1)]
        P = euler_transform(c)[::2]
    else:
        P = euler_transform((0,) + a)
    return ParityProfile(field=field, N=N, a=a, P=tuple(P))


@dataclass(frozen=True)
class ParityReport:
    profile: ParityProfile
    p_parity: tuple[int, ...]  # p(n) mod 2 for n = 0..N
    odd_count: int
    even_count: int

    @property
    def congruent(self) -> bool:
        return self.profile.parity_bits == self.p_parity


def parity_check(field: Field, N: int, columns: Sequence[Sequence[int]]) -> ParityReport:
    """Confirm P(n) = p(n) (mod 2) for n <= N.

    P(n) comes from the trace-layer recurrence; p(n) mod 2 is read at the
    rational integers (n, 0), index floor(n/omega) of column n, from columns
    in the shape of cone_columns up to x = N.  From cone_parity that is the
    Euler product modulo 2, an algorithm independent of both recurrences;
    from cone_columns it is the exact count.  Any disagreement raises
    InvariantViolation.
    """
    profile = cumulative_P(field, N)
    P_bits = profile.parity_bits
    p_par = tuple(columns[n][field.floor_div_omega(n)] % 2 for n in range(N + 1))
    offenders = [n for n in range(N + 1) if P_bits[n] != p_par[n]]
    if offenders:
        raise InvariantViolation(
            f"P and p disagree mod 2 for D={field.D} at n in {offenders}"
        )
    odd = sum(p_par[1:])
    return ParityReport(
        profile=profile,
        p_parity=p_par,
        odd_count=odd,
        even_count=N - odd,
    )
