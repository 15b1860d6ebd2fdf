"""Trace-layer counts and the parity of cumulative partition numbers.

P(n) sums p(alpha) over all totally positive alpha of trace 2n, with
P(0) = 1.  Writing a_n = trace_layer_count(field, 2n) for the number of
such alpha, every a_n is odd for D = 2, 3 (mod 4) and P satisfies the
exact recurrence

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
for n <= N.  The command line passes partition.diagonal_parity, which
expands the Euler product modulo 2 below (N, 0) as the product of
1 + q^beta over the parts beta = u + v*w with u or v odd, so the two sides
of the congruence come from independent algorithms.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Sequence

from .errors import InvariantViolation
from .field import Field
from .partition import euler_transform

__all__ = [
    "ParityReport",
    "trace_layer_count",
    "cumulative_P",
    "parity_check",
]


def trace_layer_count(field: Field, t: int) -> int:
    """Number of totally positive elements of trace exactly t (any parity).

    For D = 2, 3 (mod 4) the elements of trace t = 2n are n + s*sqrt(D), and
    exactly those with |s| <= floor(n/sqrt(D)) are totally positive, so the
    count is 2*floor(n/sqrt(D)) + 1; odd traces do not occur.  For D = 1
    (mod 4) the elements of trace t are (t + B*sqrt(D))/2 with B = t (mod 2),
    totally positive exactly when |B| <= floor(t/sqrt(D)).  At t = 2n this
    gives a_n too: B = 2s, and floor(floor(2n/sqrt(D))/2) = floor(n/sqrt(D)).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not field.one_mod4:
        return 0 if t % 2 else 2 * isqrt((t // 2) ** 2 // field.D) + 1
    f = isqrt(t * t // field.D)
    if t % 2 == 0:
        return 2 * (f // 2) + 1
    return 2 * ((f + 1) // 2)


def _trace_layers(field: Field, N: int) -> list[int]:
    """The counts the transform for P(0..N) runs on: [0, c_1..c_2N] or [0, a_1..a_N].

    They are the layers of the traces t <= 2N in steps of 2 // den: every
    layer c_t for D = 1 (mod 4), where den = 2.  Otherwise only even traces
    occur, so the layers are (0, a_1..a_N) directly: every trace would give
    the same values from twice as many terms, at about three times the cost.
    """
    step = 2 // field.den
    return [0] + [trace_layer_count(field, t) for t in range(step, 2 * N + 1, step)]


def cumulative_P(
    field: Field, N: int, layers: Sequence[int] | None = None
) -> tuple[int, ...]:
    """P(0..N) through the exact divisor-weighted recurrence (euler_transform).

    layers is _trace_layers(field, N), passed by a caller that has it already.
    For D = 1 (mod 4) P(n) = Q(2n) is every second entry of the transform,
    so P is read with stride den.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    P = euler_transform(_trace_layers(field, N) if layers is None else layers)
    return tuple(P[::field.den])


class ParityReport(NamedTuple):
    a: tuple[int, ...]  # a_1 .. a_N
    P: tuple[int, ...]  # P(0) .. P(N)
    p_parity: tuple[int, ...]  # p(n) mod 2 for n = 0..N


def parity_check(field: Field, N: int, diagonal: Sequence[int]) -> ParityReport:
    """Confirm P(n) = p(n) (mod 2) for n <= N.

    P(n) comes from the trace-layer recurrence; diagonal holds p(n) at the
    rational integers (n, 0) for n = 0..N, or p(n) mod 2, and is reduced mod
    2 here.  From diagonal_parity that is the Euler product modulo 2, one
    factor 1 + q^beta per part beta outside 2O, an algorithm independent of
    both recurrences; read off cone_columns it is the exact count.  Any
    disagreement raises InvariantViolation, so a returned report always has
    P = p (mod 2).
    """
    layers = _trace_layers(field, N)
    P = cumulative_P(field, N, layers)
    p_par = tuple(diagonal[n] % 2 for n in range(N + 1))
    offenders = [n for n in range(N + 1) if P[n] % 2 != p_par[n]]
    if offenders:
        raise InvariantViolation(
            f"P and p disagree mod 2 for D={field.D} at n in {offenders}"
        )
    a = layers[field.den::field.den]  # a_n = c_2n, layer 2n at index den*n
    return ParityReport(a=tuple(a), P=P, p_parity=p_par)
