"""Continued fractions, convergents, units and indecomposables.

The driver is the purely periodic continued fraction of
sigma = omega + floor(xi).  Its convergents (p_i, q_i) give the elements
alpha_i = p_i + q_i*xi: the fundamental unit eps, the smallest totally
positive unit eps_plus, and, through indecomposables(ctx), the complete list
of additively indecomposable totally positive elements (up to multiplication
by eps_plus and conjugation).

Every loop here runs on integer pairs.  xi = w - t (see Field), so
alpha_i = (p_i - t*q_i) + q_i*w in the basis (1, w); a QElement is made only
for a value a caller reads.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import isqrt
from typing import NamedTuple

from .errors import BudgetExceeded, InvariantViolation
from .field import Field, QElement

__all__ = [
    "FieldContext",
    "expand_sigma",
    "build_context",
    "indecomposables",
    "floor_ratio_eps",
    "coordinate_bound",
]


# The most bytes that build_context's convergents may take by the bound of
# _convergent_bits, which is 1.26-2.5 times their size over the squarefree
# D < 3000: D = 1000000007 (period 12,352) is bounded at 164 MB, takes
# 131 MB and peaks at 153 MB RSS.
_CONTEXT_BYTES = 256 << 20
# Every partial quotient adds at least a bit to the bound of each later p and
# q, so a period of s > _MAX_PERIOD bounds them at more than 4*s^2 bits, over
# _CONTEXT_BYTES.
_MAX_PERIOD = isqrt(8 * _CONTEXT_BYTES) // 2


def expand_sigma(field: Field) -> tuple[int, ...]:
    """One period of the continued fraction of sigma = omega + floor(xi).

    sigma is reduced (sigma > 1 > sigma conj > -1 in absolute value terms),
    so the expansion is purely periodic and the state (P, Q) returns to its
    initial value exactly at the period boundary.  sigma = (P0 + sqrt(D))/Q0
    with P0 = t + den*floor(xi) and Q0 = den.  Raises BudgetExceeded once the
    period is longer than _MAX_PERIOD, whose convergents build_context refuses.
    """
    D = field.D
    P0, Q0 = field.t + field.den * field.floor_xi(), field.den
    r = isqrt(D)
    period: list[int] = []
    P, Q = P0, Q0
    for _ in range(_MAX_PERIOD):
        a = (P + r) // Q
        period.append(a)
        P = a * Q - P
        num = D - P * P
        if num % Q:
            raise InvariantViolation(f"state (P={P}, Q={Q}) left the orbit for D={D}")
        Q = num // Q
        if (P, Q) == (P0, Q0):
            return tuple(period)
    raise BudgetExceeded(
        f"the convergents of D={D} are over the cost budget: its period is longer than "
        f"{_MAX_PERIOD}, so they would take more than {_CONTEXT_BYTES >> 20} MB"
    )


def _convergent_bits(period: tuple[int, ...]) -> int:
    """An upper bound on the bits of the 2s + 2 convergents of build_context, from the period alone.

    p_i and q_i never fall as i grows, so p_i = u*p_(i-1) + p_(i-2) is at
    most (u + 1)*p_(i-1), and likewise q_i, from p_(-1) = 1, q_(-1) = 0 and
    p_0 <= u_0 + 1, q_0 = 1.  So both are at most the product of u_j + 1 over
    j <= i, and u + 1 <= 2^bitlen(u): each has at most
    1 + sum of bitlen(u_j) over j <= i bits.
    """
    bits = list(map(int.bit_length, period))
    # The bounds of p_i, and of q_i, for i = -1..2s with u_i = period[i % s].
    return 2 * sum(accumulate(chain(bits, bits, bits[:1]), initial=1))


class FieldContext(NamedTuple):
    """What the commands read of the continued fraction of sigma.

    convergents[j] is (p_i, q_i) for i = j - 1, starting at i = -1 and ending
    at i = 2s where s is the period length.  eps = alpha_{s-1}, and eps_plus
    is eps for even s and alpha_{2s-1} = eps^2 for odd s.  The indecomposables
    come from the same convergents through indecomposables(ctx).
    """

    field: Field
    period: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    eps: QElement
    eps_plus: QElement


def build_context(field: Field) -> FieldContext:
    """The context of field; raises BudgetExceeded, before any convergent, when they would take more than _CONTEXT_BYTES."""
    period = expand_sigma(field)
    s = len(period)
    size = _convergent_bits(period) // 8
    if size > _CONTEXT_BYTES:
        raise BudgetExceeded(
            f"the convergents of D={field.D} are over the cost budget: they would take up to "
            f"{-(-size >> 20)} MB, more than {_CONTEXT_BYTES >> 20} MB"
        )

    ps = [1, (period[0] + 1) // 2]
    qs = [0, 1]
    for i in range(1, 2 * s + 1):
        u = period[i % s]
        ps.append(u * ps[-1] + ps[-2])
        qs.append(u * qs[-1] + qs[-2])

    eps = QElement(field, ps[s] - field.t * qs[s], qs[s])  # alpha_{s-1}
    if eps.norm() not in (1, -1):
        raise InvariantViolation(f"alpha_(s-1) is not a unit for D={field.D}")
    if s % 2 == 0:
        eps_plus = eps
    else:
        eps_plus = QElement(field, ps[2 * s] - field.t * qs[2 * s], qs[2 * s])  # alpha_{2s-1}
    if eps_plus.norm() != 1 or not eps_plus.is_totally_positive():
        raise InvariantViolation(f"eps_plus is not a totally positive unit for D={field.D}")

    return FieldContext(
        field=field,
        period=period,
        convergents=tuple(zip(ps, qs)),
        eps=eps,
        eps_plus=eps_plus,
    )


def indecomposables(ctx: FieldContext) -> tuple[QElement, ...]:
    """The indecomposables of one eps_plus-period, in the order they are first met.

    They are alpha_{i,r} = alpha_i + r*alpha_{i+1} for odd i, 0 <= r < u_{i+2}.
    The shift alpha_{i+s} = eps*alpha_i preserves the parity of i when s is
    even, so odd i in [-1, s-3] suffices there; for odd s one eps^2-period
    needs odd i in [-1, 2s-3].  The sums are formed and deduplicated as
    integer pairs in the basis (1, w).

    Every printed int (a, b and the sqrt coordinates den*a + t*b and b,
    which bound their reduced form) is nonnegative and nondecreasing in
    this order, so the last element, alpha_(e+1) - alpha_e for eps_plus =
    alpha_(e+1), e + 1 = s - 1 or 2s - 1, holds the largest of each.
    Each element is the one before plus alpha_(i+1): so
    is alpha_(i,r+1), and alpha_(i+2,0) = alpha_(i,u-1) + alpha_(i+1) as
    alpha_(i+2) = u*alpha_(i+1) + alpha_i, u = u_(i+2).  Every alpha_j,
    j >= -1, has b = q_j >= 0 and a = p_j - t*q_j >= p_j - q_j >= 0, by
    induction: p_(-1) - q_(-1) = 1, p_0 - q_0 = (u_0 + 1)//2 - 1 >= 0, and
    p_j - q_j = u_j*(p_(j-1) - q_(j-1)) + (p_(j-2) - q_(j-2)).  So each step
    adds ints >= 0 to each printed int.
    """
    period = ctx.period
    s = len(period)
    top = s - 3 if s % 2 == 0 else 2 * s - 3
    t = ctx.field.t
    alphas = [(p - t * q, q) for p, q in ctx.convergents[: top + 3]]
    seen: dict[tuple[int, int], None] = {}
    for i in range(-1, top + 1, 2):
        a0, b0 = alphas[i + 1]
        a1, b1 = alphas[i + 2]
        for r in range(period[(i + 2) % s]):
            seen[a0 + r * a1, b0 + r * b1] = None
    return tuple(QElement(ctx.field, a, b) for a, b in seen)


def floor_ratio_eps(ctx: FieldContext) -> int:
    """floor(eps_plus / (xi + omega)), exactly.

    With eps_plus = (A + B*sqrt(D))/den and xi + omega = C*sqrt(D), the product
    den*C equals 2 in both congruence classes, so the value is
    floor((A*sqrt(D) + B*D) / (2*D)) and floor(A*sqrt(D)) = isqrt(A^2*D).
    """
    A, B, _den = ctx.eps_plus.sqrt_coords()
    D = ctx.field.D
    return (isqrt(A * A * D) + B * D) // (2 * D)


def coordinate_bound(ctx: FieldContext) -> int:
    """2*max(p, q) of the last convergent: no int that units or indecomposables print for ctx is larger.

    p_i and q_i start at (1, 0) and ((u_0 + 1)/2, 1) and grow with i, as every
    partial quotient is >= 1, so M = max(p, q) of the last convergent, i = 2s,
    bounds them all.  An element (p - t*q) + q*w with 0 <= p, q <= M, as eps
    and eps_plus are, has coordinates, and sqrt coordinates (den*p - t*q, q),
    of size at most 2M.  So has every indecomposable: alpha_i + r*alpha_(i+1)
    with r < u_(i+2) is such an element, p = p_i + r*p_(i+1) <= p_(i+2) and
    likewise q, for i + 2 <= 2s - 1.  floor_ratio_eps is at most
    (p + q*xi)/(2*xi + t) <= p + q/2, as 2*xi + t >= 1, for eps_plus's p and q.
    """
    return 2 * max(ctx.convergents[-1])
