"""Continued fractions, convergents, units and indecomposables.

The driver is the purely periodic continued fraction of
sigma = omega + floor(xi).  Its convergents give the fundamental unit eps,
the smallest totally positive unit eps_plus, and the complete list of
additively indecomposable totally positive elements (up to multiplication
by eps_plus and conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InvariantViolation
from .field import Field, QElement

__all__ = ["FieldContext", "expand_sigma", "build_context", "floor_ratio_eps"]


def expand_sigma(field: Field) -> tuple[int, ...]:
    """One period of the continued fraction of sigma = omega + floor(xi).

    sigma is reduced (sigma > 1 > sigma conj > -1 in absolute value terms),
    so the expansion is purely periodic and the state (P, Q) returns to its
    initial value exactly at the period boundary.
    """
    D = field.D
    if field.one_mod4:
        P0, Q0 = 2 * field.floor_xi() + 1, 2
    else:
        P0, Q0 = isqrt(D), 1
    r = isqrt(D)
    period: list[int] = []
    P, Q = P0, Q0
    while True:
        a = (P + r) // Q
        period.append(a)
        P = a * Q - P
        num = D - P * P
        if num % Q:
            raise InvariantViolation(f"state (P={P}, Q={Q}) left the orbit for D={D}")
        Q = num // Q
        if (P, Q) == (P0, Q0):
            return tuple(period)


@dataclass(frozen=True)
class FieldContext:
    """Everything the continued fraction of sigma determines about the field.

    convergents[j] is (p_i, q_i) for i = j - 1, starting at i = -1 and ending
    at i = 2s where s is the period length; alphas holds the corresponding
    p_i + q_i * xi as ring elements.
    """

    field: Field
    period: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    alphas: tuple[QElement, ...]
    indecomposables: tuple[QElement, ...]
    eps: QElement
    eps_plus: QElement


def build_context(field: Field) -> FieldContext:
    period = expand_sigma(field)
    s = len(period)

    ps = [1, (period[0] + 1) // 2]
    qs = [0, 1]
    for i in range(1, 2 * s + 1):
        u = period[i % s]
        ps.append(u * ps[-1] + ps[-2])
        qs.append(u * qs[-1] + qs[-2])

    xi = field.xi()
    alphas = tuple(field.element(p) + q * xi for p, q in zip(ps, qs))

    eps = alphas[s]  # alpha_{s-1}
    if eps.norm() not in (1, -1):
        raise InvariantViolation(f"alpha_(s-1) is not a unit for D={field.D}")
    eps_plus = eps if s % 2 == 0 else alphas[2 * s]  # alpha_{2s-1} when s is odd
    if eps_plus.norm() != 1 or not eps_plus.is_totally_positive():
        raise InvariantViolation(f"eps_plus is not a totally positive unit for D={field.D}")

    # One eps_plus-period of indecomposables: alpha_{i,r} = alpha_i + r*alpha_{i+1}
    # for odd i, 0 <= r < u_{i+2}.  The shift alpha_{i+s} = eps*alpha_i preserves
    # the parity of i when s is even, so odd i in [-1, s-3] suffices there; for
    # odd s one eps^2-period needs odd i in [-1, 2s-3].
    top = s - 3 if s % 2 == 0 else 2 * s - 3
    seen: dict[QElement, None] = {}
    for i in range(-1, top + 1, 2):
        a_i = alphas[i + 1]
        a_next = alphas[i + 2]
        u = period[(i + 2) % s]
        for r in range(u):
            seen.setdefault(a_i + r * a_next)
    indecomposables = tuple(seen)

    return FieldContext(
        field=field,
        period=period,
        convergents=tuple(zip(ps, qs)),
        alphas=alphas,
        indecomposables=indecomposables,
        eps=eps,
        eps_plus=eps_plus,
    )


def floor_ratio_eps(ctx: FieldContext) -> int:
    """floor(eps_plus / (xi + omega)), exactly.

    With eps_plus = (A + B*sqrt(D))/den and xi + omega = C*sqrt(D), the product
    den*C equals 2 in both congruence classes, so the value is
    floor((A*sqrt(D) + B*D) / (2*D)) and floor(A*sqrt(D)) = isqrt(A^2*D).
    """
    A, B, _den = ctx.eps_plus.sqrt_coords()
    D = ctx.field.D
    return (isqrt(A * A * D) + B * D) // (2 * D)
