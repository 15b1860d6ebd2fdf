"""Exact arithmetic and order relations in the ring of integers of Q(sqrt(D)).

Elements are stored in the integral basis (1, w) where w = sqrt(D) for
D = 2, 3 (mod 4) and w = (1 + sqrt(D))/2 for D = 1 (mod 4).  Every sign,
ordering, and floor decision reduces to integer comparisons of the shape
A^2 vs B^2 * D, so this module involves no floating point at all.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt

from .errors import check_budget

__all__ = ["Field", "QElement", "is_squarefree"]


# Trial divisions per second of is_squarefree: 1.4e7-1.7e7 for n of 67 to
# 133 bits on a 2-core host with Python 3.11, the other core busy.  At the
# lower 1e7, D is refused from about 1.4e28, whose test would take 70-86 s.
_DIVISIONS_PER_S = 10_000_000


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // 3)
    while (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


def is_squarefree(n: int) -> bool:
    """Whether no prime square divides n, by trial division up to c = floor(n^(1/3)).

    Each factor d <= c found is divided out of the cofactor r, so a second d
    means d^2 | n.  Every prime factor of the final r is above c, so its cube
    is above n >= r, and r has at most two: it is squarefree unless it is a
    prime's square.  Raises BudgetExceeded, before any division, when the
    divisions are estimated to take longer than the budget.
    """
    if n < 1:
        return False
    c = _icbrt(n)
    check_budget(lambda: f"the squarefree test of D={n}", c // 2 * 1000 // _DIVISIONS_PER_S, "its trial divisions would take")
    r = n
    for d in chain((2,), range(3, c + 1, 2)):
        if r % d == 0:
            r //= d
            if r % d == 0:
                return False
    return r == 1 or isqrt(r) ** 2 != r


def _sign_of_surd(A: int, B: int, D: int) -> int:
    """Sign of A + B*sqrt(D) by integer comparisons only.

    A^2 == B^2 * D is impossible for B != 0 because D >= 2 is squarefree,
    so sqrt(D) is irrational and the comparison always resolves.
    """
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0 or (A > 0) == (B > 0):
        return 1 if B > 0 else -1
    lhs, rhs = A * A, B * B * D
    if lhs == rhs:
        raise ArithmeticError(f"sqrt({D}) behaved rationally; D is not squarefree")
    if A > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _read_only(self, name: str, *_: object) -> None:
    """__setattr__ and __delattr__ of the value classes: every attribute is fixed at construction."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name}")


class Field:
    """A real quadratic field Q(sqrt(D)) with D >= 2 squarefree.

    The congruence class of D is fixed once, as three integers: t = 1 for
    D = 1 (mod 4) and t = 0 otherwise, den = 1 + t and c = (D - t)/den^2.
    Then w = (t + sqrt(D))/den, w^2 = t*w + c, conj(w) = t - w and
    xi = w - t, and every formula below is one formula in (t, den, c).

    An immutable value: equality and hashing read D alone, hash((D,)), and
    pickle and copy rebuild a Field from D.
    """

    __slots__ = ("D", "t", "den", "c", "one_mod4")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, D: int) -> None:
        if not isinstance(D, int) or isinstance(D, bool) or D < 2:
            raise ValueError(f"D must be an integer >= 2, got {D!r}")
        if not is_squarefree(D):
            raise ValueError(f"D must be squarefree, got {D}")
        t = 1 if D % 4 == 1 else 0
        init = object.__setattr__
        init(self, "D", D)
        init(self, "t", t)
        init(self, "den", 1 + t)
        init(self, "c", (D - t) // (1 + t) ** 2)
        init(self, "one_mod4", t == 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Field:
            return NotImplemented
        return self.D == other.D

    def __hash__(self) -> int:
        return hash((self.D,))

    def __repr__(self) -> str:
        return f"Field(D={self.D!r})"

    def __reduce__(self) -> tuple:
        return Field, (self.D,)

    @property
    def discriminant(self) -> int:
        return 4 * self.D // self.den**2

    # ----- constructors -------------------------------------------------

    def element(self, a: int, b: int = 0) -> QElement:
        return QElement(self, a, b)

    def omega(self) -> QElement:
        return QElement(self, 0, 1)

    def xi(self) -> QElement:
        """xi = -conj(omega) = w - t: sqrt(D), or (sqrt(D) - 1)/2 when D = 1 mod 4."""
        return QElement(self, -self.t, 1)

    def from_sqrt(self, c0: int, c1: int) -> QElement:
        """The element c0 + c1*sqrt(D); sqrt(D) = den*w - t."""
        return QElement(self, c0 - self.t * c1, self.den * c1)

    def from_half_sqrt(self, num0: int, num1: int) -> QElement:
        """The element (num0 + num1*sqrt(D))/2 = (a2 + b2*w)/2, which must be integral."""
        a2, b2 = num0 - self.t * num1, self.den * num1
        if a2 % 2 or b2 % 2:
            raise ValueError(f"({num0}+{num1}*sqrt({self.D}))/2 is not integral")
        return QElement(self, a2 // 2, b2 // 2)

    # ----- exact floors ---------------------------------------------------
    # floor(y*sqrt(D)) = isqrt(y^2*D) and floor(x/n) = floor(floor(x)/n) for
    # integer n >= 1; both identities are used repeatedly below.  All the
    # quantities floored here are irrational for nonzero arguments, so the
    # matching ceilings are floor + 1.

    def floor_xi(self) -> int:
        return (isqrt(self.D) - self.t) // self.den

    def floor_xi_mult(self, y: int) -> int:
        """floor(y * xi) for y >= 0."""
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        return (isqrt(y * y * self.D) - self.t * y) // self.den

    def ceil_xi_mult(self, y: int) -> int:
        """ceil(y * xi) for y >= 0; equals floor + 1 except at y = 0."""
        return 0 if y == 0 else self.floor_xi_mult(y) + 1

    def floor_div_xi(self, u: int) -> int:
        """floor(u / xi) for u >= 0, as u/xi = v*(sqrt(D) + t)/(D - t) with v = den*u."""
        if u < 0:
            raise ValueError(f"u must be >= 0, got {u}")
        v = self.den * u
        return (isqrt(v * v * self.D) + self.t * v) // (self.D - self.t)

    def floor_div_omega(self, u: int) -> int:
        """floor(u / omega) for u >= 0, as u/omega = v*(sqrt(D) - t)/(D - t) with v = den*u."""
        if u < 0:
            raise ValueError(f"u must be >= 0, got {u}")
        v = self.den * u
        return (isqrt(v * v * self.D) - self.t * v) // (self.D - self.t)


class QElement:
    """An element a + b*w of the ring of integers, in the basis (1, w).

    An immutable value: equal and hashed by (field, a, b), and pickle and
    copy rebuild it from them.
    """

    __slots__ = ("field", "a", "b")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, field: Field, a: int, b: int) -> None:
        init = object.__setattr__
        init(self, "field", field)
        init(self, "a", a)
        init(self, "b", b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not QElement:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.b))

    def __reduce__(self) -> tuple:
        return QElement, (self.field, self.a, self.b)

    # ----- ring operations ------------------------------------------------

    def _check_same_field(self, other: QElement) -> None:
        if self.field != other.field:
            raise ValueError(f"mixed fields D={self.field.D} and D={other.field.D}")

    def __add__(self, other: QElement) -> QElement:
        self._check_same_field(other)
        return QElement(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: QElement) -> QElement:
        self._check_same_field(other)
        return QElement(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> QElement:
        return QElement(self.field, -self.a, -self.b)

    def __mul__(self, other: QElement | int) -> QElement:
        if isinstance(other, int):
            return QElement(self.field, self.a * other, self.b * other)
        self._check_same_field(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        f = self.field
        # w^2 = t*w + c
        return QElement(f, a1 * a2 + f.c * b1 * b2, a1 * b2 + a2 * b1 + f.t * b1 * b2)

    def __rmul__(self, other: int) -> QElement:
        return self.__mul__(other)

    # ----- conjugation and rational invariants -----------------------------

    def conjugate(self) -> QElement:
        return QElement(self.field, self.a + self.field.t * self.b, -self.b)

    def trace(self) -> int:
        return 2 * self.a + self.field.t * self.b

    def norm(self) -> int:
        a, b, f = self.a, self.b, self.field
        return a * a + f.t * a * b - f.c * b * b

    def sqrt_coords(self) -> tuple[int, int, int]:
        """(A, B, den) with self == (A + B*sqrt(D)) / den."""
        f = self.field
        return f.den * self.a + f.t * self.b, self.b, f.den

    def reduced_sqrt_coords(self) -> tuple[int, int, int]:
        """sqrt_coords in lowest terms, the form the renderers print.

        When den divides B = b it divides A = den*a + t*b too, and the
        denominator is 1; otherwise den = 2 and A = 2a + b and B are odd.
        """
        A, B, den = self.sqrt_coords()
        if B % den:
            return A, B, den
        return A // den, B // den, 1

    # ----- order relations --------------------------------------------------

    def sign(self) -> int:
        A, B, _ = self.sqrt_coords()
        return _sign_of_surd(A, B, self.field.D)

    def is_totally_positive(self) -> bool:
        """True when self = (A + B*sqrt(D))/den and its conjugate are both positive.

        The conjugate is (A - B*sqrt(D))/den, so both are positive exactly
        when A > |B|*sqrt(D): one integer comparison, as A^2 = B^2*D only at
        A = B = 0 for squarefree D.
        """
        A, B, _ = self.sqrt_coords()
        return A > 0 and A * A > B * B * self.field.D

    def succ_gt(self, other: QElement) -> bool:
        """Strict partial order: self - other is totally positive."""
        return (self - other).is_totally_positive()

    def succ_ge(self, other: QElement) -> bool:
        return self == other or self.succ_gt(other)

    @property
    def lex_key(self) -> tuple[int, int]:
        return (self.a, self.b)

    # ----- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        A, B, den = self.reduced_sqrt_coords()
        mag = abs(B)
        surd = f"√{self.field.D}" if mag == 1 else f"{mag}√{self.field.D}"
        if A == 0:
            body = surd if B > 0 else f"-{surd}"
        else:
            body = f"{A}+{surd}" if B > 0 else f"{A}-{surd}"
        return body if den == 1 else f"({body})/2"

    def __repr__(self) -> str:
        return f"QElement(D={self.field.D}, a={self.a}, b={self.b})"
