"""Exact arithmetic and order relations in the ring of integers of Q(sqrt(D)).

Elements are stored in the integral basis (1, w) where w = sqrt(D) for
D = 2, 3 (mod 4) and w = (1 + sqrt(D))/2 for D = 1 (mod 4).  Every sign,
ordering, and floor decision reduces to integer comparisons of the shape
A^2 vs B^2 * D, so this module involves no floating point at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = ["Field", "QElement", "is_squarefree"]


def is_squarefree(n: int) -> bool:
    """Trial-division squarefreeness test; adequate for desk-scale n."""
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


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


@dataclass(frozen=True)
class Field:
    """A real quadratic field Q(sqrt(D)) with D >= 2 squarefree."""

    D: int

    def __post_init__(self) -> None:
        if not isinstance(self.D, int) or isinstance(self.D, bool) or self.D < 2:
            raise ValueError(f"D must be an integer >= 2, got {self.D!r}")
        if not is_squarefree(self.D):
            raise ValueError(f"D must be squarefree, got {self.D}")

    @property
    def one_mod4(self) -> bool:
        return self.D % 4 == 1

    @property
    def discriminant(self) -> int:
        return self.D if self.one_mod4 else 4 * self.D

    # ----- constructors -------------------------------------------------

    def element(self, a: int, b: int = 0) -> QElement:
        return QElement(self, a, b)

    def omega(self) -> QElement:
        return QElement(self, 0, 1)

    def xi(self) -> QElement:
        """xi = -conj(omega): sqrt(D), or (sqrt(D) - 1)/2 when D = 1 mod 4."""
        return QElement(self, -1, 1) if self.one_mod4 else QElement(self, 0, 1)

    def from_sqrt(self, c0: int, c1: int) -> QElement:
        """The element c0 + c1*sqrt(D)."""
        if self.one_mod4:
            return QElement(self, c0 - c1, 2 * c1)
        return QElement(self, c0, c1)

    def from_half_sqrt(self, num0: int, num1: int) -> QElement:
        """The element (num0 + num1*sqrt(D))/2, which must be integral."""
        if self.one_mod4:
            if (num0 - num1) % 2:
                raise ValueError(f"({num0}+{num1}*sqrt({self.D}))/2 is not integral")
            return QElement(self, (num0 - num1) // 2, num1)
        if num0 % 2 or num1 % 2:
            raise ValueError(f"({num0}+{num1}*sqrt({self.D}))/2 is not integral")
        return QElement(self, num0 // 2, num1 // 2)

    # ----- exact floors ---------------------------------------------------
    # floor(y*sqrt(D)) = isqrt(y^2*D) and floor(x/n) = floor(floor(x)/n) for
    # integer n >= 1; both identities are used repeatedly below.  All the
    # quantities floored here are irrational for nonzero arguments, so the
    # matching ceilings are floor + 1.

    def floor_xi(self) -> int:
        f = isqrt(self.D)
        return (f - 1) // 2 if self.one_mod4 else f

    def floor_xi_mult(self, y: int) -> int:
        """floor(y * xi) for y >= 0."""
        if y < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        f = isqrt(y * y * self.D)
        return (f - y) // 2 if self.one_mod4 else f

    def ceil_xi_mult(self, y: int) -> int:
        """ceil(y * xi) for y >= 0; equals floor + 1 except at y = 0."""
        return 0 if y == 0 else self.floor_xi_mult(y) + 1

    def floor_div_xi(self, u: int) -> int:
        """floor(u / xi) for u >= 0."""
        if u < 0:
            raise ValueError(f"u must be >= 0, got {u}")
        if u == 0:
            return 0
        if self.one_mod4:
            # u/xi = 2u(sqrt(D)+1)/(D-1)
            return (isqrt(4 * u * u * self.D) + 2 * u) // (self.D - 1)
        return isqrt(u * u // self.D)

    def floor_div_omega(self, u: int) -> int:
        """floor(u / omega) for u >= 0."""
        if u < 0:
            raise ValueError(f"u must be >= 0, got {u}")
        if u == 0:
            return 0
        if self.one_mod4:
            # u/omega = 2u(sqrt(D)-1)/(D-1)
            return (isqrt(4 * u * u * self.D) - 2 * u) // (self.D - 1)
        return isqrt(u * u // self.D)


@dataclass(frozen=True, slots=True)
class QElement:
    """An element a + b*w of the ring of integers, in the basis (1, w)."""

    field: Field
    a: int
    b: int

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
        D = self.field.D
        if self.field.one_mod4:
            # w^2 = w + (D-1)/4
            return QElement(
                self.field,
                a1 * a2 + b1 * b2 * ((D - 1) // 4),
                a1 * b2 + a2 * b1 + b1 * b2,
            )
        return QElement(self.field, a1 * a2 + b1 * b2 * D, a1 * b2 + a2 * b1)

    def __rmul__(self, other: int) -> QElement:
        return self.__mul__(other)

    # ----- conjugation and rational invariants -----------------------------

    def conjugate(self) -> QElement:
        if self.field.one_mod4:
            return QElement(self.field, self.a + self.b, -self.b)
        return QElement(self.field, self.a, -self.b)

    def trace(self) -> int:
        return 2 * self.a + self.b if self.field.one_mod4 else 2 * self.a

    def norm(self) -> int:
        a, b, D = self.a, self.b, self.field.D
        if self.field.one_mod4:
            return a * a + a * b + b * b * ((1 - D) // 4)
        return a * a - b * b * D

    def sqrt_coords(self) -> tuple[int, int, int]:
        """(A, B, den) with self == (A + B*sqrt(D)) / den."""
        if self.field.one_mod4:
            return 2 * self.a + self.b, self.b, 2
        return self.a, self.b, 1

    # ----- order relations --------------------------------------------------

    def sign(self) -> int:
        A, B, _ = self.sqrt_coords()
        return _sign_of_surd(A, B, self.field.D)

    def is_totally_positive(self) -> bool:
        """True when both self and its conjugate are positive."""
        return self.sign() > 0 and self.conjugate().sign() > 0

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
        A, B, den = self.sqrt_coords()
        if den == 2 and A % 2 == 0 and B % 2 == 0:
            A, B, den = A // 2, B // 2, 1
        mag = abs(B)
        surd = f"√{self.field.D}" if mag == 1 else f"{mag}√{self.field.D}"
        if A == 0:
            body = surd if B > 0 else f"-{surd}"
        else:
            body = f"{A}+{surd}" if B > 0 else f"{A}-{surd}"
        return body if den == 1 else f"({body})/2"

    def __repr__(self) -> str:
        return f"QElement(D={self.field.D}, a={self.a}, b={self.b})"
