"""Exact arithmetic in quadratic fields Q(sqrt(D)).

Elements are stored as a + b*sqrt(D) with exact rational coordinates and a
square-free integer D (positive for real fields, negative for imaginary
ones).  No floating point is used anywhere in this module: order comparisons,
floors and norms are decided by exact integer arithmetic, which is what makes
the module-membership questions downstream decidable.

The real embedding fixes sqrt(D) as the positive root throughout, so `<, >`
and `floor` have one coherent meaning for D > 0.  Imaginary elements support
equality and arithmetic but not order.

Besides the element type this module provides the distinguished generator
omega of the ring of integers (``(1+sqrt(D))/2`` when D = 1 mod 4, else
``sqrt(D)``), the fundamental unit read off one continued-fraction
convergent of omega, and the exact check that multiplication by the unit
maps Z + Z*omega onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from kzero.contfrac import PeriodicCF

Rational = Union[int, Fraction]

__all__ = [
    "QuadElement",
    "FundamentalUnitResult",
    "is_squarefree",
    "omega_of",
    "fundamental_unit",
    "unit_stability_check",
    "stabilizes_order",
]


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n = 0 is not square-free)."""
    if n == 0:
        return False
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


@dataclass(frozen=True)
class QuadElement:
    """a + b*sqrt(D) with exact Fraction coordinates.

    D must be square-free and different from 0 and 1, so sqrt(D) is
    irrational and the coordinate pair (a, b) is unique.  Elements of
    different fields never mix in arithmetic.
    """

    a: Fraction
    b: Fraction
    D: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not isinstance(self.D, int):
            raise TypeError("D must be an integer")
        if self.D in (0, 1) or not is_squarefree(self.D):
            raise ValueError(f"D must be square-free and not 0 or 1, got {self.D}")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def rational(a: Rational, D: int) -> "QuadElement":
        return QuadElement(Fraction(a), Fraction(0), D)

    def _coerce(self, other: object) -> "QuadElement":
        if isinstance(other, QuadElement):
            if other.D != self.D:
                raise ValueError(f"field mismatch: D={self.D} vs D={other.D}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(Fraction(other), Fraction(0), self.D)
        raise TypeError(f"cannot interpret {other!r} as a quadratic field element")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement(self.a - o.a, self.b - o.b, self.D)

    def __neg__(self) -> "QuadElement":
        return QuadElement(-self.a, -self.b, self.D)

    def __mul__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        # 1/o = conj(o)/norm(o); norm is nonzero for nonzero o since D is not a square
        return self * QuadElement(o.a / n, -o.b / n, self.D)

    def __rtruediv__(self, other: object) -> "QuadElement":
        return self._coerce(other) / self

    # -- field-theoretic data ------------------------------------------------

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def trace(self) -> Fraction:
        return 2 * self.a

    # -- order structure (real fields only) ----------------------------------

    def sign(self) -> int:
        """Exact sign under the real embedding (D > 0 required if b != 0)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.D < 0:
            raise ValueError("imaginary elements are not ordered")
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 D; ties impossible (D not a square)
        return sa if self.a * self.a > self.b * self.b * self.D else sb

    def __lt__(self, other: object) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __gt__(self, other: object) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def floor(self) -> int:
        """Exact floor under the real embedding."""
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        if self.D < 0:
            raise ValueError("imaginary elements have no floor")
        # write self = (P + Q*sqrt(D))/R with integers P, Q and R > 0
        r = self.a.denominator * self.b.denominator
        p = self.a.numerator * self.b.denominator
        q = self.b.numerator * self.a.denominator
        if q > 0:
            # Q*sqrt(D) lies strictly between t and t+1, and no integer sits in
            # ((P+t)/R, (P+t+1)/R), so the floor matches the left endpoint's.
            t = isqrt(q * q * self.D)
            return (p + t) // r
        t = isqrt(q * q * self.D)
        num = p - t
        if num % r == 0:
            return num // r - 1
        return num // r

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.D})"
        bpart = root if self.b == 1 else f"{self.b}*{root}"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        babs = root if abs(self.b) == 1 else f"{abs(self.b)}*{root}"
        return f"{self.a} {sign} {babs}"


class FundamentalUnitResult(NamedTuple):
    """The smallest unit > 1 of the ring of integers, with its norm (+-1)."""

    epsilon: QuadElement
    norm: int


def _check_real_d(D: int) -> None:
    if not isinstance(D, int) or D <= 1 or not is_squarefree(D):
        raise ValueError(f"D must be a square-free integer > 1, got {D}")


def omega_of(D: int) -> QuadElement:
    """Generator of the ring of integers of Q(sqrt(D)).

    (1 + sqrt(D))/2 when D = 1 mod 4, otherwise sqrt(D).
    """
    _check_real_d(D)
    if D % 4 == 1:
        return QuadElement(Fraction(1, 2), Fraction(1, 2), D)
    return QuadElement(Fraction(0), Fraction(1), D)


def _omega_poly(D: int) -> tuple[int, int]:
    # omega satisfies omega^2 - t*omega + n = 0 with integer t, n
    if D % 4 == 1:
        return 1, (1 - D) // 4
    return 0, -D


def fundamental_unit(D: int, cf: Optional[PeriodicCF] = None) -> FundamentalUnitResult:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(D)).

    omega's continued fraction is [a_0; a_1, ..., a_L repeated].  The
    convergent p/q of index L - 1, the last before the period's final
    quotient, gives the unit p - q*conj(omega), whose norm
    p^2 - t*p*q + n*q^2 is +-1 (Pell theory).  The norm is checked.  A caller
    that already holds omega's expansion passes it as `cf`.
    """
    _check_real_d(D)
    from kzero import contfrac  # deferred: contfrac builds on QuadElement

    w = omega_of(D)
    t, n = _omega_poly(D)
    if cf is None:
        cf = contfrac.expand(w)
    conv = contfrac.convergents(cf, len(cf.period))[-1]
    p, q = conv.p, conv.q
    unit_norm = p * p - t * p * q + n * q * q
    if unit_norm not in (1, -1):
        raise AssertionError(f"convergent {p}/{q} of omega gives no unit for D={D}")
    # p - q*conj(omega) = (p - q*t) + q*omega > 1 since conj(omega) < 0
    eps = QuadElement(Fraction(p - q * t), Fraction(0), D) + q * w
    if not eps > 1:  # raised, not asserted: it must survive python -O
        raise AssertionError(f"unit {eps} of D={D} is not > 1")
    return FundamentalUnitResult(eps, unit_norm)


def coordinates_in_order(x: QuadElement) -> tuple[Fraction, Fraction]:
    """Coordinates of x in the basis {1, omega} of its field's integer ring."""
    if x.D % 4 == 1:
        # omega = (1+sqrt(D))/2, so b*sqrt(D) = 2b*omega - b
        return x.a - x.b, 2 * x.b
    return x.a, x.b


def unit_stability_check(D: int) -> bool:
    """True iff eps*(Z + Z*omega) = Z + Z*omega exactly, eps the fundamental unit."""
    return stabilizes_order(fundamental_unit(D).epsilon)


def stabilizes_order(eps: QuadElement) -> bool:
    """True iff eps*(Z + Z*omega) = Z + Z*omega exactly, in eps's field.

    Expresses eps*1 and eps*omega in the basis {1, omega}; stability holds
    iff all four coordinates are integers and the change of basis has
    determinant +-1.
    """
    w = omega_of(eps.D)
    c1 = coordinates_in_order(eps)
    c2 = coordinates_in_order(eps * w)
    coords = (*c1, *c2)
    if any(c.denominator != 1 for c in coords):
        return False
    det = c1[0] * c2[1] - c1[1] * c2[0]
    return det in (1, -1)
