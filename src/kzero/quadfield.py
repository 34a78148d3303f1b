"""Exact arithmetic in quadratic fields Q(sqrt(D)).

Elements are stored as (x + y*sqrt(D))/den with integers x, y and den > 0 in
lowest terms; D is square-free (positive for real fields, negative for
imaginary ones).  Arithmetic, order, floors and printing work on that integer
triple and never on floating point, which keeps the module-membership
questions downstream decidable.  The norm and the trace are `Fraction`
views, and only they load `fractions`.

The real embedding fixes sqrt(D) as the positive root throughout, so `<, >`
and `floor` have one coherent meaning for D > 0.  Imaginary elements support
equality and arithmetic but not order.

Besides the element type this module provides the distinguished generator
omega of the ring of integers (``(1+sqrt(D))/2`` when D = 1 mod 4, else
``sqrt(D)``), the fundamental unit read off one continued-fraction
convergent of omega, the integer coordinates of an element in the basis
{1, omega}, and the exact check that multiplication by the unit maps
Z + Z*omega onto itself.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional

from kzero import Frozen

if TYPE_CHECKING:
    from fractions import Fraction

    from kzero.contfrac import PeriodicCF

__all__ = [
    "QuadElement",
    "FundamentalUnitResult",
    "is_squarefree",
    "omega_of",
    "fundamental_unit",
    "unit_stability_check",
    "stabilizes_order",
    "order_coordinates",
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


class QuadElement(Frozen):
    """(x + y*sqrt(D))/den with integers x, y and den.

    D must be square-free and different from 0 and 1, so sqrt(D) is
    irrational.  With den > 0 and gcd(x, y, den) = 1 the triple is unique, so
    equality and hashing compare it directly.  Elements of different fields
    never mix in arithmetic.  The norm and the trace are `Fraction` views.
    """

    __slots__ = ("x", "y", "den", "D")

    def __new__(cls, a: int | Fraction, b: int | Fraction, D: int) -> "QuadElement":
        if not isinstance(D, int):
            raise TypeError("D must be an integer")
        if D in (0, 1) or not is_squarefree(D):
            raise ValueError(f"D must be square-free and not 0 or 1, got {D}")
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        return cls._of(an * bd, bn * ad, ad * bd, D)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _of(cls, x: int, y: int, den: int, D: int) -> "QuadElement":
        """(x + y*sqrt(D))/den, reduced, in a field that an operand already
        carries; D is not tested again, and x, y and den != 0 are integers."""
        if den < 0:
            x, y, den = -x, -y, -den
        g = gcd(x, y, den)
        e = object.__new__(cls)
        for name, value in zip(cls.__slots__, (x // g, y // g, den // g, D)):
            object.__setattr__(e, name, value)
        return e

    def _coerce(self, other: object) -> "QuadElement":
        if isinstance(other, QuadElement):
            if other.D != self.D:
                raise ValueError(f"field mismatch: D={self.D} vs D={other.D}")
            return other
        n, d = _ratio(other)
        return QuadElement._of(n, 0, d, self.D)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement._of(self.x * o.den + o.x * self.den, self.y * o.den + o.y * self.den,
                               self.den * o.den, self.D)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement._of(self.x * o.den - o.x * self.den, self.y * o.den - o.y * self.den,
                               self.den * o.den, self.D)

    def __rsub__(self, other: object) -> "QuadElement":
        return self._coerce(other) - self

    def __neg__(self) -> "QuadElement":
        return QuadElement._of(-self.x, -self.y, self.den, self.D)

    def __mul__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        return QuadElement._of(self.x * o.x + self.y * o.y * self.D, self.x * o.y + self.y * o.x,
                               self.den * o.den, self.D)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadElement":
        o = self._coerce(other)
        # 1/o = den*conj(o)/(x^2 - y^2 D); the norm is nonzero for nonzero o since D is not a square
        n = o.x * o.x - o.y * o.y * self.D
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        return QuadElement._of((self.x * o.x - self.y * o.y * self.D) * o.den,
                               (self.y * o.x - self.x * o.y) * o.den, self.den * n, self.D)

    def __rtruediv__(self, other: object) -> "QuadElement":
        return self._coerce(other) / self

    # -- rational views: norm and trace --------------------------------------

    def norm(self) -> Fraction:
        return _fraction(self.x * self.x - self.y * self.y * self.D, self.den * self.den)

    def trace(self) -> Fraction:
        return _fraction(2 * self.x, self.den)

    # -- order structure (real fields only) ----------------------------------

    def sign(self) -> int:
        """Exact sign under the real embedding (D > 0 required if y != 0)."""
        x, y = self.x, self.y
        if y and self.D < 0:
            raise ValueError("imaginary elements are not ordered")
        # x + y*sqrt(D) has x's sign if x^2 > y^2 D and y's otherwise, since a
        # tie would need x = y = 0 (D is not a square)
        return (x > 0) - (x < 0) if x * x > y * y * self.D else (y > 0) - (y < 0)

    def __lt__(self, other: object) -> bool:
        return (self - other).sign() < 0

    def __gt__(self, other: object) -> bool:
        return (self - other).sign() > 0

    def floor(self) -> int:
        """Exact floor under the real embedding."""
        x, y = self.x, self.y
        if y and self.D < 0:
            raise ValueError("imaginary elements have no floor")
        # for y != 0, |y|*sqrt(D) is irrational, so with t = isqrt(y^2 D) it lies
        # strictly between t and t+1, and y*sqrt(D) strictly between s and s+1,
        # where s = t if y > 0 and s = -t-1 if y < 0.  No integer sits in the open
        # interval ((x+s)/den, (x+s+1)/den), so the floor is the left endpoint's.
        t = isqrt(y * y * self.D)
        return (x + t) // self.den if y >= 0 else (x - t - 1) // self.den

    def __str__(self) -> str:
        a = _ratio_str(self.x, self.den)
        if self.y == 0:
            return a
        root = f"sqrt({self.D})"
        y = abs(self.y) if self.x else self.y
        b = root if y == self.den else f"{_ratio_str(y, self.den)}*{root}"
        if self.x == 0:
            return b
        return f"{a} {'+' if self.y > 0 else '-'} {b}"


def _ratio(r: int | Fraction) -> tuple[int, int]:
    # numerator and denominator of an int or Fraction, read without importing fractions
    try:
        return r.numerator, r.denominator
    except AttributeError:
        raise TypeError(f"cannot interpret {r!r} as a rational number") from None


def _ratio_str(n: int, d: int) -> str:
    # n/d in lowest terms as str(Fraction(n, d)) prints it, for d > 0
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _fraction(n: int, d: int) -> Fraction:
    from fractions import Fraction  # only the rational views load fractions

    return Fraction(n, d)


class FundamentalUnitResult(NamedTuple):
    """The smallest unit > 1 of the ring of integers, with its norm (+-1)."""

    epsilon: QuadElement
    norm: int


def omega_of(D: int) -> QuadElement:
    """Generator of the ring of integers of Q(sqrt(D)).

    (1 + sqrt(D))/2 when D = 1 mod 4, otherwise sqrt(D).
    """
    if not isinstance(D, int) or D <= 1 or not is_squarefree(D):
        raise ValueError(f"D must be a square-free integer > 1, got {D}")
    if D % 4 == 1:
        return QuadElement._of(1, 1, 2, D)
    return QuadElement._of(0, 1, 1, D)


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
    from kzero import contfrac  # deferred: contfrac builds on QuadElement

    w = omega_of(D)
    t, n = _omega_poly(D)
    if cf is None:
        cf = contfrac.expand(w)
    (p, q), _ = contfrac.last_convergents(contfrac.partial_quotients(cf, len(cf.period)))
    unit_norm = p * p - t * p * q + n * q * q
    if unit_norm not in (1, -1):
        raise AssertionError(f"convergent {p}/{q} of omega gives no unit for D={D}")
    # p - q*conj(omega) = (p - q*t) + q*omega > 1 since conj(omega) < 0
    eps = q * w + (p - q * t)
    if not eps > 1:  # raised, not asserted: it must survive python -O
        raise AssertionError(f"unit {eps} of D={D} is not > 1")
    return FundamentalUnitResult(eps, unit_norm)


def unit_stability_check(D: int) -> bool:
    """True iff eps*(Z + Z*omega) = Z + Z*omega exactly, eps the fundamental unit."""
    return stabilizes_order(fundamental_unit(D).epsilon)


def stabilizes_order(eps: QuadElement) -> bool:
    """True iff eps*(Z + Z*omega) = Z + Z*omega exactly, in eps's real field.

    With (x, y) eps's coordinates in {1, omega} and omega^2 = t*omega - n,
    eps*omega = -n*y + (x + t*y)*omega; stability holds iff x and y are
    integers and this change of basis has determinant +-1.
    """
    if eps.D < 0:
        raise ValueError(f"eps must lie in a real field, got D = {eps.D}")
    coords = order_coordinates(eps)
    if coords is None:
        return False
    x, y = coords
    t, n = _omega_poly(eps.D)
    return x * (x + t * y) + n * y * y in (1, -1)


def order_coordinates(x: QuadElement) -> Optional[tuple[int, int]]:
    """Integer coordinates of x in the basis {1, omega}, or None when x is not in Z + Z*omega."""
    t, _ = _omega_poly(x.D)
    # x = (x + y*sqrt(D))/den and sqrt(D) = (1 + t)*omega - t, so den*x = (x - t*y) + (1 + t)*y*omega
    u, v = x.x - t * x.y, (1 + t) * x.y
    if u % x.den or v % x.den:
        return None
    return u // x.den, v // x.den
