"""Partial Euler products and the motivic-vs-automorphic factor comparison.

All number theory stays exact: the only floating point here is the final
assembly of complex local factor values, folded over ascending primes in a
fixed order so every value is reproducible bit for bit (and recomputable
from the stored factors, which `EulerProductApprox.recompute` verifies).

Three product families are exposed: the Riemann zeta partial product, the
degree-1 motivic product of a curve with a_p from point counting, and the
automorphic products with a_p from the norm-form route.  The two a_p
sources never share code, which is what gives `local_factor_match` and
`proposition3_check` their content: the first compares the local data prime
by prime, the second assembles both sides into the ratio
L1 / (zeta(s) zeta(s-1)) and measures how far the two assemblies drift
apart (machine epsilon when every a_p agrees).

Evaluation is honest partial products only, restricted to the half-plane of
absolute convergence; no analytic continuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from kzero.elliptic import (
    ApCache,
    CurveQ,
    cm_curve_for,
    good_primes,
    hecke_ap_cm,
    trace_of_frobenius,
)
from kzero.primes import is_prime, sieve

ComplexLike = Union[int, float, complex]

__all__ = [
    "LocalPolynomial",
    "EulerProductApprox",
    "MatchRow",
    "MatchReport",
    "ConvergenceDomainError",
    "zeta_partial",
    "motivic_l1_partial",
    "automorphic_l_partial",
    "local_factor_match",
    "proposition3_check",
]


class ConvergenceDomainError(ValueError):
    """Raised when an evaluation point leaves the half-plane of convergence."""


@dataclass(frozen=True)
class LocalPolynomial:
    """Integer polynomial P with P(0) = 1 and degree <= 2, attached to a prime.

    The local Euler factor at p is P(p^{-s})^{-1}.
    """

    p: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("constant coefficient must be 1")
        if len(self.coefficients) > 3:
            raise ValueError("degree must be <= 2")

    def value_at(self, s: complex) -> complex:
        x = complex(self.p) ** (-s)
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class EulerProductApprox:
    """A partial Euler product: evaluation point, factor list, folded value.

    The value is the product of inverse local factors in ascending-p order;
    `recompute` refolds from the stored factors and must reproduce the
    stored value exactly.
    """

    s: complex
    prime_bound: int
    factors: tuple[LocalPolynomial, ...]
    value: complex

    def recompute(self) -> complex:
        return _fold(self.factors, self.s)


def _fold(factors: tuple[LocalPolynomial, ...], s: complex) -> complex:
    value = 1 + 0j
    last = 0
    for poly in factors:
        if poly.p <= last:  # raised, not asserted: it must survive python -O
            raise AssertionError("factors must be in ascending prime order")
        last = poly.p
        value *= 1 / poly.value_at(s)
    return value


def zeta_partial(s: ComplexLike, P: int) -> EulerProductApprox:
    """prod_{p <= P} (1 - p^{-s})^{-1}, valid for Re s > 1."""
    z = complex(s)
    if z.real <= 1:
        raise ConvergenceDomainError(f"zeta product needs Re s > 1, got {z.real}")
    factors = tuple(LocalPolynomial(p, (1, -1)) for p in sieve(P))
    return EulerProductApprox(z, P, factors, _fold(factors, z))


def motivic_l1_partial(
    c: CurveQ, s: ComplexLike, P: int, cache: Optional[ApCache] = None
) -> EulerProductApprox:
    """Degree-1 motivic product over good p <= P with point-count traces.

    Local factor (1 - a_p p^{-s} + p^{1-2s})^{-1}; valid for Re s > 3/2.
    """
    z = complex(s)
    if z.real <= 1.5:
        raise ConvergenceDomainError(f"motivic L1 needs Re s > 3/2, got {z.real}")
    factors = []
    for p in good_primes(c, P):
        a_p = trace_of_frobenius(c, p, cache).a_p
        assert a_p is not None
        factors.append(LocalPolynomial(p, (1, -a_p, p)))
    factors = tuple(factors)
    return EulerProductApprox(z, P, factors, _fold(factors, z))


def automorphic_l_partial(D: int, i: int, s: ComplexLike, P: int) -> EulerProductApprox:
    """Automorphic standard L partial product for i in {0, 1, 2}.

    i = 0 is the zeta product at s, i = 2 the zeta product at s - 1, and
    i = 1 the degree-2 product over good primes with a_p from the norm-form
    route (no point counting anywhere on this path).
    """
    z = complex(s)
    if i == 0:
        return zeta_partial(z, P)
    if i == 2:
        if z.real <= 2:
            raise ConvergenceDomainError(f"i=2 needs Re s > 2, got {z.real}")
        return zeta_partial(z - 1, P)
    if i != 1:
        raise ValueError("i must be 0, 1, or 2")
    if z.real <= 1.5:
        raise ConvergenceDomainError(f"i=1 needs Re s > 3/2, got {z.real}")
    curve = cm_curve_for(D)
    factors = []
    for p in good_primes(curve, P):
        a_p = hecke_ap_cm(D, p)
        if a_p * a_p > 4 * p:  # raised, not asserted: it must survive python -O
            raise AssertionError(f"Hasse bound violated by norm-form a_p at {p}")
        factors.append(LocalPolynomial(p, (1, -a_p, p)))
    factors = tuple(factors)
    return EulerProductApprox(z, P, factors, _fold(factors, z))


@dataclass(frozen=True)
class MatchRow:
    """Per-prime comparison of the two a_p routes; det is p on both sides."""

    p: int
    ap_motivic: int
    ap_automorphic: int
    match: bool


@dataclass(frozen=True)
class MatchReport:
    """All good primes up to the bound with their trace comparison."""

    D: int
    prime_bound: int
    rows: tuple[MatchRow, ...]

    @property
    def mismatches(self) -> tuple[int, ...]:
        return tuple(r.p for r in self.rows if not r.match)


def local_factor_match(D: int, P: int, cache: Optional[ApCache] = None) -> MatchReport:
    """Compare point-count traces against norm-form traces at every good p <= P.

    The motivic side is the (trace, determinant) of the degree-1 companion
    matrix, i.e. (a_p, p) from counting; the automorphic side supplies its
    eigenvalue data independently.  Mismatches are reported, not raised.
    """
    curve = cm_curve_for(D)
    rows = []
    for p in good_primes(curve, P):
        motivic = trace_of_frobenius(curve, p, cache).a_p
        assert motivic is not None
        automorphic = hecke_ap_cm(D, p)
        rows.append(MatchRow(p, motivic, automorphic, motivic == automorphic))
    return MatchReport(D, P, tuple(rows))


def proposition3_check(
    D: int, s: ComplexLike, P: int, cache: Optional[ApCache] = None
) -> float:
    """Residual of the factorization L1 = L(s,E) * zeta(s) * zeta(s-1).

    Both sides assemble the same shape ratio L1 / (zeta(s) zeta(s-1)), the
    motivic side from point counts and the automorphic side from the
    norm-form route; the result is |motivic/automorphic - 1|.  Valid on the
    common half-plane Re s > 2.
    """
    z = complex(s)
    if z.real <= 2:
        raise ConvergenceDomainError(f"the factorization check needs Re s > 2, got {z.real}")
    curve = cm_curve_for(D)
    motivic = motivic_l1_partial(curve, z, P, cache).value / (
        zeta_partial(z, P).value * zeta_partial(z - 1, P).value
    )
    automorphic = automorphic_l_partial(D, 1, z, P).value / (
        automorphic_l_partial(D, 0, z, P).value * automorphic_l_partial(D, 2, z, P).value
    )
    return abs(motivic / automorphic - 1)
