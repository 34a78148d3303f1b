"""Partial Euler products and the motivic-vs-automorphic factor comparison.

All number theory stays exact: the only floating point here is the final
assembly of complex local factor values, folded over ascending primes in a
fixed order so every value is reproducible bit for bit; `_fold` refuses
factors that are not in ascending prime order.

Three products are exposed: the Riemann zeta partial product, which gives
the corollary's factors zeta(s) and zeta(s - 1); the degree-1 motivic product
of a curve with a_p from point counting; and the degree-2 automorphic product
(the curve's Hecke L-function) with a_p from the norm-form route.  The two
a_p sources never share code, which is what gives `local_factor_match` and
`proposition3_check` their content: the first compares the local data prime
by prime, the second assembles both sides into the ratio
L1 / (zeta(s) zeta(s-1)) and measures how far the two assemblies drift
apart: exactly 0 when every a_p agrees, as both sides fold identical factor
tuples in the same order and the shared zeta(s) zeta(s-1) cancels.  So
`proposition3_check` can fail only where `local_factor_match` fails.

Evaluation is honest partial products only, restricted to the half-plane of
absolute convergence; no analytic continuation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from kzero.elliptic import ApCache, CurveQ, _good_ap, _norm_form_ap, cm_curve_for, good_primes
from kzero.primes import sieve

ComplexLike = Union[int, float, complex]

__all__ = [
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


class EulerProductApprox(NamedTuple):
    """A partial Euler product: evaluation point, factor list, folded value.

    Each factor is a pair (p, coefficients) in ascending p: the coefficients
    of an integer polynomial P with P(0) = 1 and degree <= 2, whose local
    factor at p is P(p^{-s})^{-1}.  `zeta_partial`, `motivic_l1_partial` and
    `automorphic_l_partial` emit (p, (1, -1)) or (p, (1, -a_p, p)) at primes
    from `sieve`.  The value is the product of the inverse local factors in
    ascending-p order.
    """

    s: complex
    prime_bound: int
    factors: tuple[tuple[int, tuple[int, ...]], ...]
    value: complex


def _fold(factors: tuple[tuple[int, tuple[int, ...]], ...], s: complex) -> complex:
    value = 1 + 0j
    last = 0
    for p, coefficients in factors:
        if p <= last:  # raised, not asserted: it must survive python -O
            raise AssertionError("factors must be in ascending prime order")
        last = p
        x = complex(p) ** (-s)
        acc = 0j
        for c in reversed(coefficients):
            acc = acc * x + c
        value *= 1 / acc
    return value


def zeta_partial(s: ComplexLike, P: int) -> EulerProductApprox:
    """prod_{p <= P} (1 - p^{-s})^{-1}, valid for Re s > 1."""
    z = complex(s)
    if not z.real > 1:  # written so that NaN is refused too
        raise ConvergenceDomainError(f"zeta product needs Re s > 1, got {z.real}")
    factors = tuple((p, (1, -1)) for p in sieve(P))
    return EulerProductApprox(z, P, factors, _fold(factors, z))


def motivic_l1_partial(
    c: CurveQ, s: ComplexLike, P: int, cache: Optional[ApCache] = None
) -> EulerProductApprox:
    """Degree-1 motivic product over good p <= P with point-count traces.

    Local factor (1 - a_p p^{-s} + p^{1-2s})^{-1}; valid for Re s > 3/2.
    """
    z = complex(s)
    if not z.real > 1.5:
        raise ConvergenceDomainError(f"motivic L1 needs Re s > 3/2, got {z.real}")
    factors = tuple((p, (1, -_good_ap(c, p, cache), p)) for p in good_primes(c, P))
    return EulerProductApprox(z, P, factors, _fold(factors, z))


def automorphic_l_partial(D: int, s: ComplexLike, P: int) -> EulerProductApprox:
    """Degree-2 automorphic product over good p <= P, valid for Re s > 3/2.

    Local factor (1 - a_p p^{-s} + p^{1-2s})^{-1} with a_p from the norm-form
    route (no point counting anywhere on this path).  The zeta factors of the
    corollary are `zeta_partial` at s and at s - 1.
    """
    z = complex(s)
    if not z.real > 1.5:
        raise ConvergenceDomainError(f"the automorphic product needs Re s > 3/2, got {z.real}")
    factors = tuple((p, (1, -_norm_form_ap(D, p), p)) for p in good_primes(cm_curve_for(D), P))
    return EulerProductApprox(z, P, factors, _fold(factors, z))


class MatchRow(NamedTuple):
    """Per-prime comparison of the two a_p routes; det is p on both sides."""

    p: int
    ap_motivic: int
    ap_automorphic: int
    match: bool


class MatchReport(NamedTuple):
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
        motivic = _good_ap(curve, p, cache)
        automorphic = _norm_form_ap(D, p)
        rows.append(MatchRow(p, motivic, automorphic, motivic == automorphic))
    return MatchReport(D, P, tuple(rows))


def proposition3_check(
    D: int, s: ComplexLike, P: int, cache: Optional[ApCache] = None
) -> float:
    """Residual of the factorization L1 = L(s,E) * zeta(s) * zeta(s-1).

    Both sides assemble the same shape ratio L1 / (zeta(s) zeta(s-1)), the
    motivic side from point counts and the automorphic side from the
    norm-form route; the result is |motivic/automorphic - 1|, valid on the
    common half-plane Re s > 2.  It is exactly 0 when every a_p agrees: both
    sides fold the same primes in the same order and divide by the same
    zeta(s) zeta(s-1), so this check can fail only where `local_factor_match`
    fails.
    """
    z = complex(s)
    if not z.real > 2:
        raise ConvergenceDomainError(f"the factorization check needs Re s > 2, got {z.real}")
    curve = cm_curve_for(D)
    # zeta(s) and zeta(s-1) are the corollary's two zeta factors; each is built
    # once and serves both sides
    zetas = zeta_partial(z, P).value * zeta_partial(z - 1, P).value
    motivic = motivic_l1_partial(curve, z, P, cache).value / zetas
    automorphic = automorphic_l_partial(D, z, P).value / zetas
    return abs(motivic / automorphic - 1)
