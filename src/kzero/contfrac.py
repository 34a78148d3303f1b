"""Periodic continued fractions of real quadratic irrationals, exactly.

`expand` writes its input once as x_0 = (P + sqrt(d))/Q with integers P, Q
and d, where Q divides d - P^2, and then runs the integer recurrence
(Cohen, A Course in Computational Algebraic Number Theory, 5.7)

    a_k = floor((P_k + sqrt(d))/Q_k),
    P_{k+1} = a_k Q_k - P_k,  Q_{k+1} = (d - P_{k+1}^2)/Q_k,

which keeps the divisibility, so every complete quotient x_k is again
(P_k + sqrt(d))/Q_k with integer P_k, Q_k.  That form is unique, so the
first repeated pair (P, Q) marks the true minimal cycle; no floating-point
heuristics are involved.  Lagrange's theorem guarantees the recurrence
enters a cycle.

Representation convention: the leading partial quotient a_0 always sits in
the preperiod, even for purely periodic numbers.  The golden ratio
(1+sqrt(5))/2 therefore expands to preperiod (1,), period (1,) rather than
preperiod (), period (1,).  This keeps `preperiod[0]` a uniform way to read
the integer part.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm
from typing import Iterator

from kzero.quadfield import QuadElement

__all__ = ["PeriodicCF", "Convergent", "expand", "convergents", "partial_quotients"]


@dataclass(frozen=True)
class PeriodicCF:
    """Eventually periodic partial-quotient sequence.

    The expansion reads preperiod followed by period repeated forever.
    preperiod is nonempty (it holds at least a_0) and period is nonempty.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.preperiod:
            raise ValueError("preperiod must contain at least a_0")
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(a <= 0 for a in self.preperiod[1:]) or any(a <= 0 for a in self.period):
            raise ValueError("partial quotients after a_0 must be positive")


@dataclass(frozen=True)
class Convergent:
    """Convergent p/q at the given index, automatically in lowest terms."""

    index: int
    p: int
    q: int


def partial_quotients(cf: PeriodicCF, count: int) -> Iterator[int]:
    """Yield the first `count` partial quotients a_0, a_1, ..."""
    emitted = 0
    for a in cf.preperiod:
        if emitted >= count:
            return
        yield a
        emitted += 1
    while emitted < count:
        for a in cf.period:
            if emitted >= count:
                return
            yield a
            emitted += 1


def expand(x: QuadElement) -> PeriodicCF:
    """Continued fraction of a real quadratic irrational, exact.

    Raises ValueError for rational or imaginary input.
    """
    if x.b == 0:
        raise ValueError("input is rational; expansion would terminate")
    if x.D < 0:
        raise ValueError("input is not real")
    # x = (P + B*sqrt(D))/Q with integers and B > 0, i.e. (P + sqrt(d))/Q
    Q = lcm(x.a.denominator, x.b.denominator)
    P, B = int(x.a * Q), int(x.b * Q)
    if B < 0:
        P, B, Q = -P, -B, -Q
    d = B * B * x.D
    if (d - P * P) % Q:
        # the recurrence needs Q | d - P^2; scaling by |Q| brings it about
        P, Q, d = P * abs(Q), Q * abs(Q), d * Q * Q
    root = isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    while (P, Q) not in seen:
        seen[P, Q] = len(quots)
        # sqrt(d) is irrational and lies in (root, root + 1), so for Q < 0 the
        # floor is that of the interval's end (P + root + 1)/Q
        a = (P + root + (Q < 0)) // Q
        quots.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
    start = seen[P, Q]
    period = tuple(quots[start:])
    if start == 0:
        # purely periodic: peel a_0 into the preperiod and rotate the cycle
        preperiod = (quots[0],)
        period = period[1:] + period[:1]
    else:
        preperiod = tuple(quots[:start])
    return PeriodicCF(preperiod, period)


def convergents(cf: PeriodicCF, count: int) -> list[Convergent]:
    """First `count` convergents of cf via the standard recurrence.

    p_k = a_k p_{k-1} + p_{k-2}, q_k = a_k q_{k-1} + q_{k-2}, with
    (p_{-1}, p_{-2}) = (1, 0) and (q_{-1}, q_{-2}) = (0, 1).  Neighboring
    convergents satisfy p_k q_{k-1} - p_{k-1} q_k = (-1)^(k-1), so each p_k/q_k
    is automatically in lowest terms.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[Convergent] = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for k, a in enumerate(partial_quotients(cf, count)):
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        out.append(Convergent(k, p, q))
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q
    return out
