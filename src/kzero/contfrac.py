"""Periodic continued fractions of real quadratic irrationals, exactly.

`expand` reads its input's integer triple (x + y*sqrt(D))/den as
x_0 = (P + sqrt(d))/Q with integers P, Q and d, where Q divides d - P^2, and
then runs the integer recurrence
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

`last_convergents` runs the convergent recurrence once over any run of
quotients.  Fed theta's first k + 1 quotients it gives the convergents
p_k/q_k and p_{k-1}/q_{k-1}; fed one period it gives the period fold, the
multiplicity matrix of the Effros-Shen diagram.
"""

from __future__ import annotations

from itertools import chain, cycle, islice
from math import isqrt
from typing import Iterable, Iterator

from kzero import Frozen
from kzero.quadfield import QuadElement

__all__ = ["PeriodicCF", "expand", "last_convergents", "partial_quotients"]


class PeriodicCF(Frozen):
    """Eventually periodic partial-quotient sequence.

    The expansion reads preperiod followed by period repeated forever.
    preperiod is nonempty (it holds at least a_0) and period is nonempty.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        if not preperiod:
            raise ValueError("preperiod must contain at least a_0")
        if not period:
            raise ValueError("period must be nonempty")
        if any(a <= 0 for a in preperiod[1:]) or any(a <= 0 for a in period):
            raise ValueError("partial quotients after a_0 must be positive")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)


def partial_quotients(cf: PeriodicCF, count: int) -> Iterator[int]:
    """The first `count` partial quotients a_0, a_1, ...: the preperiod, then the period cycled."""
    return islice(chain(cf.preperiod, cycle(cf.period)), max(count, 0))


def expand(x: QuadElement) -> PeriodicCF:
    """Continued fraction of a real quadratic irrational, exact.

    Raises ValueError for rational or imaginary input.
    """
    if x.y == 0:
        raise ValueError("input is rational; expansion would terminate")
    if x.D < 0:
        raise ValueError("input is not real")
    # x = (P + B*sqrt(D))/Q with integers and B > 0, i.e. (P + sqrt(d))/Q
    P, B, Q = x.x, x.y, x.den
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


def last_convergents(quotients: Iterable[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The last two convergents ((p_k, q_k), (p_{k-1}, q_{k-1})) of a_0, ..., a_k.

    p_k = a_k p_{k-1} + p_{k-2}, q_k = a_k q_{k-1} + q_{k-2}, from
    (p_{-1}, q_{-1}) = (1, 0) and (p_{-2}, q_{-2}) = (0, 1), which are what an
    empty run gives.  As a matrix the result is block(a_k) * ... * block(a_0),
    block(a) = [[a, 1], [1, 0]], so its determinant
    p_k q_{k-1} - p_{k-1} q_k is (-1)^(k+1) and each p_k/q_k is in lowest
    terms.
    """
    (p, q), (r, s) = (1, 0), (0, 1)
    for a in quotients:
        (p, q), (r, s) = (a * p + r, a * q + s), (p, q)
    return (p, q), (r, s)
