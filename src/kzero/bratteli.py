"""Stationary Bratteli diagrams of quadratic irrationals and their dimension groups.

A stationary diagram repeats one multiplicity matrix B between levels of
two matrix blocks each: level k+1's block sizes are B times level k's.
Here B is always the 2x2 primitive unimodular matrix that `effros_shen`
folds from a continued fraction, and the seed level's block sizes are the
convergent denominators (q_c, q_{c-1}).  So the dimension group embeds in R
as Z*tau_0 + Z*tau_1 for one pair tau of positive traces, and everything
about it is decided exactly in Q(sqrt(D)).

The trace normalization is the delicate point.  The inductive limit of
Z^2 --B--> Z^2 --B--> ... maps into R by pairing level-k coordinates with a
positive left Perron eigenvector v of B, scaled so that the trace is unital:
at the seed level tau = v / (v . seed) gives the block sizes total trace 1.
Any other positive rescaling of v (say, last coordinate 1) spans a group
that can differ from the true one by a non-unit factor, so `stationary_k0`
embeds the group by tau, read off B and the seed sizes alone.  For a
diagram folded from theta's continued fraction, tau is the trace pair
(|q_{c-1}*theta - p_{c-1}|, |q_c*theta - p_c|) of the convergents, which
spans Z + Z*theta.  The diagram keeps that pair as `seed_traces`, and
`shift_action_check` ties theta's expansion to the fold by the exact
eigen-equation xi B = lambda xi on it.

The UHF p-power chain and the Z[1/p] membership predicate live here too,
as the rank-1 warm-up case: one block per level, each p times the last.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from kzero import Frozen, contfrac
from kzero.primes import is_prime
from kzero.quadfield import QuadElement

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "StationaryDiagram",
    "DimensionGroup",
    "PFData",
    "uhf_diagram",
    "uhf_k0_membership",
    "effros_shen",
    "pf_data",
    "stationary_k0",
    "shift_action_check",
]


def _is_primitive(b: Matrix) -> bool:
    """2x2 primitivity (B^2 > 0): the blocks feed each other and one feeds itself."""
    (b00, b01), (b10, b11) = b
    return b01 > 0 and b10 > 0 and (b00 > 0 or b11 > 0)


# -- diagram types -------------------------------------------------------------


class StationaryDiagram(Frozen):
    """A 2x2 primitive unimodular multiplicity matrix repeated from a seed level.

    `seed` is the pair of block sizes (q_c, q_{c-1}) at the seed level.
    `period_length` records how many elementary continued-fraction steps one
    application of B represents.  `seed_traces` is the exact positive trace
    pair that theta's convergents give at the seed level; see the module
    docstring for what checks it.
    """

    __slots__ = ("B", "seed", "period_length", "seed_traces")

    def __init__(self, B: Matrix, seed: tuple[int, int], period_length: int,
                 seed_traces: tuple[QuadElement, QuadElement]) -> None:
        b = tuple(tuple(int(x) for x in row) for row in B)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "seed", tuple(int(s) for s in seed))
        object.__setattr__(self, "period_length", period_length)
        object.__setattr__(self, "seed_traces", tuple(seed_traces))
        if len(b) != 2 or any(len(row) != 2 for row in b):
            raise ValueError(f"stationary multiplicity matrix must be 2x2, got {b}")
        # no negative entry passes the next two checks: primitivity needs
        # b01, b10 >= 1 and a positive diagonal entry, and a negative one
        # beside it makes the determinant at most -2
        if not _is_primitive(b):
            raise ValueError(f"matrix {b} is not primitive")
        (b00, b01), (b10, b11) = b
        if b00 * b11 - b01 * b10 not in (1, -1):
            raise ValueError(f"matrix {b} is not unimodular; the K0 limit is not a "
                             f"finitely generated subgroup of R")
        if len(self.seed) != 2 or min(self.seed) < 1:
            raise ValueError(f"seed must be two positive block sizes, got {self.seed}")
        if self.period_length < 1:
            raise ValueError("period length must be >= 1")
        if len(self.seed_traces) != 2 or any(t.sign() <= 0 for t in self.seed_traces):
            raise ValueError("need two strictly positive traces")


class DimensionGroup(NamedTuple):
    """K0 data of a stationary diagram (Z^2 --B--> Z^2 --B--> ...).

    `real_embedding` is the unital trace pair tau whose span is the group's
    image in R, and `eigenvalue` the exact Perron eigenvalue it was built from.
    """

    real_embedding: tuple[QuadElement, QuadElement]
    eigenvalue: QuadElement


# -- operations ----------------------------------------------------------------


def uhf_diagram(p: int, depth: int) -> tuple[int, ...]:
    """Matrix sizes 1, p, p^2, ..., p^depth of the UHF chain's levels.

    Each level embeds unitally in the next with multiplicity p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return tuple(p ** i for i in range(depth + 1))


def uhf_k0_membership(p: int, x: Union[int, Fraction]) -> bool:
    """True iff the lowest-terms denominator of x is a power of p."""
    from fractions import Fraction  # only this predicate reads a rational

    if p < 2:
        raise ValueError("p must be >= 2")
    d = Fraction(x).denominator
    while d % p == 0:
        d //= p
    return d == 1


def effros_shen(theta: QuadElement, cf: Optional[contfrac.PeriodicCF] = None) -> StationaryDiagram:
    """Stationary diagram of the AF-algebra attached to a quadratic irrational.

    theta is reduced mod 1; its continued fraction [0; a_1, a_2, ...] becomes
    eventually periodic at some index c >= 1 with minimal period length L.
    The preperiod is folded away by seeding the diagram at level c with the
    denominator pair (q_c, q_{c-1}); one application of B then advances the
    expansion by a full period, so B = block(a_{c+L}) * ... * block(a_{c+1}),
    the last two convergents of the run a_{c+1}, ..., a_{c+L}.

    The seed traces are xi_{c-1} = |q_{c-1} theta - p_{c-1}| and
    xi_c = |q_c theta - p_c|.  They pair with the dimension vector to give a
    unital trace (q_c xi_{c-1} + q_{c-1} xi_c = 1) and span Z + Z*theta.
    When B is the right fold they are also a left Perron eigenvector of B,
    and so equal the trace tau that `stationary_k0` reads off B.

    They are read off theta's own convergents p_k/q_k: those of frac(theta)
    are (p_k - a_0 q_k)/q_k, which give the same xi.  `expand` refuses a
    rational or imaginary theta; a caller that already holds theta's
    expansion passes it as `cf`.
    """
    cf = contfrac.expand(theta) if cf is None else cf
    c = len(cf.preperiod)
    period = cf.period
    (p_c, q_c), (p_prev, q_prev) = contfrac.last_convergents(contfrac.partial_quotients(cf, c + 1))
    # q_k theta - p_k is positive for even k and negative for odd k, so negate the odd one
    xi_prev, xi_c = theta * q_prev - p_prev, theta * q_c - p_c
    if c % 2:
        xi_c = -xi_c
    else:
        xi_prev = -xi_prev
    return StationaryDiagram(
        B=contfrac.last_convergents(period[1:] + period[:1]),
        seed=(q_c, q_prev),
        period_length=len(period),
        seed_traces=(xi_prev, xi_c),
    )


class PFData(NamedTuple):
    """Perron eigenvalue and a positive left eigenvector, both exact.

    The eigenvector is normalized to last coordinate 1.
    """

    eigenvalue: QuadElement
    eigenvector: tuple[QuadElement, QuadElement]


def pf_data(s: StationaryDiagram) -> PFData:
    """Perron-Frobenius data of a stationary diagram, in the field of its traces.

    B is primitive and unimodular, so its characteristic discriminant is
    positive and not a square; it must be m^2 * D for the traces' field D.
    """
    (b00, b01), (b10, b11) = s.B
    tr = b00 + b11
    disc = tr * tr - 4 * (b00 * b11 - b01 * b10)
    d = s.seed_traces[0].D
    m = isqrt(disc // d)
    if m * m * d != disc:  # raised, not asserted: it must survive python -O
        raise AssertionError(f"discriminant {disc} of {s.B} is not a square times D = {d}")
    # lambda = (tr + m*sqrt(d))/2, and v = ((lambda - b11)/b01, 1)
    lam = QuadElement._of(tr, m, 2, d)
    return PFData(lam, (QuadElement._of(tr - 2 * b11, m, 2 * b01, d), QuadElement._of(1, 0, 1, d)))


def stationary_k0(s: StationaryDiagram) -> DimensionGroup:
    """Dimension group of a stationary diagram and its real embedding.

    The limit of Z^2 under B lands in R as Z*tau_0 + Z*tau_1, tau the unital
    trace v / (v . seed) and v the Perron eigenvector of B.
    """
    pf = pf_data(s)
    v0, v1 = pf.eigenvector
    total = v0 * s.seed[0] + v1 * s.seed[1]
    return DimensionGroup((v0 / total, v1 / total), pf.eigenvalue)


def shift_action_check(s: StationaryDiagram, group: DimensionGroup) -> bool:
    """True iff the seed traces xi satisfy xi B = lambda xi exactly.

    `group` is the diagram's `stationary_k0`, which the caller already holds.
    """
    (b00, b01), (b10, b11) = s.B
    x0, x1 = s.seed_traces
    lam = group.eigenvalue
    return x0 * b00 + x1 * b10 == lam * x0 and x0 * b01 + x1 * b11 == lam * x1
