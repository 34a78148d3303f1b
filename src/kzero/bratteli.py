"""Bratteli diagrams, dimension groups, and stationary real embeddings.

A diagram is a sequence of finite-dimensional algebra descriptors (lists of
matrix block sizes) glued by nonnegative integer partial multiplicity
matrices.  A stationary diagram repeats one square matrix B forever; when B
is 2x2, primitive, and has an irrational Perron eigenvalue, the dimension
group embeds in R as a rank-2 module Z*t1 + Z*t2 and everything about it is
decided exactly in Q(sqrt(D)).

The trace normalization is the delicate point.  The inductive limit of
Z^2 --B--> Z^2 --B--> ... maps into R by pairing level-k coordinates with a
positive left Perron eigenvector t of B, scaled so consecutive levels are
consistent.  For diagrams built from a continued fraction the consistent
scale is pinned down by the convergents: at the fold level c the trace pair
is (|q_{c-1}*theta - p_{c-1}|, |q_c*theta - p_c|), which spans Z + Z*theta
at every level because one step of the recurrence is unimodular.  An
arbitrary positive rescaling of t (say, last coordinate 1) generates a
module that can differ from Z + Z*theta by a non-unit factor, which is why
`StationaryDiagram` carries the exact trace pair when it is known and
`stationary_k0` only falls back to the eigenvector normalization for
hand-built diagrams.

UHF diagrams and the Z[1/p] membership predicate live here too, as the
rank-1 warm-up case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional, Sequence, Union

from kzero import contfrac
from kzero.coherence import RealModule
from kzero.primes import is_prime
from kzero.quadfield import QuadElement

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "MatrixAlgebraList",
    "BratteliDiagram",
    "StationaryDiagram",
    "DimensionGroup",
    "PFData",
    "NotPrimitiveError",
    "UnsupportedDiagramError",
    "uhf_diagram",
    "uhf_k0_membership",
    "effros_shen",
    "period_fold",
    "pf_data",
    "stationary_k0",
    "shift_action_check",
]


class NotPrimitiveError(ValueError):
    """Raised when an operation requires a primitive multiplicity matrix."""


class UnsupportedDiagramError(ValueError):
    """Raised when a stationary diagram has no supported real embedding."""


# -- matrix helpers ------------------------------------------------------------


def _to_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if not mat or any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("matrix rows must be nonempty and of equal length")
    if any(x < 0 for row in mat for x in row):
        raise ValueError("multiplicity entries must be nonnegative")
    return mat


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(a[0]) != len(v):
        raise ValueError(f"matrix is {len(a)}x{len(a[0])} but vector has length {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _is_primitive(b: Matrix) -> bool:
    """2x2 primitivity (B^2 > 0): the blocks feed each other and one feeds itself."""
    (b00, b01), (b10, b11) = b
    return b01 > 0 and b10 > 0 and (b00 > 0 or b11 > 0)


# -- diagram types -------------------------------------------------------------


@dataclass(frozen=True)
class MatrixAlgebraList:
    """Block sizes (n_1, ..., n_k) of a direct sum of matrix algebras."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be a nonempty list of positive integers")


@dataclass(frozen=True)
class BratteliDiagram:
    """Levels of block sizes joined by partial multiplicity matrices.

    Matrix i has shape (blocks at level i+1) x (blocks at level i) and must
    satisfy sizes_{i+1} >= B_i * sizes_i componentwise; a step where equality
    holds is a unital embedding.
    """

    levels: tuple[MatrixAlgebraList, ...]
    multiplicities: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "multiplicities", tuple(_to_matrix(m) for m in self.multiplicities))
        if len(self.multiplicities) != len(self.levels) - 1:
            raise ValueError("need exactly one multiplicity matrix per consecutive level pair")
        for i, b in enumerate(self.multiplicities):
            lo, hi = self.levels[i], self.levels[i + 1]
            if len(b) != len(hi.sizes) or len(b[0]) != len(lo.sizes):
                raise ValueError(f"matrix {i} has shape {len(b)}x{len(b[0])}, "
                                 f"expected {len(hi.sizes)}x{len(lo.sizes)}")
            grown = _mat_vec(b, lo.sizes)
            if any(g > s for g, s in zip(grown, hi.sizes)):
                raise ValueError(f"embedding at step {i} does not fit: {grown} !<= {hi.sizes}")


@dataclass(frozen=True)
class StationaryDiagram:
    """One square multiplicity matrix repeated from a seed level.

    `period_length` records how many elementary continued-fraction steps one
    application of B represents (1 for hand-built diagrams).  `seed_traces`
    is the exact positive trace pair at the seed level when the diagram came
    from a continued fraction; see the module docstring for why this matters.
    """

    B: Matrix
    seed: MatrixAlgebraList
    period_length: int = 1
    seed_traces: Optional[tuple[QuadElement, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "B", _to_matrix(self.B))
        n = len(self.B)
        if any(len(row) != n for row in self.B):
            raise ValueError("stationary multiplicity matrix must be square")
        if len(self.seed.sizes) != n:
            raise ValueError("seed block count must match the matrix size")
        if self.period_length < 1:
            raise ValueError("period length must be >= 1")
        if self.seed_traces is not None:
            object.__setattr__(self, "seed_traces", tuple(self.seed_traces))
            if len(self.seed_traces) != n:
                raise ValueError("need one trace per block")
            if any(t.sign() <= 0 for t in self.seed_traces):
                raise ValueError("trace values must be strictly positive")


@dataclass(frozen=True)
class DimensionGroup:
    """K0 data of a stationary diagram.

    `rank` and `matrix` present the inductive system (Z^rank --matrix--> ...);
    `real_embedding` is the image in R when the diagram supports one, and
    `eigenvalue` the exact Perron eigenvalue it was built from; both are
    None when the group is presentation-only.
    """

    rank: int
    matrix: Matrix
    real_embedding: Optional[RealModule]
    eigenvalue: Optional[QuadElement] = None


# -- operations ----------------------------------------------------------------


def uhf_diagram(p: int, depth: int) -> BratteliDiagram:
    """The chain of full matrix algebras of sizes 1, p, p^2, ..., p^depth."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels = tuple(MatrixAlgebraList((p ** i,)) for i in range(depth + 1))
    return BratteliDiagram(levels, (((p,),),) * depth)


def uhf_k0_membership(p: int, x: Union[int, Fraction]) -> bool:
    """True iff the lowest-terms denominator of x is a power of p."""
    if p < 2:
        raise ValueError("p must be >= 2")
    d = Fraction(x).denominator
    while d % p == 0:
        d //= p
    return d == 1


def period_fold(quotients: Sequence[int]) -> Matrix:
    """Product of the elementary blocks [[a,1],[1,0]] over one period.

    The product is taken in dimension-propagation order: the block of the
    first quotient is applied first, so the result is
    block(a_L) * ... * block(a_1).
    """
    if not quotients or any(a < 1 for a in quotients):
        raise ValueError("period quotients must be positive")
    (p, q), (r, s) = (1, 0), (0, 1)
    for a in quotients:
        # block(a) @ [[p, q], [r, s]]
        (p, q), (r, s) = (a * p + r, a * q + s), (p, q)
    return (p, q), (r, s)


def effros_shen(theta: QuadElement, cf: Optional[contfrac.PeriodicCF] = None) -> StationaryDiagram:
    """Stationary diagram of the AF-algebra attached to a quadratic irrational.

    theta is reduced mod 1; its continued fraction [0; a_1, a_2, ...] becomes
    eventually periodic at some index c >= 1 with minimal period length L.
    The preperiod is folded away by seeding the diagram at level c with the
    denominator pair (q_c, q_{c-1}); one application of B then advances the
    expansion by a full period, so B = block(a_{c+L}) * ... * block(a_{c+1}).

    The seed traces are xi_{c-1} = |q_{c-1} theta - p_{c-1}| and
    xi_c = |q_c theta - p_c|; they pair with the dimension vector to give a
    unital trace (q_c xi_{c-1} + q_{c-1} xi_c = 1) and they form a left
    Perron eigenvector of B, so the diagram's K0 image in R is
    Z*xi_{c-1} + Z*xi_c = Z + Z*theta on the nose.

    frac(theta) has the same complete quotients as theta after the first,
    so its expansion is theta's with a_0 replaced by 0 (expand keeps a_0 in
    the preperiod, and frac(theta) < 1 is never purely periodic). A caller
    that already holds theta's expansion passes it as `cf`.
    """
    if theta.b == 0:
        raise ValueError("theta must be irrational")
    if theta.D < 0:
        raise ValueError("theta must be real")
    frac_part = theta - theta.floor()
    full = contfrac.expand(theta) if cf is None else cf
    cf = contfrac.PeriodicCF((0, *full.preperiod[1:]), full.period)
    c = len(cf.preperiod)
    period = cf.period
    length = len(period)
    convs = contfrac.convergents(cf, c + 1)
    q_c, q_prev = convs[c].q, convs[c - 1].q
    xi_prev = _xi(frac_part, convs[c - 1])
    xi_c = _xi(frac_part, convs[c])
    rotated = period[1:] + period[:1]
    return StationaryDiagram(
        B=period_fold(rotated),
        seed=MatrixAlgebraList((q_c, q_prev)),
        period_length=length,
        seed_traces=(xi_prev, xi_c),
    )


def _xi(theta: QuadElement, conv: contfrac.Convergent) -> QuadElement:
    value = theta * conv.q - conv.p
    if conv.index % 2 == 1:
        value = -value
    if value.sign() <= 0:  # raised, not asserted: it must survive python -O
        raise AssertionError(f"trace {value} at convergent {conv.index} is not positive")
    return value


class PFData(NamedTuple):
    """Perron eigenvalue and a positive left eigenvector.

    The eigenvalue is exact (QuadElement, or Fraction when the characteristic
    discriminant is a perfect square), and so is the eigenvector, normalized
    to last coordinate 1.
    """

    eigenvalue: Union[QuadElement, Fraction]
    eigenvector: tuple


def pf_data(s: StationaryDiagram) -> PFData:
    """Perron-Frobenius data of a 2x2 stationary matrix; rejects non-primitive B."""
    n = len(s.B)
    if n != 2:
        raise UnsupportedDiagramError(f"Perron-Frobenius data needs a 2x2 matrix, got {n}x{n}")
    if not _is_primitive(s.B):
        raise NotPrimitiveError(f"matrix {s.B} is not primitive")
    return _pf_exact_2x2(s)


def _square_free_split(n: int) -> tuple[int, int]:
    # n = m^2 * d with d square-free
    m, d, f = 1, 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            m *= f
        if n % f == 0:
            n //= f
            d *= f
        f += 1
    return m, d * n


def _pf_exact_2x2(s: StationaryDiagram) -> PFData:
    (b00, b01), (b10, b11) = s.B
    tr = b00 + b11
    det = b00 * b11 - b01 * b10
    disc = tr * tr - 4 * det
    # primitive 2x2 implies b01 > 0 and a simple dominant root, so disc > 0
    if not (disc > 0 and b01 > 0):  # raised, not asserted: it must survive python -O
        raise AssertionError(f"matrix {s.B} has no simple dominant root")
    r = isqrt(disc)
    lam: Union[QuadElement, Fraction]
    if r * r == disc:
        lam = Fraction(tr + r, 2)
        v1: Union[QuadElement, Fraction] = (lam - b11) / b01
    else:
        # a diagram built from a continued fraction carries its field D in its
        # traces, and then disc = m^2 * D; only hand-built diagrams are factored
        d = s.seed_traces[0].D if s.seed_traces is not None else 0
        m = isqrt(disc // d) if d else 0
        if m * m * d != disc:
            m, d = _square_free_split(disc)
        lam = QuadElement(Fraction(tr, 2), Fraction(m, 2), d)
        v1 = (lam - b11) / Fraction(b01)
    return PFData(lam, (v1, Fraction(1) if isinstance(v1, Fraction) else QuadElement.rational(1, d)))


def stationary_k0(s: StationaryDiagram) -> DimensionGroup:
    """Dimension group of a stationary diagram, with real embedding when possible.

    The embedding exists for a primitive 2x2 matrix with irrational Perron
    eigenvalue and determinant +-1: the limit of Z^2 under B then lands in R
    as the rank-2 module spanned by the trace pair (the diagram's own exact
    pair when present, otherwise the left eigenvector normalized to (v, 1)).

    A 2x2 diagram whose determinant is not +-1 has a limit that is not
    finitely generated (denominators pile up), which this representation
    cannot carry: UnsupportedDiagramError.  Everything else (larger size,
    rational eigenvalue, non-primitive matrix) degrades to a presentation-only
    group with real_embedding and eigenvalue None.
    """
    n = len(s.B)
    if n == 2 and _is_primitive(s.B):
        data = _pf_exact_2x2(s)
        if isinstance(data.eigenvalue, QuadElement):
            det = s.B[0][0] * s.B[1][1] - s.B[0][1] * s.B[1][0]
            if det not in (1, -1):
                raise UnsupportedDiagramError(
                    f"determinant {det} is not a unit; the K0 limit is not a "
                    f"finitely generated subgroup of R"
                )
            if s.seed_traces is not None:
                gens: tuple = s.seed_traces
            else:
                gens = data.eigenvector
            return DimensionGroup(2, s.B, RealModule.span(*gens), data.eigenvalue)
    return DimensionGroup(n, s.B, None)


def shift_action_check(s: StationaryDiagram) -> bool:
    """True iff multiplying the embedded K0 module by lambda maps it onto itself."""
    from kzero.coherence import module_equal, module_scale

    group = stationary_k0(s)
    if group.real_embedding is None:
        raise UnsupportedDiagramError("diagram has no real embedding to act on")
    module = group.real_embedding
    return module_equal(module_scale(module, group.eigenvalue), module)

