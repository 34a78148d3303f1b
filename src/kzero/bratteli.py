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
    "PFInterval",
    "NotPrimitiveError",
    "UnsupportedDiagramError",
    "propagate_dimensions",
    "uhf_diagram",
    "uhf_k0_membership",
    "effros_shen",
    "period_fold",
    "pf_data",
    "stationary_k0",
    "shift_action_check",
    "serialize_stationary",
    "parse_stationary",
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


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(a[0]) != len(v):
        raise ValueError(f"matrix is {len(a)}x{len(a[0])} but vector has length {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _is_primitive(b: Matrix) -> bool:
    """Wielandt test: B is primitive iff B^(n^2-2n+2) is strictly positive."""
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("primitivity is defined for square matrices")
    reach = tuple(tuple(1 if x else 0 for x in row) for row in b)
    power = n * n - 2 * n + 2
    acc: Matrix | None = None
    base = reach
    e = power
    while e:
        if e & 1:
            acc = base if acc is None else _bool_mul(acc, base)
        base = _bool_mul(base, base)
        e >>= 1
    assert acc is not None
    return all(all(row) for row in acc)


def _bool_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(b)
    return tuple(
        tuple(1 if any(a[i][k] and b[k][j] for k in range(n)) else 0 for j in range(len(b[0])))
        for i in range(len(a))
    )


# -- diagram types -------------------------------------------------------------


@dataclass(frozen=True)
class MatrixAlgebraList:
    """Block sizes (n_1, ..., n_k) of a direct sum of matrix algebras."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be a nonempty list of positive integers")

    @property
    def total_dimension(self) -> int:
        return sum(s * s for s in self.sizes)


@dataclass(frozen=True)
class BratteliDiagram:
    """Levels of block sizes joined by partial multiplicity matrices.

    Matrix i has shape (blocks at level i+1) x (blocks at level i) and must
    satisfy sizes_{i+1} >= B_i * sizes_i componentwise; steps where equality
    holds are the unital embeddings, recorded by `unital_steps`.
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

    def unital_steps(self) -> tuple[bool, ...]:
        out = []
        for i, b in enumerate(self.multiplicities):
            out.append(_mat_vec(b, self.levels[i].sizes) == self.levels[i + 1].sizes)
        return tuple(out)


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

    def as_bratteli(self, steps: int) -> BratteliDiagram:
        """Unfold `steps` applications of B into an explicit diagram."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        levels = [self.seed]
        for _ in range(steps):
            levels.append(MatrixAlgebraList(_mat_vec(self.B, levels[-1].sizes)))
        return BratteliDiagram(tuple(levels), (self.B,) * steps)

    def telescoped(self, k: int) -> "StationaryDiagram":
        """Merge k consecutive steps into one (matrix B^k, same seed)."""
        if k < 1:
            raise ValueError("telescoping factor must be >= 1")
        b = _identity(len(self.B))
        for _ in range(k):
            b = _mat_mul(self.B, b)
        return StationaryDiagram(b, self.seed, self.period_length * k, self.seed_traces)


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


def propagate_dimensions(d: BratteliDiagram, v: Sequence[int]) -> tuple[int, ...]:
    """Push a level-0 dimension vector through every multiplicity matrix."""
    vec = tuple(int(x) for x in v)
    if len(vec) != len(d.levels[0].sizes):
        raise ValueError(f"vector length {len(vec)} does not match level 0 size "
                         f"{len(d.levels[0].sizes)}")
    if any(x < 0 for x in vec):
        raise ValueError("dimension vector entries must be nonnegative")
    for b in d.multiplicities:
        vec = _mat_vec(b, vec)
    return vec


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


def _block(a: int) -> Matrix:
    return ((a, 1), (1, 0))


def period_fold(quotients: Sequence[int]) -> Matrix:
    """Product of the elementary blocks [[a,1],[1,0]] over one period.

    The product is taken in dimension-propagation order: the block of the
    first quotient is applied first, so the result is
    block(a_L) * ... * block(a_1).
    """
    if not quotients or any(a < 1 for a in quotients):
        raise ValueError("period quotients must be positive")
    b = _identity(2)
    for a in quotients:
        b = _mat_mul(_block(a), b)
    return b


def effros_shen(theta: QuadElement) -> StationaryDiagram:
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
    """
    if theta.b == 0:
        raise ValueError("theta must be irrational")
    if theta.D < 0:
        raise ValueError("theta must be real")
    frac_part = theta - theta.floor()
    cf = contfrac.expand(frac_part)
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
    assert value.sign() > 0
    return value


class PFInterval(NamedTuple):
    """Certified enclosure lo <= lambda <= hi with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


class PFData(NamedTuple):
    """Perron eigenvalue and a positive left eigenvector.

    2x2 matrices get an exact eigenvalue (QuadElement, or Fraction when the
    characteristic discriminant is a perfect square) and an exact eigenvector
    normalized to last coordinate 1.  Larger matrices get a PFInterval from
    the Collatz-Wielandt bounds and the final rational iterate.
    """

    eigenvalue: Union[QuadElement, Fraction, PFInterval]
    eigenvector: tuple


def pf_data(s: StationaryDiagram, tol: Fraction = Fraction(1, 10 ** 8)) -> PFData:
    """Perron-Frobenius data of the stationary matrix; rejects non-primitive B."""
    b = s.B
    if not _is_primitive(b):
        raise NotPrimitiveError(f"matrix {b} is not primitive")
    if len(b) == 2:
        return _pf_exact_2x2(s)
    return _pf_certified(b, tol)


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
    assert disc > 0 and b01 > 0
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


def _pf_certified(b: Matrix, tol: Fraction) -> PFData:
    n = len(b)
    x = [Fraction(1)] * n
    lo, hi = Fraction(0), Fraction(10 ** 9)
    for _ in range(10_000):
        # left iteration: y_j = sum_i x_i B_ij
        y = [sum(x[i] * b[i][j] for i in range(n)) for j in range(n)]
        ratios = [y[j] / x[j] for j in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < tol:
            break
        top = max(y)
        x = [(v / top).limit_denominator(10 ** 12) for v in y]
        if any(v <= 0 for v in x):  # limit_denominator can touch 0 only if y did
            raise AssertionError("positive iterate degenerated")
    return PFData(PFInterval(lo, hi), tuple(x))


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


# -- serialization ---------------------------------------------------------------


def serialize_stationary(s: StationaryDiagram) -> str:
    """Text record of seed sizes, matrix rows, and period length; bit-exact."""
    lines = ["seed\t" + "\t".join(str(x) for x in s.seed.sizes)]
    for row in s.B:
        lines.append("row\t" + "\t".join(str(x) for x in row))
    lines.append(f"period\t{s.period_length}")
    return "\n".join(lines) + "\n"


def parse_stationary(text: str) -> StationaryDiagram:
    """Inverse of serialize_stationary (trace data is not serialized)."""
    seed: MatrixAlgebraList | None = None
    rows: list[tuple[int, ...]] = []
    period = 1
    for line in text.splitlines():
        if not line.strip():
            continue
        tag, *fields = line.split("\t")
        if tag == "seed":
            seed = MatrixAlgebraList(tuple(int(x) for x in fields))
        elif tag == "row":
            rows.append(tuple(int(x) for x in fields))
        elif tag == "period":
            period = int(fields[0])
        else:
            raise ValueError(f"unknown record tag {tag!r}")
    if seed is None or not rows:
        raise ValueError("record must contain a seed line and at least one row")
    return StationaryDiagram(tuple(rows), seed, period)
