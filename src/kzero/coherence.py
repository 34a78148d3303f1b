"""Finitely generated subgroups of R spanned by quadratic-field elements.

A RealModule is Z*g1 + ... + Z*gm (m <= 2) where each generator is either a
rational number or an element of one fixed field Q(sqrt(D)).  Working in
coordinates over the basis {1, sqrt(D)} turns membership into exact rational
linear algebra: a module has a canonical Hermite-form basis, and containment
asks whether a generator's coordinate vector is an integer combination of
basis rows.  Everything is decidable and no tolerance appears anywhere.

Modules over different irrational fields are deliberately incomparable:
asking whether Z+Z*sqrt(2) contains Z+Z*sqrt(3) raises instead of returning
false, since downstream checks would silently pass on such category errors.
Purely rational modules embed into every field.

On top of the module layer sit the checks this package exists for:
`k0_automorphic` (Z+Z*omega), the degree-indexed `TraceCohomology` table for
the CM curves, the coherence containment test over all degrees, and the
equality of the Effros-Shen dimension group with Z+Z*omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from kzero.quadfield import QuadElement, is_squarefree, omega_of

Scalar = Union[int, Fraction, QuadElement]

__all__ = [
    "RealModule",
    "TraceCohomology",
    "IncomparableFieldsError",
    "module_contains",
    "module_equal",
    "module_scale",
    "k0_automorphic",
    "trace_cohomology_ecm",
    "g_coherence_check",
    "effros_shen_coherence",
]


class IncomparableFieldsError(ValueError):
    """Raised when two modules live in different irrational fields."""


def _coord_pair(g: Scalar) -> tuple[Fraction, Fraction, Optional[int]]:
    # returns (coordinate on 1, coordinate on sqrt(D), D or None for rational)
    if isinstance(g, QuadElement):
        if g.b == 0:
            return g.a, Fraction(0), None
        return g.a, g.b, g.D
    return Fraction(g), Fraction(0), None


@dataclass(frozen=True)
class RealModule:
    """Z-span of at most two generators inside R.

    D is the ambient field marker: a square-free integer > 1 for Q(sqrt(D)),
    or None for a purely rational module.  Generators may always include
    rationals; irrational generators must match D.
    """

    D: Optional[int]
    generators: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.D is not None:
            if self.D <= 1 or not is_squarefree(self.D):
                raise ValueError(f"ambient D must be square-free and > 1, got {self.D}")
        if len(self.generators) > 2:
            raise ValueError("rank > 2 modules are not supported")
        for g in self.generators:
            _, b, d = _coord_pair(g)
            if d is not None and d != self.D:
                raise ValueError(f"generator in Q(sqrt({d})) does not match ambient D={self.D}")

    @staticmethod
    def span(*generators: Scalar) -> "RealModule":
        """Module spanned by the given generators; ambient field inferred."""
        field = None
        for g in generators:
            _, _, d = _coord_pair(g)
            if d is not None:
                if field is not None and field != d:
                    raise IncomparableFieldsError(f"generators mix Q(sqrt({field})) and Q(sqrt({d}))")
                field = d
        return RealModule(field, tuple(generators))

    def coords(self) -> list[tuple[Fraction, Fraction]]:
        """Generator coordinates over {1, sqrt(D)}."""
        return [(_coord_pair(g)[0], _coord_pair(g)[1]) for g in self.generators]

    def basis(self) -> list[tuple[Fraction, Fraction]]:
        """Canonical (Hermite-form) basis rows; length = rank."""
        rows = [rc for rc in self.coords() if rc != (0, 0)]
        if not rows:
            return []
        # clear denominators: work with integer rows over a common scale 1/L
        denom = 1
        for x, y in rows:
            denom = denom * x.denominator // gcd(denom, x.denominator)
            denom = denom * y.denominator // gcd(denom, y.denominator)
        int_rows = [(int(x * denom), int(y * denom)) for x, y in rows]
        e, f, g = _hnf_two_columns(int_rows)
        out: list[tuple[Fraction, Fraction]] = []
        if e:
            out.append((Fraction(e, denom), Fraction(f, denom)))
        if g:
            out.append((Fraction(0), Fraction(g, denom)))
        return out

    @property
    def rank(self) -> int:
        return len(self.basis())


def _hnf_two_columns(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite normal form of an integer matrix with two columns.

    Returns (e, f, g) meaning basis rows (e, f) and (0, g), with e, g >= 0
    (zero when the corresponding rank is missing) and 0 <= f < g when both
    are present.
    """
    pivot: tuple[int, int] | None = None
    tail: list[int] = []
    for a, b in rows:
        cur = (a, b)
        while True:
            if cur[0] == 0:
                if cur[1]:
                    tail.append(cur[1])
                break
            if pivot is None:
                pivot = cur
                break
            # euclidean step on first coordinates
            if abs(cur[0]) < abs(pivot[0]):
                pivot, cur = cur, pivot
            k = cur[0] // pivot[0]
            cur = (cur[0] - k * pivot[0], cur[1] - k * pivot[1])
    g = 0
    for t in tail:
        g = gcd(g, t)
    if pivot is None:
        return 0, 0, g
    e, f = pivot
    if e < 0:
        e, f = -e, -f
    if g:
        f %= g
    return e, f, g


def _ambient(M: RealModule, N: RealModule) -> None:
    if M.D is not None and N.D is not None and M.D != N.D:
        raise IncomparableFieldsError(
            f"modules in Q(sqrt({M.D})) and Q(sqrt({N.D})) are not comparable"
        )


def module_contains(M: RealModule, N: RealModule) -> bool:
    """True iff every generator of N is an integer combination of M's basis.

    Rational modules embed into any field; two genuinely irrational ambient
    fields must agree or the comparison is refused.
    """
    _ambient(M, N)
    basis = M.basis()
    for x, y in N.coords():
        if not _in_span(basis, x, y):
            return False
    return True


def _in_span(basis: list[tuple[Fraction, Fraction]], x: Fraction, y: Fraction) -> bool:
    if not basis:
        return x == 0 and y == 0
    if len(basis) == 2:
        # alpha is forced by the first coordinate since the second row starts with 0
        (e, f), (_, g) = basis
        alpha = x / e
        if alpha.denominator != 1:
            return False
        beta = (y - alpha * f) / g
        return beta.denominator == 1
    (e, f) = basis[0]
    if e:
        alpha = x / e
        return alpha.denominator == 1 and alpha * f == y
    if x != 0:
        return False
    alpha = y / f
    return alpha.denominator == 1


def module_equal(M: RealModule, N: RealModule) -> bool:
    """Equality as subsets of R: mutual containment."""
    return module_contains(M, N) and module_contains(N, M)


def module_scale(M: RealModule, c: Scalar) -> RealModule:
    """The module c*M = {c*x : x in M}; c must be a nonzero field element."""
    cu, cv, cd = _coord_pair(c)
    if cu == 0 and cv == 0:
        raise ValueError("scaling by zero collapses the module")
    field = M.D if cd is None else cd
    if M.D is not None and cd is not None and M.D != cd:
        raise IncomparableFieldsError("scalar lives in a different field than the module")
    gens = []
    for g in M.generators:
        if isinstance(g, QuadElement):
            gens.append(g * (c if isinstance(c, QuadElement) else Fraction(c)))
        elif isinstance(c, QuadElement):
            gens.append(c * Fraction(g))
        else:
            gens.append(Fraction(g) * Fraction(c))
    return RealModule(field, tuple(gens))


def z_module() -> RealModule:
    """The integers as a rational RealModule."""
    return RealModule(None, (Fraction(1),))


def k0_automorphic(D: int) -> RealModule:
    """Z + Z*omega for the real field Q(sqrt(D))."""
    w = omega_of(D)
    return RealModule(D, (Fraction(1), w))


@dataclass(frozen=True)
class TraceCohomology:
    """Degree-indexed list of real modules, degrees 0..2n.

    The length is odd and the end degrees have rank 1.
    """

    modules: tuple[RealModule, ...]

    def __post_init__(self) -> None:
        if len(self.modules) % 2 != 1:
            raise ValueError("degree range 0..2n has odd length")
        if self.modules[0].rank != 1 or self.modules[-1].rank != 1:
            raise ValueError("extreme degrees must have rank 1")


def trace_cohomology_ecm(D: int) -> TraceCohomology:
    """Degree table [Z, Z+Z*omega, Z] for the CM curve attached to D.

    Only table discriminants with D > 1 are supported; D = 1 has no real
    quadratic side to compare against.
    """
    from kzero import elliptic  # deferred: avoid loading numpy for module algebra alone

    supported = [d for d in elliptic.cm_table_discriminants() if d > 1]
    if D not in supported:
        raise ValueError(f"unsupported discriminant {D}; supported: {supported}")
    return TraceCohomology((z_module(), k0_automorphic(D), z_module()))


def g_coherence_check(H: TraceCohomology, K0: RealModule) -> bool:
    """True iff every degree of H is contained in K0."""
    return all(module_contains(K0, m) for m in H.modules)


def effros_shen_coherence(D: int) -> bool:
    """True iff the Effros-Shen dimension group of frac(omega) equals Z+Z*omega.

    The diagram is built from the continued fraction of omega minus its
    integer part; its stationary K0 real embedding is then compared, as a
    subgroup of R, with Z+Z*omega.  Exact arithmetic end to end.
    """
    from kzero import bratteli  # deferred: bratteli imports this module

    group = bratteli.stationary_k0(bratteli.effros_shen(omega_of(D)))
    assert group.real_embedding is not None
    return module_equal(group.real_embedding, k0_automorphic(D))
