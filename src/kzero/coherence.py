"""Finitely generated subgroups of R spanned by quadratic-field elements.

A RealModule is Z*g1 + ... + Z*gm (m <= 2) where each generator is either a
rational number or an element of one fixed field Q(sqrt(D)).  Working in
coordinates over the basis {1, sqrt(D)} turns equality into exact integer
linear algebra: the generators' rational coordinates are put over one common
denominator, the integer rows get a canonical Hermite-form basis, and two
modules are equal iff their bases are.  Everything is decidable and no
tolerance appears anywhere.

Modules over different irrational fields are deliberately incomparable:
asking whether Z+Z*sqrt(2) equals Z+Z*sqrt(3) raises instead of returning
false, since downstream checks would silently pass on such category errors.
Purely rational modules embed into every field.

On top of the module layer sit the checks this package exists for:
`k0_automorphic` (Z+Z*omega) and the equality of the Effros-Shen dimension
group, embedded by the trace read off its matrix B, with Z+Z*omega.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Optional, Union

from kzero import Frozen
from kzero.quadfield import QuadElement, omega_of

if TYPE_CHECKING:
    from kzero.contfrac import PeriodicCF

Scalar = Union[int, Fraction, QuadElement]

__all__ = [
    "RealModule",
    "IncomparableFieldsError",
    "module_equal",
    "k0_automorphic",
    "effros_shen_coherence",
]


class IncomparableFieldsError(ValueError):
    """Raised when two modules live in different irrational fields."""


class RealModule(Frozen):
    """Z-span of at most two generators inside R.

    D, the ambient field, is read off the generators, which were checked when
    built, or is None when all are rational.  Generators of two fields raise
    `IncomparableFieldsError`; an imaginary field is refused.
    """

    __slots__ = ("D", "generators")

    def __init__(self, *generators: Scalar) -> None:
        if len(generators) > 2:
            raise ValueError("rank > 2 modules are not supported")
        fields = [g.D for g in generators if isinstance(g, QuadElement) and g.y]
        if len(set(fields)) > 1:
            raise IncomparableFieldsError(f"generators mix Q(sqrt({fields[0]})) and Q(sqrt({fields[1]}))")
        if fields and fields[0] < 0:
            raise ValueError(f"Q(sqrt({fields[0]})) is not a real field")
        object.__setattr__(self, "D", fields[0] if fields else None)
        object.__setattr__(self, "generators", generators)

    def coords(self) -> list[tuple[Fraction, Fraction]]:
        """Generator coordinates over {1, sqrt(D)}."""
        return [(g.a, g.b) if isinstance(g, QuadElement) else (Fraction(g), Fraction(0))
                for g in self.generators]

    def basis(self) -> list[tuple[Fraction, Fraction]]:
        """Canonical (Hermite-form) basis rows; length = rank."""
        return _hermite_basis(self.coords())

    @property
    def rank(self) -> int:
        return len(self.basis())


def _hermite_basis(rows: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Canonical (Hermite-form) basis of the Z-span of coordinate rows.

    The span of rational rows is a lattice of rank <= 2, and this basis is
    the only one of its shape, so two spans are equal iff their bases are.
    """
    rows = [rc for rc in rows if rc != (0, 0)]
    if not rows:
        return []
    # clear denominators: integer rows over the common scale 1/denom
    denom = lcm(*(c.denominator for row in rows for c in row))
    int_rows = [(x.numerator * (denom // x.denominator), y.numerator * (denom // y.denominator))
                for x, y in rows]
    e, f, g = _hnf_two_columns(int_rows)
    out: list[tuple[Fraction, Fraction]] = []
    if e:
        out.append((Fraction(e, denom), Fraction(f, denom)))
    if g:
        out.append((Fraction(0), Fraction(g, denom)))
    return out


def _hnf_two_columns(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite normal form of an integer matrix with two columns.

    Returns (e, f, g) meaning basis rows (e, f) and (0, g), with e, g >= 0
    (zero when the corresponding rank is missing) and 0 <= f < g when both
    are present.
    """
    pivot: tuple[int, int] | None = None
    g = 0  # gcd of the second coordinates of rows reduced to (0, y)
    for a, b in rows:
        cur = (a, b)
        while True:
            if cur[0] == 0:
                g = gcd(g, cur[1])
                break
            if pivot is None:
                pivot = cur
                break
            # euclidean step on first coordinates
            if abs(cur[0]) < abs(pivot[0]):
                pivot, cur = cur, pivot
            k = cur[0] // pivot[0]
            cur = (cur[0] - k * pivot[0], cur[1] - k * pivot[1])
    if pivot is None:
        return 0, 0, g
    e, f = pivot
    if e < 0:
        e, f = -e, -f
    if g:
        f %= g
    return e, f, g


def module_equal(M: RealModule, N: RealModule) -> bool:
    """Equality as subsets of R: equal canonical bases."""
    if M.D is not None and N.D is not None and M.D != N.D:
        raise IncomparableFieldsError(
            f"modules in Q(sqrt({M.D})) and Q(sqrt({N.D})) are not comparable"
        )
    return M.basis() == N.basis()


def k0_automorphic(D: int) -> RealModule:
    """Z + Z*omega for the real field Q(sqrt(D))."""
    return RealModule(Fraction(1), omega_of(D))


def effros_shen_coherence(D: int, cf: Optional[PeriodicCF] = None) -> bool:
    """True iff the Effros-Shen dimension group of frac(omega) equals Z+Z*omega.

    The diagram is built from the continued fraction of omega minus its
    integer part; its stationary K0 real embedding, spanned by the unital
    trace read off B, is then compared, as a subgroup of R, with Z+Z*omega.  Exact arithmetic end to end.  A caller
    that already holds omega's expansion passes it as `cf`.
    """
    from kzero import bratteli  # deferred: bratteli imports this module

    w = omega_of(D)
    group = bratteli.stationary_k0(bratteli.effros_shen(w, cf))
    return module_equal(group.real_embedding, RealModule(Fraction(1), w))
