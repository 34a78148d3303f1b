"""The Effros-Shen dimension group of omega is Z + Z*omega as an ordered group.

K0 of an AF algebra is an ordered group with an order unit, and that triple
is its complete invariant (Elliott, "On the classification of inductive
limits of sequences of semisimple finite-dimensional algebras", J. Algebra
38, 1976).  Effros and Shen ("Approximately finite C*-algebras and continued
fractions", Indiana Univ. Math. J. 29, 1980) identify the group of the
algebra of theta with Z + Z*theta, ordered as a subgroup of R.

`bratteli.stationary_k0` embeds the group in R by the unital trace
tau = v / (v . seed), v the Perron eigenvector of B, so the group lands on
Z*tau_0 + Z*tau_1.  The check is in integers on tau's coordinates in the
basis {1, omega}:

- the set: both coordinate rows are integers and their determinant is
  +-1, so Z*tau_0 + Z*tau_1 = Z + Z*omega;
- the order: tau_0 > 0 and tau_1 > 0, so the positive cone Z_+^2 of the
  seed level maps into the positive reals.  The set Z + Z*omega is
  Galois-stable, so only this half tells B's Perron eigenvector from its
  conjugate, whose trace gives the same set with a negative entry;
- the unit: seed . tau = 1 holds by the normalisation, so the class of the
  unit maps to 1 and is not checked again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from kzero import bratteli
from kzero.quadfield import QuadElement, omega_of, order_coordinates

if TYPE_CHECKING:
    from kzero.contfrac import PeriodicCF

__all__ = ["is_positive_basis", "effros_shen_coherence"]


def is_positive_basis(tau: tuple[QuadElement, QuadElement]) -> bool:
    """True iff tau_0, tau_1 > 0 and Z*tau_0 + Z*tau_1 = Z + Z*omega, in tau's one real field."""
    if tau[0].D != tau[1].D:
        raise ValueError(f"the pair mixes Q(sqrt({tau[0].D})) and Q(sqrt({tau[1].D}))")
    rows = [order_coordinates(t) for t in tau]
    if None in rows:
        return False
    (a, b), (c, d) = rows
    return a * d - b * c in (1, -1) and tau[0].sign() > 0 and tau[1].sign() > 0


def effros_shen_coherence(D: int, cf: Optional[PeriodicCF] = None) -> bool:
    """True iff the Effros-Shen dimension group of omega is Z+Z*omega, ordered.

    The diagram is built from the continued fraction of omega minus its
    integer part, and its trace pair tau, read off B, must be a positive
    basis of Z + Z*omega.  A caller that already holds omega's expansion
    passes it as `cf`.
    """
    group = bratteli.stationary_k0(bratteli.effros_shen(omega_of(D), cf))
    return is_positive_basis(group.real_embedding)
