"""Group algebra decompositions and profinite tower combinatorics.

A finite group's complex group algebra splits into matrix blocks whose sizes
are the irreducible degrees; `RepDegreeProfile` records that multiset and
refuses to exist unless the Burnside identity sum(d^2) = |G| holds.  Cyclic
groups give all-ones profiles; SL2(F_p) for odd p gets the classical degree
table.

`ProfiniteTower` stacks the cyclic profiles of Z/p^i with the 0/1 connecting
maps obtained by pulling functions back along the reductions
Z/p^(i+1) -> Z/p^i: block m upstairs sits over block m mod p^i, so every
connecting matrix has row sums 1 and column sums p.  Such a matrix is stored
sparsely as its parent array; at p = 13 and depth 4 the dense form would
have 28561 x 2197 entries for no benefit.

Those two sums are the whole invariant, and they already give
self-similarity, the shadow of shift-invariance: the tower shifted up by one
level is p disjoint copies of the unshifted one.  Row sums 1 make the maps a
forest and column sums p give every block exactly p children, so each block
roots a complete p-ary tree, and levels [1, w+1] are p copies of levels
[0, w] for every w.  No isomorphism search is needed, and none is run.

Note the division of labor: `cyclic_tower` guarantees the column-sum
invariant, but `ProfiniteTower` itself only checks shapes, so tests can
build deliberately corrupted towers as negative controls; `validate_tower`
re-checks the full invariant for data from elsewhere.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from kzero import Frozen
from kzero.primes import is_prime, sieve

__all__ = [
    "RepDegreeProfile",
    "ConnectingMap",
    "ProfiniteTower",
    "RestrictedProductSpec",
    "cyclic_profile",
    "sl2_degree_profile",
    "cyclic_tower",
    "validate_tower",
    "assemble_restricted_product",
]


class RepDegreeProfile(Frozen):
    """Multiset of irreducible degrees of a finite group, Burnside-checked."""

    __slots__ = ("group_label", "order", "degrees")

    def __init__(self, group_label: str, order: int, degrees: Iterable[int]) -> None:
        degrees = tuple(sorted(int(d) for d in degrees))
        if order < 1 or any(d < 1 for d in degrees):
            raise ValueError("order and degrees must be positive")
        if sum(d * d for d in degrees) != order:
            raise ValueError(
                f"Burnside identity fails for {group_label}: "
                f"sum of squared degrees {sum(d * d for d in degrees)} != order {order}"
            )
        object.__setattr__(self, "group_label", group_label)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "degrees", degrees)


class ConnectingMap(Frozen):
    """A 0/1 multiplicity matrix with exactly one 1 per row, stored sparsely.

    Row r has its 1 in column parent[r].  Row count is len(parent); the
    column count is explicit since trailing empty columns are meaningful.
    """

    __slots__ = ("parent", "cols")

    def __init__(self, parent: Iterable[int], cols: int) -> None:
        parent = tuple(int(x) for x in parent)
        if cols < 1 or not parent:
            raise ValueError("connecting map must have at least one row and column")
        if any(c < 0 or c >= cols for c in parent):
            raise ValueError("parent index out of column range")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "cols", cols)

    @property
    def rows(self) -> int:
        return len(self.parent)

    def column_sums(self) -> tuple[int, ...]:
        sums = [0] * self.cols
        for c in self.parent:
            sums[c] += 1
        return tuple(sums)


class ProfiniteTower(Frozen):
    """Levels of block profiles joined by sparse 0/1 connecting maps.

    Construction checks shapes only; see `validate_tower` for the full
    column-sum invariant of the cyclic model.
    """

    __slots__ = ("prime", "levels", "connecting")

    def __init__(self, prime: int, levels: Iterable[RepDegreeProfile],
                 connecting: Iterable[ConnectingMap]) -> None:
        levels, connecting = tuple(levels), tuple(connecting)
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if len(connecting) != len(levels) - 1:
            raise ValueError("need one connecting map per consecutive level pair")
        for i, cm in enumerate(connecting):
            if cm.cols != len(levels[i].degrees) or cm.rows != len(levels[i + 1].degrees):
                raise ValueError(f"connecting map {i} shape does not match its levels")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "connecting", connecting)


def cyclic_profile(n: int) -> RepDegreeProfile:
    """All irreducible degrees of an abelian group of order n are 1."""
    if n < 1:
        raise ValueError("group order must be positive")
    return RepDegreeProfile(f"Z/{n}", n, (1,) * n)


def sl2_degree_profile(p: int) -> RepDegreeProfile:
    """Irreducible degrees of SL2(F_p) for an odd prime p.

    The multiset is {1, p, p+1 with multiplicity (p-3)/2, p-1 with
    multiplicity (p-1)/2, (p+1)/2 twice, (p-1)/2 twice}; there are p+4
    degrees in all and their squares sum to the group order p(p^2-1).
    """
    if p == 2:
        raise ValueError("p = 2 is unsupported; the degree table assumes p odd")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degrees = (
        [1, p]
        + [p + 1] * ((p - 3) // 2)
        + [p - 1] * ((p - 1) // 2)
        + [(p + 1) // 2] * 2
        + [(p - 1) // 2] * 2
    )
    return RepDegreeProfile(f"SL2(F_{p})", p * (p * p - 1), tuple(degrees))


def cyclic_tower(p: int, depth: int) -> ProfiniteTower:
    """Tower of Z/p^i for i = 0..depth with pullback connecting maps.

    Functions on Z/p^i pull back along the reduction Z/p^(i+1) -> Z/p^i, so
    block m at level i+1 lies over block m mod p^i: row sums 1, column sums p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels = tuple(cyclic_profile(p ** i) for i in range(depth + 1))
    connecting = tuple(
        ConnectingMap(tuple(m % p ** i for m in range(p ** (i + 1))), p ** i)
        for i in range(depth)
    )
    return ProfiniteTower(p, levels, connecting)


def validate_tower(t: ProfiniteTower) -> None:
    """Check the cyclic-model invariant: level i has order p^i, column sums p."""
    for i, lv in enumerate(t.levels):
        if lv.order != t.prime ** i:
            raise ValueError(f"level {i} has order {lv.order}, expected {t.prime ** i}")
    for i, cm in enumerate(t.connecting):
        sums = cm.column_sums()
        if any(s != t.prime for s in sums):
            raise ValueError(f"connecting map {i} has column sums {sums}, expected all {t.prime}")


class RestrictedProductSpec(NamedTuple):
    """Per-prime factor descriptors of a restricted product, keyed by prime."""

    ramified: frozenset[int]
    factors: dict[int, ProfiniteTower]


def assemble_restricted_product(
    ramified: Iterable[int],
    p_bound: int,
    depth: int = 2,
) -> RestrictedProductSpec:
    """Collect cyclic towers at every unramified prime up to p_bound.

    The ramified set must consist of primes; unramified primes get the
    generic cyclic tower of the given depth.
    """
    if depth < 1:  # refused here too, since no tower is built when every prime is ramified
        raise ValueError("depth must be >= 1")
    ram = frozenset(int(p) for p in ramified)
    for p in sorted(ram):
        if not is_prime(p):
            raise ValueError(f"ramified set contains non-prime {p}")
    factors = {p: cyclic_tower(p, depth) for p in sieve(p_bound) if p not in ram}
    return RestrictedProductSpec(ram, factors)
