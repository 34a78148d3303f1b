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

Self-similarity is the testable shadow of shift-invariance: the tower shifted
up by one level is isomorphic, as a sequence of bipartite graphs up to block
permutation, to p disjoint copies of the unshifted tower.  The isomorphism
search is done by canonical bottom-up tree codes, which classify these
row-sum-1 forests completely.

Note the division of labor: `cyclic_tower` guarantees the column-sum
invariant, but `ProfiniteTower` itself only checks shapes, so tests can
build deliberately corrupted towers as negative controls; `validate_tower`
re-checks the full invariant for data from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from kzero.bratteli import StationaryDiagram
from kzero.primes import is_prime

__all__ = [
    "RepDegreeProfile",
    "ConnectingMap",
    "ProfiniteTower",
    "RestrictedProductSpec",
    "cyclic_profile",
    "sl2_degree_profile",
    "cyclic_tower",
    "validate_tower",
    "self_similarity_check",
    "assemble_restricted_product",
    "serialize_restricted_product",
]


@dataclass(frozen=True)
class RepDegreeProfile:
    """Multiset of irreducible degrees of a finite group, Burnside-checked."""

    group_label: str
    order: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(sorted(int(d) for d in self.degrees)))
        if self.order < 1 or any(d < 1 for d in self.degrees):
            raise ValueError("order and degrees must be positive")
        if sum(d * d for d in self.degrees) != self.order:
            raise ValueError(
                f"Burnside identity fails for {self.group_label}: "
                f"sum of squared degrees {sum(d * d for d in self.degrees)} != order {self.order}"
            )


@dataclass(frozen=True)
class ConnectingMap:
    """A 0/1 multiplicity matrix with exactly one 1 per row, stored sparsely.

    Row r has its 1 in column parent[r].  Row count is len(parent); the
    column count is explicit since trailing empty columns are meaningful.
    """

    parent: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent", tuple(int(x) for x in self.parent))
        if self.cols < 1 or not self.parent:
            raise ValueError("connecting map must have at least one row and column")
        if any(c < 0 or c >= self.cols for c in self.parent):
            raise ValueError("parent index out of column range")

    @property
    def rows(self) -> int:
        return len(self.parent)

    def column_sums(self) -> tuple[int, ...]:
        sums = [0] * self.cols
        for c in self.parent:
            sums[c] += 1
        return tuple(sums)


@dataclass(frozen=True)
class ProfiniteTower:
    """Levels of block profiles joined by sparse 0/1 connecting maps.

    Construction checks shapes only; see `validate_tower` for the full
    column-sum invariant of the cyclic model.
    """

    prime: int
    levels: tuple[RepDegreeProfile, ...]
    connecting: tuple[ConnectingMap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "connecting", tuple(self.connecting))
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if len(self.connecting) != len(self.levels) - 1:
            raise ValueError("need one connecting map per consecutive level pair")
        for i, cm in enumerate(self.connecting):
            if cm.cols != len(self.levels[i].degrees) or cm.rows != len(self.levels[i + 1].degrees):
                raise ValueError(f"connecting map {i} shape does not match its levels")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


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
    tower = ProfiniteTower(p, levels, connecting)
    validate_tower(tower)
    return tower


def validate_tower(t: ProfiniteTower) -> None:
    """Check the cyclic-model invariant: level i has order p^i, column sums p."""
    for i, lv in enumerate(t.levels):
        if lv.order != t.prime ** i:
            raise ValueError(f"level {i} has order {lv.order}, expected {t.prime ** i}")
    for i, cm in enumerate(t.connecting):
        sums = cm.column_sums()
        if any(s != t.prime for s in sums):
            raise ValueError(f"connecting map {i} has column sums {sums}, expected all {t.prime}")


_LEAF = -1


def _segment_root_codes(maps: list[ConnectingMap], intern: dict[tuple, int]) -> list[int]:
    # canonical codes for the forest spanned by a stack of connecting maps;
    # returns the codes of the top-level (root) blocks
    codes = [_LEAF] * maps[-1].rows
    for cm in reversed(maps):
        children: list[list[int]] = [[] for _ in range(cm.cols)]
        for r, c in enumerate(cm.parent):
            children[c].append(codes[r])
        codes = [intern.setdefault(tuple(sorted(ch)), len(intern)) for ch in children]
    return codes


def self_similarity_check(t: ProfiniteTower, window: int) -> bool:
    """Shift-by-one self-similarity of the tower over a window of levels.

    True iff levels [1, window+1] form a diagram isomorphic, up to block
    permutation, to p disjoint copies of levels [0, window].  Isomorphism of
    these forests is decided by comparing canonical code multisets.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if t.depth < window + 1:
        raise ValueError(f"tower depth {t.depth} is too shallow for window {window}")
    intern: dict[tuple, int] = {}
    shifted = _segment_root_codes(list(t.connecting[1 : window + 1]), intern)
    base = _segment_root_codes(list(t.connecting[0:window]), intern)
    return sorted(shifted) == sorted(base * t.prime)


@dataclass(frozen=True)
class RestrictedProductSpec:
    """Per-prime factor descriptors plus one distinguished infinite-place factor."""

    ramified: frozenset[int]
    factors: dict[int, ProfiniteTower]
    infinite_factor: StationaryDiagram


def assemble_restricted_product(
    ramified: Iterable[int],
    p_bound: int,
    infinite_seed: StationaryDiagram,
    depth: int = 2,
) -> RestrictedProductSpec:
    """Collect validated cyclic towers at every unramified prime up to p_bound.

    The ramified set must consist of primes; unramified primes get the
    generic cyclic tower of the given depth, which `cyclic_tower` has
    validated.
    """
    ram = frozenset(int(p) for p in ramified)
    for p in sorted(ram):
        if not is_prime(p):
            raise ValueError(f"ramified set contains non-prime {p}")
    factors: dict[int, ProfiniteTower] = {}
    p = 2
    while p <= p_bound:
        if p not in ram:
            factors[p] = cyclic_tower(p, depth)
        p += 1
        while p <= p_bound and not is_prime(p):
            p += 1
    return RestrictedProductSpec(ram, factors, infinite_seed)


def serialize_restricted_product(spec: RestrictedProductSpec) -> str:
    """One text record per prime, then the infinite-place record."""
    lines = ["ramified\t" + (",".join(str(p) for p in sorted(spec.ramified)) or "-")]
    for p in sorted(spec.factors):
        tower = spec.factors[p]
        sizes = ",".join(str(lv.order) for lv in tower.levels)
        lines.append(f"factor\t{p}\tlevels\t{sizes}")
    inf = spec.infinite_factor
    matrix = ";".join(",".join(str(x) for x in row) for row in inf.B)
    seed = ",".join(str(x) for x in inf.seed.sizes)
    lines.append(f"infinite\tseed\t{seed}\tmatrix\t{matrix}\tperiod\t{inf.period_length}")
    return "\n".join(lines) + "\n"
