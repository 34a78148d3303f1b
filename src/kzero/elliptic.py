"""Elliptic curves over Q reduced at good primes: counts, traces, local factors.

Point counting is the O(p) quadratic-character sum over x (vectorized with a
cached residue table per prime), which at desk scale doubles as its own
oracle.  Frobenius traces feed the local zeta factor
(1 - a_p t + p t^2)/((1-t)(1-p t)), whose formal logarithm is expanded with
exact rational series arithmetic and compared against the extension-field
point counts; the F_{p^2} count additionally has a brute-force oracle that
enumerates the quadratic extension explicitly.

The CM table carries one representative curve for each supported imaginary
quadratic field Q(sqrt(-D)), D in {1, 2, 3}, and `hecke_ap_cm` recomputes
a_p without any point counting: inert primes give 0, split primes are
represented by the norm form a^2 + D b^2 (Cornacchia descent) and the unit
ambiguity of the representation is resolved by a closed-form congruence
rule for each D (see `hecke_ap_cm`), so the two routes share no code.  p = 2
is always excluded, and every prime dividing the discriminant is bad.

A small append-only text cache maps (a4, a6, p) to a_p so repeated CLI runs
are byte-identical and cheap.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

import numpy as np

from kzero.primes import is_prime, sieve

__all__ = [
    "CurveQ",
    "FrobeniusData",
    "FrobeniusMatrices",
    "LocalZeta",
    "ApCache",
    "BadReductionError",
    "discriminant",
    "good_primes",
    "count_points_fp",
    "trace_of_frobenius",
    "count_points_extension",
    "count_points_fp2_enumeration",
    "weil_zeta_local",
    "frobenius_matrices",
    "cm_curve_for",
    "cm_table_discriminants",
    "hecke_ap_cm",
    "tonelli",
    "cornacchia",
]


class BadReductionError(ValueError):
    """Raised when a prime of bad reduction is used where a good one is required."""


@dataclass(frozen=True)
class CurveQ:
    """Short Weierstrass curve y^2 = x^3 + a4 x + a6 over Q, nonsingular."""

    a4: int
    a6: int
    cm_discriminant: Optional[int] = None

    def __post_init__(self) -> None:
        if discriminant(self) == 0:
            raise ValueError(f"curve y^2 = x^3 + {self.a4}x + {self.a6} is singular")


@dataclass(frozen=True)
class FrobeniusData:
    """Trace record at p; a_p is defined exactly when the reduction is good."""

    p: int
    good: bool
    a_p: Optional[int]


@dataclass(frozen=True)
class FrobeniusMatrices:
    """Degree-0/1/2 Frobenius actions: [1], the companion of T^2 - a_p T + p, [p]."""

    h0: tuple[tuple[int, ...], ...]
    h1: tuple[tuple[int, ...], ...]
    h2: tuple[tuple[int, ...], ...]


def discriminant(c: CurveQ) -> int:
    return -16 * (4 * c.a4 ** 3 + 27 * c.a6 ** 2)


def is_good(c: CurveQ, p: int) -> bool:
    """Good reduction: p prime, p does not divide the discriminant (so p != 2)."""
    return is_prime(p) and discriminant(c) % p != 0


def good_primes(c: CurveQ, bound: int) -> list[int]:
    delta = discriminant(c)
    return [p for p in sieve(bound) if delta % p != 0]


@lru_cache(maxsize=512)
def _chi_table(p: int) -> np.ndarray:
    # chi[v] = quadratic character of v mod p; chi[0] = 0
    chi = np.full(p, -1, dtype=np.int8)
    squares = (np.arange(p, dtype=np.int64) ** 2) % p
    chi[squares] = 1
    chi[0] = 0
    return chi


def _require_good(c: CurveQ, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 or discriminant(c) % p == 0:
        raise BadReductionError(f"p = {p} is a prime of bad reduction for ({c.a4}, {c.a6})")


def count_points_fp(c: CurveQ, p: int) -> int:
    """|E(F_p)| including the point at infinity, by the character sum over x."""
    _require_good(c, p)
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + c.a4 % p * x + c.a6) % p
    return p + 1 + int(_chi_table(p)[f].sum())


def _good_ap(c: CurveQ, p: int, cache: Optional["ApCache"] = None) -> int:
    """a_p = p + 1 - |E(F_p)| at a good prime; a bad prime is an error.

    p is checked once: by `count_points_fp` on a miss, here on a cache hit.
    """
    hit = cache.lookup(c.a4, c.a6, p) if cache is not None else None
    if hit is not None:
        _require_good(c, p)
        return hit
    a_p = p + 1 - count_points_fp(c, p)
    assert a_p * a_p <= 4 * p, f"Hasse bound violated at p={p}"
    if cache is not None:
        cache.record(c.a4, c.a6, p, a_p)
    return a_p


def trace_of_frobenius(c: CurveQ, p: int, cache: Optional["ApCache"] = None) -> FrobeniusData:
    """a_p = p + 1 - |E(F_p)| at good p; a bad prime yields a good=False record."""
    try:
        return FrobeniusData(p, True, _good_ap(c, p, cache))
    except BadReductionError:
        return FrobeniusData(p, False, None)


def count_points_extension(c: CurveQ, p: int, r: int, cache: Optional["ApCache"] = None) -> int:
    """|E(F_{p^r})| for r in {1, 2, 3} via the trace power sums."""
    if r not in (1, 2, 3):
        raise ValueError("r must be 1, 2, or 3")
    return _extension_count(c, p, _good_ap(c, p, cache), r)


def _extension_count(c: CurveQ, p: int, a_p: int, r: int) -> int:
    """|E(F_{p^r})| from a_p at a good prime.

    s_r = a_p s_{r-1} - p s_{r-2} with s_0 = 2, s_1 = a_p gives
    |E(F_{p^r})| = p^r + 1 - s_r.  The r = 2 value is additionally checked
    against the independent brute-force enumeration of F_{p^2}, which keeps
    its own check of p.
    """
    s = [2, a_p]
    for _ in range(2, r + 1):
        s.append(a_p * s[-1] - p * s[-2])
    count = p ** r + 1 - s[r]
    if r == 2:
        enumerated = count_points_fp2_enumeration(c, p)
        assert count == enumerated, (
            f"recursion says {count} but F_{p}^2 enumeration says {enumerated}"
        )
    return count


def count_points_fp2_enumeration(c: CurveQ, p: int) -> int:
    """|E(F_{p^2})| by exhausting the quadratic extension F_p[u]/(u^2 - n).

    n is the smallest quadratic non-residue mod p, fixed for determinism.
    Elements are pairs (z0, z1) = z0 + z1 u indexed by z0 + p*z1; the number
    of square roots of every field element is tabulated in one pass, then
    summed over the cubic's values.
    """
    _require_good(c, p)
    n = _smallest_nonresidue(p)
    z0, z1 = np.meshgrid(np.arange(p, dtype=np.int64), np.arange(p, dtype=np.int64), indexing="ij")
    z0, z1 = z0.ravel(), z1.ravel()
    # square every element once to tabulate root counts
    sq0 = (z0 * z0 + n * (z1 * z1 % p)) % p
    sq1 = 2 * z0 * z1 % p
    roots = np.bincount(sq0 + p * sq1, minlength=p * p)
    # f(x) = x^3 + a4 x + a6 componentwise in the extension
    x2_0, x2_1 = sq0, sq1
    x3_0 = (x2_0 * z0 + n * (x2_1 * z1 % p)) % p
    x3_1 = (x2_0 * z1 + x2_1 * z0) % p
    f0 = (x3_0 + c.a4 % p * z0 + c.a6) % p
    f1 = (x3_1 + c.a4 % p * z1) % p
    return int(roots[f0 + p * f1].sum()) + 1


def _smallest_nonresidue(p: int) -> int:
    # Euler's criterion: n is a non-residue iff n^((p-1)/2) = -1 mod p
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise AssertionError(f"no non-residue below {p}")


# -- local zeta factor -----------------------------------------------------------


@dataclass(frozen=True)
class LocalZeta:
    """Z_p(t) = numerator(t) / ((1 - t)(1 - p t)) with numerator 1 - a_p t + p t^2."""

    p: int
    a_p: int

    @property
    def numerator(self) -> tuple[int, int, int]:
        return (1, -self.a_p, self.p)

    def series(self, order: int) -> list[Fraction]:
        """Taylor coefficients of Z_p(t) through t^order, exactly."""
        num = [Fraction(x) for x in self.numerator]
        inv_one = _series_geometric(Fraction(1), order)
        inv_p = _series_geometric(Fraction(self.p), order)
        return _series_mul(_series_mul(num, inv_one, order), inv_p, order)

    def log_series(self, order: int) -> list[Fraction]:
        """Coefficients of log Z_p(t) through t^order via the formal logarithm."""
        z = self.series(order)
        # log(1 + w) = w - w^2/2 + w^3/3 - ... with w = Z - 1 (no constant term)
        w = [Fraction(0)] + z[1:]
        out = [Fraction(0)] * (order + 1)
        power = [Fraction(1)] + [Fraction(0)] * order
        for k in range(1, order + 1):
            power = _series_mul(power, w, order)
            sign = 1 if k % 2 == 1 else -1
            for i in range(order + 1):
                out[i] += sign * power[i] / k
        return out

    def __str__(self) -> str:
        one, minus_a, pp = self.numerator
        terms = ["1"]
        if minus_a:
            terms.append(f"{minus_a:+d}t")
        terms.append(f"+{pp}t^2" if pp > 0 else f"{pp}t^2")
        return f"({''.join(terms)})/((1-t)(1-{self.p}t))"


def _series_geometric(ratio: Fraction, order: int) -> list[Fraction]:
    # 1/(1 - ratio*t) through t^order
    out = [Fraction(1)]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return out


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def weil_zeta_local(c: CurveQ, p: int) -> LocalZeta:
    """Local zeta factor at a good prime, with its defining identity verified.

    The formal log of the returned rational function is checked against
    |E(F_{p^r})| t^r / r through r = 3 before returning.
    """
    zeta = LocalZeta(p, _good_ap(c, p))
    logs = zeta.log_series(3)
    for r in (1, 2, 3):
        expected = Fraction(_extension_count(c, p, zeta.a_p, r), r)
        assert logs[r] == expected, f"log coefficient t^{r} is {logs[r]}, expected {expected}"
    return zeta


def frobenius_matrices(c: CurveQ, p: int) -> FrobeniusMatrices:
    """Companion-matrix Frobenius actions at a good prime.

    h1 has trace a_p, so the Lefschetz sum 1 - tr(h1) + p is |E(F_p)| by
    construction; the count behind a_p is the Hasse-checked one.
    """
    a_p = _good_ap(c, p)
    return FrobeniusMatrices(h0=((1,),), h1=((0, -p), (1, a_p)), h2=((p,),))


# -- CM curves and the norm-form route --------------------------------------------


_CM_TABLE = {
    1: CurveQ(-1, 0, cm_discriminant=1),
    2: CurveQ(-270, 1512, cm_discriminant=2),
    3: CurveQ(0, 1, cm_discriminant=3),
}


def cm_table_discriminants() -> tuple[int, ...]:
    return tuple(sorted(_CM_TABLE))


def cm_curve_for(D: int) -> CurveQ:
    """Representative curve with CM by an order in Q(sqrt(-D))."""
    if D not in _CM_TABLE:
        raise ValueError(f"unsupported discriminant {D}; supported: {cm_table_discriminants()}")
    return _CM_TABLE[D]


def _is_split(D: int, p: int) -> bool:
    # splitting of p in Q(sqrt(-D)) by congruence; callers exclude bad primes
    if D == 1:
        return p % 4 == 1
    if D == 2:
        return p % 8 in (1, 3)
    if D == 3:
        return p % 3 == 1
    raise ValueError(f"unsupported discriminant {D}")


def tonelli(n: int, p: int) -> int:
    """Square root of n modulo an odd prime p; n must be a residue."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        raise ValueError(f"{n} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd, then walk the 2-Sylow tower
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = _smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def cornacchia(d: int, p: int) -> tuple[int, int]:
    """Positive (a, b) with a^2 + d b^2 = p, via descent from sqrt(-d) mod p.

    Requires -d to be a residue mod p and p representable; for d in {1,2,3}
    and split p both always hold.
    """
    r = tonelli(p - d % p, p)
    r = max(r, p - r)
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    rem = p - b * b
    if rem % d != 0:
        raise ArithmeticError(f"{p} is not represented by a^2 + {d}b^2")
    other = rem // d
    root = isqrt(other)
    if root * root != other:
        raise ArithmeticError(f"{p} is not represented by a^2 + {d}b^2")
    return b, root


def _norm_form_ap(D: int, p: int) -> int:
    a, b = cornacchia(D, p)
    if D == 3:
        return 2 * (a if a % 3 == 1 else -a)
    if D == 2:
        u = 1 if a % 8 in (1, 3) else -1
        v = 1 if b % 4 == 0 else -1
        return u * v * 2 * a
    raise ValueError(f"no norm-form rule for D={D}")


def hecke_ap_cm(D: int, p: int) -> int:
    """a_p of the CM table curve from the norm form alone, no point counting.

    Inert primes give 0.  A split prime is written as a^2 + D b^2, and the
    unit ambiguity is fixed by a closed-form congruence rule (Ireland-Rosen,
    ch. 18) with answer 2a: for D = 1, a odd and a + b = 1 mod 4; for D = 2,
    a carries the sign (+1 if a = 1, 3 mod 8 else -1)(+1 if b = 0 mod 4
    else -1); for D = 3, a = 1 mod 3.
    """
    curve = cm_curve_for(D)
    _require_good(curve, p)
    if not _is_split(D, p):
        return 0
    if D == 1:
        a, b = cornacchia(1, p)
        if a % 2 == 0:
            a, b = b, a
        # b is even, so exactly one sign of a satisfies the congruence
        if (a + b) % 4 != 1:
            a = -a
        assert (a + b) % 4 == 1
        return 2 * a
    return _norm_form_ap(D, p)


# -- persistent a_p cache ----------------------------------------------------------


class ApCache:
    """Append-only TSV cache of Frobenius traces keyed by (a4, a6, p).

    The file starts with the header line 'a4<TAB>a6<TAB>p<TAB>ap'.  Rows are
    kept in first-seen order and duplicate keys resolve to the first
    occurrence, so rewriting the file after a run that added nothing is
    byte-identical.  Flushing writes the whole file atomically.
    """

    HEADER = "a4\ta6\tp\tap"

    def __init__(self, path: str):
        self.path = path
        self._rows: list[tuple[int, int, int, int]] = []
        self._index: dict[tuple[int, int, int], int] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="ascii") as fh:
            first = fh.readline().rstrip("\n")
            if first and first != self.HEADER:
                raise ValueError(f"{self.path} is not an a_p cache (bad header {first!r})")
            for line in fh:
                a4, a6, p, ap = (int(x) for x in line.rstrip("\n").split("\t"))
                self._put(a4, a6, p, ap)
        self._dirty = False

    def _put(self, a4: int, a6: int, p: int, ap: int) -> None:
        key = (a4, a6, p)
        if key in self._index:
            return
        self._index[key] = ap
        self._rows.append((a4, a6, p, ap))

    def lookup(self, a4: int, a6: int, p: int) -> Optional[int]:
        return self._index.get((a4, a6, p))

    def record(self, a4: int, a6: int, p: int, ap: int) -> None:
        if (a4, a6, p) not in self._index:
            self._put(a4, a6, p, ap)
            self._dirty = True

    def flush(self) -> None:
        if not self._dirty:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(self.HEADER + "\n")
                for a4, a6, p, ap in self._rows:
                    fh.write(f"{a4}\t{a6}\t{p}\t{ap}\n")
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False
