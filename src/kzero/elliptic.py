"""Elliptic curves over Q reduced at good primes: counts, traces, local factors.

|E(F_p)| is counted in pure integers, by a root count up to `_BSGS_MIN_P`
and by Shanks-Mestre baby-step giant-step above it (`_point_count`), and
`count_points_extension` gives |E(F_{p^r})| for r = 1, 2, 3.  Frobenius
traces feed the local zeta factor (1 - a_p t + p t^2)/((1-t)(1-p t)), whose
formal logarithm is expanded with exact rational series arithmetic and
compared against the extension-field point counts; the F_{p^2} count
additionally has a brute-force oracle that enumerates the quadratic
extension in O(p^2) time and O(p) memory.  On the line z0 + z1 u the norm
of f is one cubic in t = n z1^2 whose coefficients depend only on z0, so
the oracle evaluates that cubic over fixed-size blocks of lines.

The CM table carries one representative curve for each supported imaginary
quadratic field Q(sqrt(-D)), D in {1, 2, 3}, and `hecke_ap_cm` recomputes
a_p without any point counting: inert primes give 0, split primes are
represented by the norm form a^2 + D b^2 (Cornacchia descent) and the unit
ambiguity of the representation is resolved by a closed-form congruence
rule for each D (see `hecke_ap_cm`), so the two routes share no code.  p = 2
is always excluded, and every prime dividing the discriminant is bad.

A small append-only text file, shared by all curves, caches a_p by (a4, a6, p);
an `ApCache` holds one curve's rows by p, so that `lfunction`'s multi-prime
Euler products and trace match are cheap on a rerun.  The single-prime
entries here take no cache and always count.  numpy is imported only by the
F_{p^2} enumeration above `_FP2_NUMPY_MIN_P`, where it evaluates the blocks
of lines; everything else runs without it.  It loads with one BLAS thread
unless the caller set OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional

from kzero import Frozen
from kzero.primes import is_prime, sieve

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CurveQ",
    "LocalZeta",
    "ApCache",
    "BadReductionError",
    "discriminant",
    "good_primes",
    "first_good_prime",
    "trace_of_frobenius",
    "count_points_extension",
    "count_points_fp2_enumeration",
    "weil_zeta_local",
    "cm_curve_for",
    "cm_table_discriminants",
    "hecke_ap_cm",
    "tonelli",
    "cornacchia",
]


class BadReductionError(ValueError):
    """Raised when a prime of bad reduction is used where a good one is required."""


class CurveQ(Frozen):
    """Short Weierstrass curve y^2 = x^3 + a4 x + a6 over Q, nonsingular."""

    __slots__ = ("a4", "a6", "cm_discriminant")

    def __init__(self, a4: int, a6: int, cm_discriminant: Optional[int] = None) -> None:
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "a6", a6)
        object.__setattr__(self, "cm_discriminant", cm_discriminant)
        if discriminant(self) == 0:
            raise ValueError(f"curve y^2 = x^3 + {a4}x + {a6} is singular")


def discriminant(c: CurveQ) -> int:
    return -16 * (4 * c.a4 ** 3 + 27 * c.a6 ** 2)


def good_primes(c: CurveQ, bound: int) -> list[int]:
    delta = discriminant(c)
    return [p for p in sieve(bound) if delta % p != 0]


def first_good_prime(c: CurveQ) -> int:
    """The smallest prime of good reduction for c; 2 never is one."""
    bound = 8  # the discriminant is nonzero, so some doubling of this reaches one
    while not (good := good_primes(c, bound)):
        bound *= 2
    return good[0]


@lru_cache(maxsize=512)
def _chi_table(p: int) -> bytes:
    # roots[v] = number of square roots of v mod p: 1 for v = 0, 2 for a
    # nonzero square, 0 otherwise, so the quadratic character is roots[v] - 1
    roots = bytearray(p)
    for x in range(1, (p + 1) // 2):  # x and p - x have the same square
        roots[x * x % p] = 2
    roots[0] = 1
    return bytes(roots)


def _require_good(c: CurveQ, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 or discriminant(c) % p == 0:
        raise BadReductionError(f"p = {p} is a prime of bad reduction for ({c.a4}, {c.a6})")


def _point_count(c: CurveQ, p: int) -> int:
    """|E(F_p)| including the point at infinity, at a p the caller knows is good.

    Up to `_BSGS_MIN_P`, by the root count 1 + sum over x of the number of
    square roots of f(x) mod p, with a cached root table per prime; above it,
    by Shanks-Mestre baby-step giant-step (`_bsgs_order`), a deterministic
    walk of points on the curve and its quadratic twist whose cost grows as
    p^(1/4).
    """
    if p > _BSGS_MIN_P:
        return _bsgs_order(c.a4 % p, c.a6 % p, p)
    roots = _chi_table(p)
    a4, a6 = c.a4 % p, c.a6 % p
    return 1 + sum(roots[(x * x * x + a4 * x + a6) % p] for x in range(p))


# -- Shanks-Mestre baby-step giant-step ----------------------------------------------

# Where the point counts switch: a theorem's bound, not a timed crossover.
# By Mestre's theorem, for p > 229 the curve or its quadratic twist has a
# point whose order has a single multiple in the Hasse interval, so the
# baby-step giant-step walk ends; at or below it the root count runs.
_BSGS_MIN_P = 229


def _multiple(k: int, x: int, y: int, A: int, p: int) -> tuple:
    """k (x, y), k >= 0, on y^2 = x^3 + A x + B mod p by left-to-right double-and-add; O is (None, None)."""
    u = v = None
    for bit in bin(k)[2:]:
        if v:  # double; (u, v) is neither O nor of order 2
            lam = (3 * u * u + A) * pow(2 * v, -1, p) % p
            w = (lam * lam - 2 * u) % p
            u, v = w, (lam * (u - w) - v) % p
        elif u is not None:  # 2 (u, 0) = O
            u = v = None
        if bit == "1":  # add (x, y)
            if u is None:
                u, v = x, y
            elif u != x or (v + y) % p:
                lam = ((y - v) * pow(x - u, -1, p) if u != x else (3 * u * u + A) * pow(2 * v, -1, p)) % p
                w = (lam * lam - u - x) % p
                u, v = w, (lam * (u - w) - v) % p
            else:
                u = v = None
    return u, v


def _annihilator(R: tuple, klo: int, khi: int, A: int, p: int) -> int:
    """g with ord(R) | g | k for every k in [klo, khi] with k R = O.

    Some such k must exist.  Baby steps j R, j = 1..m, find ord(R) outright
    when it is at most 2m: as the first j with j R = O, as 2j when j R has
    order 2, or as j + j' when j R = -j' R.  Otherwise each window of 2m + 1
    consecutive k holds at most one multiple of ord(R), and a giant step to
    the window's centre c finds it: c R = +-j R gives k = c -+ j.  All
    multiples in [klo, khi] are found; two give ord(R) as their difference,
    and a lone one is returned itself.
    """
    rx, ry = x, y = R  # (None, None) is O
    m = isqrt((khi - klo) // 2) + 1
    baby = {None: (0, None)}  # x of j R -> (j, y of j R), j = 0..m; 0 R = O
    for j in range(1, m + 1):
        if y == 0:
            return 2 * j
        if x in baby:  # j R = -j' R (j' = 0 only if R = O); j R = j' R would have met O at j - j'
            return j + baby[x][0]
        baby[x] = (j, y)  # then (j + 1) R: the tangent at j = 1, else the chord (x = rx returned)
        lam = ((3 * x * x + A) * pow(2 * y, -1, p) if j == 1 else (y - ry) * pow(x - rx, -1, p)) % p
        px, py = x, y
        x = (lam * lam - x - rx) % p
        y = (lam * (px - x) - py) % p
    stride = 2 * m + 1
    if x == px:  # (m + 1) R = -m R
        return stride
    lam = (y - py) * pow(x - px, -1, p) % p  # stride R = (m + 1) R + m R
    sx = (lam * lam - x - px) % p
    sy = (lam * (px - sx) - py) % p
    c = (klo + m) // stride * stride  # the first centre on a multiple of stride whose window reaches klo
    cx, cy = _multiple(c // stride, sx, sy, A, p)
    found = []
    while c - m <= khi:
        if cx in baby:  # c R = +-j R
            j, y = baby[cx]
            found.append(c - j if cy == y else c + j)
        if cx is None:  # C += stride R
            cx, cy = sx, sy
        elif cx != sx or (cy + sy) % p:
            lam = ((sy - cy) * pow(sx - cx, -1, p) if cx != sx
                   else (3 * cx * cx + A) * pow(2 * cy, -1, p)) % p
            x = (lam * lam - cx - sx) % p
            cx, cy = x, (lam * (cx - x) - cy) % p
        else:
            cx = cy = None
        c += stride
    found = [k for k in found if klo <= k <= khi]  # the first window may begin below klo (c may be 0)
    if not found:
        raise AssertionError(f"no multiple of a point's order in [{klo}, {khi}] mod {p}")
    return found[1] - found[0] if len(found) > 1 else found[0]


def _bsgs_order(a4: int, a6: int, p: int) -> int:
    """|E(F_p)| for y^2 = x^3 + a4 x + a6, a4 and a6 reduced, p a good prime > 229.

    Shanks-Mestre (Cohen, A Course in Computational Algebraic Number Theory,
    7.4.3), with no random choice and no square root.  Walk x = 0, 1, 2, ...
    and skip the x with d = f(x) = 0.  The point (d x, d^2) lies on
    y^2 = x^3 + a4 d^2 x + a6 d^3, which is E when (d/p) = 1 and its
    quadratic twist E' otherwise; |E'| = 2p + 2 - |E|, and both orders lie
    in the Hasse interval [lo, hi].  div[s] divides the order of the group
    of character s, and each point multiplies it by `_annihilator` of
    div[s] times the point.  The orders of E that the points walked allow,
    n = 0 mod div[1] with 2p + 2 - n = 0 mod div[-1], form one residue class
    modulo lcm(div[1], div[-1]) (Chinese remainder theorem); the walk stops
    when that class meets [lo, hi] once.  By Mestre's theorem, E or E' has a
    point whose order has a single multiple in [lo, hi], so for p > 229 the
    walk ends before x reaches p; if it does not, that is raised.  Giant
    windows centre on multiples q (2m + 1) of the stride, so the giant walk
    starts at q (2m + 1) R: log2(p / 2m) doublings of the stride, not log2(p).
    """
    r = isqrt(4 * p)  # |a_p| <= r, as 4p is not a square
    lo, hi = p + 1 - r, p + 1 + r
    div = {1: 1, -1: 1}
    for x in range(p):
        d = (x * x * x + a4 * x + a6) % p
        if d == 0:
            continue
        s = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
        A = a4 * d * d % p
        L = div[s]
        R = _multiple(L, d * x % p, d * d % p, A, p)
        div[s] = L * _annihilator(R, -(-lo // L), hi // L, A, p)
        L1, L2 = div[1], div[-1]
        g = gcd(L1, L2)
        modulus = L1 // g * L2
        n = L1 * ((2 * p + 2) // g * pow(L1 // g, -1, L2 // g) % (L2 // g))
        n = lo + (n - lo) % modulus  # the least order >= lo the points allow
        if (2 * p + 2) % g or n > hi:
            raise AssertionError(f"no order of E(F_{p}) fits the points walked")
        if n + modulus > hi:
            return n
    raise AssertionError(f"the point walk mod {p} left more than one order of E(F_{p})")


def _good_ap(c: CurveQ, p: int, cache: Optional["ApCache"] = None) -> int:
    """a_p = p + 1 - |E(F_p)| at a p the caller knows is a good prime.

    p is not checked here.  The public entries check it with `_require_good`
    before calling; `lfunction`'s Euler products and trace match take it from
    `good_primes`, which only yields good primes.  The Hasse bound is checked
    on a hit and on a miss, so a cached a_p outside it is caught; a wrong one
    inside it is not.  A cache opened for another curve is refused before
    anything is looked up or counted.
    """
    if cache is not None and (cache.curve.a4, cache.curve.a6) != (c.a4, c.a6):
        held = cache.curve
        raise ValueError(f"the a_p cache holds the traces of ({held.a4}, {held.a6}), not of ({c.a4}, {c.a6})")
    hit = cache.lookup(p) if cache is not None else None
    a_p = hit if hit is not None else p + 1 - _point_count(c, p)
    if a_p * a_p > 4 * p:  # raised, not asserted: a hit comes from a file
        raise AssertionError(f"Hasse bound violated at p={p}")
    if hit is None and cache is not None:
        cache.record(p, a_p)
    return a_p


def trace_of_frobenius(c: CurveQ, p: int) -> int:
    """a_p = p + 1 - |E(F_p)| at good p; a bad prime raises `BadReductionError`."""
    _require_good(c, p)
    return _good_ap(c, p)


def count_points_extension(c: CurveQ, p: int, r: int) -> int:
    """|E(F_{p^r})| for r in {1, 2, 3} via the trace power sums."""
    if r not in (1, 2, 3):
        raise ValueError("r must be 1, 2, or 3")
    _require_good(c, p)
    return _extension_count(c, p, _good_ap(c, p), r)


def _extension_count(c: CurveQ, p: int, a_p: int, r: int) -> int:
    """|E(F_{p^r})| from a_p at a good prime.

    s_r = a_p s_{r-1} - p s_{r-2} with s_0 = 2, s_1 = a_p gives
    |E(F_{p^r})| = p^r + 1 - s_r.  The r = 2 value is additionally checked
    against the independent brute-force enumeration of F_{p^2}; p is not
    checked again, as the public callers have checked it.
    """
    s = [2, a_p]
    for _ in range(2, r + 1):
        s.append(a_p * s[-1] - p * s[-2])
    count = p ** r + 1 - s[r]
    if r == 2:
        enumerated = _fp2_count(c, p)
        if count != enumerated:  # raised, not asserted: it must survive python -O
            raise AssertionError(f"recursion says {count} but F_{p}^2 enumeration says {enumerated}")
    return count


def count_points_fp2_enumeration(c: CurveQ, p: int) -> int:
    """|E(F_{p^2})| by exhausting the quadratic extension F_p[u]/(u^2 - n).

    n is the smallest quadratic non-residue mod p, fixed for determinism.
    w = w0 + w1 u has as many square roots in F_{p^2} as its norm
    w0^2 - n w1^2 has in F_p, since w^((p^2-1)/2) = N(w)^((p-1)/2).  So with
    roots[v] the number of square roots of v in F_p, the count is 1 plus the
    sum of roots[N(f(z))] over all z.  For z = z0 + z1 u and t = n z1^2,

        f(z) = (g + t z3) + z1 (h + t) u,
        g = z0^3 + a4 z0 + a6,  h = 3 z0^2 + a4,  z3 = 3 z0,

    and n z1^2 (h + t)^2 = t (h + t)^2, so the norm is one cubic in t:

        N(f(z)) = (g + t z3)^2 - t (h + t)^2 = A0 + t (A1 + t (A2 - t)),
        A0 = g^2,  A1 = 2 g z3 - h^2,  A2 = z3^2 - 2 h   (mod p),

    with A0, A1 and A2 computed once per z0.  The norm depends on z1 only
    through t, so z1 and -z1 contribute alike: line z1 = 0 is counted once
    and each line 0 < z1 < p/2 twice.  The lines are summed in Python
    integers up to `_FP2_NUMPY_MIN_P`.  Above it numpy evaluates blocks of
    (lines x p) elements as

        A0 + t A1 + (t^2 mod p) A2 + (-t^3 mod p),

    with the three scalars computed once per line, so every value lies in
    [0, 2p^2) before one reduction mod p.  The blocks are int32, written
    into two buffers of about `_FP2_BLOCK` elements, so memory stays O(p).
    p at or above `_FP2_INT32_P` is refused with ValueError.
    """
    _require_good(c, p)
    return _fp2_count(c, p)


# Where the enumeration switches to numpy.  The two line sums tie near
# p = 17: timed on 2 vCPUs with numpy already imported, median per call,
# Python integers against numpy, 0.007 against 0.031 ms at p = 5, 0.034
# against 0.033 ms at p = 17, 0.060 against 0.035 ms at p = 23 and 0.16
# against 0.04 ms at p = 41.  The switch does not follow the tie, because
# the first numpy call of a process pays its import, tens of ms and about
# 9 MB: no README command (p = 5) may import numpy, and the CLI tests
# expect it loaded at p = 101.
_FP2_NUMPY_MIN_P = 41

# Elements per (lines x p) block of the numpy line sum: large enough that
# per-call overhead no longer dominates, small enough to stay in cache.
_FP2_BLOCK = 1 << 15

# The enumeration refuses p at or above this bound, where its int32 blocks
# could overflow.  A block value A0 + t A1 + (t^2 mod p) A2 + (-t^3 mod p)
# has four terms in [0, p), [0, (p-1)^2], [0, (p-1)^2] and [0, p), so it is
# at most 2(p-1)^2 + 2(p-1) = 2p(p-1), and 2p(p-1) < 2^31 for every
# p <= 2^15, which covers every p the CLI accepts.
_FP2_INT32_P = 1 << 15


def _fp2_norm_coefficients(z0, a4: int, a6: int, p: int):
    # (A0, A1, A2) of count_points_fp2_enumeration's cubic, for an int z0
    # or a numpy array of them
    g = (z0 * z0 % p * z0 + a4 * z0 + a6) % p
    h = (3 * z0 * z0 + a4) % p
    z3 = 3 * z0 % p
    return g * g % p, (2 * g * z3 - h * h) % p, (z3 * z3 - 2 * h) % p


def _fp2_count(c: CurveQ, p: int) -> int:
    # count_points_fp2_enumeration's body, at a p the caller knows is a good prime
    if p >= _FP2_INT32_P:
        raise ValueError(f"F_(p^2) enumeration needs p < 2^15 so that its blocks fit int32, got p = {p}")
    n = _smallest_nonresidue(p)
    a4, a6 = c.a4 % p, c.a6 % p
    if p <= _FP2_NUMPY_MIN_P:
        roots = _chi_table(p)
        coefficients = [_fp2_norm_coefficients(z0, a4, a6, p) for z0 in range(p)]
        lines = [sum(roots[(a0 + t * (a1 + t * (a2 - t))) % p] for a0, a1, a2 in coefficients)
                 for t in (n * z1 * z1 % p for z1 in range((p + 1) // 2))]
        return 1 + 2 * sum(lines) - lines[0]

    np = _import_numpy()
    z0 = np.arange(p, dtype=np.int64)
    a0, a1, a2 = (a.astype(np.int32) for a in _fp2_norm_coefficients(z0, a4, a6, p))
    roots = np.frombuffer(_chi_table(p), dtype=np.int8)
    t = n * z0[: (p + 1) // 2] ** 2 % p
    t2 = t * t % p
    lines = [s.astype(np.int32)[:, None] for s in (t, t2, -t2 * t % p)]  # t, t^2, -t^3 mod p
    rows = max(1, _FP2_BLOCK // p)
    v, w = np.empty((rows, p), np.int32), np.empty((rows, p), np.int32)
    total = 0
    for start in range(0, len(t), rows):
        tb, tb2, tb3 = (s[start:start + rows] for s in lines)
        vb, wb = v[:len(tb)], w[:len(tb)]
        np.multiply(tb, a1, out=vb)
        np.multiply(tb2, a2, out=wb)
        vb += wb
        vb += a0
        vb += tb3
        vb %= p
        total += int(roots.take(vb).sum())
    return 1 + 2 * total - int(roots.take(a0).sum())  # line t = 0 is counted once


def _import_numpy():
    # kzero never calls BLAS, and OpenBLAS reads OPENBLAS_NUM_THREADS once, at
    # load: left unset, starting its thread pool costs about 65 ms of numpy's
    # import on 2 vCPUs.  A value the caller set is left as it is.
    caller_set = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import numpy
    finally:
        if not caller_set:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


def _smallest_nonresidue(p: int) -> int:
    # Euler's criterion: n is a non-residue iff n^((p-1)/2) = -1 mod p
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise AssertionError(f"no non-residue below {p}")


# -- local zeta factor -----------------------------------------------------------


class LocalZeta(NamedTuple):
    """Z_p(t) = numerator(t) / ((1 - t)(1 - p t)) with numerator 1 - a_p t + p t^2."""

    p: int
    a_p: int

    @property
    def numerator(self) -> tuple[int, int, int]:
        return (1, -self.a_p, self.p)

    def series(self, order: int) -> list[int]:
        """Taylor coefficients of Z_p(t) through t^order, exactly: they are integers."""
        inv_one = [1] * (order + 1)
        inv_p = [self.p ** k for k in range(order + 1)]
        return _series_mul(_series_mul(list(self.numerator), inv_one, order), inv_p, order)

    def log_series(self, order: int) -> list[Fraction]:
        """Coefficients of log Z_p(t) through t^order via the formal logarithm."""
        from fractions import Fraction  # only the formal logarithm divides

        # log(1 + w) = w - w^2/2 + w^3/3 - ... with w = Z - 1 (no constant term)
        w = [0] + self.series(order)[1:]
        out = [Fraction(0)] * (order + 1)
        power = [1] + [0] * order
        for k in range(1, order + 1):
            power = _series_mul(power, w, order)
            sign = 1 if k % 2 == 1 else -1
            for i in range(order + 1):
                out[i] += Fraction(sign * power[i], k)
        return out

    def __str__(self) -> str:
        one, minus_a, pp = self.numerator
        terms = ["1"]
        if minus_a:
            terms.append(f"{minus_a:+d}t")
        terms.append(f"+{pp}t^2" if pp > 0 else f"{pp}t^2")
        return f"({''.join(terms)})/((1-t)(1-{self.p}t))"


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
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
    from fractions import Fraction  # as in LocalZeta.log_series

    _require_good(c, p)
    zeta = LocalZeta(p, _good_ap(c, p))
    logs = zeta.log_series(3)
    for r in (1, 2, 3):
        expected = Fraction(_extension_count(c, p, zeta.a_p, r), r)
        if logs[r] != expected:  # raised, not asserted: it must survive python -O
            raise AssertionError(f"log coefficient t^{r} is {logs[r]}, expected {expected}")
    return zeta


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


def hecke_ap_cm(D: int, p: int) -> int:
    """a_p of the CM table curve from the norm form alone, no point counting.

    Inert primes give 0.  A split prime is written as a^2 + D b^2, and the
    unit ambiguity is fixed by a closed-form congruence rule (Ireland-Rosen,
    ch. 18) with answer 2a: for D = 1, a odd and a + b = 1 mod 4; for D = 2,
    a carries the sign (+1 if a = 1, 3 mod 8 else -1)(+1 if b = 0 mod 4
    else -1); for D = 3, a = 1 mod 3.
    """
    _require_good(cm_curve_for(D), p)
    return _norm_form_ap(D, p)


def _norm_form_ap(D: int, p: int) -> int:
    # hecke_ap_cm's body, at a p the caller knows is good for the table curve
    # of D; `_is_split` refuses a D outside the table
    if not _is_split(D, p):
        return 0
    a, b = cornacchia(D, p)
    if D == 1:
        if a % 2 == 0:
            a, b = b, a
        # a^2 + b^2 = p is odd, so b is even and exactly one sign of a gives 1 mod 4
        return 2 * (a if (a + b) % 4 == 1 else -a)
    if D == 3:
        return 2 * (a if a % 3 == 1 else -a)
    u = 1 if a % 8 in (1, 3) else -1
    v = 1 if b % 4 == 0 else -1
    return u * v * 2 * a


# -- persistent a_p cache ----------------------------------------------------------


_INT = "(?:0|-?[1-9][0-9]*)"
# rows of four canonical integers a4, a6, p >= 1, a_p, each ending in a newline
_ROWS = re.compile(rf"(?:{_INT}\t{_INT}\t[1-9][0-9]*\t{_INT}\n)*")


class ApCache:
    """One curve's Frobenius traces in an append-only TSV file shared by all curves.

    `lfunction`'s multi-prime Euler products and trace match read and fill
    it; the single-prime entries never do.  The file starts with the header
    line 'a4<TAB>a6<TAB>p<TAB>ap'.  Loading reads the file once, checks every
    row of every curve (four integers in canonical form with p >= 1, else a
    ValueError naming path:line) and indexes this curve's rows by p.
    Duplicate rows resolve to the first occurrence.  A flush appends only
    the rows recorded since the last one, in one write under an exclusive
    lock, so runs sharing a file keep each other's rows, exactly one of them
    writes the header, and the file of a sequence of runs lists every
    (a4, a6, p) once, in first-seen order.  `_good_ap` refuses a cache
    opened for another curve.

    It is a context manager, and leaving the `with` block flushes, also when
    the body raised, so traces counted before a failed check are kept.  The
    CLI handlers of `lfun --which motivic`, `match` and `prop3` open it so,
    after their bound checks; no other command opens it.
    """

    HEADER = "a4\ta6\tp\tap"

    def __init__(self, path: str, curve: CurveQ):
        self.path = path
        self.curve = curve
        self._rows: dict[int, int] = {}  # p -> a_p: the loaded rows, then the recorded ones
        self._load()
        self._flushed = len(self._rows)

    def _load(self) -> None:
        try:
            # latin-1 decodes any byte; the row pattern then admits only ASCII
            with open(self.path, "r", encoding="latin-1") as fh:
                text = fh.read()
        except FileNotFoundError:
            return
        if not text:
            return
        if not text.startswith(self.HEADER + "\n"):
            first = text.partition("\n")[0]
            raise ValueError(f"{self.path} is not an a_p cache (bad header {first!r})")
        valid = _ROWS.match(text, len(self.HEADER) + 1).end()
        if valid != len(text):
            line = 1 + text.count("\n", 0, valid)
            row = text[valid:].partition("\n")[0]
            raise ValueError(
                f"{self.path}:{line}: bad a_p cache row {row!r}"
                " (want four integers a4, a6, p >= 1, a_p and a newline)"
            )
        # this curve's rows, each after a newline; reversed, so the first occurrence of a p stays
        mine = re.compile(rf"\n{self.curve.a4}\t{self.curve.a6}\t(.*)\t(.*)")
        self._rows = {int(p): int(ap) for p, ap in reversed(mine.findall(text, len(self.HEADER)))}

    def __enter__(self) -> "ApCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.flush()

    def lookup(self, p: int) -> Optional[int]:
        return self._rows.get(p)

    def record(self, p: int, ap: int) -> None:
        self._rows.setdefault(p, ap)

    def flush(self) -> None:
        """Append the rows recorded since the last flush with one O_APPEND write."""
        if len(self._rows) == self._flushed:
            return
        import fcntl  # POSIX only, so imported where it is used

        prefix = f"{self.curve.a4}\t{self.curve.a6}\t"
        data = "".join(f"{prefix}{p}\t{ap}\n" for p, ap in islice(self._rows.items(), self._flushed, None))
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # held until close: two runs creating the file at once write one header
            fcntl.flock(fd, fcntl.LOCK_EX)
            if os.fstat(fd).st_size == 0:  # new, or left empty: it gets the header
                data = self.HEADER + "\n" + data
            os.write(fd, data.encode("ascii"))
        finally:
            os.close(fd)
        self._flushed = len(self._rows)
