import itertools
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from kzero.elliptic import (
    _chi_table,
    _smallest_nonresidue,
    ApCache,
    BadReductionError,
    CurveQ,
    LocalZeta,
    cm_curve_for,
    cm_table_discriminants,
    cornacchia,
    count_points_extension,
    count_points_fp2_enumeration,
    discriminant,
    good_primes,
    hecke_ap_cm,
    tonelli,
    trace_of_frobenius,
    weil_zeta_local,
)
from kzero import cli, elliptic
from kzero.primes import is_prime, sieve

CURVE_D1 = CurveQ(-1, 0)  # y^2 = x^3 - x


# -- curves and reduction -------------------------------------------------------


def test_discriminant():
    assert discriminant(CURVE_D1) == 64
    assert discriminant(CurveQ(0, 1)) == -432


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        CurveQ(0, 0)
    with pytest.raises(ValueError):
        CurveQ(-3, 2)  # 4*(-27) + 27*4 = 0


def test_good_primes():
    assert good_primes(CURVE_D1, 20) == [3, 5, 7, 11, 13, 17, 19]
    c3 = cm_curve_for(3)  # y^2 = x^3 + 1, disc -432
    assert good_primes(c3, 20) == [5, 7, 11, 13, 17, 19]


def test_bad_prime_raises_on_count():
    with pytest.raises(BadReductionError):
        count_points_extension(CURVE_D1, 2, 1)
    with pytest.raises(ValueError):
        count_points_extension(CURVE_D1, 15, 1)


# -- point counts -----------------------------------------------------------------


def test_counts_golden():
    assert count_points_extension(CURVE_D1, 3, 1) == 4
    assert count_points_extension(CURVE_D1, 5, 1) == 8
    assert count_points_extension(CURVE_D1, 7, 1) == 8
    assert count_points_extension(CURVE_D1, 13, 1) == 8


def test_counts_match_naive_loop():
    def naive(c, p):
        pts = 1
        for x in range(p):
            fx = (x * x * x + c.a4 * x + c.a6) % p
            for y in range(p):
                if (y * y - fx) % p == 0:
                    pts += 1
        return pts

    for c in (CURVE_D1, cm_curve_for(2), cm_curve_for(3), CurveQ(2, 3)):
        for p in good_primes(c, 17):
            assert count_points_extension(c, p, 1) == naive(c, p)


def test_trace_golden():
    assert trace_of_frobenius(CURVE_D1, 5) == -2
    assert trace_of_frobenius(CURVE_D1, 13) == 6
    assert trace_of_frobenius(CURVE_D1, 7) == 0
    with pytest.raises(BadReductionError, match=r"p = 2 is a prime of bad reduction for \(-1, 0\)"):
        trace_of_frobenius(CURVE_D1, 2)


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60, deadline=None)
def test_hasse_bound_random_curves(a4, a6):
    if 4 * a4 ** 3 + 27 * a6 ** 2 == 0:
        return
    c = CurveQ(a4, a6)
    for p in good_primes(c, 23):
        a_p = trace_of_frobenius(c, p)
        assert a_p * a_p <= 4 * p


def test_extension_counts_golden():
    assert count_points_extension(CURVE_D1, 5, 1) == 8
    assert count_points_extension(CURVE_D1, 5, 2) == 32
    assert count_points_extension(CURVE_D1, 3, 2) == 16
    # r = 3 via the recursion: s_3 = a^3 - 3pa
    a, p = -2, 5
    s3 = a ** 3 - 3 * p * a
    assert count_points_extension(CURVE_D1, 5, 3) == p ** 3 + 1 - s3
    with pytest.raises(ValueError):
        count_points_extension(CURVE_D1, 5, 4)


def test_fp2_enumeration_direct():
    assert count_points_fp2_enumeration(CURVE_D1, 5) == 32
    assert count_points_fp2_enumeration(CURVE_D1, 3) == 16
    assert count_points_fp2_enumeration(cm_curve_for(3), 7) == 7 ** 2 + 1 - (16 - 2 * 7)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_extension_count_group_order_divisibility(p):
    # E(F_p) is a subgroup of E(F_{p^2})
    if p in good_primes(CURVE_D1, p):
        n1 = count_points_extension(CURVE_D1, p, 1)
        n2 = count_points_extension(CURVE_D1, p, 2)
        assert n2 % n1 == 0


# -- local zeta -------------------------------------------------------------------


def test_local_zeta_golden():
    z = weil_zeta_local(CURVE_D1, 5)
    assert z.numerator == (1, 2, 5)
    assert str(z) == "(1+2t+5t^2)/((1-t)(1-5t))"


def test_local_zeta_series_counts():
    z = weil_zeta_local(CURVE_D1, 5)
    logs = z.log_series(3)
    n1 = count_points_extension(CURVE_D1, 5, 1)
    n2 = count_points_extension(CURVE_D1, 5, 2)
    n3 = count_points_extension(CURVE_D1, 5, 3)
    assert logs[1] == Fraction(n1, 1)
    assert logs[2] == Fraction(n2, 2)
    assert logs[3] == Fraction(n3, 3)


def test_local_zeta_series_expansion():
    z = LocalZeta(5, -2)
    s = z.series(4)
    assert s[0] == 1
    # (1 + 2t + 5t^2) * sum_k (sum_{d | ...}) expanded: direct check of degree 1
    # coefficient: 2 + (1 + 5) = 8 = N_1 where N_1 = 5 + 1 - (-2)
    assert s[1] == 8


def test_local_zeta_str_negative_trace():
    z = weil_zeta_local(CURVE_D1, 13)
    assert z.numerator == (1, -6, 13)
    assert "1-6t+13t^2" in str(z)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23))
def test_lefschetz_fixed_points(p):
    # |E(F_{p^r})| = 1 - tr(Frob^r | H^1) + p^r, with H^1's eigenvalues the roots
    # of T^2 - a_p T + p read off the zeta numerator; counted here by brute force
    # over F_p and over F_{p^2} = F_p[u]/(u^2 - n), apart from kzero's counts
    _, minus_a, det = weil_zeta_local(CURVE_D1, p).numerator
    traces = {1: -minus_a, 2: minus_a * minus_a - 2 * det}
    n = min(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)

    def mul(x, y):
        return ((x[0] * y[0] + n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    for r, field in ((1, [(x, 0) for x in range(p)]), (2, list(itertools.product(range(p), repeat=2)))):
        roots = {}
        for y in field:
            roots[mul(y, y)] = roots.get(mul(y, y), 0) + 1
        points = 1
        for x in field:
            x3 = mul(mul(x, x), x)
            points += roots.get(((x3[0] - x[0]) % p, (x3[1] - x[1]) % p), 0)  # y^2 = x^3 - x
        assert points == 1 - traces[r] + p ** r == count_points_extension(CURVE_D1, p, r)


# -- CM table and the norm-form route ----------------------------------------------


def test_cm_table():
    assert set(cm_table_discriminants()) == {1, 2, 3}
    assert cm_curve_for(1) == CurveQ(-1, 0, cm_discriminant=1)
    assert cm_curve_for(2) == CurveQ(-270, 1512, cm_discriminant=2)
    assert cm_curve_for(3) == CurveQ(0, 1, cm_discriminant=3)
    with pytest.raises(ValueError):
        cm_curve_for(5)


def test_cm_curves_nonsingular_and_good_reduction_sets():
    for d in cm_table_discriminants():
        c = cm_curve_for(d)
        assert discriminant(c) != 0


def test_tonelli():
    for p in (5, 13, 17, 29, 97, 193):
        for n in range(1, p):
            if pow(n, (p - 1) // 2, p) == 1:
                r = tonelli(n, p)
                assert r * r % p == n
    with pytest.raises(ValueError):
        tonelli(2, 5)  # 2 is not a square mod 5


def test_cornacchia():
    assert cornacchia(1, 13) == (3, 2)  # 13 = 9 + 4
    assert cornacchia(2, 17) == (3, 2)  # 17 = 9 + 2*4
    assert cornacchia(3, 7) == (2, 1)  # 7 = 4 + 3
    with pytest.raises(ValueError):
        cornacchia(3, 5)  # 5 is not of the form a^2 + 3b^2


@given(st.sampled_from([p for p in sieve(500) if p % 4 == 1]))
@settings(max_examples=40)
def test_cornacchia_splits_one_mod_four(p):
    a, b = cornacchia(1, p)
    assert a > 0 and b > 0
    assert a * a + b * b == p


def test_hecke_golden_d1():
    assert hecke_ap_cm(1, 5) == -2
    assert hecke_ap_cm(1, 13) == 6
    assert hecke_ap_cm(1, 7) == 0  # inert
    assert hecke_ap_cm(1, 11) == 0
    assert hecke_ap_cm(1, 17) == 2
    assert hecke_ap_cm(1, 29) == -10


def test_hecke_golden_d3():
    assert hecke_ap_cm(3, 7) == -4
    assert hecke_ap_cm(3, 13) == 2
    assert hecke_ap_cm(3, 5) == 0  # inert
    assert hecke_ap_cm(3, 11) == 0


def test_hecke_golden_d2():
    assert hecke_ap_cm(2, 11) == -6
    assert hecke_ap_cm(2, 17) == -6
    assert hecke_ap_cm(2, 19) == -2
    assert hecke_ap_cm(2, 5) == 0  # inert
    assert hecke_ap_cm(2, 13) == 0


def test_hecke_bad_prime_rejected():
    with pytest.raises(BadReductionError):
        hecke_ap_cm(1, 2)
    with pytest.raises(BadReductionError):
        hecke_ap_cm(3, 3)  # 3 divides disc of y^2 = x^3 + 1
    with pytest.raises(ValueError):
        hecke_ap_cm(5, 7)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_hecke_agrees_with_point_counts(d):
    c = cm_curve_for(d)
    for p in good_primes(c, 300):
        assert hecke_ap_cm(d, p) == trace_of_frobenius(c, p), f"D={d} p={p}"


def test_d1_sign_rule_ignores_the_order_and_signs_of_the_cornacchia_pair(monkeypatch):
    # the D = 1 rule swaps the odd part to the front and fixes its sign by
    # a + b = 1 mod 4, so any order and signs of the pair give the same a_p
    split = [p for p in good_primes(CURVE_D1, 300) if p % 4 == 1]
    expected = {p: trace_of_frobenius(CURVE_D1, p) for p in split}
    real = elliptic.cornacchia
    for swap, sa, sb in itertools.product((False, True), (1, -1), (1, -1)):
        def variant(d, p, swap=swap, sa=sa, sb=sb):
            a, b = real(d, p)
            return (sb * b, sa * a) if swap else (sa * a, sb * b)

        monkeypatch.setattr(elliptic, "cornacchia", variant)
        assert {p: hecke_ap_cm(1, p) for p in split} == expected, (swap, sa, sb)


@pytest.mark.parametrize("d, p", ((2, 11), (3, 7)))
def test_hecke_route_counts_no_points(monkeypatch, d, p):
    # the norm-form route must not consult the point count it is compared with
    expected = trace_of_frobenius(cm_curve_for(d), p)
    calls = []
    for name in ("trace_of_frobenius", "count_points_extension", "_point_count"):
        fn = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *a, fn=fn: calls.append(fn.__name__) or fn(*a))
    assert hecke_ap_cm(d, p) == expected
    assert calls == []


@pytest.mark.parametrize("d", (1, 2, 3))
def test_hecke_inert_primes_vanish(d):
    c = cm_curve_for(d)
    residues = {1: (1,), 2: (1, 3), 3: (1,)}[d]
    modulus = {1: 4, 2: 8, 3: 3}[d]
    for p in good_primes(c, 200):
        if p % modulus not in residues:
            assert hecke_ap_cm(d, p) == 0


def test_smallest_nonresidue_by_euler_criterion():
    for p in sieve(500)[1:]:
        squares = {x * x % p for x in range(1, p)}
        assert _smallest_nonresidue(p) == min(n for n in range(2, p) if n not in squares)


def test_norm_form_route_builds_no_character_table():
    # Tonelli finds its non-residue by Euler's criterion, so the norm-form
    # route shares no character table with point counting
    p = 1000033  # split for D = 1, and 1 mod 8 so Tonelli walks the 2-Sylow tower
    before = _chi_table.cache_info().misses
    hecke_ap_cm(1, p)
    assert _chi_table.cache_info().misses == before


# -- baby-step giant-step and the F_{p^2} oracle ------------------------------------

ROUTE_CURVES = (cm_curve_for(1), cm_curve_for(2), cm_curve_for(3), CurveQ(-3, 5))


def _character_sum(c, p):
    """|E(F_p)| = p + 1 + the sum over x of (f(x)/p), vectorized: the oracle for both counts."""
    import numpy as np

    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    f = (x * x % p * x + c.a4 % p * x + c.a6) % p
    return p + 1 + int(chi[f].sum())


def test_bsgs_agrees_with_the_character_sum_up_to_20000():
    cases = [(c, p) for c in ROUTE_CURVES for p in good_primes(c, 20000) if p > elliptic._BSGS_MIN_P]
    before = _chi_table.cache_info().misses
    bsgs = [count_points_extension(c, p, 1) for c, p in cases]
    assert _chi_table.cache_info().misses == before  # none of them took the root count
    wrong = [(c.a4, c.a6, p) for (c, p), n in zip(cases, bsgs) if _character_sum(c, p) != n]
    assert wrong == []


def test_root_count_agrees_with_the_character_sum_up_to_229():
    assert elliptic._BSGS_MIN_P == 229  # Mestre's bound: baby-step giant-step above it
    cases = [(c, p) for c in ROUTE_CURVES for p in good_primes(c, 229)]
    wrong = [(c.a4, c.a6, p) for c, p in cases if count_points_extension(c, p, 1) != _character_sum(c, p)]
    assert wrong == []


def test_count_above_the_crossover_builds_no_character_table():
    before = _chi_table.cache_info().misses
    assert count_points_extension(CURVE_D1, 10007, 1) == 10007 + 1 - trace_of_frobenius(CURVE_D1, 10007)
    assert _chi_table.cache_info().misses == before


def test_bsgs_shares_no_helper_with_the_norm_form_route(monkeypatch):
    calls = []
    for name in ("tonelli", "cornacchia", "_smallest_nonresidue", "hecke_ap_cm"):
        fn = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *a, fn=fn: calls.append(fn.__name__) or fn(*a))
    for c in ROUTE_CURVES:
        for p in (1009, 10009, 1000033):  # 1000033 = 1 mod 8: Tonelli would walk its tower
            count_points_extension(c, p, 1)
    assert calls == []
    elliptic.hecke_ap_cm(1, 1000033)  # the wrappers do see the norm-form route's calls
    assert calls == ["hecke_ap_cm", "cornacchia", "tonelli", "_smallest_nonresidue"]


# A textbook group law, local to these tests so that they share nothing with
# the kernel: O is None, and the inverse is Fermat's, not pow(v, -1, p).
def _add(P, Q, A, p):
    if P is None or Q is None:
        return P if Q is None else Q
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(k, P, A, p):
    # right to left, where the kernel doubles left to right
    R = None
    while k:
        if k & 1:
            R = _add(R, P, A, p)
        P = _add(P, P, A, p)
        k >>= 1
    return R


def _points(A, B, p, count):
    """The first `count` affine points of y^2 = x^3 + A x + B mod p by x, with y checked."""
    points = []
    for x in itertools.count():
        f = (x * x * x + A * x + B) % p
        if f and pow(f, (p - 1) // 2, p) == 1:
            y = tonelli(f, p)
            assert y * y % p == f
            points.append((x, y))
            if len(points) == count:
                return points


def _order(P, A, p):
    n, Q = 1, P
    while Q is not None:
        n, Q = n + 1, _add(Q, P, A, p)
    return n


KERNEL_CURVES = ROUTE_CURVES[:3] + (CurveQ(-424243, 171719), CurveQ(98765, -1234567))


@pytest.mark.parametrize("e", (6, 9, 12))
def test_bsgs_orders_annihilate_points_on_the_curve_and_its_twist(e):
    for c in KERNEL_CURVES:
        primes = [p for p in itertools.islice(itertools.count(10 ** e), 2000) if is_prime(p)]
        for p in [p for p in primes if discriminant(c) % p][:3]:
            a_p = p + 1 - count_points_extension(c, p, 1)
            assert a_p * a_p <= 4 * p
            n = next(n for n in itertools.count(2) if pow(n, (p - 1) // 2, p) == p - 1)
            A, B = c.a4 % p, c.a6 % p
            for P in _points(A, B, p, 3):  # |E(F_p)| = p + 1 - a_p
                assert _mul(p + 1 - a_p, P, A, p) is None, (c, p, P)
            A, B = A * n * n % p, B * n * n * n % p  # the quadratic twist by a non-residue n
            for P in _points(A, B, p, 3):  # |E'(F_p)| = p + 1 + a_p
                assert _mul(p + 1 + a_p, P, A, p) is None, (c, p, P)


@given(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.sampled_from([p for p in sieve(5000) if p > 229]),
)
@settings(max_examples=100, deadline=None)
def test_bsgs_agrees_with_the_character_sum_on_random_curves(a4, a6, p):
    assume(4 * a4 ** 3 + 27 * a6 ** 2 != 0)
    c = CurveQ(a4, a6)
    assume(discriminant(c) % p != 0)
    assert count_points_extension(c, p, 1) == _character_sum(c, p)


def test_bsgs_scalar_multiple_agrees_with_the_textbook_law():
    p = 1009
    cases = [(A, P) for A, B in ((-1, 0), (0, 1), (4, 0), (2, 3)) for P in _points(A, B, p, 4)]
    cases += [(-1, (1, 0)), (0, (0, 1)), (4, (2, 4))]  # points of order 2, 3 and 4
    for A, P in cases:
        for k in range(3 * _order(P, A, p) + 2):
            Q = _mul(k, P, A, p)
            assert elliptic._multiple(k, *P, A, p) == ((None, None) if Q is None else Q), (A, P, k)


def _annihilates(g, n, klo, khi):
    # _annihilator's contract for a point of order n: n | g | every multiple of n in [klo, khi]
    return g % n == 0 and all(k % g == 0 for k in range(klo, khi + 1) if k % n == 0)


@pytest.mark.parametrize("A, R, n", (
    (-1, (1, 0), 2),  # y^2 = x^3 - x: a root of the cubic
    (0, (0, 1), 3),  # y^2 = x^3 + 1: an inflection point
    (4, (2, 4), 4),  # y^2 = x^3 + 4x: 2 (2, 4) = (0, 0)
))
def test_annihilator_of_points_of_order_2_3_and_4(A, R, n):
    p = 1009
    assert _order(R, A, p) == n
    for klo, khi in ((1, 12), (n, n), (5, 40), (1000, 1100), (990, 1030)):
        g = elliptic._annihilator(R, klo, khi, A, p)
        assert _annihilates(g, n, klo, khi), (n, klo, khi, g)
    assert elliptic._annihilator((None, None), 3, 9, A, p) == 1  # O has order 1


def test_annihilator_windows_from_a_centre_at_0():
    p, A, B = 1009, 2, 3
    R = max(_points(A, B, p, 20), key=lambda P: _order(P, A, p))
    n = _order(R, A, p)
    for klo, khi in ((1, n + 5), (1, 3 * n), (2, 2 * n - 1)):
        m = isqrt((khi - klo) // 2) + 1
        assert klo <= m < (n - 1) // 2  # the first window is centred at 0; baby steps miss n
        g = elliptic._annihilator(R, klo, khi, A, p)
        assert _annihilates(g, n, klo, khi), (n, klo, khi, g)
    # no multiple of n in [1, n - 1]: the window at 0 finds k = 0, which lies below klo
    with pytest.raises(AssertionError, match="no multiple of a point's order in \\[1, "):
        elliptic._annihilator(R, 1, n - 1, A, p)
    with pytest.raises(AssertionError, match="no multiple"):
        elliptic._annihilator(R, n + 1, 2 * n - 1, A, p)


def _fp2_meshgrid(c, p):
    """The F_{p^2} count as first written: all p^2 elements in one array."""
    import numpy as np

    n = _smallest_nonresidue(p)
    z0, z1 = np.meshgrid(np.arange(p, dtype=np.int64), np.arange(p, dtype=np.int64), indexing="ij")
    z0, z1 = z0.ravel(), z1.ravel()
    sq0 = (z0 * z0 + n * (z1 * z1 % p)) % p
    sq1 = 2 * z0 * z1 % p
    roots = np.bincount(sq0 + p * sq1, minlength=p * p)
    x3_0 = (sq0 * z0 + n * (sq1 * z1 % p)) % p
    x3_1 = (sq0 * z1 + sq1 * z0) % p
    f0 = (x3_0 + c.a4 % p * z0 + c.a6) % p
    f1 = (x3_1 + c.a4 % p * z1) % p
    return int(roots[f0 + p * f1].sum()) + 1


def _fp2_oracle_cases():
    assert 3 < elliptic._FP2_NUMPY_MIN_P < 200  # so both line sums are checked
    for c in ROUTE_CURVES:
        # every sixth good prime in (256, 700]: each sums several blocks of
        # lines, the last of them partly filled
        large = [p for p in good_primes(c, 700) if p > 256][::6]
        assert all((p + 1) // 2 > elliptic._FP2_BLOCK // p for p in large)
        for p in good_primes(c, 200) + large:
            yield c, p


def test_fp2_oracle_agrees_with_the_meshgrid_reference():
    for c, p in _fp2_oracle_cases():
        assert count_points_fp2_enumeration(c, p) == _fp2_meshgrid(c, p), (c, p)


def test_fp2_blocks_are_int32_and_agree_with_the_meshgrid_reference(monkeypatch):
    import numpy as np

    class BlockSpy:
        """numpy, recording the dtype of each block buffer the enumeration allocates."""

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype):
            seen.add(np.dtype(dtype).name)
            return np.empty(shape, dtype)

    monkeypatch.setattr(elliptic, "_import_numpy", BlockSpy)
    seen = set()
    for c, p in _fp2_oracle_cases():
        if p > elliptic._FP2_NUMPY_MIN_P:
            assert count_points_fp2_enumeration(c, p) == _fp2_meshgrid(c, p), (c, p)
    assert seen == {"int32"}


@given(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.sampled_from(sieve(400)[1:]),
)
@settings(max_examples=40, deadline=None)
def test_fp2_enumeration_agrees_with_the_meshgrid_on_random_curves(a4, a6, p):
    assume(4 * a4 ** 3 + 27 * a6 ** 2 != 0)
    c = CurveQ(a4, a6)
    assume(discriminant(c) % p != 0)
    assert count_points_fp2_enumeration(c, p) == _fp2_meshgrid(c, p)


@pytest.mark.parametrize("numpy_min_p", (0, 10 ** 9))
def test_fp2_line_sums_agree_on_both_sides_of_the_numpy_switch(monkeypatch, numpy_min_p):
    # each line sum counts the primes next to the switch, p = 41 and p = 43
    monkeypatch.setattr(elliptic, "_FP2_NUMPY_MIN_P", numpy_min_p)
    for c in ROUTE_CURVES:
        for p in (3, 5, 41, 43, 101):
            if discriminant(c) % p:
                assert count_points_fp2_enumeration(c, p) == _fp2_meshgrid(c, p), (c, p)


def test_fp2_int32_bound_covers_the_block_values():
    # A0, A1, A2, t, t^2 mod p and -t^3 mod p lie in [0, p), so a block value
    # A0 + t A1 + (t^2 mod p) A2 + (-t^3 mod p) lies in [0, 2(p-1)^2 + 2(p-1)];
    # the largest p the enumeration accepts must fit int32
    def top(p):
        return 2 * (p - 1) ** 2 + 2 * (p - 1)

    p32 = elliptic._FP2_INT32_P - 1  # the largest p the enumeration accepts
    assert top(p32) <= 2 ** 31 - 1
    assert top(elliptic._FP2_INT32_P + 1) > 2 ** 31 - 1  # the int32 bound is tight
    assert p32 >= cli._LIMITS["F_(p^2) enumeration"][1]  # every p the CLI accepts is enumerated


def test_fp2_enumeration_refuses_p_past_the_int32_bound_before_any_work(monkeypatch):
    p = next(q for q in range(elliptic._FP2_INT32_P, 2 * elliptic._FP2_INT32_P) if is_prime(q))
    monkeypatch.setattr(elliptic, "_smallest_nonresidue", lambda p: pytest.fail("enumeration started"))
    with pytest.raises(ValueError, match="2\\^15"):
        count_points_fp2_enumeration(CURVE_D1, p)
    with pytest.raises(ValueError, match="2\\^15"):
        count_points_extension(CURVE_D1, p, 2)


# -- the a_p cache ------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ApCache(str(path))
    assert cache.lookup(-1, 0, 5) is None
    cache.record(-1, 0, 5, -2)
    cache.record(0, 1, 7, -4)
    assert cache.lookup(-1, 0, 5) == -2
    cache.flush()
    text = path.read_text()
    assert text == "a4\ta6\tp\tap\n-1\t0\t5\t-2\n0\t1\t7\t-4\n"
    again = ApCache(str(path))
    assert again.lookup(0, 1, 7) == -4


def test_cache_first_record_wins(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ApCache(str(path))
    cache.record(-1, 0, 5, -2)
    cache.record(-1, 0, 5, 99)
    assert cache.lookup(-1, 0, 5) == -2
    cache.flush()
    assert "99" not in path.read_text()


def test_cache_flush_is_idempotent_and_lazy(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ApCache(str(path))
    cache.record(-1, 0, 5, -2)
    cache.flush()
    stamp = os.stat(path).st_mtime_ns
    cache.flush()  # clean: must not rewrite
    assert os.stat(path).st_mtime_ns == stamp


def test_cache_with_block_flushes_when_its_body_raises(tmp_path):
    path = tmp_path / "cache.tsv"
    with pytest.raises(RuntimeError):
        with ApCache(str(path)) as cache:
            cache.record(-1, 0, 5, -2)
            raise RuntimeError("a later check failed")
    assert path.read_text() == "a4\ta6\tp\tap\n-1\t0\t5\t-2\n"


def test_cache_rejects_foreign_header(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("something\telse\n1\t2\n")
    with pytest.raises(ValueError):
        ApCache(str(path))


def test_cache_missing_file_is_empty(tmp_path):
    cache = ApCache(str(tmp_path / "absent.tsv"))
    assert cache.lookup(1, 1, 5) is None


def test_cache_used_by_trace(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = ApCache(str(path))
    assert elliptic._good_ap(CURVE_D1, 13, cache) == 6
    assert cache.lookup(-1, 0, 13) == 6
    # poison the cache to prove lookups short-circuit counting
    poisoned = ApCache(str(path))
    poisoned.record(-1, 0, 97, 1)
    assert elliptic._good_ap(CURVE_D1, 97, poisoned) == 1


def test_cache_hit_outside_hasse_bound_is_caught(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a4\ta6\tp\tap\n-1\t0\t97\t1000\n")
    with pytest.raises(AssertionError, match="Hasse"):
        elliptic._good_ap(CURVE_D1, 97, ApCache(str(path)))


def test_cache_two_writers_keep_both_rows(tmp_path):
    # both load the file before either flushes, as two concurrent runs do
    path = tmp_path / "cache.tsv"
    first, second = ApCache(str(path)), ApCache(str(path))
    first.record(-1, 0, 5, -2)
    second.record(0, 1, 7, -4)
    first.flush()
    second.flush()
    again = ApCache(str(path))
    assert again.lookup(-1, 0, 5) == -2
    assert again.lookup(0, 1, 7) == -4
    assert path.read_text().count(ApCache.HEADER) == 1


def test_cache_flush_appends_only_new_rows(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a4\ta6\tp\tap\n-1\t0\t5\t-2\n")
    cache = ApCache(str(path))
    cache.record(-1, 0, 5, -2)
    cache.record(0, 1, 7, -4)
    cache.flush()
    assert path.read_text() == "a4\ta6\tp\tap\n-1\t0\t5\t-2\n0\t1\t7\t-4\n"


def test_cache_duplicate_rows_resolve_to_first(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a4\ta6\tp\tap\n-1\t0\t5\t-2\n0\t1\t7\t-4\n-1\t0\t5\t2\n")
    assert ApCache(str(path)).lookup(-1, 0, 5) == -2


# near-miss keys: one key is a prefix, suffix or sign flip of another
_A4S, _A6S, _PS = ("1", "-1", "11"), ("0", "10"), ("13", "113", "137")


@given(st.lists(
    st.tuples(st.sampled_from(_A4S), st.sampled_from(_A6S), st.sampled_from(_PS), st.integers(-99, 99)),
    max_size=24,
))
@settings(max_examples=60, deadline=None)
def test_cache_lookup_returns_each_keys_first_occurrence(rows):
    body = "".join(f"{a4}\t{a6}\t{p}\t{ap}\n" for a4, a6, p, ap in rows)
    first_seen: dict[tuple[int, int, int], int] = {}
    for a4, a6, p, ap in rows:
        first_seen.setdefault((int(a4), int(a6), int(p)), ap)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.tsv")
        with open(path, "w") as fh:
            fh.write("a4\ta6\tp\tap\n" + body)
        cache = ApCache(path)
        for a4, a6, p in itertools.product(_A4S, _A6S, _PS):
            key = (int(a4), int(a6), int(p))
            assert cache.lookup(*key) == first_seen.get(key)


def test_cache_writers_creating_one_file_at_once_write_one_header(tmp_path):
    # each child loads the absent file and records its rows, then all flush together
    path = tmp_path / "cache.tsv"
    script = (
        "import sys\n"
        "from kzero.elliptic import ApCache\n"
        "cache = ApCache(sys.argv[1])\n"
        "for p in range(1, 41): cache.record(int(sys.argv[2]), 0, p, 0)\n"
        "print('ready', flush=True)\n"
        "sys.stdin.read()\n"
        "cache.flush()\n"
    )
    package_root = str(Path(elliptic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(path), str(k)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for k in range(6)
    ]
    try:
        for child in children:
            assert child.stdout.readline() == "ready\n"
        for child in children:  # released together: each is blocked reading stdin
            child.stdin.close()
        for child in children:
            assert child.wait(timeout=60) == 0
    finally:
        for child in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()
    lines = path.read_text().splitlines()
    assert lines.count(ApCache.HEADER) == 1 and lines[0] == ApCache.HEADER
    assert sorted(lines[1:]) == sorted(f"{k}\t0\t{p}\t0" for k in range(6) for p in range(1, 41))


def test_cache_file_left_empty_gets_header(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("")
    cache = ApCache(str(path))
    cache.record(-1, 0, 5, -2)
    cache.flush()
    assert path.read_text() == "a4\ta6\tp\tap\n-1\t0\t5\t-2\n"


@pytest.mark.parametrize("body, line", (
    pytest.param("-1\t0\tx\t3\n", 2, id="not-an-integer"),
    pytest.param("-1\t0\t5\t-2\n0\t1\t7\n", 3, id="three-fields"),
    pytest.param("-1\t0\t5\t-2\t9\n", 2, id="five-fields"),
    pytest.param("-1\t0\t0\t0\n", 2, id="p-zero"),
    pytest.param("-1\t0\t-5\t2\n", 2, id="p-negative"),
    pytest.param("-1\t0\t05\t-2\n", 2, id="leading-zero"),
    pytest.param("+1\t0\t5\t-2\n", 2, id="plus-sign"),
    pytest.param("-0\t0\t5\t-2\n", 2, id="minus-zero"),
    pytest.param("-1\t0\t5\t -2\n", 2, id="space"),
    pytest.param("-1\t0\t5\t-2\n\n", 3, id="blank-line"),
    pytest.param("-1\t0\t5\t-2\n0\t1\t7\t-4", 3, id="no-final-newline"),
    pytest.param("-1\t0\t5\t\u0662\n", 2, id="non-ascii-digit"),
))
def test_cache_bad_row_names_its_line(tmp_path, body, line):
    path = tmp_path / "cache.tsv"
    path.write_text("a4\ta6\tp\tap\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: bad a_p cache row")):
        ApCache(str(path))
