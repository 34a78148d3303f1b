import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    count_points_fp,
    count_points_fp2_enumeration,
    discriminant,
    frobenius_matrices,
    good_primes,
    hecke_ap_cm,
    tonelli,
    trace_of_frobenius,
    weil_zeta_local,
)
from kzero import elliptic
from kzero.primes import sieve

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
        count_points_fp(CURVE_D1, 2)
    with pytest.raises(ValueError):
        count_points_fp(CURVE_D1, 15)


# -- point counts -----------------------------------------------------------------


def test_counts_golden():
    assert count_points_fp(CURVE_D1, 3) == 4
    assert count_points_fp(CURVE_D1, 5) == 8
    assert count_points_fp(CURVE_D1, 7) == 8
    assert count_points_fp(CURVE_D1, 13) == 8


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
            assert count_points_fp(c, p) == naive(c, p)


def test_trace_golden():
    assert trace_of_frobenius(CURVE_D1, 5).a_p == -2
    assert trace_of_frobenius(CURVE_D1, 13).a_p == 6
    assert trace_of_frobenius(CURVE_D1, 7).a_p == 0
    bad = trace_of_frobenius(CURVE_D1, 2)
    assert not bad.good and bad.a_p is None


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60, deadline=None)
def test_hasse_bound_random_curves(a4, a6):
    if 4 * a4 ** 3 + 27 * a6 ** 2 == 0:
        return
    c = CurveQ(a4, a6)
    for p in (5, 11, 17, 23):
        data = trace_of_frobenius(c, p)
        if data.good:
            assert data.a_p * data.a_p <= 4 * p


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


def test_frobenius_matrices():
    m = frobenius_matrices(CURVE_D1, 5)
    assert m.h0 == ((1,),)
    assert m.h2 == ((5,),)
    assert m.h1 == ((0, -5), (1, -2))
    # trace of h1 equals a_p
    assert m.h1[0][0] + m.h1[1][1] == -2
    # det of h1 equals p
    assert m.h1[0][0] * m.h1[1][1] - m.h1[0][1] * m.h1[1][0] == 5


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23))
def test_lefschetz_fixed_points(p):
    # |E(F_p)| = 1 - tr(h1) + p for every good prime
    m = frobenius_matrices(CURVE_D1, p)
    tr = m.h1[0][0] + m.h1[1][1]
    assert count_points_fp(CURVE_D1, p) == 1 - tr + p


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
        assert hecke_ap_cm(d, p) == trace_of_frobenius(c, p).a_p, f"D={d} p={p}"


@pytest.mark.parametrize("d, p", ((2, 11), (3, 7)))
def test_hecke_route_counts_no_points(monkeypatch, d, p):
    # the norm-form route must not consult the point count it is compared with
    expected = trace_of_frobenius(cm_curve_for(d), p).a_p
    calls = []
    for name in ("trace_of_frobenius", "count_points_fp"):
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


def test_bsgs_agrees_with_the_character_sum_up_to_20000(monkeypatch):
    cases = [(c, p) for c in ROUTE_CURVES for p in good_primes(c, 20000) if p > elliptic._BSGS_MIN_P]
    before = _chi_table.cache_info().misses
    bsgs = [count_points_fp(c, p) for c, p in cases]
    assert _chi_table.cache_info().misses == before  # none of them took the character sum
    monkeypatch.setattr(elliptic, "_BSGS_MIN_P", 20000)  # now every one does
    wrong = [(c.a4, c.a6, p) for (c, p), n in zip(cases, bsgs) if count_points_fp(c, p) != n]
    assert wrong == []


def test_count_above_the_crossover_builds_no_character_table():
    before = _chi_table.cache_info().misses
    assert count_points_fp(CURVE_D1, 10007) == 10007 + 1 - trace_of_frobenius(CURVE_D1, 10007).a_p
    assert _chi_table.cache_info().misses == before


def test_bsgs_shares_no_helper_with_the_norm_form_route(monkeypatch):
    calls = []
    for name in ("tonelli", "cornacchia", "_smallest_nonresidue", "hecke_ap_cm"):
        fn = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *a, fn=fn: calls.append(fn.__name__) or fn(*a))
    for c in ROUTE_CURVES:
        for p in (1009, 10009, 1000033):  # 1000033 = 1 mod 8: Tonelli would walk its tower
            count_points_fp(c, p)
    assert calls == []
    elliptic.hecke_ap_cm(1, 1000033)  # the wrappers do see the norm-form route's calls
    assert calls == ["hecke_ap_cm", "cornacchia", "tonelli", "_smallest_nonresidue"]


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


def test_fp2_oracle_agrees_with_the_meshgrid_reference():
    for c in ROUTE_CURVES:
        for p in good_primes(c, 200):
            assert count_points_fp2_enumeration(c, p) == _fp2_meshgrid(c, p), (c, p)


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
    trace_of_frobenius(CURVE_D1, 13, cache)
    assert cache.lookup(-1, 0, 13) == 6
    # poison the cache to prove lookups short-circuit counting
    poisoned = ApCache(str(path))
    poisoned.record(-1, 0, 97, 1)
    assert trace_of_frobenius(CURVE_D1, 97, poisoned).a_p == 1


def test_cache_hit_outside_hasse_bound_is_caught(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a4\ta6\tp\tap\n-1\t0\t97\t1000\n")
    with pytest.raises(AssertionError, match="Hasse"):
        trace_of_frobenius(CURVE_D1, 97, ApCache(str(path)))


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
