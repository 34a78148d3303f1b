from fractions import Fraction

import pytest

import kzero.lfunction as lf
from kzero.elliptic import (
    CurveQ,
    cm_curve_for,
    count_points_extension,
    good_primes,
    hecke_ap_cm,
    trace_of_frobenius,
    weil_zeta_local,
)
from kzero.lfunction import (
    ConvergenceDomainError,
    automorphic_l_partial,
    local_factor_match,
    motivic_l1_partial,
    proposition3_check,
    zeta_partial,
)
from kzero.primes import sieve

CURVE_D1 = CurveQ(-1, 0)


# -- local factors -----------------------------------------------------------------


def test_public_entries_still_test_p():
    with pytest.raises(ValueError, match="15 is not prime"):
        trace_of_frobenius(CURVE_D1, 15)
    with pytest.raises(ValueError, match="15 is not prime"):
        hecke_ap_cm(1, 15)
    with pytest.raises(ValueError, match="15 is not prime"):
        weil_zeta_local(CURVE_D1, 15)
    with pytest.raises(ValueError, match="15 is not prime"):
        count_points_extension(CURVE_D1, 15, 3)


def test_sieved_factors_equal_checked_ones():
    assert zeta_partial(3, 100).factors == tuple((p, (1, -1)) for p in sieve(100))
    curve = cm_curve_for(1)
    checked = tuple((p, (1, -trace_of_frobenius(curve, p), p)) for p in good_primes(curve, 100))
    assert motivic_l1_partial(curve, 3, 100).factors == checked
    assert automorphic_l_partial(1, 3, 100).factors == checked


def test_local_polynomial_value():
    x = 5.0 ** -2
    assert lf._fold(((5, (1, -2, 5)),), 2.0) == pytest.approx(1 / (1 - 2 * x + 5 * x * x))
    assert lf._fold(((7, (1,)),), 3.0) == 1


# -- zeta partial products ----------------------------------------------------------


def test_zeta_partial_exact_small():
    assert zeta_partial(2.0, 2).value == pytest.approx(float(Fraction(4, 3)))
    assert zeta_partial(2.0, 3).value == pytest.approx(1.5)  # (4/3)(9/8)
    assert zeta_partial(3.0, 3).value == pytest.approx(float(Fraction(8, 7) * Fraction(27, 26)))


def test_zeta_partial_converges_to_basel():
    import math

    val = zeta_partial(2.0, 10 ** 4).value
    assert abs(val - math.pi ** 2 / 6) < 1e-4


def test_zeta_partial_domain():
    with pytest.raises(ConvergenceDomainError):
        zeta_partial(1.0, 10)
    with pytest.raises(ConvergenceDomainError):
        zeta_partial(0.5, 10)
    zeta_partial(complex(1.2, 40.0), 10)  # imaginary part is irrelevant


@pytest.mark.parametrize("product", (
    lambda s: zeta_partial(s, 10),
    lambda s: motivic_l1_partial(CURVE_D1, s, 10),
    lambda s: automorphic_l_partial(1, s, 10),
    lambda s: proposition3_check(1, s, 10),
), ids=("zeta", "motivic", "auto", "prop3"))
def test_nan_s_is_outside_every_domain(product):
    with pytest.raises(ConvergenceDomainError):
        product(float("nan"))


def test_zeta_partial_includes_exactly_the_primes():
    approx = zeta_partial(2.0, 30)
    assert [p for p, _ in approx.factors] == sieve(30)


def test_recompute_rejects_shuffled_factors():
    approx = zeta_partial(2.0, 20)
    with pytest.raises(AssertionError):
        lf._fold(tuple(reversed(approx.factors)), approx.s)


# -- motivic products ---------------------------------------------------------------


def test_motivic_partial_structure():
    approx = motivic_l1_partial(CURVE_D1, 2.0, 30)
    # good primes only: 2 is missing
    assert [p for p, _ in approx.factors] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert approx.factors[1] == (5, (1, 2, 5))  # a_5 = -2


def test_motivic_domain():
    with pytest.raises(ConvergenceDomainError):
        motivic_l1_partial(CURVE_D1, 1.5, 10)
    motivic_l1_partial(CURVE_D1, 1.6, 10)


def test_motivic_uses_cache(tmp_path):
    from kzero.elliptic import ApCache

    cache = ApCache(str(tmp_path / "c.tsv"), CURVE_D1)
    motivic_l1_partial(CURVE_D1, 3.0, 50, cache)
    assert cache.lookup(47) is not None


# -- automorphic products -------------------------------------------------------------


def test_automorphic_matches_motivic_for_table_curves():
    for d in (1, 2, 3):
        c = cm_curve_for(d)
        mot = motivic_l1_partial(c, 3.0, 150)
        aut = automorphic_l_partial(d, 3.0, 150)
        assert mot.value == aut.value
        assert [p for p, _ in mot.factors] == [p for p, _ in aut.factors]


def test_automorphic_domain_and_validation():
    with pytest.raises(ConvergenceDomainError):
        automorphic_l_partial(1, 1.5, 10)
    with pytest.raises(ValueError):
        automorphic_l_partial(7, 3.0, 10)  # not a table discriminant


# -- the prime-by-prime comparison ----------------------------------------------------


@pytest.mark.parametrize("d", (1, 2, 3))
def test_local_factor_match_clean(d):
    report = local_factor_match(d, 200)
    assert report.D == d and report.prime_bound == 200
    assert report.mismatches == ()
    assert [r.p for r in report.rows] == good_primes(cm_curve_for(d), 200)
    assert all(r.match for r in report.rows)


def test_local_factor_match_detects_injected_fault(monkeypatch):
    real = lf._norm_form_ap

    def tampered(D, p):
        if p == 13:
            return real(D, p) + 2
        return real(D, p)

    monkeypatch.setattr(lf, "_norm_form_ap", tampered)
    report = local_factor_match(1, 50)
    assert report.mismatches == (13,)
    bad = [r for r in report.rows if not r.match]
    assert len(bad) == 1 and bad[0].p == 13
    assert bad[0].ap_motivic == 6 and bad[0].ap_automorphic == 8


def test_match_uses_cache(tmp_path):
    from kzero.elliptic import ApCache

    path = tmp_path / "c.tsv"
    cache = ApCache(str(path), cm_curve_for(1))
    first = local_factor_match(1, 100, cache)
    cache.flush()
    warm = ApCache(str(path), CURVE_D1)  # the table curve's coefficients typed alone: the same rows
    second = local_factor_match(1, 100, warm)
    assert first == second


# -- the assembled ratio ---------------------------------------------------------------


@pytest.mark.parametrize("d", (1, 2, 3))
def test_proposition3_residual_tiny(d):
    assert proposition3_check(d, 3.0, 300) < 1e-12


def test_proposition3_complex_s():
    assert proposition3_check(1, complex(3.0, 1.0), 100) < 1e-12


def test_proposition3_domain():
    with pytest.raises(ConvergenceDomainError):
        proposition3_check(1, 2.0, 50)
    proposition3_check(1, 2.1, 50)


def test_proposition3_detects_injected_fault(monkeypatch):
    real = lf._norm_form_ap

    def tampered(D, p):
        if p == 5:
            return real(D, p) + 1
        return real(D, p)

    monkeypatch.setattr(lf, "_norm_form_ap", tampered)
    assert proposition3_check(1, 3.0, 50) > 1e-4
