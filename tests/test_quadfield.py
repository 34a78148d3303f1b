import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kzero.quadfield import (
    QuadElement,
    coordinates_in_order,
    fundamental_unit,
    is_squarefree,
    omega_of,
    unit_stability_check,
)

SQUAREFREE = [d for d in range(2, 60) if is_squarefree(d)]

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_d = st.sampled_from(SQUAREFREE[:12])


def elem(d):
    return st.builds(lambda a, b: QuadElement(a, b, d), fractions, fractions)


# -- construction ---------------------------------------------------------------


def test_squarefree_filter():
    assert is_squarefree(2) and is_squarefree(15) and is_squarefree(-7)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(50)
    assert not is_squarefree(0)
    assert is_squarefree(1)  # no square factor exceeding 1


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 12, -4])
def test_rejects_non_squarefree_d(bad):
    with pytest.raises(ValueError):
        QuadElement(Fraction(1), Fraction(1), bad)


def test_constructor_coerces_ints():
    x = QuadElement(3, Fraction(1, 2), 5)
    assert x.a == Fraction(3) and x.b == Fraction(1, 2)


def test_helpers():
    assert QuadElement.rational(Fraction(2, 3), 7) == QuadElement(Fraction(2, 3), 0, 7)


# -- field arithmetic ------------------------------------------------------------


def test_arithmetic_golden():
    x = QuadElement(1, 1, 2)  # 1 + sqrt(2)
    y = QuadElement(2, -1, 2)  # 2 - sqrt(2)
    assert x + y == QuadElement(3, 0, 2)
    assert x * y == QuadElement(0, 1, 2)  # (1+s)(2-s) = 2 - s + 2s - 2 = s
    assert x - y == QuadElement(-1, 2, 2)
    assert (x / y).norm() == x.norm() / y.norm()


def test_division_by_zero():
    x = QuadElement(1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        x / QuadElement(0, 0, 2)


def test_mixed_scalar_operations():
    x = QuadElement(1, 1, 5)
    assert x + 1 == QuadElement(2, 1, 5)
    assert 1 + x == QuadElement(2, 1, 5)
    assert x * Fraction(1, 2) == QuadElement(Fraction(1, 2), Fraction(1, 2), 5)
    assert -x + 2 == QuadElement(1, -1, 5)
    assert (1 / QuadElement(0, 1, 5)) == QuadElement(0, Fraction(1, 5), 5)


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError):
        QuadElement(0, 1, 2) + QuadElement(0, 1, 3)
    with pytest.raises(ValueError):
        QuadElement(0, 1, 2) * QuadElement(0, 1, 3)


def test_cross_field_strict_even_for_rational_values():
    # moving a rational value between fields goes through its coordinate a
    r = QuadElement.rational(3, 2)
    s = QuadElement(0, 1, 3)
    with pytest.raises(ValueError):
        r + s
    assert r.a + s == QuadElement(3, 1, 3)


@given(small_d.flatmap(lambda d: st.tuples(elem(d), elem(d))))
def test_norm_multiplicative(pair):
    x, y = pair
    assert (x * y).norm() == x.norm() * y.norm()


@given(small_d.flatmap(lambda d: st.tuples(elem(d), elem(d))))
def test_trace_additive(pair):
    x, y = pair
    assert (x + y).trace() == x.trace() + y.trace()


@given(small_d.flatmap(lambda d: st.tuples(elem(d), elem(d))))
def test_division_roundtrip(pair):
    x, y = pair
    if y.norm() == 0:
        return
    assert (x / y) * y == x


@given(small_d.flatmap(elem))
def test_conjugation_identities(x):
    conjugate = QuadElement(x.a, -x.b, x.D)
    assert x + conjugate == QuadElement.rational(x.trace(), x.D)
    assert x * conjugate == QuadElement.rational(x.norm(), x.D)


# -- order structure -------------------------------------------------------------


def test_sign_golden():
    assert QuadElement(0, 1, 2).sign() == 1
    assert QuadElement(0, -1, 2).sign() == -1
    assert QuadElement(0, 0, 7).sign() == 0
    # 7/5 - sqrt(2) > 0 iff 49/25 > 2: false
    assert QuadElement(Fraction(7, 5), -1, 2).sign() == -1
    # 3/2 - sqrt(2) > 0 iff 9/4 > 2: true
    assert QuadElement(Fraction(3, 2), -1, 2).sign() == 1
    # -4 + 3*sqrt(2) > 0 iff 18 > 16: true
    assert QuadElement(-4, 3, 2).sign() == 1


@given(small_d.flatmap(elem))
def test_sign_matches_float(x):
    approx = float(x.a) + float(x.b) * math.sqrt(x.D)
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)


def test_floor_golden():
    assert QuadElement(0, 1, 2).floor() == 1
    assert QuadElement(0, -1, 2).floor() == -2
    assert QuadElement(0, 3, 2).floor() == 4  # sqrt(18) = 4.24..
    assert QuadElement(0, -3, 2).floor() == -5
    assert QuadElement(Fraction(1, 2), Fraction(1, 2), 5).floor() == 1
    assert QuadElement.rational(Fraction(-7, 2), 5).floor() == -4
    assert QuadElement.rational(3, 5).floor() == 3
    # exact integer boundary: 2 + 0*sqrt(2)
    assert QuadElement(2, 0, 2).floor() == 2


@given(small_d.flatmap(elem))
def test_floor_brackets(x):
    n = x.floor()
    assert not x < QuadElement.rational(n, x.D)
    assert x < QuadElement.rational(n + 1, x.D)


@given(small_d.flatmap(lambda d: st.tuples(elem(d), elem(d))))
def test_comparisons_are_an_order(pair):
    x, y = pair
    assert (x < y) + (x == y) + (y < x) == 1


def test_str_forms():
    assert str(QuadElement(1, 1, 2)) == "1 + sqrt(2)"
    assert str(QuadElement(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2*sqrt(5)"
    assert str(QuadElement(0, 3, 7)) == "3*sqrt(7)"
    assert str(QuadElement.rational(4, 7)) == "4"
    assert str(QuadElement(2, -1, 3)) == "2 - sqrt(3)"


# -- ring of integers ------------------------------------------------------------


def test_omega_values():
    assert omega_of(2) == QuadElement(0, 1, 2)
    assert omega_of(3) == QuadElement(0, 1, 3)
    assert omega_of(5) == QuadElement(Fraction(1, 2), Fraction(1, 2), 5)
    assert omega_of(13) == QuadElement(Fraction(1, 2), Fraction(1, 2), 13)


def test_omega_rejects_bad_d():
    for bad in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            omega_of(bad)


@pytest.mark.parametrize("d", SQUAREFREE)
def test_omega_is_an_algebraic_integer(d):
    w = omega_of(d)
    assert w.trace().denominator == 1
    assert w.norm().denominator == 1


def test_coordinates_in_order():
    # D = 2: basis (1, sqrt 2)
    assert coordinates_in_order(QuadElement(3, -4, 2)) == (Fraction(3), Fraction(-4))
    # D = 5: basis (1, (1+sqrt 5)/2); golden ratio itself is (0, 1)
    assert coordinates_in_order(omega_of(5)) == (Fraction(0), Fraction(1))
    assert coordinates_in_order(QuadElement(2, 0, 5)) == (Fraction(2), Fraction(0))
    # (3 + sqrt 13)/2 = 1 + omega_13
    assert coordinates_in_order(QuadElement(Fraction(3, 2), Fraction(1, 2), 13)) == (
        Fraction(1),
        Fraction(1),
    )


# -- fundamental units -----------------------------------------------------------


def test_fundamental_unit_golden():
    assert fundamental_unit(2) == (QuadElement(1, 1, 2), -1)
    assert fundamental_unit(3) == (QuadElement(2, 1, 3), 1)
    assert fundamental_unit(5) == (QuadElement(Fraction(1, 2), Fraction(1, 2), 5), -1)
    assert fundamental_unit(13) == (QuadElement(Fraction(3, 2), Fraction(1, 2), 13), -1)
    # D = 19 has a famously larger unit: 170 + 39*sqrt(19)
    assert fundamental_unit(19) == (QuadElement(170, 39, 19), 1)


@pytest.mark.parametrize("d", SQUAREFREE)
def test_fundamental_unit_properties(d):
    eps, n = fundamental_unit(d)
    assert n in (1, -1)
    assert eps.norm() == n
    assert eps > 1
    # integral in the ring of integers
    u, v = coordinates_in_order(eps)
    assert u.denominator == 1 and v.denominator == 1


def test_fundamental_unit_is_first_unit_convergent():
    # reference: scan the convergents p/q of omega over one period for the
    # first whose p - q*conj(omega) has norm +-1
    from kzero.contfrac import convergents, expand

    for d in range(2, 2000):
        if not is_squarefree(d):
            continue
        w = omega_of(d)
        t, n = (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)
        cf = expand(w)
        for conv in convergents(cf, len(cf.preperiod) + len(cf.period) + 1):
            p, q = conv.p, conv.q
            norm = p * p - t * p * q + n * q * q
            if norm in (1, -1):
                break
        expected = QuadElement(Fraction(p - q * t), Fraction(0), d) + q * w
        assert fundamental_unit(d) == (expected, norm), f"D={d}"


@pytest.mark.parametrize("d", SQUAREFREE)
def test_unit_stability(d):
    assert unit_stability_check(d)


def test_unit_inverse_is_conjugate_up_to_sign():
    eps, n = fundamental_unit(2)
    assert eps * QuadElement(eps.a, -eps.b, eps.D) == QuadElement.rational(n, 2)
