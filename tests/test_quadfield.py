import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kzero.quadfield import (
    QuadElement,
    fundamental_unit,
    is_squarefree,
    omega_of,
    order_coordinates,
    unit_stability_check,
)

SQUAREFREE = [d for d in range(2, 60) if is_squarefree(d)]

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_d = st.sampled_from(SQUAREFREE[:12])


def elem(d):
    return st.builds(lambda a, b: QuadElement(a, b, d), fractions, fractions)


def coords(x):
    """The rational coordinates (a, b) of x = a + b*sqrt(D), read off its integer triple."""
    return Fraction(x.x, x.den), Fraction(x.y, x.den)


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
    assert coords(x) == (Fraction(3), Fraction(1, 2))
    assert (x.x, x.y, x.den) == (6, 1, 2)


def test_helpers():
    # a rational is built with b = 0 and stored as (numerator, 0, denominator)
    x = QuadElement(Fraction(2, 3), 0, 7)
    assert (x.x, x.y, x.den, x.D) == (2, 0, 3, 7)
    assert x == QuadElement(Fraction(4, 6), Fraction(0), 7)


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


def test_arithmetic_tests_d_only_at_the_public_constructor(monkeypatch):
    from kzero import quadfield

    tested = []
    monkeypatch.setattr(quadfield, "is_squarefree", lambda n: tested.append(n) or True)
    x, y = QuadElement(1, 1, 5), QuadElement(2, -1, 5)
    assert tested == [5, 5]
    z = (x + y) * (x - y) / -x + 1 - Fraction(1, 2) * y
    assert tested == [5, 5]
    assert z == QuadElement(*coords(z), 5) and tested == [5, 5, 5]


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError):
        QuadElement(0, 1, 2) + QuadElement(0, 1, 3)
    with pytest.raises(ValueError):
        QuadElement(0, 1, 2) * QuadElement(0, 1, 3)


def test_cross_field_strict_even_for_rational_values():
    # moving a rational value between fields goes through its coordinate a = x/den
    r = QuadElement(3, 0, 2)
    s = QuadElement(0, 1, 3)
    with pytest.raises(ValueError):
        r + s
    assert Fraction(r.x, r.den) + s == QuadElement(3, 1, 3)


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
    a, b = coords(x)
    conjugate = QuadElement(a, -b, x.D)
    assert x + conjugate == QuadElement(x.trace(), 0, x.D)
    assert x * conjugate == QuadElement(x.norm(), 0, x.D)


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
    a, b = coords(x)
    approx = float(a) + float(b) * math.sqrt(x.D)
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)


def test_floor_golden():
    assert QuadElement(0, 1, 2).floor() == 1
    assert QuadElement(0, -1, 2).floor() == -2
    assert QuadElement(0, 3, 2).floor() == 4  # sqrt(18) = 4.24..
    assert QuadElement(0, -3, 2).floor() == -5
    assert QuadElement(Fraction(1, 2), Fraction(1, 2), 5).floor() == 1
    assert QuadElement(Fraction(-7, 2), 0, 5).floor() == -4
    assert QuadElement(3, 0, 5).floor() == 3
    # exact integer boundary: 2 + 0*sqrt(2)
    assert QuadElement(2, 0, 2).floor() == 2


@given(small_d.flatmap(elem))
def test_floor_brackets(x):
    n = x.floor()
    assert not x < QuadElement(n, 0, x.D)
    assert x < QuadElement(n + 1, 0, x.D)


@given(small_d.flatmap(lambda d: st.tuples(elem(d), elem(d))))
def test_comparisons_are_an_order(pair):
    x, y = pair
    assert (x < y) + (x == y) + (y < x) == 1


def test_str_forms():
    assert str(QuadElement(1, 1, 2)) == "1 + sqrt(2)"
    assert str(QuadElement(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2*sqrt(5)"
    assert str(QuadElement(0, 3, 7)) == "3*sqrt(7)"
    assert str(QuadElement(4, 0, 7)) == "4"
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
    assert order_coordinates(QuadElement(3, -4, 2)) == (3, -4)
    # D = 5: basis (1, (1+sqrt 5)/2); golden ratio itself is (0, 1)
    assert order_coordinates(omega_of(5)) == (0, 1)
    assert order_coordinates(QuadElement(2, 0, 5)) == (2, 0)
    # (3 + sqrt 13)/2 = 1 + omega_13
    assert order_coordinates(QuadElement(Fraction(3, 2), Fraction(1, 2), 13)) == (1, 1)
    # outside Z + Z*omega: a half-integer of Z[sqrt 2], and sqrt(13)/2 = omega_13 - 1/2
    assert order_coordinates(QuadElement(Fraction(1, 2), 1, 2)) is None
    assert order_coordinates(QuadElement(0, Fraction(1, 2), 13)) is None


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
    assert order_coordinates(eps) is not None


def test_fundamental_unit_is_first_unit_convergent():
    # reference: run the convergent recurrence over omega's quotients here, and take the
    # first p/q whose p - q*conj(omega) has norm +-1
    from kzero.contfrac import expand, partial_quotients

    for d in range(2, 2000):
        if not is_squarefree(d):
            continue
        w = omega_of(d)
        t, n = (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)
        cf = expand(w)
        p, q, p_prev, q_prev = 1, 0, 0, 1
        for a in partial_quotients(cf, len(cf.preperiod) + len(cf.period) + 1):
            p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
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
    a, b = coords(eps)
    assert eps * QuadElement(a, -b, eps.D) == QuadElement(n, 0, 2)


# -- the integer triple against a test-local Fraction-pair reference ----------------

REFERENCE_D = st.sampled_from([2, 3, 5, 7, 13, 19, 43, 10007, -1, -2, -3, -7])


def ref_sign(a, b, d):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    return sa if a * a > b * b * d else sb


def ref_floor(a, b, d):
    # the largest integer n with n <= a + b*sqrt(d), found from a float guess and moved by exact signs
    n = math.floor(float(a) + float(b) * math.sqrt(abs(d)))  # b = 0 when d < 0
    while ref_sign(a - n, b, d) < 0:
        n -= 1
    while ref_sign(a - n - 1, b, d) >= 0:
        n += 1
    return n


def ref_str(a, b, d):
    if b == 0:
        return str(a)
    root = f"sqrt({d})"
    if a == 0:
        return root if b == 1 else f"{b}*{root}"
    return f"{a} {'+' if b > 0 else '-'} {root if abs(b) == 1 else f'{abs(b)}*{root}'}"


def ref_ops(d):
    def div(p, q):
        n = q[0] * q[0] - q[1] * q[1] * d
        return (p[0] * q[0] - p[1] * q[1] * d) / n, (p[1] * q[0] - p[0] * q[1]) / n

    return {
        "+": lambda p, q: (p[0] + q[0], p[1] + q[1]),
        "-": lambda p, q: (p[0] - q[0], p[1] - q[1]),
        "*": lambda p, q: (p[0] * q[0] + p[1] * q[1] * d, p[0] * q[1] + p[1] * q[0]),
        "/": div,
    }


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_is(x, a, b, d):
    """x is the reduced triple of a + b*sqrt(d)."""
    assert x.D == d and x.den > 0 and math.gcd(x.x, x.y, x.den) == 1
    assert coords(x) == (a, b)


def check_op(op, d, left, right, p, q):
    """left op right against the reference on the pairs p and q of the operands."""
    if op == "/" and q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            OPS[op](left, right)
    else:
        assert_is(OPS[op](left, right), *ref_ops(d)[op](p, q), d)


@given(REFERENCE_D, fractions, fractions, fractions, fractions, st.sampled_from(sorted(OPS)))
def test_arithmetic_matches_the_fraction_pair_reference(d, a1, b1, a2, b2, op):
    x, y = QuadElement(a1, b1, d), QuadElement(a2, b2, d)
    assert_is(x, a1, b1, d)
    check_op(op, d, x, y, (a1, b1), (a2, b2))
    # a rational operand acts as the element (a2, 0), on either side
    check_op(op, d, x, a2, (a1, b1), (a2, 0))
    check_op(op, d, a2, x, (a2, 0), (a1, b1))
    assert_is(-x, -a1, -b1, d)


@given(REFERENCE_D, fractions, fractions)
def test_sign_floor_and_str_match_the_fraction_pair_reference(d, a, b):
    x = QuadElement(a, b, d)
    assert str(x) == ref_str(a, b, d)
    if d < 0 and b != 0:
        with pytest.raises(ValueError):
            x.sign()
        with pytest.raises(ValueError):
            x.floor()
        return
    assert x.sign() == ref_sign(a, b, d)
    assert x.floor() == ref_floor(a, b, d)


@given(REFERENCE_D, fractions, fractions, st.integers(-30, 30).filter(bool))
def test_equal_values_are_one_triple_with_one_hash(d, a, b, k):
    x = QuadElement(a, b, d)
    # the same value reached through an unreduced route: times k, then divided by k
    y = x * k / k
    assert x == y and hash(x) == hash(y)
    assert_is(y, a, b, d)
    assert (x == QuadElement(a + 1, b, d)) is False and (x == QuadElement(a, b + 1, d)) is False
    assert len({x, y, QuadElement(a, b, d)}) == 1


def test_str_keeps_its_printed_forms():
    assert str(QuadElement(Fraction(1, 2), Fraction(1, 2), 13)) == "1/2 + 1/2*sqrt(13)"
    assert str(QuadElement(0, -1, 2)) == "-1*sqrt(2)"
    assert str(QuadElement(Fraction(-3, 4), Fraction(-5, 6), 7)) == "-3/4 - 5/6*sqrt(7)"
    assert str(QuadElement(0, Fraction(-2, 3), 5)) == "-2/3*sqrt(5)"


def test_an_operand_that_is_not_rational_is_refused():
    x = QuadElement(1, 1, 2)
    with pytest.raises(TypeError):
        x + 1.5
    with pytest.raises(TypeError):
        QuadElement(0.5, 1, 2)
