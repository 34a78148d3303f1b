from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from kzero.contfrac import Convergent, PeriodicCF, convergents, expand, partial_quotients
from kzero.quadfield import QuadElement, is_squarefree, omega_of

SQUAREFREE = [d for d in range(2, 80) if is_squarefree(d)]


# -- data validation -------------------------------------------------------------


def test_periodic_cf_validation():
    PeriodicCF((1,), (2,))
    PeriodicCF((0, 1), (2, 3))
    PeriodicCF((-3, 1), (1, 2))  # negative leading quotient is fine
    with pytest.raises(ValueError):
        PeriodicCF((), (2,))
    with pytest.raises(ValueError):
        PeriodicCF((1,), ())
    with pytest.raises(ValueError):
        PeriodicCF((1, 0), (2,))  # non-leading quotient must be positive
    with pytest.raises(ValueError):
        PeriodicCF((1,), (0,))


def test_partial_quotients_stream():
    cf = PeriodicCF((1,), (2,))
    assert list(partial_quotients(cf, 6)) == [1, 2, 2, 2, 2, 2]
    cf2 = PeriodicCF((2,), (1, 1, 1, 4))
    assert list(partial_quotients(cf2, 10)) == [2, 1, 1, 1, 4, 1, 1, 1, 4, 1]
    assert list(partial_quotients(cf2, 0)) == []


# -- expansion golden values -----------------------------------------------------


def test_expand_sqrt2():
    cf = expand(QuadElement(0, 1, 2))
    assert cf.preperiod == (1,)
    assert cf.period == (2,)


def test_expand_golden_ratio():
    cf = expand(omega_of(5))
    assert cf.preperiod == (1,)
    assert cf.period == (1,)


def test_expand_sqrt3():
    cf = expand(QuadElement(0, 1, 3))
    assert cf.preperiod == (1,)
    assert cf.period == (1, 2)


def test_expand_sqrt7():
    cf = expand(QuadElement(0, 1, 7))
    assert cf.preperiod == (2,)
    assert cf.period == (1, 1, 1, 4)


def test_expand_omega13():
    cf = expand(omega_of(13))
    assert cf.preperiod == (2,)
    assert cf.period == (3,)


def test_expand_with_nontrivial_preperiod():
    # (3 + sqrt(2))/2 = 2.207...; not reduced, so the cycle starts later
    x = QuadElement(Fraction(3, 2), Fraction(1, 2), 2)
    cf = expand(x)
    assert cf.preperiod[0] == 2
    assert len(cf.period) >= 1


def test_expand_negative_value():
    cf = expand(-QuadElement(0, 1, 2))
    assert cf.preperiod[0] == -2


def test_expand_rejects_rational():
    with pytest.raises(ValueError):
        expand(QuadElement.rational(Fraction(3, 2), 2))


def test_expand_period_is_minimal():
    # if the period were reported doubled this would catch it
    for d in (2, 3, 5, 7, 13):
        cf = expand(omega_of(d))
        L = len(cf.period)
        for k in range(1, L):
            if L % k == 0:
                assert cf.period != cf.period[:k] * (L // k)


# -- convergents -----------------------------------------------------------------


def test_convergents_sqrt2():
    cf = expand(QuadElement(0, 1, 2))
    got = convergents(cf, 5)
    assert got == [
        Convergent(0, 1, 1),
        Convergent(1, 3, 2),
        Convergent(2, 7, 5),
        Convergent(3, 17, 12),
        Convergent(4, 41, 29),
    ]


def test_convergents_golden():
    cf = expand(omega_of(5))
    pairs = [(c.p, c.q) for c in convergents(cf, 7)]
    # Fibonacci ratios
    assert pairs == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13)]


def test_convergent_determinant_alternates():
    cf = expand(QuadElement(0, 1, 7))
    cs = convergents(cf, 10)
    for left, right in zip(cs, cs[1:]):
        det = right.p * left.q - left.p * right.q
        assert det == (-1) ** left.index


@pytest.mark.parametrize("d", SQUAREFREE[:20])
def test_convergent_quality(d):
    w = omega_of(d)
    cf = expand(w)
    for c in convergents(cf, 9):
        # |w - p/q| < 1/q^2, checked exactly in the field
        delta = w - Fraction(c.p, c.q)
        if delta.sign() < 0:
            delta = -delta
        assert delta < Fraction(1, c.q * c.q)


@pytest.mark.parametrize("d", SQUAREFREE[:20])
def test_convergents_alternate_around_value(d):
    w = omega_of(d)
    cs = convergents(expand(w), 8)
    for c in cs:
        side = (w - Fraction(c.p, c.q)).sign()
        assert side == (1 if c.index % 2 == 0 else -1)


@given(st.sampled_from(SQUAREFREE), st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_denominators_grow(d, n):
    cs = convergents(expand(omega_of(d)), n)
    assert len(cs) == n
    for left, right in zip(cs, cs[1:]):
        assert right.q >= left.q
        assert right.p * left.q != left.p * right.q  # distinct fractions


def test_convergents_count_validation():
    cf = PeriodicCF((1,), (2,))
    assert convergents(cf, 0) == []
    with pytest.raises(ValueError):
        convergents(cf, -1)


# -- expansion consistency: quotients reproduce the value -------------------------


# omega for small D, then inputs that need rescaling to (P + sqrt(d))/Q or
# start with Q < 0
TAIL_INPUTS = [pytest.param(omega_of(d), id=str(d)) for d in SQUAREFREE[:25]] + [
    pytest.param(-QuadElement(0, 1, 2), id="-sqrt2"),
    pytest.param(QuadElement(Fraction(3, 2), Fraction(1, 2), 2), id="(3+sqrt2)over2"),
    pytest.param(QuadElement(Fraction(1, 3), Fraction(-2, 3), 7), id="(1-2sqrt7)over3"),
    pytest.param(QuadElement(Fraction(5, 7), Fraction(1, 11), 3), id="5over7+sqrt3over11"),
]


@pytest.mark.parametrize("w", TAIL_INPUTS)
def test_periodic_tail_is_fixed_point(w):
    """The tail after the preperiod must satisfy the cycle equation exactly.

    Walking floor-and-invert down the reported quotients from the input must
    land back on the same residual after one full period.
    """
    cf = expand(w)
    x = w
    seen = []
    for a in islice(partial_quotients(cf, len(cf.preperiod) + 2 * len(cf.period)), 10 ** 6):
        assert x.floor() == a
        seen.append(x)
        x = 1 / (x - a)
    start = len(cf.preperiod)
    assert seen[start] == seen[start + len(cf.period)]
