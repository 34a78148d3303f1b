from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from kzero.contfrac import PeriodicCF, expand, last_convergents, partial_quotients
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
        expand(QuadElement(Fraction(3, 2), 0, 2))


def test_expand_period_is_minimal():
    # if the period were reported doubled this would catch it
    for d in (2, 3, 5, 7, 13):
        cf = expand(omega_of(d))
        L = len(cf.period)
        for k in range(1, L):
            if L % k == 0:
                assert cf.period != cf.period[:k] * (L // k)


# -- convergents -----------------------------------------------------------------


def convergents(cf, count):
    """The convergents (k, p_k, q_k) for k < count, each the head of `last_convergents`."""
    return [(k, *last_convergents(partial_quotients(cf, k + 1))[0]) for k in range(count)]


def test_convergents_sqrt2():
    cf = expand(QuadElement(0, 1, 2))
    assert convergents(cf, 5) == [(0, 1, 1), (1, 3, 2), (2, 7, 5), (3, 17, 12), (4, 41, 29)]
    # the tail is the convergent before the head
    assert last_convergents(partial_quotients(cf, 5)) == ((41, 29), (17, 12))


def test_convergents_golden():
    cf = expand(omega_of(5))
    pairs = [(p, q) for _, p, q in convergents(cf, 7)]
    # Fibonacci ratios
    assert pairs == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13)]


def test_convergent_determinant_alternates():
    cf = expand(QuadElement(0, 1, 7))
    for k in range(10):
        (p, q), (p_prev, q_prev) = last_convergents(partial_quotients(cf, k + 1))
        assert p * q_prev - p_prev * q == (-1) ** (k + 1)


@pytest.mark.parametrize("d", SQUAREFREE[:20])
def test_convergent_quality(d):
    w = omega_of(d)
    cf = expand(w)
    for _, p, q in convergents(cf, 9):
        # |w - p/q| < 1/q^2, checked exactly in the field
        delta = w - Fraction(p, q)
        if delta.sign() < 0:
            delta = -delta
        assert delta < Fraction(1, q * q)


@pytest.mark.parametrize("d", SQUAREFREE[:20])
def test_convergents_alternate_around_value(d):
    w = omega_of(d)
    for k, p, q in convergents(expand(w), 8):
        side = (w - Fraction(p, q)).sign()
        assert side == (1 if k % 2 == 0 else -1)


@given(st.sampled_from(SQUAREFREE), st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_denominators_grow(d, n):
    cs = convergents(expand(omega_of(d)), n)
    assert len(cs) == n
    for (_, p0, q0), (_, p1, q1) in zip(cs, cs[1:]):
        assert q1 >= q0
        assert p1 * q0 != p0 * q1  # distinct fractions


def test_convergents_count_validation():
    # no quotients leave the recurrence at its start (p_{-1}, q_{-1}) = (1, 0), (p_{-2}, q_{-2}) = (0, 1)
    cf = PeriodicCF((1,), (2,))
    assert last_convergents(partial_quotients(cf, 0)) == ((1, 0), (0, 1))
    assert last_convergents(partial_quotients(cf, -1)) == ((1, 0), (0, 1))
    assert last_convergents([]) == ((1, 0), (0, 1))


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
