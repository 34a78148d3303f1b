import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kzero.bratteli import effros_shen, stationary_k0
from kzero.coherence import effros_shen_coherence, is_positive_basis
from kzero.quadfield import (
    QuadElement,
    fundamental_unit,
    is_squarefree,
    omega_of,
    order_coordinates,
    stabilizes_order,
    unit_stability_check,
)

SQUAREFREE = [d for d in range(2, 51) if is_squarefree(d)]


def sqrt2():
    return QuadElement(0, 1, 2)


def _tau(d):
    """The unital trace pair that coherence checks for Q(sqrt(d))."""
    return stationary_k0(effros_shen(omega_of(d))).real_embedding


def _conjugate(x):
    return x.trace() - x


# -- the pair check ------------------------------------------------------------------


PAIRS = {
    "trace pair": (lambda t0, t1: (t0, t1), True),
    "swapped, determinant -1": (lambda t0, t1: (t1, t0), True),
    "first entry doubled, index 2": (lambda t0, t1: (2 * t0, t1), False),
    "first entry halved, not integral": (lambda t0, t1: (t0 / 2, t1), False),
    "conjugate, a negative entry": (lambda t0, t1: (_conjugate(t0), _conjugate(t1)), False),
}


@pytest.mark.parametrize("d", (2, 5, 7, 13))
@pytest.mark.parametrize("name", PAIRS)
def test_the_pair_check_rows(d, name):
    make, expected = PAIRS[name]
    assert is_positive_basis(make(*_tau(d))) is expected


@pytest.mark.parametrize("d", SQUAREFREE)
def test_only_the_order_tells_the_trace_from_its_conjugate(d):
    # the conjugate pair is a basis of the same set Z + Z*omega, with one entry negative
    (a, b), (c, e) = (order_coordinates(_conjugate(t)) for t in _tau(d))
    assert a * e - b * c in (1, -1)
    assert sorted(_conjugate(t).sign() for t in _tau(d)) == [-1, 1]


def test_zero_module():
    # zero lies in Z + Z*omega, and a pair with a zero entry spans rank one at most
    assert order_coordinates(QuadElement(0, 0, 5)) == (0, 0)
    assert not is_positive_basis((QuadElement(0, 0, 2), QuadElement(1, 0, 2)))


def test_basis_with_denominators():
    # omega_5 = (1 + sqrt 5)/2 and sqrt 5 = 2*omega_5 - 1 are a positive basis of Z + Z*omega_5
    w, root = omega_of(5), QuadElement(0, 1, 5)
    assert is_positive_basis((w, root))
    assert not is_positive_basis((w, root / 2))


def test_rank_one_irrational():
    # two positive multiples of sqrt 2 lie in Z + Z*sqrt 2 but span a group of rank one
    assert not is_positive_basis((sqrt2(), 3 * sqrt2()))


def test_index_two_sublattice():
    one = QuadElement(1, 0, 2)
    assert is_positive_basis((one, sqrt2()))
    assert not is_positive_basis((2 * one, sqrt2()))  # index 2 inside Z + Z*sqrt 2


def test_incomparable_fields_raise():
    # read in their own bases, these two would pass as a basis of Z + Z*sqrt 2
    with pytest.raises(ValueError, match="mixes"):
        is_positive_basis((QuadElement(1, 0, 3), sqrt2()))


# -- membership in Z + Z*omega --------------------------------------------------------


def test_containment_golden():
    assert order_coordinates(1 + 2 * sqrt2()) == (1, 2)
    assert order_coordinates(Fraction(1, 2) + sqrt2()) is None


def test_rational_modules_compare_with_field_modules():
    # a rational lies in Z + Z*omega iff it is an integer
    for d in (2, 5):
        assert order_coordinates(QuadElement(-3, 0, d)) == (-3, 0)
        assert order_coordinates(QuadElement(Fraction(1, 2), 0, d)) is None


@given(
    st.sampled_from(SQUAREFREE[:10]),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)
@settings(max_examples=80)
def test_containment_respects_integer_combinations(d, u, v):
    assert order_coordinates(u + v * omega_of(d)) == (u, v)


def _cramer_reference(d, rows):
    """Whether u + v*omega, for each row (u, v), is a positive basis of Z + Z*omega.

    Containment: every coordinate is an integer.  Equality: 1 and omega are
    integer combinations of the pair, by Cramer's rule.  Order: both entries
    are positive in floating point, which is exact enough this far from 0.
    """
    (a, b), (c, e) = rows
    det = a * e - b * c
    if any(x.denominator != 1 for x in (a, b, c, e)) or det == 0:
        return False
    if any(x.denominator != 1 for x in (e / det, -b / det, -c / det, a / det)):
        return False
    w = (1 + math.sqrt(d)) / 2 if d % 4 == 1 else math.sqrt(d)
    return all(float(u) + float(v) * w > 0 for u, v in rows)


def test_containment_and_equality_match_cramer_reference():
    values = [Fraction(n, den) for n in range(-2, 3) for den in (1, 2)]
    for d in (2, 5, 13):
        w = omega_of(d)
        outcomes = set()
        for rows in product(product(values, repeat=2), repeat=2):
            expected = _cramer_reference(d, rows)
            assert is_positive_basis(tuple(u + v * w for u, v in rows)) is expected, (d, rows)
            outcomes.add(expected)
        assert outcomes == {True, False}


# -- scaling ---------------------------------------------------------------------------


@given(st.sampled_from(SQUAREFREE[:10]), st.integers(min_value=2, max_value=5))
@settings(max_examples=40)
def test_scaling_by_integer_shrinks(d, k):
    scaled = tuple(k * t for t in _tau(d))
    assert all(order_coordinates(t) is not None for t in scaled)  # still inside Z + Z*omega
    assert not is_positive_basis(scaled)


def test_scale_golden():
    doubled = tuple(2 * t for t in _tau(2))
    assert doubled == (2 * sqrt2() - 2, 6 - 4 * sqrt2())
    assert not is_positive_basis(doubled)
    assert is_positive_basis(tuple(t / 2 for t in doubled))


def test_scale_by_irrational():
    # sqrt(2) * (Z + Z*sqrt 2) = 2Z + Z*sqrt 2, an index-2 sublattice
    assert not is_positive_basis(tuple(sqrt2() * t for t in _tau(2)))
    assert not stabilizes_order(sqrt2())


def test_unit_scaling_fixes_the_order():
    # multiplication by the fundamental unit permutes the ring of integers, and eps > 0
    for d in (2, 3, 5, 13, 19):
        eps = fundamental_unit(d).epsilon
        assert is_positive_basis(tuple(eps * t for t in _tau(d)))
        assert is_positive_basis(tuple(t / eps for t in _tau(d)))
        assert stabilizes_order(eps) and stabilizes_order(1 / eps)


def test_non_unit_scaling_moves_the_order():
    tau, w = _tau(5), omega_of(5)
    assert is_positive_basis(tuple(w * t for t in tau))  # omega_5 is a unit
    assert not is_positive_basis(tuple(w / 2 * t for t in tau))
    assert not stabilizes_order(w / 2)
    # -1 is a unit too: it keeps the set and reverses the order
    assert not is_positive_basis(tuple(-t for t in tau))


# -- the main check for continued-fraction diagrams -------------------------------------


@pytest.mark.parametrize("d", SQUAREFREE)
def test_effros_shen_coherence_small_d(d):
    assert effros_shen_coherence(d)


def test_coherence_at_scale():
    # every real quadratic field with square-free D <= 3000 (1823 fields)
    fields = [d for d in range(2, 3001) if is_squarefree(d)]
    assert len(fields) == 1823
    for d in fields:
        assert unit_stability_check(d), f"D={d}"
        assert effros_shen_coherence(d), f"D={d}"


def test_effros_shen_coherence_rejects_bad_d():
    with pytest.raises(ValueError):
        effros_shen_coherence(4)
    with pytest.raises(ValueError):
        effros_shen_coherence(1)
