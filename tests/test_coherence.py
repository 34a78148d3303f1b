from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from kzero.coherence import (
    IncomparableFieldsError,
    RealModule,
    _hermite_basis,
    effros_shen_coherence,
    k0_automorphic,
    module_equal,
)
from kzero.quadfield import (
    QuadElement,
    fundamental_unit,
    is_squarefree,
    omega_of,
    unit_stability_check,
)

SQUAREFREE = [d for d in range(2, 51) if is_squarefree(d)]


def sqrt2():
    return QuadElement(0, 1, 2)


def module_contains(m, n):
    """N lies in M iff adding N's generators to M's canonical basis keeps that basis."""
    basis = m.basis()
    return _hermite_basis(basis + n.coords()) == basis


def module_scale(m, c):
    """c*M, spanned by c times M's generators."""
    return RealModule(*(c * g for g in m.generators))


def z_module():
    return RealModule(Fraction(1))


# -- construction and basis -------------------------------------------------------


def test_span_infers_field():
    m = RealModule(Fraction(1), sqrt2())
    assert m.D == 2
    assert m.rank == 2


def test_rational_module_has_no_field():
    m = RealModule(Fraction(1, 2), Fraction(1, 3))
    assert m.D is None
    assert m.rank == 1
    assert m.basis() == [(Fraction(1, 6), Fraction(0))]


def test_rational_quad_elements_are_field_agnostic():
    # a QuadElement with b = 0 carries no field information
    m = RealModule(QuadElement.rational(2, 7), QuadElement(0, 1, 3))
    assert m.D == 3


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        RealModule(QuadElement(0, 1, 2), QuadElement(0, 1, 3))


def test_too_many_generators_rejected():
    with pytest.raises(ValueError):
        RealModule(Fraction(1), sqrt2(), 1 + sqrt2())


def test_zero_module():
    m = RealModule(Fraction(0))
    assert m.rank == 0
    assert m.basis() == []
    assert module_contains(z_module(), m)


def test_basis_is_canonical_hermite_form():
    a = RealModule(Fraction(1), sqrt2())
    b = RealModule(1 + sqrt2(), 1 + 2 * sqrt2())  # same lattice, other gens
    assert a.basis() == b.basis()
    assert a.basis() == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_basis_with_denominators():
    w = omega_of(5)  # (1 + sqrt 5)/2
    m = RealModule(Fraction(1), w)
    # Hermite rows (e, f), (0, g): the pivot row absorbs omega
    assert m.basis() == [(Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1))]


def test_rank_one_irrational():
    m = RealModule(3 * sqrt2())
    assert m.rank == 1
    assert m.basis() == [(Fraction(0), Fraction(3))]


# -- containment and equality ------------------------------------------------------


def test_containment_golden():
    big = RealModule(Fraction(1, 2), sqrt2())
    small = RealModule(Fraction(1), 2 * sqrt2())
    assert module_contains(big, small)
    assert not module_contains(small, big)


def test_containment_is_reflexive_and_antisymmetric():
    m = RealModule(Fraction(1), omega_of(13))
    n = RealModule(omega_of(13), Fraction(1))
    assert module_contains(m, n) and module_contains(n, m)
    assert module_equal(m, n)


def test_rank_mismatch_containment():
    plane = RealModule(Fraction(1), sqrt2())
    line = RealModule(Fraction(5))
    assert module_contains(plane, line)
    assert not module_contains(line, plane)


def test_index_two_sublattice():
    m = RealModule(Fraction(1), sqrt2())
    n = RealModule(Fraction(2), sqrt2())  # index 2 inside m
    assert module_contains(m, n)
    assert not module_equal(m, n)


def test_incomparable_fields_raise():
    a = RealModule(Fraction(1), QuadElement(0, 1, 2))
    b = RealModule(Fraction(1), QuadElement(0, 1, 3))
    with pytest.raises(IncomparableFieldsError):
        module_equal(a, b)


def test_rational_modules_compare_with_field_modules():
    # Z sits inside Z + Z*sqrt(2) even though Z carries no D
    assert module_contains(RealModule(Fraction(1), sqrt2()), z_module())


@given(
    st.sampled_from(SQUAREFREE[:10]),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80)
def test_containment_respects_integer_combinations(d, u, v):
    w = omega_of(d)
    m = RealModule(Fraction(1), w)
    x = Fraction(u) + v * w
    assert module_contains(m, RealModule(x))


def _integer_rows(*rows):
    # coordinate rows scaled by one common denominator to integers
    denom = 1
    for row in rows:
        for c in row:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    return [(int(x * denom), int(y * denom)) for x, y in rows]


def _independent(rows):
    if len(rows) == 1:
        return rows[0] != (0, 0)
    (a1, b1), (a2, b2) = rows
    return a1 * b2 - a2 * b1 != 0


def _cramer_member(rows, v):
    """v is in the Z-span of the independent rows, by Cramer's rule in integers."""
    *gens, (x, y) = _integer_rows(*rows, v)
    if len(gens) == 1:
        (a, b), = gens
        # v is a rational multiple of (a, b) iff the cross product vanishes
        return a * y - b * x == 0 and (x % a == 0 if a else y % b == 0)
    (a1, b1), (a2, b2) = gens
    det = a1 * b2 - a2 * b1
    return (x * b2 - a2 * y) % det == 0 and (a1 * y - x * b1) % det == 0


def _cramer_contains(m_rows, n_rows):
    return all(_cramer_member(m_rows, v) for v in n_rows)


_COORD = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _rows(draw, d, rank):
    # rank independent rows; a rational module has rank 1 and zero sqrt(d) parts
    rational = d is None or draw(st.booleans())
    rows = [(draw(_COORD), Fraction(0) if rational else draw(_COORD)) for _ in range(rank)]
    assume(_independent(rows))
    return rows


@st.composite
def _module_pairs(draw):
    """(d, rows of M, rows of N, whether N lies in M by construction or None)."""
    d = draw(st.sampled_from([None] + [d for d in SQUAREFREE if d <= 30]))
    m_rows = draw(_rows(d, 1 if d is None else draw(st.integers(1, 2))))
    if draw(st.booleans()):
        n_rows = draw(_rows(d, 1 if d is None else draw(st.integers(1, 2))))
        return d, m_rows, n_rows, None
    # integer combinations of M's rows, optionally plus half a row of M
    coeff = st.integers(-2, 2)
    n_rows = []
    for _ in range(draw(st.integers(1, 2))):
        ks = [draw(coeff) for _ in m_rows]
        n_rows.append(tuple(sum(k * row[i] for k, row in zip(ks, m_rows)) for i in (0, 1)))
    if not draw(st.booleans()):
        return d, m_rows, n_rows, True
    x, y = m_rows[draw(st.integers(0, len(m_rows) - 1))]
    n_rows[0] = (n_rows[0][0] + x / 2, n_rows[0][1] + y / 2)
    return d, m_rows, n_rows, False


def _module(d, rows):
    if d is None:
        return RealModule(*(x for x, _ in rows))
    return RealModule(*(QuadElement(x, y, d) for x, y in rows))


@given(_module_pairs())
@settings(max_examples=200)
def test_containment_and_equality_match_cramer_reference(pair):
    d, m_rows, n_rows, member = pair
    m, n = _module(d, m_rows), _module(d, n_rows)
    expected = _cramer_contains(m_rows, n_rows)
    if member is not None:
        assert expected == member
    assert module_contains(m, n) == expected
    if _independent(n_rows):
        assert module_equal(m, n) == (expected and _cramer_contains(n_rows, m_rows))
        assert module_equal(n, m) == module_equal(m, n)


@given(st.sampled_from(SQUAREFREE[:10]), st.integers(min_value=2, max_value=5))
@settings(max_examples=40)
def test_scaling_by_integer_shrinks(d, k):
    m = k0_automorphic(d)
    scaled = module_scale(m, Fraction(k))
    assert module_contains(m, scaled)
    assert not module_equal(m, scaled)


# -- scaling -----------------------------------------------------------------------


def test_scale_golden():
    m = RealModule(Fraction(1), sqrt2())
    doubled = module_scale(m, Fraction(2))
    assert doubled.basis() == [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))]
    back = module_scale(doubled, Fraction(1, 2))
    assert module_equal(back, m)


def test_scale_by_irrational():
    m = RealModule(Fraction(1), sqrt2())
    rotated = module_scale(m, sqrt2())
    # sqrt(2) * (Z + Z sqrt 2) = Z sqrt 2 + 2 Z, an index-2 sublattice
    assert module_contains(m, rotated)
    assert not module_equal(m, rotated)


def test_unit_scaling_fixes_the_order():
    # multiplication by the fundamental unit permutes the ring of integers
    for d in (2, 3, 5, 13, 19):
        m = k0_automorphic(d)
        eps = fundamental_unit(d).epsilon
        assert module_equal(module_scale(m, eps), m)
        assert module_equal(module_scale(m, 1 / eps), m)


def test_non_unit_scaling_moves_the_order():
    m = k0_automorphic(5)
    half_golden = omega_of(5) / 2
    n = RealModule(Fraction(1), half_golden)
    # scaling Z + Z(omega/2) by omega leaves the lattice
    assert not module_equal(module_scale(n, omega_of(5)), n)
    # while the full order is preserved
    assert module_equal(module_scale(m, omega_of(5)), m)


# -- the distinguished modules ------------------------------------------------------


def test_k0_automorphic_shape():
    m = k0_automorphic(5)
    assert m.D == 5 and m.rank == 2
    assert m.basis() == [(Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1))]
    m2 = k0_automorphic(2)
    assert m2.basis() == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


# -- the main equality for continued-fraction diagrams ------------------------------


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
