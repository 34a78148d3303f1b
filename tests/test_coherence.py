from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzero.coherence import (
    IncomparableFieldsError,
    RealModule,
    TraceCohomology,
    effros_shen_coherence,
    g_coherence_check,
    k0_automorphic,
    module_contains,
    module_equal,
    module_scale,
    trace_cohomology_ecm,
    z_module,
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


# -- construction and basis -------------------------------------------------------


def test_span_infers_field():
    m = RealModule.span(Fraction(1), sqrt2())
    assert m.D == 2
    assert m.rank == 2


def test_rational_module_has_no_field():
    m = RealModule.span(Fraction(1, 2), Fraction(1, 3))
    assert m.D is None
    assert m.rank == 1
    assert m.basis() == [(Fraction(1, 6), Fraction(0))]


def test_rational_quad_elements_are_field_agnostic():
    # a QuadElement with b = 0 carries no field information
    m = RealModule.span(QuadElement.rational(2, 7), QuadElement(0, 1, 3))
    assert m.D == 3


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        RealModule.span(QuadElement(0, 1, 2), QuadElement(0, 1, 3))


def test_too_many_generators_rejected():
    with pytest.raises(ValueError):
        RealModule.span(Fraction(1), sqrt2(), 1 + sqrt2())


def test_zero_module():
    m = RealModule.span(Fraction(0))
    assert m.rank == 0
    assert m.basis() == []
    assert module_contains(z_module(), m)


def test_basis_is_canonical_hermite_form():
    a = RealModule.span(Fraction(1), sqrt2())
    b = RealModule.span(1 + sqrt2(), 1 + 2 * sqrt2())  # same lattice, other gens
    assert a.basis() == b.basis()
    assert a.basis() == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_basis_with_denominators():
    w = omega_of(5)  # (1 + sqrt 5)/2
    m = RealModule.span(Fraction(1), w)
    # Hermite rows (e, f), (0, g): the pivot row absorbs omega
    assert m.basis() == [(Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1))]


def test_rank_one_irrational():
    m = RealModule.span(3 * sqrt2())
    assert m.rank == 1
    assert m.basis() == [(Fraction(0), Fraction(3))]


# -- containment and equality ------------------------------------------------------


def test_containment_golden():
    big = RealModule.span(Fraction(1, 2), sqrt2())
    small = RealModule.span(Fraction(1), 2 * sqrt2())
    assert module_contains(big, small)
    assert not module_contains(small, big)


def test_containment_is_reflexive_and_antisymmetric():
    m = RealModule.span(Fraction(1), omega_of(13))
    n = RealModule.span(omega_of(13), Fraction(1))
    assert module_contains(m, n) and module_contains(n, m)
    assert module_equal(m, n)


def test_rank_mismatch_containment():
    plane = RealModule.span(Fraction(1), sqrt2())
    line = RealModule.span(Fraction(5))
    assert module_contains(plane, line)
    assert not module_contains(line, plane)


def test_index_two_sublattice():
    m = RealModule.span(Fraction(1), sqrt2())
    n = RealModule.span(Fraction(2), sqrt2())  # index 2 inside m
    assert module_contains(m, n)
    assert not module_equal(m, n)


def test_incomparable_fields_raise():
    a = RealModule.span(Fraction(1), QuadElement(0, 1, 2))
    b = RealModule.span(Fraction(1), QuadElement(0, 1, 3))
    with pytest.raises(IncomparableFieldsError):
        module_contains(a, b)
    with pytest.raises(IncomparableFieldsError):
        module_equal(a, b)


def test_rational_modules_compare_with_field_modules():
    # Z sits inside Z + Z*sqrt(2) even though Z carries no D
    assert module_contains(RealModule.span(Fraction(1), sqrt2()), z_module())


@given(
    st.sampled_from(SQUAREFREE[:10]),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80)
def test_containment_respects_integer_combinations(d, u, v):
    w = omega_of(d)
    m = RealModule.span(Fraction(1), w)
    x = Fraction(u) + v * w
    assert module_contains(m, RealModule.span(x))


@given(st.sampled_from(SQUAREFREE[:10]), st.integers(min_value=2, max_value=5))
@settings(max_examples=40)
def test_scaling_by_integer_shrinks(d, k):
    m = k0_automorphic(d)
    scaled = module_scale(m, Fraction(k))
    assert module_contains(m, scaled)
    assert not module_equal(m, scaled)


# -- scaling -----------------------------------------------------------------------


def test_scale_golden():
    m = RealModule.span(Fraction(1), sqrt2())
    doubled = module_scale(m, Fraction(2))
    assert doubled.basis() == [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))]
    back = module_scale(doubled, Fraction(1, 2))
    assert module_equal(back, m)


def test_scale_by_irrational():
    m = RealModule.span(Fraction(1), sqrt2())
    rotated = module_scale(m, sqrt2())
    # sqrt(2) * (Z + Z sqrt 2) = Z sqrt 2 + 2 Z, an index-2 sublattice
    assert module_contains(m, rotated)
    assert not module_equal(m, rotated)


def test_scale_by_zero_rejected():
    with pytest.raises(ValueError):
        module_scale(z_module(), Fraction(0))


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
    n = RealModule.span(Fraction(1), half_golden)
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


def test_trace_cohomology_validation():
    z = z_module()
    with pytest.raises(ValueError):
        TraceCohomology((z, z))  # even length
    with pytest.raises(ValueError):
        TraceCohomology((k0_automorphic(2), z, z))  # rank-2 end


def test_trace_cohomology_ecm_supported():
    h = trace_cohomology_ecm(2)
    assert len(h.modules) == 3
    assert h.modules[0].rank == 1
    assert module_equal(h.modules[1], k0_automorphic(2))
    assert h.modules[2].rank == 1
    h3 = trace_cohomology_ecm(3)
    assert module_equal(h3.modules[1], k0_automorphic(3))


def test_trace_cohomology_ecm_unsupported():
    for bad in (1, 5, 7):
        with pytest.raises(ValueError):
            trace_cohomology_ecm(bad)


def test_g_coherence_table():
    for d in (2, 3):
        assert g_coherence_check(trace_cohomology_ecm(d), k0_automorphic(d))


def test_g_coherence_negative_control():
    # an inflated middle module sticks out of the order and must fail
    h = TraceCohomology(
        (z_module(), RealModule.span(Fraction(1, 2), sqrt2()), z_module())
    )
    assert not g_coherence_check(h, k0_automorphic(2))


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
