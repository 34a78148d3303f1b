import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzero.bratteli import (
    BratteliDiagram,
    DimensionGroup,
    MatrixAlgebraList,
    NotPrimitiveError,
    PFData,
    StationaryDiagram,
    UnsupportedDiagramError,
    _is_primitive,
    effros_shen,
    period_fold,
    pf_data,
    shift_action_check,
    stationary_k0,
    uhf_diagram,
    uhf_k0_membership,
)
from kzero import contfrac
from kzero.coherence import k0_automorphic, module_equal
from kzero.quadfield import QuadElement, is_squarefree, omega_of

SQUAREFREE = [d for d in range(2, 40) if is_squarefree(d)]

GOLDEN_B = ((1, 1), (1, 0))


def golden_diagram():
    w = omega_of(5)
    return effros_shen(w - w.floor())


# -- building blocks ---------------------------------------------------------------


def test_matrix_algebra_list():
    assert MatrixAlgebraList([2, 3]).sizes == (2, 3)
    with pytest.raises(ValueError):
        MatrixAlgebraList(())
    with pytest.raises(ValueError):
        MatrixAlgebraList((1, 0))


def test_diagram_shape_validation():
    levels = (MatrixAlgebraList((1,)), MatrixAlgebraList((2,)))
    BratteliDiagram(levels, (((2,),),))
    with pytest.raises(ValueError):
        BratteliDiagram(levels, ())  # missing matrix
    with pytest.raises(ValueError):
        BratteliDiagram(levels, (((3,),),))  # does not fit into size 2
    with pytest.raises(ValueError):
        BratteliDiagram(levels, (((1, 1),),))  # wrong shape


def test_stationary_validation():
    seed = MatrixAlgebraList((1, 1))
    StationaryDiagram(GOLDEN_B, seed)
    with pytest.raises(ValueError):
        StationaryDiagram(((1, 1),), seed)  # not square
    with pytest.raises(ValueError):
        StationaryDiagram(GOLDEN_B, MatrixAlgebraList((1,)))  # seed length
    with pytest.raises(ValueError):
        StationaryDiagram(GOLDEN_B, seed, period_length=0)
    with pytest.raises(ValueError):
        StationaryDiagram(GOLDEN_B, seed, seed_traces=(QuadElement(-1, 0, 5),) * 2)


# -- UHF ---------------------------------------------------------------------------


def test_uhf_diagram_shape():
    d = uhf_diagram(5, 3)
    assert [lv.sizes for lv in d.levels] == [(1,), (5,), (25,), (125,)]
    # every step is unital: each level is p times the one below
    assert all(hi.sizes[0] == 5 * lo.sizes[0] for lo, hi in zip(d.levels, d.levels[1:]))
    with pytest.raises(ValueError):
        uhf_diagram(4, 3)
    with pytest.raises(ValueError):
        uhf_diagram(5, -1)


def test_uhf_membership_golden():
    assert uhf_k0_membership(3, Fraction(7, 9))
    assert uhf_k0_membership(3, Fraction(-5, 27))
    assert uhf_k0_membership(3, 14)
    assert uhf_k0_membership(3, Fraction(0))
    assert not uhf_k0_membership(3, Fraction(1, 2))
    assert not uhf_k0_membership(3, Fraction(5, 6))
    assert not uhf_k0_membership(2, Fraction(1, 3))


@given(st.sampled_from([2, 3, 5, 7]), st.fractions(max_denominator=10 ** 6))
@settings(max_examples=120)
def test_uhf_membership_matches_denominator_factorization(p, x):
    d = Fraction(x).denominator
    while d % p == 0:
        d //= p
    assert uhf_k0_membership(p, x) == (d == 1)


# -- folding continued-fraction data into matrices ----------------------------------


def test_period_fold_golden():
    assert period_fold([1]) == GOLDEN_B
    assert period_fold([2]) == ((2, 1), (1, 0))
    assert period_fold([1, 1]) == ((2, 1), (1, 1))
    # the rotated word of the sqrt(7) period, as used by the expansion diagram
    assert period_fold([1, 1, 4, 1]) == ((11, 6), (9, 5))
    with pytest.raises(ValueError):
        period_fold([])
    with pytest.raises(ValueError):
        period_fold([1, 0])


def test_period_fold_composes():
    # later quotients multiply on the left: fold(a, b) = block(b) @ block(a)
    assert period_fold([2, 1]) == (
        (1 * 2 + 1 * 1, 1 * 1 + 1 * 0),
        (1 * 2 + 0 * 1, 1 * 1 + 0 * 0),
    )


def test_effros_shen_golden():
    s = golden_diagram()
    assert s.B == GOLDEN_B
    assert s.seed.sizes == (1, 1)
    assert s.period_length == 1
    assert s.seed_traces is not None


def test_effros_shen_sqrt3():
    w = omega_of(3)
    s = effros_shen(w - w.floor())
    assert s.B == ((3, 1), (2, 1))
    assert s.period_length == 2


def test_effros_shen_sqrt7():
    w = omega_of(7)
    s = effros_shen(w - w.floor())
    assert s.B == ((11, 6), (9, 5))
    assert s.period_length == 4


def test_effros_shen_reduces_mod_one():
    w = omega_of(5)
    assert effros_shen(w).B == effros_shen(w - w.floor()).B


def test_effros_shen_from_a_given_expansion():
    # theta's expansion with a_0 set to 0 is exactly the expansion of frac(theta)
    thetas = [omega_of(d) for d in range(2, 300) if is_squarefree(d)]
    thetas += [QuadElement(Fraction(a, 7), Fraction(b, 3), 13) for a in (-9, 0, 4) for b in (-2, 1, 5)]
    for theta in thetas:
        frac_part = theta - theta.floor()
        full, own = contfrac.expand(theta), contfrac.expand(frac_part)
        assert own == contfrac.PeriodicCF((0, *full.preperiod[1:]), full.period), theta
        assert effros_shen(theta, full) == effros_shen(theta) == effros_shen(frac_part), theta


def test_effros_shen_rejects_rational():
    with pytest.raises(ValueError):
        effros_shen(QuadElement.rational(Fraction(1, 3), 5))


@pytest.mark.parametrize("d", SQUAREFREE)
def test_effros_shen_determinant_is_unimodular(d):
    w = omega_of(d)
    s = effros_shen(w - w.floor())
    (a, b), (c, e) = s.B
    assert abs(a * e - b * c) == 1


# -- eigendata ----------------------------------------------------------------------


def test_pf_golden_exact():
    lam, vec = pf_data(golden_diagram())
    assert lam == omega_of(5)
    assert vec == (omega_of(5), QuadElement.rational(1, 5))


def test_pf_exact_2x2_quadratic():
    lam, vec = pf_data(StationaryDiagram(((2, 1), (1, 1)), MatrixAlgebraList((1, 1))))
    assert lam == QuadElement(Fraction(3, 2), Fraction(1, 2), 5)
    # left eigenvector equation w B = lam w, exact
    b = ((2, 1), (1, 1))
    for j in range(2):
        lhs = vec[0] * b[0][j] + vec[1] * b[1][j]
        assert lhs == lam * vec[j]


def test_pf_exact_2x2_rational():
    lam, vec = pf_data(StationaryDiagram(((2, 2), (1, 1)), MatrixAlgebraList((1, 1))))
    assert lam == Fraction(3)
    assert vec == (Fraction(1), Fraction(1))


def test_pf_rejects_non_primitive():
    seed = MatrixAlgebraList((1, 1))
    with pytest.raises(NotPrimitiveError):
        pf_data(StationaryDiagram(((1, 0), (0, 1)), seed))
    with pytest.raises(NotPrimitiveError):
        pf_data(StationaryDiagram(((0, 1), (1, 0)), seed))  # periodic, not primitive
    with pytest.raises(NotPrimitiveError):
        pf_data(StationaryDiagram(((1, 1), (0, 1)), seed))  # reducible


def test_pf_data_is_for_2x2_matrices_only():
    # a 3x3 matrix is refused before primitivity is asked, primitive or not
    for b in (((1, 1, 0), (0, 1, 1), (1, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(UnsupportedDiagramError):
            pf_data(StationaryDiagram(b, MatrixAlgebraList((1, 1, 1))))
    with pytest.raises(UnsupportedDiagramError):
        pf_data(StationaryDiagram(((2,),), MatrixAlgebraList((1,))))


def test_is_primitive_matches_a_positive_square():
    # brute force: B is primitive iff B^2 is entrywise positive (Wielandt bound for n = 2)
    for entries in itertools.product(range(4), repeat=4):
        b = (entries[:2], entries[2:])
        square = [[sum(b[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert _is_primitive(b) == all(x > 0 for row in square for x in row), b


def cf_words():
    return st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


@given(cf_words())
@settings(max_examples=80)
def test_pf_eigen_equation_exact_on_folds(word):
    b = period_fold(word)
    diag = StationaryDiagram(b, MatrixAlgebraList((1,) * len(b)))
    lam, vec = pf_data(diag)
    for j in range(len(b)):
        lhs = sum((vec[i] * b[i][j] for i in range(len(b))), start=lam * 0)
        assert lhs == lam * vec[j]
    # spectral radius of a positive-trace unimodular fold exceeds 1
    assert lam > 1


# -- dimension groups ---------------------------------------------------------------


def test_stationary_k0_golden_module():
    group = stationary_k0(golden_diagram())
    assert group.rank == 2
    assert group.matrix == GOLDEN_B
    assert group.real_embedding is not None
    assert module_equal(group.real_embedding, k0_automorphic(5))


@pytest.mark.parametrize("d", SQUAREFREE)
def test_stationary_k0_matches_integer_ring(d):
    w = omega_of(d)
    group = stationary_k0(effros_shen(w - w.floor()))
    assert module_equal(group.real_embedding, k0_automorphic(d))


def test_stationary_k0_hand_built_unimodular():
    # no stored traces: the eigenvector normalization is used instead
    group = stationary_k0(StationaryDiagram(GOLDEN_B, MatrixAlgebraList((1, 1))))
    assert group.real_embedding is not None
    assert module_equal(group.real_embedding, k0_automorphic(5))


def test_stationary_k0_non_unimodular_is_unsupported():
    # trace 4, det 2: irrational growth but the limit is not finitely generated
    diag = StationaryDiagram(((3, 1), (1, 1)), MatrixAlgebraList((1, 1)))
    with pytest.raises(UnsupportedDiagramError):
        stationary_k0(diag)


def test_stationary_k0_rational_growth_presentation_only():
    diag = StationaryDiagram(((2, 2), (1, 1)), MatrixAlgebraList((1, 1)))
    group = stationary_k0(diag)
    assert group.real_embedding is None
    assert group.rank == 2


def test_stationary_k0_identity_block():
    diag = StationaryDiagram(((1, 0), (0, 1)), MatrixAlgebraList((2, 3)))
    group = stationary_k0(diag)
    assert group == DimensionGroup(2, ((1, 0), (0, 1)), None)


def test_stationary_k0_three_by_three_presentation_only():
    b = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    group = stationary_k0(StationaryDiagram(b, MatrixAlgebraList((1, 1, 1))))
    assert group.rank == 3
    assert group.real_embedding is None


def test_telescoping_preserves_the_module():
    # three steps of B merged into one: the matrix B^3 over three periods
    s = golden_diagram()
    cube = StationaryDiagram(period_fold([1] * 3), s.seed, 3 * s.period_length, s.seed_traces)
    assert cube.B == ((3, 2), (2, 1))
    assert module_equal(stationary_k0(s).real_embedding, stationary_k0(cube).real_embedding)


# -- shift action -------------------------------------------------------------------


@pytest.mark.parametrize("d", SQUAREFREE)
def test_shift_action_on_expansions(d):
    w = omega_of(d)
    assert shift_action_check(effros_shen(w - w.floor()))


def test_shift_action_hand_built():
    assert shift_action_check(StationaryDiagram(GOLDEN_B, MatrixAlgebraList((1, 1))))


def test_shift_action_unsupported_diagram():
    diag = StationaryDiagram(((3, 1), (1, 1)), MatrixAlgebraList((1, 1)))
    with pytest.raises(UnsupportedDiagramError):
        shift_action_check(diag)

