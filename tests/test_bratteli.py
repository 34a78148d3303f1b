import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzero.bratteli import (
    StationaryDiagram,
    _is_primitive,
    effros_shen,
    pf_data,
    shift_action_check,
    stationary_k0,
    uhf_diagram,
    uhf_k0_membership,
)
from kzero import contfrac
from kzero.contfrac import last_convergents
from kzero.coherence import is_positive_basis
from kzero.quadfield import QuadElement, is_squarefree, omega_of

SQUAREFREE = [d for d in range(2, 40) if is_squarefree(d)]

GOLDEN_B = ((1, 1), (1, 0))


def golden_diagram():
    w = omega_of(5)
    return effros_shen(w - w.floor())


# -- building blocks ---------------------------------------------------------------


def test_stationary_validation():
    seed, traces = (1, 1), golden_diagram().seed_traces
    assert StationaryDiagram([[1, 1], [1, 0]], [1, 1], 1, traces) == StationaryDiagram(GOLDEN_B, seed, 1, traces)
    # every refusal is a ValueError raised by the constructor, so it survives python -O
    refused = (
        (((2,),), seed, 1, traces),  # 1x1
        (((1, 1),), seed, 1, traces),  # 1x2
        (((1, 1, 0), (0, 1, 1), (1, 0, 1)), seed, 1, traces),  # 3x3, primitive
        (((1, 0), (0, 1)), seed, 1, traces),  # identity, not primitive
        (((0, 1), (1, 0)), seed, 1, traces),  # periodic, not primitive
        (((1, 1), (0, 1)), seed, 1, traces),  # reducible
        (((3, 1), (1, 1)), seed, 1, traces),  # det 2: the K0 limit is not finitely generated
        (((2, 2), (1, 1)), seed, 1, traces),  # det 0, rational Perron eigenvalue 3
        (GOLDEN_B, (1,), 1, traces),  # one seed block
        (GOLDEN_B, (1, 1, 1), 1, traces),  # three seed blocks
        (GOLDEN_B, (1, 0), 1, traces),  # an empty seed block
        (GOLDEN_B, seed, 0, traces),  # period 0
        (GOLDEN_B, seed, 1, (QuadElement(-1, 0, 5), traces[1])),  # negative trace
    )
    for args in refused:
        with pytest.raises(ValueError):
            StationaryDiagram(*args)


# -- UHF ---------------------------------------------------------------------------


def test_uhf_diagram_shape():
    sizes = uhf_diagram(5, 3)
    assert sizes == (1, 5, 25, 125)
    # every step is unital: each level is p times the one below
    assert all(hi == 5 * lo for lo, hi in zip(sizes, sizes[1:]))
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
    # the period fold B is the last two convergents of the period's quotients
    assert last_convergents([1]) == GOLDEN_B
    assert last_convergents([2]) == ((2, 1), (1, 0))
    assert last_convergents([1, 1]) == ((2, 1), (1, 1))
    # the rotated word of the sqrt(7) period, as used by the expansion diagram
    assert last_convergents([1, 1, 4, 1]) == ((11, 6), (9, 5))
    # no quotients, or a zero one, fold to a matrix that is not primitive
    traces = golden_diagram().seed_traces
    for word in ([], [1, 0]):
        with pytest.raises(ValueError, match="is not primitive"):
            StationaryDiagram(last_convergents(word), (1, 1), 1, traces)


def test_period_fold_composes():
    # later quotients multiply on the left: fold(a, b) = block(b) @ block(a)
    assert last_convergents([2, 1]) == (
        (1 * 2 + 1 * 1, 1 * 1 + 1 * 0),
        (1 * 2 + 0 * 1, 1 * 1 + 0 * 0),
    )


def test_effros_shen_golden():
    s = golden_diagram()
    assert s.B == GOLDEN_B
    assert s.seed == (1, 1)
    assert s.period_length == 1
    w = omega_of(5)
    assert s.seed_traces == (w - 1, -(w - 2))  # xi_0 = frac(omega), xi_1 = 1 - frac(omega)


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
        effros_shen(QuadElement(Fraction(1, 3), 0, 5))


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
    assert vec == (omega_of(5), QuadElement(1, 0, 5))


def test_pf_data_quadratic():
    # two golden steps in one: B = GOLDEN_B^2 over the golden seed and traces
    s = golden_diagram()
    lam, vec = pf_data(StationaryDiagram(((2, 1), (1, 1)), s.seed, 2, s.seed_traces))
    assert lam == QuadElement(Fraction(3, 2), Fraction(1, 2), 5)
    # left eigenvector equation w B = lam w, exact
    b = ((2, 1), (1, 1))
    for j in range(2):
        lhs = vec[0] * b[0][j] + vec[1] * b[1][j]
        assert lhs == lam * vec[j]


def test_constructor_accepts_exactly_the_nonnegative_primitive_unimodular_matrices():
    traces = golden_diagram().seed_traces
    for entries in itertools.product(range(-3, 4), repeat=4):
        b = (entries[:2], entries[2:])
        (b00, b01), (b10, b11) = b
        square = [[sum(b[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        wanted = min(entries) >= 0 and min(map(min, square)) > 0 and abs(b00 * b11 - b01 * b10) == 1
        try:
            StationaryDiagram(b, (1, 1), 1, traces)
        except ValueError:
            assert not wanted, b
        else:
            assert wanted, b


def test_is_primitive_matches_a_positive_square():
    # brute force: B is primitive iff B^2 is entrywise positive (Wielandt bound for n = 2)
    for entries in itertools.product(range(4), repeat=4):
        b = (entries[:2], entries[2:])
        square = [[sum(b[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert _is_primitive(b) == all(x > 0 for row in square for x in row), b


def cf_words():
    return st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


def square_free_part(n):
    f = 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        f += 1
    return n


@given(cf_words())
@settings(max_examples=80)
def test_pf_eigen_equation_exact_on_folds(word):
    b = last_convergents(word)
    (b00, b01), (b10, b11) = b
    d = square_free_part((b00 + b11) ** 2 - 4 * (b00 * b11 - b01 * b10))
    diag = StationaryDiagram(b, (1, 1), len(word), (QuadElement(1, 0, d),) * 2)
    lam, vec = pf_data(diag)
    for j in range(len(b)):
        lhs = sum((vec[i] * b[i][j] for i in range(len(b))), start=lam * 0)
        assert lhs == lam * vec[j]
    # spectral radius of a positive-trace unimodular fold exceeds 1
    assert lam > 1


# -- dimension groups ---------------------------------------------------------------


def test_stationary_k0_golden_module():
    group = stationary_k0(golden_diagram())
    w = omega_of(5)
    # (omega - 1, 2 - omega): 1/omega and 1/omega^2, a positive basis of Z + Z*omega
    assert group.real_embedding == (w - 1, 2 - w)
    assert group.real_embedding == (1 / w, 1 / (w * w))


@pytest.mark.parametrize("d", SQUAREFREE)
def test_stationary_k0_matches_integer_ring(d):
    w = omega_of(d)
    diagram = effros_shen(w - w.floor())
    group = stationary_k0(diagram)
    assert is_positive_basis(group.real_embedding)
    # the trace read off B is the convergents' trace pair, so dimgroup prints the same embedding
    assert group.real_embedding == diagram.seed_traces
    tau0, tau1 = group.real_embedding
    assert tau0 * diagram.seed[0] + tau1 * diagram.seed[1] == QuadElement(1, 0, d)  # unital


def test_telescoping_preserves_the_module():
    # three steps of B merged into one: the matrix B^3 over three periods
    s = golden_diagram()
    cube = StationaryDiagram(last_convergents([1] * 3), s.seed, 3 * s.period_length, s.seed_traces)
    assert cube.B == ((3, 2), (2, 1))
    assert stationary_k0(cube).real_embedding == stationary_k0(s).real_embedding


# -- shift action -------------------------------------------------------------------


@pytest.mark.parametrize("d", SQUAREFREE)
def test_shift_action_on_expansions(d):
    w = omega_of(d)
    diagram = effros_shen(w - w.floor())
    assert shift_action_check(diagram, stationary_k0(diagram))
    # xi_{c-1} > xi_c, so the swapped pair is no eigenvector of B
    swapped = StationaryDiagram(diagram.B, diagram.seed, diagram.period_length, diagram.seed_traces[::-1])
    assert not shift_action_check(swapped, stationary_k0(swapped))

