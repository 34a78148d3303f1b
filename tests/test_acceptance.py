"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is self-contained: oracles are recomputed here from
independent routes (direct series, exhaustive enumeration, full
factorization) rather than imported from the library under test.
"""

import random
import time
from fractions import Fraction

import numpy as np

from kzero.bratteli import uhf_k0_membership
from kzero.coherence import effros_shen_coherence
from kzero.elliptic import (
    CurveQ,
    cm_curve_for,
    cm_table_discriminants,
    count_points_extension,
    good_primes,
    trace_of_frobenius,
    weil_zeta_local,
)
from kzero.groupalg import (
    ConnectingMap,
    ProfiniteTower,
    cyclic_profile,
    cyclic_tower,
    sl2_degree_profile,
    validate_tower,
)
from kzero.lfunction import local_factor_match, proposition3_check, zeta_partial
from kzero.primes import sieve
from kzero.quadfield import is_squarefree, unit_stability_check

SEED = 20260815


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_1_local_factor_match():
    ok = True
    details = []
    for d in (1, 3):
        start = time.perf_counter()
        report = local_factor_match(d, 1000)
        elapsed = time.perf_counter() - start
        clean = report.mismatches == () and len(report.rows) > 0
        ok = ok and clean and elapsed < 10.0
        details.append(f"D={d}: {len(report.rows)} primes, "
                       f"{len(report.mismatches)} mismatches, {elapsed:.2f}s")
    _report("criterion 1 trace match to 1000", ok, "; ".join(details))
    assert ok


def test_criterion_2_factorization_residual():
    start = time.perf_counter()
    residuals = {d: proposition3_check(d, 3.0, 500) for d in (1, 3)}
    elapsed = time.perf_counter() - start
    ok = all(r < 1e-10 for r in residuals.values()) and elapsed < 5.0
    _report(
        "criterion 2 product ratio residual",
        ok,
        f"D=1: {residuals[1]:.2e}, D=3: {residuals[3]:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_exp_log_identity():
    curve = CurveQ(-1, 0)
    checked = 0
    ok = True
    for p in good_primes(curve, 50):
        zeta = weil_zeta_local(curve, p)  # asserts log-series identity internally
        logs = zeta.log_series(3)
        for r in (1, 2, 3):
            ok = ok and logs[r] == Fraction(count_points_extension(curve, p, r), r)
        checked += 1
    ok = ok and checked == len(good_primes(curve, 50))
    _report(
        "criterion 3 exp-log identity on y^2 = x^3 - x",
        ok,
        f"{checked} good primes <= 50, coefficients t..t^3 exact (r=2 enumerated)",
    )
    assert ok


class _Fp2:
    """F_{p^2} = F_p[u]/(u^2 - n) by brute force: element z0 + z1 u is index z0 + p z1."""

    def __init__(self, p):
        squares = {x * x % p for x in range(1, p)}
        n = min(v for v in range(2, p) if v not in squares)
        self.p = p
        self.z0, self.z1 = np.arange(p * p) % p, np.arange(p * p) // p
        sq0, sq1 = (self.z0 ** 2 + n * self.z1 ** 2) % p, 2 * self.z0 * self.z1 % p
        self.roots = np.bincount(sq0 + p * sq1, minlength=p * p)  # square roots of each element
        self.cube0, self.cube1 = (sq0 * self.z0 + n * sq1 * self.z1) % p, (sq0 * self.z1 + sq1 * self.z0) % p

    def points(self, a4, a6):
        """|E(F_{p^2})|: the point at infinity and the square roots of f(z) over every z."""
        p = self.p
        f = (self.cube0 + a4 * self.z0 + a6) % p + p * ((self.cube1 + a4 * self.z1) % p)
        return 1 + int(self.roots[f].sum())


def test_criterion_4_lefschetz_count_for_frobenius_squared():
    # Frobenius squared has trace alpha^2 + beta^2 = a_p^2 - 2p on H^1, so
    # |E(F_{p^2})| = p^2 + 1 - (a_p^2 - 2p); the count here enumerates F_{p^2}
    rng = random.Random(SEED)
    table = [cm_curve_for(d) for d in cm_table_discriminants()]
    curves = list(table)
    while len(curves) < len(table) + 100:
        a4, a6 = rng.randint(-20, 20), rng.randint(-20, 20)
        if 4 * a4 ** 3 + 27 * a6 ** 2 != 0:
            curves.append(CurveQ(a4, a6))
    # p <= 100 by the root count for every curve; 229 < p <= 300 by baby-step giant-step
    cases = [(c, p) for c in curves for p in good_primes(c, 100)]
    cases += [(c, p) for c in table for p in good_primes(c, 300) if p > 229]
    start = time.perf_counter()
    fields = {}
    wrong = []
    for c, p in cases:
        if p not in fields:
            fields[p] = _Fp2(p)
        field = fields[p]
        a_p = trace_of_frobenius(c, p)
        if p * p + 1 - (a_p * a_p - 2 * p) != field.points(c.a4 % p, c.a6 % p):
            wrong.append((c.a4, c.a6, p))
    elapsed = time.perf_counter() - start
    ok = not wrong and len(cases) >= 2000 and max(p for _, p in cases) > 229 and elapsed < 1.0
    _report(
        "criterion 4 Lefschetz count for Frobenius squared",
        ok,
        f"{len(curves)} curves, {len(cases)} (curve, p) pairs to p <= 300 against F_(p^2) enumerated here, "
        f"{len(wrong)} wrong, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_dimension_group_coherence():
    ds = [d for d in range(2, 51) if is_squarefree(d)]
    start = time.perf_counter()
    coherent = all(effros_shen_coherence(d) for d in ds)
    stable = all(unit_stability_check(d) for d in ds)
    elapsed = time.perf_counter() - start
    ok = coherent and stable and elapsed < 5.0
    _report(
        "criterion 5 continued-fraction group equals integer ring",
        ok,
        f"{len(ds)} fields, coherence={coherent}, units={stable}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_towers_and_uhf_membership():
    # validate_tower's column sums p make every block root a complete p-ary tree, which is
    # the towers' self-similarity; it must accept the six towers and refuse both controls
    for p in (2, 3, 5, 7, 11, 13):
        validate_tower(cyclic_tower(p, 5))
    base = cyclic_tower(3, 3)
    parent = list(base.connecting[1].parent)
    parent[parent.index(1)] = 0  # 4 preimages over one residue and 2 over another
    rewired = ProfiniteTower(3, base.levels, (base.connecting[0], ConnectingMap(parent, 3), base.connecting[2]))
    small = cyclic_tower(2, 3)
    wide = ProfiniteTower(2, small.levels[:-1] + (cyclic_profile(32),),  # a p^3 branching
                          small.connecting[:-1] + (ConnectingMap([m % 4 for m in range(32)], 4),))
    refused = 0
    for control in (rewired, wide):
        try:
            validate_tower(control)
        except ValueError:
            refused += 1
    tower_ok = refused == 2

    rng = random.Random(SEED)
    agree = 0
    trials = 1000
    for _ in range(trials):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        # independent p-power predicate: does some p^k clear the denominator?
        m, d = 1, x.denominator
        for _ in range(64):
            if m % d == 0:
                break
            m *= p
        agree += uhf_k0_membership(p, x) == (m % d == 0)
    ok = tower_ok and agree == trials
    _report(
        "criterion 7 tower column sums and torus membership",
        ok,
        f"6 depth-5 towers accepted, {refused}/2 controls refused, {agree}/{trials} membership agreements",
    )
    assert ok


def test_criterion_8_degree_profiles():
    ps = [p for p in sieve(50) if p != 2]
    ok = True
    for p in ps:
        prof = sl2_degree_profile(p)
        ok = ok and sum(d * d for d in prof.degrees) == p * (p * p - 1)
        ok = ok and len(prof.degrees) == p + 4
    _report(
        "criterion 8 degree squares sum to the group order",
        ok,
        f"odd primes {ps[0]}..{ps[-1]}, counts p+4",
    )
    assert ok


def test_criterion_9_euler_product_vs_direct_series():
    start = time.perf_counter()
    product = zeta_partial(2.0, 10 ** 5).value.real
    elapsed = time.perf_counter() - start

    n = 10 ** 6
    direct = sum(1.0 / (k * k) for k in range(n, 0, -1))  # ascending magnitude
    # integral bounds: 1/(n+1) < tail < 1/n; the midpoint is accurate to O(n^-2)
    direct += (1.0 / n + 1.0 / (n + 1)) / 2
    rel = abs(product - direct) / direct
    ok = rel < 1e-5 and elapsed < 2.0
    _report(
        "criterion 9 restricted product vs direct series",
        ok,
        f"relative gap {rel:.2e}, product time {elapsed:.2f}s",
    )
    assert ok
