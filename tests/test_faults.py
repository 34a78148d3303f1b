"""Fault catalogue: every printed check can fail.

A `# status pass` means something only if some fault in the check's inputs
turns it to `fail`.  Each row injects one fault in-process with monkeypatch,
edits no file, and runs the same argv through `cli.run` without the fault
(exit 0) and with it (the row's expected exit).  The checks raise or return
False rather than assert, so the rows hold under `python -O` too.
"""

import io

import pytest

from kzero import bratteli, cli, contfrac, elliptic, lfunction

_ES = bratteli.effros_shen
_DIAGRAM = bratteli.StationaryDiagram
_PF = bratteli.pf_data


def _refolded(word):
    """effros_shen with B folded from word(period) in place of the period rotated by one.

    Only B changes: the seed and the trace pair still come from the shared recurrence."""
    def effros_shen(theta, cf=None):
        cf = contfrac.expand(theta) if cf is None else cf
        s = _ES(theta, cf)
        return _DIAGRAM(contfrac.last_convergents(word(cf.period)), s.seed, s.period_length, s.seed_traces)
    return effros_shen


# the period unrotated, where effros_shen folds it rotated by one
_unrotated_fold = _refolded(lambda period: period)
# two periods per step: B^2, a correct telescoping of the same diagram
_squared_fold = _refolded(lambda period: (period[1:] + period[:1]) * 2)


def _swapped_seed(B, seed, period_length, seed_traces):
    return _DIAGRAM(B, seed[::-1], period_length, seed_traces)


def _conjugate_pf(s):
    # the other root of B's characteristic polynomial, m -> -m, and its eigenvector
    lam, vector = _PF(s)
    return bratteli.PFData(lam.trace() - lam, tuple(v.trace() - v for v in vector))


# (fault, attribute of bratteli it replaces, replacement, argv, exit with the fault)
FAULTS = (
    ("unrotated fold", "effros_shen", _unrotated_fold, ("coherence", "--D", "3"), 1),
    ("unrotated fold", "effros_shen", _unrotated_fold, ("dimgroup", "--D", "7"), 1),
    ("swapped seed", "StationaryDiagram", _swapped_seed, ("coherence", "--D", "2"), 1),
    ("B squared", "effros_shen", _squared_fold, ("coherence", "--D", "7"), 0),
    ("B squared", "effros_shen", _squared_fold, ("dimgroup", "--D", "7"), 0),
    ("conjugate Perron data", "pf_data", _conjugate_pf, ("coherence", "--D", "2"), 1),
    ("conjugate Perron data", "pf_data", _conjugate_pf, ("dimgroup", "--D", "7"), 1),
)


def _exit(argv):
    return cli.run(argv, stdout=io.StringIO())[1]


@pytest.mark.parametrize("fault, attr, replacement, argv, code", FAULTS,
                         ids=[f"{f[0]}: {' '.join(f[3])}" for f in FAULTS])
def test_a_fault_changes_the_exit(monkeypatch, fault, attr, replacement, argv, code):
    assert _exit(argv) == 0
    monkeypatch.setattr(bratteli, attr, replacement)
    assert _exit(argv) == code


_EXPAND = contfrac.expand
_LAST = contfrac.last_convergents
_LOG_SERIES = elliptic.LocalZeta.log_series
_FP2_COUNT = elliptic._fp2_count


def _flip_at_13(norm_form_ap):
    # the norm-form a_p with its sign flipped at p = 13 alone
    return lambda D, p: -norm_form_ap(D, p) if p == 13 else norm_form_ap(D, p)


def _bumped_period(x):
    # omega's expansion with its first period quotient increased by 1
    cf = _EXPAND(x)
    return contfrac.PeriodicCF(cf.preperiod, (cf.period[0] + 1, *cf.period[1:]))


def _p_plus_one(quotients):
    # the shared convergent recurrence with p_k + 1
    (p, q), tail = _LAST(quotients)
    return (p + 1, q), tail


def _log_t3_off_by_one(zeta, order):
    out = _LOG_SERIES(zeta, order)
    out[3] += 1
    return out


# (fault, owner of the attribute, attribute, replacement, argv, exit with the fault)
MORE_FAULTS = (
    ("norm-form sign flipped at 13", lfunction, "_norm_form_ap", _flip_at_13(elliptic._norm_form_ap),
     ("match", "--D", "1", "--bound", "200"), 1),
    ("norm-form sign flipped at 13", elliptic, "_norm_form_ap", _flip_at_13(elliptic._norm_form_ap),
     ("ap", "--D", "1", "--p", "13"), 1),
    # prop3's automorphic side is the norm-form Euler product patched here, until the Hecke lattice
    # sum of ROADMAP item 4 replaces it
    ("norm-form sign flipped at 13", lfunction, "_norm_form_ap", _flip_at_13(elliptic._norm_form_ap),
     ("prop3", "--D", "1", "--s", "3", "--bound", "200"), 1),
    ("first period quotient + 1", contfrac, "expand", _bumped_period, ("contfrac", "--D", "7"), 1),
    # fundamental_unit's norm check raises on the unit that p_k + 1 gives
    ("convergent p_k + 1", contfrac, "last_convergents", _p_plus_one, ("unit", "--D", "2"), 1),
    ("log coefficient of t^3 + 1", elliptic.LocalZeta, "log_series", _log_t3_off_by_one,
     ("zeta-local", "--D", "1", "--p", "5"), 1),
    ("F_(p^2) enumeration + 1", elliptic, "_fp2_count", lambda c, p: _FP2_COUNT(c, p) + 1,
     ("count", "--D", "1", "--p", "5", "--r", "2"), 1),
)


@pytest.mark.parametrize("fault, owner, attr, replacement, argv, code", MORE_FAULTS,
                         ids=[f"{f[0]}: {' '.join(f[4])}" for f in MORE_FAULTS])
def test_a_fault_outside_bratteli_changes_the_exit(monkeypatch, tmp_path, fault, owner, attr, replacement,
                                                    argv, code):
    monkeypatch.chdir(tmp_path)  # match keeps its a_p cache in the working directory
    assert _exit(argv) == 0
    monkeypatch.setattr(owner, attr, replacement)
    assert _exit(argv) == code


class RouteCrossed(Exception):
    """What a trace route's helper raises once it is patched out."""


def _crossed(*args):
    raise RouteCrossed


_LFUN = ("lfun", "--s", "3", "--bound", "2000", "--D", "1", "--which")

# (route, its helpers patched to raise, the --which that must run without them, the --which that uses them)
ROUTES = (
    ("point count", ("_point_count",), "auto", "motivic"),
    ("norm form", ("cornacchia", "_is_split"), "motivic", "auto"),
)


@pytest.mark.parametrize("route, helpers, runs, needs", ROUTES, ids=[r[0] for r in ROUTES])
def test_the_two_trace_routes_share_no_helper(monkeypatch, tmp_path, route, helpers, runs, needs):
    for name in helpers:
        monkeypatch.setattr(elliptic, name, _crossed)
    # a fresh cache for each run, so the motivic route counts every a_p
    assert _exit((*_LFUN, runs, "--cache", str(tmp_path / "runs.tsv"))) == 0
    with pytest.raises(RouteCrossed):  # the patch does break the route that uses the helpers
        _exit((*_LFUN, needs, "--cache", str(tmp_path / "needs.tsv")))
