"""Fault catalogue: every printed check can fail.

A `# status pass` means something only if some fault in the check's inputs
turns it to `fail`.  Each row injects one fault in-process with monkeypatch,
edits no file, and runs the same argv through `cli.run` without the fault
(exit 0) and with it (the row's expected exit).  The checks raise or return
False rather than assert, so the rows hold under `python -O` too.
"""

import io

import pytest

from kzero import bratteli, cli

_FOLD = bratteli.period_fold
_DIAGRAM = bratteli.StationaryDiagram


def _unrotated_fold(quotients):
    # effros_shen folds the period rotated by one; undo the rotation
    return _FOLD(quotients[-1:] + quotients[:-1])


def _swapped_seed(B, seed, period_length, seed_traces):
    return _DIAGRAM(B, seed[::-1], period_length, seed_traces)


def _squared_fold(quotients):
    # two periods per step: B^2, a correct telescoping of the same diagram
    return _FOLD(tuple(quotients) * 2)


# (fault, attribute of bratteli it replaces, replacement, argv, exit with the fault)
FAULTS = (
    ("unrotated fold", "period_fold", _unrotated_fold, ("coherence", "--D", "3"), 1),
    ("unrotated fold", "period_fold", _unrotated_fold, ("dimgroup", "--D", "7"), 1),
    ("swapped seed", "StationaryDiagram", _swapped_seed, ("coherence", "--D", "2"), 1),
    ("B squared", "period_fold", _squared_fold, ("coherence", "--D", "7"), 0),
    ("B squared", "period_fold", _squared_fold, ("dimgroup", "--D", "7"), 0),
)


def _exit(argv):
    return cli.run(argv, stdout=io.StringIO())[1]


@pytest.mark.parametrize("fault, attr, replacement, argv, code", FAULTS,
                         ids=[f"{f[0]}: {' '.join(f[3])}" for f in FAULTS])
def test_a_fault_changes_the_exit(monkeypatch, fault, attr, replacement, argv, code):
    assert _exit(argv) == 0
    monkeypatch.setattr(bratteli, attr, replacement)
    assert _exit(argv) == code
