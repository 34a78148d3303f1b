"""The field layer checks D once, where it enters from a caller.

Everything built from an element that already carries D trusts that D, so
each field command tests square-freeness once per public entry its handler
calls.  What must still be refused is refused without that retest.
"""

import io
import sys

import pytest

from kzero import cli, quadfield
from kzero.quadfield import QuadElement, stabilizes_order


def test_an_imaginary_field_is_refused_without_omega():
    with pytest.raises(ValueError):
        stabilizes_order(QuadElement(1, 1, -3))


# coherence calls three public entries: omega_of, effros_shen_coherence and fundamental_unit
CALLS = (
    (("contfrac", "--D", "7"), 1),
    (("unit", "--D", "7"), 1),
    (("omega", "--D", "13"), 1),
    (("dimgroup", "--D", "7"), 1),
    (("adelic", "--bound", "7"), 1),
    (("coherence", "--D", "7"), 3),
)


@pytest.mark.parametrize("argv, calls", CALLS, ids=[argv[0] for argv, _ in CALLS])
def test_each_field_command_tests_d_once_per_public_entry(monkeypatch, argv, calls):
    tested = []
    squarefree = quadfield.is_squarefree
    # every kzero module that holds the function, so an import by name is counted too
    for module in [m for name, m in sys.modules.items() if name.startswith("kzero")]:
        if getattr(module, "is_squarefree", None) is squarefree:
            monkeypatch.setattr(module, "is_squarefree", lambda n: tested.append(n) or squarefree(n))
    assert cli.run(argv, stdout=io.StringIO())[1] == 0
    assert len(tested) == calls, tested
