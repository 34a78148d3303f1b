"""The validated records: immutable, equal and hashed by their fields, one class at a time."""

from fractions import Fraction

import pytest

from kzero import Frozen, bratteli, contfrac, elliptic, groupalg, quadfield

RECORDS = {
    "QuadElement": lambda: quadfield.QuadElement(Fraction(1, 2), 3, 5),
    "PeriodicCF": lambda: contfrac.PeriodicCF((1,), (2, 3)),
    "StationaryDiagram": lambda: bratteli.effros_shen(quadfield.omega_of(7)),
    "CurveQ": lambda: elliptic.CurveQ(-1, 0),
    "RepDegreeProfile": lambda: groupalg.sl2_degree_profile(5),
    "ConnectingMap": lambda: groupalg.ConnectingMap((0, 0, 1), 2),
    "ProfiniteTower": lambda: groupalg.cyclic_tower(3, 2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable_and_equal_by_its_fields(name):
    record, again = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and isinstance(record, Frozen)
    assert record is not again and record == again and hash(record) == hash(again)
    assert not hasattr(record, "__dict__")
    for field in type(record).__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}' of a {name}"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}' of a {name}"):
            delattr(record, field)
    assert record == again
    assert repr(record).startswith(f"{name}({type(record).__slots__[0]}=")


def test_records_differ_by_field_and_by_class():
    x = quadfield.QuadElement(1, 2, 5)
    assert x != quadfield.QuadElement(1, 2, 13) and x != quadfield.QuadElement(1, 3, 5)
    assert x != (Fraction(1), Fraction(2), 5)  # a record is not its tuple of fields
    assert elliptic.CurveQ(-1, 0) != elliptic.CurveQ(-1, 0, cm_discriminant=1)
    assert len({x, quadfield.QuadElement(Fraction(2, 2), 2, 5)}) == 1
    assert repr(x) == "QuadElement(x=1, y=2, den=1, D=5)"
