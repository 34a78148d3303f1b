
import random

import pytest

from kzero.groupalg import (
    ConnectingMap,
    ProfiniteTower,
    RepDegreeProfile,
    cyclic_profile,
    cyclic_tower,
    sl2_degree_profile,
    validate_tower,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


# -- degree profiles ----------------------------------------------------------------


def test_profile_burnside_enforced():
    RepDegreeProfile("x", 6, (1, 1, 2))
    with pytest.raises(ValueError):
        RepDegreeProfile("x", 6, (1, 2))  # 1 + 4 != 6
    with pytest.raises(ValueError):
        RepDegreeProfile("x", 5, (1, 0, 2))  # nonpositive degree


def test_profile_sorts_degrees():
    p = RepDegreeProfile("x", 6, (2, 1, 1))
    assert p.degrees == (1, 1, 2)


def test_cyclic_profile():
    p = cyclic_profile(4)
    assert p.order == 4
    assert p.degrees == (1, 1, 1, 1)
    assert cyclic_profile(1).degrees == (1,)
    with pytest.raises(ValueError):
        cyclic_profile(0)


def test_sl2_profile_p5():
    p = sl2_degree_profile(5)
    assert p.order == 120
    assert sorted(p.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert len(p.degrees) == 5 + 4


def test_sl2_profile_p7():
    p = sl2_degree_profile(7)
    assert p.order == 336
    assert len(p.degrees) == 11
    assert sum(d * d for d in p.degrees) == 336
    # degrees present: 1, p, (p+1)/2 twice, (p-1)/2 twice, p+1, p-1 families
    assert p.degrees.count(4) >= 2 and p.degrees.count(3) >= 2
    assert 7 in p.degrees and 1 in p.degrees


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_sl2_profile_structure(p):
    prof = sl2_degree_profile(p)
    assert prof.order == p * (p * p - 1)
    assert len(prof.degrees) == p + 4
    assert sum(d * d for d in prof.degrees) == prof.order


def test_sl2_rejects_bad_p():
    with pytest.raises(ValueError):
        sl2_degree_profile(2)
    with pytest.raises(ValueError):
        sl2_degree_profile(9)


# -- connecting maps and towers -------------------------------------------------------


def test_connecting_map():
    m = ConnectingMap((0, 0, 1, 1, 2, 2), 3)
    assert m.rows == 6
    assert m.column_sums() == (2, 2, 2)
    with pytest.raises(ValueError):
        ConnectingMap((0, 3), 3)  # parent index out of range
    with pytest.raises(ValueError):
        ConnectingMap((), 0)


def test_cyclic_tower_shape():
    t = cyclic_tower(3, 4)
    assert t.prime == 3
    assert len(t.connecting) == 4
    assert [lv.order for lv in t.levels] == [1, 3, 9, 27, 81]
    for cm in t.connecting:
        assert set(cm.column_sums()) == {3}
    validate_tower(t)


def test_cyclic_tower_parent_rule():
    t = cyclic_tower(5, 2)
    # residue m at level 2 lies over m mod 5 at level 1
    cm = t.connecting[1]
    assert cm.parent == tuple(m % 5 for m in range(25))


def test_cyclic_tower_validation():
    with pytest.raises(ValueError):
        cyclic_tower(4, 2)
    with pytest.raises(ValueError):
        cyclic_tower(3, 0)


def test_a_tower_over_a_composite_builds_and_is_refused_by_validate_tower():
    # construction checks shapes only; the primality of p is validate_tower's to check
    levels = tuple(cyclic_profile(4 ** i) for i in range(3))
    maps = tuple(ConnectingMap(tuple(m % 4 ** i for m in range(4 ** (i + 1))), 4 ** i) for i in range(2))
    t = ProfiniteTower(4, levels, maps)
    assert [cm.column_sums() for cm in t.connecting] == [(4,), (4,) * 4]  # the other checks would pass
    with pytest.raises(ValueError, match="^4 is not prime$"):
        validate_tower(t)


def test_validate_tower_catches_corruption():
    t = cyclic_tower(3, 3)
    bad_map = ConnectingMap((0,) * 27, 9)  # all mass on residue 0
    corrupt = ProfiniteTower(t.prime, t.levels, (t.connecting[0], t.connecting[1], bad_map))
    with pytest.raises(ValueError):
        validate_tower(corrupt)


# -- self-similarity -----------------------------------------------------------------
#
# groupalg runs no isomorphism search: column sums p already make every block the root
# of a complete p-ary tree, so levels [1, w+1] are p copies of levels [0, w].  The
# canonical tree codes below are the test's own reference for that claim.


def _root_codes(maps, intern):
    # canonical bottom-up codes of the forest that a stack of connecting maps spans
    codes = [-1] * maps[-1].rows
    for cm in reversed(maps):
        children = [[] for _ in range(cm.cols)]
        for r, c in enumerate(cm.parent):
            children[c].append(codes[r])
        codes = [intern.setdefault(tuple(sorted(ch)), len(intern)) for ch in children]
    return codes


def _shift_similar(t, window):
    intern = {}
    shifted = _root_codes(t.connecting[1 : window + 1], intern)
    base = _root_codes(t.connecting[:window], intern)
    return sorted(shifted) == sorted(base * t.prime)


def _shuffled(t, rng):
    # the same levels with every parent array permuted: column sums stay p, the maps change
    maps = []
    for cm in t.connecting:
        parent = list(cm.parent)
        rng.shuffle(parent)
        maps.append(ConnectingMap(parent, cm.cols))
    return ProfiniteTower(t.prime, t.levels, maps)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_self_similarity_true(p):
    rng = random.Random(p)
    t = cyclic_tower(p, 5)
    for tower in (t, *(_shuffled(t, rng) for _ in range(5))):
        validate_tower(tower)
        for window in (1, 2, 3, 4):
            assert _shift_similar(tower, window)


def test_self_similarity_negative_control():
    t = cyclic_tower(3, 3)
    # rewire level-2 fibers so one residue has 4 preimages and another 2
    parent = list(t.connecting[1].parent)
    parent[parent.index(1)] = 0
    corrupt = ProfiniteTower(
        t.prime, t.levels, (t.connecting[0], ConnectingMap(tuple(parent), 3), t.connecting[2])
    )
    assert not _shift_similar(corrupt, 2)
    with pytest.raises(ValueError, match=r"connecting map 1 has column sums \(4, 2, 3\), expected all 3"):
        validate_tower(corrupt)


def test_self_similarity_wrong_branching_control():
    # a tower whose top step branches by p^3 instead of p
    t = cyclic_tower(2, 3)
    wide = ConnectingMap(tuple(m % 4 for m in range(32)), 4)
    levels = t.levels[:-1] + (cyclic_profile(32),)
    corrupt = ProfiniteTower(2, levels, t.connecting[:-1] + (wide,))
    assert not _shift_similar(corrupt, 2)
    # 32 blocks need a level of order at least 32, so the order check refuses it first
    with pytest.raises(ValueError, match="level 3 has order 32, expected 8"):
        validate_tower(corrupt)
