import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cycle_count, cycles, from_cycles
from symbreak.perms import Perm

perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(n)).map(Perm)
)


def test_identity_and_call():
    p = Perm.identity(5)
    assert p.is_identity()
    assert [p(i) for i in range(5)] == list(range(5))


def test_compose_acts_right_to_left():
    a = Perm([1, 0, 2])  # swap 0,1
    b = Perm([0, 2, 1])  # swap 1,2
    ab = a * b
    assert ab(1) == a(b(1)) == 2
    assert ab.images == (1, 2, 0)


def test_compose_with_inverse_is_identity():
    g = Perm([2, 0, 3, 1])
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Perm([0, 1]) * Perm([0, 1, 2])


def test_four_cycle_has_one_cycle():
    g = from_cycles(4, [(0, 1, 2, 3)])
    assert cycles(g) == [(0, 1, 2, 3)]
    assert cycle_count(g) == 1


def test_p4_reversal_cycles_and_support():
    rev = Perm([3, 2, 1, 0])
    assert len(cycles(rev)) == 2
    assert rev.support() == (0, 1, 2, 3)
    assert cycle_count(rev) == 2


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 2])
    with pytest.raises(ValueError):  # bool is a subclass of int, but `true` is no image
        Perm.from_json("[true, false, 2]")


def test_json_round_trip():
    g = Perm([2, 0, 1])
    assert Perm.from_json(json.dumps(list(g.images))) == g


@given(perms)
def test_inverse_round_trip(g):
    assert (g * g.inverse()).is_identity()
    assert g.inverse().inverse() == g


@given(perms, st.data())
def test_compose_associative(a, data):
    n = a.degree
    b = Perm(data.draw(st.permutations(range(n))))
    c = Perm(data.draw(st.permutations(range(n))))
    assert ((a * b) * c).images == (a * (b * c)).images


@given(perms)
def test_cycles_partition_points(g):
    seen = set()
    for cyc in cycles(g, include_fixed=True):
        assert not (set(cyc) & seen)
        seen.update(cyc)
    assert seen == set(range(g.degree))
    for cyc in cycles(g):
        assert len(cyc) > 1
