"""Coset/class enumeration for presented monoids and groups."""

import itertools

import pytest

from pgsemi.cosets import (
    enumerate_group,
    enumerate_monoid,
    from_doubled,
    group_to_monoid_relations,
    to_doubled,
)
from pgsemi.errors import BudgetExceeded


def test_free_monogenic_with_collapse():
    # <x | x^3 = x^2> has classes e, x, x^2
    enum = enumerate_monoid(1, [((0, 0, 0), (0, 0))])
    assert enum.size == 3
    assert enum.reps[0] == ()
    assert enum.act(0, (0, 0, 0)) == enum.act(0, (0, 0))


def test_two_idempotents_zero_product():
    # <a, b | a^2=a, b^2=b, ab=ba> is {e, a, b, ab}
    enum = enumerate_monoid(
        2, [((0, 0), (0,)), ((1, 1), (1,)), ((0, 1), (1, 0))]
    )
    assert enum.size == 4


def test_monoid_relations_validate_letters():
    with pytest.raises(ValueError):
        enumerate_monoid(1, [((0, 3), (0,))])


def test_budget_exceeded_on_free_monoid():
    # the free monoid on 2 letters never closes
    with pytest.raises(BudgetExceeded):
        enumerate_monoid(2, [], budget=100)


def test_representatives_are_geodesic_and_consistent():
    enum = enumerate_monoid(
        2, [((0, 0), ()), ((1, 1, 1), ()), ((0, 1, 0, 1), ())]
    )
    # S_3 presented as a monoid (generators get inverses from the relations)
    assert enum.size == 6
    for c, rep in enumerate(enum.reps):
        assert enum.act(0, rep) == c
    reps = list(enum.reps)
    assert reps[0] == ()
    assert all(len(r) <= 3 for r in reps)


def test_cyclic_group_order():
    enum = enumerate_group(1, [(1,) * 6])
    assert enum.size == 6


def test_symmetric_group_s3():
    # <a, b | a^2, b^2, (ab)^3>
    enum = enumerate_group(2, [(1, 1), (2, 2), (1, 2) * 3])
    assert enum.size == 6


def test_trivial_group():
    enum = enumerate_group(1, [(1,)])
    assert enum.size == 1


def test_klein_four():
    enum = enumerate_group(2, [(1, 1), (2, 2), (1, 2, -1, -2)])
    assert enum.size == 4


def test_quaternion_group():
    # <i, j | i^4, i^2 j^-2, j i j^-1 i>
    enum = enumerate_group(
        2, [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)]
    )
    assert enum.size == 8


def test_group_to_monoid_relations_doubles_generators():
    ngens, rels = group_to_monoid_relations(2, [(1, -2)])
    assert ngens == 4
    flat = {g for u, v in rels for g in u + v}
    assert flat <= set(range(4))


def test_group_budget_exceeded():
    # Z x Z is infinite: the enumeration can never finish
    with pytest.raises(BudgetExceeded):
        enumerate_group(2, [(1, 2, -1, -2)], budget=500)


def test_group_table_multiplication_matches_words():
    # brute-force cross-check of the coset action on S_3
    enum = enumerate_group(2, [(1, 1), (2, 2), (1, 2) * 3])
    letters = [1, -1, 2, -2]
    for w in itertools.product(letters, repeat=3):
        a = enum.act(0, w)
        assert 0 <= a < enum.size
        # acting letter by letter agrees with acting by the whole word
        step = 0
        for l in w:
            step = enum.act(step, (l,))
        assert step == a


def test_doubled_alphabet_roundtrip():
    word = (1, -1, 2, -3, 3)
    assert to_doubled(word) == (0, 1, 2, 5, 4)
    assert from_doubled(to_doubled(word)) == word
    _, rels = group_to_monoid_relations(3, [word])
    assert rels[-1] == (to_doubled(word), ())
