"""Coset/class enumeration for presented monoids and groups."""

import itertools
import random

import pytest

from pgsemi.cosets import (
    enumerate_group,
    enumerate_monoid,
    from_doubled,
    group_to_monoid_relations,
    to_doubled,
)
from pgsemi.errors import BudgetExceeded
from pgsemi.presentations import (
    presentation_RE,
    presentation_RE2,
    presentation_RP,
)

from conftest import handle


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


# A frozen copy of the enumerator before it deduced the last step of a
# relation and skipped idle coincidence passes: it traces both sides of
# every relation in full, defining a class for each missing step, merges
# the endpoints and runs the coincidence pass after every relation.  It
# also returns how many classes it created.


def _reference_enumerate(ngens, relations, budget):
    parent = [0]
    table = [[-1] * ngens]
    pending = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_class():
        if len(parent) >= budget:
            raise BudgetExceeded(f"coset budget {budget} exhausted")
        c = len(parent)
        parent.append(c)
        table.append([-1] * ngens)
        return c

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        pending.append((a, b))

    def process_coincidences():
        while pending:
            a, b = pending.pop()
            a = find(a)
            rowb = table[b]
            for g in range(ngens):
                tb = rowb[g]
                if tb == -1:
                    continue
                ta = table[a][g]
                if ta == -1:
                    table[a][g] = find(tb)
                else:
                    merge(ta, tb)

    def trace_define(c, word):
        cur = find(c)
        for g in word:
            cur = find(cur)
            nxt = table[cur][g]
            if nxt == -1:
                nxt = new_class()
                table[cur][g] = nxt
            cur = find(nxt)
        return cur

    scanned = 0
    while True:
        c = scanned
        while c < len(parent) and find(c) != c:
            c += 1
        if c >= len(parent):
            break
        scanned = c + 1
        for g in range(ngens):
            if table[c][g] == -1:
                table[c][g] = new_class()
        for u, v in relations:
            cu = trace_define(c, u)
            cv = trace_define(c, v)
            merge(cu, cv)
            process_coincidences()
            if find(c) != c:
                break

    order = []
    number = {}
    root = find(0)
    number[root] = 0
    order.append(root)
    reps = {root: ()}
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for g in range(ngens):
            d = find(table[c][g])
            if d not in number:
                number[d] = len(order)
                order.append(d)
                reps[d] = reps[c] + (g,)
    out_table = [
        [number[find(table[c][g])] for g in range(ngens)] for c in order
    ]
    return out_table, [reps[c] for c in order], len(parent)


# the groups of the tests above, as (ngens, relators, budget)
GROUPS = [
    (1, [(1,) * 6], 50_000),
    (2, [(1, 1), (2, 2), (1, 2) * 3], 50_000),
    (1, [(1,)], 50_000),
    (2, [(1, 1), (2, 2), (1, 2, -1, -2)], 50_000),
    (2, [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)], 50_000),
    (2, [(1, 2, -1, -2)], 500),
]


def _random_monoids(seed, count):
    """Small monoid presentations: each generator gets x^(a+b) = x^a, so
    many close, plus a few random relations (sides may be empty)."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)
        rels = [((g,) * (a + rng.randint(1, 2)), (g,) * a)
                for g in range(k) for a in [rng.randint(1, 4)]]
        for _ in range(rng.randint(0, 4)):
            rels.append((
                tuple(rng.randrange(k) for _ in range(rng.randint(1, 4))),
                tuple(rng.randrange(k) for _ in range(rng.randint(0, 3)))))
        yield k, rels, 3_000


def _corpus():
    for src in ("kinyon", "band:2", "tl:3", "tl:4", "tl:5"):
        h = handle(src)
        for pres in (presentation_RP(h.algebra), presentation_RE(h.algebra, h),
                     presentation_RE2(h.algebra, h)):
            yield (src, pres.name), len(pres.letters), pres.word_pairs(), \
                50_000, enumerate_monoid
    for k, relators, budget in GROUPS:
        n2, rels = group_to_monoid_relations(k, relators)
        yield (k, relators), n2, rels, budget, \
            lambda _n, _r, b, k=k, relators=relators: \
            enumerate_group(k, relators, budget=b)
    for i, (k, rels, budget) in enumerate(_random_monoids(16, 200)):
        yield ("random", i), k, rels, budget, enumerate_monoid


def test_enumerator_matches_its_frozen_reference():
    closed = raised = 0
    for name, ngens, rels, budget, run in _corpus():
        try:
            table, reps, created = _reference_enumerate(ngens, rels, budget)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                run(ngens, rels, budget)
            raised += 1
            continue
        enum = run(ngens, rels, budget)
        assert (enum.table, enum.reps) == (table, reps), name
        # the same enumeration fits in the classes the reference created
        assert run(ngens, rels, created).table == table, name
        closed += 1
    assert closed > 100 and raised > 10


def test_budget_message_says_how_far_it_got():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_monoid(2, [], budget=100)
    # the free monoid: class c has children 2c+1 and 2c+2, so the scan of
    # class 49 creates class 100, and classes 0..48 were fully scanned
    assert str(info.value) == ("coset budget 100 exhausted (classes "
                               "created 100, live classes fully scanned 49)")
