"""Partition diagrams and the diagram monoid families."""

import random

import numpy as np
import pytest

import pgsemi.diagrams as diagrams
from pgsemi.diagrams import (
    PartitionDiagram,
    brauer_monoid,
    generate_monoid,
    identity_diagram,
    motzkin_monoid,
    partial_brauer_monoid,
    partition_monoid,
    tl_generators,
    tl_monoid,
)
from pgsemi.errors import (
    CapExceeded,
    DegreeMismatch,
    InfeasibleDegree,
    InvalidArgument,
)
from pgsemi.semigroups import right_cayley_closure, validate_star_semigroup

from conftest import reference_right_cayley_closure

# Catalan numbers for TL, Motzkin-monoid sizes, (2n-1)!! for Brauer,
# Bell(2n) for the full partition monoid.
TL_SIZES = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
MOTZKIN_SIZES = {2: 9, 3: 51, 4: 323}
BRAUER_SIZES = {2: 3, 3: 15, 4: 105}
# n = 4 (Bell(8) = 4140) is checked against the exhaustive oracle below
PARTITION_SIZES = {2: 15, 3: 203}


# -- exhaustive oracles: every candidate diagram, filtered -------------------


def _set_partitions(m):
    """All set partitions of 0..m-1 via restricted growth strings."""
    if m == 0:
        yield []
        return
    rgs = [0] * m
    maxes = [0] * m
    while True:
        blocks = {}
        for i, c in enumerate(rgs):
            blocks.setdefault(c, []).append(i)
        yield list(blocks.values())
        i = m - 1
        while i > 0 and rgs[i] > maxes[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        m2 = max(maxes[i - 1], rgs[i])
        maxes[i] = m2
        for j in range(i + 1, m):
            rgs[j] = 0
            maxes[j] = m2


def _matchings(points):
    """All perfect matchings of the given point list, as block lists."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k in range(len(rest)):
        other = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for tail in _matchings(remaining):
            yield [[first, other]] + tail


def _partial_matchings(points):
    """All partitions of the point list into blocks of size <= 2."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for tail in _partial_matchings(rest):
        yield [[first]] + tail
    for k in range(len(rest)):
        other = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for tail in _partial_matchings(remaining):
            yield [[first, other]] + tail


def _oracle(family, n):
    """The family's diagrams by exhaustive enumeration, sorted by blocks."""
    points = list(range(2 * n))
    candidates, planar = {
        "tl": (_matchings(points), True),
        "brauer": (_matchings(points), False),
        "motzkin": (_partial_matchings(points), True),
        "partial_brauer": (_partial_matchings(points), False),
        "partition": (_set_partitions(2 * n), False),
    }[family]
    diagrams = (PartitionDiagram(n, bs) for bs in candidates)
    return sorted(
        (d for d in diagrams if not planar or d.is_planar()),
        key=lambda d: d.blocks,
    )


FAMILIES = {
    "tl": tl_monoid,
    "brauer": brauer_monoid,
    "motzkin": motzkin_monoid,
    "partial_brauer": partial_brauer_monoid,
    "partition": partition_monoid,
}
ORACLE_DEGREES = {
    "tl": 6, "brauer": 5, "motzkin": 4, "partial_brauer": 4, "partition": 4,
}


def test_identity_is_neutral():
    e = identity_diagram(4)
    for t in tl_generators(4):
        assert e.multiply(t) == t
        assert t.multiply(e) == t


def test_tl_generator_relations():
    # t_i^2 = t_i and t_i t_j t_i = t_i for |i-j| = 1
    t = tl_generators(4)
    for g in t:
        assert g.multiply(g) == g
    assert t[0].multiply(t[1]).multiply(t[0]) == t[0]
    assert t[1].multiply(t[0]).multiply(t[1]) == t[1]
    assert t[1].multiply(t[2]).multiply(t[1]) == t[1]
    # commuting case
    ab = t[0].multiply(t[2])
    ba = t[2].multiply(t[0])
    assert ab == ba


def test_star_reverses_products():
    rng = random.Random(3)
    _, elements = tl_monoid(4)
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        assert a.multiply(b).star() == b.star().multiply(a.star())
        assert a.star().star() == a


def test_multiplication_is_associative_seeded():
    rng = random.Random(11)
    _, elements = motzkin_monoid(3)
    for _ in range(300):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


@pytest.mark.parametrize("n,size", sorted(TL_SIZES.items()))
def test_tl_sizes(n, size):
    S, elements = tl_monoid(n)
    assert S.size == size
    assert len(elements) == size


@pytest.mark.parametrize("n,size", sorted(MOTZKIN_SIZES.items()))
def test_motzkin_sizes(n, size):
    S, _ = motzkin_monoid(n)
    assert S.size == size


@pytest.mark.parametrize("n,size", sorted(BRAUER_SIZES.items()))
def test_brauer_sizes(n, size):
    S, _ = brauer_monoid(n)
    assert S.size == size


@pytest.mark.parametrize("n,size", sorted(PARTITION_SIZES.items()))
def test_partition_sizes(n, size):
    S, _ = partition_monoid(n)
    assert S.size == size


def test_partial_brauer_contains_brauer_and_motzkin_counts():
    S, _ = partial_brauer_monoid(3)
    B, _ = brauer_monoid(3)
    M, _ = motzkin_monoid(3)
    assert S.size >= max(B.size, M.size)


@pytest.mark.parametrize("family,n", [
    (tl_monoid, 7),
    (brauer_monoid, 7),
    (motzkin_monoid, 5),
    (partial_brauer_monoid, 5),
    (partition_monoid, 5),
])
def test_degree_guards(family, n):
    with pytest.raises(InfeasibleDegree):
        family(n)


def test_generated_tables_validate():
    for builder, n in ((tl_monoid, 4), (brauer_monoid, 3), (motzkin_monoid, 3)):
        S, _ = builder(n)
        assert validate_star_semigroup(S) == []


@pytest.mark.parametrize("family,n", [
    (f, n) for f, top in ORACLE_DEGREES.items() for n in range(1, top + 1)
])
def test_generated_family_matches_exhaustive_oracle(family, n):
    _, elements = FAMILIES[family](n)
    assert elements == _oracle(family, n)


@pytest.mark.parametrize("family,n", [
    (f, n) for f in FAMILIES for n in (1, 2, 3)
])
def test_gathered_table_matches_multiply_on_all_pairs(family, n):
    S, elements = FAMILIES[family](n)
    index = {d: i for i, d in enumerate(elements)}
    for i, a in enumerate(elements):
        assert S.star_of(i) == index[a.star()]
        for j, b in enumerate(elements):
            assert S.product(i, j) == index[a.multiply(b)]


@pytest.mark.parametrize("family,n", [("motzkin", 4), ("brauer", 5)])
def test_gathered_table_matches_multiply_on_sampled_pairs(family, n):
    S, elements = FAMILIES[family](n)
    index = {d: i for i, d in enumerate(elements)}
    rng = random.Random(5)
    for _ in range(2000):
        i, j = rng.randrange(S.size), rng.randrange(S.size)
        assert S.product(i, j) == index[elements[i].multiply(elements[j])]
        assert S.star_of(i) == index[elements[i].star()]


def test_generate_monoid_cap():
    with pytest.raises(CapExceeded):
        generate_monoid(tl_generators(5), cap=10)


@pytest.mark.parametrize("cap", [0, 2.5, True, None])
def test_generate_monoid_refuses_a_bad_cap(cap):
    with pytest.raises(InvalidArgument, match=r"^cap .* is not an int >= 1$"):
        generate_monoid(tl_generators(4), cap=cap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_closure_matches_element_closure(monkeypatch, family, n):
    runs = []

    def recording(seeds, gens, multiply, cap):
        runs.append((seeds, gens, cap,
                     right_cayley_closure(seeds, gens, multiply, cap)))
        return runs[-1][-1]

    monkeypatch.setattr(diagrams, "right_cayley_closure", recording)
    FAMILIES[family](n)
    (seeds, gens, cap, (elements, right, origin)), = runs
    want = reference_right_cayley_closure(
        seeds, gens, PartitionDiagram.multiply, cap)
    assert (elements, right.tolist(), origin) \
        == (want[0], want[1].tolist(), want[2])


def test_generate_monoid_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatch):
        generate_monoid([identity_diagram(2), identity_diagram(3)])


def test_diagram_blocks_must_partition():
    with pytest.raises(ValueError):
        PartitionDiagram(2, [[0, 1], [2]])  # 3 missing
    with pytest.raises(ValueError):
        PartitionDiagram(2, [[0, 1, 1], [2, 3]])
    # a degree or point that is a bool or not an integer, an empty block,
    # a negative degree
    for n, blocks in [(1, [[0, 1.0]]), (1, [[True, 0]]), (1, [[0], [False]]),
                      (2.7, [[0, 1], [2, 3]]), (True, [[0, 1]]),
                      (1, [[0, "1"]]), (1, [[0, 1], []]), (-1, [])]:
        with pytest.raises(InvalidArgument):
            PartitionDiagram(n, blocks)
    # numpy integers are integers; the stored labels are plain ints
    d = PartitionDiagram(np.int64(1), [[np.int32(1), np.int64(0)]])
    assert d == identity_diagram(1) and hash(d) == hash(identity_diagram(1))
    assert d.label() == "{1,1'}" and type(d.n) is int
    assert d.blocks == ((0, 1),) and type(d.blocks[0][0]) is int


def test_closure_validates_only_its_inputs(monkeypatch):
    # the four t_i and the identity; products and stars are not re-checked
    calls = []
    init = PartitionDiagram.__init__

    def counting(self, n, blocks):
        calls.append(n)
        init(self, n, blocks)

    monkeypatch.setattr(PartitionDiagram, "__init__", counting)
    S, _ = tl_monoid(5)
    assert S.size == 42 and len(calls) == 5


@pytest.mark.parametrize("family,n", [
    ("tl", 6), ("motzkin", 4), ("brauer", 5), ("partition", 3),
])
def test_products_and_stars_are_canonical(family, n):
    _, elements = FAMILIES[family](n)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.choice(elements), rng.choice(elements)
        for d in (a.multiply(b), a.star()):
            same = PartitionDiagram(d.n, d.blocks)
            assert d == same and hash(d) == hash(same)


def test_degree_mismatch_on_multiply():
    with pytest.raises(DegreeMismatch):
        identity_diagram(2).multiply(identity_diagram(3))


def test_labels_use_primed_lower_points():
    e = identity_diagram(2)
    assert e.label() == "{1,1'}{2,2'}"
