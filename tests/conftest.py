"""Shared builders for the test suite.

Algebras and chain-semigroup handles are cached per session: the fleet
below is rebuilt by many test modules and handle construction does the
full complex/pi1 pipeline.
"""

import random
from functools import lru_cache

import numpy as np
import pytest

import pgsemi.chainsemigroup as chainsemigroup
import pgsemi.topology as topology
from pgsemi.catalog import parse_source
from pgsemi.chains import LinkedPair, Path, _linked_pairs, \
    classify_linked_pair
from pgsemi.chainsemigroup import ChainSemigroupHandle, INFINITE
from pgsemi.errors import CapExceeded, NotLinked
from pgsemi.projections import ProjectionAlgebra, relations
from pgsemi.semigroups import CAP, StarSemigroup
from pgsemi.topology import Cell, Complex2, friendliness_graph

# Canonical test fleet.  Every member's components classify decisively
# (trivial or free), so chain products never come back Undecided.
FLEET = [
    "kinyon",
    "band:2",
    "band:3",
    "band:4",
    "tl:2",
    "tl:3",
    "tl:4",
    "tl:5",
    "motzkin:3",
    "motzkin:4",
    "brauer:3",
    "brauer:4",
]

FINITE_SIZES = {
    "kinyon": 10,
    "band:2": 4,
    "tl:2": 2,
    "tl:3": 5,
    "tl:4": 14,
    "tl:5": 42,
}


@lru_cache(maxsize=None)
def bundle(src):
    return parse_source(src)


@lru_cache(maxsize=None)
def handle(src):
    return ChainSemigroupHandle(bundle(src).algebra)


def random_chain(h, rng, hops=5):
    """A chain built by multiplying a few random projection chains."""
    c = h.projection_chain(rng.randrange(h.algebra.size))
    for _ in range(rng.randrange(1, hops + 1)):
        c = h.product(c, h.projection_chain(rng.randrange(h.algebra.size)))
    return c


@lru_cache(maxsize=None)
def chain_pool(src, seed=0, size=48):
    """Sampling pool for a fleet member: the whole semigroup when finite,
    otherwise ``size`` seeded random chains."""
    h = handle(src)
    if h.size() is not INFINITE:
        return tuple(h.enumerate())
    rng = random.Random(seed)
    return tuple(random_chain(h, rng) for _ in range(size))


def random_tables(count):
    """The seeded sweep: ``count`` random 3-5 element tables with
    p theta_p = p, the other entries uniform."""
    rng = random.Random(0)
    for _ in range(count):
        n = rng.randint(3, 5)
        T = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        T[np.arange(n), np.arange(n)] = np.arange(n)
        yield ProjectionAlgebra(T)


@pytest.fixture
def without_boundary_check(monkeypatch):
    """Let handles and complexes build on tables that fail P1-P5, so that a
    test reaches the internal paths such tables take."""
    for module in (chainsemigroup, topology):
        monkeypatch.setattr(module, "require_algebra", lambda P: None)


@pytest.fixture
def path_count(monkeypatch):
    """A one-item list holding the number of Path constructions (each one a
    friendliness check of a whole walk) since the test started."""
    count = [0]
    init = Path.__init__

    def counting_init(self, algebra, verts):
        count[0] += 1
        init(self, algebra, verts)

    monkeypatch.setattr(Path, "__init__", counting_init)
    return count


def reference_reduce(verts):
    """The reduced vertex tuple of a walk by the earlier restart scan, kept
    verbatim: apply the first available rule left to right, restarting
    just behind the edit, until no redex remains."""
    v = list(verts)
    i = 0
    while i < len(v) - 1:
        if v[i] == v[i + 1]:
            del v[i + 1]
            i = max(i - 1, 0)
        elif i < len(v) - 2 and v[i] == v[i + 2]:
            del v[i + 1 : i + 3]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(v)


# -- per-pair reference for the array-level linked pairs and K' ------------
#
# The earlier object-per-pair routines, kept verbatim: every linked pair is
# a LinkedPair, classified by classify_linked_pair (two checked Paths, two
# reductions) before the triangle filter.


def reference_linked_pairs(P, rel=None):
    T = P.rows
    if rel is None:
        rel = relations(P)
    out = []
    for p in range(P.size):
        Tp = T[p]
        cand = np.flatnonzero(rel.leqf[:, p]).tolist()
        for e in cand:
            ep = Tp[e]
            for f in cand:
                if T[f][ep] == f and T[e][Tp[f]] == e:
                    out.append(LinkedPair(P, p, e, f))
    return out


def reference_complex_KP_prime(P, rel=None, pairs=None):
    if rel is None:
        rel = relations(P)
    g = friendliness_graph(P, rel)
    if pairs is None:
        pairs = reference_linked_pairs(P, rel)
    cells = []
    seen = set()
    for lp in pairs:
        cls = classify_linked_pair(lp)
        if cls["degenerate"] or not cls["special"]:
            continue
        key = (lp.p, min(lp.e, lp.f), max(lp.e, lp.f))
        if key in seen:
            continue
        seen.add(key)
        pair = (lp.p, lp.e, lp.f)
        if cls["nondegenerate_type"] == 2:
            b = (lp.e, lp.f, lp.f1, lp.e)
            cells.append(Cell(b, pair=pair, kind="triangle2"))
        elif cls["nondegenerate_type"] == 3:
            b = (lp.e, lp.e1, lp.f, lp.e)
            cells.append(Cell(b, pair=pair, kind="triangle3"))
    return Complex2(P.size, g.edges, cells, algebra=P)


def reference_complex_KP(P, rel=None):
    """The per-pair quad complex K, kept verbatim with ``LinkedPair`` (its
    linkage check) and the cyclic dedup inlined."""
    if rel is None:
        rel = relations(P)
    g = friendliness_graph(P, rel)
    T = P.rows
    cells = []
    for p, e, f, e1, f1 in zip(*(a.tolist() for a in _linked_pairs(P, rel))):
        cyc = []
        for v in (e, e1, f, f1):
            if not cyc or cyc[-1] != v:
                cyc.append(v)
        while len(cyc) > 1 and cyc[0] == cyc[-1]:
            cyc.pop()
        if len(cyc) < 3:
            continue
        if T[f][T[p][e]] != f or T[e][T[p][f]] != e:
            raise NotLinked(f"({e}, {f}) is not {p}-linked")
        cells.append(Cell(tuple(cyc) + (cyc[0],), pair=(p, e, f),
                          kind="quad"))
    return Complex2(P.size, g.edges, cells, algebra=P)


def reference_right_cayley_closure(seeds, gens, multiply, cap=CAP):
    """The closure engine as it was before it walked whole levels, kept
    verbatim: one element at a time, ``multiply(a, x)`` one product at a
    time."""
    gens = list(gens)
    gen_id = {x: g for g, x in enumerate(gens)}
    elements, origin, right, index = [], [], [], {}

    def visit(x, w, g):
        i = index.get(x)
        if i is None:
            i = index[x] = len(elements)
            if i >= cap:
                raise CapExceeded(f"closure exceeded cap={cap}")
            elements.append(x)
            origin.append((w, g))
        return i

    for x in seeds:
        visit(x, -1, gen_id.get(x, -1))
    # the loop also walks the elements appended while it runs
    for w, a in enumerate(elements):
        right.append([visit(multiply(a, x), w, g) for g, x in enumerate(gens)])
    right = np.array(right, dtype=np.int32).reshape(len(elements), len(gens))
    return elements, right, origin


def reference_cayley_semigroup(closure, star, key, label):
    """The table fill as it was before it filled rows, kept verbatim: one
    column per element, ``cols[b, a] = a b``, handed over transposed."""
    elements, right, origin = closure
    k = len(elements)
    order = sorted(range(k), key=lambda i: key(elements[i]))
    pos = np.empty(k, dtype=np.int32)
    pos[order] = np.arange(k, dtype=np.int32)
    right = pos[right[order]]               # the Cayley graph in sorted ids
    cols = np.empty((k, k), dtype=np.int32)  # cols[b, a] = a b, sorted ids
    ident = np.arange(k, dtype=np.int32)
    for b, (w, g) in enumerate(origin):
        col = ident if w < 0 else cols[pos[w]]
        cols[pos[b]] = col if g < 0 else right[col, g]
    elements = [elements[i] for i in order]
    index = {x: i for i, x in enumerate(elements)}
    stars = [index[star(x)] for x in elements]
    S = StarSemigroup(cols.T, stars, labels=[label(x) for x in elements])
    return S, elements
