"""Shared builders for the test suite.

Algebras and chain-semigroup handles are cached per session: the fleet
below is rebuilt by many test modules and handle construction does the
full complex/pi1 pipeline.
"""

import random
from functools import lru_cache

import numpy as np
import pytest

from pgsemi.catalog import parse_source
from pgsemi.chains import LinkedPair, Path, classify_linked_pair
from pgsemi.chainsemigroup import ChainSemigroupHandle, INFINITE
from pgsemi.projections import relations
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


# -- per-pair reference for the array-level linked pairs and K' ------------
#
# The earlier object-per-pair routines, kept verbatim: every linked pair is
# a LinkedPair, classified by classify_linked_pair (two checked Paths, two
# reductions) before the triangle filter.


def reference_linked_pairs(P, rel=None):
    T = P.rows
    if rel is None:
        rel = relations(P, check=False)
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
        if cls["nondegenerate_type"] == 2:
            b = (lp.e, lp.f, lp.f1, lp.e)
            cells.append(Cell(b, pair=lp, kind="triangle2"))
        elif cls["nondegenerate_type"] == 3:
            b = (lp.e, lp.e1, lp.f, lp.e)
            cells.append(Cell(b, pair=lp, kind="triangle3"))
    return Complex2(P.size, g.edges, cells, algebra=P)
