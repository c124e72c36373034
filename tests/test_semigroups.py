"""Star semigroup tables, projection extraction, adjacency semigroups."""

import numpy as np
import pytest

from pgsemi.catalog import random_adjacency_graph
from pgsemi.errors import InvalidSemigroup
from pgsemi.semigroups import (
    AdjacencyGraph,
    StarSemigroup,
    adjacency_semigroup,
    projection_algebra_of,
    subsemigroup_closure,
    validate_star_semigroup,
)

from conftest import bundle


def test_tl3_tables_are_a_regular_star_semigroup():
    S = bundle("tl:3").semigroup
    assert S.size == 5
    assert validate_star_semigroup(S) == []


def test_tampered_star_detected():
    S = bundle("tl:3").semigroup
    star = S.star.copy()
    star[[1, 2]] = star[[2, 1]]  # no longer an anti-automorphism
    bad = StarSemigroup(S.mult, star, labels=S.labels)
    assert validate_star_semigroup(bad) != []


def test_tampered_mult_detected():
    S = bundle("tl:3").semigroup
    mult = S.mult.copy()
    mult[0, 0] = (mult[0, 0] + 1) % S.size
    bad = StarSemigroup(mult, S.star)
    assert validate_star_semigroup(bad) != []


def test_associativity_count_covers_every_chunk():
    # at n = 90 the check runs in two chunks over the left factor
    n = 90
    mult = np.random.default_rng(0).integers(0, n, (n, n))
    S = StarSemigroup(mult, np.arange(n))
    (v,) = [v for v in validate_star_semigroup(S)
            if v.law == "associativity"]
    M = S.mult.astype(np.intp)
    mask = M[M] != M[:, M]                 # [a, b, c]: (ab)c != a(bc)
    assert v.count == int(mask.sum())
    assert v.witnesses == tuple(
        tuple(int(x) for x in row) for row in np.argwhere(mask)[:20])


def test_idempotents_and_projections_of_tl3():
    # all five TL_3 elements are idempotent, three are symmetric
    S = bundle("tl:3").semigroup
    assert len(S.idempotents()) == 5
    assert len(S.projections()) == 3


def test_projection_algebra_of_respects_q_theta_p_eq_pqp():
    S = bundle("tl:4").semigroup
    P, embed = projection_algebra_of(S)
    for i, p in enumerate(embed):
        for j, q in enumerate(embed):
            pqp = S.product(p, S.product(q, p))
            assert embed[P.theta[i, j]] == pqp


def test_projection_algebra_of_rejects_escaping_pqp():
    # 0 and 1 look like projections but 0*1*0 lands on the non-idempotent 2
    mult = np.array([
        [0, 2, 2],
        [2, 1, 2],
        [2, 2, 0],
    ])
    S = StarSemigroup(mult, np.arange(3))
    with pytest.raises(InvalidSemigroup,
                       match="p q p left the projections at p=0, q=1"):
        projection_algebra_of(S)


# -- adjacency semigroups -------------------------------------------------


def test_adjacency_graph_symmetrizes_and_adds_loops():
    G = AdjacencyGraph(3, [(0, 1)])
    assert G.adjacent(1, 0)
    for v in range(3):
        assert G.adjacent(v, v)


def test_adjacency_semigroup_of_an_edge():
    G = AdjacencyGraph(2, [(0, 1)])
    S = adjacency_semigroup(G)
    assert S.size == 5  # zero + four pairs
    assert validate_star_semigroup(S) == []
    P, embed = projection_algebra_of(S)
    # projections: the zero and one (v, v) per vertex
    assert P.size == 3
    assert S.label(embed[0]) == "0"


def test_adjacency_product_rule():
    G = AdjacencyGraph(3, [(0, 1)])
    S = adjacency_semigroup(G)

    def pid(p, q):
        return 1 + p * 3 + q

    # (0,1)(1,2): 1-1 is an edge (loop), so the product is (0,2)
    assert S.product(pid(0, 1), pid(1, 2)) == pid(0, 2)
    # (0,2)(1,0): 2-1 is not an edge, so the product is zero
    assert S.product(pid(0, 2), pid(1, 0)) == 0


@pytest.mark.parametrize("seed", range(5))
def test_random_adjacency_semigroups_validate(seed):
    rng = np.random.default_rng(seed)
    G = random_adjacency_graph(rng)
    S = adjacency_semigroup(G)
    assert validate_star_semigroup(S) == []


# -- closures -------------------------------------------------------------


def test_closure_of_everything_is_everything():
    S = bundle("tl:3").semigroup
    assert subsemigroup_closure(S, range(S.size)) == list(range(S.size))


def test_closure_of_idempotents_of_m3():
    # the idempotent-generated part of the 51-element Motzkin monoid
    S = bundle("motzkin:3").semigroup
    assert S.size == 51
    gen = subsemigroup_closure(S, S.idempotents())
    assert len(gen) == 37


def test_closure_is_multiplicatively_closed():
    S = bundle("motzkin:3").semigroup
    gen = set(subsemigroup_closure(S, S.idempotents()))
    for a in gen:
        for b in gen:
            assert int(S.mult[a, b]) in gen
