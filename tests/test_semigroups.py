"""Star semigroup tables, projection extraction, adjacency semigroups."""

import random
from collections import Counter

import numpy as np
import pytest

from pgsemi.catalog import random_adjacency_graph
from pgsemi.errors import InvalidSemigroup
from pgsemi.projections import Violation
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


# -- star-semigroup reports against the loop-based reference ---------------


def _reference_collect(mask, law, decode=None):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    count = idx.shape[0]
    witnesses = [tuple(int(x) for x in row) for row in idx[:20]]
    if decode is not None:
        witnesses = [decode(w) for w in witnesses]
    return Violation(law, tuple(witnesses), count)


def _reference_validate_star_semigroup(S):
    """The star-semigroup check written with Python loops over idempotents
    and projection pairs and an unchunked associativity mask, kept here as
    the reference for the mask-only routine."""
    out = []
    M = S.mult.astype(np.intp)
    st = S.star.astype(np.intp)
    n = S.size
    if n == 0:
        return []
    rng = np.arange(n)

    v = _reference_collect(M[M] != M[:, M], "associativity")
    if v:
        out.append(v)

    v = _reference_collect(st[st] != rng, "star-involutive")
    if v:
        out.append(v)

    lhs = st[M]
    rhs = M[st[:, None], st[None, :]].T
    v = _reference_collect(lhs != rhs, "star-antihomomorphism")
    if v:
        out.append(v)

    aa = M[rng, st]                        # a a*
    v = _reference_collect(M[M[rng, st], rng] != rng, "regularity")
    if v:
        out.append(v)

    proj = set(S.projections())
    image = set(int(x) for x in aa)
    if proj != image:
        diff = sorted(proj ^ image)
        out.append(
            Violation("projections-vs-aa*", tuple((d,) for d in diff[:20]), len(diff))
        )

    plist = sorted(proj)
    if plist:
        P = np.array(plist, dtype=np.intp)
        PP = M[np.ix_(P, P)]
        idem = M[PP.ravel(), PP.ravel()] == PP.ravel()
        v = _reference_collect(
            ~idem.reshape(PP.shape),
            "projection-products-idempotent",
            decode=lambda w: (plist[w[0]], plist[w[1]]),
        )
        if v:
            out.append(v)

        # p q p is a projection
        pqp = M[PP, P[:, None]]
        members = np.isin(pqp, np.array(plist))
        v = _reference_collect(
            ~members,
            "pqp-projection",
            decode=lambda w: (plist[w[0]], plist[w[1]]),
        )
        if v:
            out.append(v)

        # a q a* is a projection
        aq = M[:, P]                        # [a, j] -> a q_j
        aqas = M[aq, st[:, None]]           # [a, j] -> a q_j a*
        v = _reference_collect(
            ~np.isin(aqas, np.array(plist)),
            "aqa*-projection",
            decode=lambda w: (w[0], plist[w[1]]),
        )
        if v:
            out.append(v)

    # idempotent factorization e = (e e*)(e* e)
    bad = []
    for e in S.idempotents():
        s = M[e, st[e]]
        t = M[st[e], e]
        if M[s, t] != e:
            bad.append((e,))
    if bad:
        out.append(Violation("idempotent-factorization", tuple(bad[:20]), len(bad)))

    # friendly pairs have distinct products
    if plist:
        seen = {}
        bad = []
        for p in plist:
            for q in plist:
                if M[M[p, q], p] == p and M[M[q, p], q] == q:
                    prod = int(M[p, q])
                    if prod in seen and seen[prod] != (p, q):
                        bad.append((seen[prod], (p, q)))
                    else:
                        seen[prod] = (p, q)
        if bad:
            out.append(Violation("friendly-product-injective", tuple(bad[:20]), len(bad)))

    return out


STAR_LAWS = {
    "associativity", "star-involutive", "star-antihomomorphism",
    "regularity", "projections-vs-aa*", "projection-products-idempotent",
    "pqp-projection", "aqa*-projection", "idempotent-factorization",
    "friendly-product-injective",
}


def _random_star_table(rng):
    """A small random table biased toward idempotents and an involutive
    star, so that every law both holds and fails somewhere in a sweep."""
    n = rng.randint(1, 6)
    mult = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    for a in range(n):
        if rng.random() < 0.7:
            mult[a, a] = a
    if rng.random() < 0.8:
        star = list(range(n))
        for a in range(n):
            if rng.random() < 0.3:
                b = rng.randrange(n)
                star[star[a]], star[star[b]] = star[a], star[b]
                star[a], star[b] = star[b], star[a]
    else:
        star = [rng.randrange(n) for _ in range(n)]
    return StarSemigroup(mult, star)


@pytest.mark.parametrize("src", ["tl:3", "tl:4", "motzkin:3", "brauer:3"])
def test_star_reports_match_reference_on_catalog_and_tampered_tables(src):
    S = bundle(src).semigroup
    rng = random.Random(src)
    tables = [S]
    for _ in range(20):
        mult, star = S.mult.copy(), S.star.copy()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(S.size), rng.randrange(S.size)
            mult[a, b] = rng.randrange(S.size)
        if rng.random() < 0.5:
            a, b = rng.randrange(S.size), rng.randrange(S.size)
            star[[a, b]] = star[[b, a]]
        tables.append(StarSemigroup(mult, star))
    for T in tables:
        assert validate_star_semigroup(T) == \
            _reference_validate_star_semigroup(T)
    assert validate_star_semigroup(S) == []


def test_star_reports_match_reference_on_random_tables():
    rng = random.Random(0)
    failed = Counter()
    for _ in range(3000):
        S = _random_star_table(rng)
        got = validate_star_semigroup(S)
        assert got == _reference_validate_star_semigroup(S)
        failed.update(v.law for v in got)
    assert set(failed) == STAR_LAWS
