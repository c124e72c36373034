"""Friendly paths, rewriting, restrictions, and linked pairs."""

from itertools import product

import numpy as np
import pytest

from pgsemi.catalog import kinyon_algebra, square_band_algebra
from pgsemi.chains import (
    LinkedPair,
    Path,
    _classify_pairs,
    _linked_pairs,
    _reduce,
    _reduce3,
    classify_linked_pair,
    enumerate_linked_pairs,
    lambda_rho,
    reduce_path,
    restrict_left,
    restrict_linked_pair,
    restrict_right,
)
from pgsemi.errors import NotBelow, NotFriendly, NotLinked
from pgsemi.projections import relations

from conftest import FLEET, bundle, chain_pool, handle, reference_linked_pairs


@pytest.fixture(scope="module")
def P():
    return kinyon_algebra()


def test_path_requires_friendly_steps(P):
    Path(P, (0, 1, 2))  # p, q, r are mutually friendly
    with pytest.raises(NotFriendly):
        Path(P, (0, 3))  # p and e are not friendly
    with pytest.raises(NotFriendly):
        Path(P, (0, 9))
    with pytest.raises(NotFriendly):
        Path(P, (0, -1))  # range is checked before any table lookup
    with pytest.raises(ValueError):
        Path(P, ())


def test_path_composition_and_reversal(P):
    a = Path(P, (0, 1))
    b = Path(P, (1, 2))
    assert a.compose(b).verts == (0, 1, 2)
    assert a.reverse().verts == (1, 0)
    with pytest.raises(ValueError):
        b.compose(a)  # endpoints do not meet


def test_reduce_path_removes_stutters_and_backtracks(P):
    assert reduce_path(Path(P, (0, 0, 1))).verts == (0, 1)
    assert reduce_path(Path(P, (0, 1, 0))).verts == (0,)
    assert reduce_path(Path(P, (0, 1, 0, 2, 1))).verts == (0, 2, 1)
    assert reduce_path(Path(P, (0,))).verts == (0,)


def test_reduce_path_is_idempotent():
    B = square_band_algebra(4)
    p = Path(B, (0, 1, 2, 1, 2, 3, 3, 0))
    once = reduce_path(p)
    assert reduce_path(once) == once


def test_restrictions_shrink_endpoints():
    # on the kinyon algebra, q <= e, so (e, ...) restricts to start at q
    P = kinyon_algebra()
    rel = relations(P)
    walk = Path(P, (0, 1, 2))
    for q in range(P.size):
        if rel.leq[q, walk.verts[0]]:
            out = restrict_left(walk, q)
            assert out.verts[0] == q
            assert len(out) == len(walk)
        if rel.leq[q, walk.verts[-1]]:
            out = restrict_right(walk, q)
            assert out.verts[-1] == q


def test_restrict_left_formula():
    # each vertex of the restriction is the previous one pushed by theta
    P = kinyon_algebra()
    T = P.theta
    walk = Path(P, (0, 2, 1))
    out = restrict_left(walk, 0)
    for i in range(1, len(out)):
        assert out.verts[i] == T[walk.verts[i], out.verts[i - 1]]


def test_restrict_below_only():
    P = kinyon_algebra()
    with pytest.raises(NotBelow):
        restrict_left(Path(P, (1, 2)), 0)  # p is not below q


def test_restrict_right_mirrors_restrict_left():
    for src in ("kinyon", "band:3", "tl:4", "brauer:4"):
        h = handle(src)
        P = h.algebra
        for c in chain_pool(src)[:16]:
            w = h.expand(c)
            for r in range(P.size):
                if P.theta[w.cod, r] == r:
                    want = restrict_left(w.reverse(), r).reverse()
                    assert restrict_right(w, r) == want
                else:
                    with pytest.raises(NotBelow):
                        restrict_right(w, r)


def test_reverse_of_restriction():
    P = kinyon_algebra()
    walk = Path(P, (0, 1, 2))
    assert restrict_right(walk, 2).verts == walk.verts


# -- linked pairs ---------------------------------------------------------


def test_linked_pair_requires_the_equations(P):
    # (e, p) is not e-linked: p theta_e theta_e = p, not e
    with pytest.raises(NotLinked):
        LinkedPair(P, 3, 3, 0)


def test_kinyon_linked_pair_inventory(P):
    pairs = enumerate_linked_pairs(P)
    nondeg = [
        lp for lp in pairs
        if not classify_linked_pair(lp)["degenerate"]
    ]
    assert {(lp.p, lp.e, lp.f) for lp in nondeg} == {(3, 0, 2), (3, 2, 0)}
    kinds = {
        (lp.p, lp.e, lp.f): classify_linked_pair(lp)["nondegenerate_type"]
        for lp in nondeg
    }
    assert kinds == {(3, 0, 2): 2, (3, 2, 0): 3}
    for lp in nondeg:
        assert classify_linked_pair(lp)["special"]


def test_linked_pairs_are_values():
    for src in ("kinyon", "tl:4", "motzkin:3"):
        P = bundle(src).algebra
        pairs = enumerate_linked_pairs(P)
        for lp in pairs:
            assert type(lp.e1) is int and lp.e1 == int(P.theta[lp.p, lp.e])
            assert type(lp.f1) is int and lp.f1 == int(P.theta[lp.p, lp.f])
            fresh = LinkedPair(P, lp.p, lp.e, lp.f)
            assert lp == fresh and hash(lp) == hash(fresh)
        linked = {(lp.p, lp.e, lp.f) for lp in pairs}
        for p in range(P.size):
            for e in range(P.size):
                for f in range(P.size):
                    if (p, e, f) not in linked:
                        with pytest.raises(NotLinked):
                            LinkedPair(P, p, e, f)


def test_classify_builds_two_paths(path_count):
    # lambda and rho are checked once each; their reductions are tuples
    for src in ("kinyon", "tl:4", "band:3"):
        pairs = enumerate_linked_pairs(bundle(src).algebra)
        path_count[0] = 0
        for lp in pairs:
            classify_linked_pair(lp)
        assert path_count[0] == 2 * len(pairs)


def test_lambda_rho_share_endpoints(P):
    lp = LinkedPair(P, 3, 0, 2)
    lam, rho = lambda_rho(lp)
    assert lam.verts[0] == rho.verts[0] == lp.e
    assert lam.verts[-1] == rho.verts[-1] == lp.f
    assert lam.verts[1] == lp.e1
    assert rho.verts[1] == lp.f1


def test_swap_is_an_involution(P):
    lp = LinkedPair(P, 3, 0, 2)
    assert lp.swap().swap() == lp
    assert lp.swap().e == lp.f


def test_degenerate_iff_paths_reduce_equal():
    # classify_linked_pair cross-checks the formula against path reduction
    # internally; here we recheck one of each kind by hand
    P = kinyon_algebra()
    for lp in enumerate_linked_pairs(P):
        lam, rho = lambda_rho(lp)
        same = reduce_path(lam) == reduce_path(rho)
        assert classify_linked_pair(lp)["degenerate"] == same


def test_restrict_linked_pair_stays_linked():
    P = kinyon_algebra()
    rel = relations(P)
    for lp in enumerate_linked_pairs(P, rel):
        for e_low in range(P.size):
            if rel.leq[e_low, lp.e]:
                low = restrict_linked_pair(lp, e_low)
                assert low.p == lp.p
                assert low.e == e_low
    with pytest.raises(NotBelow):
        restrict_linked_pair(LinkedPair(P, 3, 0, 2), 1)


def test_square_band_pairs_all_degenerate():
    B = square_band_algebra(3)
    for lp in enumerate_linked_pairs(B):
        assert classify_linked_pair(lp)["degenerate"]


# -- linked pairs as arrays -----------------------------------------------


def test_reduce3_matches_reduce_on_every_short_word():
    words = np.array(list(product(range(5), repeat=3)))
    rows = _reduce3(words[:, 0], words[:, 1], words[:, 2])
    for w, row in zip(words.tolist(), rows.tolist()):
        assert tuple(x for x in row if x >= 0) == _reduce(w)
        assert row[len(_reduce(w)):] == [-1] * (3 - len(_reduce(w)))


def test_enumerate_linked_pairs_matches_brute_force():
    # every triple, straight from the defining equations
    for src in ("kinyon", "tl:4", "motzkin:3"):
        P = bundle(src).algebra
        T = P.rows
        brute = [
            (p, e, f)
            for p, e, f in product(range(P.size), repeat=3)
            if T[f][T[p][e]] == f and T[e][T[p][f]] == e
        ]
        got = [(lp.p, lp.e, lp.f) for lp in enumerate_linked_pairs(P)]
        assert got == brute


def test_classify_pairs_matches_the_scalar_classification():
    for src in FLEET:
        P = bundle(src).algebra
        rel = relations(P)
        arrays = _linked_pairs(P, rel)
        special, degenerate, ntype = _classify_pairs(P, *arrays)
        pairs = reference_linked_pairs(P, rel)
        assert [(lp.p, lp.e, lp.f, lp.e1, lp.f1) for lp in pairs] == \
            list(zip(*(a.tolist() for a in arrays)))
        for lp, s, d, t in zip(pairs, special, degenerate, ntype):
            want = classify_linked_pair(lp)
            assert (want["special"], want["degenerate"]) == (s, d)
            assert want["nondegenerate_type"] == (t or None)
