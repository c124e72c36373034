"""The partial algebra of idempotent pairs and its reconstruction power."""

import numpy as np
import pytest

from pgsemi.boset import (
    boset_of,
    compare_with_semigroup_boset,
    e_of,
    projection_algebra_of_boset,
    sandwich_set,
)
from pgsemi.errors import PgsemiError

from conftest import bundle, handle


def test_band2_inventory():
    b = boset_of(bundle("band:2").algebra, handle("band:2"))
    assert len(b) == 4
    assert sorted(b.elements) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    basic = sum(1 for e in b.elements for f in b.elements if b.is_basic(e, f))
    assert basic == 12
    assert "4 elements" in repr(b) and "12 basic pairs" in repr(b)


def test_arrows_are_preorders():
    for src in ("kinyon", "tl:3", "brauer:3"):
        b = boset_of(bundle(src).algebra, handle(src))
        for m in (b.left, b.right):
            assert np.all(np.diag(m))
            # transitivity: reachable-in-two-steps stays reachable
            two = (m.astype(int) @ m.astype(int)) > 0
            assert np.all(m[two])


def test_double_arrows_are_antisymmetric():
    for src in ("kinyon", "tl:3"):
        b = boset_of(bundle(src).algebra, handle(src))
        both = b.left & b.right
        sym = both & both.T
        assert np.array_equal(sym, np.eye(len(b), dtype=bool))


def test_basic_pairs_are_exactly_the_absorbing_ones():
    # (e, f) is basic iff one of ef, fe already equals e or f in the
    # chain semigroup
    for src in ("kinyon", "band:2", "tl:3"):
        h = handle(src)
        b = boset_of(h.algebra, h)
        chains = {e: h.idempotent_chain(*e) for e in b.elements}
        for e in b.elements:
            for f in b.elements:
                ef = h.product(chains[e], chains[f])
                fe = h.product(chains[f], chains[e])
                absorbing = ef in (chains[e], chains[f]) or \
                    fe in (chains[e], chains[f])
                assert b.is_basic(e, f) == absorbing


def test_star_laws():
    for src in ("kinyon", "tl:3"):
        b = boset_of(bundle(src).algebra, handle(src))
        for e in b.elements:
            assert b.star_of(b.star_of(e)) == e
        for (e, f), val in b.basic_items():
            fs, es = b.star_of(f), b.star_of(e)
            assert b.is_basic(fs, es)
            assert b.product(fs, es) == b.star_of(val)


def test_product_raises_off_the_domain():
    b = boset_of(bundle("tl:3").algebra, handle("tl:3"))
    # the two hooks absorb in neither order
    assert not b.is_basic((0, 1), (1, 0))
    with pytest.raises(PgsemiError):
        b.product((0, 1), (1, 0))


def test_sandwich_sets_nonempty_on_kinyon():
    h = handle("kinyon")
    for p in range(4):
        for q in range(4):
            assert sandwich_set(h, p, q)


def test_sandwich_set_of_friendly_pair_contains_it():
    h = handle("kinyon")
    assert (1, 0) in sandwich_set(h, 0, 1)


@pytest.mark.parametrize("src", [
    "kinyon", "band:2", "band:3", "tl:3", "tl:4", "tl:5", "motzkin:3",
    "brauer:3", "brauer:4", "partition:2", "partial_brauer:2",
])
def test_sandwich_set_depends_only_on_the_inner_projections(src):
    # e = [[p, q]] is L-related to [[q]] and f = [[r, s]] R-related to
    # [[r]], so S(e, f) = S(q, r); presentation_RE2 reads it that way
    h = handle(src)
    inner = {}
    for e in h.friendly_pairs:
        for f in h.friendly_pairs:
            key = (e[1], f[0])
            if key not in inner:
                inner[key] = sandwich_set(h, *key)
            assert sandwich_set(h, e, f) == inner[key]


def test_e_of_closed_form_and_uniqueness():
    for src in ("kinyon", "band:2", "tl:3"):
        P = bundle(src).algebra
        h = handle(src)
        T = P.theta
        for p in range(P.size):
            for q in range(P.size):
                val = e_of(P, p, q, handle=h, verify=True)
                assert val == (int(T[q, p]), int(T[p, q]))


def test_roundtrip_recovers_the_algebra():
    for src in ("kinyon", "band:2", "band:3", "tl:3", "tl:4", "brauer:3"):
        P = bundle(src).algebra
        b = boset_of(P, handle(src))
        back = projection_algebra_of_boset(b)
        assert np.array_equal(back.theta, P.theta)
        assert back == P


def test_compare_with_tl3():
    b = bundle("tl:3")
    cmp = compare_with_semigroup_boset(b.algebra, b.semigroup)
    assert cmp.ok and bool(cmp)
    assert len(cmp.mapping) == 5
    assert sorted(cmp.mapping.values()) == sorted(b.semigroup.idempotents())
    assert "ok" in repr(cmp)


def test_compare_rejects_a_mismatched_algebra():
    with pytest.raises(PgsemiError):
        compare_with_semigroup_boset(
            bundle("kinyon").algebra, bundle("tl:3").semigroup)


def test_compare_flags_tampered_arrows():
    b = bundle("tl:3")
    tam = boset_of(b.algebra, handle("tl:3"))
    tam.left = tam.left.copy()
    tam.left[1, 2] = not tam.left[1, 2]
    cmp = compare_with_semigroup_boset(b.algebra, b.semigroup, boset=tam)
    assert not cmp
    assert any(f["kind"] == "arrows" for f in cmp.failures)
    assert "failures" in repr(cmp)


def test_compare_flags_tampered_products():
    b = bundle("tl:3")
    tam = boset_of(b.algebra, handle("tl:3"))
    key = sorted(tam._products)[0]
    val = tam._products[key]
    tam._products = dict(tam._products)
    tam._products[key] = next(
        e for e in tam.elements if e != val)
    cmp = compare_with_semigroup_boset(b.algebra, b.semigroup, boset=tam)
    assert not cmp
    assert any(f["kind"] == "product" for f in cmp.failures)


def test_compare_kinyon_against_its_own_chain_semigroup():
    from pgsemi.chainsemigroup import star_semigroup_of

    h = handle("kinyon")
    S, _ = star_semigroup_of(h)
    cmp = compare_with_semigroup_boset(h.algebra, S)
    assert cmp.ok
    assert len(cmp.mapping) == 10
