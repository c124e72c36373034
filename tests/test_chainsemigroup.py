"""The chain semigroup handle: products, star, size, subgroups, morphisms."""

import random
import re
from collections import Counter

import numpy as np
import pytest

import pgsemi.chainsemigroup as chainsemigroup
from pgsemi.catalog import parse_source
from pgsemi.chains import (
    Path,
    enumerate_linked_pairs,
    lambda_rho,
    reduce_path,
    restrict_left,
    restrict_right,
)
from pgsemi.chainsemigroup import (
    INFINITE,
    UNKNOWN,
    ChainSemigroupHandle,
    ReducedChain,
    star_semigroup_of,
)
from pgsemi.errors import (
    CapExceeded,
    NotAMorphism,
    PgsemiError,
    UndecidedEquality,
)
from pgsemi.projections import ProjectionAlgebra, relations
from pgsemi.semigroups import (
    StarSemigroup,
    projection_algebra_of,
    validate_star_semigroup,
)

from conftest import (
    FINITE_SIZES,
    FLEET,
    bundle,
    chain_pool,
    handle,
    random_chain,
    reference_complex_KP_prime,
)


def test_kinyon_size_and_inventory():
    h = handle("kinyon")
    assert h.size() == 10
    elems = h.enumerate()
    assert len(elems) == 10
    idem = h.idempotents()
    assert len(idem) == 10
    projections = [c for c in idem if c.dom == c.cod]
    assert len(projections) == 4
    # the other six idempotents are the proper friendly pairs
    assert len([c for c in idem if c.dom != c.cod]) == 6
    assert set(idem) == set(elems)


def test_kinyon_product_of_unfriendly_projections():
    h = handle("kinyon")
    r = h.projection_chain(2)
    e = h.projection_chain(3)
    assert h.product(r, e) == h.idempotent_chain(2, 1)
    assert h.star(h.product(r, e)) == h.idempotent_chain(1, 2)


def test_kinyon_components_are_trivial():
    h = handle("kinyon")
    for p in range(4):
        assert str(h.component_group(p)) == "trivial"


def test_star_is_an_involution_and_antihomomorphism():
    rng = random.Random(7)
    for src in ("kinyon", "band:3", "tl:4", "motzkin:3"):
        h = handle(src)
        for _ in range(40):
            a = random_chain(h, rng)
            b = random_chain(h, rng)
            assert h.star(h.star(a)) == a
            assert h.star(h.product(a, b)) == h.product(h.star(b), h.star(a))
            ab = h.product(a, b)
            assert h.product(h.product(ab, h.star(ab)), ab) == ab


def test_projection_chains_are_fixed_by_star():
    h = handle("tl:3")
    for p in range(h.algebra.size):
        c = h.projection_chain(p)
        assert h.star(c) == c
        assert h.product(c, c) == c


def test_idempotent_chains_are_idempotent():
    for src in ("kinyon", "band:4", "tl:4"):
        h = handle(src)
        for c in h.idempotents():
            assert h.product(c, c) == c


def test_theta_map_matches_a_manual_fold():
    rng = random.Random(3)
    h = handle("tl:4")
    T = h.algebra.theta
    for _ in range(30):
        c = random_chain(h, rng)
        m = np.arange(h.algebra.size)
        for p in h.expand(c).verts:
            m = T[p][m]
        assert np.array_equal(h.theta_map(c), m)


def test_theta_map_of_a_projection_is_its_row():
    h = handle("kinyon")
    T = h.algebra.theta
    for p in range(4):
        assert np.array_equal(h.theta_map(h.projection_chain(p)), T[p])


def test_square_band_multiplies_like_a_rectangular_band():
    h = handle("band:2")
    assert h.size() == 4
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = h.product(h.idempotent_chain(a, b), h.idempotent_chain(c, d))
                    assert lhs == h.idempotent_chain(a, d)


def test_larger_bands_are_infinite():
    assert handle("band:3").size() is INFINITE
    assert handle("band:4").size() is INFINITE


def test_finite_sizes():
    for src, n in FINITE_SIZES.items():
        assert handle(src).size() == n


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        handle("band:3").enumerate(cap=25)
    with pytest.raises(ValueError):
        handle("tl:3").enumerate(cap=2)


def _product_and_star_closure(h):
    """Closure of the projection chains under product on both sides and
    star, multiplying the frontier by every element found so far."""
    elems = [h.projection_chain(p) for p in range(h.algebra.size)]
    seen = set(elems)
    frontier = list(elems)
    while frontier:
        new = []
        candidates = [h.star(a) for a in frontier]
        for a in elems:
            for b in frontier:
                candidates += [h.product(a, b), h.product(b, a)]
        for x in candidates:
            if x not in seen:
                seen.add(x)
                new.append(x)
        elems.extend(new)
        frontier = new
    return sorted(seen, key=ReducedChain.sort_key)


@pytest.mark.parametrize("src", [
    "kinyon", "band:2", "tl:4", "tl:5", "motzkin:3", "partial_brauer:2",
])
def test_enumerate_matches_product_and_star_closure(src):
    h = handle(src)
    assert h.enumerate() == _product_and_star_closure(h)


def _expand_uncached(h, c):
    """The representative path of c, rebuilt from the tree walk on every
    call (the handle memoizes it)."""
    pres = h.components[c.comp].simplified
    verts = list(reversed(pres.tree_path(c.dom)))
    for l in c.word:
        u, v = pres.gen_edges[abs(l) - 1]
        if l < 0:
            u, v = v, u
        verts.extend(pres.tree_path(u)[1:])
        verts.append(v)
        verts.extend(list(reversed(pres.tree_path(v)))[1:])
    verts.extend(pres.tree_path(c.cod)[1:])
    return reduce_path(Path(h.algebra, verts))


def _product_uncached(h, c, d):
    """c (*) d with fresh expansions and numpy theta lookups, and a checked
    Path for each restriction and for the joined walk."""
    T = h.algebra.theta
    p1 = int(T[c.cod, d.dom])
    q1 = int(T[d.dom, c.cod])
    left = restrict_right(_expand_uncached(h, c), p1)
    right = restrict_left(_expand_uncached(h, d), q1)
    return h.normalize(Path(h.algebra, left.verts + right.verts))


@pytest.mark.parametrize("src", ["kinyon", "band:3", "tl:4"])
def test_product_matches_uncached_reference(src):
    h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
    pool = chain_pool(src)
    first = [h.expand(c) for c in pool]
    assert first == [_expand_uncached(h, c) for c in pool]
    for c in pool:
        for d in pool:
            assert h.product(c, d) == _product_uncached(h, c, d)
    assert [h.expand(c) for c in pool] == first


def test_uncached_product_builds_one_path(path_count):
    # both expansions are memoized, so the product itself checks one walk
    for src in ("kinyon", "band:3", "tl:4"):
        h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
        pool = list(dict.fromkeys(chain_pool(src)))[:12]   # distinct pairs
        for c in pool:
            h.expand(c)
        for c in pool:
            for d in pool:
                path_count[0] = 0
                h.product(c, d)
                assert path_count[0] == 1


@pytest.mark.parametrize("src", FLEET + ["tl:6", "brauer:5", "band:8"])
def test_product_matches_path_reference_on_streams(src):
    h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
    rng = random.Random(7)
    seen = [h.projection_chain(p) for p in range(h.algebra.size)]
    for _ in range(150):
        c, d = rng.choice(seen), rng.choice(seen)
        out = h.product(c, d)
        assert out == _product_uncached(h, c, d)
        seen.append(out)


def test_product_on_random_tables_matches_path_reference():
    # Tables that pass relations(P) but need not be projection algebras:
    # products of projection chains fail with NotBelow or NotFriendly, and
    # must fail with the same type as the reference.
    rng = random.Random(0)
    outcomes = Counter()
    for _ in range(600):
        n = rng.randint(3, 5)
        T = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        T[np.arange(n), np.arange(n)] = np.arange(n)
        P = ProjectionAlgebra(T)
        try:
            relations(P)
            h = ChainSemigroupHandle(P)
        except PgsemiError:
            continue
        for p in range(n):
            for q in range(n):
                c, d = h.projection_chain(p), h.projection_chain(q)
                try:
                    want = _product_uncached(h, c, d)
                except PgsemiError as exc:
                    with pytest.raises(type(exc)):
                        h.product(c, d)
                    outcomes[type(exc).__name__] += 1
                else:
                    assert h.product(c, d) == want
                    outcomes["equal"] += 1
    assert set(outcomes) == {"equal", "NotBelow", "NotFriendly"}


def test_reduced_chain_repr_and_order():
    c = ReducedChain(0, 1, 2, (1, -2))
    assert repr(c) == "<1->2 w=[1, -2]>"
    assert repr(ReducedChain(0, 3, 3, ())) == "<[3]>"
    assert repr(ReducedChain(0, 3, 3, (1,))) == "<3->3 w=[1]>"
    chains = [ReducedChain(1, 0, 0, ()), ReducedChain(0, 1, 1, (1, 1)),
              ReducedChain(0, 1, 1, (2,)), ReducedChain(0, 0, 1, ()),
              ReducedChain(0, 1, 1, (-1,))]
    # shorter words first, then the words in order; not plain tuple order
    assert sorted(chains, key=ReducedChain.sort_key) == [
        ReducedChain(0, 0, 1, ()), ReducedChain(0, 1, 1, (-1,)),
        ReducedChain(0, 1, 1, (2,)), ReducedChain(0, 1, 1, (1, 1)),
        ReducedChain(1, 0, 0, ()),
    ]
    assert [repr(c) for c in handle("kinyon").enumerate()] == [
        "<[0]>", "<0->1 w=[]>", "<0->2 w=[]>", "<1->0 w=[]>", "<[1]>",
        "<1->2 w=[]>", "<2->0 w=[]>", "<2->1 w=[]>", "<[2]>", "<[3]>",
    ]


def test_normalize_expand_roundtrip():
    for src in ("kinyon", "tl:4"):
        h = handle(src)
        for c in h.enumerate():
            assert h.normalize(h.expand(c)) == c


def test_normalize_rejects_foreign_paths():
    h = handle("kinyon")
    other = bundle("tl:3").algebra
    with pytest.raises(ValueError):
        h.normalize(Path(other, (0, 1)))


def test_band_maximal_subgroups():
    # free of rank (k-1)(k-2)/2 at every projection of the k x k square band
    for k in (2, 3, 4):
        h = handle(f"band:{k}")
        want = (k - 1) * (k - 2) // 2
        for p in range(h.algebra.size):
            pres, cls = h.maximal_subgroup(p)
            if want == 0:
                assert cls.kind == "trivial"
            else:
                assert cls.kind == "free" and cls.rank == want


def test_extend_morphism_onto_tl3_is_a_star_isomorphism():
    b = bundle("tl:3")
    h = handle("tl:3")
    m = h.extend_morphism(b.semigroup, b.embed)
    elems = h.enumerate()
    images = [m(c) for c in elems]
    assert sorted(images) == list(range(b.semigroup.size))
    S = b.semigroup
    for c in elems:
        assert m(h.star(c)) == S.star_of(m(c))
        for d in elems:
            assert m(h.product(c, d)) == S.product(m(c), m(d))


def test_extend_morphism_rejects_non_projection_targets():
    b = bundle("tl:3")
    h = handle("tl:3")
    phi = b.embed.copy()
    # an idempotent that is not a projection (or any non-projection element)
    non_proj = [
        s for s in range(b.semigroup.size)
        if s not in set(int(x) for x in b.embed)
    ]
    phi[1] = non_proj[0]
    with pytest.raises(NotAMorphism):
        h.extend_morphism(b.semigroup, phi)


def test_extend_morphism_rejects_theta_breakers():
    b = bundle("tl:3")
    h = handle("tl:3")
    phi = b.embed.copy()
    # collapsing one hook onto the identity is not compatible with theta
    # (swapping the two hooks would be: that flip is an automorphism)
    phi[0] = phi[2]
    with pytest.raises(NotAMorphism):
        h.extend_morphism(b.semigroup, phi)


def test_extend_morphism_rejects_a_broken_identification():
    # motzkin:3 with one product (e e1) f moved, e e1 not a projection: the
    # projections and theta stay, so phi is still a morphism, but lambda and
    # rho of some pair no longer agree; the error names the first such pair,
    # as the per-pair check does
    b = bundle("motzkin:3")
    h = handle("motzkin:3")
    S, phi = b.semigroup, [int(x) for x in b.embed]
    pairs = enumerate_linked_pairs(h.algebra)
    lp = next(lp for lp in pairs if lp.e1 != lp.f1 and lp.e != lp.e1)
    mult = S.mult.copy()
    x, y = S.product(phi[lp.e], phi[lp.e1]), phi[lp.f]
    mult[x, y] = (mult[x, y] + 1) % S.size
    broken = StarSemigroup(mult, S.star)
    Q, embed = projection_algebra_of(S)
    Q2, embed2 = projection_algebra_of(broken)
    assert Q2 == Q and list(embed2) == list(embed)

    def image(path):
        return broken.product_of(phi[v] for v in path.verts)

    first = next(lp for lp in pairs
                 if image(lambda_rho(lp)[0]) != image(lambda_rho(lp)[1]))
    want = f"images of the identified paths differ at {first!r}"
    with pytest.raises(NotAMorphism, match=re.escape(want)):
        h.extend_morphism(broken, phi)


def test_handle_errors_match_the_per_pair_reference(monkeypatch):
    # random 3-5 element tables: the array classification must fail where
    # and how the per-pair routine fails, with the same message
    def outcome(P):
        try:
            ChainSemigroupHandle(P)
        except PgsemiError as exc:
            return type(exc).__name__, str(exc)
        return "ok", ""

    rng = random.Random(0)
    counts = Counter()
    for _ in range(3000):
        n = rng.randint(3, 5)
        T = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        T[np.arange(n), np.arange(n)] = np.arange(n)
        P = ProjectionAlgebra(T)
        got = outcome(P)
        with monkeypatch.context() as m:
            m.setattr(chainsemigroup, "complex_KP_prime",
                      reference_complex_KP_prime)
            assert outcome(P) == got
        counts[got[0]] += 1
    assert counts == {"NotPartialOrder": 1837, "NotFriendly": 599,
                      "InconsistentClassification": 6, "ok": 558}


@pytest.mark.parametrize("src", ["kinyon", "tl:4"])
def test_star_semigroup_of_validates(src):
    h = handle(src)
    S, elems = star_semigroup_of(h)
    assert S.size == FINITE_SIZES[src]
    assert validate_star_semigroup(S) == []
    assert elems == h.enumerate()
    # labels carry the chain reprs
    assert S.labels[0] == repr(elems[0])
    # the gathered tables agree with handle multiplication and star
    idx = {c: i for i, c in enumerate(elems)}
    for c in elems:
        assert S.star_of(idx[c]) == idx[h.star(c)]
        for d in elems:
            assert S.product(idx[c], idx[d]) == idx[h.product(c, d)]


def test_maximal_subgroup_honours_the_budget():
    P = parse_source("brauer:5").algebra
    h = ChainSemigroupHandle(P, budget=2)
    comp = h.components[0]
    assert comp.classification.kind == "unknown"
    _, cls = h.maximal_subgroup(comp.vertices[0])
    assert cls.kind == "unknown"
    _, cls = ChainSemigroupHandle(P).maximal_subgroup(comp.vertices[0])
    assert cls.kind == "finite" and cls.order == 2


def test_undecided_groups_refuse_normalize_and_star():
    P = parse_source("brauer:5").algebra
    h = ChainSemigroupHandle(P, budget=2)
    comp = h.components[0]
    assert comp.classification.normalize((1,)) is None
    v = comp.vertices[0]
    for call in (lambda: h.normalize(Path(P, (v,))),
                 lambda: h.star(ReducedChain(0, v, v, (1,)))):
        with pytest.raises(UndecidedEquality) as info:
            call()
        assert info.value.component == 0


def test_named_singletons():
    assert repr(INFINITE) == "Infinite"
    assert repr(UNKNOWN) == "Unknown"
    assert INFINITE is not UNKNOWN


def test_chain_repr_mentions_endpoints():
    h = handle("kinyon")
    c = h.idempotent_chain(2, 1)
    assert "2" in repr(c) and "1" in repr(c)
