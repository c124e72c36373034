"""The chain semigroup handle: products, star, size, subgroups, morphisms."""

import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgsemi.chainsemigroup as chainsemigroup
import pgsemi.projections as projections
from pgsemi.boset import boset_of, sandwich_set
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
    InvalidAlgebra,
    InvalidArgument,
    MalformedTable,
    NotAMorphism,
    NotFriendly,
    PgsemiError,
    UndecidedEquality,
)
from pgsemi.projections import ProjectionAlgebra, relations, validate_axioms
from pgsemi.semigroups import (
    StarSemigroup,
    projection_algebra_of,
    validate_star_semigroup,
)
from pgsemi.topology import complex_KP_prime

from conftest import (
    FINITE_SIZES,
    FLEET,
    bundle,
    chain_pool,
    handle,
    random_chain,
    random_tables,
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


@pytest.mark.parametrize("src", ["kinyon", "band:3", "tl:4", "tl:6"])
def test_product_matches_uncached_reference(src):
    # every pair of the pool: on tl:6 all 132^2 pairs of the closure
    h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
    pool = chain_pool(src)
    first = [h.expand(c) for c in pool]
    assert first == [_expand_uncached(h, c) for c in pool]
    for c in pool:
        for d in pool:
            assert h.product(c, d) == _product_uncached(h, c, d)
    assert [h.expand(c) for c in pool] == first


def test_product_builds_one_path_per_new_restriction(path_count):
    # both expansions are memoized, so a product checks one walk for each
    # one-sided restriction it has not met before and none for the others;
    # where every group is trivial (kinyon, tl:4) it reads the spanning-tree
    # tables and checks no walk at all
    for src in ("kinyon", "band:3", "tl:4"):
        h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
        trivial = all(comp.classification.kind == "trivial"
                      for comp in h.components)
        assert trivial == (src != "band:3")
        pool = list(dict.fromkeys(chain_pool(src)))[:12]   # distinct pairs
        for c in pool:
            h.expand(c)
        T = h.algebra.rows
        keys = set()
        both_cached = 0
        path_count[0] = 0
        for c in pool:
            for d in pool:
                new = {(c, T[c.cod][d.dom], "right"),
                       (d, T[d.dom][c.cod], "left")} - keys
                before = path_count[0]
                h.product(c, d)
                assert path_count[0] - before == (0 if trivial else len(new))
                both_cached += not new
                keys |= new
        assert path_count[0] == (0 if trivial else len(keys))
        assert both_cached > 0
    # so on a fresh handle there the first products too check no walk:
    # a full product table builds no Path and expands no chain
    for src in ("kinyon", "tl:4", "tl:6"):
        h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
        assert h.trivial_at.all()
        pool = chain_pool(src)
        path_count[0] = 0
        for c in pool:
            for d in pool:
                h.product(c, d)
        assert path_count[0] == 0 and not h._expand_cache


def test_expand_builds_one_path(path_count):
    # the tree walk is reduced first and checked once, as one Path
    for src in ("kinyon", "band:3", "tl:4", "brauer:4", "band:8"):
        h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
        pool = list(dict.fromkeys(chain_pool(src)))
        for c in pool:
            before = path_count[0]
            out = h.expand(c)
            assert path_count[0] - before == 1
            assert out == _expand_uncached(h, c)
            before = path_count[0]
            assert h.expand(c) is out
            assert path_count[0] == before


def _dict_entries(x):
    """Entries of a dict, counting those of the dicts nested in it."""
    return sum(1 + _dict_entries(v) for v in x.values()) \
        if isinstance(x, dict) else 0


def _trivial_chains(h):
    """The chains of the components with trivial groups, v^2 of them in a
    component of v vertices."""
    return [ReducedChain(comp.index, x, y, ()) for comp in h.components
            if comp.classification.kind == "trivial"
            for x in comp.vertices for y in comp.vertices]


def _assert_two_tables(h, arrays):
    """The handle holds the arrays it was built with and no per-chain rows:
    its only (|P|, |P|) arrays are the two spanning-tree tables, its row
    tuples are theirs and theta's, and no list has more than 2 |P|
    entries."""
    n = h.algebra.size
    now = {k: v for k, v in vars(h).items() if isinstance(v, np.ndarray)}
    assert now.keys() == arrays.keys()
    assert all(now[k] is arrays[k] for k in now)
    assert sorted(k for k, v in now.items() if v.shape == (n, n)) == [
        "_down", "_up"]
    assert max(v.size for v in now.values()) == n * n
    assert (h._rows, h._down_rows, h._up_rows) == tuple(
        tuple(map(tuple, t.tolist())) for t in (h.algebra.theta, h._down, h._up))
    assert all(len(v) <= 2 * n for v in vars(h).values()
               if isinstance(v, list))


def test_handle_memos_stay_bounded_by_walks_not_products():
    # the handle keeps expansions and restrictions per side, none of them
    # more than |S| |P| entries, and two |P| x |P| tables, however many
    # products and stars it has answered
    h = ChainSemigroupHandle(bundle("tl:6").algebra)   # empty caches
    arrays = {k: v for k, v in vars(h).items() if isinstance(v, np.ndarray)}
    elements = h.enumerate()
    for c in elements:
        for d in elements:
            h.product(c, d)
    for c in elements:
        h.star(c)
    s, p, e = len(elements), h.algebra.size, len(h.friendly_pairs)
    assert (s, p, e) == (132, 20, 96)
    held = sum(_dict_entries(v) for v in vars(h).values())
    assert held <= 2 * s * p + s + p + 2 < 132 ** 2
    assert len(_trivial_chains(h)) == s
    _assert_two_tables(h, arrays)


def test_theta_row_memo_stays_bounded_on_an_infinite_semigroup():
    # motzkin:4 has a free component: a stream of products grows its
    # words, while the trivial components are read off the two tables
    # built with the handle, and no rows are kept per chain
    h = ChainSemigroupHandle(bundle("motzkin:4").algebra)   # empty caches
    arrays = {k: v for k, v in vars(h).items() if isinstance(v, np.ndarray)}
    rng = random.Random(11)
    seen = [h.projection_chain(p) for p in range(h.algebra.size)]
    for _ in range(3000):
        seen.append(h.product(rng.choice(seen), rng.choice(seen)))
    assert any(c.word for c in seen)
    assert any(h.trivial_at[c.dom] and c.dom != c.cod for c in seen)
    assert len(_trivial_chains(h)) == 125
    _assert_two_tables(h, arrays)


@pytest.mark.parametrize("src", [
    "kinyon", "tl:2", "tl:3", "tl:4", "tl:5", "tl:6", "tl:7", "motzkin:3",
    "motzkin:4", "partition:3", "brauer:4",
])
def test_spanning_tree_tables_match_the_theta_fold(src):
    # Theta_(x, y) = down[y][up[x]] for every chain of a trivial component,
    # against the fold of theta along the chain's own expansion
    h = ChainSemigroupHandle(parse_source(src, allow_large=True).algebra)
    chains = _trivial_chains(h)
    assert chains
    for c in chains:
        got = h._down[c.cod][h._up[c.dom]]
        assert got.tolist() == h.theta_map(c).tolist()


def test_product_refuses_chains_whose_ends_leave_their_component():
    # on motzkin:4 projection 1 lies in the free component 1 and 0 in the
    # trivial component 0: none of these chains may be read off the tables
    # (or walked), on either side of a product, nor expanded.  The last
    # three have ends -1, -|P| - 1 and -2 |P|, which the product's
    # component lookup reads as None, comp_of[|P| - 1] and comp_of[0]
    h = ChainSemigroupHandle(bundle("motzkin:4").algebra)   # empty caches
    assert h.comp_of[:2] == [0, 1] and h._trivial[0] and not h._trivial[1]
    n = h.algebra.size
    good = [h.projection_chain(p) for p in (0, 1)]
    for forged in (ReducedChain(0, 1, 1, ()), ReducedChain(0, 0, 1, ()),
                   ReducedChain(0, 999, 999, ()), ReducedChain(0, -1, -1, ()),
                   ReducedChain(None, -1, -1, ()),
                   ReducedChain(h.comp_of[n - 1], -n - 1, -n - 1, ()),
                   ReducedChain(0, -2 * n, 0, ())):
        for c in good:
            for pair in ((forged, c), (c, forged)):
                with pytest.raises(InvalidArgument):
                    h.product(*pair)
        with pytest.raises(InvalidArgument):
            h.expand(forged)


def _ends(chains):
    """The (dom, cod) arrays of a list of chains."""
    return (np.array([c.dom for c in chains], dtype=np.intp),
            np.array([c.cod for c in chains], dtype=np.intp))


@pytest.mark.parametrize("src", [
    "kinyon", "motzkin:3", "tl:2", "tl:3", "tl:4", "tl:5", "tl:6", "tl:7",
])
def test_product_batch_matches_product_on_every_pair(src):
    # the batch runs on a handle with empty memos, reading only the tables
    # it built; the per-call products come from the handle that enumerated
    P = parse_source(src, allow_large=True).algebra
    ref = ChainSemigroupHandle(P)
    elems = ref.enumerate()
    dom, cod = _ends(elems)
    got = ChainSemigroupHandle(P).product_batch(
        (dom[:, None], cod[:, None]), (dom, cod))
    assert all(x.dtype == np.intp and x.shape == (len(elems),) * 2
               for x in got)
    want = [[ref.product(c, d) for d in elems] for c in elems]
    assert not any(w.word for row in want for w in row)
    assert got[0].tolist() == [[w.dom for w in row] for row in want]
    assert got[1].tolist() == [[w.cod for w in row] for row in want]


def test_product_batch_matches_product_on_seeded_tl8_pairs():
    P = parse_source("tl:8", allow_large=True).algebra
    h = ChainSemigroupHandle(P)
    elems = h.enumerate()
    rng = random.Random(8)
    cs = [rng.choice(elems) for _ in range(20000)]
    ds = [rng.choice(elems) for _ in range(20000)]
    dom, cod = ChainSemigroupHandle(P).product_batch(_ends(cs), _ends(ds))
    want = [h.product(c, d) for c, d in zip(cs, ds)]
    assert list(zip(dom.tolist(), cod.tolist())) == [
        (w.dom, w.cod) for w in want]


@pytest.mark.parametrize("src", ["motzkin:4", "partition:3"])
def test_product_on_mixed_components_matches_uncached_reference(src):
    # pools that mix trivial and free components: the per-call product
    # takes the Theta rows exactly where both factors and the product lie
    # in trivial components, and walks elsewhere; the batch agrees on the
    # former and refuses the latter
    h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
    pool = chain_pool(src)
    T = h.algebra.rows
    kinds = Counter()
    for c in pool:
        for d in pool:
            fast = bool(h.trivial_at[c.dom] and h.trivial_at[d.dom]
                        and h.trivial_at[T[c.cod][d.dom]])
            kinds[fast] += 1
            out = h.product(c, d)
            assert out == _product_uncached(h, c, d)
            assert tuple(map(type, out[:3])) == (int, int, int)
            if fast:
                got = h.product_batch(((c.dom,), (c.cod,)), ((d.dom,), (d.cod,)))
                assert (got[0][0], got[1][0]) == (out.dom, out.cod)
            else:
                with pytest.raises(InvalidArgument):
                    h.product_batch(((c.dom,), (c.cod,)), ((d.dom,), (d.cod,)))
    assert kinds[True] > 0 and kinds[False] > 0


def test_product_batch_refuses_what_is_not_a_trivial_component_chain():
    h = handle("motzkin:4")
    free = [p for p in range(h.algebra.size) if not h.trivial_at[p]]
    triv = [p for p in range(h.algebra.size) if h.trivial_at[p]]
    assert free and triv
    p, f = triv[0], free[0]
    for c, d in ((([p, f], [p, f]), ([p], [p])),     # a free operand
                 (([p], [p]), ([f], [f])),
                 (([p], [f]), ([p], [p])),           # not a chain at all
                 (([p], [h.algebra.size]), ([p], [p])),   # not an id
                 (([0.0], [0.0]), ([p], [p]))):
        with pytest.raises(InvalidArgument):
            h.product_batch(c, d)


@pytest.mark.usefixtures("without_boundary_check")
def test_product_batch_checks_the_junction_on_every_pair():
    # a table that fails the axioms, with every group trivial: the junction
    # 2 -> 1 of [[0]] [[2]] is not friendly, while both restrictions hold
    P = ProjectionAlgebra(np.array([[0, 0, 2, 3], [3, 1, 3, 2],
                                    [1, 1, 2, 1], [0, 2, 1, 3]]))
    h = ChainSemigroupHandle(P)
    assert h.trivial_at.all()
    c, d = h.projection_chain(0), h.projection_chain(2)
    message = "consecutive vertices 2, 1 are not friendly"
    for product in (h.product, lambda c, d: _product_uncached(h, c, d)):
        with pytest.raises(NotFriendly, match=message):
            product(c, d)
    # over all pairs, the error names the first bad junction, row-major
    T = P.rows
    p1, q1 = next((T[p][q], T[q][p]) for p in range(P.size)
                  for q in range(P.size)
                  if T[T[p][q]][T[q][p]] != T[p][q]
                  or T[T[q][p]][T[p][q]] != T[q][p])
    ids = np.arange(P.size)
    with pytest.raises(NotFriendly, match=f"vertices {p1}, {q1} are not"):
        h.product_batch((ids[:, None], ids[:, None]), (ids, ids))
    with pytest.raises(NotFriendly, match=message):
        h.product_batch(([0, 0], [0, 0]), ([0, 2], [0, 2]))


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


@pytest.mark.parametrize("src", ["band:8", "brauer:5"])
def test_product_matches_path_reference_on_free_word_streams(src):
    # the pool keeps every product that lands in a free component, so the
    # words grow long (up to 314 letters on band:8, 106 on brauer:5)
    h = ChainSemigroupHandle(bundle(src).algebra)   # empty caches
    free = {comp.index for comp in h.components
            if comp.classification.kind == "free"}
    rng = random.Random(7)
    seen = [h.projection_chain(p) for p in range(h.algebra.size)
            if h.comp_of[p] in free]
    for _ in range(1000):
        c, d = rng.choice(seen), rng.choice(seen)
        out = h.product(c, d)
        assert out == _product_uncached(h, c, d)
        if out.comp in free:
            seen.append(out)
    assert max(len(c.word) for c in seen) > 100


@pytest.mark.parametrize("d, side", [
    (ReducedChain(0, 7, 3, (-6, 4, -13)), "left"),
    (ReducedChain(0, 4, 0, (17, -10)), "right"),
])
def test_product_cancels_the_junction_word_into_either_side(d, side):
    # on band:8 the junction of c (*) d spells one letter, which cancels
    # against the end of c's restricted word (side "left") or against the
    # start of d's (side "right")
    h = ChainSemigroupHandle(bundle("band:8").algebra)   # empty caches
    c = ReducedChain(0, 6, 6, (18, -21))
    T = h.algebra.rows
    p1, q1 = T[c.cod][d.dom], T[d.dom][c.cod]
    left = h._restriction(c, p1, "right")[3]
    right = h._restriction(d, q1, "left")[3]
    (edge,) = h.components[0].simplified.edge_words[(p1, q1)]
    assert (left[-1] if side == "left" else right[0]) == -edge
    assert h.product(c, d) == _product_uncached(h, c, d)


def _assert_order_laws(P):
    """The order laws relations(P) relies on without checking them: <=
    reflexive, antisymmetric and transitive, and <=F reflexive."""
    rel = relations(P)
    leq = rel.leq
    assert rel.leqf.diagonal().all()
    assert ((leq & leq.T) == np.eye(P.size, dtype=bool)).all()
    assert not (leq[:, :, None] & leq[None] & ~leq[:, None, :]).any()


@pytest.mark.usefixtures("without_boundary_check")
def test_product_on_random_tables_matches_path_reference():
    # Tables that need not be projection algebras: products of projection
    # chains fail with NotBelow or NotFriendly, and must fail with the same
    # type as the reference.
    outcomes = Counter()
    for P in random_tables(600):
        try:
            h = ChainSemigroupHandle(P)
        except PgsemiError:
            continue
        for p in range(P.size):
            for q in range(P.size):
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
    with pytest.raises(ValueError, match="different algebra") as info:
        h.normalize(Path(other, (0, 1)))
    assert type(info.value) is ValueError
    # an equal table in another object is the same algebra
    same = ProjectionAlgebra(h.algebra.theta)
    assert h.normalize(Path(same, (0, 1))) == h.normalize(
        Path(h.algebra, (0, 1)))


@pytest.mark.parametrize("bad", [(0, 1), [0], 0, None])
def test_normalize_refuses_what_is_not_a_path(bad):
    h = handle("kinyon")
    with pytest.raises(InvalidArgument, match=re.escape(f"not a Path: {bad!r}")):
        h.normalize(bad)


@pytest.mark.parametrize("call", [
    lambda h, p: h.projection_chain(p),
    lambda h, p: h.maximal_subgroup(p),
    lambda h, p: h.component_group(p),
    lambda h, p: sandwich_set(h, p, 0),
], ids=["projection_chain", "maximal_subgroup", "component_group",
        "sandwich_set"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_out_of_range_projections_are_refused(call, side):
    h = handle("kinyon")
    p = -1 if side == "below" else h.algebra.size
    with pytest.raises(InvalidArgument, match=f"^no projection {p}$"):
        call(h, p)


@pytest.mark.parametrize("call, value", [
    (lambda h: h.projection_chain(1.5), 1.5),
    (lambda h: h.projection_chain(np.float64(0.0)), np.float64(0.0)),
    (lambda h: h.component_group(2.5), 2.5),
    (lambda h: h.maximal_subgroup(1.2), 1.2),
    (lambda h: h.idempotent_chain(0, 1.7), 1.7),
    (lambda h: h.idempotent_chain(1.0, 1), 1.0),
    (lambda h: h.projection_chain(True), True),
    (lambda h: h.component_group(True), True),
    (lambda h: h.idempotent_chain(True, False), True),
], ids=["projection_chain", "projection_chain-np", "component_group",
        "maximal_subgroup", "idempotent_chain", "idempotent_chain-equal",
        "projection_chain-bool", "component_group-bool",
        "idempotent_chain-bool"])
def test_non_integer_projections_are_refused(call, value):
    # int() would truncate the value to a projection and answer for it,
    # and a bool would answer for 1 or 0
    h = handle("kinyon")
    with pytest.raises(InvalidArgument, match=re.escape(str(value))):
        call(h)


def test_numpy_integer_projections_are_accepted():
    h = handle("kinyon")
    one, two = np.int64(1), np.int32(2)
    assert h.projection_chain(one) == h.projection_chain(1)
    assert h.component_group(two) is h.component_group(2)
    assert h.idempotent_chain(one, two) == h.idempotent_chain(1, 2)
    assert all(type(x) is int for x in h.idempotent_chain(one, two)[:3])


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


def test_extend_morphism_rejects_a_non_integer_phi():
    # truncated, embed + 0.4 would be embed itself, which is accepted
    b = bundle("tl:3")
    h = handle("tl:3")
    h.extend_morphism(b.semigroup, b.embed)
    with pytest.raises(NotAMorphism, match="must be integers"):
        h.extend_morphism(b.semigroup, [s + 0.4 for s in b.embed])


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


@pytest.mark.usefixtures("without_boundary_check")
def test_handle_errors_match_the_per_pair_reference(monkeypatch):
    # random 3-5 element tables: the array classification must fail where
    # and how the per-pair routine fails, with the same message

    def outcome(P):
        try:
            ChainSemigroupHandle(P)
        except PgsemiError as exc:
            return type(exc).__name__, str(exc)
        return "ok", ""

    counts = Counter()
    for P in random_tables(3000):
        got = outcome(P)
        with monkeypatch.context() as m:
            m.setattr(chainsemigroup, "complex_KP_prime",
                      reference_complex_KP_prime)
            assert outcome(P) == got
        counts[got[0]] += 1
    assert counts == {"NotFriendly": 1288, "InconsistentClassification": 9,
                      "ok": 1703}


def test_handle_refuses_every_non_algebra_at_the_boundary():
    # the sweep above, with the boundary check on: every table that fails
    # P1-P5 raises InvalidAlgebra naming its first failed law
    counts = Counter()
    for P in random_tables(3000):
        bad = validate_axioms(P)
        if not bad:
            ChainSemigroupHandle(P)
            counts["algebra"] += 1
            continue
        with pytest.raises(InvalidAlgebra) as info:
            ChainSemigroupHandle(P)
        assert info.value.violation == bad[0]
        assert str(bad[0]) in str(info.value)
        counts[bad[0].law] += 1
    assert counts["algebra"] > 0 and sum(counts.values()) == 3000


def test_order_laws_hold_on_every_algebra_of_the_sweep():
    # on a projection algebra the order laws are lemmas (P1, P1 with P3,
    # A4), and every other table is refused at a boundary before relations
    # is relied on; they hold on the fleet and every algebra of the sweep
    for src in FLEET:
        _assert_order_laws(bundle(src).algebra)
    algebras = [P for P in random_tables(3000) if not validate_axioms(P)]
    assert algebras
    for P in algebras:
        _assert_order_laws(P)


def test_each_table_is_checked_against_the_laws_once(monkeypatch):
    # the source, the handle, the complex and the boset each need an
    # algebra; the verdict is kept on the table, so P1-P5 run once
    calls = []
    check = projections.validate_axioms
    monkeypatch.setattr(projections, "validate_axioms",
                        lambda P: calls.append(P) or check(P))
    P = parse_source("motzkin:4").algebra
    ChainSemigroupHandle(P)
    complex_KP_prime(P)
    boset_of(P)
    assert calls == [P]
    # an explicit check leaves its verdict for the handle
    Q = ProjectionAlgebra(P.theta)
    assert projections.validate_axioms(Q) == []
    ChainSemigroupHandle(Q)
    assert calls == [P, Q]


@st.composite
def small_tables(draw):
    """A 1-4 element integer table, entries out of range a quarter of the
    time, with the diagonal p theta_p = p imposed half the time."""
    n = draw(st.integers(1, 4))
    top = draw(st.sampled_from([n - 1, n - 1, n - 1, n]))
    T = np.array(draw(st.lists(st.integers(0, top), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        T[np.arange(n), np.arange(n)] = np.arange(n)
    return T.tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_tables())
@example(bundle("kinyon").algebra.theta.tolist())
@example(bundle("band:2").algebra.theta.tolist())
def test_fuzzed_tables_are_refused_or_give_a_star_semigroup(T):
    # a table is refused as malformed or as no projection algebra, or its
    # handle builds and satisfies (cd)* = d*c* and c** = c; any other
    # exception fails the test
    try:
        h = ChainSemigroupHandle(ProjectionAlgebra(T))
    except (InvalidAlgebra, MalformedTable):
        return
    chains = [h.projection_chain(p) for p in range(h.algebra.size)]
    chains += [h.product(c, d) for c in chains for d in chains]
    for c in chains:
        assert h.star(h.star(c)) == c
    for c in chains[::3]:
        for d in chains:
            assert h.star(h.product(c, d)) == h.product(h.star(d), h.star(c))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_tables())
@example(bundle("kinyon").algebra.theta.tolist())
@example(bundle("band:2").algebra.theta.tolist())
def test_fuzzed_algebras_keep_the_order_laws(T):
    # as on the sweep: every fuzzed table that passes P1-P5 keeps the
    # order laws
    try:
        P = ProjectionAlgebra(T)
    except MalformedTable:
        return
    if not validate_axioms(P):
        _assert_order_laws(P)


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

