"""The partial algebra of idempotent pairs and its reconstruction power."""

import json
import re

import numpy as np
import pytest

import pgsemi.projections as projections
from pgsemi.boset import (
    _is_projection,
    _sandwich_elements,
    _sandwich_sets,
    boset_of,
    compare_with_semigroup_boset,
    e_of,
    projection_algebra_of_boset,
    sandwich_set,
)
from pgsemi.chainsemigroup import ChainSemigroupHandle, star_semigroup_of
from pgsemi.cli import main
from pgsemi.errors import InvalidArgument, PgsemiError, UndecidedEquality
from pgsemi.projections import ProjectionAlgebra
from pgsemi.semigroups import projection_algebra_of
from pgsemi.serialize import boset_to_dict
from pgsemi.topology import Classification

from conftest import bundle, handle

FROZEN_SOURCES = ["kinyon", "band:2", "tl:4", "brauer:3", "motzkin:3"]


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
    # chain semigroup, iff an arrow joins them in either direction
    for src in ("kinyon", "band:2", "tl:3", "tl:4", "brauer:3"):
        h = handle(src)
        b = boset_of(h.algebra, h)
        chains = {e: h.idempotent_chain(*e) for e in b.elements}
        for i, e in enumerate(b.elements):
            for j, f in enumerate(b.elements):
                ef = h.product(chains[e], chains[f])
                fe = h.product(chains[f], chains[e])
                absorbing = ef in (chains[e], chains[f]) or \
                    fe in (chains[e], chains[f])
                arrow = bool(b.left[i, j] or b.right[i, j]
                             or b.left[j, i] or b.right[j, i])
                assert b.is_basic(e, f) == absorbing == arrow


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


def test_non_elements_raise_naming_the_pair():
    b = boset_of(bundle("tl:3").algebra, handle("tl:3"))
    for e, f in (((0, 0), (7, 7)), ((9, 9), (0, 0)), ((0, 0), (1, 2, 3)),
                 ([0, 0], (0, 0)), ((1, 1), [0, 0])):
        for op in (b.is_basic, b.product):
            with pytest.raises(PgsemiError, match="is not a pair of") as info:
                op(e, f)
            assert not isinstance(info.value, KeyError)
            assert str((e, f)) in str(info.value)


@pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (3, 0), (0, 3),
                                  (1.5, 0), (0, 1.5), (True, 0), (1, False)])
def test_e_of_rejects_ids_outside_the_algebra(p, q):
    P = bundle("tl:3").algebra
    assert P.size == 3
    for verify in (False, True):
        with pytest.raises(InvalidArgument, match=re.escape(str((p, q)))):
            e_of(P, p, q, handle=handle("tl:3"), verify=verify)


def test_sandwich_sets_nonempty_on_kinyon():
    h = handle("kinyon")
    for p in range(4):
        for q in range(4):
            assert sandwich_set(h, p, q)


def test_sandwich_set_of_friendly_pair_contains_it():
    h = handle("kinyon")
    assert (1, 0) in sandwich_set(h, 0, 1)


@pytest.mark.parametrize("e", [(0, 1.5), 1.5, "ab", (0, 1, 2)])
def test_sandwich_set_refuses_what_is_not_an_id_pair_or_chain(e):
    # (0, 1.5) used to answer for (0, 1); the others raised bare
    # TypeError or ValueError
    with pytest.raises(InvalidArgument):
        sandwich_set(handle("kinyon"), e, 0)


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
    tam = _tampered_product("tl:3")
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


# -- frozen references ----------------------------------------------------
# Copies of the earlier whole-set implementations: the sandwich element
# filtered out of the full sandwich set, and the arrows compared pair by
# pair with two semigroup products each.


def _frozen_sandwich_set(h, ce, cf):
    ef = h.product(ce, cf)
    out = []
    for a, b in h.friendly_pairs:
        g = h.idempotent_chain(a, b)
        if (h.product(h.product(ce, g), cf) == ef
                and h.product(h.product(cf, g), ce) == g):
            out.append((a, b))
    return out


def _frozen_sandwich_element(h, p, q):
    cp = h.projection_chain(p)
    cq = h.projection_chain(q)
    found = []
    for g in _frozen_sandwich_set(h, cp, cq):
        cg = h.idempotent_chain(*g)
        pg, gq = h.product(cp, cg), h.product(cg, cq)
        if (pg.dom == pg.cod and not pg.word
                and gq.dom == gq.cod and not gq.word):
            found.append(g)
    if len(found) != 1:
        raise PgsemiError(
            f"sandwich element at ({p}, {q}): expected exactly one with "
            f"projection side products, scan found {found}")
    return found[0]


def _frozen_compare(P, S, b):
    Q, embed = projection_algebra_of(S)
    assert Q == P
    failures = []

    def note(kind, **data):
        if len(failures) < 20:
            failures.append({"kind": kind, **data})

    mapping = {}
    for (p, q) in b.elements:
        mapping[(p, q)] = int(S.product(int(embed[p]), int(embed[q])))
    seen = {}
    for e in b.elements:
        s = mapping[e]
        if s in seen:
            note("injectivity", first=seen[s], second=e, image=s)
        else:
            seen[s] = e
    idem = set(S.idempotents())
    image = set(mapping.values())
    if image != idem:
        note("image",
             missing=sorted(idem - image), extra=sorted(image - idem))
    for i, e in enumerate(b.elements):
        x = mapping[e]
        for j, f in enumerate(b.elements):
            y = mapping[f]
            sl = S.product(x, y) == x
            sr = S.product(y, x) == x
            if sl != bool(b.left[i, j]) or sr != bool(b.right[i, j]):
                note("arrows", e=e, f=f)
    for (e, f), val in b.basic_items():
        if S.product(mapping[e], mapping[f]) != mapping[val]:
            note("product", e=e, f=f, expected=val)
    for e in b.elements:
        if S.star_of(mapping[e]) != mapping[b.star_of(e)]:
            note("star", e=e)
    return not failures, mapping, failures


def _one_pair_element(h, p, q):
    [[g]] = _sandwich_elements(h, [p], [q])
    return g


def _outcome(fn, *args):
    """The element found, or the type and text of the error raised."""
    try:
        return fn(*args)
    except PgsemiError as exc:
        return (type(exc).__name__, str(exc))


def _assert_same_sandwich_elements(h):
    """The one-pair call agrees with the frozen scan at every (p, q); the
    all-pairs call finds the same rows, or raises the frozen error of the
    first failing pair in row-major order."""
    n = h.algebra.size
    outcomes = [
        (_outcome(_one_pair_element, h, p, q),
         _outcome(_frozen_sandwich_element, h, p, q))
        for p in range(n) for q in range(n)]
    for new, old in outcomes:
        assert new == old
    found = [new for new, _ in outcomes]
    errors = [o for o in found if isinstance(o[0], str)]
    rows = [found[i:i + n] for i in range(0, n * n, n)]
    assert _outcome(_sandwich_elements, h, range(n), range(n)) == \
        (errors[0] if errors else rows)
    return found


@pytest.mark.parametrize("src", [*FROZEN_SOURCES, "tl:6"])
def test_sandwich_element_matches_the_whole_set_scan(src):
    found = _assert_same_sandwich_elements(handle(src))
    assert all(isinstance(g[0], int) for g in found)


def test_sandwich_element_errors_match_the_whole_set_scan():
    # candidate lists with the canonical element missing or doubled make
    # both scans find zero or two elements
    h = ChainSemigroupHandle(bundle("kinyon").algebra)
    pairs = h.friendly_pairs
    e01 = e_of(h.algebra, 0, 1)
    for tampered, scan in ((tuple(g for g in pairs if g != e01), []),
                           (pairs + pairs, [e01, e01])):
        h.friendly_pairs = tampered
        found = _assert_same_sandwich_elements(h)
        assert ("PgsemiError", "sandwich element at (0, 1): expected "
                "exactly one with projection side products, scan found "
                f"{scan}") in found


@pytest.mark.parametrize("src", [*FROZEN_SOURCES, "band:3"])
def test_sandwich_set_matches_its_definition(src):
    # every pair of idempotents, projections or not; band:3 has a free
    # group, so its products carry group words
    h = handle(src)
    chains = h.idempotents()
    for ce in chains:
        for cf in chains:
            assert sandwich_set(h, ce, cf) == _frozen_sandwich_set(h, ce, cf)


def test_sandwich_set_refuses_a_chain_that_is_not_idempotent():
    h = handle("band:3")
    a, b, c = (h.idempotent_chain(*g) for g in ((0, 1), (1, 2), (2, 0)))
    loop = h.product(h.product(a, b), c)
    assert h.product(loop, loop) != loop
    for e, f in ((loop, 0), (0, loop)):
        with pytest.raises(InvalidArgument, match="is not idempotent"):
            sandwich_set(h, e, f)


def test_re2_sandwich_scans_product_count_on_tl6(monkeypatch):
    # presentation_RE2 scans S(q, r) for every pair of projections; the
    # scans with their four-product membership tests made 4,040 distinct
    # products, the two side tables make 2 n m - n^2 = 3,440 (a product of
    # two projections is in both) and every membership product hits them
    h = ChainSemigroupHandle(bundle("tl:6").algebra)
    n, m = h.algebra.size, len(h.friendly_pairs)
    calls = []
    product = h.product
    monkeypatch.setattr(h, "product", lambda c, d: calls.append((c, d)) or
                        product(c, d))
    proj = [h.projection_chain(p) for p in range(n)]
    sets = list(_sandwich_sets(h, [(q, r) for q in proj for r in proj]))
    assert len(sets) == n * n and all(sets)
    assert len(calls) == len(set(calls)) <= 2 * n * m - n * n == 3_440


def test_roundtrip_product_count_on_tl6(monkeypatch):
    # at most one side product per (projection, idempotent) pair and side,
    # p q once per pair, and four products per candidate with projection
    # side products; the scan of every idempotent at every pair made 55,866
    h = ChainSemigroupHandle(bundle("tl:6").algebra)
    b = boset_of(h.algebra, h)
    n, m = h.algebra.size, len(h.friendly_pairs)
    cs = [h.idempotent_chain(*g) for g in h.friendly_pairs]
    ps = [h.projection_chain(p) for p in range(n)]
    candidates = sum(
        1 for cp in ps for cq in ps for c in cs
        if _is_projection(h.product(cp, c)) and _is_projection(h.product(c, cq)))
    calls = []
    product = h.product
    monkeypatch.setattr(h, "product", lambda c, d: calls.append(1) or
                        product(c, d))
    assert projection_algebra_of_boset(b) == h.algebra
    assert (n, m) == (20, 96)
    assert len(calls) <= 2 * n * m + n * n + 4 * candidates < 55_866


@pytest.mark.parametrize("ci", [0, 1, 2])
def test_undecided_group_raises_in_both_scans(ci):
    # every idempotent chain is built, so a component whose group is not
    # decided refuses even pairs (p, q) that lie outside it
    P = bundle("tl:4").algebra
    for scan in (lambda h: _frozen_sandwich_element(h, 0, 0),
                 lambda h: _one_pair_element(h, 0, 0),
                 lambda h: _sandwich_elements(h, range(P.size),
                                              range(P.size)),
                 lambda h: sandwich_set(h, 0, 0)):
        h = ChainSemigroupHandle(P)
        assert len(h.components) == 3
        h.components[ci].classification = Classification(
            kind="unknown", abelian=(0, ()))
        with pytest.raises(UndecidedEquality):
            scan(h)


def _tampered_arrows(src):
    b = boset_of(bundle(src).algebra, handle(src))
    b.left = b.left.copy()
    b.left[1, 2] = not b.left[1, 2]
    return b


def _tampered_product(src):
    # the first basic pair, row-major, gets the first other element
    b = boset_of(bundle(src).algebra, handle(src))
    i, j = np.argwhere(b.table >= 0)[0]
    b.table = b.table.copy()
    b.table[i, j] = 0 if b.table[i, j] else 1
    return b


def _flipped_arrows(src):
    # every arrow wrong in both arrays: more failures than are kept
    b = boset_of(bundle(src).algebra, handle(src))
    b.left, b.right = ~b.left, ~b.right.T
    return b


@pytest.mark.parametrize("src, tamper", [
    *[(src, None) for src in FROZEN_SOURCES],
    ("tl:3", _tampered_arrows),
    ("tl:3", _tampered_product),
    ("tl:4", _flipped_arrows),
])
def test_compare_matches_the_pairwise_scan(src, tamper):
    bd = bundle(src)
    S = bd.semigroup
    if S is None:
        S, _ = star_semigroup_of(handle(src))
    b = tamper(src) if tamper else boset_of(bd.algebra, handle(src))
    cmp = compare_with_semigroup_boset(bd.algebra, S, boset=b)
    ok, mapping, failures = _frozen_compare(bd.algebra, S, b)
    assert cmp.ok == ok == (tamper is None)
    assert list(cmp.mapping.items()) == list(mapping.items())
    assert cmp.failures == failures
    if tamper is _flipped_arrows:
        assert len(failures) == 20


# -- the dict-based boset -------------------------------------------------
# A copy of the earlier Boset, which kept its partial product as a dict
# {(i, j): ef} and built it one basic pair at a time, with the serializer
# that read it.


class _FrozenBoset:
    def __init__(self, algebra, handle, elements, left, right, products):
        self.algebra = algebra
        self.handle = handle
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.left = left
        self.right = right
        self._products = products

    def star_of(self, e):
        p, q = e
        return (q, p)

    def _key(self, e, f):
        try:
            return self.index[e], self.index[f]
        except (KeyError, TypeError):
            raise InvalidArgument(
                f"({e}, {f}) is not a pair of elements") from None

    def is_basic(self, e, f):
        return self._key(e, f) in self._products

    def product(self, e, f):
        val = self._products.get(self._key(e, f))
        if val is None:
            raise PgsemiError(f"({e}, {f}) is not a basic pair")
        return val

    def basic_items(self):
        return [((self.elements[i], self.elements[j]), val)
                for (i, j), val in sorted(self._products.items())]

    def __repr__(self):
        return (f"Boset({len(self.elements)} elements, "
                f"{len(self._products)} basic pairs)")


def _frozen_boset_of(P, handle):
    rel = handle.rel
    T = P.theta
    elements = handle.friendly_pairs
    ps, qs = np.nonzero(rel.friendly)
    left = rel.leq[np.ix_(qs, qs)]
    right = rel.leq[np.ix_(ps, ps)]
    chains = [handle.idempotent_chain(p, q) for (p, q) in elements]
    products = {}
    for i, j in np.argwhere(left | right | left.T | right.T).tolist():
        (p, q), (r, s) = elements[i], elements[j]
        if left[i, j]:
            val = (p, q)
        elif right[j, i]:
            val = (r, s)
        else:
            val = (int(T[p, T[q, r]]), int(T[s, T[r, q]]))
        got = handle.product(chains[i], chains[j])
        if got != handle.idempotent_chain(*val):
            raise PgsemiError(
                f"basic product [[{p},{q}]][[{r},{s}]] disagrees "
                f"with the chain product {got!r}")
        products[(i, j)] = val
    return _FrozenBoset(P, handle, elements, left, right, products)


def _frozen_boset_to_dict(b):
    idx = b.index
    return {
        "elements": [[p, q] for p, q in b.elements],
        "left": np.argwhere(b.left).tolist(),
        "right": np.argwhere(b.right).tolist(),
        "star": [idx[b.star_of(e)] for e in b.elements],
        "products": [
            [idx[e], idx[f], idx[val]] for (e, f), val in b.basic_items()
        ],
    }


@pytest.mark.parametrize("src", [
    "kinyon", "band:2", "band:3", "tl:2", "tl:3", "tl:4", "tl:5", "tl:6",
    "brauer:3", "brauer:4", "motzkin:3", "motzkin:4", "partition:2",
])
def test_table_boset_matches_the_dict_boset(src):
    h = handle(src)
    new, old = boset_of(h.algebra, h), _frozen_boset_of(h.algebra, h)
    assert new.elements == old.elements
    # repr tells np.int32(3) from 3, so the types must match too
    assert repr(new.basic_items()) == repr(old.basic_items())
    assert repr(new) == repr(old)
    assert json.dumps(boset_to_dict(new)) == \
        json.dumps(_frozen_boset_to_dict(old))
    for e in new.elements:
        for f in new.elements:
            for op in ("is_basic", "product"):
                assert repr(_outcome(getattr(new, op), e, f)) == \
                    repr(_outcome(getattr(old, op), e, f))
    back, old_back = (projection_algebra_of_boset(b) for b in (new, old))
    assert back == old_back == h.algebra
    assert back.labels == old_back.labels


def test_a_closed_form_off_the_elements_raises():
    # kinyon with one theta entry changed: where the dict-based build met a
    # closed form [[r th_q th_p, q th_r th_s]] that is not a friendly pair,
    # the table build refuses too and never reads its index -1; elsewhere
    # both builds give the same products or the same error
    h = handle("kinyon")
    P, seen = h.algebra, 0
    for p, q, v in np.ndindex(P.size, P.size, P.size):
        theta = P.theta.copy()
        theta[p, q] = v
        Q = ProjectionAlgebra(theta)
        old, new = (_outcome(build, Q, h)
                    for build in (_frozen_boset_of, boset_of))
        if isinstance(old, _FrozenBoset):
            assert new.basic_items() == old.basic_items()
        elif old[0] == "NotFriendly":
            seen += 1
            assert new[0] == "PgsemiError" and "disagrees" in new[1]
        else:
            assert new == old
    assert seen


def test_a_closed_form_off_the_elements_is_not_read_as_index_minus_one(
        monkeypatch):
    # kinyon with theta[0, 2] = 3 sends the closed form of some basic pairs
    # off the elements.  Even where the chain product there is the last
    # element, the build must not take the index -1 for that element.
    h = ChainSemigroupHandle(bundle("kinyon").algebra)
    b = boset_of(h.algebra, h)
    T = h.algebra.theta.copy()
    T[0, 2] = 3
    lie = set()
    for i, j in np.argwhere(b.table >= 0).tolist():
        (p, q), (r, s) = b.elements[i], b.elements[j]
        forced = b.left[i, j] or b.right[j, i]
        if not forced and (T[p, T[q, r]], T[s, T[r, q]]) not in b.index:
            lie.add((i, j))
    assert lie
    ix = {h.idempotent_chain(*e): k for k, e in enumerate(b.elements)}
    last = h.idempotent_chain(*b.elements[-1])
    product = h.product
    monkeypatch.setattr(h, "product", lambda c, d: last
                        if (ix.get(c), ix.get(d)) in lie else product(c, d))
    with pytest.raises(PgsemiError, match="disagrees with the chain"):
        boset_of(ProjectionAlgebra(T), h)


def _build_with_a_lying_batch(monkeypatch):
    """The error of boset_of on kinyon with theta[0, 2] = 3 when the
    batched product answers the last element on the pairs whose closed
    form is off the elements (kinyon's groups are all trivial)."""
    h = ChainSemigroupHandle(bundle("kinyon").algebra)
    assert h.trivial_at.all()
    b = boset_of(h.algebra, h)
    T = h.algebra.theta.copy()
    T[0, 2] = 3
    lie = set()
    for i, j in np.argwhere(b.table >= 0).tolist():
        (p, q), (r, s) = b.elements[i], b.elements[j]
        forced = b.left[i, j] or b.right[j, i]
        if not forced and (T[p, T[q, r]], T[s, T[r, q]]) not in b.index:
            lie.add((i, j))
    assert lie
    batch = h.product_batch

    def lying(c, d):
        dom, cod = batch(c, d)
        for n, (e, f) in enumerate(zip(zip(*c), zip(*d))):
            if (b.index[tuple(map(int, e))], b.index[tuple(map(int, f))]) \
                    in lie:
                dom[n], cod[n] = b.elements[-1]
        return dom, cod

    monkeypatch.setattr(h, "product_batch", lying)
    with pytest.raises(PgsemiError, match="disagrees with the chain") as err:
        boset_of(ProjectionAlgebra(T), h)
    return str(err.value)


def test_a_closed_form_off_the_elements_is_not_read_as_index_minus_one_in_the_batch(
        monkeypatch):
    # the same pairs, with the batched product answering the last element
    # there: the build still refuses
    _build_with_a_lying_batch(monkeypatch)


@pytest.mark.parametrize("src", ["kinyon", "tl:5", "motzkin:3", "motzkin:4"])
def test_chunk_seams_change_no_boset(monkeypatch, src):
    # with 7 cells per chunk the batched checks meet a slice seam every few
    # pairs: the tables are those of the default slices, and the roundtrip
    # is exact (motzkin:4 also takes its free component pair by pair)
    P = bundle(src).algebra
    whole = boset_of(P, ChainSemigroupHandle(P))
    monkeypatch.setattr(projections, "CHUNK_CELLS", 7)
    b = boset_of(P, ChainSemigroupHandle(P))
    assert b.elements == whole.elements
    for name in ("left", "right", "table", "star"):
        assert np.array_equal(getattr(b, name), getattr(whole, name))
    assert projection_algebra_of_boset(b) == P


def test_chunk_seams_change_no_verify_tl_output(monkeypatch, capsys):
    assert main(["verify", "tl", "--n", "5"]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(projections, "CHUNK_CELLS", 7)
    assert main(["verify", "tl", "--n", "5"]) == 0
    assert capsys.readouterr().out == whole


def test_chunk_seams_name_the_same_lying_pair(monkeypatch):
    whole = _build_with_a_lying_batch(monkeypatch)
    monkeypatch.setattr(projections, "CHUNK_CELLS", 7)
    assert _build_with_a_lying_batch(monkeypatch) == whole
