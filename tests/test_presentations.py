"""Presentation families, the word straightener, and the verifiers."""

import random
import re
from collections import Counter
from functools import lru_cache

import pytest

import pgsemi.chains as chains
import pgsemi.chainsemigroup as chainsemigroup
from pgsemi.catalog import parse_source
from pgsemi.chains import Path, _reduce
from pgsemi.chainsemigroup import ChainSemigroupHandle
from pgsemi.errors import InvalidArgument, PgsemiError
from pgsemi.presentations import (
    SemigroupPresentation,
    _default_word_budget,
    _index_moves,
    _rewrite_orbit,
    presentation_RE,
    presentation_RE2,
    presentation_RP,
    tl_presentation,
    verify_presentation,
    word_to_friendly_path,
)
from pgsemi.projections import ProjectionAlgebra
from pgsemi.topology import free_reduce

from conftest import bundle, handle, random_tables


def tags_of(pres):
    return Counter(t for _, _, t in pres.relations)


def test_rp_relation_counts():
    # |P| idempotency relations plus two families over all ordered pairs
    for src, n in (("kinyon", 4), ("band:2", 2), ("tl:3", 3)):
        pres = presentation_RP(bundle(src).algebra)
        assert len(pres.letters) == n
        assert len(pres.relations) == n + 2 * n * n
        assert tags_of(pres) == {"R1": n, "R2": n * n, "R3": n * n}


def test_re_families_use_friendly_pair_letters():
    h = handle("kinyon")
    re1 = presentation_RE(h.algebra, h)
    re2 = presentation_RE2(h.algebra, h)
    assert len(re1.letters) == 10
    assert re1.letters == re2.letters
    # the projection-product family shrinks to friendly pairs only in the
    # sandwich variant: 10 friendly pairs vs all 16 ordered pairs
    assert tags_of(re2)["R3''"] == 10
    assert tags_of(re1)["R2'"] == 16
    assert tags_of(re2)["R3''"] < tags_of(re1)["R2'"]


def test_soundness_all_families():
    for src in ("kinyon", "band:2", "tl:3"):
        h = handle(src)
        P = h.algebra
        for pres in (presentation_RP(P), presentation_RE(P, h),
                     presentation_RE2(P, h)):
            r = verify_presentation(P, pres, "soundness", handle=h)
            assert r.ok and not r.inconclusive and bool(r)
            assert r.details["failures"] == []
            assert "ok" in r.summary()


def test_soundness_flags_a_wrong_relation():
    P = bundle("kinyon").algebra
    pres = presentation_RP(P)
    # claim two distinct projections are equal
    bad = pres.relations + (((0,), (1,), "bogus"),)
    corrupt = SemigroupPresentation(pres.name, pres.letters, pres.names, bad)
    r = verify_presentation(P, corrupt, "soundness")
    assert not r.ok
    assert r.details["failures"] == [{"tag": "bogus", "lhs": [0], "rhs": [1]}]


def test_size_mode_exact():
    cases = [
        ("kinyon", presentation_RP, 10),
        ("band:2", presentation_RE, 4),
        ("tl:3", presentation_RE2, 5),
        ("tl:4", presentation_RP, 14),
    ]
    for src, build, n in cases:
        h = handle(src)
        try:
            pres = build(h.algebra, h)
        except TypeError:
            pres = build(h.algebra)
        r = verify_presentation(h.algebra, pres, "size", handle=h)
        assert r.ok and bool(r)
        assert r.details["classes"] == n
        assert r.details["bijection"] == "representatives"


def test_size_mode_rejects_infinite_targets():
    h = handle("band:3")
    pres = presentation_RP(h.algebra)
    with pytest.raises(ValueError):
        verify_presentation(h.algebra, pres, "size", handle=h)


def test_size_mode_budget_is_inconclusive_not_false():
    h = handle("tl:4")
    pres = presentation_RP(h.algebra)
    r = verify_presentation(h.algebra, pres, "size", handle=h, budget=3)
    assert r.inconclusive
    assert not bool(r)
    assert "inconclusive" in r.summary()


def test_tl_presentation_inventory():
    p3 = tl_presentation(3)
    assert p3.names == ("e", "t1", "t2")
    assert tags_of(p3) == {"T1": 2, "T3": 2, "T4": 4, "T5": 1}
    p4 = tl_presentation(4)
    assert tags_of(p4)["T2"] == 1      # only t1 t3 = t3 t1 commutes
    with pytest.raises(ValueError):
        tl_presentation(1)


def test_tl_presentation_counts_match_the_monoid():
    for n, size in ((3, 5), (4, 14)):
        P = bundle(f"tl:{n}").algebra
        r = verify_presentation(P, tl_presentation(n), "size")
        assert r.ok
        assert r.details["classes"] == size
        assert r.details["bijection"] == "count"


def test_straightened_words_are_friendly_and_equal():
    rng = random.Random(11)
    for src in ("kinyon", "band:2", "tl:3", "tl:4"):
        h = handle(src)
        P = h.algebra
        leq = h.rel.leq
        for _ in range(250):
            w = [rng.randrange(P.size) for _ in range(rng.randint(1, 7))]
            path = word_to_friendly_path(P, w)   # construction validates
            assert len(path.verts) == len(w)
            # each vertex is dominated by the letter it came from
            for out, letter in zip(path.verts, w):
                assert leq[out, letter]
            via_product = h.projection_chain(w[0])
            for p in w[1:]:
                via_product = h.product(via_product, h.projection_chain(p))
            assert h.normalize(path) == via_product


def test_straightener_fixes_friendly_paths():
    h = handle("tl:3")
    P = h.algebra
    for w in ((2,), (0, 1), (1, 0, 0), (0, 1, 1, 0)):
        path = Path(P, w)  # already friendly
        out = word_to_friendly_path(P, list(w))
        assert h.normalize(out) == h.normalize(path)


def test_straightener_input_validation():
    P = bundle("kinyon").algebra
    with pytest.raises(ValueError):
        word_to_friendly_path(P, [])
    with pytest.raises(ValueError):
        word_to_friendly_path(P, [0, 9])
    # int() would truncate 1.5 to the letter 1 and straighten (1, 2)
    for word, value in (([1.5, 2], "1.5"), ([0, 2.0], "2.0"),
                        (["1"], "'1'"), ([True, 2], "True")):
        with pytest.raises(InvalidArgument, match=value):
            word_to_friendly_path(P, word)


# -- frozen copies of the straightener and of the chain encoding ------------
#
# Kept verbatim from before the straightener checked each step as it built
# it and ``word_of`` read a walk without its reduction: the straightener
# hands its walk to ``Path``, and the encoding reduces the walk, spells
# every step's word and free-reduces the result.

ORACLE_SOURCES = ["kinyon", *(f"tl:{n}" for n in range(2, 8)), "motzkin:3",
                  "motzkin:4", "brauer:3", "brauer:4", "brauer:5",
                  "partition:2", "partition:3",
                  *(f"band:{k}" for k in range(2, 9))]


def _frozen_word_to_friendly_path(P, word):
    verts = [int(p) for p in word]
    if not verts:
        raise ValueError("word must be nonempty")
    n = P.size
    for p in verts:
        if not 0 <= p < n:
            raise ValueError(f"letter {p} out of range")
    T = P.rows
    lead = []
    cur = verts[0]
    for p in verts[1:]:
        lead.append(T[cur][p])           # p th_cur
        cur = T[p][cur]                  # cur th_p
    rev = [cur]
    for a in reversed(lead):
        rev.append(T[a][rev[-1]])        # repair the junction: next th_a
    rev.reverse()
    return Path(P, rev)


def _frozen_encode(h, verts):
    verts = _reduce(verts)
    ci = h.comp_of[verts[0]]
    ew = h.components[ci].simplified.edge_words
    word = free_reduce(
        [l for step in zip(verts, verts[1:]) for l in ew[step]])
    return ci, verts[0], verts[-1], word


@lru_cache(maxsize=None)
def _oracle_handle(src):
    if src != "tl:7":
        return handle(src)
    return ChainSemigroupHandle(parse_source(src, allow_large=True).algebra)


@pytest.mark.parametrize("src", ORACLE_SOURCES)
def test_straightener_and_encoding_match_their_frozen_copies(src):
    h = _oracle_handle(src)
    P = h.algebra
    rng = random.Random(20)
    kinds = Counter()
    for _ in range(2000):
        w = [rng.randrange(P.size) for _ in range(rng.randint(1, 8))]
        path = word_to_friendly_path(P, w)
        assert path == _frozen_word_to_friendly_path(P, w)
        assert all(type(v) is int for v in path.verts)
        got = h._encode(path.verts)
        assert got == _frozen_encode(h, path.verts)
        kinds[h.components[got[0]].classification.kind] += 1
    # the words reach brauer:5's finite group and band:8's free group
    if src == "brauer:5":
        assert kinds["finite"] > 100
    if src == "band:8":
        assert kinds["free"] == 2000


@pytest.mark.parametrize("src", ORACLE_SOURCES)
def test_encoding_of_unreduced_walks_matches_its_frozen_copy(src):
    # random friendly walks that stay put and turn back often: the walk's
    # own word free-reduces to its reduced form's word
    h = _oracle_handle(src)
    P = h.algebra
    near = [[int(q) for q in row.nonzero()[0]] for row in h.rel.friendly]
    rng = random.Random(21)
    moves = Counter()
    for _ in range(500):
        walk = [rng.randrange(P.size)]
        for _ in range(rng.randrange(16)):
            roll = rng.random()
            move = ("stay" if roll < 0.2 else
                    "back" if roll < 0.45 and len(walk) > 1 else "step")
            moves[move] += 1
            walk.append(walk[-1] if move == "stay" else
                        walk[-2] if move == "back" else
                        rng.choice(near[walk[-1]]))
        verts = Path(P, walk).verts
        assert h._encode(verts) == _frozen_encode(h, verts)
    assert min(moves.values()) > 500


def _straighten_outcome(straighten, P, w):
    try:
        return "ok", straighten(P, w).verts
    except PgsemiError as exc:
        return type(exc).__name__, str(exc)


def test_straightener_matches_its_frozen_copy_on_random_tables():
    # tables that need not be projection algebras, half of them with
    # p theta_p != p allowed: a failing walk raises the NotFriendly of
    # Path, which names its first failing step, v -> v steps included
    rng = random.Random(22)
    tables = list(random_tables(600))
    for P in tables[::2]:
        n = P.size
        tables.append(ProjectionAlgebra(
            [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    outcomes = Counter()
    for P in tables:
        for _ in range(8):
            w = [rng.randrange(P.size) for _ in range(rng.randint(1, 6))]
            got = _straighten_outcome(word_to_friendly_path, P, w)
            assert got == _straighten_outcome(
                _frozen_word_to_friendly_path, P, w)
            outcomes[got[0]] += 1
            if got[0] == "NotFriendly":
                a, b = re.fullmatch(r"consecutive vertices (\d+), (\d+) "
                                    r"are not friendly", got[1]).groups()
                outcomes["v -> v"] += a == b
    assert outcomes["ok"] > 1000 and outcomes["NotFriendly"] > 1000
    assert outcomes["v -> v"] > 50


def test_normalizing_a_straightened_word_checks_and_reduces_nothing_again(
        path_count, monkeypatch):
    reduced = [0]

    def counting_reduce(verts):
        reduced[0] += 1
        return _reduce(verts)

    for module in (chains, chainsemigroup):
        monkeypatch.setattr(module, "_reduce", counting_reduce)
    rng = random.Random(23)
    for src in ("kinyon", "tl:5", "brauer:4", "brauer:5", "band:8"):
        h = _oracle_handle(src)
        path_count[0] = reduced[0] = 0
        for _ in range(300):
            w = [rng.randrange(h.algebra.size)
                 for _ in range(rng.randint(1, 8))]
            h.normalize(word_to_friendly_path(h.algebra, w))
        assert path_count[0] == 0 and reduced[0] == 0


def test_normal_form_mode():
    h = handle("kinyon")
    pres = presentation_RP(h.algebra)
    r = verify_presentation(h.algebra, pres, "normal-form", handle=h,
                            seed=5, samples=40)
    assert r.ok
    assert r.details == {"words": 40, "checked": 9496}


# A frozen copy of the normal-form search before it indexed moves by their
# whole left side and stopped at the cap: it matches moves by first letter
# and scans every frontier word and every hit after the cap is reached.


def _reference_orbit(w, pres, budget):
    moves = []
    for lhs, rhs in pres.word_pairs():
        moves.append((lhs, rhs))
        moves.append((rhs, lhs))
    by_first = {}
    for i, (l, _r) in enumerate(moves):
        by_first.setdefault(l[0], []).append(i)
    seen = {w}
    frontier = [w]
    while frontier and len(seen) < 256:
        nxt = []
        for u in frontier:
            hits = sorted(
                (i, pos) for pos, x in enumerate(u)
                for i in by_first.get(x, ())
                if u[pos:pos + len(moves[i][0])] == moves[i][0])
            for i, pos in hits:
                l, r = moves[i]
                v = u[:pos] + r + u[pos + len(l):]
                if len(v) <= budget and v not in seen and len(seen) < 256:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _start_words(P, seed, samples):
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, 6)
        yield tuple(rng.randrange(P.size) for _ in range(k))


def _reference_normal_form(h, pres, seed, samples, budget):
    P = h.algebra
    checked = 0
    for w in _start_words(P, seed, samples):
        target = h.normalize(word_to_friendly_path(P, w))
        for u in _reference_orbit(w, pres, budget):
            checked += 1
            if h.normalize(word_to_friendly_path(P, u)) != target:
                return {"word": list(w), "variant": list(u)}
    return {"words": samples, "checked": checked}


@pytest.mark.parametrize("src,budget", [
    ("kinyon", None), ("tl:3", None), ("tl:4", None), ("tl:5", None),
    ("band:3", 10),
])
def test_rewrite_orbit_matches_its_frozen_reference(src, budget):
    h = handle(src)
    pres = presentation_RP(h.algebra)
    if budget is None:
        budget = _default_word_budget(h)
    moves, by_lhs = _index_moves(pres)
    for w in _start_words(h.algebra, 0, 40):
        # a set's iteration order, which the checker reads, is fixed by
        # the order its words were inserted in
        assert list(_rewrite_orbit(w, moves, by_lhs, budget)) \
            == list(_reference_orbit(w, pres, budget)), w


def test_normal_form_reports_a_wrong_relation_like_its_reference():
    h = handle("kinyon")
    P = h.algebra
    pres = presentation_RP(P)
    bad = pres.relations + (((0,), (1,), "bogus"),)
    corrupt = SemigroupPresentation(pres.name, pres.letters, pres.names, bad)
    budget = _default_word_budget(h)
    for seed in (0, 5):
        r = verify_presentation(P, corrupt, "normal-form", handle=h,
                                seed=seed)
        assert not r.ok and not r.inconclusive
        assert r.details == _reference_normal_form(h, corrupt, seed, 200,
                                                   budget)
        assert set(r.details) == {"word", "variant"}


def test_normal_form_mode_needs_projection_letters():
    h = handle("kinyon")
    pres = presentation_RE(h.algebra, h)
    with pytest.raises(ValueError):
        verify_presentation(h.algebra, pres, "normal-form", handle=h)


def test_unknown_mode_rejected():
    P = bundle("band:2").algebra
    for mode in ("completeness", "normal_form"):
        with pytest.raises(ValueError, match="unknown mode"):
            verify_presentation(P, presentation_RP(P), mode)


def test_presentation_container_validation():
    with pytest.raises(ValueError):
        SemigroupPresentation("x", (("proj", 0),), ("a", "b"), ())
    with pytest.raises(ValueError):
        SemigroupPresentation("x", (("proj", 0),), ("a",),
                              (((), (0,), "R"),))
    with pytest.raises(ValueError):
        SemigroupPresentation("x", (("proj", 0),), ("a",),
                              (((1,), (0,), "R"),))


def test_render_and_to_dict():
    P = bundle("band:2").algebra
    pres = presentation_RP(P)
    text = pres.render()
    assert text.count("\n") == len(pres.relations)
    assert "R1:" in text and "=" in text
    d = pres.to_dict()
    assert d["name"] == "RP"
    assert len(d["letters"]) == 2
    assert len(d["relations"]) == len(pres.relations)
    assert {"tag", "lhs", "rhs"} <= set(d["relations"][0])
