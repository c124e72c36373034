"""Presentation families, the word straightener, and the verifiers."""

import random
from collections import Counter

import pytest

from pgsemi.chains import Path
from pgsemi.presentations import (
    SemigroupPresentation,
    presentation_RE,
    presentation_RE2,
    presentation_RP,
    tl_presentation,
    verify_presentation,
    word_to_friendly_path,
)

from conftest import bundle, handle


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


def test_normal_form_mode():
    h = handle("kinyon")
    pres = presentation_RP(h.algebra)
    r = verify_presentation(h.algebra, pres, "normal-form", handle=h,
                            seed=5, samples=40)
    assert r.ok
    assert r.details["checked"] >= r.details["words"]


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
