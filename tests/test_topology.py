"""Friendliness complexes, fundamental groups, and group classification."""

import random
import re
from collections import Counter

import numpy as np
import pytest

from pgsemi.catalog import adjacency_algebra, kinyon_algebra, \
    random_adjacency_graph
from pgsemi.chains import LinkedPair, classify_linked_pair, \
    enumerate_linked_pairs
from pgsemi.errors import PgsemiError
from pgsemi.projections import ProjectionAlgebra, relations
from pgsemi.serialize import presentation_to_dict
from pgsemi.topology import (
    Cell,
    Complex2,
    abelian_invariants,
    complex_KP,
    complex_KP_prime,
    components,
    free_reduce,
    friendliness_graph,
    pi1_presentation,
    tietze_simplify,
)

from conftest import (
    FLEET,
    bundle,
    handle,
    reference_complex_KP_prime,
    reference_linked_pairs,
)


def test_kinyon_friendliness_graph():
    g = friendliness_graph(kinyon_algebra())
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.cells == ()


def test_kinyon_complexes():
    P = kinyon_algebra()
    kp = complex_KP(P)
    kpp = complex_KP_prime(P)
    assert kp.edges == kpp.edges
    # one triangle with boundary on the three mutually friendly projections
    assert len(kpp.cells) == 1
    assert set(kpp.cells[0].boundary) == {0, 1, 2}
    # brute-force count of quad cells: one per linked pair whose boundary
    # survives as a genuine cycle
    expected = 0
    for lp in enumerate_linked_pairs(P):
        walk = [lp.e, lp.e1, lp.f, lp.f1]
        dedup = [v for i, v in enumerate(walk) if i == 0 or walk[i - 1] != v]
        while len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        if len(dedup) >= 3:
            expected += 1
    assert len(kp.cells) == expected


def test_kp_prime_stores_one_triangle_per_unordered_pair():
    for src in ("tl:5", "motzkin:3"):
        P = bundle(src).algebra
        c = complex_KP_prime(P)
        seen = set()
        for cell in c.cells:
            key = (cell.pair.p, frozenset((cell.pair.e, cell.pair.f)))
            assert key not in seen
            seen.add(key)


def _same_complex(got, want):
    assert got.n == want.n and got.edges == want.edges
    assert [(c.boundary, c.kind, c.pair) for c in got.cells] == \
        [(c.boundary, c.kind, c.pair) for c in want.cells]


def _kp_prime_fleet():
    yield from (bundle(src).algebra for src in (
        "kinyon", "tl:2", "tl:3", "tl:4", "tl:5", "tl:6", "motzkin:3",
        "motzkin:4", "brauer:3", "brauer:4", "brauer:5", "partition:2",
        "partition:3", *(f"band:{k}" for k in range(2, 9))))
    rng = np.random.default_rng(5)
    for _ in range(20):
        yield adjacency_algebra(random_adjacency_graph(rng)).algebra


def test_kp_prime_matches_the_per_pair_reference():
    for P in _kp_prime_fleet():
        rel = relations(P)
        want = reference_complex_KP_prime(P, rel)
        _same_complex(complex_KP_prime(P, rel), want)
        # given pairs, in enumeration order or shuffled, are honoured:
        # the first of (e, f) and (f, e) in the given order wins
        pairs = reference_linked_pairs(P, rel)
        _same_complex(complex_KP_prime(P, rel, pairs), want)
        random.Random(P.size).shuffle(pairs)
        _same_complex(complex_KP_prime(P, rel, pairs),
                      reference_complex_KP_prime(P, rel, pairs))


# Tables (p th_p = p, otherwise random) with a linked pair that fails
# exactly one check of classify_linked_pair: a step of lambda or rho that is
# not friendly, or a non-degenerate pair with an unexpected vertex set.  (A
# degeneracy mismatch never comes alone: it forces e1 = f, f1 = e and so an
# unexpected vertex set.)
_ONE_CHECK_FAILS = {
    "e-e1": ([[0, 0, 0, 0, 0], [1, 1, 1, 1, 0], [0, 2, 2, 4, 2],
              [2, 1, 0, 3, 0], [2, 2, 1, 0, 4]], (3, 0, 1)),
    "e1-f": ([[0, 0, 3, 3, 3], [0, 1, 1, 2, 3], [2, 4, 2, 4, 2],
              [4, 4, 3, 3, 3], [3, 1, 4, 4, 4]], (2, 2, 3)),
    "e-f1": ([[0, 0, 3, 3, 3], [0, 1, 1, 2, 3], [2, 4, 2, 4, 2],
              [4, 4, 3, 3, 3], [3, 1, 4, 4, 4]], (2, 3, 2)),
    "f1-f": ([[0, 0, 0, 0, 0], [1, 1, 1, 1, 0], [0, 2, 2, 4, 2],
              [2, 1, 0, 3, 0], [2, 2, 1, 0, 4]], (3, 1, 0)),
    "vertex set, f1 = e": ([[0, 2, 0, 2, 0], [0, 1, 0, 1, 2],
                            [2, 2, 2, 3, 2], [2, 2, 1, 3, 2],
                            [4, 4, 4, 2, 4]], (1, 2, 4)),
    "vertex set, e1 = f": ([[0, 2, 0, 2, 0], [0, 1, 0, 1, 2],
                            [2, 2, 2, 3, 2], [2, 2, 1, 3, 2],
                            [4, 4, 4, 2, 4]], (1, 4, 2)),
}


@pytest.mark.parametrize("check", sorted(_ONE_CHECK_FAILS))
def test_kp_prime_runs_every_check_on_every_pair(check):
    theta, pef = _ONE_CHECK_FAILS[check]
    P = ProjectionAlgebra(theta)
    rel = relations(P, check=False)
    lp = LinkedPair(P, *pef)
    with pytest.raises(PgsemiError) as want:
        classify_linked_pair(lp)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        complex_KP_prime(P, rel, [lp])
    # the whole enumeration fails as the per-pair routine does
    with pytest.raises(PgsemiError) as want:
        reference_complex_KP_prime(P, rel)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        complex_KP_prime(P, rel)


def test_components_and_adjacency_are_computed_once():
    c = handle("motzkin:4").complex
    assert components(c) is components(c)
    assert c.adjacency() is c.adjacency()


def test_cells_must_close_and_use_edges():
    with pytest.raises(ValueError):
        Complex2(3, [(0, 1)], [Cell((0, 1))])  # boundary does not close
    with pytest.raises(ValueError):
        Complex2(3, [(0, 1)], [Cell((0, 2, 0))])  # no such edge


def test_components_sorted_and_exhaustive():
    c = Complex2(5, [(0, 2), (1, 3)])
    assert components(c) == [[0, 2], [1, 3], [4]]


def test_components_reject_spanning_cells():
    # a cell across two components is structurally impossible for our
    # complexes (the constructor checks every boundary edge); the checker
    # guards it anyway
    c = Complex2(4, [(0, 1), (2, 3)], [Cell((2, 3, 2)), Cell((0, 1, 0))])
    assert components(c) == [[0, 1], [2, 3]]
    bad = Complex2(4, [(0, 1), (2, 3)])
    bad.cells = (Cell((0, 2, 0)),)  # planted past the constructor's check
    with pytest.raises(AssertionError, match="spans components"):
        components(bad)


# -- pi1 ------------------------------------------------------------------


def circle(n):
    """Cycle graph on n vertices as a bare complex."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Complex2(n, edges)


def test_pi1_of_a_circle_is_free_rank_one():
    raw = pi1_presentation(circle(5), 0)
    assert raw.ngens == 1
    assert raw.relators == ()
    pres, cls = tietze_simplify(raw)
    assert str(cls) == "free(rank 1)"


def test_pi1_of_a_filled_square_is_trivial():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    c = Complex2(4, edges, [Cell((0, 1, 2, 3, 0))])
    pres, cls = tietze_simplify(pi1_presentation(c, 0))
    assert cls.kind == "trivial"


def test_pi1_of_theta_graph_is_free_rank_two():
    # two vertices, three parallel routes via subdivision points
    edges = [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
    c = Complex2(5, edges)
    pres, cls = tietze_simplify(pi1_presentation(c, 0))
    assert cls.kind == "free" and cls.rank == 2


def test_pi1_basepoint_invariance():
    c = circle(4)
    for b in range(4):
        pres, cls = tietze_simplify(pi1_presentation(c, 0, basepoint=b))
        assert cls.kind == "free" and cls.rank == 1


def test_free_rank_formula_for_cell_free_components():
    # free rank = E - V + 1 on each connected cell-free component
    for src in FLEET:
        P = bundle(src).algebra
        g = friendliness_graph(P)
        for i, comp in enumerate(components(g)):
            nedges = sum(1 for u, v in g.edges if u in set(comp))
            raw = pi1_presentation(g, i)
            assert raw.ngens == nedges - len(comp) + 1


def test_pi1_rejects_non_component_vertex_sets():
    with pytest.raises(ValueError):
        pi1_presentation(circle(4), [0, 1])
    with pytest.raises(ValueError):
        pi1_presentation(circle(4), 0, basepoint=9)


# -- edge words ------------------------------------------------------------


def test_walks_spell_their_words():
    # decoding a word into a walk and encoding it back gives the freely
    # reduced word, over the raw and the simplified generators alike
    rng = random.Random(11)
    negative = 0
    for src in FLEET + ["brauer:5"]:
        h = handle(src)
        for comp in h.components:
            raw = pi1_presentation(h.complex, comp.index)
            for pres in (raw, comp.simplified):
                letters = [s * i for i in range(1, pres.ngens + 1)
                           for s in (1, -1)]
                for _ in range(20):
                    word = [rng.choice(letters)
                            for _ in range(rng.randrange(9))] if letters else []
                    negative += sum(1 for l in word if l < 0)
                    dom = rng.choice(pres.vertices)
                    cod = rng.choice(pres.vertices)
                    verts = pres.walk(dom, word, cod)
                    assert verts[0] == dom and verts[-1] == cod
                    assert pres.word_of(verts) == free_reduce(word)
    assert negative > 0


def test_raw_relators_are_the_cell_boundary_words():
    relators = 0
    for src in FLEET + ["brauer:5"]:
        h = handle(src)
        for i, comp in enumerate(h.comps):
            raw = pi1_presentation(h.complex, i)
            gen = {e: k + 1 for k, e in enumerate(raw.gen_edges)}

            def letters(a, b):
                k = gen.get((min(a, b), max(a, b)))
                if k is None:                   # a tree edge
                    return []
                return [k] if a < b else [-k]

            want = []
            for cell in h.complex.cells:
                if cell.boundary[0] in comp:
                    steps = zip(cell.boundary, cell.boundary[1:])
                    w = free_reduce([l for a, b in steps
                                     for l in letters(a, b)])
                    if w:
                        want.append(w)
            assert raw.relators == tuple(want)
            relators += len(want)
    assert relators > 0


def test_cell_boundaries_spell_the_identity():
    # every relator dies in the group, so the simplified edge words (which
    # carry the eliminated generators' definitions) spell the identity
    # around every cell
    nontrivial = 0
    for src in FLEET + ["brauer:5"]:
        h = handle(src)
        for cell in h.complex.cells:
            comp = h.components[h.comp_of[cell.boundary[0]]]
            word = comp.simplified.word_of(cell.boundary)
            nontrivial += bool(word)
            assert comp.classification.normalize(word) == ()
    assert nontrivial > 0


def test_word_of_rejects_steps_off_the_component():
    h = handle("brauer:5")
    small, big = h.components[0].simplified, h.components[1].simplified
    with pytest.raises(KeyError):
        small.word_of((small.vertices[0], big.vertices[0]))


# -- simplification and classification ------------------------------------


def test_free_reduce():
    assert free_reduce([1, -1, 2]) == (2,)
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([]) == ()


def test_abelian_invariants():
    assert abelian_invariants(0, []) == (0, ())
    assert abelian_invariants(3, []) == (3, ())
    # Z_2 x Z_3 = Z_6 after Smith normal form
    assert abelian_invariants(2, [(1, 1), (2, 2, 2)]) == (0, (6,))
    # one relator a b: rank drops by one
    assert abelian_invariants(2, [(1, 2)]) == (1, ())
    # commutator contributes nothing
    assert abelian_invariants(2, [(1, 2, -1, -2)]) == (2, ())


def test_tietze_single_relator_kills_generator():
    from pgsemi.topology import GroupPresentation

    g = GroupPresentation(ngens=1, relators=((1,),))
    pres, cls = tietze_simplify(g)
    assert pres.ngens == 0
    assert cls.kind == "trivial"


def test_tietze_eliminates_defined_generators():
    from pgsemi.topology import GroupPresentation

    # b = a^2 via relator b a^-2; result is free on one generator
    g = GroupPresentation(ngens=2, relators=((2, -1, -1),))
    pres, cls = tietze_simplify(g)
    assert cls.kind == "free"
    assert cls.rank == 1


def test_tietze_finite_classification():
    from pgsemi.topology import GroupPresentation

    # dihedral of order 8: a^4, b^2, (ab)^2
    g = GroupPresentation(
        ngens=2, relators=((1, 1, 1, 1), (2, 2), (1, 2, 1, 2))
    )
    pres, cls = tietze_simplify(g)
    assert cls.kind == "finite"
    assert cls.order == 8


def test_tietze_unknown_keeps_abelianization():
    from pgsemi.topology import GroupPresentation

    # Z x Z: coset enumeration cannot finish, abelianization says infinite
    g = GroupPresentation(ngens=2, relators=((1, 2, -1, -2),))
    pres, cls = tietze_simplify(g)
    assert cls.kind == "unknown"
    assert cls.abelian == (2, ())


def test_kp_and_kp_prime_agree_on_abelianization():
    # both complexes present the same groups component by component
    for src in ("kinyon", "tl:4", "motzkin:3", "brauer:3"):
        P = bundle(src).algebra
        rel = relations(P)
        kp = complex_KP(P, rel)
        kpp = complex_KP_prime(P, rel)
        comps = components(kp)
        assert comps == components(kpp)
        for i in range(len(comps)):
            a = pi1_presentation(kp, i)
            b = pi1_presentation(kpp, i)
            assert abelian_invariants(a.ngens, a.relators) == \
                abelian_invariants(b.ngens, b.relators)


# -- canonical words ------------------------------------------------------


def test_solver_trivial_normalizes_everything_to_empty():
    from pgsemi.topology import GroupPresentation

    pres, cls = tietze_simplify(GroupPresentation(ngens=1, relators=((1,),)))
    assert cls.normalize((1, 1, -1)) == ()
    assert cls.decisive


def test_solver_free_uses_free_reduction():
    from pgsemi.topology import GroupPresentation

    pres, cls = tietze_simplify(GroupPresentation(ngens=2, relators=()))
    assert cls.normalize((1, 2, -2, 1)) == (1, 1)
    assert cls.decisive


def test_solver_finite_matches_coset_table():
    from pgsemi.topology import GroupPresentation

    g = GroupPresentation(ngens=2, relators=((1, 1), (2, 2), (1, 2) * 3))
    pres, cls = tietze_simplify(g)
    assert cls.order == 6
    # words equal in S_3 get the same canonical form
    assert cls.normalize((1, 2, 1)) == cls.normalize((2, 1, 2))
    assert cls.normalize((1, 1)) == ()


# -- Tietze simplification against a reference routine --------------------
#
# _reference_tietze is the earlier whole-pass routine, kept verbatim apart
# from ``max_steps`` (its pass cap) and ``stats``: every round it re-cleans
# and re-sorts every relator and rewrites every earlier definition.  The
# incremental routine must give the same presentations, edge words and
# classifications letter for letter.


def _ref_cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
        w = list(free_reduce(w))
    return tuple(w)


def _ref_canonical_cyclic(word):
    if not word:
        return ()
    best = None
    for w in (tuple(word), tuple(-l for l in reversed(word))):
        for i in range(len(w)):
            rot = w[i:] + w[:i]
            if best is None or rot < best:
                best = rot
    return best


def _reference_tietze(g, budget=50_000, max_steps=10_000, stats=None):
    from pgsemi.cosets import enumerate_group
    from pgsemi.errors import BudgetExceeded
    from pgsemi.topology import Classification, GroupPresentation

    relators = [list(r) for r in g.relators]
    alive = set(range(g.ngens))
    defs = {}

    def substitute(word, reps):
        out = []
        for l in word:
            rep = reps.get(abs(l) - 1)
            if rep is None:
                out.append(l)
            else:
                out.extend(rep if l > 0 else [-x for x in reversed(rep)])
        return out

    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        steps += 1
        cleaned = []
        seen = set()
        for r in relators:
            w = _ref_cyclic_reduce(r)
            if not w:
                changed = changed or bool(r)
                continue
            key = _ref_canonical_cyclic(w)
            if key in seen:
                changed = True
                if stats is not None:
                    stats["collisions"] += 1
                continue
            seen.add(key)
            if tuple(w) != tuple(r):
                changed = True
            cleaned.append(list(w))
        relators = cleaned

        pick = None
        for idx in sorted(
            range(len(relators)), key=lambda i: (len(relators[i]), relators[i])
        ):
            counts = {}
            for l in relators[idx]:
                counts[abs(l) - 1] = counts.get(abs(l) - 1, 0) + 1
            singles = sorted(gen for gen, k in counts.items() if k == 1)
            if singles:
                pick = (idx, singles[0])
                break
        if pick is not None:
            idx, gen = pick
            r = relators[idx]
            pos = next(i for i, l in enumerate(r) if abs(l) - 1 == gen)
            rot = r[pos:] + r[:pos]
            head, rest = rot[0], rot[1:]
            if head > 0:
                rep = [-x for x in reversed(rest)]
            else:
                rep = list(rest)
                if stats is not None:
                    stats["inverse_eliminations"] += 1
            rep = list(free_reduce(rep))
            relators = [
                list(free_reduce(substitute(w, {gen: rep})))
                for i, w in enumerate(relators)
                if i != idx
            ]
            for k in list(defs):
                defs[k] = list(free_reduce(substitute(defs[k], {gen: rep})))
            defs[gen] = rep
            alive.discard(gen)
            changed = True

    kept = tuple(sorted(alive))
    renum = {orig: i + 1 for i, orig in enumerate(kept)}

    def rename(word):
        return [renum[l - 1] if l > 0 else -renum[-l - 1] for l in word]

    out_relators = []
    for r in relators:
        w = _ref_cyclic_reduce(rename(r))
        if w:
            out_relators.append(tuple(w))
    simplified = GroupPresentation(
        ngens=len(kept),
        relators=tuple(out_relators),
        gen_edges=tuple(g.gen_edges[i] for i in kept) if g.gen_edges else (),
        basepoint=g.basepoint,
        tree_parent=g.tree_parent,
        vertices=g.vertices,
        edge_words={e: free_reduce(rename(substitute(w, defs)))
                    for e, w in g.edge_words.items()},
    )

    ab = abelian_invariants(simplified.ngens, simplified.relators)
    if simplified.ngens == 0:
        cls = Classification(kind="trivial", order=1, abelian=(0, ()))
    elif not simplified.relators:
        cls = Classification(kind="free", rank=simplified.ngens, abelian=ab)
    elif ab[0] >= 1:
        cls = Classification(kind="unknown", abelian=ab)
    else:
        try:
            enum = enumerate_group(
                simplified.ngens, simplified.relators, budget=budget
            )
            if enum.size == 1:
                cls = Classification(kind="trivial", order=1, abelian=ab,
                                     enumeration=enum)
            else:
                cls = Classification(kind="finite", order=enum.size,
                                     abelian=ab, enumeration=enum)
        except BudgetExceeded:
            cls = Classification(kind="unknown", abelian=ab)
    return simplified, cls


def _simplified_output(result):
    pres, cls = result
    enum = cls.enumeration
    return (presentation_to_dict(pres, cls), pres.edge_words,
            None if enum is None else enum.reps)


def assert_same_simplification(raw, budget=50_000):
    assert _simplified_output(tietze_simplify(raw, budget=budget)) == \
        _simplified_output(_reference_tietze(raw, budget=budget))


def test_tietze_matches_reference_on_fleet_components():
    for src in FLEET:
        h = handle(src)
        for i in range(len(h.comps)):
            assert_same_simplification(pi1_presentation(h.complex, i))


@pytest.mark.parametrize("src", ["motzkin:4", "brauer:5"])
def test_tietze_matches_reference_on_maximal_subgroups(src):
    h = handle(src)
    for p in range(h.algebra.size):
        raw = pi1_presentation(h.complex, h.comp_of[p], basepoint=p)
        assert_same_simplification(raw)


def _random_presentation(rng):
    from pgsemi.topology import GroupPresentation

    n = rng.randint(1, 6)
    letters = [s * a for a in range(1, n + 1) for s in (1, -1)]
    relators = []
    for _ in range(rng.randint(0, 8)):
        if relators and rng.random() < 0.3:
            # a copy of an earlier relator, rotated and perhaps inverted
            w = rng.choice(relators)
            i = rng.randrange(len(w))
            w = w[i:] + w[:i]
            if rng.random() < 0.5:
                w = tuple(-l for l in reversed(w))
        else:
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 7)))
        relators.append(w)
    edge_words = {(0, a): (a,) for a in range(1, n + 1)}
    for e in range(3):
        edge_words[(e, -1)] = tuple(rng.choice(letters)
                                    for _ in range(rng.randrange(6)))
    return GroupPresentation(
        ngens=n, relators=tuple(relators),
        gen_edges=tuple((0, a) for a in range(1, n + 1)),
        edge_words=edge_words)


def test_tietze_matches_reference_on_random_presentations():
    rng = random.Random(2024)
    stats = Counter()
    for _ in range(2_000):
        raw = _random_presentation(rng)
        new = _simplified_output(tietze_simplify(raw, budget=500))
        assert new == _simplified_output(
            _reference_tietze(raw, budget=500, stats=stats))
        stats[new[0]["classification"]["kind"]] += 1
    # the fleet exercises dedup collisions, eliminations through an
    # inverse letter, and every classification kind
    assert stats["collisions"] > 100
    assert stats["inverse_eliminations"] > 100
    for kind in ("trivial", "free", "finite", "unknown"):
        assert stats[kind] > 0


def test_tietze_elimination_cap(monkeypatch):
    from pgsemi import topology
    from pgsemi.topology import GroupPresentation

    # five generators, each defined by the next: all but one can go
    g = GroupPresentation(ngens=5, relators=(
        (1, -2), (2, -3), (3, -4), (4, -5), (1, 1, 1),
        (-5, 1, 2, 3), (3, 2, 1, -5)))
    full, full_cls = tietze_simplify(g)
    assert full.ngens == 1
    monkeypatch.setattr(topology, "MAX_ELIMINATIONS", 2)
    capped, cls = tietze_simplify(g)
    assert capped.ngens == 3
    assert cls.abelian == full_cls.abelian
    # the reference stopped after two passes with its relators uncleaned;
    # the capped routine returns the same relators, cleaned and deduplicated
    ref, _ = _reference_tietze(g, max_steps=2)
    assert ref.ngens == 3
    seen, want = set(), []
    for r in ref.relators:
        key = _ref_canonical_cyclic(r)
        if key not in seen:
            seen.add(key)
            want.append(r)
    assert len(want) < len(ref.relators)
    assert capped.relators == tuple(want)
