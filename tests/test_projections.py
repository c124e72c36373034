"""Projection algebra axioms, derived laws, and the order relations."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from pgsemi.catalog import kinyon_algebra, square_band_algebra
from pgsemi.errors import MalformedTable, NotAMorphism
from pgsemi.projections import (
    ProjectionAlgebra,
    check_derived_laws,
    is_morphism,
    relations,
    theta_chain,
    validate_axioms,
)

from conftest import FLEET, bundle


# Frozen order matrices for the four-projection algebra {p, q, r, e}:
# rows are p; leq[p][q] == 1 means p <= q.
KINYON_LEQ = [
    [1, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
]
KINYON_LEQF = [
    [1, 1, 1, 1],
    [1, 1, 1, 1],
    [1, 1, 1, 1],
    [0, 0, 0, 1],
]
KINYON_FRIENDLY = [
    [1, 1, 1, 0],
    [1, 1, 1, 0],
    [1, 1, 1, 0],
    [0, 0, 0, 1],
]


def test_kinyon_is_valid():
    P = kinyon_algebra()
    assert validate_axioms(P) == []
    assert check_derived_laws(P) == []


@pytest.mark.parametrize("src", FLEET)
def test_fleet_axioms_and_derived_laws(src):
    P = bundle(src).algebra
    assert validate_axioms(P) == []
    assert check_derived_laws(P, max_chain=3) == []


def test_kinyon_relations_frozen():
    rel = relations(kinyon_algebra())
    assert rel.leq.astype(int).tolist() == KINYON_LEQ
    assert rel.leqf.astype(int).tolist() == KINYON_LEQF
    assert rel.friendly.astype(int).tolist() == KINYON_FRIENDLY


def test_band_relations():
    # in a square band <= is equality and <=F is everything
    P = square_band_algebra(3)
    rel = relations(P)
    assert np.array_equal(rel.leq, np.eye(3, dtype=bool))
    assert rel.leqf.all()
    assert rel.friendly.all()


def test_leq_is_a_partial_order_on_fleet():
    for src in FLEET:
        rel = relations(bundle(src).algebra)
        L = rel.leq
        n = L.shape[0]
        assert L.diagonal().all()
        assert not (L & L.T & ~np.eye(n, dtype=bool)).any()
        # transitivity: L@L stays inside L
        assert not ((L.astype(int) @ L.astype(int) > 0) & ~L).any()


def test_friendly_is_symmetric_and_reflexive():
    for src in FLEET:
        rel = relations(bundle(src).algebra)
        assert np.array_equal(rel.friendly, rel.friendly.T)
        assert rel.friendly.diagonal().all()


# -- axiom violations are caught -----------------------------------------


def test_broken_p1_detected():
    # theta_0 moves 0 somewhere else
    P = ProjectionAlgebra([[1, 1], [1, 1]])
    laws = {v.law for v in validate_axioms(P)}
    assert "P1" in laws


def test_broken_p2_detected():
    # theta_1 not idempotent: 0 -> 2 -> 0
    theta = [
        [0, 0, 0],
        [2, 1, 0],
        [2, 2, 2],
    ]
    P = ProjectionAlgebra(theta)
    assert any(v.law == "P2" for v in validate_axioms(P))


def test_violation_reports_witnesses():
    P = ProjectionAlgebra([[1, 1], [1, 1]])
    v = [w for w in validate_axioms(P) if w.law == "P1"][0]
    assert v.count >= 1
    assert len(v.witnesses) >= 1
    assert "P1" in str(v)


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        ProjectionAlgebra([[0, 1], [5, 1]])  # out of range
    with pytest.raises(MalformedTable):
        ProjectionAlgebra([[0, 1]])  # not square


# -- theta composites ----------------------------------------------------


def test_theta_chain_matches_iterated_lookup():
    P = kinyon_algebra()
    T = P.theta
    for q in range(4):
        for a in range(4):
            for b in range(4):
                expect = int(T[b, T[a, q]])
                assert theta_chain(P, q, (a, b)) == expect


def test_theta_chain_empty_is_identity():
    P = kinyon_algebra()
    for q in range(4):
        assert theta_chain(P, q, ()) == q


# -- morphisms ------------------------------------------------------------


def test_identity_is_a_morphism():
    P = kinyon_algebra()
    assert is_morphism(P, P, list(range(4)))


def test_band_collapse_is_a_morphism():
    # any map between square bands respects the constant operations
    P = square_band_algebra(3)
    Q = square_band_algebra(2)
    assert is_morphism(P, Q, [0, 1, 0])


def test_non_morphism_detected():
    P = kinyon_algebra()
    # swapping r and e breaks theta_e's fold of r onto q
    assert not is_morphism(P, P, [0, 1, 3, 2])


def test_non_integer_phi_is_refused():
    # truncated, [0.5, 1.7, 2.2] would be the identity of tl:3
    P = bundle("tl:3").algebra
    assert is_morphism(P, P, [0, 1, 2])
    with pytest.raises(NotAMorphism, match="must be integers"):
        is_morphism(P, P, [0.5, 1.7, 2.2])


# -- violation reports against an unchunked, every-tuple oracle -----------


def _oracle_collect(mask, law, decode=None):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return []
    witnesses = [tuple(int(x) for x in row) for row in idx[:20]]
    if decode is not None:
        witnesses = [decode(w) for w in witnesses]
    return [(law, tuple(witnesses), idx.shape[0])]


def _oracle_axioms(theta):
    """P1-P5 on whole (n, n, n) arrays."""
    T = np.asarray(theta, dtype=np.intp)
    n = T.shape[0]
    rng = np.arange(n)
    B = T[:, T].transpose(1, 0, 2)        # (r th_p) th_q
    C = T[rng[:, None, None], B]          # ((r th_p) th_q) th_p
    return (_oracle_collect(T[rng, rng] != rng, "P1")
            + _oracle_collect(T[rng[:, None], T] != T, "P2")
            + _oracle_collect(T[rng[:, None], T.T] != T, "P3")
            + _oracle_collect(C != T[T], "P4")
            + _oracle_collect(T[rng[None, :, None], C] != B, "P5"))


def _oracle_derived(theta, max_chain):
    """The pairwise laws on whole arrays, and the chain laws on every tuple
    (p1, ..., pk) in base n, in chunks of 500k cells, one report per chunk."""
    T = np.asarray(theta, dtype=np.intp)
    n = T.shape[0]
    rng = np.arange(n)
    leq = T.T == rng[:, None]
    leqf = T == rng[:, None]
    friendly = leqf & leqf.T
    out = _oracle_collect(~friendly[T.T, T], "A1")
    out += _oracle_collect(
        leq[:, :, None] & leqf[None, :, :] & ~leqf[:, None, :], "A2a")
    out += _oracle_collect(
        leqf[:, :, None] & leq[None, :, :] & ~leqf[:, None, :], "A2b")
    out += _oracle_collect(leq & ~leqf, "A3")
    B = T[:, T]
    m1 = B.transpose(1, 0, 2)
    out += _oracle_collect((m1 != T[:, None, :]).any(axis=2) & leq, "A4a")
    out += _oracle_collect((B != T[:, None, :]).any(axis=2) & leq, "A4b")
    C = T[rng[:, None, None], m1]
    out += _oracle_collect((C != T[:, None, :]).any(axis=2) & leqf, "A5")
    def compose(r, ps):
        return functools.reduce(lambda x, p: T[p, x], ps, r)

    for k in range(1, max_chain + 1):
        tuples = list(itertools.product(range(n), repeat=k))
        fwd = np.array([[compose(r, t) for r in range(n)] for t in tuples])
        rev = np.array([[compose(r, t[::-1]) for r in range(n)]
                        for t in tuples])
        chunk = max(1, 500_000 // (n * n))
        for lo in range(0, len(tuples), chunk):
            L, R = fwd[lo:lo + chunk], rev[lo:lo + chunk]
            X = T[:, R].transpose(1, 0, 2)
            rhs_c1 = L[np.arange(len(L))[:, None, None], X]
            lhs_c1 = T[L]

            def dec(w, lo=lo):
                return (tuples[lo + w[0]], w[1], w[2])

            out += _oracle_collect(lhs_c1 != rhs_c1, f"C1[k={k}]", dec)
            lhs_c2 = T[rng[None, None, :], rhs_c1]
            rhs_c2 = T[rng[None, None, :], L[:, :, None]]
            out += _oracle_collect(lhs_c2 != rhs_c2, f"C2[k={k}]", dec)
    return out


def _reports(violations):
    return [(v.law, v.witnesses, v.count) for v in violations]


def _random_tables():
    """Seeded random tables, n <= 6, half with P1 forced, and perturbed
    algebras (whose composites mostly coincide), each with a max_chain."""
    rng = np.random.default_rng(20241)
    for i in range(240):
        n = int(rng.integers(1, 7))
        theta = rng.integers(0, n, size=(n, n))
        if i % 2:
            theta[np.arange(n), np.arange(n)] = np.arange(n)
        yield theta, int(rng.integers(0, 4))
    for src in ("kinyon", "tl:4", "band:5", "motzkin:3"):
        base = bundle(src).algebra.theta
        n = base.shape[0]
        for _ in range(6):
            theta = base.astype(np.int64)
            theta[rng.integers(n), rng.integers(n)] = rng.integers(n)
            yield theta, 3


def test_violation_reports_match_every_tuple_oracle():
    cases = list(_random_tables())
    chain_reports = 0
    for theta, max_chain in cases:
        P = ProjectionAlgebra(theta)
        assert _reports(validate_axioms(P)) == _oracle_axioms(theta)
        got = _reports(check_derived_laws(P, max_chain=max_chain))
        assert got == _oracle_derived(theta, max_chain), (theta, max_chain)
        chain_reports += sum(law.startswith("C") for law, _, _ in got)
    assert chain_reports > 300


def test_chain_violations_reported_per_chunk_of_tuples():
    # n = 14 at k = 3: 2,744 tuples in chunks of 2,551, so each chain law
    # is reported once per chunk
    theta = np.random.default_rng(14).integers(0, 14, size=(14, 14))
    got = _reports(check_derived_laws(ProjectionAlgebra(theta), max_chain=3))
    assert got == _oracle_derived(theta, 3)
    assert [law for law, _, _ in got].count("C1[k=3]") == 2


def test_large_table_reports_span_chunks_over_p():
    # n = 90 runs the three-variable laws in two chunks over p (61 + 29);
    # failures planted on both sides of the cut add up in one report
    theta = square_band_algebra(90).theta.astype(np.int64)
    for p, q, r in ((3, 7, 5), (40, 2, 2), (70, 1, 80), (89, 0, 88)):
        theta[p, q] = r
    assert _reports(validate_axioms(ProjectionAlgebra(theta))) == \
        _oracle_axioms(theta)
    got = _reports(check_derived_laws(ProjectionAlgebra(theta), max_chain=1))
    assert got == _oracle_derived(theta, 1)
    a4a = [w for law, w, _ in got if law == "A4a"][0]
    assert [p for p, _ in a4a] == [3, 70, 89]


def test_premise_laws_span_chunks_of_pairs():
    # on a square band of 90, p <=F q holds for all 8,100 pairs, so A5 runs
    # over two chunks of pairs, cut after pair 5,555 = (61, 65); each
    # planted row p is constant at c except at p and a few q, where theta_p
    # gives p: A5 fails at those q, and fails unreported where p <=F q fails
    theta = square_band_algebra(90).theta.astype(np.int64)
    for p, c, qs in ((5, 7, (1,)), (61, 0, (60, 62, 70, 80)),
                     (89, 3, (88,))):
        theta[p] = c
        theta[p, (p,) + qs] = p
    P = ProjectionAlgebra(theta)
    got = _reports(check_derived_laws(P, max_chain=1))
    assert got == _oracle_derived(theta, 1)
    a5 = [(w, count) for law, w, count in got if law == "A5"][0]
    assert a5 == (((5, 1), (61, 60), (61, 62), (61, 70), (61, 80),
                   (89, 88)), 6)
    # the same composite without the premise fails on whole rows
    T = P.theta.astype(np.intp)
    B = T[:, T]                                   # [q, p, r] = r th_p th_q
    C = T[np.arange(90)[None, :, None], B]        # r th_p th_q th_p
    assert (C != T[None]).any(axis=2).sum() > 200


def test_law_checks_keep_memory_bounded():
    P = square_band_algebra(200)
    for check in (validate_axioms,
                  functools.partial(check_derived_laws, max_chain=1)):
        tracemalloc.start()
        try:
            assert check(P) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, (check, peak)


def test_long_chains_keep_memory_bounded():
    # motzkin:4 has 35^5 = 52.5M tuples of length 5: the checks keep one
    # (class, p) -> class table per length, never an entry per tuple
    P = bundle("motzkin:4").algebra
    tracemalloc.start()
    try:
        assert check_derived_laws(P, max_chain=5) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


class _OracleLaw:
    """One law's report built from masks given in row-major order."""

    def __init__(self, law):
        self.law, self.witnesses, self.count = law, [], 0

    def add(self, mask, *prefix):
        idx = np.argwhere(mask)
        room = 20 - len(self.witnesses)
        self.witnesses += [prefix + tuple(int(x) for x in row)
                           for row in idx[:max(room, 0)]]
        self.count += len(idx)

    def report(self, decode=None):
        if not self.count:
            return []
        ws = self.witnesses
        if decode is not None:
            ws = [decode(w) for w in ws]
        return [(self.law, tuple(ws), self.count)]


def _oracle_by_p(theta):
    """P1-P5, and the derived laws at max_chain 1, one p (or one tuple
    (p1,)) at a time, so that no array has more than n^2 cells; the chain
    laws in chunks of 500k cells of tuples."""
    T = np.asarray(theta, dtype=np.intp)
    n = T.shape[0]
    rng = np.arange(n)
    leq = T.T == rng[:, None]
    leqf = T == rng[:, None]
    friendly = leqf & leqf.T
    laws = {law: _OracleLaw(law) for law in
            ("P1", "P2", "P3", "P4", "P5",
             "A1", "A2a", "A2b", "A3", "A4a", "A4b", "A5")}
    laws["P1"].add(T[rng, rng] != rng)
    laws["P2"].add(T[rng[:, None], T] != T)
    laws["P3"].add(T[rng[:, None], T.T] != T)
    laws["A1"].add(~friendly[T.T, T])
    laws["A3"].add(leq & ~leqf)
    for p in range(n):
        Tp = T[p]
        B = T[rng[:, None], Tp[None, :]]             # [q, r] = r th_p th_q
        C = Tp[B]                                     # ... th_p
        laws["P4"].add(C != T[Tp], p)                 # r th_{q th_p}
        laws["P5"].add(T[rng[:, None], C] != B, p)
        laws["A2a"].add(leq[p][:, None] & leqf & ~leqf[p][None, :], p)
        laws["A2b"].add(leqf[p][:, None] & leq & ~leqf[p][None, :], p)
        laws["A4a"].add(leq[p] & (B != Tp).any(axis=1), p)
        laws["A4b"].add(leq[p] & (Tp[T] != Tp).any(axis=1), p)
        laws["A5"].add(leqf[p] & (C != Tp).any(axis=1), p)
    axioms = sum((laws[law].report() for law in
                  ("P1", "P2", "P3", "P4", "P5")), [])
    derived = sum((laws[law].report() for law in
                   ("A1", "A2a", "A2b", "A3", "A4a", "A4b", "A5")), [])
    chunk = max(1, 500_000 // (n * n))
    for lo in range(0, n, chunk):
        c1, c2 = _OracleLaw("C1[k=1]"), _OracleLaw("C2[k=1]")
        for p in range(lo, min(lo + chunk, n)):
            rhs_c1 = T[p][T[rng[:, None], T[p][None, :]]]  # r th_p th_q th_p
            c1.add(T[T[p]] != rhs_c1, p)                   # r th_{q th_p}
            c2.add(T[rng[None, :], rhs_c1] != T[rng[None, :], T[p][:, None]],
                   p)
        for law in (c1, c2):
            derived += law.report(lambda w: ((w[0],), w[1], w[2]))
    return axioms, derived


def test_by_p_oracle_matches_whole_array_oracles():
    for theta, _ in itertools.islice(_random_tables(), 0, None, 8):
        assert _oracle_by_p(theta) == (_oracle_axioms(theta),
                                       _oracle_derived(theta, 1))


@pytest.mark.parametrize("n, plants", [
    (256, ((254, 255, 255), (255, 254, 254), (255, 255, 254),
           (100, 254, 255))),
    (257, ((254, 256, 256), (256, 254, 255), (255, 255, 256),
           (256, 0, 255))),
])
def test_reports_at_the_narrow_table_boundary(n, plants):
    # the checks hold theta as uint8 up to n = 256 and as uint16 above;
    # failures are planted at the top indices and values of each
    theta = square_band_algebra(n).theta.astype(np.int64)
    for p, q, value in plants:
        theta[p, q] = value
    P = ProjectionAlgebra(theta)
    axioms, derived = _oracle_by_p(theta)
    assert ("P1", ((255,),), 1) in axioms
    assert _reports(validate_axioms(P)) == axioms
    got = _reports(check_derived_laws(P, max_chain=1))
    assert got == derived
    assert {law for law, _, _ in got} >= {"A4a", "A5", "C1[k=1]", "C2[k=1]"}


def _chain_sides(theta, k):
    """Both sides of C1 and of C2, [t, q, r], at every tuple t of length k
    in base n, composed one element at a time."""
    T = np.asarray(theta, dtype=np.intp)
    n = T.shape[0]
    L = R = np.arange(n)[None, :]
    for _ in range(k):
        L = T[:, L].transpose(1, 0, 2).reshape(-1, n)   # L_{t.p} = L_t th_p
        R = R[:, T].reshape(-1, n)                      # R_{t.p} = th_p R_t
    t = np.arange(len(L))[:, None, None]
    q, r = np.arange(n)[None, :, None], np.arange(n)[None, None, :]
    rhs_c1 = L[t, T[q, R[t, r]]]
    return T[L[t, q], r], rhs_c1, T[r, rhs_c1], T[r, L[t, q]]


def test_c2_is_recomputed_where_c1_fails():
    # at k = 1 C1 fails at six cells of this table: C2 holds at three of
    # them and fails at three, and at some it differs from P3 at
    # (r, q th_p), which gives C2 wherever C1 holds
    theta = [[0, 2, 2], [2, 1, 0], [2, 2, 2]]
    T = np.asarray(theta)
    lhs_c1, rhs_c1, lhs_c2, rhs_c2 = _chain_sides(theta, 1)
    c1, c2 = lhs_c1 != rhs_c1, lhs_c2 != rhs_c2
    assert (c1 & ~c2).sum() == 3 and (c1 & c2).sum() == 3
    r = np.arange(3)[None, None, :]
    s = np.broadcast_to(T[:, :, None], c1.shape)    # [p, q, r] = q th_p
    p3 = T[r, T[s, r]] != T[r, s]                   # P3 fails at (r, s)
    assert not (~c1 & (p3 != c2)).any()
    assert (c1 & (p3 != c2)).any()
    for max_chain in (1, 2, 3):
        got = _reports(check_derived_laws(ProjectionAlgebra(theta),
                                          max_chain=max_chain))
        assert got == _oracle_derived(theta, max_chain)


def test_random_sweep_has_both_kinds_of_c1_failure():
    # the oracle sweep meets cells where C1 fails and C2 holds, and cells
    # where both fail
    holds = fails = 0
    for theta, max_chain in _random_tables():
        for k in range(1, max_chain + 1):
            lhs_c1, rhs_c1, lhs_c2, rhs_c2 = _chain_sides(theta, k)
            c1, c2 = lhs_c1 != rhs_c1, lhs_c2 != rhs_c2
            holds += int((c1 & ~c2).sum())
            fails += int((c1 & c2).sum())
    assert holds > 0 and fails > 0, (holds, fails)
