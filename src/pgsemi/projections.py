"""Finite projection algebras.

A projection algebra here is a finite set P = {0, ..., n-1} carrying one
unary operation ``theta_p`` for each element p, subject to the laws

    P1:  p theta_p = p
    P2:  (q theta_p) theta_p = q theta_p
    P3:  (p theta_q) theta_p = q theta_p
    P4:  ((r theta_p) theta_q) theta_p = r theta_{q theta_p}
    P5:  (((r theta_p) theta_q) theta_p) theta_q = (r theta_p) theta_q

The table convention is ``theta[p][q] == q theta_p``: row p is the whole map
``theta_p``.  Two relations are derived from the operations:

* ``p <= q``  iff  ``p == p theta_q``   (a partial order),
* ``p <=F q`` iff  ``p == q theta_p``,

and ``F = <=F intersect >=F`` is the friendliness relation.  Everything
downstream (paths, complexes, chain semigroups) is built on these.
"""

from dataclasses import dataclass
from functools import reduce
import hashlib

import numpy as np

from .errors import InvalidAlgebra, MalformedTable, NotAMorphism

__all__ = [
    "ProjectionAlgebra",
    "Violation",
    "ProjectionRelations",
    "validate_axioms",
    "require_algebra",
    "relations",
    "theta_chain",
    "check_derived_laws",
    "is_morphism",
]

# Violations reported per law are capped so that a badly random table does not
# produce an O(n^3) report; the count field keeps the total honest.
MAX_WITNESSES = 20

# Cells per chunk of every batched check and product: about 4 MB per intp
# array however large the table.  Chain-law reports are made per chunk.
CHUNK_CELLS = 500_000


@dataclass(frozen=True)
class Violation:
    """One failed law instance: the law's name, up to MAX_WITNESSES witness
    tuples, and the total number of failing tuples."""

    law: str
    witnesses: tuple
    count: int

    def __str__(self):
        shown = ", ".join(repr(w) for w in self.witnesses[:3])
        more = "" if self.count <= 3 else f" (+{self.count - 3} more)"
        return f"{self.law}: {shown}{more}"


def _labels(labels, n):
    """``labels`` as a tuple of n strings; None stays None."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)) or len(labels) != n:
        raise MalformedTable(f"labels must be a list of {n} names")
    return tuple(map(str, labels))


class ProjectionAlgebra:
    """Immutable wrapper around a unary-operation table.

    ``theta`` is an (n, n) integer array with ``theta[p, q] == q theta_p``.
    Construction checks shape and range only; run :func:`validate_axioms`
    for the laws.
    """

    __slots__ = ("theta", "labels", "_digest", "_rows", "_verdict")

    def __init__(self, theta, labels=None):
        arr = np.asarray(theta)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MalformedTable(f"theta must be square, got shape {arr.shape}")
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise MalformedTable("theta entries must be integers")
        n = arr.shape[0]
        arr = arr.astype(np.int32, copy=True)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise MalformedTable("theta entries must lie in 0..n-1")
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)
        object.__setattr__(self, "labels", _labels(labels, n))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_verdict", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectionAlgebra is immutable")

    @property
    def size(self):
        return self.theta.shape[0]

    def label(self, p):
        if self.labels is not None:
            return self.labels[p]
        return str(p)

    @property
    def rows(self):
        """The table as nested tuples of Python ints, ``rows[p][q] == q
        theta_p``: scalar lookups on them are much cheaper than numpy
        scalar indexing, so per-vertex loops read theta through here."""
        if self._rows is None:
            rows = tuple(map(tuple, self.theta.tolist()))
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def digest(self):
        """Stable content hash of the table, used to guard against mixing
        elements of different algebras."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(str(self.size).encode())
            h.update(np.ascontiguousarray(self.theta).tobytes())
            object.__setattr__(self, "_digest", h.hexdigest()[:16])
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, ProjectionAlgebra):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.theta, other.theta)

    def __hash__(self):
        return hash((self.size, self.digest))

    def __repr__(self):
        return f"ProjectionAlgebra(size={self.size})"


def _chunks(total, width):
    """Consecutive (lo, hi) slices of range(total), each of at most
    CHUNK_CELLS cells when one index stands for ``width`` cells."""
    step = max(1, CHUNK_CELLS // max(width, 1))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


class _Tally:
    """One law's failures, from its boolean failure mask (True = violated)
    given whole or over consecutive chunks of its first axis: the first
    MAX_WITNESSES failing index tuples in row-major order, each passed
    through ``decode`` when given, and the total count.  Every table-law
    Violation is built here."""

    def __init__(self, law, decode=None):
        self.law = law
        self.decode = decode
        self.witnesses = []
        self.count = 0

    def add(self, mask, lo=0):
        hits = int(np.count_nonzero(mask))
        room = MAX_WITNESSES - len(self.witnesses)
        if hits and room > 0:
            idx = np.argwhere(mask)[:room]
            idx[:, 0] += lo
            ws = map(tuple, idx.tolist())
            self.witnesses.extend(map(self.decode, ws) if self.decode else ws)
        self.count += hits
        return self

    def report(self, out):
        if self.count:
            out.append(Violation(self.law, tuple(self.witnesses), self.count))


def _gather(M, rows, cols):
    """M[rows, cols] for broadcastable index arrays, as one take on the flat
    table (numpy's broadcast fancy indexing is slower).  ``rows`` is intp,
    so the flat index is intp even when ``cols`` is a narrow table."""
    return np.take(M.ravel(), rows * M.shape[1] + cols)


def _narrow(P):
    """The law checks' working copy of theta, in the narrowest unsigned
    type that holds 0..n-1: uint8 for n <= 256, uint16 above.  Gathers on
    it move a quarter or half of the bytes of the int32 ``P.theta``, which
    stays as it is; every index computed from it is intp, so none wraps."""
    return P.theta.astype(np.min_scalar_type(max(P.size - 1, 0)))


def validate_axioms(P):
    """Check P1-P5 on the full table, keeping the verdict for require_algebra.
    Returns a list of Violations, empty iff the table is a projection algebra.

    The laws read a narrow working copy of theta (see _narrow).  The
    three-variable laws run in chunks over p, so memory stays bounded, and
    build B = (r th_p) th_q as one row gather of the transposed table."""
    T = _narrow(P)
    TT = np.ascontiguousarray(T.T)
    n = P.size
    out = []
    rng = np.arange(n)

    # P1: p theta_p = p
    _Tally("P1").add(T.diagonal() != rng).report(out)
    # P2: theta_p is idempotent as a map; [p, q] -> (q th_p) th_p
    _Tally("P2").add(_gather(T, rng[:, None], T) != T).report(out)
    # P3: (p theta_q) theta_p = q theta_p; [p, q] -> (p th_q) th_p
    _Tally("P3").add(_gather(T, rng[:, None], TT) != T).report(out)

    p4, p5 = _Tally("P4"), _Tally("P5")
    for lo, hi in _chunks(n, n * n):
        # [p, r, q]: B = (r th_p) th_q, C = ((r th_p) th_q) th_p, applying
        # th_p by lookups in its single row
        B = np.take(TT, T[lo:hi], axis=0)
        C = np.empty_like(B)
        for i, p in enumerate(range(lo, hi)):
            C[i] = np.take(T[p], B[i])
        # P4: ((r th_p) th_q) th_p = r th_{q th_p}; [q, p, r] on the right
        rhs = np.take(T, T[lo:hi].T, axis=0)
        p4.add((C.transpose(2, 0, 1) != rhs).swapaxes(0, 1), lo)
        # P5: (((r th_p) th_q) th_p) th_q = (r th_p) th_q
        p5.add((_gather(T, rng, C) != B).transpose(0, 2, 1), lo)
    p4.report(out)
    p5.report(out)
    if P._verdict is None:
        object.__setattr__(P, "_verdict", tuple(out[:1]))
    return out


@dataclass(frozen=True)
class ProjectionRelations:
    """The two comparison relations and friendliness, as boolean matrices.

    ``leq[p, q]``  means p <= q   (p == p theta_q),
    ``leqf[p, q]`` means p <=F q  (p == q theta_p),
    ``friendly = leqf & leqf.T``.
    """

    leq: np.ndarray
    leqf: np.ndarray
    friendly: np.ndarray


def require_algebra(P):
    """Raise InvalidAlgebra naming the first failed law unless P passes
    P1-P5.  Every entry that needs a projection algebra calls this; the
    verdict is kept on the immutable table, so each is checked once."""
    if P._verdict is None:
        validate_axioms(P)
    if P._verdict:
        raise InvalidAlgebra(P._verdict[0])


def relations(P):
    """Compute <=, <=F and F for the algebra.

    Nothing is checked: on a projection algebra <= is a partial order (P1,
    P1 with P3, and A4) and <=F is reflexive (P1), and every entry that
    relies on that calls require_algebra first.
    """
    T = P.theta.astype(np.intp)
    rng = np.arange(P.size)
    # p <= q iff p theta_q = p;  T[q, p] = p theta_q
    leq = T.T == rng[:, None]
    # p <=F q iff q theta_p = p
    leqf = T == rng[:, None]
    return ProjectionRelations(leq=leq, leqf=leqf, friendly=leqf & leqf.T)


def theta_chain(P, q, ps):
    """q theta_{p1} theta_{p2} ... theta_{pk}, applied left to right."""
    T = P.theta
    return int(reduce(lambda x, p: T[p, x], ps, q))


def _chain_classes(T, max_chain):
    """Yield (k, step, L, R) for k = 1..max_chain.  The tuples
    t = (p1, ..., pk) fall into classes: class c has forward composite
    ``L[c, r] = r th_{p1} ... th_{pk}`` and reversed composite
    ``R[c, r] = r th_{pk} ... th_{p1}``, and no two classes share both
    maps.  Since L_{t.p} = L_t th_p and R_{t.p} = th_p R_t, the classes of
    length k are the distinct rows (L th_p, th_p R) over the classes c of
    length k-1 and every p, and ``step[c, p]`` is the class of t.p for
    every t in c.  Only these tables are kept, never a class per tuple
    (see _tuple_classes)."""
    n = T.shape[0]
    L = R = np.arange(n, dtype=T.dtype)[None, :]    # the empty tuple
    row = np.dtype((np.void, 2 * n * T.itemsize))
    for k in range(1, max_chain + 1):
        fwd = np.take(T, L, axis=1).transpose(1, 0, 2)  # [c, p, r] = r L th_p
        rev = np.take(R, T, axis=1)                     # [c, p, r] = r th_p R
        pairs = np.concatenate([fwd, rev], axis=2).reshape(-1, 2 * n)
        # distinct rows, each compared as one block of bytes: much faster
        # than np.unique(axis=0), which sorts field by field
        _, first, inv = np.unique(pairs.view(row).reshape(-1),
                                  return_index=True, return_inverse=True)
        pairs = pairs[first]
        L, R = pairs[:, :n], pairs[:, n:]
        yield k, inv.reshape(-1, n), L, R


def _tuple_classes(steps, lo, hi, n):
    """Classes of the tuples lo..hi-1 of length k = len(steps), encoded in
    base n with p1 most significant, read digit by digit through the step
    tables of lengths 1..k: memory linear in hi - lo, whatever n^k is."""
    t = np.arange(lo, hi)
    c = np.zeros(hi - lo, dtype=np.intp)
    for j, step in enumerate(steps):
        c = step[c, t // n ** (len(steps) - 1 - j) % n]
    return c


def _chain_mismatch(T, L, R, P3T):
    """C1 and C2 failure masks, [c, q, r], for composites L[c], R[c].

    C2 is read off C1.  Where C1 holds at (q, r), its right side
    r R th_q L equals r th_s with s = q L, so the sides of C2 become
    (r th_s) th_r and s th_r: the two sides of P3 at (r, s).  The C2 mask
    is therefore a row gather, at L, of the P3-mismatch table
    ``P3T[s, r]`` (P3 fails at (r, s)), and only at the cells where C1
    fails are both sides of C2 gathered as they stand.  This is an
    identity on every table, valid or not."""
    n = len(T)
    X = np.take(T, R, axis=1)                            # [q, c, r] = r R th_q
    rhs_c1 = _gather(L, np.arange(len(L))[:, None], X)   # r R th_q L
    c1 = np.take(T, L.T, axis=0) != rhs_c1               # vs r th_{q L}
    c2 = np.take(P3T, L.T, axis=0)
    bad = np.flatnonzero(c1)
    if bad.size:
        r, s = bad % n, np.take(L.T, bad // n)           # s = q L
        c2.reshape(-1)[bad] = (_gather(T, r, rhs_c1.reshape(-1)[bad])
                               != _gather(T, r, s))
    return c1.swapaxes(0, 1), c2.swapaxes(0, 1)


def check_derived_laws(P, max_chain=3):
    """Check consequences of P1-P5: the five pairwise laws below plus the
    two operation-composite laws at every chain length up to ``max_chain``.

    Pairwise laws:

        A1: p theta_q  F  q theta_p
        A2: p <= q <=F r  or  p <=F q <= r  implies  p <=F r
        A3: p <= q implies p <=F q
        A4: p <= q implies theta_p = theta_p theta_q = theta_q theta_p
        A5: p <=F q implies theta_p = theta_p theta_q theta_p

    Chain laws, for every tuple (p1, ..., pk) with k <= max_chain:

        C1: theta_{q th_{p1} ... th_{pk}}
              = theta_{pk} ... theta_{p1} theta_q theta_{p1} ... theta_{pk}
        C2: r th_{pk} ... th_{p1} th_q th_{p1} ... th_{pk} th_r
              = q th_{p1} ... th_{pk} th_r

    On a valid algebra all of these hold; they are checked independently of
    the axioms as a guard on the whole derivation chain.  Returns a list of
    Violations.  The laws read a narrow working copy of theta (see
    _narrow).

    Checking the chain laws once per class of tuples is exact: at a tuple t
    both sides of C1 and C2, for every (q, r), are functions of the forward
    composite L_t = th_{p1} ... th_{pk} and the reversed composite
    R_t = th_{pk} ... th_{p1} alone, so tuples with the same pair (L_t, R_t)
    fail at exactly the same cells (q, r).  Each class is checked once, C2
    mostly by a row gather of the P3-mismatch table computed here: where
    C1 holds at (q, r), C2 there is P3 at (r, q L_t) (see _chain_mismatch).
    A failing class is expanded back to its tuples, which are reported over
    consecutive chunks of tuples of at most CHUNK_CELLS cells, one Violation
    per law per chunk that fails, with witnesses (tuple, q, r) and counts of
    failing cells exactly as a check of every tuple would give them.  Only
    a table from (class at k-1, p) to class at k is kept per length, and a
    chunk's tuples are classed from their base-n digits when some class
    fails, so memory does not grow with the n^k tuples (motzkin:4 at
    max_chain 5, 35^5 tuples, peaks under 30 MB).  A2 runs in chunks over
    p.  A4a and A5 run in chunks over p on whole rows, composed through the
    transposed table, and count failures only where the premise holds; A4b
    runs on the pairs p <= q only, in chunks of pairs.
    """
    T = _narrow(P)
    TT = np.ascontiguousarray(T.T)
    n = P.size
    if n == 0:
        return []
    out = []
    rel = relations(P)
    leq, leqf, friendly = rel.leq, rel.leqf, rel.friendly

    # A1: p th_q F q th_p; TT[p, q] = p th_q
    _Tally("A1").add(~friendly[TT, T]).report(out)

    # A2 in both bracketings
    a2a, a2b = _Tally("A2a"), _Tally("A2b")
    for lo, hi in _chunks(n, n * n):
        a2a.add(leq[lo:hi, :, None] & leqf[None, :, :]
                & ~leqf[lo:hi, None, :], lo)
        a2b.add(leqf[lo:hi, :, None] & leq[None, :, :]
                & ~leqf[lo:hi, None, :], lo)
    a2a.report(out)
    a2b.report(out)

    # A3
    _Tally("A3").add(leq & ~leqf).report(out)

    # A4a: p <= q implies theta_p = theta_p theta_q; A5: p <=F q implies
    # theta_p = theta_p theta_q theta_p.  In chunks over p, on whole rows:
    # G[p, r, q] = r th_p th_q is one row gather of the transposed table,
    # and th_p is then applied by lookups in its single row
    a4a, a5 = np.zeros((2, n, n), dtype=bool)
    for lo, hi in _chunks(n, n * n):
        G = np.take(TT, T[lo:hi], axis=0)
        Tp = T[lo:hi, :, None]
        a4a[lo:hi] = (G != Tp).any(axis=1)
        for i, p in enumerate(range(lo, hi)):
            G[i] = np.take(T[p], G[i])
        a5[lo:hi] = (G != Tp).any(axis=1)
    # A4b: p <= q implies theta_p = theta_q theta_p, on the pairs p <= q
    # only, in chunks of pairs
    pairs, a4b = np.argwhere(leq), np.zeros_like(leq)
    for lo, hi in _chunks(len(pairs), n):
        p, q = pairs[lo:hi].T
        a4b[p, q] = (_gather(T, p[:, None], T[q]) != T[p]).any(axis=1)
    for law, premise, fails in (("A4a", leq, a4a), ("A4b", leq, a4b),
                                ("A5", leqf, a5)):
        _Tally(law).add(fails & premise).report(out)

    # chain laws, once per class of tuples with equal composites
    P3T = _gather(T, np.arange(n), T) != TT      # [s, r]: P3 fails at (r, s)
    steps = []
    for k, step, L, R in _chain_classes(T, max_chain):
        steps.append(step)
        counts = np.zeros((2, len(L)), dtype=np.int64)
        for lo, hi in _chunks(len(L), n * n):
            masks = _chain_mismatch(T, L[lo:hi], R[lo:hi], P3T)
            for i, mism in enumerate(masks):
                if mism.any():
                    counts[i, lo:hi] = np.count_nonzero(mism, axis=(1, 2))
        if not counts.any():
            continue
        for lo, hi in _chunks(n**k, n * n):
            c = _tuple_classes(steps, lo, hi, n)
            for i, law in enumerate(("C1", "C2")):
                per = counts[i, c]
                total = int(per.sum())
                if not total:
                    continue
                # every failing tuple has a witness, so the first
                # MAX_WITNESSES failing tuples hold all that are shown
                ts = np.flatnonzero(per)[:MAX_WITNESSES]
                mism = _chain_mismatch(T, L[c[ts]], R[c[ts]], P3T)[i]
                witnesses = tuple(
                    (tuple(int(d) for d in
                           np.unravel_index(lo + ts[j], (n,) * k)),
                     int(q), int(r))
                    for j, q, r in np.argwhere(mism)[:MAX_WITNESSES])
                out.append(Violation(f"{law}[k={k}]", witnesses, total))
    return out


def _as_map(phi):
    """phi as an intp array; NotAMorphism unless its entries are integers."""
    phi = np.asarray(phi)
    if phi.size and not np.issubdtype(phi.dtype, np.integer):
        raise NotAMorphism(f"phi entries must be integers, got {phi.dtype}")
    return phi.astype(np.intp)


def is_morphism(P, Q, phi):
    """True iff phi respects the operations: (p th_q) phi = (p phi) th_{q phi}
    for all p, q in P."""
    phi = _as_map(phi)
    if phi.shape != (P.size,):
        raise NotAMorphism(f"phi must map all {P.size} elements")
    if P.size and (phi.min() < 0 or phi.max() >= Q.size):
        raise NotAMorphism("phi image out of range")
    TP = P.theta.astype(np.intp)
    TQ = Q.theta.astype(np.intp)
    lhs = phi[TP]                                  # [q, p] -> (p th_q) phi
    rhs = TQ[phi[:, None], phi[None, :]]           # [q, p] -> (p phi) th_{q phi}
    return bool(np.array_equal(lhs, rhs))
