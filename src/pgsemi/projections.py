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

from .errors import MalformedTable, NotAMorphism, NotPartialOrder

__all__ = [
    "ProjectionAlgebra",
    "Violation",
    "ProjectionRelations",
    "validate_axioms",
    "relations",
    "theta_chain",
    "check_derived_laws",
    "is_morphism",
]

# Violations reported per law are capped so that a badly random table does not
# produce an O(n^3) report; the count field keeps the total honest.
MAX_WITNESSES = 20

# Cells per chunk of every check with three free indices, so that memory
# stays bounded (about 4 MB per intp array) however large the table.
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


class ProjectionAlgebra:
    """Immutable wrapper around a unary-operation table.

    ``theta`` is an (n, n) integer array with ``theta[p, q] == q theta_p``.
    Construction checks shape and range only; run :func:`validate_axioms`
    for the laws.
    """

    __slots__ = ("theta", "labels", "_digest", "_rows")

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
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise MalformedTable("labels length must equal the carrier size")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_rows", None)

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


def _collect(mask, law, decode=None):
    """Build a Violation from a boolean failure mask (True = violated)."""
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    count = idx.shape[0]
    witnesses = [tuple(int(x) for x in row) for row in idx[:MAX_WITNESSES]]
    if decode is not None:
        witnesses = [decode(w) for w in witnesses]
    return Violation(law, tuple(witnesses), count)


def _chunks(total, width):
    """Consecutive (lo, hi) slices of range(total), each of at most
    CHUNK_CELLS cells when one index stands for ``width`` cells."""
    step = max(1, CHUNK_CELLS // width)
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


class _Tally:
    """One law's failures gathered over consecutive chunks of the first
    axis of its mask: the same Violation as ``_collect`` on the whole mask,
    without ever holding the whole mask."""

    def __init__(self, law):
        self.law = law
        self.witnesses = []
        self.count = 0

    def add(self, mask, lo):
        hits = int(np.count_nonzero(mask))
        room = MAX_WITNESSES - len(self.witnesses)
        if hits and room > 0:
            idx = np.argwhere(mask)[:room]
            idx[:, 0] += lo
            self.witnesses.extend(tuple(int(x) for x in row) for row in idx)
        self.count += hits

    def report(self, out):
        if self.count:
            out.append(Violation(self.law, tuple(self.witnesses), self.count))


def validate_axioms(P):
    """Check P1-P5 on the full table.  Returns a list of Violations, empty
    iff the table is a projection algebra.  The three-variable laws run in
    chunks over p, so memory stays bounded on large tables."""
    T = P.theta.astype(np.intp)
    n = P.size
    if n == 0:
        return []
    out = []
    rng = np.arange(n)

    # P1: p theta_p = p
    v = _collect(T[rng, rng] != rng, "P1")
    if v:
        out.append(v)

    # P2: theta_p is idempotent as a map
    comp_pp = T[rng[:, None], T]          # [p, q] -> (q th_p) th_p
    v = _collect(comp_pp != T, "P2")
    if v:
        out.append(v)

    # P3: (p theta_q) theta_p = q theta_p
    lhs = T[rng[:, None], T.T]            # [p, q] -> (p th_q) th_p
    v = _collect(lhs != T, "P3")
    if v:
        out.append(v)

    p4, p5 = _Tally("P4"), _Tally("P5")
    for lo, hi in _chunks(n, n * n):
        # B[p, q, r] = (r th_p) th_q ; C[p, q, r] = ((r th_p) th_q) th_p
        B = T[rng[None, :, None], T[lo:hi, None, :]]
        C = T[rng[lo:hi, None, None], B]
        # P4: ((r th_p) th_q) th_p = r th_{q th_p}
        p4.add(C != T[T[lo:hi]], lo)
        # P5: (((r th_p) th_q) th_p) th_q = (r th_p) th_q
        p5.add(T[rng[None, :, None], C] != B, lo)
    p4.report(out)
    p5.report(out)
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


def relations(P, check=True):
    """Compute <=, <=F and F for the algebra.

    With ``check=True`` (default) verifies that <= is a partial order and
    that both relations are reflexive, raising NotPartialOrder otherwise.
    """
    T = P.theta.astype(np.intp)
    n = P.size
    rng = np.arange(n)
    # p <= q iff p theta_q = p;  T[q, p] = p theta_q
    leq = T.T == rng[:, None]
    # p <=F q iff q theta_p = p
    leqf = T == rng[:, None]
    friendly = leqf & leqf.T
    if check and n:
        if not leq[rng, rng].all() or not leqf[rng, rng].all():
            raise NotPartialOrder("comparison relations are not reflexive")
        antisym = leq & leq.T
        if antisym.sum() != n:
            raise NotPartialOrder("<= is not antisymmetric")
        closure = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if (closure & ~leq).any():
            raise NotPartialOrder("<= is not transitive")
    return ProjectionRelations(leq=leq, leqf=leqf, friendly=friendly)


def theta_chain(P, q, ps):
    """q theta_{p1} theta_{p2} ... theta_{pk}, applied left to right."""
    T = P.theta
    return int(reduce(lambda x, p: T[p, x], ps, q))


def _chain_classes(T, max_chain):
    """Yield (k, cls, L, R) for k = 1..max_chain.  Tuple t = (p1, ..., pk),
    encoded in base n with p1 most significant, lies in class ``cls[t]``;
    class c has forward composite ``L[c, r] = r th_{p1} ... th_{pk}`` and
    reversed composite ``R[c, r] = r th_{pk} ... th_{p1}``, and no two
    classes share both maps.  Since L_{t.p} = L_t th_p and
    R_{t.p} = th_p R_t, the classes of length k+1 are the distinct rows
    (L th_p, th_p R) over the classes of length k and every p."""
    n = T.shape[0]
    cls = np.zeros(1, dtype=np.intp)              # the empty tuple
    L = R = np.arange(n, dtype=T.dtype)[None, :]
    rng = np.arange(n)
    row = np.dtype((np.void, 2 * n * T.itemsize))
    for k in range(1, max_chain + 1):
        fwd = T[rng[None, :, None], L[:, None, :]]  # [c, p, r] = r L th_p
        rev = R[:, T]                               # [c, p, r] = r th_p R
        pairs = np.concatenate([fwd, rev], axis=2).reshape(-1, 2 * n)
        # distinct rows, each compared as one block of bytes: much faster
        # than np.unique(axis=0), which sorts field by field
        _, first, inv = np.unique(pairs.view(row).reshape(-1),
                                  return_index=True, return_inverse=True)
        pairs = pairs[first]
        cls = inv.reshape(-1, n)[cls].reshape(-1)
        L, R = pairs[:, :n], pairs[:, n:]
        yield k, cls, L, R


def _chain_mismatch(T, L, R):
    """C1 and C2 failure masks, [c, q, r], for composites L[c], R[c]."""
    n = T.shape[0]
    rng = np.arange(n)
    X = T[rng[None, :, None], R[:, None, :]]        # [c, q, r] = r R th_q
    rhs_c1 = L[np.arange(len(L))[:, None, None], X]  # r R th_q L
    lhs_c1 = T[L]                                    # r th_{q L}
    lhs_c2 = T[rng[None, None, :], rhs_c1]           # apply th_r
    rhs_c2 = T[rng[None, None, :], L[:, :, None]]    # q L th_r
    return lhs_c1 != rhs_c1, lhs_c2 != rhs_c2


def check_derived_laws(P, max_chain=3, rel=None):
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
    Violations.

    Checking the chain laws once per class of tuples is exact: at a tuple t
    both sides of C1 and C2, for every (q, r), are functions of the forward
    composite L_t = th_{p1} ... th_{pk} and the reversed composite
    R_t = th_{pk} ... th_{p1} alone, so tuples with the same pair (L_t, R_t)
    fail at exactly the same cells (q, r).  Each class is checked once; a
    failing class is expanded back to its tuples, which are reported over
    consecutive chunks of tuples of at most CHUNK_CELLS cells, one Violation
    per law per chunk that fails, with witnesses (tuple, q, r) and counts of
    failing cells exactly as a check of every tuple would give them.  The
    pairwise laws with three variables run in chunks over p.
    """
    T = P.theta.astype(np.intp)
    n = P.size
    if n == 0:
        return []
    out = []
    rng = np.arange(n)
    if rel is None:
        rel = relations(P, check=False)
    leq, leqf, friendly = rel.leq, rel.leqf, rel.friendly

    # A1: p th_q F q th_p
    a = T.T  # [p, q] -> p th_q
    v = _collect(~friendly[a, T], "A1")
    if v:
        out.append(v)

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
    v = _collect(leq & ~leqf, "A3")
    if v:
        out.append(v)

    # A4: rows compared as whole maps where p <= q;
    # A5: theta_p = theta_p theta_q theta_p where p <=F q
    a4a, a4b, a5 = _Tally("A4a"), _Tally("A4b"), _Tally("A5")
    for lo, hi in _chunks(n, n * n):
        Tp = T[lo:hi, None, :]                       # [p, ., r] = r th_p
        m1 = T[rng[None, :, None], Tp]               # [p, q, r] = r th_p th_q
        a4a.add((m1 != Tp).any(axis=2) & leq[lo:hi], lo)
        m2 = T[rng[lo:hi, None, None], T[None]]      # [p, q, r] = r th_q th_p
        a4b.add((m2 != Tp).any(axis=2) & leq[lo:hi], lo)
        C = T[rng[lo:hi, None, None], m1]            # r th_p th_q th_p
        a5.add((C != Tp).any(axis=2) & leqf[lo:hi], lo)
    a4a.report(out)
    a4b.report(out)
    a5.report(out)

    # chain laws, once per class of tuples with equal composites
    for k, cls, L, R in _chain_classes(P.theta, max_chain):
        counts = np.zeros((2, len(L)), dtype=np.int64)
        for lo, hi in _chunks(len(L), n * n):
            for i, mism in enumerate(_chain_mismatch(T, L[lo:hi], R[lo:hi])):
                counts[i, lo:hi] = np.count_nonzero(mism, axis=(1, 2))
        if not counts.any():
            continue
        for lo, hi in _chunks(n**k, n * n):
            c = cls[lo:hi]
            for i, law in enumerate(("C1", "C2")):
                per = counts[i, c]
                total = int(per.sum())
                if not total:
                    continue
                # every failing tuple has a witness, so the first
                # MAX_WITNESSES failing tuples hold all that are shown
                ts = np.flatnonzero(per)[:MAX_WITNESSES]
                mism = _chain_mismatch(T, L[c[ts]], R[c[ts]])[i]
                witnesses = tuple(
                    (tuple(int(d) for d in
                           np.unravel_index(lo + ts[j], (n,) * k)),
                     int(q), int(r))
                    for j, q, r in np.argwhere(mism)[:MAX_WITNESSES])
                out.append(Violation(f"{law}[k={k}]", witnesses, total))
    return out


def is_morphism(P, Q, phi):
    """True iff phi respects the operations: (p th_q) phi = (p phi) th_{q phi}
    for all p, q in P."""
    phi = np.asarray(phi, dtype=np.intp)
    if phi.shape != (P.size,):
        raise NotAMorphism(f"phi must map all {P.size} elements")
    if P.size and (phi.min() < 0 or phi.max() >= Q.size):
        raise NotAMorphism("phi image out of range")
    TP = P.theta.astype(np.intp)
    TQ = Q.theta.astype(np.intp)
    lhs = phi[TP]                                  # [q, p] -> (p th_q) phi
    rhs = TQ[phi[:, None], phi[None, :]]           # [q, p] -> (p phi) th_{q phi}
    return bool(np.array_equal(lhs, rhs))
