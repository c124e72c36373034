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
    table (numpy's broadcast fancy indexing is slower); ``rows`` is intp."""
    return np.take(M.ravel(), rows * M.shape[1] + cols)


def validate_axioms(P):
    """Check P1-P5 on the full table, keeping the verdict for require_algebra.
    Returns a list of Violations, empty iff the table is a projection algebra.
    The three-variable laws run in chunks over p, so memory stays bounded."""
    T = P.theta
    n = P.size
    out = []
    rng = np.arange(n)

    # P1: p theta_p = p
    _Tally("P1").add(T.diagonal() != rng).report(out)
    # P2: theta_p is idempotent as a map; [p, q] -> (q th_p) th_p
    _Tally("P2").add(_gather(T, rng[:, None], T) != T).report(out)
    # P3: (p theta_q) theta_p = q theta_p; [p, q] -> (p th_q) th_p
    _Tally("P3").add(_gather(T, rng[:, None], T.T) != T).report(out)

    p4, p5 = _Tally("P4"), _Tally("P5")
    for lo, hi in _chunks(n, n * n):
        # [q, p, r]: B = (r th_p) th_q, C = ((r th_p) th_q) th_p
        B = np.take(T, T[lo:hi], axis=1)
        C = _gather(T, rng[lo:hi, None], B)
        # P4: ((r th_p) th_q) th_p = r th_{q th_p}
        p4.add((C != np.take(T, T[lo:hi].T, axis=0)).swapaxes(0, 1), lo)
        # P5: (((r th_p) th_q) th_p) th_q = (r th_p) th_q
        p5.add((_gather(T, rng[:, None, None], C) != B).swapaxes(0, 1), lo)
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
        cls = inv.reshape(-1, n)[cls].reshape(-1)
        L, R = pairs[:, :n], pairs[:, n:]
        yield k, cls, L, R


def _chain_mismatch(T, L, R):
    """C1 and C2 failure masks, [c, q, r], for composites L[c], R[c]."""
    X = np.take(T, R, axis=1)                            # [q, c, r] = r R th_q
    rhs_c1 = _gather(L, np.arange(len(L))[:, None], X)   # r R th_q L
    lhs_c1 = np.take(T, L.T, axis=0)                     # r th_{q L}
    lhs_c2 = _gather(T, np.arange(len(T)), rhs_c1)       # apply th_r
    rhs_c2 = np.take(T.T, L.T, axis=0)                   # q L th_r
    return (lhs_c1 != rhs_c1).swapaxes(0, 1), (lhs_c2 != rhs_c2).swapaxes(0, 1)


def _premise_failures(T, premise, steps):
    """[p, q] fails iff premise and th_p != th_{steps[0]} th_{steps[1]} ..."""
    pairs, mask = np.argwhere(premise), np.zeros_like(premise)
    for lo, hi in _chunks(len(pairs), len(T)):
        pq = pairs[lo:hi].T                       # pq[0] = p, pq[1] = q
        M = T[pq[steps[0]]]                       # [i, r]: r through pair i
        for s in steps[1:]:
            M = _gather(T, pq[s][:, None], M)
        mask[pq[0], pq[1]] = (M != T[pq[0]]).any(axis=1)
    return mask


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
    Violations.

    Checking the chain laws once per class of tuples is exact: at a tuple t
    both sides of C1 and C2, for every (q, r), are functions of the forward
    composite L_t = th_{p1} ... th_{pk} and the reversed composite
    R_t = th_{pk} ... th_{p1} alone, so tuples with the same pair (L_t, R_t)
    fail at exactly the same cells (q, r).  Each class is checked once; a
    failing class is expanded back to its tuples, which are reported over
    consecutive chunks of tuples of at most CHUNK_CELLS cells, one Violation
    per law per chunk that fails, with witnesses (tuple, q, r) and counts of
    failing cells exactly as a check of every tuple would give them.  A2
    runs in chunks over p.  A4 and A5 compare maps only on the pairs where
    their premise holds, in chunks of pairs, and report as a check of all.
    """
    T = P.theta
    n = P.size
    if n == 0:
        return []
    out = []
    rel = relations(P)
    leq, leqf, friendly = rel.leq, rel.leqf, rel.friendly

    # A1: p th_q F q th_p; T.T[p, q] = p th_q
    _Tally("A1").add(~friendly[T.T, T]).report(out)

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

    # A4: p <= q implies theta_p = theta_p theta_q = theta_q theta_p;
    # A5: p <=F q implies theta_p = theta_p theta_q theta_p
    for law, premise, steps in (("A4a", leq, (0, 1)), ("A4b", leq, (1, 0)),
                                ("A5", leqf, (0, 1, 0))):
        _Tally(law).add(_premise_failures(T, premise, steps)).report(out)

    # chain laws, once per class of tuples with equal composites
    for k, cls, L, R in _chain_classes(T, max_chain):
        counts = np.zeros((2, len(L)), dtype=np.int64)
        for lo, hi in _chunks(len(L), n * n):
            for i, mism in enumerate(_chain_mismatch(T, L[lo:hi], R[lo:hi])):
                if mism.any():
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
