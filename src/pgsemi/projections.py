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

    def apply(self, p, q):
        """q theta_p."""
        return int(self.theta[p, q])

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


def validate_axioms(P):
    """Check P1-P5 on the full table.  Returns a list of Violations, empty
    iff the table is a projection algebra."""
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

    # B[p, q, r] = (r th_p) th_q ; C[p, q, r] = ((r th_p) th_q) th_p
    B = T[:, T].transpose(1, 0, 2)
    C = T[rng[:, None, None], B]
    # P4: ((r th_p) th_q) th_p = r th_{q th_p}
    D = T[T]                              # [p, q, r] -> r th_{q th_p}
    v = _collect(C != D, "P4")
    if v:
        out.append(v)

    # P5: (((r th_p) th_q) th_p) th_q = (r th_p) th_q
    E = T[rng[None, :, None], C]
    v = _collect(E != B, "P5")
    if v:
        out.append(v)

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

    def below(self, p, q):
        return bool(self.leq[p, q])

    def f_below(self, p, q):
        return bool(self.leqf[p, q])

    def are_friends(self, p, q):
        return bool(self.friendly[p, q])

    def down_set(self, p):
        """All q <= p, ascending."""
        return [int(q) for q in np.flatnonzero(self.leq[:, p])]


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


def _tuple_maps(T, k):
    """Array A of shape (n**k, n) with A[t, r] = r th_{p1} ... th_{pk},
    where t encodes the tuple (p1, ..., pk) in base n, p1 most significant."""
    n = T.shape[0]
    A = T.copy()
    for _ in range(k - 1):
        # extend each tuple on the right by one more operation
        A = T[:, A]                   # [pk, t', r]
        A = A.transpose(1, 0, 2).reshape(-1, n)
    return A


def _reverse_index(n, k):
    """rev[t] = index of the reversed tuple of t (base-n digit reversal)."""
    idx = np.arange(n**k)
    rev = np.zeros_like(idx)
    rest = idx.copy()
    for _ in range(k):
        rev = rev * n + rest % n
        rest //= n
    return rev


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
    bad = leq[:, :, None] & leqf[None, :, :] & ~leqf[:, None, :]
    v = _collect(bad, "A2a")
    if v:
        out.append(v)
    bad = leqf[:, :, None] & leq[None, :, :] & ~leqf[:, None, :]
    v = _collect(bad, "A2b")
    if v:
        out.append(v)

    # A3
    v = _collect(leq & ~leqf, "A3")
    if v:
        out.append(v)

    # A4: rows compared as whole maps where p <= q
    B = T[:, T]                        # B[x, y, r] = r th_y th_x
    m1 = B.transpose(1, 0, 2)          # m1[p, q, r] = r th_p th_q
    bad = (m1 != T[:, None, :]).any(axis=2) & leq
    v = _collect(bad, "A4a")
    if v:
        out.append(v)
    bad = (B != T[:, None, :]).any(axis=2) & leq
    v = _collect(bad, "A4b")
    if v:
        out.append(v)

    # A5: theta_p = theta_p theta_q theta_p where p <=F q
    C = T[rng[:, None, None], m1]      # C[p, q, r] = r th_p th_q th_p
    bad = (C != T[:, None, :]).any(axis=2) & leqf
    v = _collect(bad, "A5")
    if v:
        out.append(v)

    # chain laws, chunked over operation tuples
    for k in range(1, max_chain + 1):
        A = _tuple_maps(T, k)
        rev = _reverse_index(n, k)
        total = n**k
        chunk = max(1, 500_000 // (n * n))
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            L = A[lo:hi]               # [t, r] forward composite
            R = A[rev[lo:hi]]          # [t, r] reversed composite
            m = hi - lo
            # rhs_c1[t, q, r] = q-side composite map applied to r
            X = T[:, R].transpose(1, 0, 2)           # [t, q, r] = r th.. pre
            rhs_c1 = L[np.arange(m)[:, None, None], X]
            lhs_c1 = T[L]                             # [t, q, r]
            mism = lhs_c1 != rhs_c1

            def dec(w, lo=lo, k=k):
                t, q, r = w
                t += lo
                digits = []
                for _ in range(k):
                    digits.append(t % n)
                    t //= n
                return (tuple(reversed(digits)), q, r)

            v = _collect(mism, f"C1[k={k}]", decode=dec)
            if v:
                out.append(v)

            lhs_c2 = T[rng[None, None, :], rhs_c1]    # apply th_r
            rhs_c2 = T[rng[None, None, :], L[:, :, None]]
            v = _collect(lhs_c2 != rhs_c2, f"C2[k={k}]", decode=dec)
            if v:
                out.append(v)
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
