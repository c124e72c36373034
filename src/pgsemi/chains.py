"""Friendly paths and the linked-pair calculus.

A path is a walk (p_1, ..., p_k) in the friendliness graph of a projection
algebra; paths compose by concatenation at a shared endpoint and reverse by
flipping.  The rewriting rules

    (p, p)    -> (p)
    (p, q, p) -> (p)      for p F q

are confluent and terminating, so every path has a unique reduced form,
which ``_reduce`` finds in one stack pass.

A pair of projections (e, f) is p-linked when f = e th_p th_f and
e = f th_p th_e.  Each such pair sources two paths lambda = (e, e th_p, f)
and rho = (e, f th_p, f) from e to f; downstream these get identified, and
their classification (special / degenerate / type 1-3) drives which 2-cells
the complexes carry.

Each walk is checked for friendliness once, where it is formed: ``Path``
checks every step (and refuses a vertex that is not an integer), and a
caller that has checked every step itself, v -> v included, hands its
walk out through ``Path._trusted``, as the straightener
:func:`~pgsemi.presentations.word_to_friendly_path` does.  The chain
product restricts a chain's reduced walk piece by piece: each piece (a
spanning-tree path or one non-tree edge) restricted from one entry vertex
is checked as a ``Path`` once, when it is first needed, and on every
product only the junction step between two restrictions, which fails with
the same ``NotFriendly`` text as ``Path`` (see ``_not_friendly``).

Linked pairs are found and classified as arrays: ``_linked_pairs`` lists
every pair as int arrays in (p, e, f) order, and ``_classify_pairs`` runs
every check of :func:`classify_linked_pair` on all of them at once.  A
``LinkedPair`` is built only where one is handed out: by the public
enumeration, or for the first pair that fails a check.  The complexes K
and K' build their cells from the arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentClassification,
    InvalidArgument,
    NotBelow,
    NotFriendly,
    NotLinked,
)
from .projections import relations, theta_chain

__all__ = [
    "Path",
    "LinkedPair",
    "reduce_path",
    "restrict_left",
    "restrict_right",
    "enumerate_linked_pairs",
    "lambda_rho",
    "classify_linked_pair",
    "restrict_linked_pair",
]


def _is_id(x):
    """Whether x may name a projection: an int or numpy int, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class Path:
    """An immutable friendly walk.  Friendliness of consecutive vertices is
    checked eagerly at construction."""

    __slots__ = ("algebra", "verts")

    def __init__(self, algebra, verts):
        verts = tuple(verts)
        if not verts:
            raise ValueError("a path needs at least one vertex")
        n = algebra.size
        # before any row lookup: a Python sequence wraps negative indices,
        # and int() would truncate 1.5 to the vertex 1; a plain int skips
        # the call, since walks are long
        for v in verts:
            if type(v) is not int and not _is_id(v):
                raise InvalidArgument(f"vertex {v!r} is not an integer")
            if not 0 <= v < n:
                raise NotFriendly(f"vertex {v} out of range")
        verts = tuple(map(int, verts))
        T = algebra.rows
        for a, b in zip(verts, verts[1:]):
            # a F b iff b th_a = a and a th_b = b
            if T[a][b] != a or T[b][a] != b:
                raise _not_friendly(a, b)
        self.algebra = algebra
        self.verts = verts

    @classmethod
    def _trusted(cls, algebra, verts):
        """The Path on a tuple of ints whose steps the caller checked."""
        path = object.__new__(cls)
        path.algebra, path.verts = algebra, verts
        return path

    @property
    def dom(self):
        return self.verts[0]

    @property
    def cod(self):
        return self.verts[-1]

    def __len__(self):
        return len(self.verts)

    def reverse(self):
        return Path(self.algebra, self.verts[::-1])

    def compose(self, other):
        """Concatenate at a shared endpoint: (..., x) * (x, ...)."""
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("paths over different algebras")
        if self.cod != other.dom:
            raise ValueError(
                f"endpoints do not match: {self.cod} vs {other.dom}"
            )
        return Path(self.algebra, self.verts + other.verts[1:])

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.verts == other.verts and (
            self.algebra is other.algebra or self.algebra == other.algebra)

    def __hash__(self):
        return hash((self.verts, self.algebra.digest))

    def __repr__(self):
        return f"Path{self.verts}"


def _not_friendly(a, b):
    """The error for a step a -> b of a walk that is not friendly."""
    return NotFriendly(f"consecutive vertices {a}, {b} are not friendly")


def _reduce(verts):
    """The reduced vertex tuple of a walk: no p_i = p_{i+1} and no
    p_i = p_{i+2}.

    One stack pass, as :func:`~pgsemi.topology.free_reduce` reduces words:
    a vertex equal to the top is dropped, one equal to the vertex under the
    top pops the top.  The stack stays reduced and the rules are confluent,
    so it ends as the unique reduced form.
    """
    out = []
    for v in verts:
        if out and out[-1] == v:
            continue
        if len(out) > 1 and out[-2] == v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def reduce_path(path):
    """The unique reduced form of a path (see :func:`_reduce`)."""
    return Path(path.algebra, _reduce(path.verts))


def _below(rows, p, q, side):
    """Raise NotBelow unless q lies below p, the ``side`` endpoint."""
    if rows[p][q] != q:
        raise NotBelow(f"{q} is not below the {side} endpoint {p}")


def _restrict(rows, verts, q):
    """The vertex tuple (q_1, ..., q_k) with q_1 = q and
    q_i = q th_{p_2} ... th_{p_i}."""
    out = [q]
    cur = q
    for p in verts[1:]:
        cur = rows[p][cur]
        out.append(cur)
    return tuple(out)


def restrict_left(path, q):
    """Restrict to start at q <= dom: (q_1, ..., q_k) with
    q_i = q th_{p_2} ... th_{p_i}."""
    P = path.algebra
    _below(P.rows, path.dom, q, "left")
    return Path(P, _restrict(P.rows, path.verts, q))


def restrict_right(path, r):
    """Restrict to end at r <= cod: the mirror image of restrict_left
    (reverse, restrict, reverse)."""
    P = path.algebra
    _below(P.rows, path.cod, r, "right")
    return Path(P, _restrict(P.rows, path.verts[::-1], r)[::-1])


@dataclass(frozen=True)
class LinkedPair:
    """A p-linked pair (e, f): f = e th_p th_f and e = f th_p th_e.

    e1 and f1 are the middle vertices e th_p and f th_p of the two paths,
    computed once at construction; they are determined by the other fields,
    so equality and hashing ignore them."""

    algebra: object
    p: int
    e: int
    f: int
    e1: int = field(init=False, compare=False)
    f1: int = field(init=False, compare=False)

    def __post_init__(self):
        T = self.algebra.rows
        p, e, f = self.p, self.e, self.f
        if not all(_is_id(v) and 0 <= v < len(T) for v in (p, e, f)):
            raise InvalidArgument(f"{self!r} has a vertex out of range")
        e1, f1 = T[p][e], T[p][f]
        if T[f][e1] != f or T[e][f1] != e:
            raise NotLinked(f"({e}, {f}) is not {p}-linked")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "f1", f1)

    def swap(self):
        return LinkedPair(self.algebra, self.p, self.f, self.e)

    def __repr__(self):
        return f"LinkedPair(p={self.p}, e={self.e}, f={self.f})"


def lambda_rho(lp):
    """The two paths of the pair: (e, e th_p, f) and (e, f th_p, f)."""
    lam = Path(lp.algebra, (lp.e, lp.e1, lp.f))
    rho = Path(lp.algebra, (lp.e, lp.f1, lp.f))
    return lam, rho


def _linked_pairs(P, rel):
    """All p-linked pairs as int arrays (p, e, f, e1, f1), ordered by
    (p, e, f); e1 = e th_p and f1 = f th_p.

    For each p the candidates are e, f <=F p (a necessary condition); one
    gather over them gives ``A[i, j]``: f = e th_p th_f for e = cand[i],
    f = cand[j], and e = f th_p th_e is its transpose.
    """
    T = P.theta
    ps, es, fs = [], [], []
    for p in range(P.size):
        cand = np.flatnonzero(rel.leqf[:, p])
        A = T[cand[None, :], T[p, cand][:, None]] == cand[None, :]
        i, j = np.nonzero(A & A.T)
        ps.append(np.full(len(i), p))
        es.append(cand[i])
        fs.append(cand[j])
    return _with_midpoints(T, *(np.concatenate([np.empty(0, np.intp)] + x)
                                for x in (ps, es, fs)))


def _with_midpoints(T, p, e, f):
    """(p, e, f, e th_p, f th_p) for int arrays p, e, f."""
    return p, e, f, T[p, e], T[p, f]


def _reduce3(a, b, c):
    """The reduced forms (see :func:`_reduce`) of the walks (a, b, c), one
    row each, padded with -1: (a) when a = c, (a, c) when b repeats a or c,
    else (a, b, c)."""
    one = a == c
    two = ~one & ((a == b) | (b == c))
    pad = np.full(a.shape, -1)
    mid = np.where(one, pad, np.where(two, c, b))
    last = np.where(one | two, pad, c)
    return np.stack([a, mid, last], axis=1)


def _classify_pairs(P, p, e, f, e1, f1):
    """Arrays (special, degenerate, nondegenerate type or 0) for the linked
    pairs given as arrays, with every check of :func:`classify_linked_pair`
    run on every pair: friendliness of the four steps of lambda and rho,
    the degeneracy formula against the reduced walks, and the vertex set of
    each non-degenerate pair.  On a failure, the first failing pair is
    handed to :func:`classify_linked_pair`, which raises its error.
    """
    T = P.theta

    def friendly(a, b):
        return (T[a, b] == a) & (T[b, a] == b)

    e_below = e1 == e
    f_below = f1 == f
    special = e_below | f_below
    degenerate = (e1 == f1) | (e_below & f_below)
    # |{e, f, e1, f1}|: 4 less each value equal to an earlier one
    distinct = (4 - (f == e) - ((e1 == e) | (e1 == f))
                - ((f1 == e) | (f1 == f) | (f1 == e1)))
    ntype = np.select(
        [degenerate, distinct == 4, (distinct == 3) & e_below,
         (distinct == 3) & f_below], [0, 1, 2, 3], -1)
    same = (_reduce3(e, e1, f) == _reduce3(e, f1, f)).all(axis=1)
    ok = (friendly(e, e1) & friendly(e1, f) & friendly(e, f1)
          & friendly(f1, f) & (same == degenerate) & (ntype >= 0))
    if not ok.all():
        i = int(np.argmin(ok))
        lp = LinkedPair(P, int(p[i]), int(e[i]), int(f[i]))
        classify_linked_pair(lp)
        raise AssertionError(f"array classification rejects {lp!r}")
    return special, degenerate, ntype


def enumerate_linked_pairs(P, rel=None):
    """All p-linked pairs, ordered by (p, e, f)."""
    if rel is None:
        rel = relations(P)
    p, e, f, _, _ = _linked_pairs(P, rel)
    return [LinkedPair(P, *t) for t in zip(p.tolist(), e.tolist(), f.tolist())]


def classify_linked_pair(lp):
    """Classification dict: special, degenerate, nondegenerate_type.

    special iff e <= p or f <= p; degenerate iff e th_p = f th_p or both
    e, f <= p; non-degenerate pairs have type 1 ({e, f, e1, f1} of size 4),
    type 2 (size 3 with e = e1), or type 3 (size 3 with f = f1).

    The degeneracy verdict is cross-checked against lambda and rho reducing
    to the same path; disagreement raises InconsistentClassification.
    """
    e, f = lp.e, lp.f
    e1, f1 = lp.e1, lp.f1
    e_below = e1 == e
    f_below = f1 == f
    special = bool(e_below or f_below)
    degenerate = bool(e1 == f1 or (e_below and f_below))

    lam, rho = lambda_rho(lp)
    if (_reduce(lam.verts) == _reduce(rho.verts)) != degenerate:
        raise InconsistentClassification(
            f"degeneracy formula disagrees with path reduction on {lp!r}"
        )

    ntype = None
    if not degenerate:
        distinct = len({e, f, e1, f1})
        if distinct == 4:
            ntype = 1
        elif distinct == 3 and e == e1:
            ntype = 2
        elif distinct == 3 and f == f1:
            ntype = 3
        else:
            raise InconsistentClassification(
                f"non-degenerate pair with unexpected vertex set on {lp!r}"
            )
    return {
        "special": special,
        "degenerate": degenerate,
        "nondegenerate_type": ntype,
    }


def restrict_linked_pair(lp, e_low):
    """The p-linked pair below: (e_low, e_low th_p th_f) for e_low <= e."""
    T = lp.algebra.theta
    if T[lp.e, e_low] != e_low:
        raise NotBelow(f"{e_low} is not below e = {lp.e}")
    f_low = theta_chain(lp.algebra, e_low, (lp.p, lp.f))
    return LinkedPair(lp.algebra, lp.p, int(e_low), f_low)
