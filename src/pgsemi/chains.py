"""Friendly paths and the linked-pair calculus.

A path is a walk (p_1, ..., p_k) in the friendliness graph of a projection
algebra; paths compose by concatenation at a shared endpoint and reverse by
flipping.  The rewriting rules

    (p, p)    -> (p)
    (p, q, p) -> (p)      for p F q

are confluent and terminating, so every path has a unique reduced form.

A pair of projections (e, f) is p-linked when f = e th_p th_f and
e = f th_p th_e.  Each such pair sources two paths lambda = (e, e th_p, f)
and rho = (e, f th_p, f) from e to f; downstream these get identified, and
their classification (special / degenerate / type 1-3) drives which 2-cells
the complexes carry.
"""

from dataclasses import dataclass

from .errors import (
    InconsistentClassification,
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


class Path:
    """An immutable friendly walk.  Friendliness of consecutive vertices is
    checked eagerly at construction."""

    __slots__ = ("algebra", "verts")

    def __init__(self, algebra, verts):
        verts = tuple(map(int, verts))
        if not verts:
            raise ValueError("a path needs at least one vertex")
        n = algebra.size
        # before any row lookup: a Python sequence wraps negative indices
        for v in verts:
            if not 0 <= v < n:
                raise NotFriendly(f"vertex {v} out of range")
        T = algebra.rows
        for a, b in zip(verts, verts[1:]):
            # a F b iff b th_a = a and a th_b = b
            if T[a][b] != a or T[b][a] != b:
                raise NotFriendly(
                    f"consecutive vertices {a}, {b} are not friendly"
                )
        self.algebra = algebra
        self.verts = verts

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


def reduce_path(path):
    """The unique reduced form: no p_i = p_{i+1} and no p_i = p_{i+2}.

    Scans left to right applying the first available rule, restarting just
    behind the edit, until no redex remains.
    """
    v = list(path.verts)
    i = 0
    while i < len(v) - 1:
        if v[i] == v[i + 1]:
            del v[i + 1]
            i = max(i - 1, 0)
        elif i < len(v) - 2 and v[i] == v[i + 2]:
            del v[i + 1 : i + 3]
            i = max(i - 1, 0)
        else:
            i += 1
    return Path(path.algebra, v)


def restrict_left(path, q):
    """Restrict to start at q <= dom: (q_1, ..., q_k) with
    q_i = q th_{p_2} ... th_{p_i}."""
    T = path.algebra.rows
    p1 = path.verts[0]
    if T[p1][q] != q:
        raise NotBelow(f"{q} is not below the left endpoint {p1}")
    out = [q]
    cur = q
    for p in path.verts[1:]:
        cur = T[p][cur]
        out.append(cur)
    return Path(path.algebra, out)


def restrict_right(path, r):
    """Restrict to end at r <= cod, mirror image of restrict_left."""
    T = path.algebra.rows
    pk = path.verts[-1]
    if T[pk][r] != r:
        raise NotBelow(f"{r} is not below the right endpoint {pk}")
    out = [r]
    cur = r
    for p in path.verts[-2::-1]:
        cur = T[p][cur]
        out.append(cur)
    return Path(path.algebra, out[::-1])


@dataclass(frozen=True)
class LinkedPair:
    """A p-linked pair (e, f): f = e th_p th_f and e = f th_p th_e.

    e1 and f1 are the middle vertices e th_p and f th_p of the two paths."""

    algebra: object
    p: int
    e: int
    f: int

    def __post_init__(self):
        T = self.algebra.theta
        p, e, f = self.p, self.e, self.f
        if T[f, T[p, e]] != f or T[e, T[p, f]] != e:
            raise NotLinked(f"({e}, {f}) is not {p}-linked")

    @property
    def e1(self):
        return int(self.algebra.theta[self.p, self.e])

    @property
    def f1(self):
        return int(self.algebra.theta[self.p, self.f])

    def swap(self):
        return LinkedPair(self.algebra, self.p, self.f, self.e)

    def __repr__(self):
        return f"LinkedPair(p={self.p}, e={self.e}, f={self.f})"


def lambda_rho(lp):
    """The two paths of the pair: (e, e th_p, f) and (e, f th_p, f)."""
    lam = Path(lp.algebra, (lp.e, lp.e1, lp.f))
    rho = Path(lp.algebra, (lp.e, lp.f1, lp.f))
    return lam, rho


def enumerate_linked_pairs(P, rel=None):
    """All p-linked pairs, ordered by (p, e, f).

    Candidates are filtered by e, f <=F p first (a necessary condition),
    then the two defining equations are checked directly.
    """
    T = P.theta
    if rel is None:
        rel = relations(P, check=False)
    out = []
    for p in range(P.size):
        cand = [int(e) for e in range(P.size) if rel.leqf[e, p]]
        for e in cand:
            ep = T[p, e]
            for f in cand:
                if T[f, ep] == f and T[e, T[p, f]] == e:
                    out.append(LinkedPair(P, p, e, f))
    return out


def classify_linked_pair(lp):
    """Classification dict: special, degenerate, nondegenerate_type.

    special iff e <= p or f <= p; degenerate iff e th_p = f th_p or both
    e, f <= p; non-degenerate pairs have type 1 ({e, f, e1, f1} of size 4),
    type 2 (size 3 with e = e1), or type 3 (size 3 with f = f1).

    The degeneracy verdict is cross-checked against lambda and rho reducing
    to the same path; disagreement raises InconsistentClassification.
    """
    T = lp.algebra.theta
    p, e, f = lp.p, lp.e, lp.f
    e1, f1 = lp.e1, lp.f1
    e_below = T[p, e] == e
    f_below = T[p, f] == f
    special = bool(e_below or f_below)
    degenerate = bool(e1 == f1 or (e_below and f_below))

    lam, rho = lambda_rho(lp)
    if (reduce_path(lam) == reduce_path(rho)) != degenerate:
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
