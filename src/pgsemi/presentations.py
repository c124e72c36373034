"""Semigroup presentations of the chain semigroup, and their checkers.

Three families over a projection algebra P: projection letters with the
braid-like relations (R1-R3), idempotent letters with products spelled
out (R1'-R2'), and idempotent letters with sandwich insertions
(R1''-R3'').  The Temperley-Lieb monoid presentation is emitted in the
same container.  Verification leans on the chain semigroup itself: every
relation can be evaluated there, finite sizes can be recomputed by class
closure, and projection words can be straightened into friendly paths.
"""

import random
from dataclasses import dataclass, field

from .boset import boset_of, sandwich_set
from .chains import Path
from .chainsemigroup import ChainSemigroupHandle
from .cosets import enumerate_monoid
from .errors import BudgetExceeded, UndecidedEquality

__all__ = [
    "SemigroupPresentation",
    "VerificationReport",
    "presentation_RP",
    "presentation_RE",
    "presentation_RE2",
    "tl_presentation",
    "word_to_friendly_path",
    "verify_presentation",
]


@dataclass(frozen=True)
class SemigroupPresentation:
    """Letters are tags ("proj", p), ("pair", (p, q)), ("id",), ("tl", i);
    relations are (lhs, rhs, tag) with both sides nonempty words of letter
    indices."""

    name: str
    letters: tuple
    names: tuple
    relations: tuple

    def __post_init__(self):
        k = len(self.letters)
        if len(self.names) != k:
            raise ValueError("one display name per letter")
        for lhs, rhs, _tag in self.relations:
            if not lhs or not rhs:
                raise ValueError("relation sides must be nonempty")
            for w in (lhs, rhs):
                for x in w:
                    if not 0 <= x < k:
                        raise ValueError(f"letter {x} not in the alphabet")

    @property
    def index(self):
        return {tag: i for i, tag in enumerate(self.letters)}

    def word_pairs(self):
        return [(lhs, rhs) for lhs, rhs, _ in self.relations]

    def spell(self, word):
        return " ".join(self.names[x] for x in word)

    def render(self):
        """One relation per line: ``tag: lhs = rhs``."""
        lines = []
        for lhs, rhs, tag in self.relations:
            lines.append(f"{tag}: {self.spell(lhs)} = {self.spell(rhs)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self):
        return {
            "name": self.name,
            "letters": [list(t) if len(t) != 2 or t[0] != "pair"
                        else [t[0], list(t[1])] for t in self.letters],
            "names": list(self.names),
            "relations": [
                {"tag": tag, "lhs": list(lhs), "rhs": list(rhs)}
                for lhs, rhs, tag in self.relations
            ],
        }

    def __repr__(self):
        return (f"SemigroupPresentation({self.name}: "
                f"{len(self.letters)} letters, "
                f"{len(self.relations)} relations)")


def _proj_names(P):
    return tuple(f"x[{P.label(p)}]" for p in range(P.size))


def presentation_RP(P):
    """Projection letters: x_p x_p = x_p, (x_p x_q)^2 = x_p x_q, and
    x_p x_q x_p = x_{q th_p}, over all ordered pairs."""
    T = P.theta
    n = P.size
    letters = tuple(("proj", p) for p in range(n))
    rels = []
    for p in range(n):
        rels.append(((p, p), (p,), "R1"))
    for p in range(n):
        for q in range(n):
            rels.append(((p, q, p, q), (p, q), "R2"))
    for p in range(n):
        for q in range(n):
            rels.append(((p, q, p), (int(T[p, q]),), "R3"))
    return SemigroupPresentation("RP", letters, _proj_names(P), tuple(rels))


def _pair_alphabet(P, handle):
    pairs = handle.friendly_pairs
    letters = tuple(("pair", e) for e in pairs)
    names = tuple(f"x[{P.label(p)},{P.label(q)}]" for (p, q) in pairs)
    index = {e: i for i, e in enumerate(pairs)}
    return pairs, letters, names, index


def presentation_RE(P, handle=None):
    """Idempotent letters: basic products spelled out (R1') and all
    products of projections spelled out (R2')."""
    if handle is None:
        handle = ChainSemigroupHandle(P)
    b = boset_of(P, handle=handle)
    _, letters, names, index = _pair_alphabet(P, handle)
    rels = []
    for (e, f), val in b.basic_items():
        rels.append(((index[e], index[f]), (index[val],), "R1'"))
    for p in range(P.size):
        for q in range(P.size):
            pq = handle.product(handle.projection_chain(p),
                                handle.projection_chain(q))
            rels.append(((index[(p, p)], index[(q, q)]),
                         (index[(pq.dom, pq.cod)],), "R2'"))
    return SemigroupPresentation("RE", letters, names, tuple(rels))


def presentation_RE2(P, handle=None):
    """Idempotent letters: basic products (R1''), sandwich insertions
    x_e x_f = x_e x_g x_f for g in S(e, f) (R2''), and products of
    friendly projection pairs only (R3'')."""
    if handle is None:
        handle = ChainSemigroupHandle(P)
    b = boset_of(P, handle=handle)
    pairs, letters, names, index = _pair_alphabet(P, handle)
    rels = []
    for (e, f), val in b.basic_items():
        rels.append(((index[e], index[f]), (index[val],), "R1''"))
    for e in pairs:
        for f in pairs:
            ie, jf = index[e], index[f]
            for g in sandwich_set(handle, e, f):
                rels.append(((ie, jf), (ie, index[g], jf), "R2''"))
    for p, q in pairs:
        pq = handle.product(handle.projection_chain(p),
                            handle.projection_chain(q))
        rels.append(((index[(p, p)], index[(q, q)]),
                     (index[(pq.dom, pq.cod)],), "R3''"))
    return SemigroupPresentation("RE''", letters, names, tuple(rels))


def tl_presentation(n):
    """Monoid-convention presentation of the planar matching monoid on n
    strands: identity letter e plus t_1 .. t_{n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    letters = [("id",)] + [("tl", i) for i in range(1, n)]
    names = ["e"] + [f"t{i}" for i in range(1, n)]
    t = {i: i for i in range(1, n)}       # letter index of t_i
    rels = []
    for i in range(1, n):
        rels.append(((t[i], t[i]), (t[i],), "T1"))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(((t[i], t[j]), (t[j], t[i]), "T2"))
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if 1 <= j < n:
                rels.append(((t[i], t[j], t[i]), (t[i],), "T3"))
    for i in range(1, n):
        rels.append(((0, t[i]), (t[i],), "T4"))
        rels.append(((t[i], 0), (t[i],), "T4"))
    rels.append(((0, 0), (0,), "T5"))
    return SemigroupPresentation(f"TL{n}", tuple(letters), tuple(names),
                                 tuple(rels))


def word_to_friendly_path(P, word):
    """Straighten a word of projections into an equivalent friendly path.

    Forward pass: fold each leading pair (a, p) to (p th_a, a th_p),
    carrying the right half.  Backward pass: rebuild the left halves
    against the settled suffix, lowering each letter to q th_a for the
    following vertex q.  Every output vertex sits below the input letter
    at its position, and the path evaluates to the same chain.
    """
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


@dataclass
class VerificationReport:
    mode: str
    ok: bool
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok and not self.inconclusive

    def summary(self):
        state = ("inconclusive" if self.inconclusive
                 else "ok" if self.ok else "FAILED")
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items())
                          if not isinstance(v, (list, dict)))
        return f"{self.mode}: {state}" + (f" ({extra})" if extra else "")


def _letter_chain(handle, tag):
    if tag[0] == "proj":
        return handle.projection_chain(tag[1])
    if tag[0] == "pair":
        return handle.idempotent_chain(*tag[1])
    return None


def _eval_word(handle, chains, word):
    acc = chains[word[0]]
    for x in word[1:]:
        acc = handle.product(acc, chains[x])
    return acc


def _default_word_budget(handle):
    # twice the longest representative path, plus slack
    longest = 1
    for c in handle.enumerate():
        longest = max(longest, len(handle.expand(c).verts))
    return 2 * longest + 2


def verify_presentation(P, pres, mode, handle=None, seed=0, samples=200,
                        budget=None):
    """Check a presentation against the chain semigroup.

    mode="soundness": every relation evaluates to an equality of chains
    under the canonical letter map.  mode="size": class closure of the
    presented semigroup must reach exactly |PG(P)| classes whose
    representatives evaluate bijectively onto the enumeration (count
    comparison only when the letters have no chain meaning).
    mode="normal-form": straightening is constant on orbits of words
    under the relations (bounded search; projection letters only).
    A blown budget or an undecided equality yields an inconclusive
    report, never a false positive.
    """
    if handle is None:
        handle = ChainSemigroupHandle(P)
    if mode == "soundness":
        return _verify_soundness(handle, pres)
    if mode == "size":
        return _verify_size(handle, pres, budget)
    if mode == "normal-form":
        return _verify_normal_form(handle, pres, seed, samples, budget)
    raise ValueError(f"unknown mode {mode!r}")


def _verify_soundness(handle, pres):
    chains = [_letter_chain(handle, tag) for tag in pres.letters]
    if any(c is None for c in chains):
        raise ValueError("presentation letters have no chain evaluation")
    failures = []
    try:
        for lhs, rhs, tag in pres.relations:
            if _eval_word(handle, chains, lhs) != _eval_word(handle, chains, rhs):
                failures.append({"tag": tag, "lhs": list(lhs),
                                 "rhs": list(rhs)})
    except UndecidedEquality as exc:
        return VerificationReport("soundness", False, inconclusive=True,
                                  details={"reason": str(exc)})
    return VerificationReport(
        "soundness", not failures,
        details={"relations": len(pres.relations), "failures": failures})


def _verify_size(handle, pres, budget):
    expected = handle.size()
    if not isinstance(expected, int):
        raise ValueError("size mode needs a finite chain semigroup")
    try:
        enum = enumerate_monoid(len(pres.letters), pres.word_pairs(),
                                budget=budget or 50_000)
    except BudgetExceeded as exc:
        return VerificationReport("size", False, inconclusive=True,
                                  details={"reason": str(exc)})
    got = enum.size - 1                  # drop the empty-word class
    details = {"classes": got, "expected": expected}
    if got != expected:
        return VerificationReport("size", False, details=details)
    chains = [_letter_chain(handle, tag) for tag in pres.letters]
    if all(c is not None for c in chains):
        try:
            images = [_eval_word(handle, chains, rep)
                      for rep in enum.reps[1:]]
        except UndecidedEquality as exc:
            return VerificationReport("size", False, inconclusive=True,
                                      details={"reason": str(exc)})
        listed = handle.enumerate(cap=max(expected, handle.algebra.size))
        details["bijection"] = "representatives"
        if sorted(set(images), key=lambda c: c.sort_key()) != listed:
            return VerificationReport("size", False, details=details)
    else:
        details["bijection"] = "count"
    return VerificationReport("size", True, details=details)


def _verify_normal_form(handle, pres, seed, samples, budget):
    if any(tag[0] != "proj" for tag in pres.letters):
        raise ValueError("normal-form mode works on projection letters")
    P = handle.algebra
    if budget is None:
        if isinstance(handle.size(), int):
            budget = _default_word_budget(handle)
        else:
            budget = 10
    moves = []
    for lhs, rhs in pres.word_pairs():
        moves.append((lhs, rhs))
        moves.append((rhs, lhs))
    by_first = {}                        # first letter of lhs -> move indices
    for i, (l, _r) in enumerate(moves):
        by_first.setdefault(l[0], []).append(i)
    rng = random.Random(seed)
    checked = 0
    try:
        for _ in range(samples):
            k = rng.randint(1, 6)
            w = tuple(rng.randrange(P.size) for _ in range(k))
            target = handle.normalize(word_to_friendly_path(P, w))
            seen = {w}
            frontier = [w]
            while frontier and len(seen) < 256:
                nxt = []
                for u in frontier:
                    # sorted (move, pos) keeps the order of a scan of every
                    # move at every position, which matters once seen is full
                    hits = sorted(
                        (i, pos) for pos, x in enumerate(u)
                        for i in by_first.get(x, ())
                        if u[pos:pos + len(moves[i][0])] == moves[i][0])
                    for i, pos in hits:
                        l, r = moves[i]
                        v = u[:pos] + r + u[pos + len(l):]
                        if len(v) <= budget and v not in seen \
                                and len(seen) < 256:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            for u in seen:
                checked += 1
                if handle.normalize(word_to_friendly_path(P, u)) != target:
                    return VerificationReport(
                        "normal-form", False,
                        details={"word": list(w), "variant": list(u)})
    except UndecidedEquality as exc:
        return VerificationReport("normal-form", False, inconclusive=True,
                                  details={"reason": str(exc)})
    return VerificationReport("normal-form", True,
                              details={"words": samples, "checked": checked})
