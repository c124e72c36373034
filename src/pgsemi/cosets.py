"""Todd-Coxeter style enumeration for finitely presented monoids and groups.

The core enumerator works on a monoid presentation: generators 0..k-1 and
relations (u, v) between words.  It builds the right Cayley graph of the
presented monoid by scanning every relation at every live class (HLT; Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 5).  The
scan traces the longer side of a relation, defining classes as needed, and
the shorter side up to its last letter; a missing last entry is deduced to
be the longer side's endpoint, and only a conflicting one queues a
coincidence.  The coincidence pass runs only when something is queued.  If
the monoid is finite and the budget suffices, the result is its complete
multiplication action with class 0 the identity (empty word).  The budget
bounds the classes created in total, identity included, not the live ones.

Groups go through the standard doubling: each generator g gets a formal
inverse G, with relations gG = Gg = empty; relators become relations
(word, empty).  The enumeration then computes the coset table of the whole
group over the trivial subgroup.

The table is standardized so results are deterministic: the closure engine
(``semigroups.right_cayley_closure``) renumbers the live classes in
breadth-first order, and each class's word is the one that first reached it.
"""

from .errors import BudgetExceeded
from .semigroups import right_cayley_closure

__all__ = [
    "BUDGET",
    "MonoidEnumeration",
    "enumerate_monoid",
    "enumerate_group",
    "group_to_monoid_relations",
    "to_doubled",
    "from_doubled",
]

BUDGET = 50_000          # default class budget of enumerations and Tietze


class MonoidEnumeration:
    """Completed enumeration: ``table[c][g]`` is the class of (rep of c) * g,
    ``reps[c]`` a shortest representative word (empty for the identity),
    ``size`` the number of classes."""

    __slots__ = ("ngens", "table", "reps")

    def __init__(self, ngens, table, reps):
        self.ngens = ngens
        self.table = table
        self.reps = reps

    @property
    def size(self):
        return len(self.table)

    def act(self, start, word):
        c = start
        for g in word:
            c = self.table[c][g]
        return c


def enumerate_monoid(ngens, relations, budget=BUDGET):
    """Enumerate the monoid <x_0..x_{k-1} | relations>.

    ``relations`` is a list of pairs of words (tuples over 0..ngens-1); a
    word may be empty (monoid convention: empty = identity).  Raises
    BudgetExceeded if more than ``budget`` classes get created in total;
    its message names the classes created and the live classes fully
    scanned.
    """
    for u, v in relations:
        for w in (u, v):
            for g in w:
                if not 0 <= g < ngens:
                    raise ValueError(f"letter {g} out of range")

    parent = [0]          # union-find over classes
    table = [[-1] * ngens]
    pending = []          # coincidence queue
    # each relation as (long, short[:-1], short[-1]); the last step of the
    # shorter side is deduced, so its letter is kept apart (-1: empty side)
    plans = []
    for u, v in relations:
        if len(u) < len(v):
            u, v = v, u
        plans.append((u, v[:-1], v[-1]) if v else (u, (), -1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_class():
        if len(parent) >= budget:
            # classes are created only while class scanned - 1 is scanned
            full = sum(parent[x] == x for x in range(scanned - 1))
            raise BudgetExceeded(
                f"coset budget {budget} exhausted (classes created "
                f"{len(parent)}, live classes fully scanned {full})")
        c = len(parent)
        parent.append(c)
        table.append([-1] * ngens)
        return c

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        pending.append((a, b))

    def process_coincidences():
        # fold each dead class's row into its survivor, chasing conflicts
        while pending:
            a, b = pending.pop()
            a = find(a)
            rowb = table[b]
            for g in range(ngens):
                tb = rowb[g]
                if tb == -1:
                    continue
                ta = table[a][g]
                if ta == -1:
                    table[a][g] = find(tb)
                else:
                    merge(ta, tb)

    def trace_define(cur, word):
        """Walk word from the live class cur, defining missing steps;
        returns the endpoint.  No merge happens on the way, so every class
        met is live unless a table entry is stale."""
        for g in word:
            row = table[cur]
            nxt = row[g]
            if nxt == -1:
                nxt = row[g] = new_class()
            elif parent[nxt] != nxt:
                nxt = row[g] = find(nxt)
            cur = nxt
        return cur

    scanned = 0
    while True:
        # pick the next live class in numeric order
        c = scanned
        while c < len(parent) and parent[c] != c:
            c += 1
        if c >= len(parent):
            break
        scanned = c + 1
        # ensure every generator entry is defined (right Cayley totality)
        row = table[c]
        for g in range(ngens):
            if row[g] == -1:
                row[g] = new_class()
        for long, head, last in plans:
            end = trace_define(c, long)
            if last == -1:
                if end != c:
                    merge(c, end)
            else:
                row = table[trace_define(c, head)]
                x = row[last]
                if x == -1:
                    row[last] = end      # deduction: (c * head) * last = end
                elif x != end:
                    merge(x, end)
            if pending:
                process_coincidences()
                if parent[c] != c:
                    break

    # standardize: the closure of the identity class numbers the live
    # classes in breadth-first order, and its origins spell their words
    _, right, origin = right_cayley_closure(
        [find(0)], range(ngens),
        lambda cs: (find(table[c][g]) for c in cs for g in range(ngens)),
        cap=len(parent))
    reps = []
    for w, g in origin:
        reps.append(reps[w] + (g,) if w >= 0 else ())
    return MonoidEnumeration(ngens, right.tolist(), reps)


def to_doubled(word):
    """A word of signed indices (+-(i+1)) on the doubled alphabet:
    generator i becomes letter 2i, its inverse 2i+1."""
    return tuple(2 * (abs(l) - 1) + (l < 0) for l in word)


def from_doubled(word):
    """The inverse of :func:`to_doubled`."""
    return tuple(-(x // 2 + 1) if x % 2 else x // 2 + 1 for x in word)


def group_to_monoid_relations(ngens, relators):
    """Monoid presentation of a group on the doubled alphabet of
    :func:`to_doubled`: the result adds inverse relations and turns each
    relator into (word, empty).
    """
    rels = []
    for i in range(ngens):
        rels.append(((2 * i, 2 * i + 1), ()))
        rels.append(((2 * i + 1, 2 * i), ()))
    for r in relators:
        rels.append((to_doubled(r), ()))
    return 2 * ngens, rels


def enumerate_group(ngens, relators, budget=BUDGET):
    """Coset enumeration of a group given by signed-index relators.

    Returns a MonoidEnumeration over the doubled alphabet; its size is the
    group order.  Raises BudgetExceeded when the enumeration does not fit.
    """
    n2, rels = group_to_monoid_relations(ngens, relators)
    return enumerate_monoid(n2, rels, budget=budget)
