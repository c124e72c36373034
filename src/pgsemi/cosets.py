"""Todd-Coxeter style enumeration for finitely presented monoids and groups.

The core enumerator works on a monoid presentation: generators 0..k-1 and
relations (u, v) between words.  It builds the right Cayley graph of the
presented monoid by scanning every relation at every live class, defining
classes as needed and merging on coincidences.  If the monoid is finite and
the budget suffices, the result is its complete multiplication action with
class 0 the identity (empty word).

Groups go through the standard doubling: each generator g gets a formal
inverse G, with relations gG = Gg = empty; relators become relations
(word, empty).  The enumeration then computes the coset table of the whole
group over the trivial subgroup.

The table is standardized (classes renumbered in breadth-first order) so
results are deterministic, and each class gets a canonical representative
word from the BFS.
"""

from .errors import BudgetExceeded

__all__ = [
    "MonoidEnumeration",
    "enumerate_monoid",
    "enumerate_group",
    "group_to_monoid_relations",
    "to_doubled",
    "from_doubled",
]


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


def enumerate_monoid(ngens, relations, budget=50_000):
    """Enumerate the monoid <x_0..x_{k-1} | relations>.

    ``relations`` is a list of pairs of words (tuples over 0..ngens-1); a
    word may be empty (monoid convention: empty = identity).  Raises
    BudgetExceeded if more than ``budget`` classes get created in total.
    """
    for u, v in relations:
        for w in (u, v):
            for g in w:
                if not 0 <= g < ngens:
                    raise ValueError(f"letter {g} out of range")

    parent = [0]          # union-find over classes
    table = [[-1] * ngens]
    pending = []          # coincidence queue

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_class():
        if len(parent) >= budget:
            raise BudgetExceeded(f"coset budget {budget} exhausted")
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

    def trace_define(c, word):
        """Walk word from c, defining missing steps; returns endpoint."""
        cur = find(c)
        for g in word:
            cur = find(cur)
            nxt = table[cur][g]
            if nxt == -1:
                nxt = new_class()
                table[cur][g] = nxt
            cur = find(nxt)
        return cur

    scanned = 0
    while True:
        # pick the next live class in numeric order
        c = scanned
        while c < len(parent) and find(c) != c:
            c += 1
        if c >= len(parent):
            break
        scanned = c + 1
        # ensure every generator entry is defined (right Cayley totality)
        for g in range(ngens):
            if table[c][g] == -1:
                table[c][g] = new_class()
        for u, v in relations:
            cu = trace_define(c, u)
            cv = trace_define(c, v)
            merge(cu, cv)
            process_coincidences()
            if find(c) != c:
                break

    # compress and standardize by BFS from the identity class
    order = []
    number = {}
    root = find(0)
    number[root] = 0
    order.append(root)
    reps = {root: ()}
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for g in range(ngens):
            d = find(table[c][g])
            if d not in number:
                number[d] = len(order)
                order.append(d)
                reps[d] = reps[c] + (g,)
    out_table = [
        [number[find(table[c][g])] for g in range(ngens)] for c in order
    ]
    out_reps = [reps[c] for c in order]
    return MonoidEnumeration(ngens, out_table, out_reps)


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


def enumerate_group(ngens, relators, budget=50_000):
    """Coset enumeration of a group given by signed-index relators.

    Returns a MonoidEnumeration over the doubled alphabet; its size is the
    group order.  Raises BudgetExceeded when the enumeration does not fit.
    """
    n2, rels = group_to_monoid_relations(ngens, relators)
    return enumerate_monoid(n2, rels, budget=budget)
