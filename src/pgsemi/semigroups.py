"""Finite semigroups with involution, given by multiplication and star tables.

The main consumers are the diagram monoids and the adjacency semigroups of
graphs.  ``projection_algebra_of`` extracts the projection algebra carried by
the projections of a regular *-semigroup via ``q theta_p = p q p``.
``right_cayley_closure`` is the one closure engine, fed one breadth-first
level of products at a time: the diagram monoids, the finite chain
semigroups, ``subsemigroup_closure`` and the standardized coset tables are
built with it, and ``cayley_semigroup`` fills tables row by row from it.
"""

from operator import index

import numpy as np

from .chains import _is_id
from .errors import CapExceeded, InvalidArgument, InvalidSemigroup, MalformedTable
from .projections import (
    ProjectionAlgebra,
    _chunks,
    _labels,
    _Tally,
    require_algebra,
)

__all__ = [
    "CAP",
    "StarSemigroup",
    "AdjacencyGraph",
    "adjacency_semigroup",
    "validate_star_semigroup",
    "projection_algebra_of",
    "subsemigroup_closure",
    "right_cayley_closure",
    "cayley_semigroup",
]


class StarSemigroup:
    """A finite semigroup with involution: ``mult[a, b] = ab`` and
    ``star[a] = a*``.  Construction checks shapes and ranges only; the laws
    are checked by :func:`validate_star_semigroup`.  An int32 C-ordered
    ``mult`` that owns its data is kept and made read-only; anything else
    (a list, another dtype, a view) is copied, so S owns its table."""

    __slots__ = ("mult", "star", "labels")

    def __init__(self, mult, star, labels=None):
        mult = np.asarray(mult)
        star = np.asarray(star)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise MalformedTable(f"mult must be square, got shape {mult.shape}")
        n = mult.shape[0]
        if star.shape != (n,):
            raise MalformedTable("star must be a vector matching mult")
        for arr, name in ((mult, "mult"), (star, "star")):
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise MalformedTable(f"{name} entries must be integers")
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise MalformedTable(f"{name} entries must lie in 0..n-1")
        self.mult = np.require(mult, np.int32, ["C", "O"])
        self.star = star.astype(np.int32, copy=True)
        self.mult.setflags(write=False)
        self.star.setflags(write=False)
        self.labels = _labels(labels, n)

    @property
    def size(self):
        return self.mult.shape[0]

    def product(self, a, b):
        return int(self.mult[a, b])

    def product_of(self, seq):
        it = iter(seq)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("empty product") from None
        for x in it:
            acc = self.mult[acc, x]
        return int(acc)

    def star_of(self, a):
        return int(self.star[a])

    def label(self, a):
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def idempotents(self):
        n = self.size
        rng = np.arange(n)
        return [int(a) for a in np.flatnonzero(self.mult[rng, rng] == rng)]

    def projections(self):
        """Elements with a a = a and a* = a, ascending."""
        n = self.size
        rng = np.arange(n)
        mask = (self.mult[rng, rng] == rng) & (self.star == rng)
        return [int(a) for a in np.flatnonzero(mask)]

    def __eq__(self, other):
        if not isinstance(other, StarSemigroup):
            return NotImplemented
        return np.array_equal(self.mult, other.mult) and np.array_equal(
            self.star, other.star
        )

    def __hash__(self):
        return hash((self.size, self.mult.tobytes(), self.star.tobytes()))

    def __repr__(self):
        return f"StarSemigroup(size={self.size})"


def validate_star_semigroup(S):
    """Check the regular *-semigroup laws on the tables.

    Beyond associativity, the involution laws and regularity, this checks the
    facts the projection extraction depends on: projections are exactly the
    elements a a*; products of projections are idempotent; every idempotent e
    factors as (e e*)(e* e); p q p and a q a* are projections; and a product
    of two friendly projections determines the pair.  Returns a list of
    Violations, empty iff all hold.
    """
    out = []
    M = S.mult.astype(np.intp)
    st = S.star.astype(np.intp)
    n = S.size
    if n == 0:
        return []
    rng = np.arange(n)

    # chunked over a; the count is over every triple (a, b, c)
    assoc = _Tally("associativity")
    for lo, hi in _chunks(n, n * n):
        rows = M[lo:hi]
        assoc.add(M[rows] != rows[:, M], lo)   # (ab)c against a(bc)
    assoc.report(out)

    _Tally("star-involutive").add(st[st] != rng).report(out)
    rhs = M[st[:, None], st[None, :]].T    # [a, b] -> b* a*
    _Tally("star-antihomomorphism").add(st[M] != rhs).report(out)
    aa = M[rng, st]                        # a a*
    _Tally("regularity").add(M[aa, rng] != rng).report(out)

    idem = M[rng, rng] == rng
    proj = idem & (st == rng)
    image = np.zeros(n, dtype=bool)
    image[aa] = True
    _Tally("projections-vs-aa*").add(proj != image).report(out)

    P = np.flatnonzero(proj)
    plist = P.tolist()

    def pair(w):
        return plist[w[0]], plist[w[1]]

    PP = M[np.ix_(P, P)]                   # [i, j] -> p_i p_j
    _Tally("projection-products-idempotent", pair).add(
        M[PP, PP] != PP).report(out)
    pqp = M[PP, P[:, None]]                # [i, j] -> p_i p_j p_i
    _Tally("pqp-projection", pair).add(~proj[pqp]).report(out)
    aqas = M[M[:, P], st[:, None]]         # [a, j] -> a p_j a*
    _Tally("aqa*-projection", lambda w: (w[0], plist[w[1]])).add(
        ~proj[aqas]).report(out)

    # idempotent factorization e = (e e*)(e* e)
    _Tally("idempotent-factorization").add(
        idem & (M[aa, M[st, rng]] != rng)).report(out)

    # friendly pairs have distinct products: in row-major order, a friendly
    # pair fails when an earlier one has its product, the first such pair
    # being its partner in the witness
    fixed = pqp == P[:, None]
    friendly = np.flatnonzero(fixed & fixed.T)
    prods = PP.ravel()[friendly]
    _, first = np.unique(prods, return_index=True)
    owner = np.empty(n, dtype=np.intp)     # product -> its first pair
    owner[prods[first]] = friendly[first]
    repeat = np.zeros(PP.size, dtype=bool)
    repeat[friendly] = True
    repeat[friendly[first]] = False

    def partners(w):
        return pair(divmod(int(owner[PP[w]]), len(plist))), pair(w)

    _Tally("friendly-product-injective", partners).add(
        repeat.reshape(PP.shape)).report(out)
    return out


def projection_algebra_of(S):
    """Projection algebra on the projections of S, via q theta_p = p q p.

    Returns ``(P, embed)`` where ``embed[i]`` is the semigroup element id of
    the i-th projection (ascending element order).  Raises InvalidSemigroup
    if some p q p is not itself a projection, and InvalidAlgebra naming the
    first failed law if the resulting table fails P1-P5.
    """
    plist = S.projections()
    P = np.array(plist, dtype=np.intp)
    pos = np.full(S.size, -1, dtype=np.int32)   # element -> projection index
    pos[P] = np.arange(len(P))
    pqp = S.mult[S.mult[np.ix_(P, P)], P[:, None]]  # [i, j] -> p_i q_j p_i
    theta = pos[pqp]
    bad = np.argwhere(theta < 0)
    if len(bad):
        i, j = bad[0]
        raise InvalidSemigroup(
            f"p q p left the projections at p={plist[i]}, q={plist[j]}"
        )
    labels = None
    if S.labels is not None:
        labels = [S.label(p) for p in plist]
    alg = ProjectionAlgebra(theta, labels=labels)
    require_algebra(alg)
    return alg, plist


CAP = 100_000                           # default element cap of a closure


def right_cayley_closure(seeds, gens, multiply, cap=CAP):
    """Breadth-first closure of ``seeds`` under right multiplication by
    ``gens``, recording the right Cayley graph (Froidure & Pin, "Algorithms
    for computing finite semigroups", 1997).  ``multiply(xs)`` gives all
    len(xs) * len(gens) products x g of one level's elements xs in (x, g)
    order (else ValueError), the order of a one-product-at-a-time walk, so
    a lazy iterable of single products fails where that walk would.

    Returns ``(elements, right, origin)``: the elements in discovery order,
    ``right[i, g]`` the id of ``elements[i] * gens[g]``, and ``origin[i] =
    (w, g)`` with ``elements[i] = elements[w] * gens[g]``.  A seed has
    ``w = -1`` and ``g`` its index in ``gens``, or -1 when it is not a
    generator.  Raises InvalidArgument unless ``cap`` is an int >= the
    number of seeds, and CapExceeded once more than ``cap`` elements appear.
    """
    elements, gens = list(dict.fromkeys(seeds)), list(gens)
    if not _is_id(cap) or cap < len(elements):
        raise InvalidArgument(f"cap {cap!r} is not an int >= {len(elements)}")
    gen_id = {x: g for g, x in enumerate(gens)}
    origin = [(-1, gen_id.get(x, -1)) for x in elements]
    index = {x: i for i, x in enumerate(elements)}
    right, lo, k = [], 0, len(gens)
    get, record = index.get, right.append
    while lo < len(elements):
        hi = len(elements)
        # product j of the walk is elements[j // k] * gens[j % k]
        for j, y in zip(range(lo * k, hi * k), multiply(elements[lo:hi]),
                        strict=True):
            i = get(y)
            if i is None:
                i = index[y] = len(elements)
                if i >= cap:
                    raise CapExceeded(f"closure exceeded cap={cap}")
                elements.append(y)
                origin.append(divmod(j, k))
            record(i)
        lo = hi
    right = np.array(right, dtype=np.int32).reshape(len(elements), k)
    return elements, right, origin


def cayley_semigroup(closure, gens, star, key, label):
    """The StarSemigroup of a star-closed :func:`right_cayley_closure` under
    ``gens``, elements sorted by ``key``: ``(StarSemigroup, elements)``.

    The table is filled one row per element with one numpy gather: as (w g)
    x = w (g x), the row of ``w g`` is the row of ``w`` at the left action
    of g, read off the right Cayley graph as g x = (x* g*)*, so the star of
    a generator must be a generator.  A seed's row is its left action if it
    is a generator, else the identity map (the seed must be the identity).
    """
    elements, right, origin = closure
    k = len(elements)
    order = sorted(range(k), key=lambda i: key(elements[i]))
    pos = np.empty(k, dtype=np.int32)
    pos[order] = np.arange(k, dtype=np.int32)
    elements = [elements[i] for i in order]
    index = {x: i for i, x in enumerate(elements)}
    stars = np.array([index[star(x)] for x in elements], dtype=np.intp)
    gstar = [gens.index(star(x)) for x in gens]
    right = pos[right[order]]               # the Cayley graph in sorted ids
    left = stars[right[stars][:, gstar].T]  # left[g, x] = g x = (x* g*)*
    mult = np.empty((k, k), dtype=np.int32)  # mult[a, b] = a b, sorted ids
    for b, (w, g) in enumerate(origin):
        row = np.arange(k) if g < 0 else left[g]
        mult[pos[b]] = row if w < 0 else mult[pos[w]][row]
    S = StarSemigroup(mult, stars, labels=[label(x) for x in elements])
    return S, elements


def subsemigroup_closure(S, seed):
    """Ids of the subsemigroup generated by ``seed``, ascending: the right
    Cayley closure of ``seed`` under right multiplication by ``seed``.
    Refuses a seed that is not an element id (a bool is not one)."""
    M, seed = S.mult, list(seed)
    bad = [a for a in seed if not (_is_id(a) and 0 <= a < S.size)]
    if bad:
        raise InvalidArgument(f"no element {bad[0]!r} in 0..{S.size - 1}")
    seed = sorted(set(map(int, seed)))
    elements, _, _ = right_cayley_closure(
        seed, seed, lambda xs: M[np.ix_(xs, seed)].ravel().tolist(), S.size)
    return sorted(elements)


class AdjacencyGraph:
    """A finite reflexive symmetric graph on vertices 0..n-1.

    Edges are stored as an unordered set; loops at every vertex are implied
    and added on construction, and edge pairs are symmetrized.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges=()):
        if not _is_id(n) or n < 0:
            raise MalformedTable(f"vertex count {n!r} is not an integer >= 0")
        self.n = n = int(n)
        es = set()
        for e in edges:
            try:
                if bool in map(type, e):
                    raise TypeError("a bool is not a vertex")
                u, v = map(index, e)
            except (TypeError, ValueError):
                raise MalformedTable(
                    f"edge {e!r} is not a pair of integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedTable(f"edge {e!r} out of range")
            es.add((min(u, v), max(u, v)))
        for v in range(n):
            es.add((v, v))
        self.edges = frozenset(es)

    def adjacent(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def matrix(self):
        A = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            A[u, v] = A[v, u] = True
        return A

    def __repr__(self):
        return f"AdjacencyGraph(n={self.n}, edges={len(self.edges)})"


def adjacency_semigroup(G):
    """The adjacency semigroup of a reflexive symmetric graph.

    Elements: 0 is the zero; pair (p, q) has id 1 + p*n + q.  Products:
    (p, q)(r, s) = (p, s) if q r is an edge, else 0; star swaps coordinates.
    Returns the StarSemigroup; pair labels use the vertex numbers.
    """
    n = G.n
    A = G.matrix()
    m = 1 + n * n
    mult = np.zeros((m, m), dtype=np.int32)
    # (p,q)(r,s) = (p,s) when q r is an edge, else 0
    p, q = np.divmod(np.arange(n * n), n)
    ok = A[q[:, None], p[None, :]]
    prod = np.where(ok, 1 + p[:, None] * n + q[None, :], 0)
    mult[1:, 1:] = prod
    star = np.zeros(m, dtype=np.int32)
    star[1:] = 1 + q * n + p
    labels = ["0"] + [f"({p},{q})" for p in range(n) for q in range(n)]
    return StarSemigroup(mult, star, labels=labels)
