"""The biordered set of idempotent chains.

Elements are the ordered friendly pairs (p, q), standing for [[p, q]];
diagonal pairs play the projections.  Arrows compare endpoints under the
projection order (the boolean arrays left and right), the partial product
is an index table on exactly the pairs they join either way, and the star
map swaps coordinates.  Every product is cross-checked against the chain
semigroup, which is the ground truth: where both factors and the product
lie in components with trivial groups the check reads the handle's
batched product in ``_chunks`` slices, elsewhere it multiplies one pair
at a time.

Sandwich sets S(e, f) come from one scan over keys (e, f), two side
tables (batched in the same way) and then e g f = e f on their
candidates.  RE2 reads S(q, r) for every pair of projections, and the
reverse direction rebuilds P from the sandwich elements e(p, q), the g
in S(p, q) with p g and g q projections.
"""

from functools import cache

import numpy as np

from .chains import _is_id
from .chainsemigroup import ChainSemigroupHandle, ReducedChain
from .errors import InvalidArgument, PgsemiError
from .projections import ProjectionAlgebra, _chunks, _gather, \
    require_algebra
from .semigroups import projection_algebra_of

__all__ = [
    "Boset",
    "BosetComparison",
    "boset_of",
    "sandwich_set",
    "e_of",
    "projection_algebra_of_boset",
    "compare_with_semigroup_boset",
]


def _as_chain(handle, x):
    """Coerce a projection id, friendly pair, or idempotent chain to a
    ReducedChain; a chain c with c c != c raises InvalidArgument."""
    if isinstance(x, ReducedChain):
        if handle.product(x, x) != x:
            raise InvalidArgument(f"{x!r} is not idempotent")
        return x
    if _is_id(x):
        return handle.projection_chain(x)
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return handle.idempotent_chain(*x)
    raise InvalidArgument(f"{x!r} is not a projection id, pair or chain")


def _is_projection(c):
    return c.dom == c.cod and not c.word


class Boset:
    """Partial algebra of the idempotents [[p, q]].

    left[i, j] holds e_i <- e_j (cod comparison under <=) and right[i, j]
    holds e_i -> e_j (dom comparison).  table[i, j] (int32) is the index of
    e_i e_j on the basic pairs and -1 elsewhere; star[i] is that of e_i*.
    """

    __slots__ = ("algebra", "handle", "elements", "index", "left", "right",
                 "table", "star")

    def __init__(self, algebra, handle, elements, left, right, table, star):
        self.algebra = algebra
        self.handle = handle
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.left = left
        self.right = right
        self.table = table
        self.star = star

    def __len__(self):
        return len(self.elements)

    def star_of(self, e):
        p, q = e
        return (q, p)

    def _key(self, e, f):
        try:
            return self.index[e], self.index[f]
        except (KeyError, TypeError):              # unknown or unhashable
            raise InvalidArgument(
                f"({e}, {f}) is not a pair of elements") from None

    def is_basic(self, e, f):
        return bool(self.table[self._key(e, f)] >= 0)

    def product(self, e, f):
        """The basic product ef; raises off the domain."""
        k = self.table[self._key(e, f)]
        if k < 0:
            raise PgsemiError(f"({e}, {f}) is not a basic pair")
        return self.elements[k]

    def basic_triples(self):
        """(i, j, k) with e_i e_j = e_k over the basic pairs, row-major."""
        i, j = np.nonzero(self.table >= 0)
        return zip(i.tolist(), j.tolist(), self.table[i, j].tolist())

    def basic_items(self):
        """Sorted ((e, f), ef) over the product domain."""
        els = self.elements
        return [((els[i], els[j]), els[k]) for i, j, k in self.basic_triples()]

    def __repr__(self):
        return (f"Boset({len(self.elements)} elements, "
                f"{np.count_nonzero(self.table >= 0)} basic pairs)")


def boset_of(P, handle=None):
    """Build the boset of P.

    Arrows: [[p,q]] <- [[r,s]] iff q <= s and [[p,q]] -> [[r,s]] iff p <= r.
    On a basic pair the product is the absorbed factor where an arrow
    forces it, and otherwise the closed form [[r th_q th_p, q th_r th_s]].
    Every entry is cross-checked against the chain-semigroup product, by
    one call of :func:`_products_match` over all basic pairs; a closed
    form that is not an element fails that check, and the first pair that
    fails, row-major, is named.
    """
    if handle is None:
        handle = ChainSemigroupHandle(P)
    rel = handle.rel
    T = P.theta
    elements = handle.friendly_pairs
    ps, qs = np.nonzero(rel.friendly)              # row-major, as elements
    left = rel.leq[np.ix_(qs, qs)]
    right = rel.leq[np.ix_(ps, ps)]
    at = np.full(T.shape, -1, dtype=np.int32)      # (p, q) -> index
    at[ps, qs] = ids = np.arange(len(elements), dtype=np.int32)
    basic = left | right | left.T | right.T
    # e <- f: e = ef, else f -> e: f = ef, else the closed form
    table = np.where(left, ids[:, None], np.where(right.T, ids, -1))
    i, j = np.nonzero(basic & (table < 0))
    table[i, j] = at[T[ps[i], T[qs[i], ps[j]]], T[qs[j], T[ps[j], qs[i]]]]
    chains = [handle.idempotent_chain(p, q) for (p, q) in elements]
    i, j = np.nonzero(basic)                       # tl:9 has 829,072 pairs
    match = _products_match(handle, chains, i, j, table[i, j])
    if not match.all():
        k = np.flatnonzero(~match)[0]
        got = handle.product(chains[i[k]], chains[j[k]])
        (p, q), (r, s) = elements[i[k]], elements[j[k]]
        raise PgsemiError(f"basic product [[{p},{q}]][[{r},{s}]] disagrees "
                          f"with the chain product {got!r}")
    return Boset(P, handle, elements, left, right, table, at[qs, ps])


def _products_match(handle, chains, i, j, k, product=None):
    """chains[i] chains[j] == chains[k] over broadcast index arrays (at
    least 1-D), as a boolean array; an index k < 0 matches nothing.  The
    pairs are taken in ``_chunks`` slices along the first axis.  Where both
    factors and the product lie in trivial components the products are
    read off ``handle.product_batch``; the others are taken one at a time
    by ``product`` (default ``handle.product``)."""
    i, j, k = np.broadcast_arrays(i, j, k)
    dom = np.array([c.dom for c in chains], dtype=np.intp)
    cod = np.array([c.cod for c in chains], dtype=np.intp)
    trivial, T = handle.trivial_at, handle.algebra.theta
    product = product or handle.product
    out = np.zeros(i.shape, dtype=bool)
    for lo, hi in _chunks(len(i), i[:1].size):
        x, y, z, o = i[lo:hi], j[lo:hi], k[lo:hi], out[lo:hi]
        fast = (trivial[dom[x]] & trivial[dom[y]]
                & np.take(trivial, _gather(T, cod[x], dom[y])))
        a, b, w = x[fast], y[fast], z[fast]
        pd, pc = handle.product_batch((dom[a], cod[a]), (dom[b], cod[b]))
        o[fast] = (w >= 0) & (pd == dom[w]) & (pc == cod[w])
        for n in zip(*np.nonzero(~fast)):
            o[n] = z[n] >= 0 and product(chains[x[n]], chains[y[n]]) == chains[z[n]]
    return out


def _sandwich_sets(handle, keys, product=None):
    """S(e, f) for each key (e, f) of idempotent chains in turn, as lists
    of (g, chain of g) in friendly-pair order.

    Two boolean tables over the idempotents g_k, g_k e == g_k for each
    left key e and f g_k == g_k for each right key f, hold the candidates:
    for idempotents, f g e = g iff f g = g and g e = g.  Each table is one
    call of :func:`_products_match`, batched on trivial components.
    e g f = e f is tested on their conjunction only.  Every idempotent
    chain is built and multiplied on both sides, so UndecidedEquality is
    raised iff a group is undecided.  The other products are memoized for
    this call, or in the product function given."""
    product = product or cache(handle.product)
    pairs = handle.friendly_pairs
    chains = [handle.idempotent_chain(*g) for g in pairs]
    es = list(dict.fromkeys(e for e, _ in keys))
    fs = list(dict.fromkeys(f for _, f in keys))
    every = chains + es + fs                       # the ids of the tables
    g = np.arange(len(chains))
    key = len(chains) + np.arange(len(es) + len(fs))[:, None]
    right = dict(zip(es, _products_match(                      # g e == g
        handle, every, g, key[:len(es)], g, product)))
    left = dict(zip(fs, _products_match(                       # f g == g
        handle, every, key[len(es):], g, g, product)))
    for e, f in keys:
        ef = product(e, f)
        yield [(pairs[k], chains[k])
               for k in np.flatnonzero(right[e] & left[f]).tolist()
               if product(product(e, chains[k]), f) == ef]


def sandwich_set(handle, e, f):
    """S(e, f): the idempotents g with e g f = e f and f g e = g.

    Products are taken in the chain semigroup; e and f may be projection
    ids, friendly pairs, or idempotent chains.  Returns the sorted list
    of pairs.
    """
    key = _as_chain(handle, e), _as_chain(handle, f)
    return [g for g, _ in next(_sandwich_sets(handle, [key]))]


def _sandwich_elements(handle, ps, qs):
    """The sandwich element at every (p, q) in ps x qs, as rows over ps:
    the unique g in S(p, q), as :func:`_sandwich_sets` finds it, with
    p g and g q projections.  Raises PgsemiError at the first (p, q),
    row-major, where the scan does not find exactly one."""
    product = cache(handle.product)    # shared: the filter re-reads it
    cps = [handle.projection_chain(p) for p in ps]
    cqs = [handle.projection_chain(q) for q in qs]
    sets = _sandwich_sets(handle, [(cp, cq) for cp in cps for cq in cqs],
                          product)
    rows = []
    for p, cp in zip(ps, cps):
        row = []
        for q, cq, sandwich in zip(qs, cqs, sets):
            found = [g for g, cg in sandwich if _is_projection(product(cp, cg))
                     and _is_projection(product(cg, cq))]
            if len(found) != 1:
                raise PgsemiError(
                    f"sandwich element at ({p}, {q}): expected exactly one "
                    f"with projection side products, scan found {found}")
            row.append(found[0])
        rows.append(row)
    return rows


def e_of(P, p, q, handle=None, verify=False):
    """The canonical sandwich element [[p th_q, q th_p]] (= q (*) p).

    With verify=True, membership in S(p, q), the projection conditions on
    p*e and e*q, and uniqueness are all checked over every idempotent by
    the one-pair call of :func:`_sandwich_elements`.  Raises
    InvalidArgument unless p and q are integer ids of projections.
    """
    if not all(_is_id(x) and 0 <= x < P.size for x in (p, q)):
        raise InvalidArgument(f"({p}, {q}) is not a pair of projections")
    T = P.theta
    val = (int(T[q, p]), int(T[p, q]))
    if verify:
        if handle is None:
            handle = ChainSemigroupHandle(P)
        [[found]] = _sandwich_elements(handle, [int(p)], [int(q)])
        if found != val:
            raise PgsemiError(
                f"sandwich element at ({p}, {q}): expected {val}, "
                f"scan found {found}")
    return val


def projection_algebra_of_boset(b):
    """Rebuild the projection algebra from the partial algebra.

    Carrier: the star-fixed (diagonal) elements.  q th_p is the left
    factor of the basic product p * e(p, q), with e(p, q) the unique
    sandwich element whose side products are projections, found for all
    n^2 pairs by one call of :func:`_sandwich_elements`, one sandwich
    scan.  The result must be a projection algebra: InvalidAlgebra names
    the first failed law otherwise.
    """
    diag = [p for p, q in b.elements if p == q]
    idx = {p: i for i, p in enumerate(diag)}
    found = _sandwich_elements(b.handle, diag, diag)
    theta = np.array([[idx[b.product((p, p), g)[0]] for g in row]
                      for p, row in zip(diag, found)], dtype=np.int64)
    out = ProjectionAlgebra(theta, labels=[b.algebra.label(p) for p in diag])
    require_algebra(out)
    return out


class BosetComparison:
    """Outcome of matching the pair boset against the idempotents of a
    star semigroup; failures carry the first offending pairs."""

    __slots__ = ("ok", "mapping", "failures")

    def __init__(self, ok, mapping, failures):
        self.ok = ok
        self.mapping = mapping
        self.failures = failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return f"BosetComparison(ok, {len(self.mapping)} elements)"
        return f"BosetComparison(failures={self.failures[:3]!r}...)"


def compare_with_semigroup_boset(P, S, boset=None):
    """Check that [[p, q]] |-> pq is a *-boset isomorphism onto E(S).

    Requires projection_algebra_of(S) == P with matching projection order.
    Verifies the map is a bijection onto the idempotents of S and that
    arrows (x <- y iff x = xy, x -> y iff x = yx), basic products, and
    star agree on both sides.  At most the first 20 failures are kept.
    """
    Q, embed = projection_algebra_of(S)
    if Q != P:
        raise PgsemiError(
            "S does not extract the given projection algebra")
    b = boset if boset is not None else boset_of(P)
    failures = []

    def note(kind, **data):
        if len(failures) < 20:
            failures.append({"kind": kind, **data})

    mapping = {(p, q): S.product(int(embed[p]), int(embed[q]))
               for (p, q) in b.elements}

    seen = {}
    for e, s in mapping.items():
        if seen.setdefault(s, e) != e:
            note("injectivity", first=seen[s], second=e, image=s)
    idem = set(S.idempotents())
    image = set(mapping.values())
    if image != idem:
        note("image",
             missing=sorted(idem - image), extra=sorted(image - idem))

    # x <- y iff x = xy and x -> y iff x = yx, read off xy[i, j] = x_i x_j
    img = np.array(list(mapping.values()))
    xy, x = S.mult[np.ix_(img, img)], img[:, None]
    bad = ((xy == x) != b.left) | ((xy.T == x) != b.right)
    for i, j in np.argwhere(bad).tolist():
        note("arrows", e=b.elements[i], f=b.elements[j])

    # basic products and star, one gather each
    e, f = np.nonzero(b.table >= 0)
    ef = b.table[e, f]
    for k in np.flatnonzero(S.mult[img[e], img[f]] != img[ef]).tolist():
        note("product", e=b.elements[e[k]], f=b.elements[f[k]],
             expected=b.elements[ef[k]])

    for i in np.flatnonzero(S.star[img] != img[b.star]).tolist():
        note("star", e=b.elements[i])

    return BosetComparison(not failures, mapping, failures)
