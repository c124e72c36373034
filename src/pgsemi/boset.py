"""The biordered set of idempotent chains.

Elements are the ordered friendly pairs (p, q), standing for [[p, q]];
diagonal pairs play the projections.  Arrows compare endpoints under the
projection order (the boolean arrays left and right), the partial product
lives exactly on the pairs they join either way, and the star map swaps
coordinates.  Everything is cross-checked against products in the chain
semigroup, which is the ground truth.
"""

import numpy as np

from .chainsemigroup import ChainSemigroupHandle, ReducedChain
from .errors import InvalidArgument, PgsemiError
from .projections import ProjectionAlgebra, require_algebra
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
    """Coerce a projection id, friendly pair, or chain to a ReducedChain."""
    if isinstance(x, ReducedChain):
        return x
    if isinstance(x, (int, np.integer)):
        return handle.projection_chain(int(x))
    p, q = x
    return handle.idempotent_chain(int(p), int(q))


def _is_projection(c):
    return c.dom == c.cod and not c.word


class Boset:
    """Partial algebra of the idempotents [[p, q]].

    left[i, j] holds e_i <- e_j (cod comparison under <=) and right[i, j]
    holds e_i -> e_j (dom comparison); the product table is defined on the
    basic pairs only.
    """

    __slots__ = ("algebra", "handle", "elements", "index", "left", "right",
                 "_products")

    def __init__(self, algebra, handle, elements, left, right, products):
        self.algebra = algebra
        self.handle = handle
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.left = left
        self.right = right
        self._products = products

    def __len__(self):
        return len(self.elements)

    def star_of(self, e):
        p, q = e
        return (q, p)

    def _key(self, e, f):
        if e not in self.index or f not in self.index:
            raise InvalidArgument(f"({e}, {f}) is not a pair of elements")
        return self.index[e], self.index[f]

    def is_basic(self, e, f):
        return self._key(e, f) in self._products

    def product(self, e, f):
        """The basic product ef; raises off the domain."""
        val = self._products.get(self._key(e, f))
        if val is None:
            raise PgsemiError(f"({e}, {f}) is not a basic pair")
        return val

    def basic_items(self):
        """Sorted ((e, f), ef) over the product domain."""
        return [((self.elements[i], self.elements[j]), val)
                for (i, j), val in sorted(self._products.items())]

    def __repr__(self):
        return (f"Boset({len(self.elements)} elements, "
                f"{len(self._products)} basic pairs)")


def boset_of(P, handle=None):
    """Build the boset of P.

    Arrows: [[p,q]] <- [[r,s]] iff q <= s and [[p,q]] -> [[r,s]] iff p <= r.
    On a basic pair the product is the absorbed factor where an arrow
    forces it, and otherwise the closed form
    [[r th_q th_p, q th_r th_s]]; every table entry is cross-checked
    against the chain-semigroup product.
    """
    if handle is None:
        handle = ChainSemigroupHandle(P)
    rel = handle.rel
    T = P.theta
    elements = handle.friendly_pairs
    ps, qs = np.nonzero(rel.friendly)              # row-major, as elements
    left = rel.leq[np.ix_(qs, qs)]
    right = rel.leq[np.ix_(ps, ps)]
    chains = [handle.idempotent_chain(p, q) for (p, q) in elements]

    products = {}
    # row-major over the pairs joined by an arrow in either direction
    for i, j in np.argwhere(left | right | left.T | right.T).tolist():
        (p, q), (r, s) = elements[i], elements[j]
        if left[i, j]:
            val = (p, q)                           # e <- f: e = ef
        elif right[j, i]:
            val = (r, s)                           # f -> e: f = ef
        else:
            val = (int(T[p, T[q, r]]), int(T[s, T[r, q]]))
        got = handle.product(chains[i], chains[j])
        if got != handle.idempotent_chain(*val):
            raise PgsemiError(
                f"basic product [[{p},{q}]][[{r},{s}]] disagrees "
                f"with the chain product {got!r}")
        products[(i, j)] = val
    return Boset(P, handle, elements, left, right, products)


def _in_sandwich(handle, ce, cf, ef, cg):
    """Whether the chain cg lies in S(e, f): e g f = ef and f g e = g."""
    return (handle.product(handle.product(ce, cg), cf) == ef
            and handle.product(handle.product(cf, cg), ce) == cg)


def sandwich_set(handle, e, f):
    """S(e, f): the idempotents g with e g f = e f and f g e = g.

    Products are taken in the chain semigroup; e and f may be projection
    ids, friendly pairs, or chains.  Returns the sorted list of pairs.
    """
    ce, cf = _as_chain(handle, e), _as_chain(handle, f)
    ef = handle.product(ce, cf)
    return [g for g in handle.friendly_pairs
            if _in_sandwich(handle, ce, cf, ef, handle.idempotent_chain(*g))]


def _sandwich_element(handle, p, q):
    """The unique g in S(p, q) with p g and g q projections; raises unless
    one scan of all idempotents finds exactly one.  The side tests run
    first and membership only after both pass, so the found set is
    unchanged and a failing candidate is not multiplied further.  Every
    chain is still built: UndecidedEquality iff a group is undecided."""
    cp = handle.projection_chain(p)
    cq = handle.projection_chain(q)
    pq = handle.product(cp, cq)
    found = []
    for g in handle.friendly_pairs:
        cg = handle.idempotent_chain(*g)
        if (_is_projection(handle.product(cp, cg))
                and _is_projection(handle.product(cg, cq))
                and _in_sandwich(handle, cp, cq, pq, cg)):
            found.append(g)
    if len(found) != 1:
        raise PgsemiError(
            f"sandwich element at ({p}, {q}): expected exactly one with "
            f"projection side products, scan found {found}")
    return found[0]


def e_of(P, p, q, handle=None, verify=False):
    """The canonical sandwich element [[p th_q, q th_p]] (= q (*) p).

    With verify=True, membership in S(p, q), the projection conditions on
    p*e and e*q, and uniqueness are all checked by exhaustive scan.
    Raises InvalidArgument unless p and q name projections.
    """
    if not (0 <= p < P.size and 0 <= q < P.size):
        raise InvalidArgument(f"({p}, {q}) is not a pair of projections")
    T = P.theta
    val = (int(T[q, p]), int(T[p, q]))
    if verify:
        if handle is None:
            handle = ChainSemigroupHandle(P)
        found = _sandwich_element(handle, int(p), int(q))
        if found != val:
            raise PgsemiError(
                f"sandwich element at ({p}, {q}): expected {val}, "
                f"scan found {found}")
    return val


def projection_algebra_of_boset(b):
    """Rebuild the projection algebra from the partial algebra.

    Carrier: the star-fixed (diagonal) elements.  q th_p is the left
    factor of the basic product p * e(p, q), with e(p, q) located as the
    unique sandwich element whose side products are projections.  The
    result must be a projection algebra: InvalidAlgebra names the first
    failed law otherwise.
    """
    diag = [e for e in b.elements if e[0] == e[1]]
    idx = {e[0]: i for i, e in enumerate(diag)}
    n = len(diag)
    theta = np.zeros((n, n), dtype=np.int64)
    for i, (p, _) in enumerate(diag):
        for j, (q, _) in enumerate(diag):
            prod = b.product((p, p), _sandwich_element(b.handle, p, q))
            theta[i, j] = idx[prod[0]]
    labels = [b.algebra.label(p) for p, _ in diag]
    out = ProjectionAlgebra(theta, labels=labels)
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

    for (e, f), val in b.basic_items():
        if S.product(mapping[e], mapping[f]) != mapping[val]:
            note("product", e=e, f=f, expected=val)

    for e in b.elements:
        if S.star_of(mapping[e]) != mapping[b.star_of(e)]:
            note("star", e=e)

    return BosetComparison(not failures, mapping, failures)
