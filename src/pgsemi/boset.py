"""The biordered set of idempotent chains.

Elements are the ordered friendly pairs (p, q), standing for [[p, q]];
diagonal pairs play the projections.  Arrows compare endpoints under the
projection order, the partial product lives exactly on the basic pairs,
and the star map swaps coordinates.  Everything is cross-checked against
products in the chain semigroup, which is the ground truth.
"""

import numpy as np

from .chainsemigroup import ChainSemigroupHandle, ReducedChain
from .errors import PgsemiError
from .projections import ProjectionAlgebra, validate_axioms
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

    def is_basic(self, e, f):
        i, j = self.index[e], self.index[f]
        return bool(self.left[i, j] or self.right[i, j]
                    or self.left[j, i] or self.right[j, i])

    def product(self, e, f):
        """The basic product ef; raises off the domain."""
        key = (self.index[e], self.index[f])
        if key not in self._products:
            raise PgsemiError(f"({e}, {f}) is not a basic pair")
        return self._products[key]

    def basic_items(self):
        """Sorted ((e, f), ef) over the product domain."""
        out = []
        for (i, j) in sorted(self._products):
            out.append(((self.elements[i], self.elements[j]),
                        self._products[(i, j)]))
        return out

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
    ps = np.array([e[0] for e in elements])
    qs = np.array([e[1] for e in elements])
    left = rel.leq[np.ix_(qs, qs)]
    right = rel.leq[np.ix_(ps, ps)]
    chains = [handle.idempotent_chain(p, q) for (p, q) in elements]

    products = {}
    for i, (p, q) in enumerate(elements):
        for j, (r, s) in enumerate(elements):
            if not (left[i, j] or right[i, j] or left[j, i] or right[j, i]):
                continue
            if left[i, j]:
                val = (p, q)                       # e <- f: e = ef
            elif right[j, i]:
                val = (r, s)                       # f -> e: f = ef
            else:
                val = (int(T[p, T[q, r]]), int(T[s, T[r, q]]))
            got = handle.product(chains[i], chains[j])
            if got != handle.idempotent_chain(*val):
                raise PgsemiError(
                    f"basic product [[{p},{q}]][[{r},{s}]] disagrees "
                    f"with the chain product {got!r}")
            products[(i, j)] = val
    return Boset(P, handle, elements, left, right, products)


def sandwich_set(handle, e, f):
    """S(e, f): the idempotents g with e g f = e f and f g e = g.

    Products are taken in the chain semigroup; e and f may be projection
    ids, friendly pairs, or chains.  Returns the sorted list of pairs.
    """
    ce, cf = _as_chain(handle, e), _as_chain(handle, f)
    ef = handle.product(ce, cf)
    out = []
    for p, q in handle.friendly_pairs:
        g = handle.idempotent_chain(p, q)
        if (handle.product(handle.product(ce, g), cf) == ef
                and handle.product(handle.product(cf, g), ce) == g):
            out.append((p, q))
    return out


def _sandwich_element(handle, p, q):
    """The unique g in S(p, q) with p g and g q projections, found by
    scanning the whole sandwich set; raises unless exactly one exists."""
    cp = handle.projection_chain(p)
    cq = handle.projection_chain(q)
    found = []
    for g in sandwich_set(handle, p, q):
        cg = handle.idempotent_chain(*g)
        if (_is_projection(handle.product(cp, cg))
                and _is_projection(handle.product(cg, cq))):
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
    """
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
    result must pass the axiom checks.
    """
    diag = [e for e in b.elements if e[0] == e[1]]
    idx = {e[0]: i for i, e in enumerate(diag)}
    n = len(diag)
    handle = b.handle
    theta = np.zeros((n, n), dtype=np.int64)
    for i, (p, _) in enumerate(diag):
        for j, (q, _) in enumerate(diag):
            prod = b.product((p, p), _sandwich_element(handle, p, q))
            theta[i, j] = idx[prod[0]]
    labels = None
    if b.algebra is not None and n == b.algebra.size:
        labels = [b.algebra.label(e[0]) for e in diag]
    out = ProjectionAlgebra(theta, labels=labels)
    bad = validate_axioms(out)
    if bad:
        raise PgsemiError(f"extracted table violates {bad[0].law}")
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

    mapping = {}
    for (p, q) in b.elements:
        mapping[(p, q)] = int(S.product(int(embed[p]), int(embed[q])))

    seen = {}
    for e in b.elements:
        s = mapping[e]
        if s in seen:
            note("injectivity", first=seen[s], second=e, image=s)
        else:
            seen[s] = e
    idem = set(S.idempotents())
    image = set(mapping.values())
    if image != idem:
        note("image",
             missing=sorted(idem - image), extra=sorted(image - idem))

    for i, e in enumerate(b.elements):
        x = mapping[e]
        for j, f in enumerate(b.elements):
            y = mapping[f]
            sl = S.product(x, y) == x
            sr = S.product(y, x) == x
            if sl != bool(b.left[i, j]) or sr != bool(b.right[i, j]):
                note("arrows", e=e, f=f)

    for (e, f), val in b.basic_items():
        if S.product(mapping[e], mapping[f]) != mapping[val]:
            note("product", e=e, f=f, expected=val)

    for e in b.elements:
        if S.star_of(mapping[e]) != mapping[b.star_of(e)]:
            note("star", e=e)

    return BosetComparison(not failures, mapping, failures)
