"""The free projection-generated regular *-semigroup on a projection algebra.

Elements are reduced chains: friendly paths modulo the rules

    (p, p) -> (p),  (p, q, p) -> (p),  and  lambda = rho

for every linked pair.  The quotient is encoded per connected component of
the triangle complex: a chain is (component, dom, cod, word) where the word
lives in the component's fundamental group and spells the loop

    tree-path(base -> dom)^-1 . path . tree-path(base -> cod)^-1-complement

so equality of chains is endpoint equality plus a group word problem.  The
product is restriction + concatenation; the involution reverses.  Each
one-sided restriction of a chain is built, checked and encoded once and
kept as endpoints plus word, so a product checks only the junction step
and free-reduces only where the two words and the junction's edge word
meet.

Each walk is checked once, where it is formed: ``normalize`` takes a
checked ``Path``, ``expand`` and each restriction check theirs.  A checked
walk is encoded unreduced: ``word_of`` reads its reduced form's word.

In a component whose group is trivial a chain is just its pair
(dom, cod), and restricting it below an end applies theta along it, as
the chain groupoid defines restriction.  So with p1 = q th_p and
q1 = p th_q (p = cod c, q = dom d) the product there is

    c d = (p1 Theta_{c*}, q1 Theta_d),

where Theta_(x, y) is the same along every walk from x to y, so also up[x]
then down[y] along the spanning tree (down[v] is Theta from its base to v,
up[v] back).  The handle reads products there off these two |P| x |P|
tables, one at a time or in arrays (``product_batch``), with no walk.

Whenever a component group fails to classify as trivial, free, or finite,
equality there is refused with UndecidedEquality rather than approximated.
"""

from functools import reduce
from typing import NamedTuple

import numpy as np

from .chains import (
    LinkedPair,
    Path,
    _is_id,
    _linked_pairs,
    _not_friendly,
    _reduce,
    _restrict,
)
from .cosets import BUDGET
from .errors import InvalidArgument, NotAMorphism, UndecidedEquality
from .projections import _as_map, _gather, _narrow, is_morphism, \
    relations, require_algebra
from .semigroups import (
    CAP,
    cayley_semigroup,
    projection_algebra_of,
    right_cayley_closure,
)
from .topology import (
    complex_KP_prime,
    components,
    pi1_presentation,
    tietze_simplify,
)

__all__ = [
    "ReducedChain",
    "ChainSemigroupHandle",
    "star_semigroup_of",
    "INFINITE",
    "UNKNOWN",
    "StarMorphism",
]


class _Named:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


INFINITE = _Named("Infinite")
UNKNOWN = _Named("Unknown")


class ReducedChain(NamedTuple):
    """Normal form of a chain: endpoints plus a canonical group word."""

    comp: int
    dom: int
    cod: int
    word: tuple

    def sort_key(self):
        return (self.comp, self.dom, self.cod, len(self.word), self.word)

    def __repr__(self):
        if self.dom == self.cod and not self.word:
            return f"<[{self.dom}]>"
        return f"<{self.dom}->{self.cod} w={list(self.word)}>"


def _join(a, b):
    """The free reduction of a . b for freely reduced words a and b: only
    letters where the two meet can cancel."""
    if not a or not b:
        return a + b
    k = 0
    n = min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:]


class _Component:
    __slots__ = ("index", "vertices", "simplified", "classification")

    def __init__(self, index, vertices, simplified, classification):
        self.index = index
        self.vertices = vertices
        self.simplified = simplified
        self.classification = classification


class ChainSemigroupHandle:
    """One-time build over a projection algebra; pure operations after.

    The table is checked against P1-P5 first: one that fails raises
    InvalidAlgebra naming the first failed law, before any construction
    can fail on a lemma that only holds for projection algebras."""

    def __init__(self, P, budget=BUDGET):
        require_algebra(P)
        self.algebra = P
        self.budget = budget
        self.rel = relations(P)
        # the friendly pairs (p, q), row-major: one per idempotent [[p, q]]
        self.friendly_pairs = tuple(
            (int(p), int(q)) for p, q in np.argwhere(self.rel.friendly))
        self.complex = complex_KP_prime(P, self.rel)
        self.comps = components(self.complex)
        theta = _narrow(P)
        # down[v] is Theta along the tree from the base to v, up[v] from v
        # back (at the base, its theta row); tree paths list parents first
        self._down, self._up = down, up = theta.copy(), theta.copy()
        self.comp_of = [0] * P.size
        self.components = []
        for i, comp in enumerate(self.comps):
            simplified, cls = tietze_simplify(
                pi1_presentation(self.complex, i), budget=budget)
            self.components.append(_Component(i, tuple(comp), simplified, cls))
            for v, path in simplified.tree_paths.items():
                self.comp_of[v] = i
                if len(path) > 1:
                    down[v] = theta[v][down[path[-2]]]
                    up[v] = up[path[-2]][theta[v]]
        # Python int tuples for per-call reads; comp_of padded (see product)
        self._rows, self._down_rows, self._up_rows = (
            tuple(map(tuple, t.tolist())) for t in (theta, down, up))
        self._comp_at = self.comp_of + [None] * P.size
        # per component, and per projection through its component
        self._trivial = [c.classification.kind == "trivial"
                         for c in self.components]
        self.trivial_at = np.array(self._trivial, dtype=bool)[
            np.array(self.comp_of, dtype=np.intp)]
        self._expand_cache = {}
        # (chain, q) -> (comp, dom, cod, word) of the chain restricted to
        # end at q ("right") or to start at q ("left")
        self._restricted = {"right": {}, "left": {}}

    # -- encoding ---------------------------------------------------------

    def _check_path(self, path):
        if not isinstance(path, Path):
            raise InvalidArgument(f"not a Path: {path!r}")
        if (path.algebra is not self.algebra
                and path.algebra.digest != self.algebra.digest):
            raise ValueError("path belongs to a different algebra")

    def _canonical(self, ci, word):
        """The canonical word of component ci's group for a freely reduced
        word (a free group's canonical word is the word itself); raises
        UndecidedEquality when that group is not classified."""
        cls = self.components[ci].classification
        if cls.kind == "free":
            return word
        canon = cls.normalize(word)
        if canon is None:
            raise UndecidedEquality(
                f"component {ci} group is not decided", component=ci
            )
        return canon

    def _encode(self, verts):
        """(comp, dom, cod, word) of a checked friendly walk, given as a
        vertex tuple: the endpoints (reduction keeps them) and the freely
        reduced word of its reduced form."""
        ci = self.comp_of[verts[0]]
        word = self.components[ci].simplified.word_of(verts)
        return ci, verts[0], verts[-1], word

    def normalize(self, path):
        """Canonical ReducedChain of a path; raises UndecidedEquality when
        the component group is not classified."""
        self._check_path(path)
        ci, dom, cod, word = self._encode(path.verts)
        return ReducedChain(ci, dom, cod, self._canonical(ci, word))

    def _projection(self, p):
        """p as an int; raises InvalidArgument unless it names a
        projection."""
        if not (_is_id(p) and 0 <= p < self.algebra.size):
            raise InvalidArgument(f"no projection {p}")
        return int(p)

    def projection_chain(self, p):
        p = self._projection(p)
        return ReducedChain(self.comp_of[p], p, p, ())

    def idempotent_chain(self, p, q):
        """The chain of the friendly pair (p, q); equals [[p]] when p = q."""
        if not (_is_id(p) and _is_id(q)):
            raise InvalidArgument(f"({p!r}, {q!r}) is not a pair of vertices")
        p, q = int(p), int(q)
        return self.normalize(Path(self.algebra, (p, q) if p != q else (p,)))

    def _check_chain(self, c):
        """InvalidArgument unless both ends of c lie in its component."""
        x, y = self._projection(c.dom), self._projection(c.cod)
        if not self.comp_of[x] == c.comp == self.comp_of[y]:
            raise InvalidArgument(f"no chain {x} -> {y} in component "
                                  f"{c.comp!r}")

    def expand(self, c):
        """A representative path: tree walk to dom, the word's loop, tree
        walk back to cod, reduced and checked once.  Memoized per chain;
        a chain whose ends do not lie in its component is refused."""
        hit = self._expand_cache.get(c)
        if hit is not None:
            return hit
        self._check_chain(c)
        pres = self.components[c.comp].simplified
        out = Path(self.algebra, _reduce(pres.walk(c.dom, c.word, c.cod)))
        self._expand_cache[c] = out
        return out

    # -- semigroup operations --------------------------------------------

    def _restriction(self, c, q, side):
        """(comp, dom, cod, word) of c's representative path restricted to
        end at q (side "right") or to start at q (side "left"), reduced.
        Memoized per side; each step of the restricted walk is checked
        once, as a Path, when the entry is built."""
        cache = self._restricted[side]
        hit = cache.get((c, q))
        if hit is not None:
            return hit
        verts = self.expand(c).verts
        if side == "right":
            verts = _restrict(self.algebra.rows, verts[::-1], q, side)[::-1]
        else:
            verts = _restrict(self.algebra.rows, verts, q, side)
        out = cache[(c, q)] = self._encode(Path(self.algebra, verts).verts)
        return out

    def product(self, c, d):
        """c (*) d: restrict c to end at p1 = q theta_p and d to start at
        q1 = p theta_q (p = cod c, q = dom d) and concatenate.  The junction
        step p1 -> q1 is checked on every product.

        When c, d and p1 all lie in components with trivial groups, the
        product is (p1 Theta_{c*}, q1 Theta_d), read off the spanning-tree
        tables; no walk is built.  Otherwise the two restrictions are
        memoized, already checked and freely reduced, and the words cancel
        only where they meet.  The product itself is not memoized.  A chain
        whose ends do not lie in its component is refused."""
        ci, x, p, _ = c
        cj, q, y, _ = d
        at, T = self._comp_at, self._rows
        try:
            # a forged chain fails this test, bar an end below -|P| (at is
            # 2|P| long): a |P|-row table below, or expand, refuses that
            if not (at[x] == ci == at[p] and at[q] == cj == at[y]):
                raise IndexError
            Tp, Tq = T[p], T[q]
            p1, q1 = Tp[q], Tq[p]      # q theta_p, p theta_q
            trivial = self._trivial
            if trivial[ci] and trivial[cj]:
                ck = at[p1]
                # p1 <= p and q1 <= q hold in a projection algebra; on a
                # table let past the boundary check the walk path refuses
                if trivial[ck] and Tp[p1] == p1 and Tq[q1] == q1:
                    if T[p1][q1] != p1 or T[q1][p1] != q1:
                        raise _not_friendly(p1, q1)
                    # p1 Theta_{c*} and q1 Theta_d; [[p]] restricts to [[p1]]
                    # on any table, the tables agree where the axioms hold
                    down, up = self._down_rows, self._up_rows
                    back = p1 if x == p else down[x][up[p][p1]]
                    fwd = q1 if y == q else down[y][up[q][q1]]
                    # ReducedChain(...) without its Python-level __new__
                    return tuple.__new__(ReducedChain, (ck, back, fwd, ()))
        except (IndexError, TypeError):
            self._check_chain(c)       # refuses a forged chain
            self._check_chain(d)
            raise
        ci, dom, _, left = self._restriction(c, p1, "right")
        _, _, cod, right = self._restriction(d, q1, "left")
        if T[p1][q1] != p1 or T[q1][p1] != q1:
            raise _not_friendly(p1, q1)
        if p1 != q1:
            edge = self.components[ci].simplified.edge_words[(p1, q1)]
            left = _join(left, edge)
        return ReducedChain(ci, dom, cod, self._canonical(ci, _join(left, right)))

    def product_batch(self, c, d):
        """The products of chains in trivial components, elementwise over
        endpoint arrays.  c and d are each a pair (dom, cod) of integer
        arrays; the two chains' arrays are broadcast together, as are the
        products, returned as the pair (dom, cod) of intp arrays that
        :meth:`product` gives, read off the same spanning-tree tables.

        The junction is checked on every pair: NotFriendly names the first
        bad one.  InvalidArgument is raised when an operand is not a chain
        of a trivial component, or a product lies outside them."""
        n = self.algebra.size
        comp = np.array(self.comp_of, dtype=np.intp)
        ends = []
        for chain in (c, d):
            dom, cod = np.broadcast_arrays(*map(np.asarray, chain))
            if not (dom.dtype.kind in "iu" and cod.dtype.kind in "iu"
                    and ((0 <= dom) & (dom < n) & (0 <= cod) & (cod < n)).all()):
                raise InvalidArgument("endpoints must be projection ids")
            bad = np.argwhere(~self.trivial_at[dom] | (comp[dom] != comp[cod]))
            if len(bad):
                k = tuple(bad[0])
                raise InvalidArgument(f"({dom[k]}, {cod[k]}) is not a chain "
                                      "of a trivial component")
            ends.append((dom.astype(np.intp), cod.astype(np.intp)))
        (x, p), (q, y) = ends
        T = self.algebra.theta
        p1, q1 = T[p, q], T[q, p]
        bad = np.argwhere((T[p1, q1] != p1) | (T[q1, p1] != q1))
        if len(bad):
            k = tuple(bad[0])
            raise _not_friendly(int(p1[k]), int(q1[k]))
        bad = np.argwhere(~self.trivial_at[p1])
        if len(bad):
            raise InvalidArgument(f"the product at projection {p1[tuple(bad[0])]}"
                                  " lies outside the trivial components")
        down, up = self._down, self._up
        return (_gather(down, x, _gather(up, p, p1)).astype(np.intp),
                _gather(down, y, _gather(up, q, q1)).astype(np.intp))

    def star(self, c):
        """Reversal: swap endpoints and invert the word.  Not memoized."""
        inv = tuple(-l for l in reversed(c.word))
        return ReducedChain(c.comp, c.cod, c.dom, self._canonical(c.comp, inv))

    def theta_map(self, c):
        """The composite operation of the chain: row-fold of theta along a
        representative path, as an array mapping q -> q Theta_c."""
        T = self.algebra.theta
        return reduce(lambda m, p: T[p][m], self.expand(c).verts,
                      np.arange(self.algebra.size))

    # -- global structure --------------------------------------------------

    def component_group(self, p):
        ci = self.comp_of[self._projection(p)]
        return self.components[ci].classification

    def size(self):
        """|PG(P)| as int, or Infinite, or Unknown; finite answers are
        cross-checked against closure enumeration."""
        total = 0
        unknown = False
        for comp in self.components:
            cls = comp.classification
            v = len(comp.vertices)
            if cls.kind in ("trivial", "finite"):
                total += v * v * (cls.order or 1)
            elif cls.kind == "free":
                if cls.rank >= 1:
                    return INFINITE
                total += v * v
            else:
                if cls.abelian and cls.abelian[0] >= 1:
                    return INFINITE
                unknown = True
        if unknown:
            return UNKNOWN
        found = len(self._closure(total)[0])
        if found != total:
            raise AssertionError(
                f"size formula {total} disagrees with closure {found}"
            )
        return total

    def _closure(self, cap):
        if cap < self.algebra.size:
            raise InvalidArgument("cap smaller than the projection count")
        gens = [self.projection_chain(p) for p in range(self.algebra.size)]
        return right_cayley_closure(gens, gens, self.product, cap=cap)

    def enumerate(self, cap=CAP):
        """All chains, in canonical sort order.  PG(P) is generated by its
        projections, so this is the right Cayley closure of the projection
        chains under right multiplication by them (see
        :func:`~pgsemi.semigroups.right_cayley_closure`)."""
        return sorted(self._closure(cap)[0], key=ReducedChain.sort_key)

    def idempotents(self):
        """All chains [[p, q]] for friendly (p, q); the idempotents when the
        semigroup is finite."""
        return [self.idempotent_chain(p, q) for p, q in self.friendly_pairs]

    def maximal_subgroup(self, p):
        """(presentation, classification) of the group at p: pi1 of p's
        component re-based at p, simplified."""
        p = self._projection(p)
        raw = pi1_presentation(self.complex, self.comp_of[p], basepoint=p)
        return tietze_simplify(raw, budget=self.budget)

    def extend_morphism(self, S, phi):
        """Extend a projection-algebra morphism into the projections of S to
        a *-homomorphism on chains."""
        return StarMorphism(self, S, phi)


def star_semigroup_of(handle, cap=CAP):
    """Concrete multiplication and star tables of a finite chain semigroup,
    gathered from the right Cayley graph of the projection chains (see
    :func:`~pgsemi.semigroups.cayley_semigroup`).

    Returns (StarSemigroup, elements) with elements[i] the chain carrying
    id i, in canonical sort order.
    """
    return cayley_semigroup(
        handle._closure(cap), handle.star, ReducedChain.sort_key, repr
    )


class StarMorphism:
    """chain -> element of S, via products of projection images along a
    representative path.

    Construction checks that phi is a projection-algebra morphism and that
    the images of lambda = (e, e1, f) and rho = (e, f1, f) agree for every
    linked pair, by one gather on S.mult over all pairs per path;
    NotAMorphism names the first pair, in (p, e, f) order, where they
    differ."""

    def __init__(self, handle, S, phi):
        self.handle = handle
        self.S = S
        self.phi = _as_map(phi)
        Q, embed = projection_algebra_of(S)
        proj_index = {s: i for i, s in enumerate(embed)}
        P = handle.algebra
        if self.phi.shape != (P.size,):
            raise NotAMorphism("phi must assign an element of S to every projection")
        psi = np.empty(P.size, dtype=np.intp)
        for i, s in enumerate(self.phi):
            if int(s) not in proj_index:
                raise NotAMorphism(f"phi({i}) = {s} is not a projection of S")
            psi[i] = proj_index[int(s)]
        if not is_morphism(P, Q, psi):
            raise NotAMorphism("phi does not respect the unary operations")
        self.psi = psi
        # well-definedness: the generating identifications map to
        # equalities, lambda = (e, e1, f) and rho = (e, f1, f) for every pair
        p, e, f, e1, f1 = _linked_pairs(P, handle.rel)
        m, img = S.mult, self.phi
        bad = np.flatnonzero(m[m[img[e], img[e1]], img[f]]
                             != m[m[img[e], img[f1]], img[f]])
        if len(bad):
            k = bad[0]
            raise NotAMorphism(
                "images of the identified paths differ at "
                f"{LinkedPair(P, int(p[k]), int(e[k]), int(f[k]))!r}"
            )

    def _eval_verts(self, verts):
        return self.S.product_of(int(self.phi[v]) for v in verts)

    def __call__(self, chain):
        return self._eval_verts(self.handle.expand(chain).verts)
