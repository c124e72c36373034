"""The free projection-generated regular *-semigroup on a projection algebra.

Elements are reduced chains: friendly paths modulo the rules

    (p, p) -> (p),  (p, q, p) -> (p),  and  lambda = rho

for every linked pair.  The quotient is encoded per connected component of
the triangle complex: a chain is (component, dom, cod, word) where the word
lives in the component's fundamental group and spells the loop

    tree-path(base -> dom)^-1 . path . tree-path(base -> cod)^-1-complement

so equality of chains is endpoint equality plus a group word problem.  The
product is restriction + concatenation; the involution reverses.

Whenever a component group fails to classify as trivial, free, or finite,
equality there is refused with UndecidedEquality rather than approximated.
"""

from functools import reduce
from typing import NamedTuple

import numpy as np

from .chains import (
    LinkedPair,
    Path,
    _linked_pairs,
    _reduce,
    _restrict,
    reduce_path,
)
from .errors import InvalidAlgebra, NotAMorphism, UndecidedEquality
from .projections import is_morphism, relations, validate_axioms
from .semigroups import (
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

    def __init__(self, P, budget=50_000):
        bad = validate_axioms(P)
        if bad:
            raise InvalidAlgebra(bad[0])
        self.algebra = P
        self.budget = budget
        self.rel = relations(P)
        # the friendly pairs (p, q), row-major: one per idempotent [[p, q]]
        self.friendly_pairs = tuple(
            (int(p), int(q)) for p, q in np.argwhere(self.rel.friendly))
        self.complex = complex_KP_prime(P, self.rel)
        self.comps = components(self.complex)
        self.comp_of = {}
        for i, comp in enumerate(self.comps):
            for v in comp:
                self.comp_of[v] = i
        self.components = []
        for i, comp in enumerate(self.comps):
            simplified, cls = tietze_simplify(
                pi1_presentation(self.complex, i), budget=budget)
            self.components.append(
                _Component(i, tuple(comp), simplified, cls))
        self._idem_cache = {}
        self._prod_cache = {}
        self._star_cache = {}
        self._expand_cache = {}

    # -- encoding ---------------------------------------------------------

    def _check_path(self, path):
        if path.algebra.digest != self.algebra.digest:
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

    def _chain(self, verts):
        """The chain of a checked friendly walk, given as a vertex tuple."""
        verts = _reduce(verts)
        ci = self.comp_of[verts[0]]
        word = self.components[ci].simplified.word_of(verts)
        return ReducedChain(ci, verts[0], verts[-1], self._canonical(ci, word))

    def normalize(self, path):
        """Canonical ReducedChain of a path; raises UndecidedEquality when
        the component group is not classified."""
        self._check_path(path)
        return self._chain(path.verts)

    def projection_chain(self, p):
        return ReducedChain(self.comp_of[p], int(p), int(p), ())

    def idempotent_chain(self, p, q):
        """The chain of the friendly pair (p, q); equals [[p]] when p = q."""
        key = (int(p), int(q))
        hit = self._idem_cache.get(key)
        if hit is None:
            hit = self.normalize(Path(self.algebra, key if p != q else (key[0],)))
            self._idem_cache[key] = hit
        return hit

    def expand(self, c):
        """A representative path: tree walk to dom, the word's loop, tree
        walk back to cod, reduced.  Memoized per chain."""
        hit = self._expand_cache.get(c)
        if hit is not None:
            return hit
        pres = self.components[c.comp].simplified
        out = reduce_path(Path(self.algebra, pres.walk(c.dom, c.word, c.cod)))
        self._expand_cache[c] = out
        return out

    # -- semigroup operations --------------------------------------------

    def product(self, c, d):
        """c (*) d: restrict both sides to the linking projections and
        concatenate.  The restrictions stay vertex tuples; the joined walk
        is checked once, which checks every step of both and the junction."""
        hit = self._prod_cache.get((c, d))
        if hit is not None:
            return hit
        T = self.algebra.rows
        p = c.cod
        q = d.dom
        p1 = T[p][q]               # q theta_p
        q1 = T[q][p]               # p theta_q
        left = _restrict(T, self.expand(c).verts[::-1], p1, "right")
        right = _restrict(T, self.expand(d).verts, q1, "left")
        out = self._chain(Path(self.algebra, left[::-1] + right).verts)
        self._prod_cache[(c, d)] = out
        return out

    def star(self, c):
        """Reversal: swap endpoints and invert the word."""
        hit = self._star_cache.get(c)
        if hit is not None:
            return hit
        inv = tuple(-l for l in reversed(c.word))
        out = ReducedChain(c.comp, c.cod, c.dom, self._canonical(c.comp, inv))
        self._star_cache[c] = out
        return out

    def theta_map(self, c):
        """The composite operation of the chain: row-fold of theta along a
        representative path, as an array mapping q -> q Theta_c."""
        T = self.algebra.theta
        verts = self.expand(c).verts
        return reduce(lambda m, p: T[p][m], verts, np.arange(self.algebra.size))

    # -- global structure --------------------------------------------------

    def component_group(self, p):
        return self.components[self.comp_of[p]].classification

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
        listed = self.enumerate(cap=total)
        if len(listed) != total:
            raise AssertionError(
                f"size formula {total} disagrees with closure {len(listed)}"
            )
        return total

    def _closure(self, cap):
        if cap < self.algebra.size:
            raise ValueError("cap smaller than the projection count")
        gens = [self.projection_chain(p) for p in range(self.algebra.size)]
        return right_cayley_closure(gens, gens, self.product, cap=cap)

    def enumerate(self, cap=100_000):
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
        ci = self.comp_of[p]
        raw = pi1_presentation(self.complex, ci, basepoint=int(p))
        return tietze_simplify(raw, budget=self.budget)

    def extend_morphism(self, S, phi):
        """Extend a projection-algebra morphism into the projections of S to
        a *-homomorphism on chains."""
        return StarMorphism(self, S, phi)


def star_semigroup_of(handle, cap=100_000):
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
    representative path."""

    def __init__(self, handle, S, phi):
        self.handle = handle
        self.S = S
        self.phi = np.asarray(phi, dtype=np.intp)
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
        for p, e, f, e1, f1 in zip(
                *(a.tolist() for a in _linked_pairs(P, handle.rel))):
            if self._eval_verts((e, e1, f)) != self._eval_verts((e, f1, f)):
                raise NotAMorphism(
                    "images of the identified paths differ at "
                    f"{LinkedPair(P, p, e, f)!r}"
                )

    def _eval_verts(self, verts):
        return self.S.product_of(int(self.phi[v]) for v in verts)

    def __call__(self, chain):
        return self._eval_verts(self.handle.expand(chain).verts)
