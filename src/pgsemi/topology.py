"""Friendliness graph, the 2-complexes K and K', and their fundamental groups.

The 1-skeleton has the projections as vertices and an edge for every
distinct friendly pair.  K attaches a quad cell (e, e1, f, f1, e) for every
p-linked pair (boundaries collapsing below cyclic length 3 are dropped); K'
attaches triangles only for the non-degenerate special pairs: (e, f, f1, e)
for type 2 and (e, e1, f, e) for type 3.  K' classifies every linked pair
as arrays and builds ``LinkedPair`` and ``Cell`` objects only for the
triangles it keeps.

Per component, pi1 is presented off a breadth-first spanning tree: one
generator per non-tree edge (oriented low-to-high), one relator per cell.
Each presentation also carries the word every directed edge spells, so a
walk encodes to a word and a word decodes to a walk.  Tietze simplification
plus a bounded coset enumeration classify each group as trivial, free,
finite, or unknown; the classification gives canonical words whenever it is
decisive.  Simplification keeps its relators clean after every move (each
cyclically reduced, no two equal up to rotation and inversion), so an
elimination re-cleans only the relators that contain the eliminated
generator.
"""

import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form

from .chains import (
    LinkedPair,
    _classify_pairs,
    _linked_pairs,
    _with_midpoints,
    enumerate_linked_pairs,
)
from .cosets import enumerate_group, from_doubled, to_doubled
from .errors import BudgetExceeded
from .projections import relations

__all__ = [
    "Cell",
    "Complex2",
    "GroupPresentation",
    "Classification",
    "friendliness_graph",
    "complex_KP",
    "complex_KP_prime",
    "components",
    "pi1_presentation",
    "tietze_simplify",
    "free_reduce",
]

# Tietze simplification stops after this many eliminations
MAX_ELIMINATIONS = 10_000


@dataclass(frozen=True)
class Cell:
    """A 2-cell: closed boundary walk (last vertex = first) and the linked
    pair it came from."""

    boundary: tuple
    pair: object = None
    kind: str = "quad"


class Complex2:
    """Vertices 0..n-1, undirected edges between distinct vertices, cells.

    Immutable after construction: the adjacency lists and the components
    are computed once, on first use, and shared by every caller, who must
    not mutate them."""

    __slots__ = ("n", "edges", "cells", "algebra", "_adjacency", "_components")

    def __init__(self, n, edges, cells=(), algebra=None):
        self.n = int(n)
        es = sorted({(min(u, v), max(u, v)) for u, v in edges})
        for u, v in es:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge ({u}, {v})")
        self.edges = tuple(es)
        eset = set(es)
        for c in cells:
            b = c.boundary
            if len(b) < 2 or b[0] != b[-1]:
                raise ValueError(f"cell boundary must close up: {b!r}")
            for a, bb in zip(b, b[1:]):
                if (min(a, bb), max(a, bb)) not in eset:
                    raise ValueError(f"cell boundary uses missing edge ({a},{bb})")
        self.cells = tuple(cells)
        self.algebra = algebra
        self._adjacency = None
        self._components = None

    @property
    def vertices(self):
        return tuple(range(self.n))

    def adjacency(self):
        if self._adjacency is None:
            adj = {v: [] for v in range(self.n)}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adjacency = {v: sorted(ws) for v, ws in adj.items()}
        return self._adjacency

    def __repr__(self):
        return (
            f"Complex2(vertices={self.n}, edges={len(self.edges)}, "
            f"cells={len(self.cells)})"
        )


def friendliness_graph(P, rel=None):
    """Graph with an edge for every distinct friendly pair; no cells."""
    if rel is None:
        rel = relations(P)
    edges = map(tuple, np.argwhere(np.triu(rel.friendly, 1)).tolist())
    return Complex2(P.size, edges, (), algebra=P)


def _cyclic_dedup(walk):
    """Remove repeated consecutive vertices from an open cycle, including
    across the wraparound."""
    out = []
    for v in walk:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def complex_KP(P, rel=None):
    """The complex with a quad cell (e, e1, f, f1, e) per p-linked pair."""
    if rel is None:
        rel = relations(P)
    g = friendliness_graph(P, rel)
    cells = []
    for lp in enumerate_linked_pairs(P, rel):
        cyc = _cyclic_dedup([lp.e, lp.e1, lp.f, lp.f1])
        if len(cyc) < 3:
            continue
        cells.append(Cell(tuple(cyc) + (cyc[0],), pair=lp, kind="quad"))
    return Complex2(P.size, g.edges, cells, algebra=P)


def complex_KP_prime(P, rel=None, pairs=None):
    """The subcomplex with triangles only for non-degenerate special pairs.

    Every linked pair (all of them, or ``pairs`` when given) is classified
    as arrays, with every check of ``classify_linked_pair``; ``LinkedPair``
    and ``Cell`` objects are built only for the triangles kept.  (e, f) and
    (f, e) describe the same triangle with opposite orientation: the first
    one in pair order is kept.
    """
    if rel is None:
        rel = relations(P)
    g = friendliness_graph(P, rel)
    if pairs is None:
        arrays = _linked_pairs(P, rel)
    else:
        pef = np.array([(lp.p, lp.e, lp.f) for lp in pairs], dtype=np.intp)
        arrays = _with_midpoints(P.theta, *pef.reshape(-1, 3).T)
    special, degenerate, ntype = _classify_pairs(P, *arrays)
    kept = np.flatnonzero(special & ~degenerate)
    cells = []
    seen = set()
    for p, e, f, e1, f1, t in zip(*(a[kept].tolist()
                                    for a in (*arrays, ntype))):
        key = (p, min(e, f), max(e, f))
        if key in seen:
            continue
        seen.add(key)
        lp = LinkedPair(P, p, e, f)
        # a special non-degenerate pair is of type 2 or 3
        if t == 2:
            cells.append(Cell((e, f, f1, e), pair=lp, kind="triangle2"))
        else:
            cells.append(Cell((e, e1, f, e), pair=lp, kind="triangle3"))
    return Complex2(P.size, g.edges, cells, algebra=P)


def components(c):
    """Connected components of the 1-skeleton as sorted vertex lists,
    ordered by smallest vertex.  Asserts no cell spans components.
    Computed once per complex; callers must not mutate the lists."""
    if c._components is None:
        c._components = _components(c)
    return c._components


def _components(c):
    adj = c.adjacency()
    seen = [False] * c.n
    comps = []
    for start in range(c.n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    where = {}
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    for cell in c.cells:
        ids = {where[v] for v in cell.boundary}
        if len(ids) != 1:
            raise AssertionError(f"cell {cell.boundary!r} spans components")
    return comps


def free_reduce(word):
    """Cancel adjacent inverse letters in a signed-index word."""
    out = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _cyclic_reduce(word):
    w = free_reduce(word)
    i = 0
    while 2 * i + 2 <= len(w) and w[i] == -w[-1 - i]:
        i += 1
    return w[i:len(w) - i]


def _canonical_cyclic(word):
    """Smallest rotation over a non-empty word and its inverse, for
    dedup."""
    inv = tuple(-l for l in reversed(word))
    return min(w[i:] + w[:i] for w in (word, inv) for i in range(len(w)))


@dataclass
class GroupPresentation:
    """pi1 presentation data for one component.

    Letters are 1-based and signed: +i / -i refer to generator i-1.  Each
    generator names a non-tree edge (u, v), oriented u -> v with u < v.
    Tree metadata (basepoint, parent map) stays attached so words can be
    decoded back into walks; ``edge_words[(a, b)]`` is the word the step
    a -> b spells, for every directed edge of the component.
    """

    ngens: int
    relators: tuple
    gen_edges: tuple = ()
    basepoint: int = None
    tree_parent: dict = field(default_factory=dict)
    vertices: tuple = ()
    edge_words: dict = field(default_factory=dict)

    def tree_path(self, v):
        """Vertex sequence from the basepoint to v along the tree."""
        path = [v]
        while path[-1] != self.basepoint:
            path.append(self.tree_parent[path[-1]])
        return path[::-1]

    def word_of(self, verts):
        """The freely reduced word a walk spells; raises KeyError on a step
        that is not an edge of the component."""
        ew = self.edge_words
        return free_reduce(
            [l for step in zip(verts, verts[1:]) for l in ew[step]])

    def walk(self, dom, word, cod):
        """A walk from dom to cod spelling ``word``: tree walk to the
        basepoint, one loop through each letter's edge, tree walk to cod."""
        verts = self.tree_path(dom)[::-1]              # dom -> base
        for l in word:
            u, v = self.gen_edges[abs(l) - 1]
            if l < 0:
                u, v = v, u
            # walk base -> u, cross to v, walk v -> base
            verts.extend(self.tree_path(u)[1:])
            verts.append(v)
            verts.extend(self.tree_path(v)[::-1][1:])
        verts.extend(self.tree_path(cod)[1:])
        return verts


def pi1_presentation(c, component, basepoint=None):
    """Spanning-tree presentation of pi1 of one component of the complex.

    ``component`` is either an index into components(c) or an iterable of
    vertices.  The tree is breadth-first from the basepoint (default: the
    smallest vertex); non-tree edges in sorted order give the generators.
    """
    comps = components(c)
    if isinstance(component, int):
        comp = comps[component]
    else:
        comp = sorted(int(v) for v in component)
        if comp not in comps:
            raise ValueError("not a component of the complex")
    if basepoint is None:
        basepoint = comp[0]
    if basepoint not in comp:
        raise ValueError(f"basepoint {basepoint} not in component")
    adj = c.adjacency()
    parent = {basepoint: None}
    order = [basepoint]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    tree_parent = {v: p for v, p in parent.items() if p is not None}
    tree_edges = {(min(v, p), max(v, p)) for v, p in tree_parent.items()}
    comp_set = set(comp)
    nontree = [
        e for e in c.edges if e[0] in comp_set and e not in tree_edges
    ]
    edge_words = {}
    for v, p in tree_parent.items():
        edge_words[(v, p)] = edge_words[(p, v)] = ()
    for i, (u, v) in enumerate(nontree):
        edge_words[(u, v)] = (i + 1,)
        edge_words[(v, u)] = (-(i + 1),)
    pres = GroupPresentation(
        ngens=len(nontree),
        relators=(),
        gen_edges=tuple(nontree),
        basepoint=basepoint,
        tree_parent=tree_parent,
        vertices=tuple(comp),
        edge_words=edge_words,
    )
    words = (pres.word_of(cell.boundary) for cell in c.cells
             if cell.boundary[0] in comp_set)
    pres.relators = tuple(w for w in words if w)
    return pres


@dataclass
class Classification:
    """Group classification report.

    kind: 'trivial' | 'free' | 'finite' | 'unknown'.  ``abelian`` is
    (free rank, torsion invariants) from the Smith normal form and is
    filled in for every kind.  ``enumeration`` holds the completed coset
    table for finite groups.
    """

    kind: str
    order: int = None
    rank: int = None
    abelian: tuple = None
    enumeration: object = None

    def __str__(self):
        if self.kind == "free":
            return f"free(rank {self.rank})"
        if self.kind == "finite":
            return f"finite(order {self.order})"
        if self.kind == "unknown":
            return f"unknown(abelianization {self.abelian})"
        return self.kind

    @property
    def decisive(self):
        return self.kind in ("trivial", "free", "finite")

    def normalize(self, word):
        """Canonical form of a word over the simplified generators, or
        None when the group is not classified."""
        if self.kind == "trivial":
            return ()
        if self.kind == "free":
            return free_reduce(word)
        if self.kind == "finite":
            enum = self.enumeration
            return from_doubled(enum.reps[enum.act(0, to_doubled(word))])
        return None


def abelian_invariants(ngens, relators):
    """(free rank, torsion tuple) of the abelianized group via Smith
    normal form of the exponent matrix."""
    if ngens == 0:
        return (0, ())
    if not relators:
        return (ngens, ())
    M = np.zeros((len(relators), ngens), dtype=np.int64)
    for i, r in enumerate(relators):
        for l in r:
            M[i, abs(l) - 1] += 1 if l > 0 else -1
    sm = smith_normal_form(sympy.Matrix(M.tolist()), domain=sympy.ZZ)
    diag = [abs(int(sm[i, i])) for i in range(min(sm.shape))]
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d != 1)
    return (ngens - len(nonzero), torsion)


def _substitute(word, defs):
    """Replace each letter whose generator is keyed in ``defs`` by that
    generator's word, inverted for a negative letter."""
    out = []
    for l in word:
        rep = defs.get(abs(l))
        if rep is None:
            out.append(l)
        else:
            out.extend(rep if l > 0 else [-x for x in reversed(rep)])
    return out


def tietze_simplify(g, budget=50_000):
    """Simplify a presentation and classify its group.

    Relators are held by input position and kept clean by ``place``: each
    is cyclically reduced and non-empty, and no two are equal up to
    rotation and inversion (on a collision the earlier position wins).
    Each round takes the shortest, then lexicographically smallest,
    relator with a generator occurring exactly once in it and eliminates
    its smallest such generator: the generator's word is substituted only
    into the relators that contain it, and only those are re-placed.
    Rounds stop when no relator qualifies or after MAX_ELIMINATIONS.
    Survivors keep their input order; the eliminations are resolved once,
    latest first, to rewrite each edge word over them.
    Classification: 0 generators -> trivial; no relators -> free(rank);
    completed coset enumeration -> finite(order); otherwise unknown with
    abelianization attached.
    """
    rels = {}                     # position -> clean relator
    keys = {}                     # position -> canonical key
    owner = {}                    # canonical key -> position holding it
    occ = {a: set() for a in range(1, g.ngens + 1)}  # gen -> positions
    heap = []      # (length, relator, position, its smallest single gen)

    def drop(pos):
        w = rels.pop(pos)
        del owner[keys.pop(pos)]
        for a in set(map(abs, w)):
            occ[a].discard(pos)
        return w

    def place(pos, word):
        w = _cyclic_reduce(word)
        if not w:
            return
        key = _canonical_cyclic(w)
        other = owner.get(key)
        if other is not None:
            if other < pos:
                return
            drop(other)
        rels[pos] = w
        keys[pos] = key
        owner[key] = pos
        counts = Counter(map(abs, w))
        for a in counts:
            occ[a].add(pos)
        singles = [a for a, k in counts.items() if k == 1]
        if singles:
            heapq.heappush(heap, (len(w), w, pos, min(singles)))

    for pos, r in enumerate(g.relators):
        place(pos, r)
    eliminated = []               # (gen, its word when eliminated)
    while len(eliminated) < MAX_ELIMINATIONS:
        while heap and rels.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)   # stale: its position was re-placed
        if not heap:
            break
        _, r, idx, gen = heapq.heappop(heap)
        drop(idx)
        i = next(i for i, l in enumerate(r) if abs(l) == gen)
        # r[i] * rest = 1 up to rotation, so gen = rest^-1 or rest
        rest = r[i + 1:] + r[:i]
        rep = tuple(-x for x in reversed(rest)) if r[i] > 0 else rest
        eliminated.append((gen, rep))
        touched = list(occ[gen])
        words = [drop(p) for p in touched]
        for p, w in zip(touched, words):
            place(p, _substitute(w, {gen: rep}))

    defs = {}
    for gen, rep in reversed(eliminated):
        defs[gen] = free_reduce(_substitute(rep, defs))
    kept = [a for a in range(1, g.ngens + 1) if a not in defs]
    renum = {s * a: s * (i + 1) for i, a in enumerate(kept) for s in (1, -1)}

    def rename(word):
        return tuple(renum[l] for l in word)

    simplified = GroupPresentation(
        ngens=len(kept),
        relators=tuple(rename(rels[p]) for p in sorted(rels)),
        gen_edges=tuple(g.gen_edges[a - 1] for a in kept) if g.gen_edges else (),
        basepoint=g.basepoint,
        tree_parent=g.tree_parent,
        vertices=g.vertices,
        edge_words={e: rename(free_reduce(_substitute(w, defs)))
                    for e, w in g.edge_words.items()},
    )

    ab = abelian_invariants(simplified.ngens, simplified.relators)
    if simplified.ngens == 0:
        cls = Classification(kind="trivial", order=1, abelian=(0, ()))
    elif not simplified.relators:
        cls = Classification(kind="free", rank=simplified.ngens, abelian=ab)
    elif ab[0] >= 1:
        # infinite abelianization: coset enumeration cannot terminate
        cls = Classification(kind="unknown", abelian=ab)
    else:
        try:
            enum = enumerate_group(
                simplified.ngens, simplified.relators, budget=budget
            )
            if enum.size == 1:
                cls = Classification(kind="trivial", order=1, abelian=ab,
                                     enumeration=enum)
            else:
                cls = Classification(kind="finite", order=enum.size,
                                     abelian=ab, enumeration=enum)
        except BudgetExceeded:
            cls = Classification(kind="unknown", abelian=ab)
    return simplified, cls
