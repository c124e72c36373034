"""Friendliness graph, the 2-complexes K and K', and their fundamental groups.

The 1-skeleton has the projections as vertices and an edge for every
distinct friendly pair.  K attaches a quad cell (e, e1, f, f1, e) for every
p-linked pair (boundaries collapsing below cyclic length 3 are dropped); K'
attaches triangles only for the non-degenerate special pairs: (e, f, f1, e)
for type 2 and (e, e1, f, e) for type 3.  Both take their cells straight
from the linked-pair arrays: K drops repeated vertices with an array mask,
K' classifies every pair as arrays, and a ``Cell`` holding its pair as the
int triple (p, e, f) is made only for a boundary kept.  ``Complex2`` checks
every boundary of every cell in one array pass.

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
from itertools import chain, islice, repeat
from math import gcd
from typing import NamedTuple

import numpy as np

from .chains import _classify_pairs, _is_id, _linked_pairs, _with_midpoints
from .cosets import BUDGET, enumerate_group, from_doubled, to_doubled
from .errors import BudgetExceeded, InvalidArgument, NotLinked
from .projections import relations, require_algebra

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


class Cell(NamedTuple):
    """A 2-cell: a closed boundary walk (last vertex = first), the linked
    pair (p, e, f) it came from as plain ints (None for a cell built by
    hand), and its kind."""

    boundary: tuple
    pair: tuple = None
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
        self.cells = tuple(cells)
        _check_boundaries(self.n, es, self.cells)
        self.algebra = algebra
        self._adjacency = None
        self._components = None

    def adjacency(self):
        if self._adjacency is None:
            self._adjacency = adj = {v: [] for v in range(self.n)}
            for u, v in self.edges:         # sorted, so each list is too
                adj[u].append(v)
                adj[v].append(u)
        return self._adjacency

    def __repr__(self):
        return (
            f"Complex2(vertices={self.n}, edges={len(self.edges)}, "
            f"cells={len(self.cells)})"
        )


def _check_boundaries(n, edges, cells):
    """Every cell boundary closes up and steps along edges, checked by one
    gather on the n x n adjacency mask over all boundaries laid end to end.
    The error names the first bad cell and, in it, the first bad step."""
    if not cells:
        return
    bounds = [c.boundary for c in cells]
    if not all(t is not bool and issubclass(t, (int, np.integer))
               for t in set(map(type, chain.from_iterable(bounds)))):
        raise ValueError("cell boundary vertices must be integers")
    lens = np.fromiter(map(len, bounds), np.intp, len(bounds))
    ends = np.cumsum(lens)
    flat = np.fromiter(chain.from_iterable(bounds), np.intp)
    ok = lens >= 2
    ok[ok] = flat[(ends - lens)[ok]] == flat[ends[ok] - 1]
    # n stands for every vertex outside 0..n-1: it is on no edge
    flat[(flat < 0) | (flat >= n)] = n
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    adj[u, v] = adj[v, u] = True
    # no step leaves a cell's last vertex
    step = np.append(adj[flat[:-1], flat[1:]], True)
    step[ends - 1] = True
    ok[np.searchsorted(ends, np.flatnonzero(~step), side="right")] = False
    if not ok.all():
        i = int(np.argmin(ok))
        b = bounds[i]
        if len(b) < 2 or b[0] != b[-1]:
            raise ValueError(f"cell boundary must close up: {b!r}")
        k = int(np.argmin(step[ends[i] - len(b):ends[i] - 1]))
        raise ValueError(f"cell boundary uses missing edge ({b[k]},{b[k + 1]})")


def friendliness_graph(P, rel=None):
    """Graph with an edge for every distinct friendly pair; no cells."""
    if rel is None:
        rel = relations(P)
    edges = map(tuple, np.argwhere(np.triu(rel.friendly, 1)).tolist())
    return Complex2(P.size, edges, (), algebra=P)


def _cells(P, pairs, bounds, kinds):
    """One cell per linked pair, row by row: ``pairs`` are the arrays
    (p, e, f, e1, f1), ``bounds`` the closed boundary tuples and ``kinds``
    the kinds.  Linkage is checked on every row; NotLinked names the first
    pair that fails it."""
    p, e, f, e1, f1 = pairs
    T = P.theta
    # K and K' pass linked rows only, so this guards any other caller
    bad = np.flatnonzero((T[f, e1] != f) | (T[e, f1] != e))
    if len(bad):
        i = bad[0]
        raise NotLinked(f"({e[i]}, {f[i]}) is not {p[i]}-linked")
    return list(map(Cell, bounds, zip(p.tolist(), e.tolist(), f.tolist()),
                    kinds))


def _quads(p, e, f, e1, f1):
    """The linked pairs that give quads, as arrays, and their closed
    boundaries.  The open cycle (e, e1, f, f1) keeps its first vertex and
    drops each vertex equal to the one before it, and its trailing vertices
    equal to the first; a pair left with fewer than 3 vertices gives no
    quad."""
    walk = np.stack([e, e1, f, f1, e], axis=1)
    wrap = np.logical_and.accumulate(walk[:, 3:0:-1] == walk[:, :1], axis=1)
    keep = np.ones(walk.shape, dtype=bool)
    keep[:, 1:4] = (walk[:, 1:4] != walk[:, :3]) & ~wrap[:, ::-1]
    size = keep.sum(axis=1)
    rows = np.flatnonzero(size >= 4)
    verts = iter(walk[rows][keep[rows]].tolist())
    bounds = [tuple(islice(verts, k)) for k in size[rows].tolist()]
    return [a[rows] for a in (p, e, f, e1, f1)], bounds


def complex_KP(P, rel=None):
    """The complex with a quad cell (e, e1, f, f1, e) per p-linked pair,
    repeated vertices dropped as :func:`_quads` says."""
    require_algebra(P)
    if rel is None:
        rel = relations(P)
    cells = _cells(P, *_quads(*_linked_pairs(P, rel)), repeat("quad"))
    return Complex2(P.size, friendliness_graph(P, rel).edges, cells, algebra=P)


def complex_KP_prime(P, rel=None, pairs=None):
    """The subcomplex with triangles only for non-degenerate special pairs:
    (e, f, f1, e) for type 2 and (e, e1, f, e) for type 3.

    Every linked pair (all of them, or ``pairs`` when given) is classified
    as arrays, with every check of ``classify_linked_pair``.  (e, f) and
    (f, e) describe the same triangle with opposite orientation: the first
    one in pair order is kept.
    """
    require_algebra(P)
    if rel is None:
        rel = relations(P)
    if pairs is None:
        arrays = _linked_pairs(P, rel)
    else:
        pef = np.array([(lp.p, lp.e, lp.f) for lp in pairs],
                       dtype=np.intp).reshape(-1, 3)
        bad = pef[((pef < 0) | (pef >= P.size)).any(axis=1)].tolist()
        if bad:
            raise InvalidArgument(f"pair (p, e, f) = {bad[0]} is out of range")
        arrays = _with_midpoints(P.theta, *pef.T)
    special, degenerate, ntype = _classify_pairs(P, *arrays)
    kept = np.flatnonzero(special & ~degenerate)
    p, e, f = (a[kept] for a in arrays[:3])
    n = P.size
    key = (p * n + np.minimum(e, f)) * n + np.maximum(e, f)
    kept = kept[np.sort(np.unique(key, return_index=True)[1])]
    p, e, f, e1, f1 = (a[kept] for a in arrays)
    # a special non-degenerate pair is of type 2 or 3
    two = ntype[kept] == 2
    es = e.tolist()
    bounds = zip(es, np.where(two, f, e1).tolist(),
                 np.where(two, f1, f).tolist(), es)
    kinds = ["triangle2" if t else "triangle3" for t in two.tolist()]
    cells = _cells(P, (p, e, f, e1, f1), bounds, kinds)
    return Complex2(P.size, friendliness_graph(P, rel).edges, cells, algebra=P)


def components(c):
    """Connected components of the 1-skeleton as sorted vertex lists,
    ordered by smallest vertex.  Asserts no cell spans components.
    Computed once per complex; callers must not mutate the lists."""
    if c._components is None:
        c._components = _components(c)
    return c._components


def _components(c):
    adj = c.adjacency()
    comp_of = [-1] * c.n
    comps = []
    for start in range(c.n):
        if comp_of[start] < 0:
            comp_of[start] = len(comps)
            comp = [start]
            for v in comp:          # grows as the search reaches vertices
                for w in adj[v]:
                    if comp_of[w] < 0:
                        comp_of[w] = len(comps)
                        comp.append(w)
            comps.append(sorted(comp))
    for cell in c.cells:
        if len({comp_of[v] for v in cell.boundary}) != 1:
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


def _least_rotation(word):
    """The least rotation of a word, in O(len) steps (Booth 1980): f is the
    failure function of the doubled word read from the best start k."""
    s = word + word
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        x = s[j]
        i = f[j - k - 1]
        while i != -1 and x != s[k + i + 1]:
            if x < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if x == s[k + i + 1]:
            f[j - k] = i + 1
        else:                        # here i == -1
            if x < s[k]:
                k = j
            f[j - k] = -1
    return s[k:k + len(word)]


def _canonical_cyclic(word):
    """Smallest rotation over a non-empty word and its inverse, for
    dedup."""
    inv = tuple(-l for l in reversed(word))
    return min(_least_rotation(word), _least_rotation(inv))


@dataclass
class GroupPresentation:
    """pi1 presentation data for one component.

    Letters are 1-based and signed: +i / -i refer to generator i-1.  Each
    generator names a non-tree edge (u, v), oriented u -> v with u < v.
    The spanning tree stays attached so words can be decoded back into
    walks: ``tree_paths[v]`` is the vertex tuple from the basepoint to v
    along the tree.  ``edge_words[(a, b)]`` is the word the step a -> b
    spells, for every directed edge of the component; ``edge_words[(b,
    a)]`` is its inverse.
    """

    ngens: int
    relators: tuple
    gen_edges: tuple = ()
    basepoint: int = None
    tree_paths: dict = field(default_factory=dict)
    vertices: tuple = ()
    edge_words: dict = field(default_factory=dict)

    def tree_path(self, v):
        """Vertex tuple from the basepoint to v along the tree."""
        return self.tree_paths[v]

    def word_of(self, verts):
        """The freely reduced word a walk spells, reduced as it is read (a
        step v -> v spells nothing); raises KeyError on a step that is not
        an edge of the component.  As the words of a -> b and b -> a
        are inverse, a walk spells the same word as its reduced form."""
        ew = self.edge_words
        out = []
        steps = iter(verts)
        a = next(steps, None)
        for b in steps:
            if a != b:
                for l in ew[a, b]:
                    if out and out[-1] == -l:
                        out.pop()
                    else:
                        out.append(l)
                a = b
        return tuple(out)

    def walk(self, dom, word, cod):
        """A walk from dom to cod spelling ``word``: tree walk to the
        basepoint, one loop through each letter's edge, tree walk to cod."""
        paths = self.tree_paths
        verts = list(paths[dom][::-1])                 # dom -> base
        for l in word:
            u, v = self.gen_edges[abs(l) - 1]
            if l < 0:
                u, v = v, u
            # walk base -> u, cross to v, walk v -> base
            verts += paths[u][1:]
            verts.append(v)
            verts += paths[v][-2::-1]
        verts += paths[cod][1:]
        return verts


def pi1_presentation(c, component, basepoint=None):
    """Spanning-tree presentation of pi1 of one component of the complex.

    ``component`` is either an index into components(c), an int or numpy
    int in 0..len(components(c))-1, or an iterable of vertices; anything
    else is a ValueError.  The tree is breadth-first from the basepoint
    (default: the smallest vertex); non-tree edges in sorted order give the
    generators.
    """
    comps = components(c)
    if _is_id(component) and 0 <= component < len(comps):
        comp = comps[component]
    else:
        comp = sorted(map(int, component)) if np.iterable(component) else None
        if comp not in comps:
            raise ValueError("not a component of the complex")
    if basepoint is None:
        basepoint = comp[0]
    if basepoint not in comp:
        raise ValueError(f"basepoint {basepoint} not in component")
    adj = c.adjacency()
    paths = {basepoint: (basepoint,)}
    order = [basepoint]
    for v in order:                 # grows as the search reaches vertices
        for w in adj[v]:
            if w not in paths:
                paths[w] = paths[v] + (w,)
                order.append(w)
    steps = [path[-2:] for path in paths.values() if len(path) > 1]
    tree_edges = {(min(step), max(step)) for step in steps}
    comp_set = set(comp)
    nontree = [
        e for e in c.edges if e[0] in comp_set and e not in tree_edges
    ]
    edge_words = {}
    for p, v in steps:
        edge_words[(v, p)] = edge_words[(p, v)] = ()
    for i, (u, v) in enumerate(nontree):
        edge_words[(u, v)] = (i + 1,)
        edge_words[(v, u)] = (-(i + 1),)
    pres = GroupPresentation(
        ngens=len(nontree),
        relators=(),
        gen_edges=tuple(nontree),
        basepoint=basepoint,
        tree_paths=paths,
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

    kind: 'trivial' | 'free' | 'finite' | 'unknown'.  ``abelian`` is the
    abelianization as (free rank, invariant factors above 1) from
    ``abelian_invariants``, filled in for every kind.  ``enumeration``
    holds the completed coset table for finite groups.
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
    """(free rank, torsion tuple) of the abelianized group.

    The exponent-sum matrix, one row per relator, is diagonalized by exact
    integer elimination (Sims 1994, ch. 8): a smallest nonzero entry
    reduces its column and its row, a smaller remainder becomes the next
    pivot, and a pivot left alone in its row and column is a diagonal
    entry.  Pairwise gcd and lcm turn the diagonal into the invariant
    factors d1 | d2 | ...; the torsion is those above 1, in that order.
    """
    rows = [[0] * ngens for _ in relators]
    for row, r in zip(rows, relators):
        for l in r:
            row[abs(l) - 1] += 1 if l > 0 else -1
    diag = []
    while any(map(any, rows)):
        _, i, j = min((abs(x), i, j) for i, row in enumerate(rows)
                      for j, x in enumerate(row) if x)
        prow = rows.pop(i)
        piv = prow[j]
        for row in rows:                  # row operations on column j
            q = row[j] // piv
            row[:] = [a - q * b for a, b in zip(row, prow)]
        for c in range(len(prow)):        # column operations on row i
            q = prow[c] // piv if c != j else 0
            for row in rows + [prow]:
                row[c] -= q * row[j]
        if any(row[j] for row in rows) or any(prow[:j] + prow[j + 1:]):
            rows.append(prow)
            continue
        diag.append(abs(piv))
        for row in rows:
            del row[j]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] * diag[b] // g
    return (ngens - len(diag), tuple(d for d in diag if d != 1))


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


def tietze_simplify(g, budget=BUDGET):
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
    latest first, to rewrite each edge's word over them, once per edge:
    the reverse step gets the inverse word.
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

    edge_words = {}
    for (a, b), w in g.edge_words.items():
        back = edge_words.get((b, a))
        edge_words[a, b] = (rename(free_reduce(_substitute(w, defs)))
                            if back is None
                            else tuple(-l for l in reversed(back)))
    simplified = GroupPresentation(
        ngens=len(kept),
        relators=tuple(rename(rels[p]) for p in sorted(rels)),
        gen_edges=tuple(g.gen_edges[a - 1] for a in kept) if g.gen_edges else (),
        basepoint=g.basepoint,
        tree_paths=g.tree_paths,
        vertices=g.vertices,
        edge_words=edge_words,
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
