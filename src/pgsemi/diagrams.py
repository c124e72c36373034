"""Partition diagrams and the diagram monoids P_n, B_n, PB_n, TL_n, M_n.

A diagram of degree n is a set partition of the 2n points {1..n} u {1'..n'},
encoded on 0..2n-1 with point i-1 for i and n+i-1 for i'.  Blocks are sorted
tuples, the block list sorted by minimum, so equality and hashing are plain
structural comparisons.

Composition a*b stacks a over b, identifies a's primed row with b's unprimed
row, traces connections through the middle (union-find on 3n points), and
reads off the blocks on the outer 2n points.  The involution is the vertical
reflection (swap primed/unprimed).

Each family is built by ``generate_monoid`` from its standard generators
(East, "Generators and relations for partition monoids and algebras", J.
Algebra 2011), with the elements sorted by blocks.
"""

import itertools

from .errors import DegreeMismatch, InfeasibleDegree, InvalidArgument
from .semigroups import CAP, cayley_semigroup, right_cayley_closure

__all__ = [
    "PartitionDiagram",
    "identity_diagram",
    "tl_generators",
    "generate_monoid",
    "tl_monoid",
    "motzkin_monoid",
    "brauer_monoid",
    "partial_brauer_monoid",
    "partition_monoid",
]


def _canonical(blocks):
    bs = sorted(tuple(sorted(b)) for b in blocks)
    return tuple(bs)


class PartitionDiagram:
    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n, blocks):
        self.n = int(n)
        bs = _canonical(blocks)
        seen = [x for b in bs for x in b]
        if sorted(seen) != list(range(2 * self.n)):
            raise ValueError(
                f"blocks must partition 0..{2 * self.n - 1}, got {bs!r}"
            )
        self.blocks = bs
        self._hash = hash((self.n, bs))

    def __eq__(self, other):
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PartitionDiagram({self.n}, {self.label()})"

    def label(self):
        """Readable block string: upper points 1..n, lower 1'..n'."""
        parts = []
        for b in self.blocks:
            names = [str(x + 1) if x < self.n else f"{x - self.n + 1}'" for x in b]
            parts.append("{" + ",".join(names) + "}")
        return "".join(parts)

    def multiply(self, other):
        """Stack self over other and trace through the middle row."""
        if not isinstance(other, PartitionDiagram):
            raise TypeError("can only multiply diagrams")
        if self.n != other.n:
            raise DegreeMismatch(f"degrees {self.n} and {other.n} differ")
        n = self.n
        parent = list(range(3 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        # nodes: 0..n-1 outer top, n..2n-1 middle, 2n..3n-1 outer bottom.
        # self maps onto nodes x, other onto nodes x + n.
        for b in self.blocks:
            for x in b[1:]:
                union(b[0], x)
        for b in other.blocks:
            for x in b[1:]:
                union(b[0] + n, x + n)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        for j in range(n):
            groups.setdefault(find(2 * n + j), []).append(n + j)
        return PartitionDiagram(n, groups.values())

    def __mul__(self, other):
        return self.multiply(other)

    def star(self):
        """Vertical reflection: swap the primed and unprimed rows."""
        n = self.n
        return PartitionDiagram(
            n, [[x + n if x < n else x - n for x in b] for b in self.blocks]
        )

    def _positions(self):
        # boundary cycle 1, ..., n, n', ..., 1': upper i at i, lower i' at 2n-1-i
        n = self.n
        return [
            sorted(x if x < n else 2 * n - 1 - (x - n) for x in b)
            for b in self.blocks
        ]

    def is_planar(self):
        """True iff no two blocks interleave on the boundary cycle."""
        from bisect import bisect_left

        pos = self._positions()
        for a, b in itertools.combinations(pos, 2):
            if len(a) == 1 or len(b) == 1:
                continue
            gap = None
            crossed = False
            for x in b:
                g = bisect_left(a, x) % len(a)
                if gap is None:
                    gap = g
                elif g != gap:
                    crossed = True
                    break
            if crossed:
                return False
        return True


def identity_diagram(n):
    return PartitionDiagram(n, [[i, n + i] for i in range(n)])


def _local(n, *blocks):
    """The diagram with the given blocks, the identity on every other strand
    (points as in the module docstring)."""
    used = {x for b in blocks for x in b}
    rest = [[j, n + j] for j in range(n) if j not in used]
    return PartitionDiagram(n, list(blocks) + rest)


def tl_generators(n):
    """The diagrams for t_1, ..., t_{n-1}: t_i joins {i, i+1} on top,
    {i', (i+1)'} on the bottom, and is the identity elsewhere."""
    return [_local(n, [i, i + 1], [n + i, n + i + 1]) for i in range(n - 1)]


def _transpositions(n):
    """s_i crosses strands i and i+1."""
    return [_local(n, [i, n + i + 1], [i + 1, n + i]) for i in range(n - 1)]


def _cut(n, i):
    """p_i: the identity with {i} and {i'} as singletons."""
    return _local(n, [i], [n + i])


def generate_monoid(gens, cap=CAP):
    """The monoid generated by gens and their stars: the right Cayley
    closure of the identity under right multiplication by gens + stars (see
    :func:`~pgsemi.semigroups.right_cayley_closure`), with the table
    gathered from the Cayley graph.  Returns (StarSemigroup, elements) with
    elements sorted by blocks; raises CapExceeded past the cap."""
    gens = list(gens)
    if cap < 1:
        raise InvalidArgument("cap must be >= 1")
    degrees = {g.n for g in gens}
    if len(degrees) > 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degrees)}")
    n = degrees.pop() if degrees else 1
    # stars of generators are included so the star table stays in range
    mby = list(dict.fromkeys(gens + [g.star() for g in gens]))
    closure = right_cayley_closure(
        [identity_diagram(n)], mby, PartitionDiagram.multiply, cap=cap
    )
    return cayley_semigroup(
        closure, PartitionDiagram.star, lambda d: d.blocks,
        PartitionDiagram.label,
    )


def _family(n, gens, bound, name, allow_large):
    if n < 1:
        raise InfeasibleDegree(f"{name} needs n >= 1")
    if n > bound and not allow_large:
        raise InfeasibleDegree(
            f"{name} is limited to n <= {bound} by default (pass allow_large=True)"
        )
    return generate_monoid(gens(n))


def partition_monoid(n, allow_large=False):
    """All set partitions of the 2n points, generated by the s_i, p_1 and
    b_1, the identity except for the block {1, 2, 1', 2'}."""
    def gens(n):
        if n == 1:
            return [_cut(1, 0)]
        return _transpositions(n) + [_cut(n, 0), _local(n, [0, 1, n, n + 1])]

    return _family(n, gens, 4, "partition_monoid", allow_large)


def motzkin_monoid(n, allow_large=False):
    """Planar diagrams with blocks of size <= 2, generated by the t_i, every
    p_i and the l_i, which join i+1 to i' and cut i and (i+1)'."""
    def gens(n):
        lefts = [_local(n, [i + 1, n + i], [i], [n + i + 1])
                 for i in range(n - 1)]
        return tl_generators(n) + [_cut(n, i) for i in range(n)] + lefts

    return _family(n, gens, 4, "motzkin_monoid", allow_large)


def partial_brauer_monoid(n, allow_large=False):
    """All diagrams with blocks of size <= 2, generated by the t_i, the s_i
    and p_1."""
    return _family(
        n, lambda n: tl_generators(n) + _transpositions(n) + [_cut(n, 0)],
        4, "partial_brauer_monoid", allow_large,
    )


def brauer_monoid(n, allow_large=False):
    """All diagrams with blocks of size exactly 2, generated by the t_i and
    the s_i."""
    return _family(
        n, lambda n: tl_generators(n) + _transpositions(n), 6,
        "brauer_monoid", allow_large,
    )


def tl_monoid(n, allow_large=False):
    """Planar perfect matchings (Temperley-Lieb diagrams), generated by the
    t_i."""
    return _family(n, tl_generators, 6, "tl_monoid", allow_large)
