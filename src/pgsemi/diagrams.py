"""Partition diagrams and the diagram monoids P_n, B_n, PB_n, TL_n, M_n.

A diagram of degree n is a set partition of the 2n points {1..n} u {1'..n'},
encoded on 0..2n-1 with point i-1 for i and n+i-1 for i'.  It is stored as
``block_of``, the tuple of each point's block number, with the blocks numbered
in order of their least points; that tuple is canonical, so equality and
hashing compare it.  Only the public constructor checks its input.

Composition a*b stacks a over b, identifies a's primed row with b's unprimed
row, merges the blocks that meet there (union-find on at most 4n block
numbers over the n middle points), and relabels the 2n outer points.  The
involution is the vertical reflection, which swaps the halves of the tuple.

Each family is built by ``generate_monoid`` from its standard generators
(East, "Generators and relations for partition monoids and algebras", J.
Algebra 2011), with the elements sorted by blocks.
"""

import itertools

from .chains import _is_id
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


class PartitionDiagram:
    __slots__ = ("n", "block_of", "_hash")

    def __init__(self, n, blocks):
        """Checks that blocks, non-empty and of integers, partition 0..2n-1."""
        blocks = [list(b) for b in blocks]
        points = [(x, k) for k, b in enumerate(blocks) for x in b]
        if not (_is_id(n) and n >= 0 and all(blocks)
                and all(_is_id(x) for x, _ in points)
                and sorted(x for x, _ in points) == list(range(2 * n))):
            raise InvalidArgument(
                f"blocks {blocks!r} do not partition 0..2n-1 for n = {n!r}")
        self._relabel(int(n), [k for _, k in sorted(points)])

    def _relabel(self, n, labels):
        """Unchecked: point x in block labels[x], renumbered by least point."""
        self.n, new = n, {}
        self.block_of = tuple([new.setdefault(k, len(new)) for k in labels])
        self._hash = hash(self.block_of)
        return self

    @property
    def blocks(self):
        """The blocks as sorted tuples, ordered by least point."""
        bs = {}
        for x, k in enumerate(self.block_of):
            bs.setdefault(k, []).append(x)
        return tuple(map(tuple, bs.values()))

    def __eq__(self, other):
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return self.block_of == other.block_of

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
        """Stack self over other; blocks meeting at a middle point merge."""
        if not isinstance(other, PartitionDiagram):
            raise TypeError("can only multiply diagrams")
        if self.n != other.n:
            raise DegreeMismatch(f"degrees {self.n} and {other.n} differ")
        n, a, b = self.n, self.block_of, other.block_of
        # self's block k is node k, other's is node 2n + k; a root is the
        # least node of its set, so one ascending pass resolves every node
        root = list(range(4 * n))
        for x, y in zip(a[n:], b[:n]):
            y += 2 * n
            while root[x] != x:
                x = root[x]
            while root[y] != y:
                y = root[y]
            root[max(x, y)] = min(x, y)
        for k in range(4 * n):
            root[k] = root[root[k]]
        ids = [root[k] for k in a[:n]] + [root[2 * n + k] for k in b[n:]]
        return object.__new__(PartitionDiagram)._relabel(n, ids)

    __mul__ = multiply

    def star(self):
        """Vertical reflection: swap the primed and unprimed rows."""
        n, b = self.n, self.block_of
        return object.__new__(PartitionDiagram)._relabel(n, b[n:] + b[:n])

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
    :func:`~pgsemi.semigroups.right_cayley_closure`), with the table filled
    by rows from the Cayley graph.  Returns (StarSemigroup, elements) with
    elements sorted by blocks; raises CapExceeded past the cap."""
    gens = list(gens)
    degrees = {g.n for g in gens}
    if len(degrees) > 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degrees)}")
    n = degrees.pop() if degrees else 1
    # the stars keep the star table in range and give the fill a left action
    mby = list(dict.fromkeys(gens + [g.star() for g in gens]))
    closure = right_cayley_closure([identity_diagram(n)], mby, lambda xs: (
        x.multiply(g) for x in xs for g in mby), cap=cap)
    return cayley_semigroup(closure, mby, PartitionDiagram.star,
                            lambda d: d.blocks, PartitionDiagram.label)


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
