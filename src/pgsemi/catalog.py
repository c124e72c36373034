"""Named example algebras and source-string parsing shared by CLI and tests.

Sources:

    kinyon          the 4-element algebra {p, q, r, e} with theta_e folding
                    r onto q (everything else constant)
    band:<k>        the k x k square band algebra: theta_p constant at p
    tl:<n>          projections of the Temperley-Lieb monoid TL_n
    motzkin:<n>     projections of the Motzkin monoid M_n
    brauer:<n>      projections of the Brauer monoid B_n
    partition:<n>   projections of the partition monoid P_n
    adjacency:<f>   projections of the adjacency semigroup of the graph in
                    the JSON file f
    <file.json>     a projection algebra table from a JSON file
"""

from dataclasses import dataclass

import numpy as np

from .diagrams import (
    brauer_monoid,
    motzkin_monoid,
    partial_brauer_monoid,
    partition_monoid,
    tl_monoid,
)
from .errors import PgsemiError
from .projections import ProjectionAlgebra
from .semigroups import AdjacencyGraph, adjacency_semigroup, projection_algebra_of

__all__ = [
    "kinyon_algebra",
    "square_band_algebra",
    "AlgebraBundle",
    "diagram_algebra",
    "adjacency_algebra",
    "random_adjacency_graph",
    "parse_source",
]


@dataclass
class AlgebraBundle:
    """An algebra plus, when it came from a semigroup, that semigroup and
    the embedding projection-id -> element-id."""

    name: str
    algebra: ProjectionAlgebra
    semigroup: object = None
    embed: list = None


def kinyon_algebra():
    """Four projections p, q, r, e; theta_p/q/r are constant and theta_e
    fixes p, q, e but sends r to q."""
    theta = [
        [0, 0, 0, 0],
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [0, 1, 1, 3],
    ]
    return ProjectionAlgebra(theta, labels=["p", "q", "r", "e"])


def square_band_algebra(k):
    """theta_p is constant at p for every p."""
    if k < 1:
        raise ValueError("band size must be >= 1")
    theta = np.repeat(np.arange(k, dtype=np.int32)[:, None], k, axis=1)
    return ProjectionAlgebra(theta)


_FAMILIES = {
    "tl": tl_monoid,
    "motzkin": motzkin_monoid,
    "brauer": brauer_monoid,
    "partial_brauer": partial_brauer_monoid,
    "partition": partition_monoid,
}


def diagram_algebra(family, n, allow_large=False):
    """Bundle for the projection algebra of a diagram monoid."""
    S, _ = _FAMILIES[family](n, allow_large=allow_large)
    P, embed = projection_algebra_of(S)
    return AlgebraBundle(name=f"{family}:{n}", algebra=P, semigroup=S,
                         embed=embed)


def adjacency_algebra(G, name="adjacency"):
    S = adjacency_semigroup(G)
    P, embed = projection_algebra_of(S)
    return AlgebraBundle(name=name, algebra=P, semigroup=S, embed=embed)


def random_adjacency_graph(rng, max_vertices=6, min_vertices=2):
    """A random reflexive symmetric graph, for seeded property fleets."""
    n = int(rng.integers(min_vertices, max_vertices + 1))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v))
    return AdjacencyGraph(n, edges)


def parse_source(spec, allow_large=False):
    """Turn a source string into an AlgebraBundle."""
    from . import serialize

    if spec == "kinyon":
        return AlgebraBundle(name="kinyon", algebra=kinyon_algebra())
    if ":" in spec:
        head, _, arg = spec.partition(":")
        try:
            if head == "band":
                return AlgebraBundle(
                    name=spec, algebra=square_band_algebra(int(arg))
                )
            if head in _FAMILIES:
                return diagram_algebra(head, int(arg),
                                       allow_large=allow_large)
        except ValueError as exc:
            raise PgsemiError(f"bad source {spec!r}: {exc}") from exc
        if head == "adjacency":
            G = serialize.load_graph(arg)
            return adjacency_algebra(G, name=spec)
        raise PgsemiError(f"unknown source {spec!r}")
    P = serialize.load_algebra(spec)
    return AlgebraBundle(name=spec, algebra=P)
