"""JSON and DOT serialization with deterministic output.

Schemas:

* projection algebra: {"size": n, "theta": [[...]], "labels": [...]?}
  with theta[p][q] = q theta_p;
* star semigroup: {"size": n, "mult": [[...]], "star": [...], "labels": ...?};
* graph: {"vertices": n, "edges": [[u, v], ...]};
* complex: {"vertices": n, "edges": [[u, v], ...],
            "cells": [{"boundary": [...], "kind": ...,
                       "pair": {"p": p, "e": e, "f": f} or null}, ...]};
* presentation: {"generators": g, "relators": [[...], ...], ...};
* chain: {"component": c, "dom": p, "cod": q, "word": [...]}.

All dumps use sorted keys and explicit separators so identical inputs give
byte-identical files.
"""

import json

import numpy as np

from .errors import MalformedTable
from .projections import ProjectionAlgebra
from .semigroups import AdjacencyGraph, StarSemigroup

__all__ = [
    "dumps",
    "algebra_to_dict",
    "algebra_from_dict",
    "load_algebra",
    "save_algebra",
    "semigroup_to_dict",
    "semigroup_from_dict",
    "load_semigroup",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "complex_to_dict",
    "complex_to_dot",
    "presentation_to_dict",
    "chain_to_dict",
    "boset_to_dict",
]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def algebra_to_dict(P):
    d = {"size": P.size, "theta": P.theta.tolist()}
    if P.labels is not None:
        d["labels"] = list(P.labels)
    return d


def _array(value, name, size=None):
    """A JSON list as an array of the dtype it holds, so that the table
    constructors' checks see non-integer entries; a bool is refused even
    among ints, which numpy reads as 0 or 1.  ``size`` fixes its shape."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise MalformedTable(f"{name} is not a rectangular array") from exc
    if any(type(x) is bool for x in np.asarray(value, dtype=object).flat):
        raise MalformedTable(f"{name} holds a boolean")
    if size is not None and (type(size) is bool or arr.shape != (size, size)):
        raise MalformedTable(f"{name} shape {arr.shape} is not {size}x{size}")
    return arr


def algebra_from_dict(d):
    try:
        theta = d["theta"]
        size = d["size"]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"missing field: {exc}") from exc
    return ProjectionAlgebra(_array(theta, "theta", size),
                             labels=d.get("labels"))


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedTable(f"{path}: {exc}") from exc


def load_algebra(path):
    return algebra_from_dict(_load_json(path))


def save_algebra(P, path):
    with open(path, "w") as fh:
        fh.write(dumps(algebra_to_dict(P)))
        fh.write("\n")


def semigroup_to_dict(S):
    d = {
        "size": S.size,
        "mult": S.mult.tolist(),
        "star": S.star.tolist(),
    }
    if S.labels is not None:
        d["labels"] = list(S.labels)
    return d


def semigroup_from_dict(d):
    try:
        mult = d["mult"]
        star = d["star"]
        size = d["size"]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"missing field: {exc}") from exc
    return StarSemigroup(_array(mult, "mult", size), _array(star, "star"),
                         labels=d.get("labels"))


def load_semigroup(path):
    return semigroup_from_dict(_load_json(path))


def graph_to_dict(G):
    return {
        "vertices": G.n,
        "edges": [[u, v] for u, v in sorted(G.edges) if u != v],
    }


def graph_from_dict(d):
    try:
        n = d["vertices"]
        edges = d["edges"]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"missing field: {exc}") from exc
    if not isinstance(edges, list):
        raise MalformedTable(f"edges {edges!r} is not a list")
    return AdjacencyGraph(n, edges)


def load_graph(path):
    return graph_from_dict(_load_json(path))


def complex_to_dict(c):
    return {
        "vertices": c.n,
        "edges": [[u, v] for u, v in c.edges],
        "cells": [
            {
                "boundary": list(cell.boundary),
                "kind": cell.kind,
                "pair": (dict(zip("pef", cell.pair))
                         if cell.pair is not None else None),
            }
            for cell in c.cells
        ],
    }


def complex_to_dot(c, comps, labeler=str):
    """DOT text with one cluster per connected component; cells listed as
    comments (faces go to the JSON sidecar)."""
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    edges = [[] for _ in comps]
    for u, v in c.edges:
        edges[where[u]].append(f"    n{u} -- n{v};")
    lines = ["graph complex {"]
    for i, comp in enumerate(comps):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {i}";')
        for v in comp:
            lines.append(f'    n{v} [label="{labeler(v)}"];')
        lines.extend(edges[i])
        lines.append("  }")
    for cell in c.cells:
        walk = ",".join(str(v) for v in cell.boundary)
        lines.append(f"  // cell {cell.kind}: {walk}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def presentation_to_dict(pres, classification=None):
    d = {
        "generators": pres.ngens,
        "relators": [list(r) for r in pres.relators],
        "basepoint": pres.basepoint,
        "generator_edges": [list(e) for e in pres.gen_edges],
    }
    if classification is not None:
        d["classification"] = {
            "kind": classification.kind,
            "order": classification.order,
            "rank": classification.rank,
            "abelianization": (
                {
                    "free_rank": classification.abelian[0],
                    "torsion": list(classification.abelian[1]),
                }
                if classification.abelian is not None
                else None
            ),
        }
    return d


def chain_to_dict(c):
    return {
        "component": c.comp,
        "dom": c.dom,
        "cod": c.cod,
        "word": list(c.word),
    }


def boset_to_dict(b):
    """Elements, arrow relations as index pairs, the basic products as
    row-major [i, j, k] with e_i e_j = e_k, and the star permutation."""
    basic = b.table >= 0
    return {
        "elements": [[p, q] for p, q in b.elements],
        "left": np.argwhere(b.left).tolist(),
        "right": np.argwhere(b.right).tolist(),
        "star": b.star.tolist(),
        "products": np.c_[np.argwhere(basic), b.table[basic]].tolist(),
    }
