"""JSON round trips, determinism, DOT rendering, malformed input."""

import json

import numpy as np
import pytest

from pgsemi.boset import boset_of
from pgsemi.errors import MalformedTable
from pgsemi.projections import ProjectionAlgebra
from pgsemi.semigroups import AdjacencyGraph
from pgsemi.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    boset_to_dict,
    chain_to_dict,
    complex_to_dict,
    complex_to_dot,
    dumps,
    graph_from_dict,
    graph_to_dict,
    load_algebra,
    load_graph,
    load_semigroup,
    presentation_to_dict,
    save_algebra,
    semigroup_from_dict,
    semigroup_to_dict,
)
from pgsemi.topology import complex_KP, components, friendliness_graph

from conftest import bundle, handle


def test_algebra_roundtrip(tmp_path):
    P = bundle("kinyon").algebra
    d = algebra_to_dict(P)
    assert d["size"] == 4
    Q = algebra_from_dict(d)
    assert Q == P
    path = tmp_path / "kinyon.json"
    save_algebra(P, path)
    assert load_algebra(path) == P


def test_semigroup_roundtrip():
    S = bundle("tl:3").semigroup
    T = semigroup_from_dict(semigroup_to_dict(S))
    assert np.array_equal(T.mult, S.mult)
    assert np.array_equal(T.star, S.star)
    assert T.labels == S.labels


def test_semigroup_file_roundtrip(tmp_path):
    S = bundle("tl:3").semigroup
    path = tmp_path / "tl3.json"
    path.write_text(dumps(semigroup_to_dict(S)))
    T = load_semigroup(path)
    assert np.array_equal(T.mult, S.mult)


def test_graph_roundtrip(tmp_path):
    G = AdjacencyGraph(4, [(0, 1), (1, 2), (2, 3)])
    d = graph_to_dict(G)
    assert d == {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    H = graph_from_dict(d)
    assert H.n == 4 and H.edges == G.edges
    path = tmp_path / "g.json"
    path.write_text(dumps(d))
    assert load_graph(path).edges == G.edges


def test_dumps_is_deterministic():
    P = bundle("tl:4").algebra
    assert dumps(algebra_to_dict(P)) == dumps(algebra_to_dict(P))
    # keys come out sorted regardless of insertion order
    text = dumps({"b": 1, "a": [1, 2]})
    assert text == dumps({"a": [1, 2], "b": 1})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1, 2], "b": 1}


def test_malformed_algebra_dicts():
    with pytest.raises(MalformedTable):
        algebra_from_dict({"size": 2})                  # theta missing
    with pytest.raises(MalformedTable):
        algebra_from_dict({"size": 2, "theta": [[0, 0]]})
    with pytest.raises(MalformedTable):
        semigroup_from_dict({"size": 1, "mult": [[0]]})  # star missing
    # entries are not cast: floats, strings and ragged rows are malformed
    for mult, star in (([[0.5]], [0]), ([["0"]], [0]), ([[0]], [0.0]),
                       ([[0, 1], [1]], [0, 1])):
        with pytest.raises(MalformedTable):
            semigroup_from_dict({"size": len(mult), "mult": mult,
                                 "star": star})
    # a number where a list belongs, and JSON true where an integer does
    for bad in ({"size": 1, "theta": [[0]], "labels": 5},
                {"size": True, "theta": [[0]]}):
        with pytest.raises(MalformedTable):
            algebra_from_dict(bad)
    with pytest.raises(MalformedTable):
        semigroup_from_dict({"size": True, "mult": [[0]], "star": [0]})
    for bad in ({"vertices": 2, "edges": 5}, {"vertices": True, "edges": []},
                {"vertices": 2, "edges": [[0, True]]}):
        with pytest.raises(MalformedTable):
            graph_from_dict(bad)
    # JSON true among the integers of a table, which numpy would read as 1;
    # each table is valid with a 1 in its place
    algebra_from_dict({"size": 2, "theta": [[0, 1], [1, 1]]})
    semigroup_from_dict({"size": 2, "mult": [[0, 1], [1, 1]], "star": [0, 1]})
    with pytest.raises(MalformedTable, match="theta holds a boolean"):
        algebra_from_dict({"size": 2, "theta": [[0, True], [1, 1]]})
    for mult, star in (([[0, 1], [True, 1]], [0, 1]),
                       ([[0, 1], [1, 1]], [0, True])):
        with pytest.raises(MalformedTable, match="holds a boolean"):
            semigroup_from_dict({"size": 2, "mult": mult, "star": star})


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedTable):
        load_algebra(path)
    path.write_text(dumps({"size": 2, "mult": [[0, 1], [True, 1]],
                           "star": [0, 1]}))
    with pytest.raises(MalformedTable):
        load_semigroup(path)


def test_chain_to_dict():
    h = handle("band:3")
    c = h.idempotent_chain(0, 2)
    d = chain_to_dict(c)
    assert d["dom"] == 0 and d["cod"] == 2
    assert d["component"] == c.comp
    assert d["word"] == list(c.word)
    json.dumps(d)  # plain types only


def test_boset_to_dict_counts():
    b = boset_of(bundle("band:2").algebra, handle("band:2"))
    d = boset_to_dict(b)
    assert len(d["elements"]) == 4
    assert len(d["products"]) == 12
    assert sorted(d["star"]) == [0, 1, 2, 3]
    # star swaps the two off-diagonal pairs
    i01 = d["elements"].index([0, 1])
    i10 = d["elements"].index([1, 0])
    assert d["star"][i01] == i10
    json.dumps(d)


@pytest.mark.parametrize("src", ["tl:4", "brauer:3"])
def test_boset_to_dict_matches_the_pairwise_comprehension(src):
    b = boset_of(bundle(src).algebra, handle(src))
    idx = b.index
    n = len(b.elements)
    expected = {
        "elements": [[p, q] for p, q in b.elements],
        "left": [[i, j] for i in range(n) for j in range(n) if b.left[i, j]],
        "right": [[i, j] for i in range(n) for j in range(n)
                  if b.right[i, j]],
        "star": [idx[b.star_of(e)] for e in b.elements],
        "products": [
            [idx[e], idx[f], idx[val]] for (e, f), val in b.basic_items()
        ],
    }
    d = boset_to_dict(b)
    assert d == expected
    assert json.dumps(d) == json.dumps(expected)


def test_complex_dict_and_dot():
    P = bundle("kinyon").algebra
    c = complex_KP(P)
    d = complex_to_dict(c)
    assert d["vertices"] == 4
    assert len(d["cells"]) == 15
    assert all(cell["pair"] is not None for cell in d["cells"])
    comps = components(c)
    dot = complex_to_dot(c, comps, labeler=P.label)
    assert "cluster_0" in dot and "cluster_1" in dot
    assert dot.count("// cell") == 15
    assert dot.startswith("graph complex {")


def test_friendliness_graph_dot_has_no_cells():
    P = bundle("tl:3").algebra
    g = friendliness_graph(P)
    dot = complex_to_dot(g, components(g))
    assert "// cell" not in dot


def test_presentation_to_dict_with_classification():
    h = handle("band:4")
    pres, cls = h.maximal_subgroup(0)
    d = presentation_to_dict(pres, cls)
    assert d["generators"] == pres.ngens
    assert d["classification"]["kind"] == "free"
    assert d["classification"]["rank"] == 3
    assert d["classification"]["abelianization"]["free_rank"] == 3
    json.dumps(d)
    bare = presentation_to_dict(pres)
    assert "classification" not in bare
