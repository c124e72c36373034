"""The command line, driven through main(argv)."""

import hashlib
import json
import re

import numpy as np
import pytest

from pgsemi import cli
from pgsemi.boset import boset_of
from pgsemi.chainsemigroup import ChainSemigroupHandle
from pgsemi.cli import main
from pgsemi.projections import ProjectionAlgebra, validate_axioms
from pgsemi.serialize import dumps, load_algebra

from conftest import bundle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_kinyon(capsys):
    code, out, _ = run(capsys, "validate", "--source", "kinyon")
    assert code == 0
    for law in ("P1", "P2", "P3", "P4", "P5"):
        assert f"{law}: ok" in out
    assert "derived laws (chain length <= 3): ok" in out
    assert "kinyon: 4 projections" in out


def test_validate_flags_violations(capsys, tmp_path):
    # theta_1 fails to fix 1's down-set
    path = tmp_path / "bad.json"
    path.write_text(dumps({
        "size": 3, "theta": [[0, 0, 0], [2, 1, 0], [2, 2, 2]]}))
    code, out, _ = run(capsys, "validate", "--source", str(path))
    assert code == 1
    assert out == (
        "P1: ok\n"
        "FAIL P2: (1, 0), (1, 2)\n"
        "P3: ok\n"
        "P4: ok\n"
        "P5: ok\n"
        "A4a: (1, 1)\n"
        "A4b: (1, 1)\n"
        f"{path}: 3 projections\n"
    )


def test_size_infinite_band(capsys):
    code, out, _ = run(capsys, "size", "--source", "band:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Infinite"
    assert "component 0: 3 vertices, group free(rank 1)" in out


def test_size_tl3(capsys):
    code, out, _ = run(capsys, "size", "--source", "tl:3")
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_size_tl7_allow_large(capsys):
    code, out, _ = run(capsys, "size", "--source", "tl:7", "--allow-large")
    assert code == 0
    assert out.splitlines()[0] == "429"


def test_relations_text_matrices(capsys):
    code, out, _ = run(capsys, "relations", "--source", "kinyon")
    assert code == 0
    assert "leq:" in out and "leqF:" in out and "friendly:" in out
    block = out[out.index("friendly:"):]
    assert "1110" in block and "0001" in block
    assert "components:" in out


def test_relations_json(capsys):
    code, out, _ = run(capsys, "relations", "--source", "kinyon",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["friendly"][3] == [0, 0, 0, 1]
    assert d["components"] == [[0, 1, 2], [3]]


def test_complex_summary(capsys):
    code, out, _ = run(capsys, "complex", "--source", "kinyon",
                       "--which", "KP")
    assert code == 0
    assert "kinyon KP: 4 vertices, 3 edges, 15 cells, 2 components" in out


def test_build_roundtrip(capsys, tmp_path):
    path = tmp_path / "alg.json"
    code, out, _ = run(capsys, "build", "--source", "tl:4",
                       "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    assert load_algebra(path) == bundle("tl:4").algebra


def test_file_source_roundtrip(capsys, tmp_path):
    path = tmp_path / "alg.json"
    run(capsys, "build", "--source", "brauer:3", "--out", str(path))
    code, out, _ = run(capsys, "validate", "--source", str(path))
    assert code == 0
    assert "4 projections" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--source", "band:2",
                       "--format", "json")
    assert code == 0
    chains = json.loads(out)
    assert len(chains) == 4
    assert {(c["dom"], c["cod"]) for c in chains} == \
        {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_pi1_component(capsys):
    code, out, _ = run(capsys, "pi1", "--source", "band:4",
                       "--component", "0")
    assert code == 0
    assert "classification: free(rank 3)" in out
    assert "abelianization: free rank 3, torsion []" in out


# sha256 of stdout for commands whose output passes through Tietze
# simplification: the presentations, classifications and canonical words
# they print must not move by a single byte
STDOUT_DIGESTS = {
    ("pi1", "--source", "brauer:5"):
        "53ad19d1bd41d759361b4bd82a1fd62af39675fa09826e12ad2ee586f5058a65",
    ("pi1", "--source", "motzkin:4", "--format", "json"):
        "cdb4b80794685e3ad7d091afe0bcf5072c9cc9c3109ea60b0dba13b1ec41bd5d",
    ("subgroup", "--source", "brauer:5", "--projection", "3"):
        "da6a6e63eea307d89d9f1a3c7c18d8474faac0b65d10b54c4905fd1665a1dce3",
    # one run of every verify suite, and the quad complex K
    ("verify", "kinyon"):
        "e47016ac6773872c1c07af07c215aaf0d9b02bd000ff275c7784ee61f18053db",
    ("verify", "band", "--k", "3"):
        "fed8ac8e5c2b3fe8d6b6acdafeffeb6adfbaa61c031abcf9ba338c4df7db0987",
    ("verify", "tl", "--n", "4"):
        "a5dd526d5f217f7188fcec84581482d6ff1c5880b1a2e6aef803363f6258e3a6",
    ("verify", "motzkin", "--n", "3"):
        "255922909f157b742781ee2cfb6a76d56176c67d9b13cae5d038f70b25e253a2",
    ("verify", "motzkin", "--n", "4"):
        "0349d5d4547557bc84e17740ff787ea418bdff259796e6bad44a59ce55c10ab5",
    ("verify", "boset", "--source", "tl:4"):
        "1bf0c8036e219bb07c906b77851111b3dd7867d448a958327c40ef4deab7e846",
    ("verify", "presentation", "--source", "tl:4", "--family", "RE2",
     "--mode", "size"):
        "427dffd78deddf34a0e35389e743cd7c064b85b02598c8e8bf92f306e6cfa756",
    ("verify", "presentation", "--source", "tl:3", "--family", "RP",
     "--mode", "normal-form"):
        "275c60aee51687ab0e6071ee3c369588e65f894cdb5c50a0da9ac9ffac53d9b3",
    # checked=50712, words=200: every word goes through the straightener
    # and the chain encoding
    ("verify", "presentation", "--source", "tl:5", "--family", "RP",
     "--mode", "normal-form", "--budget", "12"):
        "03e781ec49a5dd0cd78c031c039f0137e0517d54d694c5e85443d8808e5ae06f",
    ("complex", "--source", "tl:5", "--which", "KP", "--format", "json"):
        "01395dea7f251cabf4d988f867df20f4e33c0f8b28016d4b4342d54dea7cb301",
    ("complex", "--source", "brauer:4", "--which", "KP"):
        "8a33e0c8206be8f4b7281cd77235e8f40ffc3181ea6054fa6204c514228302cb",
    # DOT text with 7 clusters, one per component, each with its edges
    ("export", "--source", "motzkin:3", "--which", "KP"):
        "2de160e08417a8679f6c09f451cc04b04c1af4339b82c967a517c7788f306fd8",
    # RE2 reads each sandwich set S(e, f) as S(q, r) for e = [[p, q]],
    # f = [[r, s]]
    ("presentations", "--source", "tl:5", "--family", "RE2"):
        "a9b0c921625c3b0032d61e4021d36393892fd0f63b2645dc70d6b4c6e34120f0",
    ("presentations", "--source", "brauer:4", "--family", "RE2",
     "--format", "json"):
        "89af634e19d08fd834e4c464183a9f5ba6409044383e79fe50654b228cd8b771",
    # 37,949 lines on a component with a free group
    ("presentations", "--source", "motzkin:4", "--family", "RE2"):
        "2d0f7d226fdd70fe8d4785609b9fec19097e32a89777625de746c3a1a969e8a6",
    # the sorted right Cayley closure of the projection chains
    ("enumerate", "--source", "tl:6"):
        "b2dfc76c87724ab97d6d2d722cc406287ecb5e26b1712b03750530bcf5fe0c77",
    ("enumerate", "--source", "motzkin:3"):
        "97ae89ae81ebdced48bc3918cd1c77797ab6f5b2ea2901fecfe177c078d860f4",
    ("enumerate", "--source", "partition:2"):
        "d6b3aded04bc3d63cd5adb0991b6fe220ce074b9e62044fc1b2dfd7bd6322293",
    # every projection's diagram label, in element order: one per family
    ("build", "--source", "partition:4"):
        "60652af2942c74963ecef01f5cf3a193a7ea24aff4b878c56f1d00ab8e805d91",
    ("build", "--source", "partial_brauer:4"):
        "a96c6340c473e68ec2c35631f49781a424a45681944e16cdf8db21618dc60aab",
    ("build", "--source", "motzkin:4"):
        "9574df1d9c9ba0080a52379b2b6698fcfa21e84c5e678a545b80dd80f6696e48",
    ("build", "--source", "brauer:5"):
        "f649788515e00c0790917e8c05c4e7805896525c333de68363db3965a392faf5",
    ("build", "--source", "tl:6"):
        "34543277b6ef980aa7f9aecd32517102cd97299ec75e53b4e7aa5f7fe899d75f",
    # every cell with its boundary, kind and (p, e, f) pair: quads of K,
    # triangles of K', and K written by export
    ("complex", "--source", "tl:6", "--which", "KP", "--format", "json"):
        "790b6e8848bbda4f6263a6f1dff83cf9e29704deb79bbf5c49abe6d6fcb6300f",
    ("complex", "--source", "brauer:5", "--which", "KP'", "--format", "json"):
        "2ff830c5ff33687a74863c7b82941b64d12b2b3a619e5b28c5a994be7098c8ce",
    ("export", "--source", "motzkin:4", "--which", "KP", "--format", "json"):
        "d7a0847fdba93aff770ece8432851005e97b926ce0d6f432b57f4853b32bc5c4",
}


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS))
def test_stdout_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


def test_subgroup_text(capsys):
    code, out, _ = run(capsys, "subgroup", "--source", "band:3",
                       "--projection", "1")
    assert code == 0
    assert "maximal subgroup at" in out
    assert "free(rank 1)" in out


def test_subgroup_honours_budget(capsys):
    argv = ("subgroup", "--source", "brauer:5", "--projection", "0")
    code, out, _ = run(capsys, *argv, "--budget", "2")
    assert code == 3
    assert "classification: unknown" in out
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "classification: finite(order 2)" in out


def test_export_dot_with_sidecar(capsys, tmp_path):
    path = tmp_path / "kinyon.dot"
    code, out, _ = run(capsys, "export", "--source", "kinyon",
                       "--out", str(path))
    assert code == 0
    assert "kinyon KP': 4 vertices, 3 edges, 1 cells" in out
    dot = path.read_text()
    assert dot.startswith("graph complex {")
    assert "cluster_0" in dot and "cluster_1" in dot
    cells = json.loads((tmp_path / "kinyon.dot.cells.json").read_text())
    assert len(cells) == 1


def test_presentations_tl_text(capsys):
    code, out, _ = run(capsys, "presentations", "--source", "tl:3",
                       "--family", "tl")
    assert code == 0
    assert "T1: t1 t1 = t1" in out
    assert "T3: t1 t2 t1 = t1" in out


def test_presentations_rp_json(capsys):
    code, out, _ = run(capsys, "presentations", "--source", "band:2",
                       "--family", "RP", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["name"] == "RP" and len(d["relations"]) == 10


def test_verify_kinyon_suite(capsys):
    code, out, _ = run(capsys, "verify", "kinyon")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("ok - ") for l in lines)
    assert any("size is 10" in l for l in lines)


def test_verify_band_suite(capsys):
    code, out, _ = run(capsys, "verify", "band", "--k", "3")
    assert code == 0
    assert "ok - size is Infinite" in out


def test_verify_tl_suite(capsys):
    code, out, _ = run(capsys, "verify", "tl", "--n", "3")
    assert code == 0
    assert "ok - size is 5" in out
    assert "ok - identity extension is a bijection" in out


BOSET_STDOUT = """\
ok - projection algebra roundtrip is exact
ok - star is involutory
ok - star maps basic pairs to basic pairs, (ef)* = f*e*
ok - matches the semigroup boset
"""

# the whole stdout of suites that drive the chain product through the CLI:
# verify tl multiplies all 132^2 pairs of the tl:6 closure, and verify
# boset checks every basic product and sandwich set by chain products, on
# tl:6 and on two sources whose groups are not trivial, motzkin:4 (a free
# component) and brauer:5 (finite components)
VERIFY_STDOUT = {
    ("verify", "tl", "--n", "6"): """\
ok - component 0 trivial
ok - component 1 trivial
ok - component 2 trivial
ok - component 3 trivial
ok - size is 132
ok - identity extension is a bijection
ok - products preserved on all pairs
ok - star preserved
""",
    ("verify", "boset", "--source", "tl:6"): BOSET_STDOUT,
    ("verify", "boset", "--source", "motzkin:4"): BOSET_STDOUT,
    ("verify", "boset", "--source", "brauer:5"): BOSET_STDOUT,
}


@pytest.mark.parametrize("argv", list(VERIFY_STDOUT))
def test_verify_stdout_on_tl6(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == VERIFY_STDOUT[argv]


def test_verify_boset_stdout_on_tl7(capsys):
    # the roundtrip finds all 35^2 sandwich elements of tl:7
    code, out, _ = run(capsys, "verify", "boset", "--source", "tl:7",
                       "--allow-large")
    assert code == 0
    assert out == BOSET_STDOUT


def test_verify_boset_fails_on_a_broken_basic_product(capsys, monkeypatch):
    # one basic product e f changed, with e off the diagonal and f on it:
    # (ef)* = f*e* fails there, and the suite reports it and exits 1
    def broken(P, handle):
        b = boset_of(P, handle=handle)
        i, j = next((i, j) for i, j in np.argwhere(b.table >= 0).tolist()
                    if b.star[i] != i and b.star[j] == j)
        b.table = b.table.copy()
        b.table[i, j] = 0 if b.table[i, j] else 1
        return b

    monkeypatch.setattr(cli, "boset_of", broken)
    code, out, _ = run(capsys, "verify", "boset", "--source", "tl:4")
    assert code == 1
    assert "FAIL - star maps basic pairs to basic pairs, (ef)* = f*e*\n" in out


def test_verify_band_requires_k(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "band"])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_source(capsys):
    code, _, err = run(capsys, "size", "--source", "heisenberg:3")
    assert code == 2
    assert "error:" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--source",
                       str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_bad_json_file(capsys, tmp_path):
    # broken JSON, and well-formed JSON that is not a table or a graph:
    # each is refused as malformed input, never cast or crashed on
    path = tmp_path / "junk.json"
    for prefix, text in [
        ("", "{]"),
        ("", dumps({"size": 2, "theta": [[0.9, 0], [1, 1.2]]})),
        ("", dumps({"size": 2, "theta": [["0", "0"], ["1", "1"]]})),
        ("", dumps({"size": 2, "theta": [[0, 0], [1]]})),
        ("adjacency:", dumps({"vertices": 2.5, "edges": []})),
        ("adjacency:", dumps({"vertices": 2, "edges": [[0]]})),
        ("adjacency:", dumps({"vertices": 2, "edges": [[0, 1.5]]})),
        # a list that is a number, and JSON true read as the integer 1
        ("adjacency:", dumps({"vertices": 2, "edges": 5})),
        ("", dumps({"size": 1, "theta": [[0]], "labels": 5})),
        ("adjacency:", dumps({"vertices": True, "edges": []})),
        ("adjacency:", dumps({"vertices": 2, "edges": [[0, True]]})),
        ("", dumps({"size": True, "theta": [[0]]})),
        ("", dumps({"size": 2, "theta": [[0, True], [1, 1]]})),
        ("", dumps({"size": 1, "theta": [[False]]})),
    ]:
        path.write_text(text)
        code, out, err = run(capsys, "validate", "--source",
                             prefix + str(path))
        assert (code, out) == (2, ""), text
        assert err.startswith("error:") and "Traceback" not in err, text


def test_bad_component_index(capsys):
    code, _, err = run(capsys, "pi1", "--source", "kinyon",
                       "--component", "7")
    assert code == 2
    assert "no component 7" in err


@pytest.mark.parametrize("budget", ["3", "0"])
def test_inconclusive_budget_exit(capsys, budget):
    # a budget of 0 is honoured, not read as "no budget"
    code, _, err = run(capsys, "verify", "presentation", "--source", "tl:4",
                       "--family", "RP", "--mode", "size", "--budget", budget)
    assert code == 3
    assert "inconclusive:" in err
    # the message says how far the enumeration got; the identity class
    # exists before any budget check
    created = max(int(budget), 1)
    assert (f"coset budget {budget} exhausted (classes created {created}, "
            "live classes fully scanned 0)") in err


def test_pi1_unknown_group_exit(capsys):
    # an undecided group exits 3 and still prints what is known of it
    code, out, _ = run(capsys, "pi1", "--source", "brauer:5", "--budget", "1")
    assert code == 3
    assert "classification: unknown(abelianization (0, (2,)))" in out


@pytest.mark.parametrize("argv", [
    ("enumerate", "--source", "kinyon", "--cap", "2"),
    ("presentations", "--source", "tl:1", "--family", "tl"),
    ("verify", "presentation", "--source", "tl:3", "--family", "RE",
     "--mode", "normal-form"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_enumerate_cap_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--source", "band:3",
                       "--cap", "20")
    assert code == 3
    assert "inconclusive:" in err


def test_size_refuses_a_non_algebra_naming_the_law(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps({
        "size": 3, "theta": [[0, 0, 0], [2, 1, 0], [2, 2, 2]]}))
    code, out, err = run(capsys, "size", "--source", str(path))
    assert code == 2 and out == ""
    assert err == ("error: not a projection algebra: "
                   "P2: (1, 0), (1, 2)\n")


# Tables that are not projection algebras: the first fails only P4, the
# second would give a KP cell whose boundary uses a missing edge, and the
# third fails P2-P5 although its <= is a partial order
NON_ALGEBRAS = [
    [[0, 0, 0], [1, 1, 1], [0, 2, 2]],
    [[0, 3, 3, 1], [0, 1, 2, 3], [1, 2, 2, 2], [0, 0, 1, 3]],
    [[0, 3, 3, 2], [0, 1, 2, 1], [3, 2, 2, 0], [2, 3, 2, 3]],
]


@pytest.mark.parametrize("argv", [
    ("relations",),
    ("relations", "--format", "json"),
    ("complex", "--which", "GP"),
    ("complex", "--which", "KP"),
    ("complex", "--which", "KP'"),
    ("export",),
    ("export", "--format", "json"),
    ("pi1",),
    ("enumerate",),
    ("size",),
    ("subgroup", "--projection", "0"),
    ("presentations", "--family", "RP"),
    ("presentations", "--family", "RE"),
    ("presentations", "--family", "RE2"),
    ("verify", "boset"),
])
def test_every_verb_but_validate_and_build_refuses_a_non_algebra(
        capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    for theta in NON_ALGEBRAS:
        path.write_text(dumps({"size": len(theta), "theta": theta}))
        first = validate_axioms(ProjectionAlgebra(theta))[0]
        code, out, err = run(capsys, *argv, "--source", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: not a projection algebra: {first}\n"


def test_validate_and_build_read_a_non_algebra(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for theta in NON_ALGEBRAS:
        d = {"size": len(theta), "theta": theta}
        path.write_text(dumps(d))
        code, out, _ = run(capsys, "validate", "--source", str(path))
        assert code == 1
        for v in validate_axioms(ProjectionAlgebra(theta)):
            assert f"FAIL {v}\n" in out
        assert run(capsys, "build", "--source", str(path)) == \
            (0, dumps(d) + "\n", "")


@pytest.mark.parametrize("argv", [
    ("complex", "--source", "kinyon", "--which", "KP"),
    ("pi1", "--source", "band:4"),
    ("enumerate", "--source", "kinyon"),
    ("subgroup", "--source", "band:3", "--projection", "1"),
    ("relations", "--source", "kinyon"),
    ("relations", "--source", "kinyon", "--format", "json"),
    ("build", "--source", "kinyon"),
    ("complex", "--source", "kinyon", "--format", "json"),
    ("pi1", "--source", "band:4", "--format", "json"),
    ("enumerate", "--source", "kinyon", "--format", "json"),
    ("subgroup", "--source", "band:3", "--projection", "1",
     "--format", "json"),
    ("presentations", "--source", "band:2", "--family", "RP",
     "--format", "json"),
])
def test_out_writes_the_text_form(capsys, tmp_path, argv):
    _, plain, _ = run(capsys, *argv)
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == f"wrote {path}\n"
    assert path.read_text() == plain


# every option of a verify suite, with a value to pass; the options each
# suite reads; and the arguments a suite requires before the rest is read
VERIFY_OPTIONS = {"--source": "kinyon", "--allow-large": None,
                  "--budget": "2", "--n": "3", "--k": "3", "--family": "RP",
                  "--mode": "size", "--seed": "0"}
VERIFY_READS = {
    "kinyon": {"--budget"},
    "band": {"--k", "--budget"},
    "tl": {"--n", "--allow-large", "--budget"},
    "motzkin": {"--n", "--allow-large", "--budget"},
    "boset": {"--source", "--allow-large", "--budget"},
    "presentation": {"--source", "--allow-large", "--budget", "--family",
                     "--mode", "--seed"},
}
VERIFY_NEEDS = {"band": ("--k", "3"), "tl": ("--n", "3"),
                "motzkin": ("--n", "3")}


def _option(name):
    value = VERIFY_OPTIONS[name]
    return (name,) if value is None else (name, value)


@pytest.mark.parametrize("argv", [
    ("validate", "--source", "kinyon", "--out", "x"),
    ("size", "--source", "kinyon", "--out", "x"),
    ("verify", "kinyon", "--out", "x"),
    ("validate", "--source", "kinyon", "--budget", "2"),
    ("build", "--source", "kinyon", "--budget", "2"),
    ("relations", "--source", "kinyon", "--budget", "2"),
    ("complex", "--source", "kinyon", "--budget", "2"),
    ("export", "--source", "kinyon", "--budget", "2"),
] + [
    ("verify", suite, *VERIFY_NEEDS.get(suite, ()), *_option(name))
    for suite, reads in VERIFY_READS.items()
    for name in VERIFY_OPTIONS if name not in reads
])
def test_verbs_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("suite", list(VERIFY_READS))
def test_verify_suite_help_lists_only_its_options(capsys, suite):
    with pytest.raises(SystemExit) as info:
        main(["verify", suite, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == VERIFY_READS[suite] | {"--help"}


@pytest.mark.parametrize("argv", [
    ("size", "--source", "kinyon", "--budget", "-1"),
    ("pi1", "--source", "kinyon", "--budget", "-1"),
    ("verify", "kinyon", "--budget", "-1"),
    ("validate", "--source", "kinyon", "--max-chain", "-1"),
])
def test_negative_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be >= 0" in err


@pytest.mark.parametrize("family", ["RP", "RE", "RE2"])
def test_verify_presentation_builds_one_handle(capsys, monkeypatch, family):
    built = []
    init = ChainSemigroupHandle.__init__

    def counted(self, *args, **kwargs):
        built.append(family)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainSemigroupHandle, "__init__", counted)
    code, out, _ = run(capsys, "verify", "presentation", "--source", "tl:3",
                       "--family", family)
    assert code == 0 and out.startswith("ok - ")
    assert len(built) == 1
