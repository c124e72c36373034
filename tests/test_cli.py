"""The command line, driven through main(argv)."""

import hashlib
import json

import numpy as np
import pytest

from pgsemi.cli import main
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


def test_verify_band_requires_k(capsys):
    code, _, err = run(capsys, "verify", "band")
    assert code == 2
    assert "error:" in err


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
    path = tmp_path / "junk.json"
    path.write_text("{]")
    code, _, err = run(capsys, "validate", "--source", str(path))
    assert code == 2
    assert "error:" in err


def test_bad_component_index(capsys):
    code, _, err = run(capsys, "pi1", "--source", "kinyon",
                       "--component", "7")
    assert code == 2
    assert "no component 7" in err


def test_inconclusive_budget_exit(capsys):
    code, _, err = run(capsys, "verify", "presentation", "--source", "tl:4",
                       "--family", "RP", "--mode", "size", "--budget", "3")
    assert code == 3
    assert "inconclusive:" in err


def test_enumerate_cap_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--source", "band:3",
                       "--cap", "20")
    assert code == 3
    assert "inconclusive:" in err
