import hashlib
import io
import json

import pytest

from ptagcheck import cli
from ptagcheck import grammar as gr
from ptagcheck import simulate
from conftest import GRAMMAR2, GRAMMAR4, REPO, minimal_document, segment_edge_grammar


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_grammar4_exit0():
    code, out, err = run(["check", str(GRAMMAR4)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Consistent"
    assert doc["squarings"] == 2
    assert out.endswith("\n")


def test_check_grammar2_exit1():
    code, out, _ = run(["check", str(GRAMMAR2)])
    assert code == 1
    assert json.loads(out)["verdict"] == "Inconsistent"


def test_check_flags_respected():
    code, out, _ = run(["check", str(GRAMMAR2), "--max-squarings", "3",
                        "--tol", "1e-6"])
    assert code == 1


def test_matrix_tsv_first_row():
    code, out, _ = run(["matrix", str(GRAMMAR4), "--which", "M",
                        "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    assert [float(x) for x in rows[0]] == pytest.approx([0, 0.8, 0.8, 0.8, 0])


def test_matrix_json_P():
    code, out, _ = run(["matrix", str(GRAMMAR4), "--which", "P"])
    doc = json.loads(out)
    assert doc["order"] == ["A1", "A2", "B1", "A3", "B2"]
    assert doc["cols"] == ["t1", "t2", "t3"]
    assert doc["rows"][0] == pytest.approx([0, 0.8, 0])


def test_validate_clean_grammar():
    code, out, _ = run(["validate", str(GRAMMAR4)])
    assert code == 0
    assert json.loads(out) == []


def test_validate_dirty_grammar(tmp_path):
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 0.25}]
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(path)])
    assert code == 2
    diags = json.loads(out)
    assert diags[0]["code"] == "IMPROPER_SITE"
    assert diags[0]["severity"] == "error"
    assert diags[0]["site"] == "A"


def test_validate_warnings_only_exit0(tmp_path):
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(path)])
    assert code == 0
    diags = json.loads(out)
    assert [d["code"] for d in diags] == ["UNREACHABLE_TREE"]


def test_analysis_rejects_invalid_grammar(tmp_path):
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 0.25}]
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["check", str(path)])
    assert code == 2
    assert json.loads(out)[0]["code"] == "IMPROPER_SITE"
    assert "validation error" in err


def test_missing_file_exit66():
    code, _, err = run(["check", "/no/such/file.json"])
    assert code == 66
    assert "cannot read" in err


def test_malformed_document_exit65(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["check", str(path)])
    assert code == 65
    assert "malformed" in err


def test_usage_error_exit64():
    code, _, err = run(["check", str(GRAMMAR4), "--frobnicate"])
    assert code == 64
    assert "usage error" in err


def test_unknown_command_exit64():
    code, _, _ = run(["shake", str(GRAMMAR4)])
    assert code == 64


def test_gf_site():
    code, out, _ = run(["gf", str(GRAMMAR4), "--site", "A1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["text"] == "0.8*s[A2]*s[B1]*s[A3] + 0.2"
    assert doc["constant"] == pytest.approx(0.2)
    assert doc["terms"][0]["exponents"] == {"A2": 1, "B1": 1, "A3": 1}


def test_gf_level_two():
    code, out, _ = run(["gf", str(GRAMMAR4), "--level", "2"])
    doc = json.loads(out)
    assert doc["constant"] == pytest.approx(0.5072, abs=1e-12)
    assert len(doc["terms"]) == 6


def test_gf_term_cap_exit():
    code, _, err = run(["gf", str(GRAMMAR4), "--level", "9", "--term-cap", "20"])
    assert code == 2
    assert "TERM_CAP_EXCEEDED" in err


def test_gf_unknown_site_exit64():
    code, _, _ = run(["gf", str(GRAMMAR4), "--site", "ZZ"])
    assert code == 64


def test_extinction_output():
    code, out, _ = run(["extinction", str(GRAMMAR2)])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["q"]["S1"] == pytest.approx(2.0615e-4, abs=1e-8)
    assert doc["start_trees"]["t1"] == pytest.approx(2.0615e-4, abs=1e-8)
    assert doc["combined"] is None


def test_extinction_with_start_weights(tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"t1": 2.0}))
    code, out, _ = run(["extinction", str(GRAMMAR4),
                        "--start-weights", str(weights)])
    doc = json.loads(out)
    assert doc["combined"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_output():
    code, out, _ = run(["simulate", str(GRAMMAR4), "--samples", "2000",
                        "--max-depth", "50", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 2000
    assert doc["terminated"] + doc["censored"] == 2000
    assert doc["generator"] == "PCG64"


def test_simulate_deterministic_stdout():
    args = ["simulate", str(GRAMMAR2), "--samples", "1000",
            "--max-depth", "30", "--seed", "9"]
    assert run(args) == run(args)


def test_enumerate_output():
    code, out, _ = run(["enumerate", str(GRAMMAR4), "--max-depth", "2"])
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 2
    total = sum(d["probability"] for d in docs)
    assert total == pytest.approx(0.5072, abs=1e-12)
    assert docs[0]["tree"] == "t1"
    assert docs[0]["at"] is None


def test_enumerate_output_is_the_as_dict_forms(tmp_path):
    # the emitted docs share subtrees; the JSON must not show it
    segment_edge = tmp_path / "segment_edge.json"
    segment_edge.write_text(json.dumps(gr.to_document(segment_edge_grammar())))
    cases = [(GRAMMAR4, depth) for depth in (1, 2, 3, 4)]
    cases += [(GRAMMAR2, depth) for depth in (1, 2, 3)] + [(segment_edge, 3)]
    for path, depth in cases:
        code, out, _ = run(["enumerate", str(path), "--max-depth", str(depth)])
        ds = simulate.enumerate_derivations(gr.load_grammar(path), depth)
        expected = json.dumps([dict(d.as_dict(), probability=d.probability)
                               for d in ds], indent=2) + "\n"
        assert (code, out) == (0, expected), (path.name, depth)


def test_enumerate_node_cap_exit():
    code, _, err = run(["enumerate", str(GRAMMAR4), "--max-depth", "6",
                        "--node-cap", "50"])
    assert code == 2


def test_stdout_is_json_everywhere():
    for argv in (["validate", str(GRAMMAR4)],
                 ["matrix", str(GRAMMAR4)],
                 ["check", str(GRAMMAR4)],
                 ["gf", str(GRAMMAR4), "--level", "1"],
                 ["extinction", str(GRAMMAR4)],
                 ["simulate", str(GRAMMAR4), "--samples", "100"],
                 ["enumerate", str(GRAMMAR4), "--max-depth", "2"]):
        _, out, _ = run(argv)
        json.loads(out)
        assert out.endswith("\n")


def test_stdout_matches_recorded_digests(monkeypatch):
    # bench/known.json holds the sha256 of each command's stdout on the
    # shipped grammars; every command must reproduce it byte for byte
    monkeypatch.chdir(REPO)
    recorded = json.loads((REPO / "bench" / "known.json").read_text())["cli"]
    assert len(recorded) == 18
    for command, digest in recorded.items():
        _, out, _ = run(command.split())
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
