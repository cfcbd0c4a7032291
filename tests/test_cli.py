import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from ptagcheck import cli, consistency, expectation
from ptagcheck import grammar as gr
from ptagcheck import simulate
from conftest import (GRAMMAR2, GRAMMAR4, REPO, branching_family, critical_chain,
                      doubling_grammar, mass_edge_document, minimal_document,
                      random_proper_grammar, segment_edge_grammar,
                      two_siteless_start_grammar)


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


def dirty_file(tmp_path):
    """A grammar file whose site A has nil mass 0.25 and no other entry."""
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 0.25}]
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_dirty_grammar(tmp_path):
    code, out, _ = run(["validate", dirty_file(tmp_path)])
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
    code, out, err = run(["check", dirty_file(tmp_path)])
    assert code == 2
    assert json.loads(out)[0]["code"] == "IMPROPER_SITE"
    assert "validation error" in err


@pytest.mark.parametrize("weights", ["missing", "malformed"])
@pytest.mark.parametrize("command", ["extinction", "simulate"])
def test_validation_errors_come_before_start_weights_errors(tmp_path, command, weights):
    # the grammar is refused (exit 2, its finding on stdout) before the
    # start weights are read, whether their file is missing or malformed
    path = tmp_path / "w.json"
    if weights == "malformed":
        path.write_text('{"t1": -1}')
    argv = [command, dirty_file(tmp_path), "--start-weights", str(path)]
    code, out, err = run(argv)
    assert (code, [d["code"] for d in json.loads(out)], err) == (
        2, ["IMPROPER_SITE"], "grammar has 1 validation error(s)\n")


MASS_EDGE_COMMANDS = {"validate": [], "matrix": [], "check": [], "gf": ["--level", "1"],
                      "extinction": [], "simulate": ["--samples", "200"], "enumerate": []}


@pytest.mark.parametrize("command", list(MASS_EDGE_COMMANDS))
def test_site_mass_at_tolerance_edge_exit_codes(tmp_path, command):
    # validate and every numeric command read the index's site mass: the
    # "off" site is refused as invalid (exit 2) before any work, the "on"
    # site is accepted and the command runs
    for name, want in (("off", 2), ("on", 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mass_edge_document(name)))
        code, out, err = run([command, str(path), *MASS_EDGE_COMMANDS[command]])
        assert code == want, (name, err)
        if name == "off":
            assert [d["code"] for d in json.loads(out)] == ["IMPROPER_SITE"]
        else:
            assert not err and (json.loads(out) == []) == (command == "validate")


def test_missing_file_exit66():
    code, _, err = run(["check", "/no/such/file.json"])
    assert code == 66
    assert "cannot read" in err


def test_validate_missing_file_exit66():
    assert run(["validate", "/no/such/file.json"]) == (
        66, "", "cannot read /no/such/file.json: No such file or directory\n")


@pytest.mark.parametrize("command", ["extinction", "simulate"])
def test_missing_start_weights_exit66(tmp_path, command):
    weights = tmp_path / "w.json"
    assert run([command, str(GRAMMAR4), "--start-weights", str(weights)]) == (
        66, "", f"cannot read {weights}: No such file or directory\n")


def phi_document(**entry):
    """minimal_document() with site A on its root and one phi entry for it."""
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 1.0, **entry}]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("body", [
    pytest.param(b"{not json", id="not-json"),
    pytest.param(phi_document(prob=10**400), id="prob-beyond-float"),
    pytest.param(phi_document(site=["A"]), id="site-array"),
    pytest.param(phi_document(tree={"x": 1}), id="tree-object"),
    pytest.param(phi_document().replace(b'"S"', b'"\xe9"'), id="not-utf8"),
    pytest.param(json.dumps(minimal_document()).encode().replace(
        b'{"anchor": "a"}',
        b'{"label": "S", "children": [' * 500 + b'{"anchor": "a"}' + b"]}" * 500),
        id="nested-500"),
])
def test_malformed_document_exit65(tmp_path, body):
    path = tmp_path / "broken.json"
    path.write_bytes(body)
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
    assert run(["gf", str(GRAMMAR4), "--site", "ZZ"]) == (64, "", "unknown site 'ZZ'\n")


@pytest.mark.parametrize("mode", [["--site", "A1"], ["--level", "2"]])
def test_gf_negative_term_cap_exit64_in_both_modes(mode):
    # adjunction_gf takes no cap, yet --site refuses a negative one as --level does
    assert run(["gf", str(GRAMMAR4), *mode, "--term-cap", "-1"]) == (
        64, "", "usage error: term_cap must be >= 0\n")


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


NOT_REAL = "start weights must map tree ids to real numbers"
NOT_FINITE = "start weights must be finite and nonnegative with a finite sum"


def weights_param(t2, reason, t1="1.0", id=None):
    body = f'{{"t1": {t1}, "t2": {t2}}}'.encode()
    return pytest.param(body, reason, id=id or f"{t1}-{t2}")


def decode_error(body):
    """The message of the error json.loads raises on body."""
    try:
        json.loads(body)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("body decodes")


@pytest.mark.parametrize("command", ["extinction", "simulate"])
@pytest.mark.parametrize("body, reason", [
    *(weights_param(w, NOT_FINITE) for w in ("NaN", "Infinity", "-Infinity", "-1", "-0.5")),
    weights_param("true", NOT_REAL),
    weights_param("1e308", NOT_FINITE, t1="1e308"),  # each finite, the sum is not
    weights_param("1" + "0" * 400, "a start weight is beyond float range", id="1.0-10**400"),
    weights_param('"0.5"', NOT_REAL, id="1.0-string"),
    pytest.param(b"[1, 2]", NOT_REAL, id="list"),
    pytest.param(b'{"t1": "\xe9"}', decode_error(b'{"t1": "\xe9"}'), id="not-utf8"),
    # json.loads would decode these bytes; the grammar reader refuses them too
    pytest.param('{"t1": 1}'.encode("utf-16"),
                 "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                 id="utf-16"),
    pytest.param(b'\xef\xbb\xbf{"t1": 1}',
                 "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
                 id="utf-8-bom"),
    pytest.param(b"[" * 2000 + b"]" * 2000, decode_error(b"[" * 2000 + b"]" * 2000),
                 id="nested-2000"),
    pytest.param(b"null", "expected a JSON object, got null", id="null"),
])
def test_bad_start_weights_exit65(tmp_path, command, body, reason):
    # random_proper_grammar(0) has the start trees t1 and t2
    path = tmp_path / "random0.json"
    path.write_text(json.dumps(gr.to_document(random_proper_grammar(0))))
    weights = tmp_path / "w.json"
    weights.write_bytes(body)
    extra = ["--samples", "100"] if command == "simulate" else []
    assert run([command, str(path), *extra, "--start-weights", str(weights)]) == (
        65, "", f"malformed start weights: {reason}\n")


def grammar_file(tmp_path, g):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(gr.to_document(g)))
    return str(path)


@pytest.mark.parametrize("start_weights", ['{"t1": 0, "t2": 0.0}', '{"t3": 1.0}', "{}"])
@pytest.mark.parametrize("command", ["extinction", "simulate"])
def test_start_weights_without_mass_exit65(tmp_path, command, start_weights):
    path = grammar_file(tmp_path, random_proper_grammar(0))
    weights = tmp_path / "w.json"
    weights.write_text(start_weights)
    assert run([command, path, "--start-weights", str(weights)]) == (
        65, "", "malformed start weights: start weights assign no mass to any start tree\n")


def test_extinction_combines_start_trees_by_weight(tmp_path):
    path = grammar_file(tmp_path, random_proper_grammar(0))
    weights = tmp_path / "w.json"
    weights.write_text('{"t1": 1, "t2": 3}')
    code, out, _ = run(["extinction", path, "--start-weights", str(weights)])
    doc = json.loads(out)
    starts = doc["start_trees"]
    assert doc["combined"] == pytest.approx(0.25 * starts["t1"] + 0.75 * starts["t2"],
                                            abs=1e-15)


def test_start_weights_copy_shares_the_index(tmp_path):
    # neither the index nor the validation findings read the start law, so the
    # weighted copy shares g's; its start draw follows the file's law, also
    # when g had built its own before
    g = random_proper_grammar(0)
    uniform = g.start_draw
    weights = tmp_path / "w.json"
    weights.write_text('{"t1": 1, "t2": 3}')
    weighted = cli._start_weights(str(weights), g)
    assert weighted.index is g.index and weighted.diagnostics is g.diagnostics
    assert weighted.start_weights == {"t1": 1, "t2": 3} and g.start_weights is None
    assert g.start_draw is uniform
    rebuilt = dataclasses.replace(g, start_weights={"t1": 1, "t2": 3})
    assert weighted.start_draw == rebuilt.start_draw != uniform


def test_gf_level_with_siteless_start_trees(tmp_path):
    code, out, _ = run(["gf", grammar_file(tmp_path, two_siteless_start_grammar()),
                        "--level", "2"])
    assert code == 0
    assert json.loads(out)["constant"] == 1.0


@pytest.mark.parametrize("level", [11, 12])
def test_gf_powers_past_the_recursion_limit(tmp_path, level):
    # each level doubles both exponents, so substitution raises one
    # replacement to the power 2^(level - 1)
    code, out, err = run(["gf", grammar_file(tmp_path, doubling_grammar()),
                          "--level", str(level)])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["constant"] == 0.0
    assert doc["terms"] == [{"coefficient": 1.0,
                             "exponents": {"B": 2**level, "C": 2**level}}]


@pytest.mark.parametrize("argv", [["extinction", str(GRAMMAR4), "--max-iter", "0"],
                                  ["check", str(GRAMMAR4), "--max-squarings", "-1"],
                                  ["simulate", str(GRAMMAR4), "--max-depth", "0"],
                                  ["check", str(GRAMMAR4), "--tol", "-1"],
                                  ["extinction", str(GRAMMAR4), "--tol", "-1"],
                                  ["enumerate", str(GRAMMAR4), "--prob-floor", "nan"],
                                  ["check", str(GRAMMAR4), "--tol", "nan"],
                                  ["extinction", str(GRAMMAR4), "--tol", "nan"],
                                  ["enumerate", str(GRAMMAR4), "--node-cap", "-1"],
                                  ["gf", str(GRAMMAR4), "--level", "2", "--term-cap", "-1"]])
def test_budget_out_of_range_exit64(argv):
    code, out, err = run(argv)
    assert (code, out) == (64, "")
    assert "usage error" in err


def test_emit_streams_its_output():
    # the text goes out in writes of about EMIT_BATCH characters: never the
    # whole document at once, nor one write per chunk of the encoder
    class Recorder(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    doc = [{"tree": f"t{i}", "probability": i / 7, "children": {"A1": "nil"}}
           for i in range(20_000)]
    for part in (doc, doc[:3], []):
        sizes = []
        out = Recorder()
        cli._emit(part, out)
        text = json.dumps(part, indent=2) + "\n"
        assert out.getvalue() == text
        assert len(sizes) <= len(text) // cli.EMIT_BATCH + 1
        assert max(sizes) < cli.EMIT_BATCH + 100 < len(json.dumps(doc)) / 10


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


def test_enumerate_depth_past_cap_exit2():
    depth = cli.ENUMERATE_DEPTH_CAP + 1
    assert run(["enumerate", str(GRAMMAR4), "--max-depth", str(depth)]) == (
        2, "", f"max_depth {depth} is past the {cli.ENUMERATE_DEPTH_CAP} levels that "
               "enumerate writes out\n")


def test_simulate_samples_past_cap_exit2(monkeypatch):
    # refused before a sample is drawn: the run would take days, not memory
    monkeypatch.setattr(simulate, "estimate_termination", None)
    samples = cli.SIMULATE_SAMPLES_CAP + 1
    assert run(["simulate", str(GRAMMAR4), "--samples", str(samples)]) == (
        2, "", f"samples {samples} is past the cap of {cli.SIMULATE_SAMPLES_CAP} that "
               "simulate runs\n")


@pytest.mark.parametrize("module,name,argv", [
    (simulate, "estimate_termination", ["simulate", str(GRAMMAR4)]),
    (consistency, "check_consistency", ["check", str(GRAMMAR4)]),
    (simulate, "enumerate_derivations", ["enumerate", str(GRAMMAR4)])])
def test_out_of_memory_exit2(monkeypatch, module, name, argv):
    # a MemoryError from the library, with numpy's message or none, is a cap hit
    for message in ("Unable to allocate 7.45 GiB for an array", ""):
        def exhausted(*args, message=message, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(module, name, exhausted)
        assert run(argv) == (2, "", f"OUT_OF_MEMORY: {message}\n")


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


def test_dense_cap_reported_like_the_other_caps(monkeypatch):
    # grammar4 has 5 sites and 3 trees: P and N have 15 cells, M has 25
    monkeypatch.setattr(expectation, "DENSE_CELL_CAP", 20)
    assert not issubclass(expectation.DenseCapExceeded, ValueError)  # ValueError exits 64
    g = gr.load_grammar(GRAMMAR4)
    assert expectation.build_P(g).values.shape == (5, 3)
    assert expectation.build_N(g).values.shape == (3, 5)
    for refused in (expectation.build_M, consistency.check_consistency):
        with pytest.raises(expectation.DenseCapExceeded, match="a 5 x 5 dense matrix"):
            refused(g)
    for argv in (["matrix", str(GRAMMAR4)], ["matrix", "--which", "M", "--format", "tsv",
                                             str(GRAMMAR4)], ["check", str(GRAMMAR4)]):
        assert run(argv) == (2, "", "DENSE_CAP_EXCEEDED: a 5 x 5 dense matrix has more "
                                    "than 20 cells\n")
    assert run(["matrix", "--which", "P", str(GRAMMAR4)])[0] == 0

    monkeypatch.setattr(expectation, "DENSE_CELL_CAP", 14)
    for which, shape in (("P", "5 x 3"), ("N", "3 x 5")):
        code, out, err = run(["matrix", "--which", which, str(GRAMMAR4)])
        assert (code, out) == (2, "")
        assert err == f"DENSE_CAP_EXCEEDED: a {shape} dense matrix has more than 14 cells\n"


def child_env():
    """The environment of a CLI child: src on the path, and stdout
    block-buffered into a pipe, as it is for a user's pipeline."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_cli_loads_no_third_party_module_but_numpy():
    # numpy is the one runtime dependency (pyproject.toml), so importing the
    # CLI in a fresh interpreter loads nothing else from outside the
    # standard library, whatever else is installed; what the interpreter's
    # start-up loaded (site hooks) is not the import's
    script = ("import sys; before = set(sys.modules); import ptagcheck.cli; "
              "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=child_env(), check=True)
    loaded = set(done.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "ptagcheck"}


# command: its options on grammar4, and the ptagcheck modules loaded after it
ALWAYS = {"cli", "grammar", "expectation"}
LOADED = {
    "validate": ([], ALWAYS),
    "matrix": ([], ALWAYS),
    "check": ([], ALWAYS | {"consistency"}),
    "gf": (["--level", "2"], ALWAYS | {"branching", "polynomials"}),
    "extinction": ([], ALWAYS | {"branching", "polynomials"}),
    "simulate": (["--samples", "100"], ALWAYS | {"simulate"}),
    "enumerate": (["--max-depth", "2"], ALWAYS | {"simulate"}),
}


@pytest.mark.parametrize("command", list(LOADED))
def test_command_loads_only_the_modules_it_runs(command):
    options, modules = LOADED[command]
    script = ("import io, sys; from ptagcheck import cli; "
              "code = cli.run(sys.argv[1:], out=io.StringIO(), err=io.StringIO()); "
              "print(code, *sorted(m for m in sys.modules if m.startswith('ptagcheck.')))")
    done = subprocess.run([sys.executable, "-c", script, command, str(GRAMMAR4), *options],
                          capture_output=True, text=True, timeout=60, env=child_env(),
                          check=True)
    code, *loaded = done.stdout.split()
    assert code == "0"
    assert loaded == sorted(f"ptagcheck.{m}" for m in modules)


def text_file(tmp_path, text):
    path = tmp_path / "text.json"
    path.write_text(text)
    return str(path)


# exit code: the argv of a command that ends with it, given tmp_path
BUFFERED_CASES = {
    0: lambda tmp: ["enumerate", str(GRAMMAR4), "--max-depth", "3"],
    1: lambda tmp: ["check", grammar_file(tmp, critical_chain(8, 2))],  # with a stderr note
    2: lambda tmp: ["check", dirty_file(tmp)],  # validation errors, listed on stdout
    3: lambda tmp: ["check", grammar_file(tmp, branching_family(0.5)), "--max-squarings", "3"],
    64: lambda tmp: ["check", str(GRAMMAR4), "--frobnicate"],
    65: lambda tmp: ["check", text_file(tmp, "{not json")],
    66: lambda tmp: ["check", str(tmp / "missing.json")],
}


@pytest.mark.parametrize("code", list(BUFFERED_CASES))
def test_child_with_buffered_stdout_writes_what_run_writes(tmp_path, code):
    # main ends the process without the flush at exit, so each path must
    # have flushed what it wrote to a block-buffered stdout
    argv = BUFFERED_CASES[code](tmp_path)
    done = subprocess.run([sys.executable, "-m", "ptagcheck.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert (done.returncode, done.stdout, done.stderr) == run(argv)
    assert done.returncode == code


def test_child_with_buffered_stdout_exits_74_on_a_closed_pipe():
    # enumerate's 0.3 MB outgrow the pipe's buffer, so the child is still
    # writing when its reader goes away: the part read is run's, and the
    # failed flush is reported once
    argv = ["enumerate", str(GRAMMAR4), "--max-depth", "4"]
    with subprocess.Popen([sys.executable, "-m", "ptagcheck.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env()) as child:
        head = child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (cli.EX_IOERR, "cannot write output: [Errno 32] Broken pipe\n")
    assert len(head) == 100 and run(argv)[1].startswith(head)


def test_exception_escaping_run_ends_main_with_its_traceback():
    # main's os._exit is for the codes run returns: an error run does not
    # expect still prints its traceback, after what stdout took, and exits 1
    script = ("import sys; from ptagcheck import cli\n"
              "def broken(argv, out, err):\n"
              "    out.write('partial')\n"
              "    raise RuntimeError('boom')\n"
              "cli._run = broken; sys.argv[1:] = ['check', 'grammar4.json']; cli.main()")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=child_env(), cwd=REPO)
    assert (done.returncode, done.stdout) == (1, "partial")
    assert done.stderr.startswith("Traceback") and done.stderr.endswith("RuntimeError: boom\n")


def test_check_names_a_reachable_tree_that_cannot_finish(tmp_path):
    # the structural rule's Inconsistent says why on stderr, naming the first
    # class's cycle that traps derivations, not the start tree t0 that leads
    # into it; the spectral one writes nothing there, and stdout is the
    # report either way
    code, out, err = run(["check", grammar_file(tmp_path, critical_chain(8, 2))])
    assert (code, json.loads(out)["verdict"]) == (1, "Inconsistent")
    assert err == ("Inconsistent: tree 'c1_0' is reachable from the start trees, and no "
                   "derivation from it finishes\n")
    code, out, err = run(["check", str(GRAMMAR2)])
    assert (code, json.loads(out)["verdict"], err) == (1, "Inconsistent", "")
