"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that the generator is deterministic per seed, that the metric
names printed equal those in BENCHMARK.json, and that a deliberately wrong
known answer is caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import known  # noqa: E402
import workloads as wl  # noqa: E402
from ptagcheck import branching, consistency, grammar  # noqa: E402
from synth import relabel, shape, synth_document  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- generator -------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    assert synth_document(7, 30, mass=0.6) == synth_document(7, 30, mass=0.6)
    assert synth_document(7, 30, mass=0.6) != synth_document(8, 30, mass=0.6)
    doc = synth_document(3, 130)
    assert relabel(doc, 1) == relabel(doc, 1)
    assert relabel(doc, 1) != relabel(doc, 2)
    assert wl.verdict_corpus(5)[:3] == wl.verdict_corpus(5)[:3]


@pytest.mark.parametrize("sites", [30, 130, 500])
def test_generator_makes_valid_sparse_grammars_of_the_asked_size(sites):
    doc = synth_document(0, sites, mass=0.4)
    n_sites, n_trees, n_phi = shape(doc)
    assert n_sites == sites
    assert n_phi <= 4 * sites  # at most three targets plus nil per site
    g = grammar.parse_grammar(json.dumps(doc))
    assert not [d for d in grammar.validate(g) if d.severity == grammar.ERROR]
    assert all(t.anchors for t in g.trees)


def test_relabelled_grammar_keeps_verdict_and_iterations():
    for i in range(5):
        doc = synth_document(i, 30, mass=0.6)
        results = []
        for d in (doc, relabel(doc, "x")):
            g = grammar.parse_grammar(json.dumps(d))
            ev = branching.extinction(g, max_iter=wl.EXTINCTION_MAX_ITER)
            results.append((consistency.check_consistency(g).verdict, ev.iterations,
                            sorted(branching.start_termination(g, ev).values())))
        assert results[0][:2] == results[1][:2]
        assert results[0][2] == pytest.approx(results[1][2], abs=1e-12)


def test_stored_montecarlo_grammar_is_the_generators():
    args = known.load_recorded()["syn130"]
    assert json.loads((wl.DATA / "syn130.json").read_text()) == synth_document(**args)


def test_oracle_grammar_is_the_stored_one_relabelled():
    w = wl.ExactOracles()
    stored = shape(json.loads((wl.DATA / "syn130.json").read_text()))
    first, second = w.prepare(1), w.prepare(2)
    assert first["syn_shape"] == second["syn_shape"] == stored
    assert first["syn_text"] != second["syn_text"]


# -- metric names ----------------------------------------------------------

def test_end_to_end_names_match_benchmark_json():
    out = result_of(run_bench("--workload", "cli-shipped", "--seed", "1",
                              "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_per_layer_names_match_benchmark_json():
    import tracing
    want = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert tracing.PER_LAYER == want
    out = result_of(run_bench("--workload", "cli-shipped", "--seed", "1",
                              "--seconds", "1", "--trace", "1"))
    assert list(out["metrics"]) == [name for name, _, _ in want]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


# -- known answers ---------------------------------------------------------

def test_wrong_hand_written_matrix_is_caught():
    w = wl.CliShipped()
    state = w.setup(w.prepare(0))
    argv = ["matrix", "grammar4.json"]
    good = wl.spawn_cli(state["env"], argv)
    assert w.check(state, argv, good).error is None
    wrong = [row[:] for row in state["hand"]["grammar4.json"]["M"]]
    wrong[0][1] = 0.7
    state["hand"]["grammar4.json"]["M"] = wrong
    assert "hand-written M" in w.check(state, argv, good).error


def test_wrong_stdout_is_caught():
    w = wl.CliShipped()
    state = w.setup(w.prepare(0))
    argv = ["check", "grammar2.json"]
    code, stdout = wl.spawn_cli(state["env"], argv)
    assert w.check(state, argv, (code, stdout)).error is None
    assert "digest" in w.check(state, argv, (code, stdout + b" ")).error
    assert "exit code" in w.check(state, argv, (0, stdout)).error


def test_wrong_verdict_against_eigvals_is_caught():
    w = wl.VerdictScale()
    doc = synth_document(0, 30, mass=0.2)
    ref = wl.Reference(doc)
    entry = {"text": json.dumps(doc), "ref": ref, "rho": ref.spectral_radius()}
    out = w._run(entry["text"])
    assert out[1].verdict == consistency.CONSISTENT
    assert w.check(entry, out).error is None
    assert "eigvals" in w.check(dict(entry, rho=1.5), out).error


def test_wrong_montecarlo_reference_is_caught():
    w = wl.MonteCarlo()
    state = w.setup(w.prepare(0))
    g2 = state["grammars"]["grammar2.json"]
    stats = wl.simulate.estimate_termination(g2, 20_000, wl.MC_MAX_DEPTH, seed=3)
    assert w.check_mc(state, "grammar2.json", stats).error is None
    state["reference"]["grammar2.json"] = 0.01
    assert "standard errors" in w.check_mc(state, "grammar2.json", stats).error


def test_hand_written_spectral_radii():
    assert known.hand_spectral_radius("grammar4.json") == pytest.approx(0.6, abs=1e-12)
    assert known.hand_spectral_radius("grammar2.json") == pytest.approx(1.97, abs=1e-12)


# -- contract --------------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "montecarlo", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
