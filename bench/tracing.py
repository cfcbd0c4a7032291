"""Traced run: spans around calls into each layer, counts and memory peaks.

Public functions of ``ptagcheck`` are wrapped from outside, in every module
where callers look them up (``consistency`` imports ``build_M`` by name, so
both ``expectation.build_M`` and ``consistency.build_M`` are patched), so a
nested call becomes a child span.  Spans (name, start, end, parent, op id)
are kept in memory and written to ``.bench_out`` when the run ends; self
time (a span minus its children) and counts are derived from them.
tracemalloc peaks come from a third pass of their own, because tracemalloc
slows the enumerator about five-fold.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

from ptagcheck import (branching, cli, consistency, expectation, grammar,
                       polynomials, simulate)

from workloads import Tally, child_env

Poly = polynomials.SparsePolynomial

# span name -> every (owner, attribute) through which callers reach it
PATCHES = {
    "grammar.parse_grammar": [(grammar, "parse_grammar")],
    "grammar.validate": [(grammar, "validate")],
    "expectation.build_M": [(expectation, "build_M"), (consistency, "build_M")],
    "expectation.matrix_json_doc": [(expectation, "matrix_json_doc")],
    "consistency.check_consistency": [(consistency, "check_consistency")],
    "branching.adjunction_gf": [(branching, "adjunction_gf")],
    "branching.extinction": [(branching, "extinction")],
    "branching.start_termination": [(branching, "start_termination")],
    "branching.level_gf": [(branching, "level_gf")],
    "branching.death_by_level": [(branching, "death_by_level")],
    "branching.m_from_partials": [(branching, "m_from_partials")],
    "polynomials.SparsePolynomial.evaluate": [(Poly, "evaluate")],
    "polynomials.SparsePolynomial.substitute": [(Poly, "substitute")],
    "polynomials.SparsePolynomial.partial": [(Poly, "partial")],
    "simulate.estimate_termination": [(simulate, "estimate_termination")],
    "simulate.sample_derivation": [(simulate, "sample_derivation")],
    "simulate.derived_tree": [(simulate, "derived_tree")],
    "simulate.yield_string": [(simulate, "yield_string")],
    "simulate.enumerate_derivations": [(simulate, "enumerate_derivations")],
    "cli.run": [(cli, "run")],
}


def _count_check(c, args, report):
    k = len(args[0].site_ids)
    c["consistency.squarings"] += report.squarings_used
    c["consistency.matmul_gflop"] += report.squarings_used * 2 * k ** 3 / 1e9
    c["consistency.verdict.Indeterminate"] += report.verdict == consistency.INDETERMINATE


def _count_extinction(c, args, ev):
    c["branching.extinction.iterations"] += ev.iterations
    c["branching.extinction.unconverged"] += not ev.converged


def _count_mc(c, args, stats):
    c["simulate.mc.terminated"] += stats.terminated
    c["simulate.mc.censored"] += stats.censored
    c["simulate.mc.samples"] += stats.samples


def _count_sample(c, args, d):
    c["simulate.sample_derivation.nodes"] += sum(1 for _ in d.root.nodes())
    c["simulate.sample_derivation.censored"] += not d.complete


def _count_terms(c, args, poly):
    c["branching.level_gf.terms"] += len(poly)


def _count_derivations(c, args, derivations):
    c["simulate.enumerate_derivations.derivations"] += len(derivations)


# counts read off a span's return value, after the span has ended
COUNTERS = {
    "consistency.check_consistency": _count_check,
    "branching.extinction": _count_extinction,
    "branching.level_gf": _count_terms,
    "simulate.estimate_termination": _count_mc,
    "simulate.sample_derivation": _count_sample,
    "simulate.enumerate_derivations": _count_derivations,
}

# (metric, unit, better): every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("grammar.parse_grammar.self_ms", "ms", "lower"),
    ("grammar.validate.self_ms", "ms", "lower"),
    ("grammar.validate.calls", "count", "lower"),
    ("expectation.build_M.self_ms", "ms", "lower"),
    ("expectation.matrix_json_doc.self_ms", "ms", "lower"),
    ("consistency.check_consistency.self_ms", "ms", "lower"),
    ("consistency.squarings", "count", "lower"),
    ("consistency.matmul_gflop", "GFLOP", "lower"),
    ("consistency.verdict.Indeterminate", "count", "lower"),
    ("branching.extinction.self_ms", "ms", "lower"),
    ("branching.extinction.iterations", "count", "lower"),
    ("branching.extinction.unconverged", "count", "lower"),
    ("branching.adjunction_gf.calls", "count", "lower"),
    ("branching.level_gf.self_ms", "ms", "lower"),
    ("branching.level_gf.terms", "count", "lower"),
    ("branching.death_by_level.self_ms", "ms", "lower"),
    ("branching.m_from_partials.self_ms", "ms", "lower"),
    ("polynomials.SparsePolynomial.evaluate.calls", "count", "lower"),
    ("polynomials.SparsePolynomial.evaluate.self_ms", "ms", "lower"),
    ("polynomials.SparsePolynomial.substitute.self_ms", "ms", "lower"),
    ("polynomials.SparsePolynomial.partial.calls", "count", "lower"),
    ("simulate.estimate_termination.self_ms", "ms", "lower"),
    ("simulate.estimate_termination.peak_mb", "MB", "lower"),
    ("simulate.mc.terminated", "count", "higher"),
    ("simulate.mc.censored", "count", "lower"),
    ("simulate.mc.samples_per_s", "1/s", "higher"),
    ("simulate.sample_derivation.self_ms", "ms", "lower"),
    ("simulate.sample_derivation.nodes", "count", "lower"),
    ("simulate.sample_derivation.censored", "count", "lower"),
    ("simulate.derived_tree.self_ms", "ms", "lower"),
    ("simulate.yield_string.self_ms", "ms", "lower"),
    ("simulate.enumerate_derivations.self_ms", "ms", "lower"),
    ("simulate.enumerate_derivations.derivations", "count", "lower"),
    ("simulate.enumerate_derivations.peak_mb", "MB", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = -1
        self.last_output = None
        self.counts = {name: 0 for name, _, _ in PER_LAYER}
        self.counts["simulate.mc.samples"] = 0
        self._saved = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if count:
                count(self.counts, args, return_value)
            return return_value
        return traced

    def install(self):
        for name, places in PATCHES.items():
            owner, attr = places[0]
            traced = self._wrap(name, getattr(owner, attr))
            for owner, attr in places:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, op_id):
        """A Tally ``call`` hook that runs an operation as a root span and
        keeps its output in ``last_output``."""
        def call(op):
            self.op_id = op_id
            self.last_output = None
            self.last_output = self._wrap(f"op:{op.name}", op.run)()
            return self.last_output
        return call

    def self_times(self):
        """{span name: (total self seconds, calls)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + end - start - covered, calls + 1)
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps([name, round(start - origin, 9),
                                         round(end - origin, 9), parent, op_id]) + "\n")


def _median_ms(argv, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def traced_run(workload, seed, spans_path):
    """A warm pass, an untraced pass, a traced pass and, for memory peaks, a
    tracemalloc pass over the operations that take one.

    Returns (metrics, failures, attempted, info); self times and counts are
    per operation of the traced pass.
    """
    state = workload.setup(workload.prepare(seed))
    workload.warm_up(state)
    make = workload.trace_operations or (lambda s: workload.operations(s, 0))

    for op in make(state):  # first calls (imports, caches) stay out of the ratio
        op.run()
    untraced = Tally()
    untraced.passes.append([untraced.run(op) for op in make(state)])

    tracer = Tracer()
    traced = Tally()
    ops = make(state)
    stdout_bytes = 0
    tracer.install()
    try:
        times = []
        for op_id, op in enumerate(ops):
            times.append(traced.run(op, tracer.call(op_id)))
            if workload.runs_children and tracer.last_output:
                stdout_bytes += len(tracer.last_output[1])
        traced.passes.append(times)
    finally:
        tracer.uninstall()

    peaks = {}
    for op in ops:
        if op.peak:
            tracemalloc.start()
            try:
                op.run()
                peaks[op.peak] = max(peaks.get(op.peak, 0.0),
                                     tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()

    n = len(ops)
    selfs = tracer.self_times()
    values = {}
    for metric, _, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_ms":
            values[metric] = selfs.get(layer, (0.0, 0))[0] * 1e3 / n
        elif kind == "calls":
            values[metric] = selfs.get(layer, (0.0, 0))[1] / n
        else:
            values[metric] = tracer.counts.get(metric, 0) / n
    values.update(peaks)
    mc_seconds = selfs.get("simulate.estimate_termination", (0.0, 0))[0]
    values["simulate.mc.samples_per_s"] = (tracer.counts["simulate.mc.samples"] / mc_seconds
                                           if mc_seconds else 0.0)
    if workload.runs_children:
        interpreter = _median_ms([sys.executable, "-c", "pass"])
        values["cli.interpreter_ms"] = interpreter
        values["cli.import_ms"] = _median_ms([sys.executable, "-c", "import ptagcheck.cli"]) - interpreter
        values["cli.stdout_bytes"] = stdout_bytes / n
    values["trace.overhead_ratio"] = (sum(traced.scaled_passes()[0])
                                      / sum(untraced.scaled_passes()[0]))

    tracer.write(spans_path)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    return (metrics, untraced.failures + traced.failures, 2 * n,
            {"spans": len(tracer.spans), "spans_file": spans_path.name})
