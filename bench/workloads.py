"""The benchmark's workloads.

Each is a closed loop in one process: the next operation starts when the
previous one has returned.  A workload builds its inputs from the seed in
``setup``, and ``operations(state, p)`` lists pass ``p``; a run makes a
fixed number of whole passes, so every run of a workload times the same
operations.  Every operation comes with a check of its output.

Why these four (see README.md for the layer map):
  cli-shipped    what a user types: interpreter start, imports, emission
  verdict-scale  the numeric verdict paths on growing synthetic grammars
  montecarlo     the samplers and tree surgery
  exact-oracles  the symbolic and enumerative oracles
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ptagcheck import branching, cli, consistency, grammar, simulate

import known
from oracle import Reference
from synth import relabel, shape, synth_document

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
SHIPPED = ("grammar4.json", "grammar2.json")


@dataclass
class Outcome:
    error: str | None = None
    decided: tuple | None = None  # (decided, asked)
    agree: tuple | None = None    # (agreeing, compared)


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    peak: str | None = None       # per-layer metric that takes its tracemalloc peak


# Host speed drifts on shared machines: on a shared 2-vCPU Xeon virtual
# machine, the median time of a fixed loop switched between about 3.1 and
# 4.5 ms from one second to the next.  A fixed interpreter-bound kernel is
# therefore timed before every operation, and every timing is scaled to what
# it would take when the kernel takes KERNEL_REF_S (its median on that
# machine), using the mean of the kernel times just before and just after
# the operation.  A slower program still reads slower; a slower host mostly
# does not (README.md, Steadiness, gives the residual spread).
KERNEL_REF_S = 0.0045


def _kernel():
    acc = {}
    for i in range(11_000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0.0) + i * 0.5


def speed_sample():
    """Seconds taken by the speed kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_factors(samples):
    """Scale factor for each timing made between samples[i] and samples[i + 1]."""
    return [2 * KERNEL_REF_S / (a + b) for a, b in zip(samples, samples[1:])]


class Tally:
    """Per-operation times, pass by pass, and the outcomes of their checks."""

    def __init__(self):
        self.passes = []
        self.failures = []
        self.decided = [0.0, 0.0]
        self.agree = [0.0, 0.0]
        self.speed = []  # speed_sample() before each operation

    def run(self, op, call=None):
        """Time one operation, check its output; returns the seconds it took.

        ``call(op)``, when given, runs the operation in place of ``op.run()``.
        Garbage left by the previous operation is collected first, and the
        speed kernels are timed, both outside the timed region.
        """
        gc.collect()
        self.speed.append(speed_sample())
        start = time.perf_counter()
        try:
            output = call(op) if call else op.run()
        except Exception as exc:  # an operation that raises is a counted failure
            self.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        outcome = op.check(output)
        if outcome.error:
            self.failures.append(f"{op.name}: {outcome.error}")
        for acc, part in ((self.decided, outcome.decided), (self.agree, outcome.agree)):
            if part is not None:
                acc[0] += part[0]
                acc[1] += part[1]
        return elapsed

    def scaled_passes(self):
        """Per-pass operation times scaled to the reference host speed."""
        factors = iter(speed_factors(self.speed + [speed_sample()]))
        return [[t * next(factors) for t in times] for times in self.passes]


class Workload:
    """``prepare(seed)`` builds the benchmark's own inputs and answers, untimed;
    ``setup(inputs)`` is the program's set-up work on them (loading and
    parsing grammars), timed as setup_s, and returns the state the
    operations run on."""

    nominal_pass_s = 5.0           # one pass on the reference machine
    runs_children = False          # True: it starts processes, whose peak RSS counts
    trace_operations = None        # in-process stand-in for operations()

    def passes(self, seconds):
        """Whole passes that fill ``seconds`` on the reference machine."""
        return max(1, round(seconds / self.nominal_pass_s))


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# cli-shipped

CLI_COMMANDS = (
    ("validate",),
    ("matrix",),
    ("matrix", "--which", "P", "--format", "tsv"),
    ("check",),
    ("gf", "--site", "{first_site}"),
    ("gf", "--level", "4"),
    ("extinction",),
    ("simulate",),
    ("enumerate", "--max-depth", "4"),
)


def cli_argv(name):
    site = known.SHIPPED[name]["first_site"]
    return [[a.format(first_site=site) for a in cmd] + [name] for cmd in CLI_COMMANDS]


def cli_key(argv):
    return " ".join(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_cli(env, argv):
    """(exit code, stdout bytes) of ``python -m ptagcheck.cli argv``."""
    proc = subprocess.run([sys.executable, "-m", "ptagcheck.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


class CliShipped(Workload):
    """Every CLI command on both shipped grammars, each as a fresh process."""

    runs_children = True

    def prepare(self, seed):
        recorded = known.load_recorded()["cli"]
        hand = {name: dict(known.SHIPPED[name], rho_eig=known.hand_spectral_radius(name))
                for name in SHIPPED}
        return {"recorded": recorded, "hand": hand, "env": child_env(),
                "pass": {}, "argv": [a for n in SHIPPED for a in cli_argv(n)]}

    def setup(self, inputs):
        # the part of every command that happens in process before its work
        return dict(inputs, grammars=[grammar.load_grammar(ROOT / n) for n in SHIPPED])

    def warm_up(self, state):
        spawn_cli(state["env"], ["validate", SHIPPED[0]])

    def operations(self, state, p):
        return [Op(cli_key(argv), lambda a=argv: spawn_cli(state["env"], a),
                   lambda out, a=argv: self.check(state, a, out))
                for argv in state["argv"]]

    def trace_operations(self, state):
        """The same commands in process, through cli.run, for the traced pass."""
        import io

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out=out, err=err)
            return code, out.getvalue().encode()

        return [Op(cli_key(a), lambda a=a: run(a),
                   lambda out, a=a: self.check(state, a, out)) for a in state["argv"]]

    def check(self, state, argv, out):
        code, stdout = out
        name, command = argv[-1], argv[0]
        hand = state["hand"][name]
        seen = state["pass"].setdefault(name, {})
        expect = hand["check_exit"] if command == "check" else 0
        if code != expect:
            return Outcome(f"exit code {code}, expected {expect}")
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != state["recorded"][cli_key(argv)]:
            return Outcome("stdout differs from the recorded digest")
        if command == "matrix" and "tsv" in argv:
            values = np.array([[float(x) for x in line.split("\t")]
                               for line in stdout.decode().splitlines()])
            if not np.array_equal(values, np.array(hand["P"], dtype=float)):
                return Outcome("P differs from the hand-written P")
        elif command == "matrix":
            doc = json.loads(stdout)
            if doc["order"] != hand["sites"] or not np.allclose(
                    doc["rows"], hand["M"], rtol=0, atol=1e-12):
                return Outcome("M differs from the hand-written M")
        elif command == "check":
            doc = json.loads(stdout)
            seen["verdict"] = doc["verdict"]
            rho = hand["rho_eig"]
            if not _close(rho, hand["rho"], 1e-12):
                return Outcome(f"eigvals of the hand-written M give {rho}")
            if doc["verdict"] != hand["verdict"]:
                return Outcome(f"verdict {doc['verdict']}, expected {hand['verdict']}")
            if not doc["rho_lower_bound"] <= rho * (1 + 1e-9) <= doc["rho_estimate"] * (1 + 2e-9):
                return Outcome(f"rho {rho} outside the reported bounds")
            return Outcome(decided=(1, 1))
        elif command == "gf" and "--site" in argv:
            if not _close(json.loads(stdout)["constant"], hand["first_site_nil"], 1e-15):
                return Outcome("site function constant is not the nil mass")
        elif command == "gf":
            seen["c4"] = json.loads(stdout)["constant"]
        elif command == "extinction":
            doc = json.loads(stdout)
            starts = list(doc["start_trees"].values())
            if hand["start_q"] is not None and not _close(starts[0], hand["start_q"], 1e-9):
                return Outcome(f"start termination {starts[0]}, expected {hand['start_q']}")
            terminates = all(q >= 1 - 1e-6 for q in starts)
            return Outcome(agree=(int(terminates == (seen.get("verdict") == "Consistent")), 1))
        elif command == "simulate":
            doc = json.loads(stdout)
            if doc["terminated"] + doc["censored"] != doc["samples"]:
                return Outcome("terminated + censored != samples")
        elif command == "enumerate":
            total = sum(d["probability"] for d in json.loads(stdout))
            return Outcome(agree=(int(_close(total, seen.get("c4"), 1e-12)), 1))
        return Outcome()

    def describe(self, state):
        return {"commands": [cli_key(a) for a in state["argv"]]}


# ---------------------------------------------------------------------------
# verdict-scale

# (sites, grammars per pass, adjunction masses cycled over the tier).  The
# generator draws are fixed here and --seed draws an isomorphic relabelling
# of each (tree order, every id and label): one draw's cost varies about 2x
# from the next, so fresh draws per seed would swamp the run-to-run spread
# of every timing, while a relabelled grammar costs the same.
VERDICT_TIERS = (
    (30, 40, (0.2, 0.4, 0.6, 0.8, 1.0)),
    (130, 6, (0.15, 0.25)),
    (500, 2, (0.15,)),
)
# Kleene iterations allowed per grammar; a grammar that needs more counts
# as unconverged, which is a disagreement, not a failure.
EXTINCTION_MAX_ITER = 1000


def verdict_corpus(seed):
    """[(name, document)] for one seed; drawn without looking at outcomes."""
    corpus = []
    for sites, count, masses in VERDICT_TIERS:
        for i in range(count):
            doc = synth_document(i, sites, mass=masses[i % len(masses)])
            corpus.append((f"s{sites}/{i}", relabel(doc, f"{seed}/{sites}/{i}")))
    return corpus


class VerdictScale(Workload):
    """parse, validate, check, extinction and start termination per grammar."""

    nominal_pass_s = 6.5

    def prepare(self, seed):
        entries = []
        for name, doc in verdict_corpus(seed):
            ref = Reference(doc)
            entries.append({"name": name, "text": json.dumps(doc), "ref": ref,
                            "rho": ref.spectral_radius(), "shape": shape(doc)})
        return {"entries": entries}

    def setup(self, inputs):
        # each operation parses its text again: parsing is part of a verdict
        return dict(inputs, grammars=[grammar.parse_grammar(e["text"])
                                      for e in inputs["entries"]])

    def warm_up(self, state):
        self._run(state["entries"][0]["text"])

    @staticmethod
    def _run(text):
        g = grammar.parse_grammar(text)
        diags = grammar.validate(g)
        report = consistency.check_consistency(g)
        ev = branching.extinction(g, max_iter=EXTINCTION_MAX_ITER)
        return diags, report, ev, branching.start_termination(g, ev)

    def operations(self, state, p):
        return [Op(e["name"], lambda e=e: self._run(e["text"]),
                   lambda out, e=e: self.check(e, out)) for e in state["entries"]]

    @staticmethod
    def check(entry, out):
        diags, report, ev, starts = out
        errors = [d.code for d in diags if d.severity == grammar.ERROR]
        if errors:
            return Outcome(f"validation errors {errors}")
        verdict, rho = report.verdict, entry["rho"]
        # Indeterminate is never wrong, only undecided; decided_rate counts it
        if ((verdict == consistency.CONSISTENT and not rho < 1 + 1e-9)
                or (verdict == consistency.INCONSISTENT and not rho > 1 - 1e-9)):
            return Outcome(f"verdict {verdict} but eigvals give rho {rho}")
        ref = entry["ref"]
        if list(ev.site_index.ids) != ref.site_ids:
            return Outcome("site order differs from the document's preorder")
        q = ev.q
        if not ((q >= 0).all() and (q <= 1).all()):
            return Outcome("termination probability outside [0, 1]")
        if ev.converged:
            residual = float(np.abs(np.minimum(ref.offspring(q), 1.0) - q).max())
            if residual > 1e-10:
                return Outcome(f"q is not a fixed point of g (residual {residual:.3g})")
        if not np.allclose(list(starts.values()), ref.start_products(q), rtol=0, atol=1e-12):
            return Outcome("start termination is not the product of its sites' q")
        decided = verdict != consistency.INDETERMINATE
        terminates = all(x >= 1 - 1e-6 for x in starts.values())
        agree = ev.converged and decided and (verdict == consistency.CONSISTENT) == terminates
        return Outcome(decided=(int(decided), 1), agree=(int(agree), 1))

    def describe(self, state):
        return {"grammars": [[e["name"], *e["shape"]] for e in state["entries"]],
                "extinction_max_iter": EXTINCTION_MAX_ITER}


# ---------------------------------------------------------------------------
# montecarlo

MC_RUNS = (  # (grammar, samples); max depth 200 as in the CLI
    ("grammar2.json", 200_000),
    ("grammar4.json", 300_000),
    ("syn130.json", 10_000),
)
MC_MAX_DEPTH = 200
SAMPLES_G2 = 2     # sample_derivation on grammar2, each stopped by the node cap
DERIVES_G4 = 16    # batches of sample -> derived tree -> yield on grammar4,
DERIVE_BATCH = 50  # of this many derivations each, so one batch costs about the same as the next


class MonteCarlo(Workload):
    """estimate_termination, sample_derivation and tree surgery."""

    nominal_pass_s = 4.2

    def prepare(self, seed):
        return {"seed": seed, "reference": known.load_recorded()["montecarlo"]}

    def setup(self, inputs):
        grammars = {name: grammar.load_grammar(ROOT / name) for name in SHIPPED}
        grammars["syn130.json"] = grammar.load_grammar(DATA / "syn130.json")
        return dict(inputs, grammars=grammars)

    def warm_up(self, state):
        g4 = state["grammars"]["grammar4.json"]
        simulate.estimate_termination(g4, 1000, MC_MAX_DEPTH, seed=0)
        self._derive(g4, 0)

    @staticmethod
    def _derive(g, seed):
        """[(derivation, yield)] for DERIVE_BATCH seeds from ``seed`` on."""
        out = []
        for s in range(seed, seed + DERIVE_BATCH):
            d = simulate.sample_derivation(g, seed=s, max_depth=MC_MAX_DEPTH)
            out.append((d, simulate.yield_string(simulate.derived_tree(d, g))))
        return out

    def operations(self, state, p):
        grammars = state["grammars"]
        base = state["seed"] * 100_003 + p * 1_000
        ops = []
        for i, (name, samples) in enumerate(MC_RUNS):
            g = grammars[name]
            ops.append(Op(f"mc:{name}",
                          lambda g=g, n=samples, s=base + i: simulate.estimate_termination(
                              g, n, MC_MAX_DEPTH, seed=s),
                          lambda out, name=name: self.check_mc(state, name, out),
                          peak="simulate.estimate_termination.peak_mb"))
        g2, g4 = grammars["grammar2.json"], grammars["grammar4.json"]
        for i in range(SAMPLES_G2):
            ops.append(Op("sample:grammar2.json",
                          lambda s=base + 10 + i: simulate.sample_derivation(
                              g2, seed=s, max_depth=MC_MAX_DEPTH),
                          self.check_capped))
        for i in range(DERIVES_G4):
            ops.append(Op("derive:grammar4.json",
                          lambda s=base + 100 + i * DERIVE_BATCH: self._derive(g4, s),
                          lambda out: self.check_derived(g4, out)))
        return ops

    @staticmethod
    def check_mc(state, name, stats):
        q = state["reference"][name]
        n = stats.samples
        if stats.terminated + stats.censored != n:
            return Outcome("terminated + censored != samples")
        se = math.sqrt(q * (1 - q) / n)
        ok = abs(stats.termination_rate - q) <= 4 * se + 1e-12
        error = None if ok else (f"estimate {stats.termination_rate} is more than "
                                 f"4 standard errors from {q}")
        return Outcome(error, decided=(stats.terminated, n), agree=(int(ok), 1))

    @staticmethod
    def check_capped(d):
        # grammar2 is supercritical: nearly every sample runs into the node cap
        if d.complete and sum(1 for _ in d.root.nodes()) >= simulate.DEFAULT_MAX_NODES:
            return Outcome("a derivation at the node cap is marked complete")
        return Outcome(decided=(int(d.complete), 1))

    @staticmethod
    def check_derived(g, out):
        if not all(d.complete for d, _ in out):
            return Outcome("grammar4 derivation censored")
        same = all(Counter(words) == Counter(simulate.anchor_multiset(d, g))
                   for d, words in out)
        return Outcome(None if same else "yield does not carry the derivation's anchors",
                       decided=(len(out), len(out)), agree=(int(same), 1))

    def describe(self, state):
        return {"mc": [list(r) for r in MC_RUNS], "max_depth": MC_MAX_DEPTH,
                "samples_grammar2": SAMPLES_G2,
                "derives_grammar4": [DERIVES_G4, DERIVE_BATCH]}


# ---------------------------------------------------------------------------
# exact-oracles

ORACLE_DEPTH = 5
# per pass; with 6 passes the median falls among the m_from_partials calls
# and the tail (11th largest) among the level_gf calls, under the 6 enumerations
LEVEL_GF_CALLS = 2
DEATH_CALLS = 3
PARTIALS_CALLS = 6


class ExactOracles(Workload):
    """level_gf, enumerate_derivations and death_by_level on grammar4 at depth 5,
    and m_from_partials on the ~130-site data/syn130.json, relabelled by seed
    (the same work on every seed, as in verdict-scale)."""

    nominal_pass_s = 4.0

    def prepare(self, seed):
        with open(DATA / "syn130.json", encoding="utf-8") as handle:
            doc = relabel(json.load(handle), f"{seed}/oracle")
        return {"syn_text": json.dumps(doc), "syn_m": Reference(doc).matrix(),
                "syn_shape": shape(doc), "known": known.load_recorded()["exact"],
                "pass": {}}

    def setup(self, inputs):
        return dict(inputs, g4=grammar.load_grammar(ROOT / "grammar4.json"),
                    syn=grammar.parse_grammar(inputs["syn_text"]))

    def warm_up(self, state):
        g4 = state["g4"]
        branching.level_gf(g4, 3)
        simulate.enumerate_derivations(g4, 3)
        branching.death_by_level(g4, 3)
        branching.m_from_partials(g4)

    def operations(self, state, p):
        g4, syn, seen = state["g4"], state["syn"], state["pass"]
        want = state["known"]
        seen.clear()

        def check_enum(ds):
            total = sum(d.probability for d in ds)
            seen["enum"] = total
            if len(ds) != want["derivations"]:
                return Outcome(f"{len(ds)} derivations, expected {want['derivations']}")
            ok = _close(total, want["c5"], 1e-12)
            return Outcome(None if ok else f"enumeration sum {total} != C5 {want['c5']}",
                           decided=(total, 1), agree=(int(ok), 1))

        def check_level(poly):
            c = branching.constant_split(poly)[1]
            seen["c5"] = c
            if len(poly) != want["terms"]:
                return Outcome(f"G5 has {len(poly)} terms, expected {want['terms']}")
            ok = _close(c, seen.get("enum"), 1e-12)
            return Outcome(None if ok else "level_gf constant != enumeration sum",
                           decided=(c, 1), agree=(int(ok), 1))

        def check_death(value):
            ok = _close(value, seen.get("c5"), 1e-12) and _close(value, seen.get("enum"), 1e-12)
            return Outcome(None if ok else "death_by_level != C5 or the enumeration sum",
                           decided=(value, 1), agree=(int(ok), 1))

        def check_partials(m):
            ok = np.allclose(m.values, state["syn_m"], rtol=0, atol=1e-12)
            return Outcome(None if ok else "partials differ from the scattered M",
                           agree=(int(ok), 1))

        ops = [Op("enumerate_derivations",
                  lambda: simulate.enumerate_derivations(g4, ORACLE_DEPTH), check_enum,
                  peak="simulate.enumerate_derivations.peak_mb")]
        ops += [Op("level_gf", lambda: branching.level_gf(g4, ORACLE_DEPTH), check_level)
                for _ in range(LEVEL_GF_CALLS)]
        ops += [Op("death_by_level", lambda: branching.death_by_level(g4, ORACLE_DEPTH),
                   check_death) for _ in range(DEATH_CALLS)]
        ops += [Op("m_from_partials", lambda: branching.m_from_partials(syn), check_partials)
                for _ in range(PARTIALS_CALLS)]
        return ops

    def describe(self, state):
        return {"depth": ORACLE_DEPTH, "partials_grammar": list(state["syn_shape"])}


WORKLOADS = {
    "cli-shipped": CliShipped,
    "verdict-scale": VerdictScale,
    "montecarlo": MonteCarlo,
    "exact-oracles": ExactOracles,
}
