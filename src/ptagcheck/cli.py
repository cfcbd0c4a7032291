"""Command-line front end.

Every command reads a grammar document and writes machine-readable output
(JSON, or TSV where requested) to stdout.  A failure writes one line to
stderr and nothing to stdout; only validation errors are listed on stdout too,
and a broken pipe comes after what stdout took.  When a tree that a derivation
from the start trees can place cannot finish, check says Inconsistent whatever
its powers say, and writes one line to stderr naming such a tree on a cycle of
trees that cannot finish (ConsistencyReport.stuck_tree).

A command imports only the modules it runs, and main ends the process with
os._exit once stdout and stderr are flushed: no atexit hook runs, and the
interpreter does not tear numpy down.

Exit codes: 0 consistent/valid, 1 inconsistent, 2 validation errors, a
cap hit (gf's term cap, enumerate's node cap or a --max-depth past
ENUMERATE_DEPTH_CAP, simulate's --samples past SIMULATE_SAMPLES_CAP, or the
dense cap of matrix and check, expectation.DENSE_CELL_CAP cells) or out of
memory, 3 indeterminate, 64 usage error, 65 malformed grammar document or
start weights, 66 unreadable input, 74 output that cannot be written (a
broken pipe).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# the modules every command runs; check, gf and extinction, simulate and
# enumerate import theirs where they run
from . import expectation
from . import grammar as gr

EX_OK = 0
EX_INCONSISTENT = 1
EX_INVALID = 2
EX_INDETERMINATE = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_IOERR = 74
EMIT_BATCH = 1 << 16  # characters per write: a write per JSON chunk costs a system call
# the deepest --max-depth enumerate writes out: the JSON encoder takes two frames a level
# of a derivation, and about 496 levels fit the default recursion limit (3.10-3.13)
ENUMERATE_DEPTH_CAP = 400
# the most --samples simulate runs: memory stays bounded by the workers' sample
# blocks, but the time grows with the samples (about a minute for 10^8 on grammar4.json)
SIMULATE_SAMPLES_CAP = 10**8


class _Failure(Exception):
    """_Failure(exit code, line) ends a command; run writes the line to stderr."""


# the exceptions that end any command: exit code and stderr prefix
_FAILURES = {expectation.DenseCapExceeded: (EX_INVALID, "DENSE_CAP_EXCEEDED: "),
             MemoryError: (EX_INVALID, "OUT_OF_MEMORY: "),
             BrokenPipeError: (EX_IOERR, "cannot write output: "),
             ValueError: (EX_USAGE, "usage error: ")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)  # run reports a ValueError as a usage error


def _build_parser():
    parser = _Parser(prog="ptagcheck",
                     description="probabilistic TAG consistency toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("grammar", help="path to a grammar document (JSON)")
        return p

    command("validate", "print all diagnostics for a grammar document")

    p = command("matrix", "emit the P, N or expectation matrix")
    p.add_argument("--which", choices=("P", "N", "M"), default="M")
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = command("check", "decide consistency by the row-sum squaring test and "
                "whether every reachable tree can finish")
    p.add_argument("--max-squarings", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("gf", "print an adjunction or level generating function")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--site", help="site id for its adjunction function")
    which.add_argument("--level", type=int, help="level n for G_n")
    p.add_argument("--term-cap", type=int)  # default: branching.DEFAULT_TERM_CAP

    p = command("extinction", "per-site termination probabilities")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10**6)
    p.add_argument("--start-weights",
                   help="JSON file {tree id: weight} over start trees")

    p = command("simulate", "Monte Carlo termination estimate")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--max-depth", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-weights",
                   help="JSON file {tree id: weight} over start trees")

    p = command("enumerate", "exhaustively list derivations up to a depth")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--prob-floor", type=float, default=0.0)
    p.add_argument("--node-cap", type=int, default=1_000_000)
    return parser


def _emit(doc, out):
    text = ""
    for chunk in json.JSONEncoder(indent=2).iterencode(doc):
        text += chunk
        if len(text) >= EMIT_BATCH:
            out.write(text)
            text = ""
    out.write(text + "\n")


def _read(path, parse, what, malformed):
    """parse of the bytes of the file at path; exit 66 if it cannot be
    read, 65 if parse raises one of the malformed exceptions."""
    try:
        with open(path, "rb") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise _Failure(EX_NOINPUT, f"cannot read {path}: {exc.strerror or exc}") from None
    except malformed as exc:
        raise _Failure(EX_DATAERR, f"malformed {what}: {exc}") from None


def _start_weights(path, g):
    """A copy of g (dataclasses.replace: it builds its own index) with the start
    weights in the file at path, once start_law accepts them; g without a path."""
    if path is None:
        return g

    def parse(data):
        # strict UTF-8 as for a grammar: json.loads would take UTF-16 or a BOM
        weights = json.loads(data.decode("utf-8"))
        if weights is None:  # start_law reads None as the uniform law
            raise ValueError("expected a JSON object, got null")
        weighted = dataclasses.replace(g, start_weights=weights)
        expectation.start_law(weighted)
        return weighted
    # bad JSON or UTF-8, too deep, or no law start_law accepts
    return _read(path, parse, "start weights", (ValueError, RecursionError))


def run(argv, out=None, err=None):
    out, err = out or sys.stdout, err or sys.stderr
    try:
        try:
            return _run(argv, out, err)
        finally:  # on every path: main ends the process without the flush at exit
            out.flush()  # so a closed pipe fails here
    except _Failure as exc:
        code, line = exc.args
    except tuple(_FAILURES) as exc:
        code, prefix = _FAILURES[next(kind for kind in _FAILURES if isinstance(exc, kind))]
        line = f"{prefix}{exc}"
    err.write(f"{line}\n")
    return code


def _run(argv, out, err):
    args = _build_parser().parse_args(argv)
    g = _read(args.grammar, gr.parse_grammar, "grammar document", gr.GrammarParseError)
    if args.command == "validate":
        diags = gr.validate(g)
        _emit([d.as_dict() for d in diags], out)
        return EX_INVALID if any(d.severity == gr.ERROR for d in diags) else EX_OK

    errors = [d for d in g.diagnostics if d.severity == gr.ERROR]
    if errors:
        _emit([d.as_dict() for d in errors], out)
        raise _Failure(EX_INVALID, f"grammar has {len(errors)} validation error(s)")

    if args.command == "matrix":
        matrix = {"P": expectation.build_P, "N": expectation.build_N,
                  "M": expectation.build_M}[args.which](g)
        if args.format == "tsv":
            out.write(expectation.matrix_tsv(matrix.values))
        else:
            _emit(expectation.matrix_json_doc(matrix), out)
        return EX_OK

    if args.command == "check":
        from . import consistency
        report = consistency.check_consistency(
            g, max_squarings=args.max_squarings, tol=args.tol)
        _emit(report.as_dict(), out)
        if report.stuck_tree is not None:  # Inconsistent whatever the powers say
            err.write(f"Inconsistent: tree {report.stuck_tree!r} is reachable from "
                      "the start trees, and no derivation from it finishes\n")
        return {consistency.CONSISTENT: EX_OK,
                consistency.INCONSISTENT: EX_INCONSISTENT,
                consistency.INDETERMINATE: EX_INDETERMINATE}[report.verdict]

    if args.command == "gf":
        from . import branching
        from .polynomials import TermCapExceeded
        term_cap = branching.DEFAULT_TERM_CAP if args.term_cap is None else args.term_cap
        if term_cap < 0:  # adjunction_gf takes no cap, so check it for both modes
            raise ValueError("term_cap must be >= 0")
        idx = g.index
        if args.site is None:
            try:
                poly = branching.level_gf(g, args.level, term_cap=term_cap)
            except TermCapExceeded as exc:
                raise _Failure(EX_INVALID, f"TERM_CAP_EXCEEDED: {exc}") from None
        else:
            try:
                poly = branching.adjunction_gf(g, args.site)
            except KeyError as exc:  # an unknown site
                raise _Failure(EX_USAGE, exc.args[0]) from None
        _emit({"text": poly.format(idx.ids), "constant": poly.constant_term,
               "terms": [{"coefficient": coefficient,
                          "exponents": {idx.ids[i]: p for i, p in exponents.items()}}
                         for exponents, coefficient in poly.terms]}, out)
        return EX_OK

    if args.command == "extinction":
        from . import branching
        g = _start_weights(args.start_weights, g)
        ev = branching.extinction(g, tol=args.tol, max_iter=args.max_iter)
        starts = branching.start_termination(g, ev)
        combined = None if g.start_weights is None else expectation.start_mixture(g, ev.q)
        _emit({"q": ev.as_dict(), "iterations": ev.iterations,
               "residual": ev.residual, "converged": ev.converged,
               "start_trees": starts, "combined": combined}, out)
        return EX_OK

    if args.command == "simulate":
        from . import simulate
        if args.samples > SIMULATE_SAMPLES_CAP:
            raise _Failure(EX_INVALID, f"samples {args.samples} is past the cap of "
                           f"{SIMULATE_SAMPLES_CAP} that simulate runs")
        stats = simulate.estimate_termination(
            _start_weights(args.start_weights, g), args.samples, args.max_depth,
            seed=args.seed)
        _emit(stats.as_dict(), out)
        return EX_OK

    if args.command == "enumerate":
        from . import simulate
        if args.max_depth > ENUMERATE_DEPTH_CAP:
            raise _Failure(EX_INVALID, f"max_depth {args.max_depth} is past the "
                           f"{ENUMERATE_DEPTH_CAP} levels that enumerate writes out")
        try:
            derivations = simulate.enumerate_derivations(
                g, args.max_depth, prob_floor=args.prob_floor, node_cap=args.node_cap)
        except simulate.EnumerationBudgetExceeded as exc:
            raise _Failure(EX_INVALID, str(exc)) from None
        _emit(simulate.derivation_docs(derivations), out)
        return EX_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main():
    # run has flushed stdout, so all that is left is the interpreter's teardown,
    # numpy's modules and all, and after a closed pipe a second failed flush.  An
    # exception that run lets through ends the process as usual, with its traceback
    code = run(sys.argv[1:])
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
