"""Command-line front end.

Every command reads a grammar document and writes machine-readable output
(JSON, or TSV where requested) to stdout; human diagnostics go to stderr.

Exit codes: 0 consistent/valid, 1 inconsistent, 2 validation errors or a
cap hit (gf's term cap, enumerate's node cap or a --max-depth past
ENUMERATE_DEPTH_CAP, or the dense cap of matrix and check,
expectation.DENSE_CELL_CAP cells), 3 indeterminate, 64 usage error, 65
malformed grammar document, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import branching, consistency, expectation, simulate
from . import grammar as gr

EX_OK = 0
EX_INCONSISTENT = 1
EX_INVALID = 2
EX_INDETERMINATE = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EMIT_BATCH = 1 << 16  # characters per write: a write per JSON chunk costs a system call
# the deepest --max-depth enumerate writes out: the JSON encoder takes two frames a level
# of a derivation, and about 496 levels fit the default recursion limit (3.10-3.13)
ENUMERATE_DEPTH_CAP = 400


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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

    p = command("check", "decide consistency by the row-sum squaring test")
    p.add_argument("--max-squarings", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("gf", "print an adjunction or level generating function")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--site", help="site id for its adjunction function")
    which.add_argument("--level", type=int, help="level n for G_n")
    p.add_argument("--term-cap", type=int, default=branching.DEFAULT_TERM_CAP)

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


def _load(path, err):
    try:
        g = gr.load_grammar(path)
    except OSError as exc:
        err.write(f"cannot read {path}: {exc.strerror or exc}\n")
        return None, EX_NOINPUT
    except gr.GrammarParseError as exc:
        err.write(f"malformed grammar document: {exc}\n")
        return None, EX_DATAERR
    return g, EX_OK


def _load_validated(path, out, err):
    g, code = _load(path, err)
    if g is None:
        return None, code
    errors = [d for d in g.diagnostics if d.severity == gr.ERROR]
    if errors:
        _emit([d.as_dict() for d in errors], out)
        err.write(f"grammar has {len(errors)} validation error(s)\n")
        return None, EX_INVALID
    return g, EX_OK


def _load_weights(path, g, err):
    if path is None:
        return None, EX_OK
    try:
        with open(path, "rb") as handle:
            weights = json.load(handle)
    except OSError as exc:
        err.write(f"cannot read {path}: {exc.strerror or exc}\n")
        return None, EX_NOINPUT
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
        err.write(f"malformed start weights: {exc}\n")
        return None, EX_DATAERR
    try:
        expectation.start_law(g, weights)
    except ValueError as exc:
        err.write(f"start weights must be a JSON object of finite nonnegative numbers"
                  f" with mass on a start tree: {exc}\n")
        return None, EX_DATAERR
    return weights, EX_OK


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EX_USAGE

    if args.command == "validate":
        g, code = _load(args.grammar, err)
        if g is None:
            return code
        diags = gr.validate(g)
        _emit([d.as_dict() for d in diags], out)
        if any(d.severity == gr.ERROR for d in diags):
            return EX_INVALID
        return EX_OK

    g, code = _load_validated(args.grammar, out, err)
    if g is None:
        return code
    try:
        return _dispatch(args, g, out, err)
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return EX_USAGE
    except expectation.DenseCapExceeded as exc:  # matrix and check
        err.write(f"DENSE_CAP_EXCEEDED: {exc}\n")
        return EX_INVALID


def _dispatch(args, g, out, err):
    if args.command == "matrix":
        matrix = {"P": expectation.build_P, "N": expectation.build_N,
                  "M": expectation.build_M}[args.which](g)
        if args.format == "tsv":
            out.write(expectation.matrix_tsv(matrix.values))
        else:
            _emit(expectation.matrix_json_doc(matrix), out)
        return EX_OK

    if args.command == "check":
        report = consistency.check_consistency(
            g, max_squarings=args.max_squarings, tol=args.tol)
        _emit(report.as_dict(), out)
        return {consistency.CONSISTENT: EX_OK,
                consistency.INCONSISTENT: EX_INCONSISTENT,
                consistency.INDETERMINATE: EX_INDETERMINATE}[report.verdict]

    if args.command == "gf":
        idx = g.index
        try:
            if args.site is not None:
                poly = branching.adjunction_gf(g, args.site)
            else:
                poly = branching.level_gf(g, args.level, term_cap=args.term_cap)
        except KeyError as exc:
            err.write(f"{exc.args[0]}\n")
            return EX_USAGE
        except branching.TermCapExceeded as exc:
            err.write(f"TERM_CAP_EXCEEDED: {exc}\n")
            return EX_INVALID
        _emit({"text": poly.format(idx.ids), "constant": poly.constant_term,
               "terms": [{"coefficient": coefficient,
                          "exponents": {idx.ids[i]: p
                                        for i, p in sorted(exponents.items())}}
                         for exponents, coefficient in poly.terms]}, out)
        return EX_OK

    if args.command == "extinction":
        weights, code = _load_weights(args.start_weights, g, err)
        if code != EX_OK:
            return code
        ev = branching.extinction(g, tol=args.tol, max_iter=args.max_iter)
        starts = branching.start_termination(g, ev)
        combined = None if weights is None else expectation.start_mixture(g, ev.q, weights)
        _emit({"q": ev.as_dict(), "iterations": ev.iterations,
               "residual": ev.residual, "converged": ev.converged,
               "start_trees": starts, "combined": combined}, out)
        return EX_OK

    if args.command == "simulate":
        weights, code = _load_weights(args.start_weights, g, err)
        if code != EX_OK:
            return code
        stats = simulate.estimate_termination(
            g, args.samples, args.max_depth, seed=args.seed,
            start_weights=weights)
        _emit(stats.as_dict(), out)
        return EX_OK

    if args.command == "enumerate":
        if args.max_depth > ENUMERATE_DEPTH_CAP:
            err.write(f"max_depth {args.max_depth} is past the {ENUMERATE_DEPTH_CAP} "
                      "levels that enumerate writes out\n")
            return EX_INVALID
        try:
            derivations = simulate.enumerate_derivations(
                g, args.max_depth, prob_floor=args.prob_floor,
                node_cap=args.node_cap)
        except simulate.EnumerationBudgetExceeded as exc:
            err.write(f"{exc}\n")
            return EX_INVALID
        _emit(simulate.derivation_docs(derivations), out)
        return EX_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
