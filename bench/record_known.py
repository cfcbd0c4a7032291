"""Write bench/known.json and bench/data/syn130.json.

    python3 bench/record_known.py

Run once, on the commit whose outputs become the contract; the benchmark
only reads what this writes.  It records the sha256 of every CLI command's
stdout on the shipped grammars, the termination probabilities the Monte
Carlo estimates are checked against, and the depth-5 enumeration constants
of grammar4.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run  # sets the BLAS thread count before numpy loads

run._import_program()

from ptagcheck import branching, grammar, simulate  # noqa: E402

import workloads  # noqa: E402
from synth import synth_document  # noqa: E402

# the fixed ~130-site Monte Carlo grammar: subcritical, so 10^4 samples stay cheap
SYN130_ARGS = {"seed": "montecarlo", "sites": 130, "mass": 0.3}


def main():
    syn130 = synth_document(**SYN130_ARGS)
    workloads.DATA.mkdir(exist_ok=True)
    with open(workloads.DATA / "syn130.json", "w", encoding="utf-8") as handle:
        json.dump(syn130, handle, indent=1)
        handle.write("\n")

    env = workloads.child_env()
    cli = {}
    for name in workloads.SHIPPED:
        for argv in workloads.cli_argv(name):
            _, stdout = workloads.spawn_cli(env, argv)
            cli[workloads.cli_key(argv)] = hashlib.sha256(stdout).hexdigest()

    montecarlo = {}
    for name, _ in workloads.MC_RUNS:
        path = (workloads.DATA if name == "syn130.json" else workloads.ROOT) / name
        g = grammar.load_grammar(path)
        ev = branching.extinction(g)
        if not ev.converged:
            sys.exit(f"extinction did not converge on {name}")
        # the sampler picks a start tree uniformly, so the reference is the mean
        starts = list(branching.start_termination(g, ev).values())
        montecarlo[name] = sum(starts) / len(starts)

    g4 = grammar.load_grammar(workloads.ROOT / "grammar4.json")
    depth = workloads.ORACLE_DEPTH
    poly = branching.level_gf(g4, depth)
    derivations = simulate.enumerate_derivations(g4, depth)
    exact = {"depth": depth, "terms": len(poly), "derivations": len(derivations),
             "c5": branching.constant_split(poly)[1]}

    with open(workloads.known.KNOWN_JSON, "w", encoding="utf-8") as handle:
        json.dump({"syn130": SYN130_ARGS, "cli": cli, "montecarlo": montecarlo,
                   "exact": exact}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
