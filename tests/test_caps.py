"""Each cap ends its command with the documented exit code, not a traceback.

Every case runs ``python -m ptagcheck.cli`` as a child process with a
timeout and a 1 GiB address-space limit, so a command that hangs, blows up
in memory, or dies of an uncaught error with exit 1 (the code for
"inconsistent"), fails its case instead of the suite or the machine.
"""

import io
import json
import os
import re
import resource
import subprocess
import sys

import pytest

from ptagcheck import branching as br
from ptagcheck import cli
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from ptagcheck.polynomials import TermCapExceeded
from conftest import (GRAMMAR4, REPO, branching_family, critical_chain, deepest_level,
                      doubling_grammar)

MEMORY_LIMIT = 1 << 30  # bytes of address space per child

# name: (grammar, command and options, exit code)
CASES = {
    "check-5000-squarings": (lambda: branching_family(0.5),
                             ["check", "--max-squarings", "5000"], cli.EX_INDETERMINATE),
    # no derivation of the chain finishes: Inconsistent once the squarings stop
    "check-8-class-chain": (lambda: critical_chain(8, 2), ["check"], cli.EX_INCONSISTENT),
    "enumerate-depth-1200": (lambda: branching_family(0.5, sites=1),
                             ["enumerate", "--max-depth", "1200"], cli.EX_INVALID),
    "enumerate-depth-cap+1": (lambda: branching_family(0.5, sites=1),
                              ["enumerate", "--max-depth", str(cli.ENUMERATE_DEPTH_CAP + 1)],
                              cli.EX_INVALID),
    "simulate-10**12-samples": (lambda: gr.load_grammar(GRAMMAR4),
                                ["simulate", "--samples", str(10**12)], cli.EX_INVALID),
    "simulate-8-class-chain": (lambda: critical_chain(8, 2), ["simulate"], cli.EX_OK),
    "simulate-supercritical": (lambda: branching_family(0.9), ["simulate"], cli.EX_OK),
    "simulate-doubling": (doubling_grammar, ["simulate"], cli.EX_OK),
    # level n raises each site's one-term replacement to the power 2^(n - 1):
    # refused at level 18, past the default term cap, not built for hours
    "gf-level-30-doubling": (doubling_grammar, ["gf", "--level", "30"], cli.EX_INVALID),
}


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def cli_child(command, path, *options):
    """The argv and the Popen keywords of a limited CLI child."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    # OpenBLAS reserves a buffer per thread, which on a many-core machine
    # alone could pass the limit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "ptagcheck.cli", command, str(path), *options]
    return argv, {"text": True, "env": env, "preexec_fn": limit_memory}


def run_cli(command, path, *options):
    argv, keywords = cli_child(command, path, *options)
    return subprocess.run(argv, capture_output=True, timeout=60, **keywords)


@pytest.mark.parametrize("grammar,argv,code", CASES.values(), ids=CASES.keys())
def test_cap_exit_code(tmp_path, grammar, argv, code):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(gr.to_document(grammar())))
    done = run_cli(argv[0], path, *argv[1:])
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == cli.EX_INVALID:  # a cap hit: one line on stderr, nothing on stdout
        assert (done.stdout, done.stderr.count("\n")) == ("", 1)
    elif code == cli.EX_OK:  # simulate, with its default samples
        assert json.loads(done.stdout)["samples"] == 10_000
    else:
        verdict = {cli.EX_INCONSISTENT: "Inconsistent", cli.EX_INDETERMINATE: "Indeterminate"}
        assert json.loads(done.stdout)["verdict"] == verdict[code]


def test_level_gf_refuses_a_power_above_the_term_cap():
    # G_n = s[B]^(2^n) * s[C]^(2^n): level n raises each site's one-term
    # replacement to the power 2^(n - 1), one term at any power
    g = doubling_grammar()
    capped = br.level_gf(g, 10, term_cap=1000)
    assert repr(capped) == repr(br.level_gf(g, 10, term_cap=None))
    assert capped.terms == [({0: 1024, 1: 1024}, 1.0)]
    with pytest.raises(TermCapExceeded, match=re.escape("power 1024 of a replacement (cap 1000)")):
        br.level_gf(g, 11, term_cap=1000)


def test_enumerate_writes_out_a_derivation_as_deep_as_the_cap():
    # the doc of a derivation and its JSON take two frames per level each:
    # the deepest one the cap admits is written out within the recursion
    # limit, here with the test runner's frames beneath it
    cap = cli.ENUMERATE_DEPTH_CAP
    ds = sim.enumerate_derivations(branching_family(0.5, sites=1), cap)
    deepest = max(ds, key=lambda d: deepest_level(d.root))
    assert deepest_level(deepest.root) == cap - 1
    out = io.StringIO()
    cli._emit(sim.derivation_docs([deepest]), out)
    assert json.loads(out.getvalue())[0]["probability"] == 0.5 ** cap


def test_closed_output_pipe_exits_74():
    # enumerate's 0.3 MB outgrow the pipe's buffer, so the child is still
    # writing when its reader goes away
    argv, keywords = cli_child("enumerate", GRAMMAR4, "--max-depth", "4")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          **keywords) as child:
        assert child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == cli.EX_IOERR
    assert err == "cannot write output: [Errno 32] Broken pipe\n"
