"""Each cap ends its command with the documented exit code, not a traceback.

Every case runs ``python -m ptagcheck.cli`` as a child process with a
timeout, so a command that hangs, or dies of an uncaught error with exit 1
(the code for "inconsistent"), fails its case instead of the suite.
"""

import json
import os
import subprocess
import sys

import pytest

from ptagcheck import cli
from ptagcheck import grammar as gr
from conftest import REPO, branching_family, critical_chain

# name: (grammar, command and options, exit code)
CASES = {
    "check-5000-squarings": (lambda: branching_family(0.5),
                             ["check", "--max-squarings", "5000"], cli.EX_INDETERMINATE),
    "check-8-class-chain": (lambda: critical_chain(8, 2), ["check"], cli.EX_INDETERMINATE),
    "enumerate-depth-1200": (lambda: branching_family(0.5, sites=1),
                             ["enumerate", "--max-depth", "1200"], cli.EX_INVALID),
}


def run_cli(command, path, *options):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "ptagcheck.cli", command, str(path), *options],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("grammar,argv,code", CASES.values(), ids=CASES.keys())
def test_cap_exit_code(tmp_path, grammar, argv, code):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(gr.to_document(grammar())))
    done = run_cli(argv[0], path, *argv[1:])
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == cli.EX_INVALID:  # a cap hit: one line on stderr, nothing on stdout
        assert (done.stdout, done.stderr.count("\n")) == ("", 1)
    else:
        assert json.loads(done.stdout)["verdict"] == "Indeterminate"
