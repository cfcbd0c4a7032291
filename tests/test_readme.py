import os
import re
import subprocess
import sys

import ptagcheck
from conftest import REPO


def test_readme_python_blocks_run(monkeypatch):
    # the documented library calls, run as written from the repository root
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(REPO)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_shell_examples_run():
    # each "$ ptagcheck ..." line of the Command line section, run from the
    # repository root; the lines shown under one, but "...", are lines of its
    # stdout, and its exit code is 0 unless a comment names another
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[1]
    commands = re.findall(r"^\$ ptagcheck (.*)\n((?:(?!\$).*\S.*\n)*)", block, re.MULTILINE)
    assert len(commands) == 9
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for line, shown in commands:
        argv, _, comment = line.partition("#")
        expected = re.search(r"exit code (\d+)", comment)
        done = subprocess.run([sys.executable, "-m", "ptagcheck.cli", *argv.split()],
                              capture_output=True, text=True, timeout=60, env=env,
                              cwd=REPO)
        assert done.returncode == (int(expected[1]) if expected else 0), line
        assert done.stdout.strip(), line
        printed = {out.strip() for out in done.stdout.splitlines()}
        assert {s.strip() for s in shown.splitlines()} - {"..."} <= printed, line


def test_package_loads_its_names_on_first_use():
    # import ptagcheck loads no submodule; every name the Library section
    # calls resolves and is listed by dir()
    section = (REPO / "README.md").read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"\bpt\.(\w+)", section))
    assert {"load_grammar", "check_consistency", "extinction"} <= names
    script = ("import sys; import ptagcheck as pt; "
              "print(*sorted(m for m in sys.modules if m.startswith('ptagcheck.'))); "
              "names = sys.argv[1:]; listed = dir(pt); "
              "print(*[n for n in names if n not in listed or getattr(pt, n) is None])")
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script, *sorted(names)], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    assert done.stdout == "\n\n"  # no submodule loaded, no name missing


def test_dir_lists_every_exported_name():
    assert set(ptagcheck.__all__) <= set(dir(ptagcheck))


def test_star_import_binds_every_exported_name():
    # a name left in the export table after its module dropped it would
    # break the star import, which loads every submodule; a name listed
    # twice would be exported from only one of its modules
    script = ("import ptagcheck; ns = {}; exec('from ptagcheck import *', ns); "
              "listed = [n for names in ptagcheck._EXPORTS.values() for n in names]; "
              "print(len(listed) - len(set(ptagcheck.__all__)), "
              "*[n for n in ptagcheck.__all__ if n not in ns])")
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    assert done.stdout == "0\n"  # no duplicate, no name missing
