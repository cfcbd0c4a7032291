import re

from conftest import REPO


def test_readme_python_blocks_run(monkeypatch):
    # the documented library calls, run as written from the repository root
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(REPO)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
