import ast
import re

import pytest

from conftest import REPO


def xfail_markers(tree):
    """(line, call or None) of each xfail in a parsed module: the call that
    makes the marker, or None where xfail is named without one."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(node.lineno, calls.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "xfail"]


def roadmap_item(call):
    """The item number that a strict xfail's reason starts by citing,
    "ROADMAP item N", or None for any other marker."""
    keywords = {k.arg: k.value for k in call.keywords} if call else {}
    strict, reason = keywords.get("strict"), keywords.get("reason")
    if not (isinstance(strict, ast.Constant) and strict.value is True
            and isinstance(reason, ast.Constant) and isinstance(reason.value, str)):
        return None
    cited = re.match(r"ROADMAP item (\d+)\b", reason.value)
    return int(cited[1]) if cited else None


def open_items(roadmap):
    """The numbers of the entries ("N. **" at the start of a line) in the
    roadmap's "## Open items" section."""
    section = roadmap.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.MULTILINE)}


def test_every_xfail_is_strict_and_names_a_roadmap_item():
    # an expected failure documents a known defect: it must turn into a
    # failure once the defect is mended, and say where the mend is planned,
    # in an item still open, so that a marker citing a pruned item fails
    still_open = open_items((REPO / "ROADMAP.md").read_text())
    loose = [f"{path.name}:{line}" for path in sorted((REPO / "tests").glob("*.py"))
             for line, call in xfail_markers(ast.parse(path.read_text()))
             if roadmap_item(call) not in still_open]
    assert not loose


@pytest.mark.parametrize("source, tied", [
    ('@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: why")\ndef f(): pass', True),
    ('@pytest.mark.xfail(strict=True, reason="ROADMAP item " "2")\ndef f(): pass', True),
    ('@pytest.mark.xfail(reason="ROADMAP item 2: why")\ndef f(): pass', False),
    ('@pytest.mark.xfail(strict=False, reason="ROADMAP item 2")\ndef f(): pass', False),
    ('@pytest.mark.xfail(strict=True, reason="flaky")\ndef f(): pass', False),
    ('@pytest.mark.xfail(strict=True)\ndef f(): pass', False),
    ("@pytest.mark.xfail\ndef f(): pass", False),
    ('p = pytest.param(1, marks=pytest.mark.xfail(reason="ROADMAP item 2"))', False),
    ('def f():\n    pytest.xfail("ROADMAP item 2")', False),
])
def test_xfail_marker_check(source, tied):
    (_, call), = xfail_markers(ast.parse(source))
    assert (roadmap_item(call) is not None) == tied


def test_open_items_reads_the_open_items_section():
    roadmap = ("# ROADMAP\n\n## Baseline\n\n1. **Before the section.**\n\n"
               "## Open items\n\nSuggested order:\n1. Item 12, then item 2.\n\n"
               "2. **Decide by class.**\n   more text\n\n12. **Estimate phi.**\n"
               "   3. **Indented, so no entry.**\n- 4. **A bullet.**\n\n"
               "## Recent\n\n5. **After the section.**\n")
    assert open_items(roadmap) == {2, 12}
    cited = [roadmap_item(call) for source in (
        '@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: why")',
        '@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: pruned")',
        '@pytest.mark.xfail(strict=True, reason="ROADMAP item 123")')
        for _, call in xfail_markers(ast.parse(source + "\ndef f(): pass"))]
    assert cited == [12, 5, 123]
    assert [item in open_items(roadmap) for item in cited] == [True, False, False]
