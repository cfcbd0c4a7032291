import ast

import pytest

from conftest import REPO


def xfail_markers(tree):
    """(line, call or None) of each xfail in a parsed module: the call that
    makes the marker, or None where xfail is named without one."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(node.lineno, calls.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "xfail"]


def is_tied_to_the_roadmap(call):
    keywords = {k.arg: k.value for k in call.keywords} if call else {}
    strict, reason = keywords.get("strict"), keywords.get("reason")
    return (isinstance(strict, ast.Constant) and strict.value is True
            and isinstance(reason, ast.Constant) and isinstance(reason.value, str)
            and reason.value.startswith("ROADMAP item "))


def test_every_xfail_is_strict_and_names_a_roadmap_item():
    # an expected failure documents a known defect: it must turn into a
    # failure once the defect is mended, and say where the mend is planned
    loose = [f"{path.name}:{line}" for path in sorted((REPO / "tests").glob("*.py"))
             for line, call in xfail_markers(ast.parse(path.read_text()))
             if not is_tied_to_the_roadmap(call)]
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
    assert is_tied_to_the_roadmap(call) == tied
