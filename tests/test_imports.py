"""The package's modules import one another without a cycle.

Each module under src/ptagcheck is parsed with ast, and every import of a
package module is collected, those inside functions included: a lazy
import closes a cycle as surely as one at the top, only later.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptagcheck"


def package_imports(source, modules):
    """The package modules that source imports anywhere in it; ``from . import
    name`` of a name that is no module imports the package, ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] if len(parts) > 1 else "__init__"
                         for parts in names if parts[0] == "ptagcheck")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "ptagcheck":
                parts = parts[1:]
            elif node.level != 1:
                continue  # outside the package
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def import_graph():
    """Per module of the package, the package modules it imports."""
    paths = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    return {name: sorted(package_imports(path.read_text(), paths) - {name})
            for name, path in paths.items()}


def find_cycle(graph):
    """One cycle of graph as a list of nodes that starts and ends on the same
    node, or None.  Depth first, with the path on a stack."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for succ in graph.get(node, ()):
            if cycle := visit(succ):
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in graph:
        if cycle := visit(node):
            return cycle
    return None


def test_package_imports_have_no_cycle():
    graph = import_graph()
    assert {"cli", "grammar", "simulate", "expectation"} <= graph.keys()
    assert "grammar" in graph["simulate"] and "simulate" in graph["cli"]  # the lazy one too
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_import_collection_and_cycle_search():
    modules = {"a": None, "b": None, "c": None}
    source = ("import numpy\nimport ptagcheck.b\nfrom . import c, helper\n"
              "from .b import x\nfrom .. import other\n"
              "def lazy():\n    from ptagcheck.c import y\n    from ptagcheck import a\n")
    assert package_imports(source, modules) == {"a", "b", "c", "__init__"}
    assert find_cycle({"a": ["b"], "b": ["c"], "c": []}) is None
    assert find_cycle({"a": ["b"], "b": ["c"], "c": ["b"]}) == ["b", "c", "b"]
    assert find_cycle({"a": ["a"]}) == ["a", "a"]
