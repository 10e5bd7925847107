"""W's layout and storage are graph.py's alone: the modules that use the
graph read W only through the operator's methods, never through its `w`
array or the row blocks W is built and walked in."""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    "emolex")
# W's array on the operator, and the blocks W is built and walked in.
STORAGE = ("w", "row_blocks")


def storage_reads(module):
    """(line, what) for each `.w` or `row_blocks` attribute and each import
    of `row_blocks` in the package module `module`."""
    path = os.path.join(PACKAGE, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, "import " + alias.name)
                      for alias in node.names
                      if alias.name.split(".")[-1] in STORAGE]
    return found


@pytest.mark.parametrize("module", ["optimize.py", "solver.py", "evaluate.py",
                                    "cli.py"])
def test_reads_w_only_through_the_operator(module):
    assert storage_reads(module) == []


# The check finds the reads where they belong.
def test_graph_reads_its_own_storage():
    found = {what for _, what in storage_reads("graph.py")}
    assert found == {".w"}
