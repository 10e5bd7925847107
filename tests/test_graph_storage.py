"""W's layout and storage are graph.py's alone: the modules that use the
graph read W only through the operator's methods, never through its `w`
array or the row blocks W is built and walked in. The rule that accepts a
system is solver.py's alone: the fit ends in `solve`, not in its own copy
of the condition check."""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    "emolex")
# W's array on the operator, and the blocks W is built and walked in.
STORAGE = ("w", "row_blocks")
# The check by which the solvers accept a system before they solve it.
ACCEPTANCE = ("condition", "_opening_product")


def parse(module):
    path = os.path.join(PACKAGE, module)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def imports(tree, names):
    """(line, name) for each import of one of `names` in `tree`."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.name.split(".")[-1] in names]


def storage_reads(module):
    """(line, what) for each `.w` or `row_blocks` attribute and each import
    of `row_blocks` in the package module `module`."""
    tree = parse(module)
    found = [(node.lineno, "." + node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in STORAGE]
    return found + [(line, "import " + name)
                    for line, name in imports(tree, STORAGE)]


@pytest.mark.parametrize("module", ["optimize.py", "solver.py", "evaluate.py",
                                    "cli.py"])
def test_reads_w_only_through_the_operator(module):
    assert storage_reads(module) == []


# The check finds the reads where they belong.
def test_graph_reads_its_own_storage():
    found = {what for _, what in storage_reads("graph.py")}
    assert found == {".w"}


def test_fit_accepts_only_through_solve():
    assert imports(parse("optimize.py"), ACCEPTANCE) == []


# The check finds the import by which the fit once ran its own condition
# check.
def test_finds_an_acceptance_import():
    tree = ast.parse("from .solver import check_seed_split, condition")
    assert imports(tree, ACCEPTANCE) == [(1, "condition")]
