"""W's layout and storage are graph.py's alone: the modules that use the
graph read W only through the operator's methods, never through its kept
panels, its buffer, its walk over the panels, the row blocks W is built
and walked in or the byte budget that decides which panels are kept, and
none branches on what is kept. The rule that accepts a system is
solver.py's alone: the fit ends in `propagate_cg`, not in its own copy of
the condition check. The weight kernel's arithmetic is
`graph._weight_kernel`'s alone: the operator uses its factors and
transform, and branches on no kernel of its own. The solvers split the
seeds from the rest by the label matrix's mask alone, never by index
arrays made from it."""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    "emolex")
# W's panels, their rows and buffer on the operator, the walk and build of
# a panel, the blocks W is built and walked in, the budget of kept panels,
# and the flag by which the fold path once followed that budget.
STORAGE = ("_kept", "_rows", "_height", "_buf", "_walk", "_panel",
           "row_blocks", "_KEEP_BYTES", "gathers")
# The check by which the solvers accept a system before they solve it.
ACCEPTANCE = ("condition", "_opening_product")
# The kernels, and the parameters that choose and shape them.
KERNELS = ("COSINE_LOGISTIC", "EUCLIDEAN_RBF")
KERNEL_PARAMS = ("kernel", "alpha", "b", "sigma")
# The calls that turn a mask into index arrays.
INDEX_CALLS = ("flatnonzero", "nonzero")


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
    """(line, what) for each STORAGE attribute and each import of a
    STORAGE name in the package module `module`."""
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
    assert found == {"._kept", "._rows", "._height", "._buf", "._walk",
                     "._panel"}


def test_fit_accepts_only_through_solve():
    assert imports(parse("optimize.py"), ACCEPTANCE) == []


# The check finds the import by which the fit once ran its own condition
# check.
def test_finds_an_acceptance_import():
    tree = ast.parse("from .solver import check_seed_split, condition")
    assert imports(tree, ACCEPTANCE) == [(1, "condition")]


def kernel_reads(tree, name="TransitionOperator"):
    """(line, what) for each kernel constant named and each `.kernel`,
    `.alpha`, `.b` or `.sigma` read in the body of class `name`."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == name)
    found = [(node.lineno, node.id) for node in ast.walk(body)
             if isinstance(node, ast.Name) and node.id in KERNELS]
    found += [(node.lineno, "." + node.attr) for node in ast.walk(body)
              if isinstance(node, ast.Attribute)
              and node.attr in KERNEL_PARAMS]
    return sorted(found)


def test_operator_has_no_kernel_branch():
    assert kernel_reads(parse("graph.py")) == []


# The check finds the kernel branch by which the streamed operator once
# worked out its own diagonal.
def test_finds_a_kernel_branch():
    tree = ast.parse("""
class TransitionOperator:
    def __init__(self, x, params):
        self._diagonal = (
            np.ones(len(x)) if params.kernel == EUCLIDEAN_RBF
            else logistic(np.einsum("ij,ij->i", self._left, x) + params.b))
""")
    assert kernel_reads(tree) == [(5, ".kernel"), (5, "EUCLIDEAN_RBF"),
                                  (6, ".b")]


def index_calls(tree):
    """(line, name) for each call of `flatnonzero` or `nonzero`, as a
    function or as a method, in `tree`."""
    return sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  for name in [getattr(node.func, "attr",
                                       getattr(node.func, "id", None))]
                  if name in INDEX_CALLS)


def test_solvers_split_seeds_by_mask():
    assert index_calls(parse("solver.py")) == []


# The check finds the index arrays by which the solvers once split the
# seeds, called either way.
def test_finds_an_index_split():
    tree = ast.parse("""
unlabeled = np.flatnonzero(~labeled)
seeds, = labeled.nonzero()
""")
    assert index_calls(tree) == [(2, "flatnonzero"), (3, "nonzero")]
