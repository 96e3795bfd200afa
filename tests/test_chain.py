"""The layer chain: each module imports only modules before it, and no private name."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "laytrop")

# The modules of the package in chain order: arithmetic per sort, scalars,
# polynomials and their hull, resultants, then factorization and calculus,
# rasters, parsing and the CLI.  ``__init__`` comes before all of them and
# imports none at module level.
CHAIN = ("__init__", "errors", "sorts", "scalars", "polys", "resultants", "factor", "calculus",
         "multivar", "parsing", "cli")


def _eager_imports(nodes):
    """The relative imports among ``nodes`` and their children that run when
    the module is imported: those in function bodies and ``if TYPE_CHECKING:``
    blocks are left out."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _eager_imports(node.orelse)
        else:
            yield from _eager_imports(ast.iter_child_nodes(node))


def test_imports_follow_the_chain():
    assert sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py")) == sorted(CHAIN)
    violations = []
    for position, module in enumerate(CHAIN):
        with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in _eager_imports(tree.body):
            for alias in node.names:  # from .target import name, or from . import target
                target, name = (node.module, alias.name) if node.module else (alias.name, None)
                if target not in CHAIN[:position]:
                    violations.append(f"{module} imports {target}")
                if name is not None and name.startswith("_"):
                    violations.append(f"{module} imports {target}.{name}")
    assert violations == []
